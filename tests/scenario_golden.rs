//! Golden and determinism tests for the `Scenario` API.
//!
//! Two contracts are pinned here:
//!
//! 1. **Legacy goldens** — every protocol that once had a one-call
//!    `run_*` runner reproduces that runner's outcome. The runners were
//!    deprecated wrappers that built the very same `Scenario`; before
//!    they were deleted, each case below was run once and its full
//!    `encode_run_report` bytes were recorded (the runners agreed with
//!    `Scenario` on every field they reported). The cases now compare
//!    the whole canonical report against those bytes. The coloring case
//!    still compares two live paths: `Scenario` against `run_stabilize`;
//! 2. **Sweep determinism** — `Simulation::sweep` returns identical
//!    reports for 1 worker thread and many, and `run(seed)` twice is
//!    bit-for-bit identical.

use sinr_broadcast::core::sim::{
    encode_run_report, Outcome, ProtocolSpec, Scenario, SimError, Simulation, TopologySpec,
};
use sinr_broadcast::core::{run_stabilize, Constants};
use sinr_broadcast::geometry::Point2;
use sinr_broadcast::phy::{InterferenceMode, SinrParams};
use sinr_broadcast::runtime::WakeSchedule;

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        dissem_factor: 8.0,
        ..Constants::tuned()
    }
}

fn path(n: usize) -> Vec<Point2> {
    (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect()
}

/// Builds the scenario every broadcast-style case uses.
fn sim_for(spec: ProtocolSpec, budget: u64) -> Simulation {
    Scenario::new(path(6))
        .constants(fast())
        .protocol(spec)
        .budget(budget)
        .build()
        .expect("valid scenario")
}

/// Runs `seed` and compares the canonical report encoding against the
/// bytes recorded from the legacy runner's scenario.
fn assert_golden(sim: &Simulation, seed: u64, golden: &str) -> Result<(), SimError> {
    assert_eq!(encode_run_report(&sim.run(seed)?), golden, "seed {seed}");
    Ok(())
}

#[test]
fn nos_broadcast_matches_legacy() -> Result<(), SimError> {
    let sim = sim_for(ProtocolSpec::NoSBroadcast { source: 0 }, 500_000);
    assert_golden(
        &sim,
        11,
        r#"{"seed":11,"n":6,"rounds":206,"completed":true,"informed":6,"total_transmissions":9,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn s_broadcast_matches_legacy() -> Result<(), SimError> {
    let sim = sim_for(ProtocolSpec::SBroadcast { source: 0 }, 500_000);
    assert_golden(
        &sim,
        12,
        r#"{"seed":12,"n":6,"rounds":126,"completed":true,"informed":6,"total_transmissions":8,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn estimate_broadcasts_match_legacy() -> Result<(), SimError> {
    let sim = sim_for(
        ProtocolSpec::SBroadcastWithEstimate { source: 0, nu: 48 },
        2_000_000,
    );
    assert_golden(
        &sim,
        13,
        r#"{"seed":13,"n":6,"rounds":200,"completed":true,"informed":6,"total_transmissions":8,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )?;

    let sim = sim_for(
        ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 48 },
        fast().phase_rounds(48) * 60,
    );
    assert_golden(
        &sim,
        14,
        r#"{"seed":14,"n":6,"rounds":703,"completed":true,"informed":6,"total_transmissions":13,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn baselines_match_legacy() -> Result<(), SimError> {
    let daum = ProtocolSpec::DaumBroadcast {
        source: 0,
        granularity: None,
    };
    assert_golden(
        &sim_for(daum, 200_000),
        15,
        r#"{"seed":15,"n":6,"rounds":5,"completed":true,"informed":6,"total_transmissions":9,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )?;
    let flood = ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 };
    assert_golden(
        &sim_for(flood, 200_000),
        16,
        r#"{"seed":16,"n":6,"rounds":9,"completed":true,"informed":6,"total_transmissions":10,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )?;
    let local = ProtocolSpec::LocalBroadcast { source: 0 };
    assert_golden(
        &sim_for(local, 200_000),
        17,
        r#"{"seed":17,"n":6,"rounds":34,"completed":true,"informed":6,"total_transmissions":19,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )?;
    let gps = ProtocolSpec::GpsOracleBroadcast { source: 0 };
    assert_golden(
        &sim_for(gps, 200_000),
        18,
        r#"{"seed":18,"n":6,"rounds":8,"completed":true,"informed":6,"total_transmissions":4,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn interference_mode_matches_legacy() -> Result<(), SimError> {
    for (mode, golden) in [
        (
            InterferenceMode::Exact,
            r#"{"seed":19,"n":6,"rounds":297,"completed":true,"informed":6,"total_transmissions":6,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
        ),
        (
            InterferenceMode::Truncated { radius: 4.0 },
            r#"{"seed":19,"n":6,"rounds":297,"completed":true,"informed":6,"total_transmissions":6,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
        ),
        (
            InterferenceMode::CellAggregate { near_radius: 4.0 },
            r#"{"seed":19,"n":6,"rounds":297,"completed":true,"informed":6,"total_transmissions":6,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
        ),
    ] {
        let sim = Scenario::new(path(6))
            .constants(fast())
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .interference_mode(mode)
            .budget(500_000)
            .build()?;
        assert_golden(&sim, 19, golden)?;
    }
    Ok(())
}

#[test]
fn coloring_matches_legacy_stabilize() {
    let params = SinrParams::default_plane();
    let legacy = run_stabilize(path(8), &params, fast(), 21).unwrap();
    let new = Scenario::new(path(8))
        .constants(fast())
        .protocol(ProtocolSpec::Coloring)
        .build()
        .unwrap()
        .run(21)
        .unwrap();
    assert_eq!(legacy.rounds, new.rounds);
    assert_eq!(legacy.total_transmissions, new.total_transmissions);
    match new.outcome {
        Outcome::Coloring { ref coloring } => assert_eq!(*coloring, legacy.coloring),
        ref other => panic!("expected coloring outcome, got {other:?}"),
    }
    assert!(new.completed, "full schedule ran");
    assert_eq!(new.informed, 8, "all stations colored");
}

#[test]
fn truncated_coloring_reports_incomplete_instead_of_panicking() {
    // A budget below the Fact 7 schedule caps the run: unfinished
    // stations report color 0.0 and completed is false (regression test
    // for a panic at `color().expect("schedule complete")`).
    let rep = Scenario::new(path(8))
        .constants(fast())
        .protocol(ProtocolSpec::Coloring)
        .budget(3)
        .build()
        .unwrap()
        .run(21)
        .unwrap();
    assert!(!rep.completed);
    assert_eq!(rep.rounds, 3);
    match rep.outcome {
        Outcome::Coloring { ref coloring } => {
            assert_eq!(coloring.len(), 8);
            assert!(
                coloring.colors.iter().all(|&c| c == 0.0),
                "3 rounds cannot finish any station's schedule"
            );
        }
        ref other => panic!("expected coloring outcome, got {other:?}"),
    }
}

#[test]
fn wakeup_matches_legacy() -> Result<(), SimError> {
    let schedule = WakeSchedule::single(0, 13);
    let sim = sim_for(
        ProtocolSpec::AdhocWakeup { schedule },
        fast().phase_rounds(6) * 60,
    );
    assert_golden(
        &sim,
        22,
        r#"{"seed":22,"n":6,"rounds":397,"completed":true,"informed":6,"total_transmissions":5,"outcome":{"kind":"wakeup","first_wake":13,"rounds_from_first_wake":384},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn established_wakeup_matches_legacy() -> Result<(), SimError> {
    let params = SinrParams::default_plane();
    let consts = fast();
    let backbone = run_stabilize(path(6), &params, consts, 4)?;
    let mut initiators = vec![false; 6];
    initiators[0] = true;
    let sim = sim_for(
        ProtocolSpec::EstablishedWakeup {
            coloring: backbone.coloring,
            initiators,
        },
        consts.wakeup_window(6, 5) * 3,
    );
    assert_golden(
        &sim,
        23,
        r#"{"seed":23,"n":6,"rounds":144,"completed":true,"informed":6,"total_transmissions":4,"outcome":{"kind":"broadcast"},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn consensus_matches_legacy() -> Result<(), SimError> {
    let sim = Scenario::new(path(6))
        .constants(fast())
        .protocol(ProtocolSpec::Consensus {
            values: vec![6, 2, 5, 7, 3, 4],
            bits: 3,
            d_bound: 4,
        })
        .build()?;
    assert_golden(
        &sim,
        24,
        r#"{"seed":24,"n":6,"rounds":16440,"completed":true,"informed":6,"total_transmissions":343,"outcome":{"kind":"consensus","decided":[2,2,2,2,2,2],"agreement":true,"valid":true},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn leader_election_matches_legacy() -> Result<(), SimError> {
    let sim = Scenario::new(path(6))
        .constants(fast())
        .protocol(ProtocolSpec::LeaderElection { d_bound: 6 })
        .build()?;
    assert_golden(
        &sim,
        25,
        r#"{"seed":25,"n":6,"rounds":72744,"completed":true,"informed":6,"total_transmissions":1555,"outcome":{"kind":"leader","leaders":[0],"unique":true},"per_round":null,"tx_counts":null,"measurements":{},"faults":null}"#,
    )
}

#[test]
fn alert_is_deterministic_and_spreads() {
    // No legacy runner existed for the alert protocol; pin determinism
    // and the completion semantics instead.
    let params = SinrParams::default_plane();
    let consts = fast();
    let backbone = run_stabilize(path(6), &params, consts, 4).unwrap();
    let sim = sim_for(
        ProtocolSpec::Alert {
            coloring: backbone.coloring.clone(),
            alerts: vec![(3, 7)],
            d_bound: 6,
        },
        consts.wakeup_window(6, 6) * 4,
    );
    let a = sim.run(26).unwrap();
    let b = sim.run(26).unwrap();
    assert_eq!(a, b);
    assert!(a.completed, "{a:?}");
    match a.outcome {
        Outcome::Alert { ref learned_at } => {
            assert_eq!(learned_at[3], Some(7));
            assert!(learned_at.iter().all(|r| r.is_some()));
        }
        ref other => panic!("expected alert outcome, got {other:?}"),
    }
}

#[test]
fn sweep_is_thread_count_invariant() {
    // The ISSUE's core determinism claim: a sweep's reports are identical
    // no matter how many worker threads execute it.
    let seeds: Vec<u64> = (0..12).collect();
    for spec in [
        ProtocolSpec::SBroadcast { source: 0 },
        ProtocolSpec::NoSBroadcast { source: 0 },
        ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 },
    ] {
        let sim = sim_for(spec, 500_000);
        let serial = sim.sweep_with_threads(&seeds, 1).unwrap();
        let parallel = sim.sweep_with_threads(&seeds, 8).unwrap();
        let auto = sim.sweep(&seeds).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, auto);
        assert_eq!(serial.seeds(), seeds);
    }
}

#[test]
fn generated_topology_sweep_is_thread_count_invariant() {
    // Generated topologies draw a fresh deployment per seed; the sweep
    // must still be deterministic and thread-count invariant.
    let sim = Scenario::new(TopologySpec::ClusterChain {
        diameter: 2,
        per_cluster: 6,
    })
    .constants(fast())
    .protocol(ProtocolSpec::SBroadcast { source: 0 })
    .budget(500_000)
    .build()
    .unwrap();
    let seeds: Vec<u64> = (100..108).collect();
    let serial = sim.sweep_with_threads(&seeds, 1).unwrap();
    let parallel = sim.sweep_with_threads(&seeds, 4).unwrap();
    assert_eq!(serial, parallel);
    // Distinct seeds draw distinct deployments (whp) — materialize is the
    // same stream the runs used.
    let a = sim.materialize(100).unwrap();
    let b = sim.materialize(101).unwrap();
    assert_ne!(a, b);
    assert_eq!(a.len(), 18);
}

#[test]
fn run_is_bit_for_bit_reproducible() {
    let sim = sim_for(ProtocolSpec::SBroadcast { source: 0 }, 500_000);
    let a = sim.run(99).unwrap();
    let b = sim.run(99).unwrap();
    assert_eq!(a, b);
    let c = sim.run(100).unwrap();
    assert_ne!(a, c, "different seeds must differ somewhere");
}
