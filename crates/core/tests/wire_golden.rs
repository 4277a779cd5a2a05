//! Byte pins and decoder strictness of the canonical wire form.
//!
//! The pins fix the full `ScenarioSpec::encode` text for every variant
//! of every schema enum (topologies, protocols, wake schedules,
//! interference modes, repair policies, mobility and adversary models,
//! kernel labels), and the full `encode_run_report` text of one report
//! per `Outcome` variant with every `Option` present. Round-trip tests
//! alone cannot catch a schema edit that changes encoder and decoder
//! together; these can. The expected texts are literals: each case
//! spells out the fragment it varies, spliced into a literal base.
//!
//! The strictness sweep walks every object key of every pinned value,
//! nested ones included: deleting the key, or giving it a value of the
//! wrong JSON type, must make the decoder return `Err` (not panic), and
//! every `u32` field must reject `2^32`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sinr_core::sim::{
    decode_run_report, encode_run_report, Accumulation, AdversaryModel, AdversarySpec, ChurnSpec,
    CoveragePoint, FaultReport, KernelDispatch, MobilityModel, MobilitySpec, Outcome, ProtocolSpec,
    RepairPolicy, RunReport, ScenarioSpec, TopologySpec,
};
use sinr_core::verify::Coloring;
use sinr_core::Constants;
use sinr_phy::InterferenceMode;
use sinr_runtime::{RoundStats, WakeSchedule};
use sinr_wire::Value;

// ---------------------------------------------------------------------
// Specs
// ---------------------------------------------------------------------

/// The literal fragments a spec case may vary; everything else in
/// [`spec_text`] is fixed.
#[derive(Clone, Copy)]
struct Parts {
    topology: &'static str,
    protocol: &'static str,
    mode: &'static str,
    kernel_dispatch: &'static str,
    accumulation: &'static str,
    repair: &'static str,
    mobility_model: &'static str,
    adversary_models: &'static str,
}

const BASE: Parts = Parts {
    topology: r#"{"kind":"uniform-square","n":60,"side":2.5}"#,
    protocol: r#"{"kind":"s-broadcast","source":4}"#,
    mode: r#"{"kind":"grid-native","near_radius":4.5}"#,
    kernel_dispatch: r#""scalar""#,
    accumulation: r#""f32""#,
    repair: r#"{"kind":"auto","threshold":0.125}"#,
    mobility_model: r#"{"kind":"random-waypoint","speed":0.2,"pause_epochs":3}"#,
    adversary_models: r#"{"kind":"cut-vertex-kill","fraction":0.2,"at_epoch":1}"#,
};

fn spec_text(p: Parts) -> String {
    format!(
        concat!(
            r#"{{"topology":{},"protocol":{},"alpha":2.5,"beta":1.5,"noise":0.75,"#,
            r#""eps":0.25,"gamma":3,"constants":{{"c1_cap":0.375,"c2_mass":0.005,"#,
            r#""p_max":0.0025,"c0":17,"c1":1.75,"c2":15,"c3":1.5,"c_prime":3,"#,
            r#""c_eps":41,"c_bcast":11,"dissem_factor":49,"hop_factor":301}},"#,
            r#""budget":600,"mode":{},"physics_threads":2,"record":true,"#,
            r#""kernel_dispatch":{},"accumulation":{},"repair":{},"#,
            r#""mobility":{{"model":{},"epoch_rounds":8}},"#,
            r#""churn":{{"arrival_rate":1.5,"mean_lifetime":10.25,"epoch_rounds":6}},"#,
            r#""adversary":{{"models":[{}],"epoch_rounds":24}}}}"#
        ),
        p.topology,
        p.protocol,
        p.mode,
        p.kernel_dispatch,
        p.accumulation,
        p.repair,
        p.mobility_model,
        p.adversary_models,
    )
}

/// The spec [`BASE`] describes: every knob off its default and every
/// `Option` present.
fn base_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 60, side: 2.5 },
        ProtocolSpec::SBroadcast { source: 4 },
    );
    spec.alpha = 2.5;
    spec.beta = 1.5;
    spec.noise = 0.75;
    spec.eps = 0.25;
    spec.gamma = 3.0;
    spec.constants = Constants {
        c1_cap: 0.375,
        c2_mass: 0.005,
        p_max: 0.0025,
        c0: 17.0,
        c1: 1.75,
        c2: 15.0,
        c3: 1.5,
        c_prime: 3,
        c_eps: 41.0,
        c_bcast: 11.0,
        dissem_factor: 49.0,
        hop_factor: 301.0,
    };
    spec.budget = Some(600);
    spec.mode = InterferenceMode::GridNative { near_radius: 4.5 };
    spec.physics_threads = 2;
    spec.record = true;
    spec.kernel_dispatch = KernelDispatch::ForceScalar;
    spec.accumulation = Accumulation::F32;
    spec.repair = RepairPolicy::Auto { threshold: 0.125 };
    spec.mobility = Some(MobilitySpec::new(
        MobilityModel::RandomWaypoint {
            speed: 0.2,
            pause_epochs: 3,
        },
        8,
    ));
    spec.churn = Some(ChurnSpec::poisson(1.5, 10.25, 6));
    spec.adversary = Some(AdversarySpec::cut_vertex_kill(0.2, 1, 24));
    spec
}

fn pin_spec(spec: &ScenarioSpec, expected: &str) {
    let text = spec.encode();
    assert_eq!(text, expected, "spec bytes moved");
    let back = ScenarioSpec::decode(&text).expect("pinned spec decodes");
    assert_eq!(&back, spec, "spec value corrupted by the wire");
    assert_eq!(
        back.encode(),
        text,
        "encode -> decode -> encode moved bytes"
    );
}

fn topology_cases() -> Vec<(TopologySpec, &'static str)> {
    vec![
        (
            TopologySpec::UniformSquare { n: 60, side: 2.5 },
            r#"{"kind":"uniform-square","n":60,"side":2.5}"#,
        ),
        (
            TopologySpec::ConnectedSquare { n: 61, side: 2.25 },
            r#"{"kind":"connected-square","n":61,"side":2.25}"#,
        ),
        (
            TopologySpec::ConnectedSquareDensity {
                n: 62,
                density: 40.5,
            },
            r#"{"kind":"connected-square-density","n":62,"density":40.5}"#,
        ),
        (
            TopologySpec::UniformDisk {
                n: 63,
                radius: 2.75,
            },
            r#"{"kind":"uniform-disk","n":63,"radius":2.75}"#,
        ),
        (
            TopologySpec::Lattice {
                rows: 3,
                cols: 4,
                spacing: 0.5,
            },
            r#"{"kind":"lattice","rows":3,"cols":4,"spacing":0.5}"#,
        ),
        (
            TopologySpec::JitteredLattice {
                rows: 5,
                cols: 6,
                spacing: 0.75,
                amplitude: 0.1,
            },
            r#"{"kind":"jittered-lattice","rows":5,"cols":6,"spacing":0.75,"amplitude":0.1}"#,
        ),
        (
            TopologySpec::UniformLine { n: 64, gap: 0.625 },
            r#"{"kind":"uniform-line","n":64,"gap":0.625}"#,
        ),
        (
            TopologySpec::HalvingLine {
                n: 65,
                first_gap: 0.9,
                ratio: 0.5,
                min_gap: 0.01,
            },
            r#"{"kind":"halving-line","n":65,"first_gap":0.9,"ratio":0.5,"min_gap":0.01}"#,
        ),
        (
            TopologySpec::GranularityLine {
                n: 66,
                max_gap: 0.875,
                rs_target: 8.5,
                min_gap: 0.02,
            },
            concat!(
                r#"{"kind":"granularity-line","n":66,"max_gap":0.875,"rs_target":8.5,"#,
                r#""min_gap":0.02}"#
            ),
        ),
        (
            TopologySpec::GranularityLineFixedD {
                n: 67,
                max_gap: 0.8,
                rs_target: 9.5,
                d_hops: 3,
                min_gap: 0.03,
            },
            concat!(
                r#"{"kind":"granularity-line-fixed-d","n":67,"max_gap":0.8,"#,
                r#""rs_target":9.5,"d_hops":3,"min_gap":0.03}"#
            ),
        ),
        (
            TopologySpec::ClusterChain {
                diameter: 7,
                per_cluster: 8,
            },
            r#"{"kind":"cluster-chain","diameter":7,"per_cluster":8}"#,
        ),
        (
            TopologySpec::GaussianClusters {
                k: 2,
                per_cluster: 9,
                side: 2.0,
                sigma: 0.15,
            },
            r#"{"kind":"gaussian-clusters","k":2,"per_cluster":9,"side":2,"sigma":0.15}"#,
        ),
        (
            TopologySpec::CoreAndSatellites {
                core_n: 10,
                sat_n: 2,
                core_radius: 0.55,
                sat_distance: 2.05,
            },
            concat!(
                r#"{"kind":"core-and-satellites","core_n":10,"sat_n":2,"#,
                r#""core_radius":0.55,"sat_distance":2.05}"#
            ),
        ),
        (
            TopologySpec::Ring {
                n: 11,
                radius: 1.25,
            },
            r#"{"kind":"ring","n":11,"radius":1.25}"#,
        ),
        (
            TopologySpec::Bridge {
                blob_n: 12,
                corridor_n: 3,
                blob_side: 1.1,
            },
            r#"{"kind":"bridge","blob_n":12,"corridor_n":3,"blob_side":1.1}"#,
        ),
        (
            TopologySpec::TwoTier {
                dense_n: 13,
                ratio: 4,
                side: 1.5,
            },
            r#"{"kind":"two-tier","dense_n":13,"ratio":4,"side":1.5}"#,
        ),
    ]
}

fn protocol_cases() -> Vec<(ProtocolSpec, &'static str)> {
    vec![
        (
            ProtocolSpec::NoSBroadcast { source: 3 },
            r#"{"kind":"nos-broadcast","source":3}"#,
        ),
        (
            ProtocolSpec::NoSBroadcastWithEstimate { source: 3, nu: 80 },
            r#"{"kind":"nos-broadcast-nu","source":3,"nu":80}"#,
        ),
        (
            ProtocolSpec::SBroadcast { source: 4 },
            r#"{"kind":"s-broadcast","source":4}"#,
        ),
        (
            ProtocolSpec::SBroadcastWithEstimate { source: 4, nu: 81 },
            r#"{"kind":"s-broadcast-nu","source":4,"nu":81}"#,
        ),
        (ProtocolSpec::Coloring, r#"{"kind":"coloring"}"#),
        (
            ProtocolSpec::DaumBroadcast {
                source: 5,
                granularity: Some(2.5),
            },
            r#"{"kind":"daum","source":5,"granularity":2.5}"#,
        ),
        (
            ProtocolSpec::DaumBroadcast {
                source: 5,
                granularity: None,
            },
            r#"{"kind":"daum","source":5,"granularity":null}"#,
        ),
        (
            ProtocolSpec::FloodBroadcast {
                source: 6,
                p: 0.125,
            },
            r#"{"kind":"flood","source":6,"p":0.125}"#,
        ),
        (
            ProtocolSpec::LocalBroadcast { source: 7 },
            r#"{"kind":"local-broadcast","source":7}"#,
        ),
        (
            ProtocolSpec::ReFloodBroadcast {
                source: 8,
                p: 0.25,
                burst_rounds: 24,
            },
            r#"{"kind":"re-flood","source":8,"p":0.25,"burst_rounds":24}"#,
        ),
        (
            ProtocolSpec::ReFloodBroadcastEstimate {
                source: 9,
                nu0: 2,
                burst_rounds: 48,
            },
            r#"{"kind":"re-flood-online-nu","source":9,"nu0":2,"burst_rounds":48}"#,
        ),
        (
            ProtocolSpec::NoSBroadcastOnlineEstimate { source: 10, nu0: 3 },
            r#"{"kind":"nos-broadcast-online-nu","source":10,"nu0":3}"#,
        ),
        (
            ProtocolSpec::SBroadcastOnlineEstimate { source: 11, nu0: 4 },
            r#"{"kind":"s-broadcast-online-nu","source":11,"nu0":4}"#,
        ),
        (
            ProtocolSpec::GpsOracleBroadcast { source: 12 },
            r#"{"kind":"gps-oracle","source":12}"#,
        ),
        (
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::AllAt(5),
            },
            r#"{"kind":"adhoc-wakeup","schedule":{"kind":"all-at","round":5}}"#,
        ),
        (
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::Selected(vec![(0, 3), (4, 1)]),
            },
            r#"{"kind":"adhoc-wakeup","schedule":{"kind":"selected","entries":[[0,3],[4,1]]}}"#,
        ),
        (
            ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::Staggered { start: 2, gap: 5 },
            },
            r#"{"kind":"adhoc-wakeup","schedule":{"kind":"staggered","start":2,"gap":5}}"#,
        ),
        (
            ProtocolSpec::EstablishedWakeup {
                coloring: Coloring::new(vec![0.5, 0.25, 0.0]),
                initiators: vec![true, false, true],
            },
            concat!(
                r#"{"kind":"established-wakeup","coloring":[0.5,0.25,0],"#,
                r#""initiators":[true,false,true]}"#
            ),
        ),
        (
            ProtocolSpec::Consensus {
                values: vec![3, 1, u64::MAX],
                bits: 2,
                d_bound: 4,
            },
            concat!(
                r#"{"kind":"consensus","values":[3,1,18446744073709551615],"#,
                r#""bits":2,"d_bound":4}"#
            ),
        ),
        (
            ProtocolSpec::LeaderElection { d_bound: 3 },
            r#"{"kind":"leader-election","d_bound":3}"#,
        ),
        (
            ProtocolSpec::Alert {
                coloring: Coloring::new(vec![0.5, 0.125]),
                alerts: vec![(0, 5), (1, 9)],
                d_bound: 6,
            },
            r#"{"kind":"alert","coloring":[0.5,0.125],"alerts":[[0,5],[1,9]],"d_bound":6}"#,
        ),
    ]
}

fn mode_cases() -> Vec<(InterferenceMode, &'static str)> {
    vec![
        (InterferenceMode::Exact, r#"{"kind":"exact"}"#),
        (
            InterferenceMode::Truncated { radius: 6.5 },
            r#"{"kind":"truncated","radius":6.5}"#,
        ),
        (
            InterferenceMode::CellAggregate { near_radius: 3.5 },
            r#"{"kind":"cell-aggregate","near_radius":3.5}"#,
        ),
        (
            InterferenceMode::GridNative { near_radius: 4.5 },
            r#"{"kind":"grid-native","near_radius":4.5}"#,
        ),
    ]
}

fn repair_cases() -> Vec<(RepairPolicy, &'static str)> {
    vec![
        (
            RepairPolicy::Auto { threshold: 0.125 },
            r#"{"kind":"auto","threshold":0.125}"#,
        ),
        (RepairPolicy::AlwaysFull, r#"{"kind":"always-full"}"#),
        (
            RepairPolicy::AlwaysIncremental,
            r#"{"kind":"always-incremental"}"#,
        ),
    ]
}

fn mobility_cases() -> Vec<(MobilityModel, &'static str)> {
    vec![
        (
            MobilityModel::RandomWaypoint {
                speed: 0.2,
                pause_epochs: 3,
            },
            r#"{"kind":"random-waypoint","speed":0.2,"pause_epochs":3}"#,
        ),
        (
            MobilityModel::Drift { speed: 0.3 },
            r#"{"kind":"drift","speed":0.3}"#,
        ),
        (
            MobilityModel::TeleportChurn { fraction: 0.05 },
            r#"{"kind":"teleport-churn","fraction":0.05}"#,
        ),
    ]
}

fn adversary_cases() -> Vec<(Vec<AdversaryModel>, &'static str)> {
    let cut = AdversaryModel::CutVertexKill {
        fraction: 0.2,
        at_epoch: 1,
    };
    let crash = AdversaryModel::PhaseCrashBurst {
        kills: 3,
        every_phases: 2,
    };
    let jam = AdversaryModel::Jam { jammers: 4 };
    let blackout = AdversaryModel::Blackout {
        fraction: 0.3,
        outage_epochs: 5,
    };
    vec![
        (
            vec![cut],
            r#"{"kind":"cut-vertex-kill","fraction":0.2,"at_epoch":1}"#,
        ),
        (
            vec![crash],
            r#"{"kind":"phase-crash-burst","kills":3,"every_phases":2}"#,
        ),
        (vec![jam], r#"{"kind":"jam","jammers":4}"#),
        (
            vec![blackout],
            r#"{"kind":"blackout","fraction":0.3,"outage_epochs":5}"#,
        ),
        (
            vec![cut, crash, jam, blackout],
            concat!(
                r#"{"kind":"cut-vertex-kill","fraction":0.2,"at_epoch":1},"#,
                r#"{"kind":"phase-crash-burst","kills":3,"every_phases":2},"#,
                r#"{"kind":"jam","jammers":4},"#,
                r#"{"kind":"blackout","fraction":0.3,"outage_epochs":5}"#
            ),
        ),
    ]
}

/// Every pinned spec with its expected text.
fn spec_cases() -> Vec<(ScenarioSpec, String)> {
    let mut cases = Vec::new();
    let mut push = |edit: &dyn Fn(&mut ScenarioSpec), parts: Parts| {
        let mut spec = base_spec();
        edit(&mut spec);
        cases.push((spec, spec_text(parts)));
    };
    for (topology, text) in topology_cases() {
        let parts = Parts {
            topology: text,
            ..BASE
        };
        push(&|s| s.topology = topology.clone(), parts);
    }
    for (protocol, text) in protocol_cases() {
        let parts = Parts {
            protocol: text,
            ..BASE
        };
        push(&|s| s.protocol = protocol.clone(), parts);
    }
    for (mode, text) in mode_cases() {
        push(&|s| s.mode = mode, Parts { mode: text, ..BASE });
    }
    for (repair, text) in repair_cases() {
        push(
            &|s| s.repair = repair,
            Parts {
                repair: text,
                ..BASE
            },
        );
    }
    for (model, text) in mobility_cases() {
        let parts = Parts {
            mobility_model: text,
            ..BASE
        };
        push(&|s| s.mobility = Some(MobilitySpec::new(model, 8)), parts);
    }
    for (models, text) in adversary_cases() {
        let parts = Parts {
            adversary_models: text,
            ..BASE
        };
        push(
            &|s| s.adversary = Some(AdversarySpec::new(models.clone(), 24)),
            parts,
        );
    }
    for (dispatch, text) in [
        (KernelDispatch::Auto, r#""auto""#),
        (KernelDispatch::ForceScalar, r#""scalar""#),
    ] {
        let parts = Parts {
            kernel_dispatch: text,
            ..BASE
        };
        push(&|s| s.kernel_dispatch = dispatch, parts);
    }
    for (accumulation, text) in [
        (Accumulation::F64, r#""f64""#),
        (Accumulation::F32, r#""f32""#),
    ] {
        let parts = Parts {
            accumulation: text,
            ..BASE
        };
        push(&|s| s.accumulation = accumulation, parts);
    }
    cases
}

#[test]
fn every_spec_variant_has_pinned_bytes() {
    let cases = spec_cases();
    assert_eq!(cases.len(), 16 + 21 + 4 + 3 + 3 + 5 + 2 + 2);
    for (spec, expected) in &cases {
        pin_spec(spec, expected);
    }
}

#[test]
fn protocol_names_are_their_wire_tags() {
    let mut names = Vec::new();
    for (protocol, text) in protocol_cases() {
        let tag = format!(r#"{{"kind":"{}""#, protocol.name());
        assert!(
            text.starts_with(&tag),
            "{} is not the tag of {text}",
            protocol.name()
        );
        if names.last() != Some(&protocol.name()) {
            names.push(protocol.name());
        }
    }
    assert_eq!(
        names,
        [
            "nos-broadcast",
            "nos-broadcast-nu",
            "s-broadcast",
            "s-broadcast-nu",
            "coloring",
            "daum",
            "flood",
            "local-broadcast",
            "re-flood",
            "re-flood-online-nu",
            "nos-broadcast-online-nu",
            "s-broadcast-online-nu",
            "gps-oracle",
            "adhoc-wakeup",
            "established-wakeup",
            "consensus",
            "leader-election",
            "alert",
        ]
    );
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

fn report_text(outcome: &str) -> String {
    format!(
        concat!(
            r#"{{"seed":18446744073709551608,"n":40,"rounds":611,"completed":true,"#,
            r#""informed":39,"total_transmissions":12345,"outcome":{},"#,
            r#""per_round":[{{"round":1,"transmitters":1,"receptions":3}},"#,
            r#"{{"round":2,"transmitters":4,"receptions":0}}],"tx_counts":[7,0,2,9],"#,
            r#""measurements":{{"load/max":3,"load/mean":0.125}},"#,
            r#""faults":{{"kills":8,"returns":2,"jam_rounds":96,"recovery_rounds":62,"#,
            r#""coverage":[{{"round":0,"informed":1,"live":40}},"#,
            r#"{{"round":24,"informed":17,"live":36}}]}}}}"#
        ),
        outcome
    )
}

fn full_report(outcome: Outcome) -> RunReport {
    let mut measurements = BTreeMap::new();
    measurements.insert("load/mean".to_string(), 0.125);
    measurements.insert("load/max".to_string(), 3.0);
    RunReport {
        seed: u64::MAX - 7,
        n: 40,
        rounds: 611,
        completed: true,
        informed: 39,
        total_transmissions: 12_345,
        outcome,
        per_round: Some(vec![
            RoundStats {
                round: 1,
                transmitters: 1,
                receptions: 3,
            },
            RoundStats {
                round: 2,
                transmitters: 4,
                receptions: 0,
            },
        ]),
        tx_counts: Some(vec![7, 0, 2, 9]),
        measurements,
        faults: Some(FaultReport {
            kills: 8,
            returns: 2,
            jam_rounds: 96,
            recovery_rounds: Some(62),
            coverage: vec![
                CoveragePoint {
                    round: 0,
                    informed: 1,
                    live: 40,
                },
                CoveragePoint {
                    round: 24,
                    informed: 17,
                    live: 36,
                },
            ],
        }),
    }
}

fn report_cases() -> Vec<(RunReport, String)> {
    [
        (Outcome::Broadcast, r#"{"kind":"broadcast"}"#),
        (
            Outcome::Coloring {
                coloring: Coloring::new(vec![0.5, 0.25, 0.0]),
            },
            r#"{"kind":"coloring","colors":[0.5,0.25,0]}"#,
        ),
        (
            Outcome::Wakeup {
                first_wake: 3,
                rounds_from_first_wake: 41,
            },
            r#"{"kind":"wakeup","first_wake":3,"rounds_from_first_wake":41}"#,
        ),
        (
            Outcome::Consensus {
                decided: vec![Some(4), None, Some(4)],
                agreement: false,
                valid: true,
            },
            r#"{"kind":"consensus","decided":[4,null,4],"agreement":false,"valid":true}"#,
        ),
        (
            Outcome::Leader {
                leaders: vec![11, 2],
                unique: false,
            },
            r#"{"kind":"leader","leaders":[11,2],"unique":false}"#,
        ),
        (
            Outcome::Alert {
                learned_at: vec![None, Some(17)],
            },
            r#"{"kind":"alert","learned_at":[null,17]}"#,
        ),
    ]
    .into_iter()
    .map(|(outcome, text)| (full_report(outcome), report_text(text)))
    .collect()
}

#[test]
fn every_outcome_variant_has_pinned_report_bytes() {
    for (report, expected) in report_cases() {
        let text = encode_run_report(&report);
        assert_eq!(text, expected, "report bytes moved");
        let back = decode_run_report(&text).expect("pinned report decodes");
        assert_eq!(back, report, "report value corrupted by the wire");
        assert_eq!(encode_run_report(&back), text);
    }
}

// ---------------------------------------------------------------------
// Decoder strictness
// ---------------------------------------------------------------------

/// One step of a path into a value tree.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every path that ends at an object key, nested ones included.
fn key_paths(v: &Value, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Value::Object(fields) => {
            for (k, child) in fields {
                prefix.push(Step::Key(k.clone()));
                out.push(prefix.clone());
                key_paths(child, prefix, out);
                prefix.pop();
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                prefix.push(Step::Index(i));
                key_paths(child, prefix, out);
                prefix.pop();
            }
        }
        _ => {}
    }
}

/// The field list holding the path's last key, and that key's index.
fn parent_fields<'a>(v: &'a mut Value, path: &[Step]) -> (&'a mut Vec<(String, Value)>, usize) {
    let (last, init) = path.split_last().expect("non-empty path");
    let mut node = v;
    for step in init {
        node = match (node, step) {
            (Value::Object(fields), Step::Key(k)) => {
                &mut fields
                    .iter_mut()
                    .find(|(name, _)| name == k)
                    .expect("key")
                    .1
            }
            (Value::Array(items), Step::Index(i)) => &mut items[*i],
            _ => panic!("path does not match the value"),
        };
    }
    let Value::Object(fields) = node else {
        panic!("path parent is not an object")
    };
    let Step::Key(k) = last else {
        panic!("path does not end at a key")
    };
    let at = fields.iter().position(|(name, _)| name == k).expect("key");
    (fields, at)
}

/// A value of a JSON type no schema field with `v`'s type accepts.
fn wrong_type(v: &Value) -> Value {
    match v {
        Value::Str(_) => Value::UInt(7),
        _ => Value::str("wrong-type"),
    }
}

/// Whether `decode` rejects `text`; a panic fails the test naming `what`.
fn rejects<T, E>(decode: fn(&str) -> Result<T, E>, text: &str, what: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| decode(text).is_err()))
        .unwrap_or_else(|_| panic!("decoder panicked on {what}: {text}"))
}

fn describe(path: &[Step]) -> String {
    path.iter()
        .map(|s| match s {
            Step::Key(k) => format!(".{k}"),
            Step::Index(i) => format!("[{i}]"),
        })
        .collect()
}

/// Deleting any key, or retyping its value, makes `decode` fail.
/// Keys of a map (`measurements`) may be deleted; their values may not
/// be retyped.
fn sweep<T, E>(text: &str, decode: fn(&str) -> Result<T, E>, map_keys: &[&str]) {
    let value = Value::parse(text).expect("canonical text parses");
    let mut paths = Vec::new();
    key_paths(&value, &mut Vec::new(), &mut paths);
    assert!(!paths.is_empty());
    for path in paths {
        let in_map = matches!(
            path.iter().rev().nth(1),
            Some(Step::Key(parent)) if map_keys.contains(&parent.as_str())
        );
        let what = describe(&path);
        if !in_map {
            let mut deleted = value.clone();
            let (fields, at) = parent_fields(&mut deleted, &path);
            fields.remove(at);
            assert!(
                rejects(decode, &deleted.encode(), &what),
                "decoder accepted a value without {what}"
            );
        }
        let mut retyped = value.clone();
        let (fields, at) = parent_fields(&mut retyped, &path);
        fields[at].1 = wrong_type(&fields[at].1);
        assert!(
            rejects(decode, &retyped.encode(), &what),
            "decoder accepted a mistyped {what}"
        );
    }
}

#[test]
fn every_spec_key_is_required_and_typed() {
    for (spec, _) in spec_cases() {
        sweep(&spec.encode(), ScenarioSpec::decode, &[]);
    }
}

#[test]
fn every_report_key_is_required_and_typed() {
    for (report, _) in report_cases() {
        sweep(
            &encode_run_report(&report),
            decode_run_report,
            &["measurements"],
        );
    }
}

#[test]
fn u32_fields_reject_two_to_the_32() {
    const U32_FIELDS: [&str; 4] = ["bits", "d_bound", "c_prime", "diameter"];
    let mut seen = BTreeMap::new();
    for (spec, _) in spec_cases() {
        let value = Value::parse(&spec.encode()).expect("canonical text parses");
        let mut paths = Vec::new();
        key_paths(&value, &mut Vec::new(), &mut paths);
        for path in paths {
            let Some(Step::Key(name)) = path.last() else {
                continue;
            };
            if !U32_FIELDS.contains(&name.as_str()) {
                continue;
            }
            *seen.entry(name.clone()).or_insert(0) += 1;
            let what = describe(&path);
            let mut at_max = value.clone();
            let (fields, at) = parent_fields(&mut at_max, &path);
            fields[at].1 = Value::UInt(u64::from(u32::MAX));
            let text = at_max.encode();
            let back = ScenarioSpec::decode(&text).expect("u32::MAX decodes");
            assert_eq!(back.encode(), text, "{what} = u32::MAX did not survive");
            let mut over = value.clone();
            let (fields, at) = parent_fields(&mut over, &path);
            fields[at].1 = Value::UInt(1 << 32);
            assert!(
                rejects(ScenarioSpec::decode, &over.encode(), &what),
                "{what} = 2^32 was accepted"
            );
        }
    }
    for name in U32_FIELDS {
        assert!(
            seen.contains_key(name),
            "no pinned spec has a '{name}' field"
        );
    }
}
