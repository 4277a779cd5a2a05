//! E9 — baseline comparison across density regimes: the coloring-based
//! broadcast vs fixed-probability flooding (two settings of `p`), adaptive
//! local-broadcast flooding, and the decay baseline, on a uniform square, a
//! dense cluster chain and a geometric line.
//!
//! The story the paper's introduction tells: no fixed probability works in
//! all regimes, and granularity-aware baselines pay for it — the coloring
//! adapts.

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_phy::SinrParams;

use crate::{sweep_table, ExpConfig, SweepRow};

/// Runs E9 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let params = SinrParams::default_plane();
    let trials = cfg.pick(5, 2);
    let n = cfg.pick(96, 48);
    let budget = 2_000_000;

    let topologies: Vec<(&str, TopologySpec)> = vec![
        (
            "uniform",
            TopologySpec::ConnectedSquareDensity { n, density: 30.0 },
        ),
        (
            "clusters",
            TopologySpec::ClusterChain {
                diameter: 5,
                per_cluster: n / 6,
            },
        ),
        (
            "geom-line",
            TopologySpec::GranularityLine {
                n,
                max_gap: params.comm_radius(),
                rs_target: 1e6,
                min_gap: 2e-9,
            },
        ),
    ];
    let algos: Vec<(&str, ProtocolSpec)> = vec![
        ("SBroadcast", ProtocolSpec::SBroadcast { source: 0 }),
        (
            "flood p=0.2",
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.2 },
        ),
        (
            "flood p=1/n",
            ProtocolSpec::FloodBroadcast {
                source: 0,
                p: 1.0 / n as f64,
            },
        ),
        ("local-bcast", ProtocolSpec::LocalBroadcast { source: 0 }),
        (
            "daum",
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: None,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, topology) in &topologies {
        for (algo_name, spec) in &algos {
            let sim = Scenario::new(topology.clone())
                .protocol(spec.clone())
                .budget(budget)
                .build()
                .expect("valid scenario");
            // Same tag for every algorithm on a topology: identical seeds,
            // so contenders race on identical deployments.
            rows.push(SweepRow::new(
                vec![name.to_string(), algo_name.to_string()],
                0,
                sim,
            ));
        }
    }
    let table = sweep_table(
        cfg,
        9,
        trials,
        vec!["topology", "algorithm", "rounds(mean)", "ok"],
        rows,
    );
    let mut out = String::from(
        "E9: algorithm comparison across density regimes\n\
         expect: no single flood p wins everywhere; daum suffers on geom-line;\n\
         SBroadcast completes everywhere with competitive rounds\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
