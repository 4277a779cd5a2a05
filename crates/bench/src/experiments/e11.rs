//! E11 — hard instances: bridge corridors, rings and two-tier densities.
//!
//! These push the density-adaptation story beyond E9's benign sizes. The
//! two-tier instance is the paper introduction's core example: a single
//! flooding probability tuned to the dense half jams it (or crawls in the
//! sparse half when tuned the other way), while the coloring assigns each
//! half its own level. The bridge funnels all traffic through a thin
//! corridor bathed in blob interference.

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};

use crate::{sweep_table, ExpConfig, SweepRow};

/// Runs E11 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let trials = cfg.pick(3, 2);
    let budget = 120_000;

    let ring_n = cfg.pick(48, 24);
    let topologies: Vec<(&str, TopologySpec)> = vec![
        (
            "bridge",
            TopologySpec::Bridge {
                blob_n: cfg.pick(40, 16),
                corridor_n: 8,
                blob_side: 1.0,
            },
        ),
        (
            "ring",
            TopologySpec::Ring {
                n: ring_n,
                radius: ring_n as f64 * 0.4 / std::f64::consts::TAU,
            },
        ),
        (
            "two-tier",
            TopologySpec::TwoTier {
                dense_n: cfg.pick(90, 45),
                ratio: 15,
                side: 1.2,
            },
        ),
    ];
    let algos: Vec<(&str, ProtocolSpec)> = vec![
        ("SBroadcast", ProtocolSpec::SBroadcast { source: 0 }),
        (
            "flood p=0.5",
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.5 },
        ),
        (
            "flood p=0.05",
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.05 },
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
            rows.push(SweepRow::new(
                vec![name.to_string(), algo_name.to_string()],
                0,
                sim,
            ));
        }
    }
    let table = sweep_table(
        cfg,
        11,
        trials,
        vec!["topology", "algorithm", "rounds(mean)", "ok"],
        rows,
    );
    let mut out = String::from(
        "E11: hard instances (bridge / ring / two-tier density)\n\
         expect: SBroadcast completes everywhere; aggressive flooding (p=0.5)\n\
         degrades or fails under dense-interference funnels; timid flooding\n\
         (p=0.05) crawls on sparse stretches\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
