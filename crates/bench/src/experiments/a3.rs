//! A3 — simulator-fidelity ablation: interference evaluation modes.
//!
//! The reproduction's default physics is the **exact** Equation (1) — every
//! transmitter contributes to every receiver. The oracle also offers a
//! cell-aggregated far field (a one-level multipole), the grid-native
//! kernel (exact decode, per-receiver-cell shared tail) and a hard
//! truncation. This ablation runs identical seeds under all four and
//! compares protocol outcomes, justifying the fast modes for large sweeps:
//! the aggregate and grid-native modes should track exact rounds closely
//! (their tails are estimated, not dropped), while truncation is visibly
//! optimistic (dropped tail ⇒ easier SINR).

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_phy::InterferenceMode;
use sinr_stats::{fmt_f64, Table};

use crate::{sweep_cell, ExpConfig};

/// Runs A3 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let trials = cfg.pick(5, 2);
    let n = cfg.pick(200, 80);

    let modes: [(&str, InterferenceMode); 4] = [
        ("exact", InterferenceMode::Exact),
        (
            "cell-aggregate",
            InterferenceMode::CellAggregate { near_radius: 4.0 },
        ),
        ("grid-native", InterferenceMode::grid_native()),
        ("truncated r=4", InterferenceMode::Truncated { radius: 4.0 }),
    ];
    let topologies: [(&str, TopologySpec); 2] = [
        (
            "uniform",
            TopologySpec::ConnectedSquareDensity { n, density: 30.0 },
        ),
        (
            "chain",
            TopologySpec::ClusterChain {
                diameter: 8,
                per_cluster: n / 9,
            },
        ),
    ];

    let mut table = Table::new(vec!["topology", "mode", "rounds(mean)", "vs exact", "ok"]);
    for (topo_name, topology) in &topologies {
        let mut exact_mean = None;
        for (mode_name, mode) in modes {
            let sim = Scenario::new(topology.clone())
                .protocol(ProtocolSpec::SBroadcast { source: 0 })
                .interference_mode(mode)
                .budget(2_000_000)
                .build()
                .expect("valid scenario");
            // Same tag across modes: identical seeds, identical
            // deployments — only the physics fidelity differs.
            let sweep = sweep_cell(cfg, 33, 0, trials, &sim);
            let mean = sweep.rounds_summary().map(|s| s.mean);
            if mode_name == "exact" {
                exact_mean = mean;
            }
            let ratio = match (mean, exact_mean) {
                (Some(m), Some(e)) if e > 0.0 => fmt_f64(m / e),
                _ => "-".into(),
            };
            table.row(vec![
                topo_name.to_string(),
                mode_name.to_string(),
                mean.map_or_else(|| "-".into(), fmt_f64),
                ratio,
                sweep.ok_string(),
            ]);
        }
    }
    let mut out = String::from(
        "A3: simulator-fidelity ablation - interference evaluation modes\n\
         expect: cell-aggregate and grid-native track exact closely (ratio ~1);\n\
         truncation is mildly optimistic (ratio <= 1); all modes complete\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
