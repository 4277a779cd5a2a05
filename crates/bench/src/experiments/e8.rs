//! E8 — whp success: with the fixed tuned constants, both broadcast
//! algorithms succeed within their asymptotic budgets in (nearly) all
//! trials, and the failure rate does not grow with `n`.

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_core::Constants;

use crate::{sweep_table, ExpConfig, SweepRow};

/// Runs E8 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let trials = cfg.pick(20, 4);
    let d = 4u32;
    let sizes_per_cluster: &[usize] = cfg.pick(&[8, 16, 32], &[8]);

    let mut rows = Vec::new();
    for (pi, &per) in sizes_per_cluster.iter().enumerate() {
        let n = (d as usize + 1) * per;
        let topology = TopologySpec::ClusterChain {
            diameter: d,
            per_cluster: per,
        };
        let s_sim = Scenario::new(topology.clone())
            .constants(consts)
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .budget(consts.coloring_rounds(n) + consts.wakeup_window(n, d) * 3)
            .build()
            .expect("valid scenario");
        rows.push(SweepRow::new(
            vec![n.to_string(), d.to_string(), "S".into()],
            pi as u64 * 2,
            s_sim,
        ));
        let nos_sim = Scenario::new(topology)
            .constants(consts)
            .protocol(ProtocolSpec::NoSBroadcast { source: 0 })
            .budget(consts.phase_rounds(n) * (u64::from(d) + 3))
            .build()
            .expect("valid scenario");
        rows.push(SweepRow::new(
            vec![n.to_string(), d.to_string(), "NoS".into()],
            pi as u64 * 2 + 1,
            nos_sim,
        ));
    }
    let table = sweep_table(
        cfg,
        8,
        trials,
        vec!["n", "D", "algorithm", "rounds(mean)", "ok"],
        rows,
    );
    let mut out = String::from(
        "E8: success rates within the asymptotic budgets (whp claim)\n\
         expect: ~all trials succeed at every n (failure rate not growing with n)\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
