//! E5 — Theorem 2: `SBroadcast` completes in `O(D log n + log² n)` rounds
//! whp.
//!
//! Sweeping `D` at (roughly) fixed `n`, then `n` at fixed `D`, and fitting
//! rounds against the two features `D·log n` and `log² n` should give a
//! good two-term fit — and `SBroadcast` should beat `NoSBroadcast` by a
//! `Θ(log n)` factor at large `D` (the paper's motivation for the
//! spontaneous model).

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{log2n, Constants};
use sinr_stats::{fit_least_squares, fmt_f64, Table};

use crate::{sweep_cell, ExpConfig};

/// Runs E5 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let diameters: &[u32] = cfg.pick(&[2, 4, 8, 16, 32], &[2, 4]);
    let per_cluster = cfg.pick(12, 8);
    let trials = cfg.pick(5, 2);

    let mut table = Table::new(vec![
        "D",
        "n",
        "rounds(mean)",
        "rounds(max)",
        "rounds/(D*log)",
        "ok",
    ]);
    let mut rows_feat = Vec::new();
    let mut ys = Vec::new();
    for &d in diameters {
        let n = (d as usize + 1) * per_cluster;
        let sim = Scenario::new(TopologySpec::ClusterChain {
            diameter: d,
            per_cluster,
        })
        .constants(consts)
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .budget(consts.coloring_rounds(n) + consts.wakeup_window(n, d) * 4 + 100_000)
        .build()
        .expect("valid scenario");
        let sweep = sweep_cell(cfg, 5, u64::from(d), trials, &sim);
        let l = log2n(n) as f64;
        let s = sweep.rounds_summary();
        if let Some(s) = &s {
            rows_feat.push(vec![f64::from(d) * l, l * l]);
            ys.push(s.mean);
        }
        table.row(vec![
            d.to_string(),
            n.to_string(),
            s.map_or("-".into(), |s| fmt_f64(s.mean)),
            s.map_or("-".into(), |s| fmt_f64(s.max)),
            s.map_or("-".into(), |s| fmt_f64(s.mean / (f64::from(d) * l))),
            sweep.ok_string(),
        ]);
    }
    let mut out = String::from(
        "E5: SBroadcast rounds on cluster chains (Theorem 2: O(D log n + log^2 n))\n\
         expect: two-term fit a*(D log n) + b*log^2 n with high R^2;\n\
         rounds/(D log n) approaching a constant at large D\n\n",
    );
    out.push_str(&table.render());
    if let Some(fit) = fit_least_squares(&rows_feat, &ys) {
        out.push_str(&format!(
            "\nfit rounds ~ a*D*log(n) + b*log^2(n): a = {}, b = {}, R^2 = {}\n",
            fmt_f64(fit.coefficients[0]),
            fmt_f64(fit.coefficients[1]),
            fmt_f64(fit.r_squared)
        ));
    }
    println!("{out}");
    out
}
