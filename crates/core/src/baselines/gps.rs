//! GPS-oracle broadcast: the "full geometry knowledge" gold standard.
//!
//! The paper's title question is how much *knowing the geometry* helps ad
//! hoc communication: references [14, 15] achieve `O(D log n + log² n)` /
//! `O(D log² n)` when stations know their own coordinates. This baseline
//! gives geometry knowledge its strongest form — a **grid TDMA with a
//! contention oracle**:
//!
//! * the plane is cut into cells small enough that a lone transmission
//!   reaches the whole 8-neighbourhood of its cell;
//! * cells are `k × k`-colored and time slots cycle through the `k²`
//!   classes, with `k` chosen so simultaneously active cells are far enough
//!   apart that their mutual interference cannot break an in-range decode;
//! * within an active cell, each informed station transmits with
//!   probability `1/(informed stations in the cell)` — a quantity no
//!   distributed station could know (it is exactly what the paper's
//!   coloring *estimates* without geometry); the simulator provides it as
//!   an oracle.
//!
//! Comparing the paper's algorithms against this oracle measures the price
//! of *not* knowing the geometry — the reproduction's answer to the title.

use std::collections::BTreeMap;

use sinr_geometry::MetricPoint;
use sinr_phy::{Network, SinrParams};
use sinr_runtime::{bernoulli, node_rng};

/// What one oracle TDMA run hands back to the `sim` dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GpsOracleRun {
    /// Rounds until every station was informed (or the budget, if not).
    pub rounds: u64,
    /// Whether every station was informed within the budget.
    pub completed: bool,
    /// Stations informed at the end.
    pub informed: usize,
    /// Total transmissions across the run.
    pub total_transmissions: u64,
}

/// Cell side: a lone transmission from a cell must reach every point of the
/// 8-neighbourhood, whose farthest point lies `2·√2·side` away; with reach
/// `1 − ε` this gives `side = (1 − ε)/(2√2)`.
fn cell_side(params: &SinrParams) -> f64 {
    params.comm_radius() / (2.0 * std::f64::consts::SQRT_2)
}

/// Class-grid period: simultaneously active same-class cells are `k·side`
/// apart; `k·side ≥ 2` keeps the aggregate far interference below the
/// Fact 3 margin for in-neighbourhood decodes at the default parameters.
fn class_period(params: &SinrParams) -> usize {
    (2.0 / cell_side(params)).ceil() as usize
}

fn cell_of<P: MetricPoint>(p: &P, side: f64) -> (i64, i64) {
    (
        (p.coord(0) / side).floor() as i64,
        if P::AXES > 1 {
            (p.coord(1) / side).floor() as i64
        } else {
            0
        },
    )
}

/// The oracle TDMA loop over an already-constructed network; reached
/// through `ProtocolSpec::GpsOracleBroadcast`.
pub(crate) fn run_gps_oracle_on<P: MetricPoint>(
    net: &Network<P>,
    source: usize,
    seed: u64,
    max_rounds: u64,
) -> GpsOracleRun {
    let params = net.params();
    let n = net.len();
    let side = cell_side(params);
    let k = class_period(params) as i64;

    let cells: Vec<(i64, i64)> = net.points().iter().map(|p| cell_of(p, side)).collect();
    let mut informed = vec![false; n];
    if n > 0 {
        informed[source] = true;
    }
    let mut rngs: Vec<_> = (0..n).map(|i| node_rng(seed, i as u64, 2)).collect();

    let mut total_tx = 0u64;
    let mut rounds = 0u64;
    let mut informed_count = if n > 0 { 1 } else { 0 };
    let mut tx_buf: Vec<usize> = Vec::new();
    while informed_count < n && rounds < max_rounds {
        // Active class this round.
        let slot = (rounds % (k * k) as u64) as i64;
        let (class_x, class_y) = (slot % k, slot / k);
        // Oracle: informed population of every active cell. Ordered map so
        // that any future iteration over the oracle's view stays
        // deterministic (today only keyed lookups below depend on it).
        let mut cell_pop: BTreeMap<(i64, i64), u32> = BTreeMap::new();
        for v in 0..n {
            let c = cells[v];
            if informed[v] && c.0.rem_euclid(k) == class_x && c.1.rem_euclid(k) == class_y {
                *cell_pop.entry(c).or_insert(0) += 1;
            }
        }
        tx_buf.clear();
        for v in 0..n {
            let c = cells[v];
            if let Some(&pop) = cell_pop.get(&c) {
                if informed[v] && bernoulli(&mut rngs[v], 1.0 / pop as f64) {
                    tx_buf.push(v);
                }
            }
        }
        total_tx += tx_buf.len() as u64;
        let outcome = net.resolve(&tx_buf);
        for (inf, decoded) in informed.iter_mut().zip(&outcome.decoded_from) {
            if !*inf && decoded.is_some() {
                *inf = true;
                informed_count += 1;
            }
        }
        rounds += 1;
    }
    GpsOracleRun {
        rounds,
        completed: informed_count == n,
        informed: informed_count,
        total_transmissions: total_tx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ProtocolSpec, RunReport, Scenario};
    use sinr_geometry::Point2;

    fn params() -> SinrParams {
        SinrParams::default_plane()
    }

    fn run(pts: Vec<Point2>, seed: u64, budget: u64) -> RunReport {
        Scenario::new(pts)
            .protocol(ProtocolSpec::GpsOracleBroadcast { source: 0 })
            .budget(budget)
            .build()
            .unwrap()
            .run(seed)
            .unwrap()
    }

    #[test]
    fn cell_geometry_constants() {
        let p = params();
        let side = cell_side(&p);
        assert!((side - 0.5 / (2.0 * std::f64::consts::SQRT_2)).abs() < 1e-12);
        // A lone transmission spans the 8-neighbourhood.
        assert!(2.0 * std::f64::consts::SQRT_2 * side <= p.comm_radius() + 1e-12);
        assert!(class_period(&p) as f64 * side >= 2.0);
    }

    #[test]
    fn completes_on_path() {
        let pts: Vec<Point2> = (0..8).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect();
        let rep = run(pts, 3, 1_000_000);
        assert!(rep.completed, "{rep:?}");
        assert_eq!(rep.informed, 8);
    }

    #[test]
    fn completes_on_dense_cell() {
        // 60 stations inside ONE cell: the oracle's 1/pop contention makes
        // this routine; a fixed-probability scheme would jam.
        let pts: Vec<Point2> = (0..60)
            .map(|i| {
                let a = i as f64 * 0.105;
                Point2::new(0.08 * a.cos(), 0.08 * a.sin())
            })
            .collect();
        let rep = run(pts, 5, 1_000_000);
        assert!(rep.completed, "{rep:?}");
    }

    #[test]
    fn empty_and_singleton() {
        let rep = run(vec![Point2::origin()], 1, 100);
        assert!(rep.completed);
        assert_eq!(rep.rounds, 0);
    }

    #[test]
    fn deterministic() {
        let pts: Vec<Point2> = (0..10).map(|i| Point2::new(i as f64 * 0.4, 0.0)).collect();
        let a = run(pts.clone(), 7, 1_000_000);
        let b = run(pts, 7, 1_000_000);
        assert_eq!(a, b);
    }
}
