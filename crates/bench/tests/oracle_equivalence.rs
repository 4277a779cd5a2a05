//! Property-style equivalence tests for the stateful `ReceptionOracle`.
//!
//! For every netgen family (uniform, cluster, line, grid, lattice),
//! several seeds and every backward-compatible `InterferenceMode`, the
//! oracle must match the one-shot `resolve_round` **field-for-field** —
//! and for the order-stable modes (`Exact`, `Truncated`) it must also
//! match a naive O(n·|T|) reference written below from the model alone,
//! bit-for-bit. The grid-native kernel is additionally checked against
//! exact physics: identical decode decisions wherever the SINR margin
//! exceeds its documented tail error, which these spread-out families
//! guarantee.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng, SmallRng};
use sinr_geometry::{GridIndex, MetricPoint, Point2};
use sinr_netgen::{cluster, grid as netgrid, line, uniform};
use sinr_phy::{resolve_round, InterferenceMode, ReceptionOracle, RoundOutcome, SinrParams};

/// Running SINR sums of one receiver: total received power and the
/// strongest transmitter so far.
struct Heard {
    total: f64,
    best_pow: f64,
    best: Option<usize>,
}

impl Heard {
    fn add(&mut self, t: usize, s: f64) {
        self.total += s;
        if s > self.best_pow {
            self.best_pow = s;
            self.best = Some(t);
        }
    }
}

/// Naive round resolution, receiver by receiver. `Exact` and `Truncated`
/// add each transmitter's signal in transmitter order — the per-receiver
/// accumulation order the oracle keeps — so the sums, hence every decode
/// decision, must agree exactly. `CellAggregate` groups transmitters by
/// grid cell (in key order) and lets each far cell contribute
/// `members × signal at its centroid`.
fn reference_round<P: MetricPoint>(
    pts: &[P],
    params: &SinrParams,
    tx: &[usize],
    mode: InterferenceMode,
    cell_side: f64,
) -> RoundOutcome {
    let mut cells: BTreeMap<[i64; 3], Vec<usize>> = BTreeMap::new();
    for &t in tx {
        let mut key = [0i64; 3];
        for (axis, k) in key.iter_mut().enumerate().take(P::AXES) {
            *k = (pts[t].coord(axis) / cell_side).floor() as i64;
        }
        cells.entry(key).or_default().push(t);
    }
    let diag = cell_side * (P::AXES as f64).sqrt();
    let decoded_from = pts
        .iter()
        .enumerate()
        .map(|(u, pu)| {
            if tx.contains(&u) {
                return None;
            }
            let mut heard = Heard {
                total: 0.0,
                best_pow: 0.0,
                best: None,
            };
            let signal = |t: usize| params.signal_at(pts[t].distance(pu));
            match mode {
                InterferenceMode::Exact => tx.iter().for_each(|&t| heard.add(t, signal(t))),
                InterferenceMode::Truncated { radius } => {
                    for &t in tx {
                        if pts[t].distance(pu) <= radius {
                            heard.add(t, signal(t));
                        }
                    }
                }
                InterferenceMode::CellAggregate { near_radius } => {
                    for members in cells.values() {
                        let k = members.len() as f64;
                        let mut d2 = 0.0;
                        for axis in 0..P::AXES {
                            let c = members.iter().map(|&t| pts[t].coord(axis)).sum::<f64>() / k;
                            let dd = pu.coord(axis) - c;
                            d2 += dd * dd;
                        }
                        let dc = f64::sqrt(d2);
                        if dc > near_radius + diag {
                            heard.total += k * params.signal_at(dc);
                        } else {
                            members.iter().for_each(|&t| heard.add(t, signal(t)));
                        }
                    }
                }
                InterferenceMode::GridNative { .. } => unreachable!("no naive grid-native form"),
            }
            let best = heard.best?;
            params
                .decodable(heard.best_pow, heard.total - heard.best_pow)
                .then_some(best)
        })
        .collect();
    RoundOutcome {
        decoded_from,
        num_transmitters: tx.len(),
    }
}

/// Seeded transmitter subset: every station transmits with probability
/// `p`, replayable from `seed`.
fn draw_tx(n: usize, p: f64, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).filter(|_| rng.gen_range(0.0..1.0) < p).collect()
}

fn families(seed: u64) -> Vec<(&'static str, Vec<Point2>)> {
    vec![
        (
            "uniform",
            uniform::square(300, uniform::side_for_density(300, 12.0), seed),
        ),
        (
            "cluster",
            cluster::chain_of_clusters(8, 30, 0.35, 0.07, seed),
        ),
        (
            "line",
            line::halving_line(120, 0.45, 0.97, 0.05), // deterministic family: vary tx by seed instead
        ),
        ("grid", netgrid::jittered_lattice(15, 20, 0.7, 0.2, seed)),
        (
            "lattice",
            (0..150)
                .map(|i| Point2::new((i % 15) as f64 * 0.8, (i / 15) as f64 * 0.8))
                .collect(),
        ),
    ]
}

fn compat_modes() -> [InterferenceMode; 3] {
    [
        InterferenceMode::Exact,
        InterferenceMode::Truncated { radius: 4.0 },
        InterferenceMode::CellAggregate { near_radius: 4.0 },
    ]
}

#[test]
fn oracle_matches_resolve_round_field_for_field() {
    let params = SinrParams::default_plane();
    let mut oracle = ReceptionOracle::new();
    let mut out = RoundOutcome::empty();
    for seed in [1u64, 2, 3] {
        for (family, pts) in families(seed) {
            let grid = GridIndex::build(&pts, 1.0);
            let tx = draw_tx(pts.len(), 0.05, seed * 1000 + 7);
            for mode in compat_modes() {
                let free = resolve_round(&pts, &params, &tx, mode, Some(&grid));
                // The reused oracle (warm scratch from previous families
                // and modes) must agree field-for-field.
                oracle.resolve_into(&pts, &params, &tx, mode, Some(&grid), &mut out);
                assert_eq!(
                    free, out,
                    "{family} seed {seed} {mode:?}: oracle != resolve_round"
                );
                assert_eq!(free.num_transmitters, tx.len());
            }
            // Grid-native resolves through the same reused scratch.
            oracle.resolve_into(
                &pts,
                &params,
                &tx,
                InterferenceMode::grid_native(),
                Some(&grid),
                &mut out,
            );
            let fresh = ReceptionOracle::new().resolve(
                &pts,
                &params,
                &tx,
                InterferenceMode::grid_native(),
                Some(&grid),
            );
            assert_eq!(
                fresh, out,
                "{family} seed {seed}: warm != fresh grid-native"
            );
        }
    }
}

#[test]
fn oracle_matches_the_naive_reference_bit_for_bit_on_order_stable_modes() {
    // `Exact` and `Truncated` accumulate in transmitter order, so the
    // naive reference must agree exactly — including every floating-point
    // sum, hence every decode decision, on every family.
    let params = SinrParams::default_plane();
    for seed in [1u64, 2, 3] {
        for (family, pts) in families(seed) {
            let grid = GridIndex::build(&pts, 1.0);
            let tx = draw_tx(pts.len(), 0.08, seed * 1000 + 13);
            for mode in [
                InterferenceMode::Exact,
                InterferenceMode::Truncated { radius: 4.0 },
            ] {
                let want = reference_round(&pts, &params, &tx, mode, grid.cell_side());
                let got = resolve_round(&pts, &params, &tx, mode, Some(&grid));
                assert_eq!(want, got, "{family} seed {seed} {mode:?}");
            }
            // Cell-aggregate: the sums depend on the order far cells are
            // visited in, so only decode decisions are compared.
            let mode = InterferenceMode::CellAggregate { near_radius: 4.0 };
            let want = reference_round(&pts, &params, &tx, mode, grid.cell_side());
            let got = resolve_round(&pts, &params, &tx, mode, Some(&grid));
            assert_eq!(
                want.decoded_from, got.decoded_from,
                "{family} seed {seed} cell-aggregate decisions"
            );
        }
    }
}

#[test]
fn grid_native_agrees_with_exact_decisions_on_spread_families() {
    let params = SinrParams::default_plane();
    let mut worst = 0usize;
    for seed in [1u64, 2, 3] {
        for (family, pts) in families(seed) {
            let grid = GridIndex::build(&pts, 1.0);
            let tx = draw_tx(pts.len(), 0.05, seed * 1000 + 29);
            let exact = resolve_round(&pts, &params, &tx, InterferenceMode::Exact, None);
            let native = resolve_round(
                &pts,
                &params,
                &tx,
                InterferenceMode::grid_native(),
                Some(&grid),
            );
            let disagreements = exact
                .decoded_from
                .iter()
                .zip(&native.decoded_from)
                .filter(|(a, b)| a != b)
                .count();
            worst = worst.max(disagreements);
            assert!(
                disagreements * 100 <= pts.len(),
                "{family} seed {seed}: {disagreements}/{} decisions flipped",
                pts.len()
            );
        }
    }
    // Across all 15 family/seed combinations the kernel should be
    // essentially exact at these densities.
    assert!(worst <= 3, "worst-case disagreement {worst} too high");
}
