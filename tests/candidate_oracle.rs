//! Differential battery of the grid-native decode-candidate oracle.
//!
//! `ReceptionOracle::resolve_into_with` resolves only the receiver cells
//! within reach of a transmitter (the decode candidates);
//! `ReceptionOracle::resolve_power_into` runs the same kernel over every
//! populated cell. The two must decide every station identically, and
//! every station that can decode (within range 1 of a transmitter) must
//! carry bit-identical received power on both — across deployment
//! families (uniform, clustered, churned under a liveness mask, 3-D),
//! cell sides, path-loss exponents, non-unit noise and threshold,
//! physics thread counts, and rounds whose transmitter sets change under
//! a reused oracle. A second battery places pairs at distance 1 and
//! 1 ± a few ulps across cell boundaries, where a reach of exactly
//! range 1 would drop receivers that still decode.

use rand::{Rng, SeedableRng, SmallRng};
use sinr_broadcast::geometry::{GridIndex, MetricPoint, Point2, Point3};
use sinr_broadcast::netgen::{cluster, uniform};
use sinr_broadcast::phy::{
    InterferenceMode, KernelPool, ReceptionOracle, RoundOutcome, SinrParams,
};

const SIDES: [f64; 3] = [0.5, 1.0, 2.0];
const ALPHAS: [f64; 4] = [2.0, 2.5, 3.0, 4.0];
/// `(noise, beta)`: the unit-noise default plus non-unit pairs.
const NOISE_BETA: [(f64, f64); 3] = [(1.0, 1.2), (0.37, 1.0), (2.9e3, 2.5)];
const THREADS: [usize; 3] = [1, 2, 8];

fn params(alpha: f64, noise: f64, beta: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .noise(noise)
        .beta(beta)
        .build(1.5)
        .expect("valid test parameters")
}

/// Resolves one round through both entries and checks them against each
/// other: the candidate path on the reused `cand` oracle and `pool`, the
/// diagnostic on a fresh oracle and a serial pool. Returns the outcome.
fn check_round<P: MetricPoint>(
    cand: &mut ReceptionOracle,
    pool: &mut KernelPool,
    pts: &[P],
    params: &SinrParams,
    tx: &[usize],
    grid: &GridIndex,
    what: &str,
) -> RoundOutcome {
    let mode = InterferenceMode::grid_native();
    let mut out = RoundOutcome::empty();
    cand.resolve_into_with(pts, params, tx, mode, Some(grid), pool, &mut out);
    let mut diag = ReceptionOracle::new();
    let mut diag_out = RoundOutcome::empty();
    let mut serial = KernelPool::serial();
    diag.resolve_power_into(
        pts,
        params,
        tx,
        mode,
        Some(grid),
        &mut serial,
        &mut diag_out,
    );
    assert_eq!(out, diag_out, "{what}: decode decisions differ");
    for u in 0..pts.len() {
        let indexed = grid.slot_of(u).is_some();
        let in_reach = tx
            .iter()
            .any(|&t| pts[t].distance(&pts[u]) <= params.range());
        if indexed && in_reach {
            assert_eq!(
                cand.received_power()[u].to_bits(),
                diag.received_power()[u].to_bits(),
                "{what}: power differs at candidate station {u}"
            );
        }
    }
    out
}

/// Transmitter sets of a run: 0–4 transmitters, then 2% and 10% of the
/// live stations, each drawn afresh so the candidate cells change.
fn transmitter_sets(alive: &[bool], rng: &mut SmallRng) -> Vec<Vec<usize>> {
    let live: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
    let mut sets = Vec::new();
    for k in [0, 1, 2, 3, 4, live.len() / 50, live.len() / 10] {
        let mut set: Vec<usize> = Vec::new();
        while set.len() < k {
            let t = live[rng.gen_range(0..live.len())];
            if !set.contains(&t) {
                set.push(t);
            }
        }
        sets.push(set);
    }
    sets
}

/// Runs every transmitter set of a deployment through [`check_round`]
/// for every cell side, exponent, noise/threshold pair and thread count.
fn battery<P: MetricPoint>(family: &str, pts: &[P], alive: &[bool], seed: u64) -> usize {
    let mut decodes = 0;
    for side in SIDES {
        let grid = GridIndex::build_masked(pts, alive, side);
        for alpha in ALPHAS {
            for (noise, beta) in NOISE_BETA {
                let p = params(alpha, noise, beta);
                for threads in THREADS {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut oracle = ReceptionOracle::new();
                    let mut pool = KernelPool::new(threads);
                    for (r, tx) in transmitter_sets(alive, &mut rng).iter().enumerate() {
                        let what = format!(
                            "{family} side {side} α {alpha} N {noise} β {beta} \
                             t{threads} round {r} ({} tx)",
                            tx.len()
                        );
                        let out = check_round(&mut oracle, &mut pool, pts, &p, tx, &grid, &what);
                        decodes += out.decoded_from.iter().flatten().count();
                    }
                }
            }
        }
    }
    decodes
}

#[test]
fn uniform_deployments_decide_identically_on_both_paths() {
    let pts = uniform::square(400, 6.0, 11);
    let decodes = battery("uniform", &pts, &vec![true; pts.len()], 1);
    assert!(decodes > 0, "the battery must exercise decodes");
}

#[test]
fn clustered_deployments_decide_identically_on_both_paths() {
    let pts = cluster::gaussian_clusters(6, 60, 8.0, 0.4, 12);
    let decodes = battery("clustered", &pts, &vec![true; pts.len()], 2);
    assert!(decodes > 0, "the battery must exercise decodes");
}

#[test]
fn churned_deployments_decide_identically_on_both_paths() {
    // A liveness-masked grid: a quarter of the stations are dead, occupy
    // no slot, never transmit and must decode nothing on either path.
    let pts = uniform::square(400, 6.0, 13);
    let mut rng = SmallRng::seed_from_u64(3);
    let alive: Vec<bool> = (0..pts.len())
        .map(|_| rng.gen_range(0u32..4) != 0)
        .collect();
    let decodes = battery("churned", &pts, &alive, 3);
    assert!(decodes > 0, "the battery must exercise decodes");
}

#[test]
fn three_dimensional_deployments_decide_identically_on_both_paths() {
    let mut rng = SmallRng::seed_from_u64(14);
    let pts: Vec<Point3> = (0..300)
        .map(|_| {
            Point3::new(
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
            )
        })
        .collect();
    let decodes = battery("3-d", &pts, &vec![true; pts.len()], 4);
    assert!(decodes > 0, "the battery must exercise decodes");
}

/// The next representable value above finite `x`.
fn step_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// `x` moved `k` representable steps (up for `k > 0`, down for `k < 0`).
fn ulps(x: f64, k: i32) -> f64 {
    let mut x = x;
    for _ in 0..k.unsigned_abs() {
        x = if k > 0 { step_up(x) } else { -step_up(-x) };
    }
    x
}

/// Whether `|u − t|`, in exact arithmetic, exceeds 1 (two-sum of the
/// rounded difference and its error).
fn farther_than_one(u: f64, t: f64) -> bool {
    let s = u - t;
    let b = s - u;
    let err = (u - (s - b)) + (-t - b);
    s.abs() > 1.0 || (s.abs() == 1.0 && err * s.signum() > 0.0)
}

/// Pairs at distance 1 and 1 ± a few ulps whose receiver sits on, or a
/// few ulps off, a cell boundary, along either axis and in both
/// directions. Every such pair must decide identically on both paths —
/// and some of them decode although the receiver lies beyond range 1
/// **and** outside the key box of a reach of exactly 1, which is what
/// the margin of the decode reach is for.
#[test]
fn boundary_pairs_decide_identically_on_both_paths() {
    let mut beyond_exact_box = 0;
    let mut pairs = 0;
    let mut pool = KernelPool::serial();
    for side in SIDES {
        for alpha in ALPHAS {
            for noise in [1.0, 0.37, 0.7, 3.3, 2.9e3, 1e-3] {
                for beta in [1.0, 1.2, 2.5] {
                    let p = params(alpha, noise, beta);
                    let mut oracle = ReceptionOracle::new();
                    for k in -2..=3 {
                        let boundary = k as f64 * side;
                        for j in -2..=2 {
                            let u = ulps(boundary, j);
                            for dir in [1.0, -1.0] {
                                for eta in [0.0, 2f64.powi(-53), 2f64.powi(-52)] {
                                    for m in -3..=3 {
                                        let t = ulps(u - dir, m) - dir * eta;
                                        for axis in 0..2 {
                                            let at = |x: f64| {
                                                if axis == 0 {
                                                    Point2::new(x, 0.3)
                                                } else {
                                                    Point2::new(0.3, x)
                                                }
                                            };
                                            let pts = vec![at(t), at(u)];
                                            let grid = GridIndex::build(&pts, side);
                                            let what = format!(
                                                "side {side} α {alpha} N {noise} β {beta}: \
                                                 t = {t:e}, u = {u:e} on axis {axis}"
                                            );
                                            let out = check_round(
                                                &mut oracle,
                                                &mut pool,
                                                &pts,
                                                &p,
                                                &[0],
                                                &grid,
                                                &what,
                                            );
                                            pairs += 1;
                                            let lo = ((t - 1.0) / side).floor();
                                            let hi = ((t + 1.0) / side).floor();
                                            let key = (u / side).floor();
                                            if out.decoded_from[1] == Some(0)
                                                && farther_than_one(u, t)
                                                && (key < lo || key > hi)
                                            {
                                                beyond_exact_box += 1;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        beyond_exact_box > 0,
        "none of {pairs} boundary pairs decodes beyond range 1 outside the exact-range key box"
    );
}
