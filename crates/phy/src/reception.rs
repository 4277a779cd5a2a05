//! The SINR reception oracle: who hears whom in one synchronous round.
//!
//! Given the set `T` of transmitting stations, station `u ∉ T` receives the
//! message of `v ∈ T` iff `SINR(v, u, T) ≥ β` (Equation 1 of the paper).
//! Since `β ≥ 1`, at most one transmitter can be decoded at any receiver —
//! necessarily the one with the strongest received signal — so the oracle
//! computes, per receiver, the total received power and the strongest
//! transmitter, then applies the threshold test.
//!
//! This module holds the mode enum, the round-outcome type and the one-shot
//! [`resolve_round`] entry point; the implementation (and the reusable,
//! zero-allocation round-resolution state) lives in
//! [`ReceptionOracle`].

use sinr_geometry::{GridIndex, MetricPoint};

use crate::oracle::ReceptionOracle;
use crate::params::SinrParams;

/// How interference sums are evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterferenceMode {
    /// Exact evaluation of Equation (1): every transmitter contributes to
    /// every receiver. Cost `O(|T|·n)` per round.
    Exact,
    /// Transmitters farther than `radius` from a receiver are ignored.
    ///
    /// For bounded-density inputs the neglected far-field interference is
    /// `O(density · radius^{γ−α})`, vanishing as `radius` grows because
    /// α > γ. Reception decisions are slightly *optimistic* compared to
    /// [`InterferenceMode::Exact`]; use only for large-scale sweeps after
    /// checking agreement (see the `truncation` tests and the criterion
    /// bench `interference`).
    Truncated {
        /// Interference cut-off radius (must exceed the communication range 1).
        radius: f64,
    },
    /// Far-field interference is aggregated per grid cell (a one-level
    /// multipole approximation): transmitters within `near_radius` of a
    /// receiver contribute exactly; farther transmitters contribute
    /// `P·d(u, cell centre)^{−α}` through their cell's aggregate.
    ///
    /// The strongest (decodable) transmitter is always within the
    /// communication range 1 < `near_radius`, so decode *candidates* are
    /// exact and only the interference tail is approximated. With cell side
    /// `g` and `d ≥ near_radius`, each far contribution carries a relative
    /// error ≤ `(1 − g·√2/(2d))^{−α} − 1 ≈ α·g·√2/(2·near_radius)` — a few
    /// percent at the defaults (`g = 1`, `near_radius = 4`). Unlike
    /// [`InterferenceMode::Truncated`] the tail is *estimated*, not
    /// dropped, so errors do not systematically favour reception.
    ///
    /// Cost: `O(|T| + n·#cells + near pairs)` instead of `O(|T|·n)`.
    CellAggregate {
        /// Exact-evaluation radius (must be at least 2: range 1 plus one
        /// cell diagonal of slack).
        near_radius: f64,
    },
    /// The grid-native kernel: exact decode, approximate tail, shared per
    /// receiver cell — the recommended mode for large sweeps.
    ///
    /// Decode candidates are evaluated exactly per transmitter within
    /// Chebyshev key distance `⌈near_radius / cell side⌉` of the receiver's
    /// grid cell (every decodable signal comes from range ≤ 1 <
    /// `near_radius`, Equation 1), while all farther transmitter cells
    /// collapse into a single interference-tail term per *receiver cell*,
    /// evaluated once between the two cells' member centroids and shared by
    /// every receiver in the cell.
    ///
    /// Compared to [`InterferenceMode::CellAggregate`] — which evaluates
    /// the far field per receiver — the tail here is approximated at both
    /// endpoints, carrying a relative error per far term of roughly
    /// `α·g·√2 / near_radius` (cell side `g`; both centroid offsets are at
    /// most `g·√2/2` and first-order errors partially cancel across a
    /// cell's members). Decode decisions are exact whenever the SINR margin
    /// exceeds that tail perturbation; like `CellAggregate`, and unlike
    /// [`InterferenceMode::Truncated`], errors do not systematically favour
    /// reception.
    ///
    /// Cost: `O(|T| log |T| + #cells·#tx-cells + near pairs)` per round,
    /// with no square-root/`powf` per far pair — measured ~15× faster than
    /// `Exact` and ~14× faster than `CellAggregate` at n = 10⁴, 2% load
    /// (see the `oracle/` rows of `BENCH.json`).
    GridNative {
        /// Exact-evaluation radius (must be at least 2; default 4 balances
        /// the tail error against the near-pair count).
        near_radius: f64,
    },
}

impl InterferenceMode {
    /// The default grid-native fast mode (`near_radius = 4`): exact decode
    /// decisions, per-cell approximate interference tail.
    pub fn grid_native() -> Self {
        InterferenceMode::GridNative { near_radius: 4.0 }
    }
}

/// Outcome of resolving one round of transmissions.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// `decoded_from[u] = Some(v)` iff station `u` successfully received the
    /// message transmitted by station `v` this round. Transmitters never
    /// decode (half-duplex): `decoded_from[u] = None` for `u ∈ T`.
    pub decoded_from: Vec<Option<usize>>,
    /// Number of transmitters this round.
    pub num_transmitters: usize,
}

impl RoundOutcome {
    /// An outcome with no stations and no transmitters — the reusable
    /// buffer fed to [`ReceptionOracle::resolve_into`].
    pub fn empty() -> Self {
        RoundOutcome {
            decoded_from: Vec::new(),
            num_transmitters: 0,
        }
    }

    /// Number of stations that decoded a message this round.
    pub fn num_receivers(&self) -> usize {
        self.decoded_from.iter().filter(|d| d.is_some()).count()
    }
}

/// Resolves one round: which stations decode which transmitter.
///
/// `transmitters` is the set `T` (indices into `points`, duplicates not
/// allowed). `grid` is required for every mode except
/// [`InterferenceMode::Exact`] and ignored for exact evaluation.
///
/// This is the one-shot convenience wrapper: it builds a fresh
/// [`ReceptionOracle`] per call. Round loops should construct the oracle
/// once and call [`ReceptionOracle::resolve_into`] (or
/// [`crate::Network::resolve_with`]) to resolve rounds without allocating.
///
/// # Panics
///
/// Panics if a transmitter index is out of range, if a grid-backed mode is
/// requested without a grid, or if a truncation/near radius is below its
/// documented minimum (which would corrupt even interference-free
/// receptions).
pub fn resolve_round<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    mode: InterferenceMode,
    grid: Option<&GridIndex>,
) -> RoundOutcome {
    ReceptionOracle::new().resolve(points, params, transmitters, mode, grid)
}

/// Interference at station `u` from transmitter set `T`, excluding the
/// station nearest to `u` among `T` (the paper's definition of `I_u`,
/// Section 2). Exact evaluation.
pub fn interference_at<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    u: usize,
) -> f64 {
    let nearest = transmitters
        .iter()
        .copied()
        .filter(|&t| t != u)
        .min_by(|&a, &b| {
            points[a]
                .distance(&points[u])
                .total_cmp(&points[b].distance(&points[u]))
        });
    let Some(nearest) = nearest else { return 0.0 };
    transmitters
        .iter()
        .copied()
        .filter(|&t| t != u && t != nearest)
        .map(|t| params.signal_at(points[t].distance(&points[u])))
        .sum()
}

/// Total received signal power at station `u` from all of `transmitters`
/// (the quantity `S_v` of Section 3.4, used by Facts 9–10).
pub fn total_signal_at<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    u: usize,
) -> f64 {
    transmitters
        .iter()
        .copied()
        .filter(|&t| t != u)
        .map(|t| params.signal_at(points[t].distance(&points[u])))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;

    fn params() -> SinrParams {
        SinrParams::default_plane()
    }

    #[test]
    fn lone_transmitter_reaches_range_one() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),   // exactly at range
            Point2::new(1.001, 0.0), // just beyond
        ];
        let out = resolve_round(&pts, &params(), &[0], InterferenceMode::Exact, None);
        assert_eq!(out.decoded_from[1], Some(0));
        assert_eq!(out.decoded_from[2], None);
        assert_eq!(out.decoded_from[0], None, "transmitter is half-duplex");
        assert_eq!(out.num_transmitters, 1);
        assert_eq!(out.num_receivers(), 1);
    }

    #[test]
    fn two_transmitters_jam_midpoint() {
        // Symmetric transmitters: the receiver in the middle sees SINR =
        // S/(N+S) < 1 <= beta, so it decodes nothing.
        let pts = vec![
            Point2::new(-0.5, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
        ];
        let out = resolve_round(&pts, &params(), &[0, 2], InterferenceMode::Exact, None);
        assert_eq!(out.decoded_from[1], None);
    }

    #[test]
    fn near_transmitter_beats_far_interference() {
        // One transmitter very close, another far: the close one decodes.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.1, 0.0),
            Point2::new(10.0, 0.0),
        ];
        let out = resolve_round(&pts, &params(), &[0, 2], InterferenceMode::Exact, None);
        assert_eq!(out.decoded_from[1], Some(0));
    }

    #[test]
    fn no_transmitters_no_receptions() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let out = resolve_round(&pts, &params(), &[], InterferenceMode::Exact, None);
        assert!(out.decoded_from.iter().all(Option::is_none));
        assert_eq!(out.num_transmitters, 0);
    }

    #[test]
    fn all_transmit_nobody_receives() {
        let pts: Vec<Point2> = (0..5).map(|i| Point2::new(i as f64 * 0.3, 0.0)).collect();
        let tx: Vec<usize> = (0..5).collect();
        let out = resolve_round(&pts, &params(), &tx, InterferenceMode::Exact, None);
        assert!(out.decoded_from.iter().all(Option::is_none));
    }

    #[test]
    fn interference_at_excludes_nearest() {
        let pts = vec![
            Point2::new(0.0, 0.0), // u
            Point2::new(0.5, 0.0), // nearest transmitter
            Point2::new(2.0, 0.0), // other transmitter
        ];
        let p = params();
        let i = interference_at(&pts, &p, &[1, 2], 0);
        assert!((i - p.signal_at(2.0)).abs() < 1e-12);
        assert_eq!(interference_at(&pts, &p, &[], 0), 0.0);
        assert_eq!(interference_at(&pts, &p, &[0], 0), 0.0, "self excluded");
    }

    #[test]
    fn total_signal_sums_everything() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(2.0, 0.0),
        ];
        let p = params();
        let s = total_signal_at(&pts, &p, &[1, 2], 0);
        assert!((s - (p.signal_at(0.5) + p.signal_at(2.0))).abs() < 1e-12);
    }

    #[test]
    fn truncated_matches_exact_when_radius_covers_all() {
        let pts: Vec<Point2> = (0..30)
            .map(|i| Point2::new((i % 6) as f64 * 0.4, (i / 6) as f64 * 0.4))
            .collect();
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let tx = vec![0, 7, 13, 22];
        let exact = resolve_round(&pts, &p, &tx, InterferenceMode::Exact, None);
        let trunc = resolve_round(
            &pts,
            &p,
            &tx,
            InterferenceMode::Truncated { radius: 100.0 },
            Some(&grid),
        );
        assert_eq!(exact, trunc);
    }

    #[test]
    fn truncated_is_optimistic() {
        // A far jammer is ignored by the truncated model, so a marginal
        // reception succeeds there but fails exactly.
        let p = SinrParams::builder().beta(1.0).eps(0.5).build(2.0).unwrap();
        let pts = vec![
            Point2::new(0.0, 0.0),   // tx
            Point2::new(0.999, 0.0), // marginal receiver
            Point2::new(3.0, 0.0),   // jammer outside truncation radius 1.5
        ];
        let grid = GridIndex::build(&pts, 1.0);
        let exact = resolve_round(&pts, &p, &[0, 2], InterferenceMode::Exact, None);
        let trunc = resolve_round(
            &pts,
            &p,
            &[0, 2],
            InterferenceMode::Truncated { radius: 1.5 },
            Some(&grid),
        );
        assert_eq!(exact.decoded_from[1], None);
        assert_eq!(trunc.decoded_from[1], Some(0));
    }

    #[test]
    fn cell_aggregate_matches_exact_decisions_on_spread_network() {
        // Random-ish spread-out network; decode decisions must match the
        // exact oracle (the far-field approximation only perturbs the
        // interference tail, a few percent at most).
        let pts: Vec<Point2> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 * 0.9 + ((i * 7) % 5) as f64 * 0.11;
                let y = (i / 20) as f64 * 0.9 + ((i * 13) % 7) as f64 * 0.07;
                Point2::new(x, y)
            })
            .collect();
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let tx: Vec<usize> = (0..200).step_by(9).collect();
        let exact = resolve_round(&pts, &p, &tx, InterferenceMode::Exact, None);
        let agg = resolve_round(
            &pts,
            &p,
            &tx,
            InterferenceMode::CellAggregate { near_radius: 4.0 },
            Some(&grid),
        );
        let disagreements = exact
            .decoded_from
            .iter()
            .zip(&agg.decoded_from)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            disagreements, 0,
            "cell aggregation flipped {disagreements} decode decisions"
        );
    }

    // The reference replication of the oracle's cell partition uses a
    // HashMap on purpose: only *aggregate totals* are compared, so order
    // cannot matter here (clippy.toml bans the type workspace-wide).
    #[allow(clippy::disallowed_types)]
    #[test]
    fn cell_aggregate_interference_error_is_small() {
        // Compare total received power (signal sums) between exact and
        // aggregated far fields at a probe receiver.
        let pts: Vec<Point2> = (0..300)
            .map(|i| Point2::new((i % 30) as f64 * 0.7, (i / 30) as f64 * 0.7))
            .collect();
        let p = params();
        let tx: Vec<usize> = (0..300).step_by(4).collect();
        // Replicate the oracle's partition: near cells (centroid within
        // near_radius + diag) exact, far cells one aggregate at the
        // centroid — and compare the resulting TOTAL received power at a
        // probe receiver against the fully exact total.
        let u = 0usize;
        let near_radius = 4.0;
        let cell = 1.0f64;
        let diag = cell * 2.0f64.sqrt();
        let exact_total: f64 = tx
            .iter()
            .filter(|&&t| t != u)
            .map(|&t| p.signal_at(pts[t].distance(&pts[u])))
            .sum();
        let mut cells: std::collections::HashMap<(i64, i64), (f64, f64, Vec<usize>)> =
            Default::default();
        for &t in &tx {
            let key = (
                (pts[t].x / cell).floor() as i64,
                (pts[t].y / cell).floor() as i64,
            );
            let e = cells.entry(key).or_insert((0.0, 0.0, Vec::new()));
            e.0 += pts[t].x;
            e.1 += pts[t].y;
            e.2.push(t);
        }
        let approx_total: f64 = cells
            .values()
            .map(|(x, y, members)| {
                let k = members.len() as f64;
                let c = Point2::new(x / k, y / k);
                let dc = c.distance(&pts[u]);
                if dc > near_radius + diag {
                    k * p.signal_at(dc)
                } else {
                    members
                        .iter()
                        .filter(|&&t| t != u)
                        .map(|&t| p.signal_at(pts[t].distance(&pts[u])))
                        .sum()
                }
            })
            .sum();
        let rel = (approx_total - exact_total).abs() / exact_total.max(1e-12);
        assert!(rel < 0.05, "total received power relative error {rel}");
    }

    #[test]
    #[should_panic]
    fn cell_aggregate_rejects_small_near_radius() {
        let pts = vec![Point2::origin()];
        let grid = GridIndex::build(&pts, 1.0);
        let _ = resolve_round(
            &pts,
            &params(),
            &[0],
            InterferenceMode::CellAggregate { near_radius: 1.0 },
            Some(&grid),
        );
    }

    #[test]
    #[should_panic]
    fn truncated_requires_grid() {
        let pts = vec![Point2::origin()];
        let _ = resolve_round(
            &pts,
            &params(),
            &[0],
            InterferenceMode::Truncated { radius: 2.0 },
            None,
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_transmitter_panics() {
        let pts = vec![Point2::origin()];
        let _ = resolve_round(&pts, &params(), &[3], InterferenceMode::Exact, None);
    }

    #[test]
    fn cell_aggregate_is_deterministic_across_runs() {
        // Regression test: the historical implementation iterated a std
        // `HashMap` of transmitter cells, whose order differs between
        // instances (randomised hasher keys), so the floating-point
        // interference sums — and decode outcomes near the β threshold —
        // could differ between two runs of the same input *in the same
        // process*. Cells are now iterated in sorted-key order; both the
        // decode decisions and the raw power sums must be bit-identical.
        let pts: Vec<Point2> = (0..300)
            .map(|i| {
                let x = (i % 25) as f64 * 0.63 + ((i * 11) % 9) as f64 * 0.041;
                let y = (i / 25) as f64 * 0.63 + ((i * 17) % 13) as f64 * 0.029;
                Point2::new(x, y)
            })
            .collect();
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let tx: Vec<usize> = (0..300).step_by(4).collect();
        let mode = InterferenceMode::CellAggregate { near_radius: 4.0 };
        let mut a = ReceptionOracle::new();
        let mut b = ReceptionOracle::new();
        let mut pool = crate::KernelPool::serial();
        let (mut out_a, mut out_b) = (RoundOutcome::empty(), RoundOutcome::empty());
        a.resolve_power_into(&pts, &p, &tx, mode, Some(&grid), &mut pool, &mut out_a);
        b.resolve_power_into(&pts, &p, &tx, mode, Some(&grid), &mut pool, &mut out_b);
        assert_eq!(out_a, out_b);
        for (u, (x, y)) in a
            .received_power()
            .iter()
            .zip(b.received_power())
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "total power differs at {u}");
        }
    }

    #[test]
    fn grid_native_mode_constructor() {
        assert_eq!(
            InterferenceMode::grid_native(),
            InterferenceMode::GridNative { near_radius: 4.0 }
        );
    }

    #[test]
    fn deterministic_tie_break_lowest_index() {
        // Two transmitters at identical distance from the receiver: the
        // receiver fails (beta >= 1 means equal signals jam each other), but
        // best_idx must still be deterministic; check via a beta=1 boundary
        // where one signal slightly dominates after perturbation.
        let pts = vec![
            Point2::new(-0.4, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(0.4, 0.0),
        ];
        let out1 = resolve_round(&pts, &params(), &[0, 2], InterferenceMode::Exact, None);
        let out2 = resolve_round(&pts, &params(), &[2, 0], InterferenceMode::Exact, None);
        assert_eq!(out1, out2, "outcome independent of transmitter order");
    }
}
