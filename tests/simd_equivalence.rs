//! The explicit-SIMD contract: every dispatched kernel tier is **bitwise
//! identical, per element,** to the scalar reference path.
//!
//! Three layers of pinning:
//!
//! 1. kernel level — `distance_sq_batch_with` and
//!    `for_each_within_sq_with` compared `to_bits()`-element-wise
//!    between the machine's [`hardware_tier`] and a forced
//!    [`SimdTier::Scalar`], across point families (uniform / cluster /
//!    line / grid) × axes {1, 2, 3} × slice lengths
//!    {0, 1, lane−1, lane, lane+1, 4·lane+3}; the scalar-only
//!    `signal_at_sq_batch` is pinned against `signal_at_sq` per element
//!    for α ∈ {2, 3, 4} through the `MIN_DISTANCE` clamp boundary;
//! 2. predicate level — the sqrt-free ball criterion
//!    ([`radius_criterion`]) probed exhaustively through the ulp
//!    neighborhood of its boundary against the `d2.sqrt() <= radius`
//!    test it replaces;
//! 3. protocol level — full `RunReport`s byte-equal between
//!    [`KernelDispatch::ForceScalar`] and the default auto dispatch at
//!    physics threads {1, 2, 8}, plus the `Accumulation::F32` build()
//!    rejection whenever bit-exact reporting is requested.
//!
//! On a machine whose hardware tier *is* scalar the differential pairs
//! degenerate to scalar-vs-scalar and pass trivially; CI keeps a
//! `SINR_KERNELS=scalar` leg so that regression coverage of the scalar
//! reference itself never depends on runner hardware.

use rand::{Rng, SeedableRng, SmallRng};

use sinr_broadcast::core::sim::{
    Accumulation, KernelDispatch, LoadObserver, Observer, ProtocolSpec, Scenario, TopologySpec,
};
use sinr_broadcast::core::Constants;
use sinr_broadcast::geometry::{
    hardware_tier, radius_criterion, GridIndex, Point1, Point2, Point3, PositionStore, SimdTier,
};
use sinr_broadcast::phy::{
    InterferenceMode, KernelPool, ReceptionOracle, RoundOutcome, SinrParams,
};

/// `MIN_DISTANCE²` — the clamp floor of `signal_at_sq*`.
const MIN2: f64 = SinrParams::MIN_DISTANCE * SinrParams::MIN_DISTANCE;

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// The slice lengths the battery sweeps: the empty and singleton cases,
/// both sides of one vector width, and a multi-chunk length with a
/// remainder (deduplicated — on a scalar-only machine lane = 1 and the
/// lane-relative entries collapse).
fn lengths() -> Vec<usize> {
    let lane = hardware_tier().f64_lanes();
    let mut ls = vec![0, 1, lane.saturating_sub(1), lane, lane + 1, 4 * lane + 3];
    ls.sort_unstable();
    ls.dedup();
    ls
}

/// One 3-axis coordinate set per point family, `n` points from `seed`.
fn family_points(family: &str, n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match family {
            "uniform" => [
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
            ],
            "cluster" => {
                // A handful of tight clusters: many near-equal distances,
                // so the comparison boundary gets real traffic.
                let c = (i % 5) as f64 * 17.0;
                [
                    c + rng.gen_range(-0.25..0.25),
                    c + rng.gen_range(-0.25..0.25),
                    c + rng.gen_range(-0.25..0.25),
                ]
            }
            "line" => {
                // Collinear points: degenerate geometry where one axis
                // carries all the signal and the others cancel exactly.
                let t = i as f64 * 0.73;
                [t, 2.0 * t, -t]
            }
            "grid" => {
                // Exact lattice coordinates — subtractions are exact, so
                // any tier divergence would come from the kernel alone.
                [(i % 7) as f64, ((i / 7) % 7) as f64, (i / 49) as f64]
            }
            other => panic!("unknown family {other}"),
        })
        .collect()
}

const FAMILIES: [&str; 4] = ["uniform", "cluster", "line", "grid"];

/// Builds the axis-restricted store for `axes` from 3-axis samples.
fn store_for(axes: usize, pts: &[[f64; 3]]) -> PositionStore {
    match axes {
        1 => PositionStore::from_points(&pts.iter().map(|p| Point1::new(p[0])).collect::<Vec<_>>()),
        2 => PositionStore::from_points(
            &pts.iter()
                .map(|p| Point2::new(p[0], p[1]))
                .collect::<Vec<_>>(),
        ),
        _ => PositionStore::from_points(
            &pts.iter()
                .map(|p| Point3::new(p[0], p[1], p[2]))
                .collect::<Vec<_>>(),
        ),
    }
}

#[test]
fn distance_kernels_match_scalar_bitwise_across_families_axes_and_lengths() {
    let auto = hardware_tier();
    for family in FAMILIES {
        for axes in [1usize, 2, 3] {
            for (li, &len) in lengths().iter().enumerate() {
                let seed = 1000 + li as u64;
                let pts = family_points(family, len + 1, seed);
                let store = store_for(axes, &pts);
                let center = pts[len]; // a same-family center, unused slot
                let mut vec_out = vec![f64::NAN; len];
                let mut ref_out = vec![f64::NAN; len];
                store.distance_sq_batch_with(0..len, &center, &mut vec_out, auto);
                store.distance_sq_batch_with(0..len, &center, &mut ref_out, SimdTier::Scalar);
                for k in 0..len {
                    assert_eq!(
                        vec_out[k].to_bits(),
                        ref_out[k].to_bits(),
                        "{family}/ax{axes}/len{len}: slot {k} diverged \
                         ({} vs {})",
                        vec_out[k],
                        ref_out[k],
                    );
                }
                // Misaligned start: the range need not begin at slot 0,
                // so the vector head/tail split shifts by one.
                if len > 1 {
                    store.distance_sq_batch_with(1..len, &center, &mut vec_out[..len - 1], auto);
                    store.distance_sq_batch_with(
                        1..len,
                        &center,
                        &mut ref_out[..len - 1],
                        SimdTier::Scalar,
                    );
                    for k in 0..len - 1 {
                        assert_eq!(
                            vec_out[k].to_bits(),
                            ref_out[k].to_bits(),
                            "{family}/ax{axes}/len{len}: offset slot {k} diverged"
                        );
                    }
                }
            }
        }
    }
}

/// Squared-distance inputs that straddle the `MIN_DISTANCE` clamp floor
/// ulp-by-ulp, plus ordinary magnitudes.
fn clamp_boundary_inputs() -> Vec<f64> {
    vec![
        0.0,
        f64::MIN_POSITIVE,
        MIN2 / 2.0,
        next_down(MIN2),
        MIN2,
        next_up(MIN2),
        MIN2 * 2.0,
        1e-12,
        1.0,
        1.0 + f64::EPSILON,
        42.75,
        1e12,
    ]
}

#[test]
fn signal_batch_agrees_with_the_documented_scalar_element_function() {
    // The batch kernel's per-element contract is `signal_at_sq` itself —
    // including at the clamp boundary.
    for alpha in [2.0, 3.0, 4.0] {
        let params = SinrParams::builder()
            .alpha(alpha)
            .build(1.5)
            .expect("valid test params");
        let inputs = clamp_boundary_inputs();
        let mut batch = inputs.clone();
        params.signal_at_sq_batch(&mut batch);
        for (k, &d2) in inputs.iter().enumerate() {
            assert_eq!(
                batch[k].to_bits(),
                params.signal_at_sq(d2).to_bits(),
                "alpha {alpha}: batch[{k}] (d2={d2}) disagrees with signal_at_sq"
            );
        }
    }
}

#[test]
fn for_each_within_sq_matches_both_the_scalar_tier_and_the_sqrt_predicate() {
    let auto = hardware_tier();
    for family in FAMILIES {
        for n in [0usize, 1, 7, 64, 65, 257] {
            let pts = family_points(family, n.max(1), 31 + n as u64);
            let store = store_for(2, &pts);
            let center = [0.5, -0.5, 0.0];
            // A radius that puts a meaningful fraction of each family
            // inside the ball.
            for radius in [0.0, 3.0, 40.0] {
                let criterion = radius_criterion(radius);
                let collect = |tier: SimdTier| {
                    let mut hits = Vec::new();
                    store.for_each_within_sq_with(0..n, &center, criterion, tier, |s| {
                        hits.push(s);
                    });
                    hits
                };
                let fast = collect(auto);
                let scalar = collect(SimdTier::Scalar);
                assert_eq!(fast, scalar, "{family}/n{n}/r{radius}: tiers disagree");
                let mut sqrt_path = Vec::new();
                store.for_each_within(0..n, &center, radius, |s| sqrt_path.push(s));
                assert_eq!(
                    fast, sqrt_path,
                    "{family}/n{n}/r{radius}: sqrt-free differs from the sqrt predicate"
                );
            }
        }
    }
}

#[test]
fn radius_criterion_boundary_is_bit_equivalent_through_the_ulp_neighborhood() {
    // For each radius, walk the squared-distance axis ulp-by-ulp through
    // the criterion boundary and demand the sqrt-free predicate makes the
    // exact same decision as the sqrt test at every probe.
    let radii = [
        0.0,
        f64::MIN_POSITIVE,
        SinrParams::MIN_DISTANCE,
        0.75,
        1.0,
        next_up(1.0),
        3.0_f64.sqrt(),
        42.0,
        1e155, // near the overflow edge of squaring
    ];
    for r in radii {
        let c = radius_criterion(r);
        assert!(
            c.sqrt() <= r,
            "criterion itself must satisfy the predicate (r={r})"
        );
        if c.is_finite() && c > 0.0 {
            assert!(
                next_up(c).sqrt() > r,
                "criterion must be the LARGEST satisfying d2 (r={r})"
            );
        }
        let lo = if c.to_bits() >= 512 {
            c.to_bits() - 512
        } else {
            0
        };
        for bits in lo..=c.to_bits() + 512 {
            let d2 = f64::from_bits(bits);
            assert_eq!(
                d2 <= c,
                d2.sqrt() <= r,
                "r={r}: decisions split at d2={d2:e} (bits {bits:#x})"
            );
        }
    }
    // Degenerate radii: NaN and negatives admit nothing, +inf everything.
    assert_eq!(radius_criterion(f64::NAN), f64::NEG_INFINITY);
    assert_eq!(radius_criterion(-1.0), f64::NEG_INFINITY);
    assert_eq!(radius_criterion(f64::INFINITY), f64::INFINITY);
    // A NaN distance is unordered against any criterion, so it never
    // enters a ball — matching the NaN-propagating sqrt test.
    assert!(f64::NAN
        .partial_cmp(&radius_criterion(f64::INFINITY))
        .is_none());
}

#[test]
fn store_level_ball_decisions_agree_at_deliberately_boundary_distances() {
    // 1-axis points manufactured to land their computed squared distance
    // inside the ulp neighborhood of the criterion: x = sqrt(probe), so
    // RN(x²) clusters within an ulp or two of the probe value. Whatever
    // d2 actually materializes, all three paths must agree on it.
    let radius = 2.5f64;
    let criterion = radius_criterion(radius);
    let mut probes = Vec::new();
    for delta in -40i64..=40 {
        let bits = (criterion.to_bits() as i64 + delta) as u64;
        probes.push(f64::from_bits(bits).sqrt());
    }
    let store =
        PositionStore::from_points(&probes.iter().map(|&x| Point1::new(x)).collect::<Vec<_>>());
    let center = [0.0, 0.0, 0.0];
    let n = probes.len();
    let collect = |tier: SimdTier| {
        let mut hits = Vec::new();
        store.for_each_within_sq_with(0..n, &center, criterion, tier, |s| hits.push(s));
        hits
    };
    let fast = collect(hardware_tier());
    assert_eq!(
        fast,
        collect(SimdTier::Scalar),
        "tiers disagree at the boundary"
    );
    let mut sqrt_path = Vec::new();
    store.for_each_within(0..n, &center, radius, |s| sqrt_path.push(s));
    assert_eq!(fast, sqrt_path, "sqrt-free ball differs at the boundary");
    assert!(
        !fast.is_empty() && fast.len() < n,
        "probe set must actually straddle the boundary (got {}/{n} inside)",
        fast.len()
    );
}

#[test]
fn f32_tail_error_stays_within_the_documented_bound_at_ten_thousand_stations() {
    // The EXPERIMENTS.md error table at measurement scale: worst relative
    // error of the F32 far-field tail fold over every station's total
    // received power, n = 10⁴, grid-native mode, per α fast path. The
    // phy crate docs cite the 4×10⁻⁷ ceiling this test enforces.
    let n = 10_000usize;
    let side = (n as f64 / 30.0).sqrt(); // the bench suite's density
    let mut rng = SmallRng::seed_from_u64(7);
    let pts: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let grid = GridIndex::build(&pts, 1.0);
    let tx: Vec<usize> = (0..n).step_by(11).collect();
    let mode = InterferenceMode::grid_native();
    for alpha in [2.0, 3.0, 4.0] {
        let params = SinrParams::builder()
            .alpha(alpha)
            .build(1.5)
            .expect("valid test params");
        // The diagnostic entry, so every station's total is compared.
        let mut pool = KernelPool::serial();
        let mut f64_oracle = ReceptionOracle::new();
        let mut f64_out = RoundOutcome::empty();
        f64_oracle.resolve_power_into(
            &pts,
            &params,
            &tx,
            mode,
            Some(&grid),
            &mut pool,
            &mut f64_out,
        );
        let mut f32_oracle = ReceptionOracle::new();
        f32_oracle.set_accumulation(sinr_broadcast::phy::Accumulation::F32);
        let mut f32_out = RoundOutcome::empty();
        f32_oracle.resolve_power_into(
            &pts,
            &params,
            &tx,
            mode,
            Some(&grid),
            &mut pool,
            &mut f32_out,
        );
        let mut worst = 0.0f64;
        for (a, b) in f64_oracle
            .received_power()
            .iter()
            .zip(f32_oracle.received_power())
        {
            if *a > 0.0 {
                worst = worst.max((a - b).abs() / a);
            }
        }
        eprintln!("f32 tail: alpha {alpha} worst relative error {worst:.3e}");
        assert!(
            worst <= 4e-7,
            "alpha {alpha}: relative tail error {worst:e} above the documented 4e-7"
        );
        // The tail fold must leave decode decisions on this deployment
        // intact (low interference bits only).
        assert_eq!(f64_out.decoded_from, f32_out.decoded_from);
    }
}

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        dissem_factor: 8.0,
        ..Constants::tuned()
    }
}

fn scenario(mode: InterferenceMode) -> Scenario {
    Scenario::new(TopologySpec::ConnectedSquareDensity {
        n: 80,
        density: 30.0,
    })
    .constants(fast())
    .protocol(ProtocolSpec::SBroadcast { source: 0 })
    .interference_mode(mode)
    .record_rounds()
    .budget(2_000_000)
}

#[test]
fn run_reports_are_byte_identical_forced_scalar_vs_auto_at_every_thread_count() {
    // The protocol-level closure of the kernel contract: pinning the
    // dispatch to the scalar reference must not change a single report
    // byte, at any physics-thread count, in the modes that drive the
    // batch kernels hardest.
    for mode in [InterferenceMode::grid_native(), InterferenceMode::Exact] {
        let auto = scenario(mode).build().unwrap().run(42).unwrap();
        for threads in [1usize, 2, 8] {
            let forced = scenario(mode)
                .physics_threads(threads)
                .kernel_dispatch(KernelDispatch::ForceScalar)
                .build()
                .unwrap()
                .run(42)
                .unwrap();
            assert_eq!(
                auto, forced,
                "{mode:?}: ForceScalar at {threads} physics threads changed the report"
            );
        }
    }
}

#[test]
fn f32_accumulation_is_rejected_whenever_bit_exact_reporting_is_requested() {
    let base = || {
        Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 40,
            density: 25.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(InterferenceMode::grid_native())
        .budget(2_000_000)
        .accumulation(Accumulation::F32)
    };

    // Round recording is a bit-exactness observer.
    let err = base().record_rounds().build().err().expect("must reject");
    assert!(
        err.to_string().contains("Accumulation::F32"),
        "unexpected rejection text: {err}"
    );

    // So is any attached observer.
    let err = base()
        .observe(|| Box::new(LoadObserver::new()) as Box<dyn Observer>)
        .build()
        .err()
        .expect("must reject");
    assert!(err.to_string().contains("Accumulation::F32"));

    // Without either, the opt-in mode builds and runs.
    let report = base()
        .build()
        .expect("plain F32 run builds")
        .run(7)
        .unwrap();
    let f64_report = Scenario::new(TopologySpec::ConnectedSquareDensity {
        n: 40,
        density: 25.0,
    })
    .constants(fast())
    .protocol(ProtocolSpec::SBroadcast { source: 0 })
    .interference_mode(InterferenceMode::grid_native())
    .budget(2_000_000)
    .build()
    .unwrap()
    .run(7)
    .unwrap();
    // The tail fold changes low interference bits, never the outcome of
    // this comfortable scenario.
    assert_eq!(report.outcome, f64_report.outcome);
}
