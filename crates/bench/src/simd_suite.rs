//! The explicit-SIMD kernel suite: the two batch kernels the runtime
//! dispatcher vectorizes — [`PositionStore::distance_sq_batch_with`] and
//! the sqrt-free [`PositionStore::for_each_within_sq_with`] membership
//! loop — each timed under the auto-detected tier AND pinned to scalar
//! on the same machine, so the committed `BENCH.json` records the actual
//! lane speedup rather than inferring it across commits.
//!
//! Naming scheme: `simd/<kernel>_x32/<dispatch>/<n>` where `<dispatch>`
//! is `auto` (the cached hardware tier) or `scalar` (forced, the
//! reference implementation every tier must match bit-for-bit), and one
//! iteration runs the kernel `BATCH` times over the store (a single
//! pass takes 3–20 µs, under `bench_gate`'s CI timing floor, where rows
//! are skipped rather than gated). The per-row `tier`
//! field records the machine's hardware tier at measurement time;
//! `bench_gate` skips rows whose recorded tier differs from the current
//! machine, so an `avx2+fma` baseline never gates a NEON or
//! scalar-only runner.

use sinr_geometry::{hardware_tier, PositionStore, SimdTier};
use sinr_netgen::uniform;

use crate::microbench::{black_box, Session};
use crate::phy_suite::DENSITY;

/// Problem size the tracked speedups are measured at.
const N: usize = 10_000;

/// Kernel passes per timed iteration.
const BATCH: usize = 32;

/// Runs the suite into `session`. Under `--quick` the size drops to
/// 2 500 points and iteration counts shrink.
pub fn run(session: &mut Session) {
    let n = session.pick(N, 2_500);
    let side = uniform::side_for_density(n, DENSITY);
    let pts = uniform::square(n, side, 7);
    let store = PositionStore::from_points(&pts);
    let center = [side * 0.5, side * 0.5, 0.0];
    let auto = hardware_tier();
    let dispatches = [("auto", auto), ("scalar", SimdTier::Scalar)];

    // distance_sq_batch over the full store (2-axis points; the 1- and
    // 3-axis kernels share the structure and the equivalence tests pin
    // them element-wise).
    let mut d2 = vec![0.0f64; n];
    for (tag, tier) in dispatches {
        session.bench(
            &format!("simd/distance_sq_ax2_x{BATCH}/{tag}/{n}"),
            n,
            || {
                for _ in 0..BATCH {
                    store.distance_sq_batch_with(0..n, &center, &mut d2, tier);
                    black_box(&mut d2);
                }
            },
        );
    }

    // The sqrt-free radius-membership loop over the whole store (a ball
    // covering roughly a quarter of the deployment area).
    let radius = side * 0.25;
    let criterion = sinr_geometry::radius_criterion(radius);
    for (tag, tier) in dispatches {
        session.bench(
            &format!("simd/for_each_within_x{BATCH}/{tag}/{n}"),
            n,
            || {
                for _ in 0..BATCH {
                    let mut hits = 0usize;
                    store.for_each_within_sq_with(0..n, &center, criterion, tier, |_| hits += 1);
                    black_box(hits);
                }
            },
        );
    }
}
