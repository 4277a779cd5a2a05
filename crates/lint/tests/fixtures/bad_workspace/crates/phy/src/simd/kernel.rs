//! Fixture: an intrinsic call under a `simd/` directory that is not on
//! the allowlist (line 5): only the geometry crate owns `unsafe` kernels.

pub fn lanes(xs: &[f64]) -> f64 {
    unsafe { core::hint::unreachable_unchecked() }
}
