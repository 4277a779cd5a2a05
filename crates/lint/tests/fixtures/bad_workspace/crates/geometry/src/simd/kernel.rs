//! Fixture: an intrinsic call under an *allowed* SIMD path but missing
//! the mandatory `// SAFETY:` comment (line 5).

pub fn lanes(xs: &[f64]) -> f64 {
    unsafe { core::hint::unreachable_unchecked() }
}
