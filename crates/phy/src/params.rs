//! SINR model parameters.
//!
//! The model of the paper (Section 1.1) is governed by three physical
//! parameters — path loss α, threshold β, ambient noise N — plus the
//! connectivity-graph slack ε. Transmission power is uniform and normalised
//! so that the idealised communication range is `r = 1`, which forces
//! `P = N·β` (Equation 1 and the "Ranges and uniformity" paragraph).

use std::fmt;

/// Validated SINR model parameters.
///
/// Construct via [`SinrParams::builder`] or [`SinrParams::default_plane`].
/// Invariants enforced at construction:
///
/// * `alpha > gamma` (interference sums must converge; paper requires α > γ),
/// * `beta >= 1` (at most one station can be decoded per round),
/// * `noise > 0`,
/// * `0 < eps < 1`.
///
/// # Example
///
/// ```
/// use sinr_phy::SinrParams;
/// let p = SinrParams::builder().alpha(3.0).beta(1.5).noise(1.0).eps(0.4).build(2.0)?;
/// assert_eq!(p.power(), 1.5); // P = N·β
/// assert_eq!(p.comm_radius(), 0.6); // 1 − ε
/// # Ok::<(), sinr_phy::ParamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrParams {
    alpha: f64,
    beta: f64,
    noise: f64,
    eps: f64,
    gamma: f64,
}

/// Error returned when SINR parameters violate the model constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    what: String,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SINR parameters: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

impl ParamError {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        ParamError { what: what.into() }
    }
}

/// Builder for [`SinrParams`].
///
/// Defaults: α = 3, β = 1.2, N = 1, ε = 0.5 — a standard planar setting with
/// comfortable margins (α > 2 = γ).
#[derive(Debug, Clone, Copy)]
pub struct SinrParamsBuilder {
    alpha: f64,
    beta: f64,
    noise: f64,
    eps: f64,
}

impl Default for SinrParamsBuilder {
    fn default() -> Self {
        SinrParamsBuilder {
            alpha: 3.0,
            beta: 1.2,
            noise: 1.0,
            eps: 0.5,
        }
    }
}

impl SinrParamsBuilder {
    /// Sets the path-loss exponent α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the SINR decoding threshold β.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the ambient-noise power N.
    pub fn noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the connectivity slack ε (communication-graph edges span
    /// distances up to 1 − ε).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Validates the configuration against growth dimension `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when any model constraint is violated
    /// (α ≤ γ, β < 1, N ≤ 0, ε ∉ (0,1), or non-finite values).
    pub fn build(self, gamma: f64) -> Result<SinrParams, ParamError> {
        let SinrParamsBuilder {
            alpha,
            beta,
            noise,
            eps,
        } = self;
        for (name, v) in [
            ("alpha", alpha),
            ("beta", beta),
            ("noise", noise),
            ("eps", eps),
            ("gamma", gamma),
        ] {
            if !v.is_finite() {
                return Err(ParamError::new(format!("{name} must be finite, got {v}")));
            }
        }
        if gamma <= 0.0 {
            return Err(ParamError::new(format!(
                "gamma must be positive, got {gamma}"
            )));
        }
        if alpha <= gamma {
            return Err(ParamError::new(format!(
                "path loss alpha ({alpha}) must exceed growth dimension gamma ({gamma})"
            )));
        }
        if beta < 1.0 {
            return Err(ParamError::new(format!("beta must be >= 1, got {beta}")));
        }
        if noise <= 0.0 {
            return Err(ParamError::new(format!(
                "noise must be positive, got {noise}"
            )));
        }
        if !(eps > 0.0 && eps < 1.0) {
            return Err(ParamError::new(format!(
                "eps must lie in (0, 1), got {eps}"
            )));
        }
        Ok(SinrParams {
            alpha,
            beta,
            noise,
            eps,
            gamma,
        })
    }
}

impl SinrParams {
    /// Starts building a parameter set.
    pub fn builder() -> SinrParamsBuilder {
        SinrParamsBuilder::default()
    }

    /// Standard planar defaults (α = 3, β = 1.2, N = 1, ε = 0.5, γ = 2).
    pub fn default_plane() -> Self {
        SinrParamsBuilder::default()
            .build(2.0)
            .expect("default parameters are valid")
    }

    /// Defaults for line networks (γ = 1); α = 2 suffices since α > γ = 1.
    pub fn default_line() -> Self {
        SinrParamsBuilder::default()
            .alpha(2.5)
            .build(1.0)
            .expect("default line parameters are valid")
    }

    /// Path-loss exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// SINR decoding threshold β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Ambient noise N.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Connectivity slack ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Growth dimension γ of the deployment space.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Uniform transmission power `P = N·β`, the normalisation that makes
    /// the noise-limited communication range `r = (P/(Nβ))^{1/α}` equal 1.
    pub fn power(&self) -> f64 {
        self.noise * self.beta
    }

    /// The idealised communication range, always 1 under the normalisation.
    pub fn range(&self) -> f64 {
        1.0
    }

    /// Radius of communication-graph edges: `1 − ε`.
    pub fn comm_radius(&self) -> f64 {
        1.0 - self.eps
    }

    /// Received signal power at distance `d`: `P · d^{−α}`.
    ///
    /// Distances are clamped below at [`SinrParams::MIN_DISTANCE`] so that
    /// co-located points yield a large-but-finite signal instead of ∞.
    pub fn signal_at(&self, d: f64) -> f64 {
        let d = d.max(Self::MIN_DISTANCE);
        self.power() * d.powf(-self.alpha)
    }

    /// Received signal power from a **squared** distance: `P · d^{−α}` with
    /// `d = √d2`, clamped below exactly like [`SinrParams::signal_at`].
    ///
    /// This is the hot-path variant used by the grid-native reception
    /// kernel: for the common integer exponents (α = 2, 3, 4) it needs at
    /// most one square root and no `powf`, and it never materialises the
    /// distance itself (callers pass `distance_sq`). The value may differ
    /// from `signal_at(d2.sqrt())` in the last few ulps — the two paths are
    /// each internally deterministic, but are not bit-interchangeable.
    pub fn signal_at_sq(&self, d2: f64) -> f64 {
        const MIN2: f64 = SinrParams::MIN_DISTANCE * SinrParams::MIN_DISTANCE;
        let d2 = d2.max(MIN2);
        if self.alpha == 2.0 {
            self.power() / d2
        } else if self.alpha == 3.0 {
            self.power() / (d2 * d2.sqrt())
        } else if self.alpha == 4.0 {
            self.power() / (d2 * d2)
        } else {
            self.power() * d2.powf(-self.alpha * 0.5)
        }
    }

    /// Batched [`SinrParams::signal_at_sq`]: rewrites each squared
    /// distance in `d2` to the received signal power at that distance,
    /// in place.
    ///
    /// Each element goes through exactly the same arithmetic as the
    /// scalar call (bitwise identical results); the specialised integer
    /// exponents become branch-free loops over the slice that
    /// autovectorize (`sqrt`/`div` have SIMD forms, unlike `powf`). This
    /// is the second half of the SoA hot path: a
    /// [`sinr_geometry::PositionStore::distance_sq_batch`] fills the
    /// buffer, this converts it to signals, and the caller accumulates.
    pub fn signal_at_sq_batch(&self, d2: &mut [f64]) {
        const MIN2: f64 = SinrParams::MIN_DISTANCE * SinrParams::MIN_DISTANCE;
        let p = self.power();
        if self.alpha == 2.0 {
            for v in d2 {
                *v = p / (*v).max(MIN2);
            }
        } else if self.alpha == 3.0 {
            for v in d2 {
                let c = (*v).max(MIN2);
                *v = p / (c * c.sqrt());
            }
        } else if self.alpha == 4.0 {
            for v in d2 {
                let c = (*v).max(MIN2);
                *v = p / (c * c);
            }
        } else {
            let e = -self.alpha * 0.5;
            for v in d2 {
                *v = p * (*v).max(MIN2).powf(e);
            }
        }
    }

    /// Minimum distance used in signal computations; generators must keep
    /// stations at least this far apart.
    pub const MIN_DISTANCE: f64 = 1e-9;

    /// The SINR ratio of Equation (1): signal of strength `signal` against
    /// `interference` (sum of other signals) plus noise.
    pub fn sinr(&self, signal: f64, interference: f64) -> f64 {
        signal / (self.noise + interference)
    }

    /// Whether a signal of strength `signal` is decodable against
    /// `interference`: `SINR ≥ β`.
    pub fn decodable(&self, signal: f64, interference: f64) -> bool {
        self.sinr(signal, interference) >= self.beta
    }
}

impl fmt::Display for SinrParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SINR(α={}, β={}, N={}, ε={}, γ={})",
            self.alpha, self.beta, self.noise, self.eps, self.gamma
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_valid() {
        let p = SinrParams::default_plane();
        assert_eq!(p.alpha(), 3.0);
        assert_eq!(p.gamma(), 2.0);
        assert_eq!(p.power(), 1.2);
        assert_eq!(p.comm_radius(), 0.5);
    }

    #[test]
    fn rejects_alpha_not_exceeding_gamma() {
        let err = SinrParams::builder().alpha(2.0).build(2.0).unwrap_err();
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn rejects_beta_below_one() {
        assert!(SinrParams::builder().beta(0.99).build(2.0).is_err());
    }

    #[test]
    fn rejects_bad_eps() {
        assert!(SinrParams::builder().eps(0.0).build(2.0).is_err());
        assert!(SinrParams::builder().eps(1.0).build(2.0).is_err());
        assert!(SinrParams::builder().eps(-0.1).build(2.0).is_err());
    }

    #[test]
    fn rejects_nonpositive_noise_and_nan() {
        assert!(SinrParams::builder().noise(0.0).build(2.0).is_err());
        assert!(SinrParams::builder().alpha(f64::NAN).build(2.0).is_err());
    }

    #[test]
    fn range_normalisation() {
        // r = (P/(Nβ))^{1/α} = 1 exactly because P = Nβ.
        let p = SinrParams::default_plane();
        let r = (p.power() / (p.noise() * p.beta())).powf(1.0 / p.alpha());
        assert_eq!(r, 1.0);
        assert_eq!(p.range(), 1.0);
    }

    #[test]
    fn signal_decays_with_distance() {
        let p = SinrParams::default_plane();
        assert!(p.signal_at(0.5) > p.signal_at(1.0));
        assert!(p.signal_at(1.0) > p.signal_at(2.0));
        // At exactly range 1 with zero interference, SINR == β: boundary decodable.
        assert!(p.decodable(p.signal_at(1.0), 0.0));
        assert!(!p.decodable(p.signal_at(1.001), 0.0));
    }

    #[test]
    fn colocated_signal_is_finite() {
        let p = SinrParams::default_plane();
        assert!(p.signal_at(0.0).is_finite());
        assert!(p.signal_at_sq(0.0).is_finite());
    }

    #[test]
    fn squared_distance_signal_matches_signal_at() {
        // All specialised exponents plus the powf fallback.
        for alpha in [2.0, 2.5, 3.0, 4.0] {
            let p = SinrParams::builder().alpha(alpha).build(1.5).unwrap();
            for d in [0.01, 0.3, 1.0, 2.7, 40.0] {
                let a = p.signal_at(d);
                let b = p.signal_at_sq(d * d);
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs(),
                    "alpha {alpha}, d {d}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batched_signal_matches_scalar_bitwise() {
        for alpha in [2.0, 2.5, 3.0, 4.0] {
            let p = SinrParams::builder().alpha(alpha).build(1.5).unwrap();
            let d2s: Vec<f64> = vec![0.0, 1e-20, 0.01, 0.25, 1.0, 7.29, 1600.0];
            let mut batch = d2s.clone();
            p.signal_at_sq_batch(&mut batch);
            for (d2, got) in d2s.iter().zip(&batch) {
                assert_eq!(
                    got.to_bits(),
                    p.signal_at_sq(*d2).to_bits(),
                    "alpha {alpha}, d2 {d2}"
                );
            }
        }
    }

    #[test]
    fn display_contains_all_parameters() {
        let s = SinrParams::default_plane().to_string();
        for needle in ["α=3", "β=1.2", "N=1", "ε=0.5", "γ=2"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
