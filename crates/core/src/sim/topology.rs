//! Declarative topology specifications bridging the [`sinr_netgen`]
//! generators.
//!
//! A [`TopologySpec`] is plain data: it names a network family and its
//! parameters, and materializes into concrete station positions only when a
//! [`crate::sim::Simulation`] runs a seed. This keeps scenarios fully
//! declarative (a spec plus a seed reproduces the deployment bit-for-bit)
//! and lets seed sweeps regenerate an independent deployment per trial.
//!
//! Explicit point sets (any [`MetricPoint`] type) are topologies too, via
//! the [`Topology`] impl on `Vec<P>` — that is what the golden tests and
//! the non-planar model-variant tests use.

use sinr_geometry::{MetricPoint, Point2};
use sinr_netgen::{cluster, grid, line, shapes, uniform};
use sinr_phy::SinrParams;

use super::SimError;

/// A source of station positions for a scenario.
///
/// `build` must be deterministic in `(params, seed)`; sweeps rely on this
/// to replay any per-seed deployment.
pub trait Topology<P: MetricPoint>: Send + Sync {
    /// Produces the station positions for one run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Topology`] when the family cannot realise its
    /// parameters (e.g. a connected uniform deployment at too low density).
    fn build(&self, params: &SinrParams, seed: u64) -> Result<Vec<P>, SimError>;
}

/// Explicit station positions: every run uses exactly these points.
impl<P: MetricPoint> Topology<P> for Vec<P> {
    fn build(&self, _params: &SinrParams, _seed: u64) -> Result<Vec<P>, SimError> {
        Ok(self.clone())
    }
}

/// A declarative, serializable description of a generated network family
/// (all [`sinr_netgen`] generators produce planar points).
///
/// Seeded families draw fresh positions per run seed; deterministic
/// families (lattices, lines) ignore the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `n` stations uniform in a `side × side` square ([`uniform::square`]).
    UniformSquare {
        /// Station count.
        n: usize,
        /// Square side length.
        side: f64,
    },
    /// As [`TopologySpec::UniformSquare`], retried until the communication
    /// graph is connected ([`uniform::connected_square`]).
    ConnectedSquare {
        /// Station count.
        n: usize,
        /// Square side length.
        side: f64,
    },
    /// Connected uniform square sized for `density` stations per unit area
    /// ([`uniform::side_for_density`]).
    ConnectedSquareDensity {
        /// Station count.
        n: usize,
        /// Target stations per unit area.
        density: f64,
    },
    /// `n` stations uniform in a disk ([`uniform::disk`]).
    UniformDisk {
        /// Station count.
        n: usize,
        /// Disk radius.
        radius: f64,
    },
    /// Regular lattice ([`grid::lattice`]); ignores the seed.
    Lattice {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Point spacing.
        spacing: f64,
    },
    /// Jittered lattice ([`grid::jittered_lattice`]).
    JitteredLattice {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Point spacing.
        spacing: f64,
        /// Max per-coordinate jitter.
        amplitude: f64,
    },
    /// Evenly spaced line ([`line::uniform_line`]); ignores the seed.
    UniformLine {
        /// Station count.
        n: usize,
        /// Gap between consecutive stations.
        gap: f64,
    },
    /// The footnote-2 adversarial line with geometrically shrinking gaps
    /// and exponential granularity ([`line::halving_line`]); ignores the
    /// seed.
    HalvingLine {
        /// Station count.
        n: usize,
        /// First gap.
        first_gap: f64,
        /// Gap shrink ratio.
        ratio: f64,
        /// Smallest allowed gap.
        min_gap: f64,
    },
    /// Line interpolated to a target granularity `R_s`
    /// ([`line::granularity_line`]); ignores the seed.
    GranularityLine {
        /// Station count.
        n: usize,
        /// Largest gap.
        max_gap: f64,
        /// Target granularity.
        rs_target: f64,
        /// Smallest allowed gap.
        min_gap: f64,
    },
    /// Granularity-controlled line at a fixed hop diameter
    /// ([`line::granularity_line_fixed_d`]); ignores the seed.
    GranularityLineFixedD {
        /// Station count.
        n: usize,
        /// Largest gap.
        max_gap: f64,
        /// Target granularity.
        rs_target: f64,
        /// Hop-diameter to realise.
        d_hops: usize,
        /// Smallest allowed gap.
        min_gap: f64,
    },
    /// Chain of clusters realising an exact communication-graph diameter
    /// ([`cluster::chain_for_diameter`]).
    ClusterChain {
        /// Target diameter.
        diameter: u32,
        /// Stations per cluster.
        per_cluster: usize,
    },
    /// Gaussian clusters scattered in a square
    /// ([`cluster::gaussian_clusters`]).
    GaussianClusters {
        /// Cluster count.
        k: usize,
        /// Stations per cluster.
        per_cluster: usize,
        /// Square side.
        side: f64,
        /// Cluster spread.
        sigma: f64,
    },
    /// The footnote-4 adversary: dense core plus isolated satellites
    /// ([`cluster::core_and_satellites`]).
    CoreAndSatellites {
        /// Core station count.
        core_n: usize,
        /// Satellite count.
        sat_n: usize,
        /// Core disk radius.
        core_radius: f64,
        /// Satellite circle radius.
        sat_distance: f64,
    },
    /// Ring deployment ([`shapes::ring`]).
    Ring {
        /// Station count.
        n: usize,
        /// Ring radius.
        radius: f64,
    },
    /// Two dense blobs joined by a thin corridor ([`shapes::bridge`]).
    Bridge {
        /// Stations per blob.
        blob_n: usize,
        /// Stations in the corridor.
        corridor_n: usize,
        /// Blob side length.
        blob_side: f64,
    },
    /// Two-tier density contrast ([`shapes::two_tier`]).
    TwoTier {
        /// Dense-half station count.
        dense_n: usize,
        /// Density contrast ratio.
        ratio: usize,
        /// Region side length.
        side: f64,
    },
}

impl Topology<Point2> for TopologySpec {
    fn build(&self, params: &SinrParams, seed: u64) -> Result<Vec<Point2>, SimError> {
        let pts = match *self {
            TopologySpec::UniformSquare { n, side } => uniform::square(n, side, seed),
            TopologySpec::ConnectedSquare { n, side } => {
                uniform::connected_square(n, side, params, seed).ok_or_else(|| {
                    SimError::Topology(format!(
                        "no connected uniform deployment for n = {n}, side = {side}, seed = {seed}"
                    ))
                })?
            }
            TopologySpec::ConnectedSquareDensity { n, density } => {
                let side = uniform::side_for_density(n, density);
                uniform::connected_square(n, side, params, seed).ok_or_else(|| {
                    SimError::Topology(format!(
                        "no connected uniform deployment for n = {n}, density = {density}, seed = {seed}"
                    ))
                })?
            }
            TopologySpec::UniformDisk { n, radius } => uniform::disk(n, radius, seed),
            TopologySpec::Lattice {
                rows,
                cols,
                spacing,
            } => grid::lattice(rows, cols, spacing),
            TopologySpec::JitteredLattice {
                rows,
                cols,
                spacing,
                amplitude,
            } => grid::jittered_lattice(rows, cols, spacing, amplitude, seed),
            TopologySpec::UniformLine { n, gap } => line::uniform_line(n, gap),
            TopologySpec::HalvingLine {
                n,
                first_gap,
                ratio,
                min_gap,
            } => line::halving_line(n, first_gap, ratio, min_gap),
            TopologySpec::GranularityLine {
                n,
                max_gap,
                rs_target,
                min_gap,
            } => line::granularity_line(n, max_gap, rs_target, min_gap),
            TopologySpec::GranularityLineFixedD {
                n,
                max_gap,
                rs_target,
                d_hops,
                min_gap,
            } => line::granularity_line_fixed_d(n, max_gap, rs_target, d_hops, min_gap),
            TopologySpec::ClusterChain {
                diameter,
                per_cluster,
            } => cluster::chain_for_diameter(diameter, per_cluster, params, seed),
            TopologySpec::GaussianClusters {
                k,
                per_cluster,
                side,
                sigma,
            } => cluster::gaussian_clusters(k, per_cluster, side, sigma, seed),
            TopologySpec::CoreAndSatellites {
                core_n,
                sat_n,
                core_radius,
                sat_distance,
            } => cluster::core_and_satellites(core_n, sat_n, core_radius, sat_distance, seed),
            TopologySpec::Ring { n, radius } => shapes::ring(n, radius, seed),
            TopologySpec::Bridge {
                blob_n,
                corridor_n,
                blob_side,
            } => shapes::bridge(blob_n, corridor_n, blob_side, params, seed),
            TopologySpec::TwoTier {
                dense_n,
                ratio,
                side,
            } => shapes::two_tier(dense_n, ratio, side, seed),
        };
        Ok(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_points_ignore_seed() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let params = SinrParams::default_plane();
        assert_eq!(
            pts.build(&params, 1).unwrap(),
            pts.build(&params, 2).unwrap()
        );
    }

    #[test]
    fn seeded_specs_are_deterministic_per_seed() {
        let spec = TopologySpec::UniformSquare { n: 16, side: 2.0 };
        let params = SinrParams::default_plane();
        assert_eq!(
            spec.build(&params, 7).unwrap(),
            spec.build(&params, 7).unwrap()
        );
        assert_ne!(
            spec.build(&params, 7).unwrap(),
            spec.build(&params, 8).unwrap()
        );
    }

    #[test]
    fn cluster_chain_realises_size() {
        let spec = TopologySpec::ClusterChain {
            diameter: 3,
            per_cluster: 5,
        };
        let params = SinrParams::default_plane();
        assert_eq!(spec.build(&params, 3).unwrap().len(), 20);
    }

    #[test]
    fn connected_square_impossible_density_errors() {
        // 4 stations spread over a 1000-side square can essentially never
        // be connected; the generator gives up and the spec reports it.
        let spec = TopologySpec::ConnectedSquare { n: 4, side: 1000.0 };
        let params = SinrParams::default_plane();
        assert!(matches!(spec.build(&params, 1), Err(SimError::Topology(_))));
    }
}
