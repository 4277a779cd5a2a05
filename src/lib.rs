//! # sinr-broadcast
//!
//! A faithful, from-scratch reproduction of **Jurdzinski, Kowalski,
//! Rozanski & Stachowiak, *On the Impact of Geometry on Ad Hoc
//! Communication in Wireless Networks* (PODC 2014)**: randomized broadcast
//! in the SINR physical model with *no* geolocation, carrier sensing or
//! power control, whose running time depends only on communication-graph
//! parameters (`D`, `n`) and not on the geometric granularity of the
//! deployment.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`geometry`] | points, bounded-growth metrics, spatial index |
//! | [`phy`] | SINR parameters, exact reception oracle, communication graphs |
//! | [`runtime`] | synchronous round engine, protocol trait, wake schedules |
//! | [`netgen`] | topology generators (uniform, clusters, geometric lines) and mobility models (random waypoint, drift, teleport churn) |
//! | [`stats`] | summaries, scaling-law fits, tables |
//! | [`core`] | `StabilizeProbability` coloring, `NoSBroadcast`, `SBroadcast`, wake-up, consensus, leader election, baselines |
//! | [`sim`] | the `Scenario` builder: declarative topologies (static or mobile), protocol registry, parallel seed sweeps |
//!
//! # Quickstart
//!
//! Scenarios are fully declarative — a topology spec, a protocol from the
//! registry, a round budget — and every run is a pure function of its
//! seed, so sweeps parallelize and replay bit-for-bit:
//!
//! ```
//! use sinr_broadcast::sim::{ProtocolSpec, Scenario, TopologySpec};
//!
//! let sim = Scenario::new(TopologySpec::ConnectedSquareDensity { n: 100, density: 30.0 })
//!     .protocol(ProtocolSpec::SBroadcast { source: 0 })
//!     .budget(2_000_000)
//!     .build()?;
//!
//! let report = sim.run(42)?;
//! assert!(report.completed);
//! println!("broadcast reached {} stations in {} rounds", report.informed, report.rounds);
//!
//! let sweep = sim.sweep(&[1, 2, 3, 4])?; // parallel across cores, deterministic
//! println!("completion rate: {}", sweep.completion_rate());
//! # Ok::<(), sinr_broadcast::sim::SimError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sinr_core as core;
pub use sinr_core::sim;
pub use sinr_geometry as geometry;
pub use sinr_netgen as netgen;
pub use sinr_phy as phy;
pub use sinr_runtime as runtime;
pub use sinr_stats as stats;

/// Workspace version, for diagnostics.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
