//! Ad hoc broadcast under the SINR model without geolocation — the
//! algorithms of Jurdzinski, Kowalski, Rozanski & Stachowiak, *On the
//! Impact of Geometry on Ad Hoc Communication in Wireless Networks*
//! (PODC 2014), implemented as round-driven state machines over the
//! [`sinr_runtime`] engine.
//!
//! # What's here
//!
//! * [`coloring::ColoringMachine`] — `StabilizeProbability` (Section 3),
//!   the distributed coloring that assigns each station a transmission
//!   probability such that per-color unit-ball mass is bounded (Lemma 1)
//!   and every station has a constant-mass color nearby (Lemma 2);
//! * [`broadcast::NoSBroadcastNode`] — Theorem 1, `O(D log² n)` broadcast
//!   without spontaneous wake-up;
//! * [`broadcast::SBroadcastNode`] — Theorem 2, `O(D log n + log² n)`
//!   broadcast with spontaneous wake-up;
//! * [`wakeup`], [`consensus`], [`leader`], [`alert`] — the Section 5
//!   applications;
//! * [`baselines`] — Daum et al.-style decay broadcast, fixed-probability
//!   flooding, and adaptive local-broadcast flooding;
//! * [`estimate`] — online ν-estimation: density-adaptive variants of the
//!   broadcasts that recover when the population bound is wrong or churn
//!   makes it stale;
//! * [`verify`] — measurement of the Lemma 1/Lemma 2 invariants;
//! * [`sim`] — the [`sim::Scenario`] builder: declarative topologies,
//!   the protocol registry, unified [`sim::RunReport`]s and parallel
//!   seed sweeps.
//!
//! # Quickstart
//!
//! Build a [`sim::Scenario`] from a topology and a protocol, then run one
//! seed or sweep many in parallel — every run is a pure function of its
//! seed:
//!
//! ```
//! use sinr_core::sim::{ProtocolSpec, Scenario};
//! use sinr_geometry::Point2;
//!
//! let points: Vec<Point2> = (0..6).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect();
//! let sim = Scenario::new(points)
//!     .protocol(ProtocolSpec::SBroadcast { source: 0 })
//!     .budget(1_000_000)
//!     .build()?;
//!
//! let report = sim.run(42)?;
//! assert!(report.completed);
//!
//! let sweep = sim.sweep(&[1, 2, 3, 4])?; // parallel, deterministic per seed
//! assert_eq!(sweep.completed(), 4);
//! # Ok::<(), sinr_core::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod baselines;
pub mod broadcast;
pub mod coloring;
pub mod consensus;
pub mod constants;
pub mod estimate;
pub mod leader;
pub mod localcast;
pub mod sim;
pub mod stabilize;
pub mod verify;
pub mod wakeup;

pub use coloring::ColoringMachine;
pub use constants::{log2n, Constants};
pub use estimate::{NuEstimator, CONTENTION_TARGET};
pub use stabilize::{run_stabilize, run_stabilize_on, ColoringRun, StabilizeProtocol};
pub use verify::{
    invariant_report, lemma1_max_ball_mass, lemma2_min_close_mass, Coloring, InvariantReport,
};
