//! The protocol registry: one declarative variant per runnable protocol.

use sinr_runtime::WakeSchedule;

use crate::verify::Coloring;

/// Which protocol a [`crate::sim::Scenario`] runs, with its per-protocol
/// inputs. Each variant corresponds to one result of the paper (see the
/// [`crate::sim`] module docs for the theorem map).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// `NoSBroadcast` (Theorem 1): `O(D log² n)` broadcast without
    /// spontaneous wake-up.
    NoSBroadcast {
        /// Initially informed station.
        source: usize,
    },
    /// `NoSBroadcast` run with a population **estimate** `nu ≥ n`
    /// (Section 1.1; running time `O(D log² ν)`).
    NoSBroadcastWithEstimate {
        /// Initially informed station.
        source: usize,
        /// Shared population estimate (must be ≥ n).
        nu: usize,
    },
    /// `SBroadcast` (Theorem 2): `O(D log n + log² n)` broadcast with
    /// spontaneous wake-up.
    SBroadcast {
        /// Initially informed station.
        source: usize,
    },
    /// `SBroadcast` with a population estimate `nu ≥ n`
    /// (running time `O(D log ν + log² ν)`).
    SBroadcastWithEstimate {
        /// Initially informed station.
        source: usize,
        /// Shared population estimate (must be ≥ n).
        nu: usize,
    },
    /// One standalone `StabilizeProbability` execution (Section 3, Fact 7);
    /// the report's outcome carries the produced coloring.
    Coloring,
    /// Daum et al.-style decay baseline, which must know the granularity.
    DaumBroadcast {
        /// Initially informed station.
        source: usize,
        /// Known granularity `R_s`; `None` uses the network's measured
        /// value (the baseline's assumption made explicit).
        granularity: Option<f64>,
    },
    /// Fixed-probability flooding baseline.
    FloodBroadcast {
        /// Initially informed station.
        source: usize,
        /// Per-round transmission probability of informed stations.
        p: f64,
    },
    /// Adaptive local-broadcast-style flooding baseline.
    LocalBroadcast {
        /// Initially informed station.
        source: usize,
    },
    /// Burst-based **re-flooding** broadcast — the mobility/churn-aware
    /// flooding variant: informed stations flood for `burst_rounds`
    /// rounds then go dormant, and re-seed a fresh burst whenever the
    /// epoch-refreshed communication graph reports newly joined stations
    /// or a reconnected component (see
    /// [`crate::baselines::ReFloodNode`]). Pair with
    /// [`crate::sim::Scenario::mobility`] / [`crate::sim::Scenario::churn`];
    /// on a frozen topology it floods one burst and stops.
    ReFloodBroadcast {
        /// Initially informed station.
        source: usize,
        /// Per-round transmission probability during an active burst.
        p: f64,
        /// Rounds of flooding granted per (re)seed (must be ≥ 1).
        burst_rounds: u64,
    },
    /// Burst-based re-flooding with an **online ν-estimate**
    /// ([`crate::estimate::EstimatingReFloodNode`]): the transmission
    /// probability is `min(CONTENTION_TARGET/ν̂, 0.75)` for a
    /// per-station estimate ν̂ that grows on in-burst silence runs and
    /// backs off its window under churn — the graceful-degradation
    /// counterpart of [`ProtocolSpec::ReFloodBroadcast`], which keeps
    /// its fixed `p` no matter what the adversary does.
    ReFloodBroadcastEstimate {
        /// Initially informed station.
        source: usize,
        /// Initial population estimate (must be ≥ 1; may be far below
        /// the true population — adapting out of it is the point).
        nu0: usize,
        /// Rounds of flooding granted per (re)seed (must be ≥ 1).
        burst_rounds: u64,
    },
    /// `NoSBroadcast` with an **online** ν-estimate
    /// ([`crate::estimate::EstimatingNoSNode`]): each station re-tunes
    /// its phase schedule at phase boundaries as its estimate grows,
    /// instead of trusting a fixed `nu ≥ n` for the whole run.
    NoSBroadcastOnlineEstimate {
        /// Initially informed station.
        source: usize,
        /// Initial population estimate (must be ≥ 1).
        nu0: usize,
    },
    /// `SBroadcast` with an **online** ν-estimate
    /// ([`crate::estimate::EstimatingSNode`]): the dissemination
    /// probability re-tunes to the growing estimate every round.
    SBroadcastOnlineEstimate {
        /// Initially informed station.
        source: usize,
        /// Initial population estimate (must be ≥ 1).
        nu0: usize,
    },
    /// GPS-oracle grid TDMA (the experiment E12 gold standard: full
    /// coordinates plus an in-cell contention oracle).
    GpsOracleBroadcast {
        /// Initially informed station.
        source: usize,
    },
    /// Ad hoc wake-up under an adversarial schedule (Section 5,
    /// `O(D log² n)` from the first spontaneous wake-up).
    AdhocWakeup {
        /// The adversary's wake-up schedule (must wake someone).
        schedule: WakeSchedule,
    },
    /// Wake-up over an **established coloring** (Fact 11 flood,
    /// `O(D log n + log² n)`).
    EstablishedWakeup {
        /// Backbone colors, one per station.
        coloring: Coloring,
        /// Spontaneously woken stations, one flag per station.
        initiators: Vec<bool>,
    },
    /// Bitwise consensus on per-station input values (Section 5).
    Consensus {
        /// One input value per station (domain `[0, 2^bits)`).
        values: Vec<u64>,
        /// Bits per value.
        bits: u32,
        /// Diameter bound for the per-bit window.
        d_bound: u32,
    },
    /// Leader election: random IDs from `{1..n³}`, then consensus on IDs
    /// (Section 5).
    LeaderElection {
        /// Diameter bound for the per-bit window.
        d_bound: u32,
    },
    /// The alert protocol over an established coloring (Section 1.3):
    /// every station must learn whether any alert occurred.
    Alert {
        /// Backbone colors, one per station.
        coloring: Coloring,
        /// `(station, round)` adversarial alerts.
        alerts: Vec<(usize, u64)>,
        /// Diameter bound for the window length.
        d_bound: u32,
    },
}

impl ProtocolSpec {
    /// Short stable name (table labels, traces): the protocol's wire tag,
    /// declared once in [`crate::sim::wire`].
    pub fn name(&self) -> &'static str {
        super::wire::protocol_tag(self)
    }

    /// Whether the protocol runs a fixed, self-terminating schedule (its
    /// round count is a function of `n` alone), making an explicit round
    /// budget optional.
    pub fn has_fixed_schedule(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::Coloring
                | ProtocolSpec::Consensus { .. }
                | ProtocolSpec::LeaderElection { .. }
        )
    }

    /// Whether the protocol supports a **dynamic population**
    /// ([`crate::sim::Scenario::churn`]): per-station goals that spawned
    /// stations can meaningfully adopt mid-run. The broadcast family
    /// qualifies; fixed global schedules (coloring, consensus, leader
    /// election), the coloring-backbone applications (established wake-up,
    /// alert), the adversarial wake-up schedule and the precomputed
    /// GPS-oracle TDMA do not — `Scenario::build` rejects churn for them.
    pub fn supports_churn(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::NoSBroadcast { .. }
                | ProtocolSpec::NoSBroadcastWithEstimate { .. }
                | ProtocolSpec::SBroadcast { .. }
                | ProtocolSpec::SBroadcastWithEstimate { .. }
                | ProtocolSpec::DaumBroadcast { .. }
                | ProtocolSpec::FloodBroadcast { .. }
                | ProtocolSpec::LocalBroadcast { .. }
                | ProtocolSpec::ReFloodBroadcast { .. }
                | ProtocolSpec::ReFloodBroadcastEstimate { .. }
                | ProtocolSpec::NoSBroadcastOnlineEstimate { .. }
                | ProtocolSpec::SBroadcastOnlineEstimate { .. }
        )
    }

    /// The initially informed station of broadcast-style protocols —
    /// protected from churn (killing the source makes the dissemination
    /// goal undefined).
    pub fn broadcast_source(&self) -> Option<usize> {
        match self {
            ProtocolSpec::NoSBroadcast { source }
            | ProtocolSpec::NoSBroadcastWithEstimate { source, .. }
            | ProtocolSpec::SBroadcast { source }
            | ProtocolSpec::SBroadcastWithEstimate { source, .. }
            | ProtocolSpec::DaumBroadcast { source, .. }
            | ProtocolSpec::FloodBroadcast { source, .. }
            | ProtocolSpec::LocalBroadcast { source }
            | ProtocolSpec::ReFloodBroadcast { source, .. }
            | ProtocolSpec::ReFloodBroadcastEstimate { source, .. }
            | ProtocolSpec::NoSBroadcastOnlineEstimate { source, .. }
            | ProtocolSpec::SBroadcastOnlineEstimate { source, .. }
            | ProtocolSpec::GpsOracleBroadcast { source } => Some(*source),
            _ => None,
        }
    }
}
