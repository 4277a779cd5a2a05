//! The unified run report and sweep aggregation.

use std::collections::BTreeMap;

use sinr_runtime::RoundStats;
use sinr_stats::Summary;

use crate::verify::Coloring;

/// Protocol-specific result fields, alongside [`RunReport`]'s common ones.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Broadcast-style run (both paper algorithms and all baselines); the
    /// common fields say everything.
    Broadcast,
    /// Standalone `StabilizeProbability` execution.
    Coloring {
        /// The produced coloring. Stations whose schedule was truncated
        /// by a budget below the full Fact 7 run report color `0.0`
        /// (uncolored); the run's `completed` flag is `false` then.
        coloring: Coloring,
    },
    /// Ad hoc wake-up.
    Wakeup {
        /// Round of the first spontaneous wake-up.
        first_wake: u64,
        /// Rounds from the first spontaneous wake-up until all awake (the
        /// paper's accounting), or the budget if incomplete.
        rounds_from_first_wake: u64,
    },
    /// Consensus.
    Consensus {
        /// Per-station decisions.
        decided: Vec<Option<u64>>,
        /// Whether all stations decided the same value.
        agreement: bool,
        /// Whether the common decision equals the minimum input.
        valid: bool,
    },
    /// Leader election.
    Leader {
        /// Stations that declared themselves leader.
        leaders: Vec<usize>,
        /// Whether exactly one leader emerged.
        unique: bool,
    },
    /// Alert protocol.
    Alert {
        /// Round each station learned of the alert, if it did.
        learned_at: Vec<Option<u64>>,
    },
}

/// Coverage of the dissemination goal at one adversary epoch boundary:
/// one sample per boundary, forming the degradation curve of a faulted
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoveragePoint {
    /// The boundary round the sample was taken after.
    pub round: u64,
    /// Live stations that had reached the per-station goal.
    pub informed: usize,
    /// Live stations at that moment.
    pub live: usize,
}

/// Fault and recovery accounting of an adversarial run
/// ([`crate::sim::Scenario::adversary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Stations killed by the adversary (excluding any the churn
    /// schedule killed first at the same boundary).
    pub kills: u64,
    /// Stations the adversary brought back (blackout returns).
    pub returns: u64,
    /// Jammed station-rounds: one per round each jammer spent
    /// transmitting noise.
    pub jam_rounds: u64,
    /// Rounds from the last injected fault until the goal was reached —
    /// the re-convergence time. `None` when the run did not complete or
    /// no fault ever fired.
    pub recovery_rounds: Option<u64>,
    /// Goal coverage over time, one sample per adversary epoch
    /// boundary.
    pub coverage: Vec<CoveragePoint>,
}

impl FaultReport {
    /// Final live-population coverage fraction (1.0 for an empty
    /// curve — nothing was ever at risk).
    pub fn final_coverage(&self) -> f64 {
        match self.coverage.last() {
            Some(pt) if pt.live > 0 => pt.informed as f64 / pt.live as f64,
            _ => 1.0,
        }
    }
}

/// Unified result of one simulation run, for every protocol: common
/// counters plus a per-protocol [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The seed this run was the deterministic function of.
    pub seed: u64,
    /// Stations in the network.
    pub n: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Whether the protocol's goal was reached within the budget (all
    /// informed / all awake / agreement / unique leader / schedule done).
    pub completed: bool,
    /// Stations that reached the protocol's per-station goal (informed,
    /// awake, decided, alarmed; `n` for fixed-schedule colorings).
    pub informed: usize,
    /// Total transmissions across the run (energy proxy).
    pub total_transmissions: u64,
    /// Protocol-specific fields.
    pub outcome: Outcome,
    /// Per-round statistics, when requested via
    /// [`crate::sim::Scenario::record_rounds`].
    pub per_round: Option<Vec<RoundStats>>,
    /// Per-node transmission counts (energy proxy), when requested via
    /// [`crate::sim::Scenario::record_rounds`]. `None` for the non-engine
    /// GPS-oracle baseline.
    pub tx_counts: Option<Vec<u64>>,
    /// Named scalar measurements filled by [`crate::sim::Observer`]s.
    pub measurements: BTreeMap<String, f64>,
    /// Fault and recovery accounting, when the scenario armed an
    /// adversary via [`crate::sim::Scenario::adversary`].
    pub faults: Option<FaultReport>,
}

/// Results of a parallel seed sweep, in the seed order given (independent
/// of how many worker threads executed it).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One report per seed, in input order.
    pub runs: Vec<RunReport>,
}

impl SweepReport {
    /// Seeds of the sweep, in order.
    pub fn seeds(&self) -> Vec<u64> {
        self.runs.iter().map(|r| r.seed).collect()
    }

    /// Number of completed runs.
    pub fn completed(&self) -> usize {
        self.runs.iter().filter(|r| r.completed).count()
    }

    /// Fraction of completed runs (0 for an empty sweep).
    pub fn completion_rate(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.completed() as f64 / self.runs.len() as f64
        }
    }

    /// Round counts of the completed runs, as floats for summarising.
    pub fn rounds_of_completed(&self) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.rounds as f64)
            .collect()
    }

    /// Summary of completed-run round counts (`None` if none completed).
    pub fn rounds_summary(&self) -> Option<Summary> {
        Summary::of(&self.rounds_of_completed())
    }

    /// `"<completed>/<trials>"`, the experiment tables' success column.
    pub fn ok_string(&self) -> String {
        format!("{}/{}", self.completed(), self.runs.len())
    }
}
