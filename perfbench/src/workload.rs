//! The three workloads: what each one runs and which trial seeds a
//! workload seed selects.

use sinr_core::sim::{
    AdversarySpec, ChurnSpec, MobilitySpec, ProtocolSpec, ScenarioSpec, TopologySpec,
};
use sinr_phy::InterferenceMode;

/// The workload seed used when `--seed` is absent, and the first of the
/// pinned trial seeds.
pub const DEFAULT_SEED: u64 = 1;

/// Distinct trial seeds an in-process run cycles through.
const INPROC_POOL: usize = 32;

/// Trials per served job.
pub const SEEDS_PER_JOB: usize = 2;

/// Distinct jobs a serve run cycles through.
pub const SERVE_JOBS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SbcastStatic,
    RefloodDynamic,
    ServeClosedLoop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SbcastStatic,
        Workload::RefloodDynamic,
        Workload::ServeClosedLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SbcastStatic => "sbcast_static",
            Workload::RefloodDynamic => "reflood_dynamic",
            Workload::ServeClosedLoop => "serve_closed_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario every trial of this workload runs. Every scenario
    /// uses the grid-native fast physics on one physics thread.
    ///
    /// S-broadcast and re-flood trials are capped by a round budget below
    /// the shortest completion seen over 24 seeds (1 268–3 843 and
    /// 1 489–6 388 rounds), so every trial does about the same work
    /// whatever the seed.
    pub fn spec(self) -> ScenarioSpec {
        match self {
            Workload::SbcastStatic => {
                static_spec(10_000, ProtocolSpec::SBroadcast { source: 0 }, 1_000)
            }
            Workload::RefloodDynamic => {
                let mut spec = static_spec(
                    10_000,
                    ProtocolSpec::ReFloodBroadcastEstimate {
                        source: 0,
                        nu0: 10_000,
                        burst_rounds: 64,
                    },
                    1_000,
                );
                spec.mobility = Some(MobilitySpec::teleport_churn(0.005, 4));
                // 12.5 arrivals per epoch against a mean lifetime of 800
                // epochs keeps the live population near n.
                spec.churn = Some(ChurnSpec::poisson(12.5, 800.0, 4));
                spec.adversary = Some(AdversarySpec::cut_vertex_kill(0.05, 2, 32));
                spec
            }
            Workload::ServeClosedLoop => {
                let mut spec = static_spec(200, ProtocolSpec::SBroadcast { source: 0 }, 100_000);
                spec.record = true;
                spec
            }
        }
    }

    /// The trial seeds every run draws from, each pinned in `pins.txt`:
    /// the default seed first, then seeds spread over the whole `u64`
    /// range.
    pub fn pinned_seeds(self) -> Vec<u64> {
        let count = match self {
            Workload::ServeClosedLoop => SERVE_JOBS * SEEDS_PER_JOB,
            _ => INPROC_POOL,
        };
        (0..count as u64)
            .map(|i| DEFAULT_SEED.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    /// The trial seeds a run with workload seed `seed` cycles through: the
    /// pinned seeds, rotated to start at an offset the workload seed
    /// chooses (a whole job for serve). Every trial of every run is thus
    /// checked against its pin.
    pub fn trial_seeds(self, seed: u64) -> Vec<u64> {
        let mut seeds = self.pinned_seeds();
        let unit = match self {
            Workload::ServeClosedLoop => SEEDS_PER_JOB,
            _ => 1,
        };
        let units = (seeds.len() / unit) as u64;
        seeds.rotate_left((seed % units) as usize * unit);
        seeds
    }

    /// Whether the workload arms dynamic hooks (epoch boundaries).
    pub fn is_dynamic(self) -> bool {
        !self.epochs().is_empty()
    }

    /// Rounds between epoch boundaries of each dynamic hook (empty for
    /// static workloads).
    pub fn epochs(self) -> Vec<u64> {
        let spec = self.spec();
        let mut epochs = Vec::new();
        epochs.extend(spec.mobility.map(|m| m.epoch_rounds));
        epochs.extend(spec.churn.map(|c| c.epoch_rounds));
        epochs.extend(spec.adversary.map(|a| a.epoch_rounds));
        epochs
    }
}

/// Whether the engine applies an epoch boundary before round `round`.
pub fn is_boundary(epochs: &[u64], round: u64) -> bool {
    round > 0 && epochs.iter().any(|&e| round.is_multiple_of(e))
}

fn static_spec(n: usize, protocol: ProtocolSpec, budget: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::ConnectedSquareDensity { n, density: 40.0 },
        protocol,
    );
    // What `Scenario::fast_physics` selects.
    spec.mode = InterferenceMode::grid_native();
    spec.budget = Some(budget);
    spec
}
