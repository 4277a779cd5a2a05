//! The engine-driven replica of a `Scenario` trial, used by the traced run
//! to split each `Engine::step` into its stages.
//!
//! The replica builds an `Engine` over the public core node types and
//! arms the dynamic hooks exactly as `Scenario` arms them; the traced run
//! asserts that it reproduces the `Scenario` report's rounds,
//! transmissions, informed count and kills before it uses any of its
//! times. A plain replica times whole steps. A stamped replica wraps
//! every node in [`Stamped`], a forwarding `Protocol` that stamps the
//! first and last `poll_transmit` and `on_round_end` of each round. The
//! engine visits live stations in ascending id order, so these four
//! stamps split a step into pre-poll (epoch boundary plus round set-up),
//! poll, resolve (the reception oracle) and deliver. The wrapper's own
//! per-call cost lands in its steps, which is why step totals come from
//! the plain replica. The wrapper also counts the topology changes the
//! engine delivers at epoch boundaries, the work the dynamic workload's
//! no-op guard looks for.

use std::cell::Cell;

use sinr_core::broadcast::SBroadcastNode;
use sinr_core::estimate::EstimatingReFloodNode;
use sinr_core::sim::{ProtocolSpec, ScenarioSpec, Simulation};
use sinr_netgen::churn::ChurnProcess;
use sinr_netgen::mobility::Mobility;
use sinr_phy::Network;
use sinr_runtime::{derive_seed, Engine, FaultPlanSet, NodeCtx, Protocol, TopologyChange};

use crate::clock;

// The seed streams `Scenario` derives its dynamic hooks from.
const MOBILITY_STREAM: u64 = 0x4D4F_4249;
const CHURN_STREAM: u64 = 0x4348_5552;
const ADVERSARY_STREAM: u64 = 0x4144_5652;

const POLL_START: usize = 0;
const POLL_END: usize = 1;
const DELIVER_START: usize = 2;
const DELIVER_END: usize = 3;

thread_local! {
    /// Highest live station id before the current step: polls and
    /// deliveries at or above it stamp the stage ends.
    static LAST_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    static STAMPS: Cell<[Option<u64>; 4]> = const { Cell::new([None; 4]) };
    static TOPOLOGY: Cell<Topology> = const { Cell::new(Topology::NONE) };
}

/// Topology changes the engine delivered to a stamped replica.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Topology {
    /// Epoch boundaries that moved or churned the population.
    pub changes: u64,
    /// Stations that joined or rejoined at those boundaries.
    pub joined: u64,
    last_round: Option<u64>,
}

impl Topology {
    const NONE: Topology = Topology {
        changes: 0,
        joined: 0,
        last_round: None,
    };
}

fn stamp(slot: usize) {
    STAMPS.with(|s| {
        let mut v = s.get();
        v[slot] = Some(clock::now());
        s.set(v);
    });
}

/// A forwarding protocol that stamps stage boundaries.
pub struct Stamped<Pr>(pub Pr);

impl<Pr: Protocol> Protocol for Stamped<Pr> {
    type Msg = Pr::Msg;

    fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<Self::Msg> {
        let id = ctx.id;
        if id == 0 {
            stamp(POLL_START);
        }
        let msg = self.0.poll_transmit(ctx);
        if id >= LAST_ID.with(Cell::get) {
            stamp(POLL_END);
        }
        msg
    }

    fn on_round_end(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        transmitted: bool,
        received: Option<&Self::Msg>,
    ) {
        let id = ctx.id;
        if id == 0 {
            stamp(DELIVER_START);
        }
        self.0.on_round_end(ctx, transmitted, received);
        if id >= LAST_ID.with(Cell::get) {
            stamp(DELIVER_END);
        }
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn on_join(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_join(ctx);
    }

    fn on_leave(&mut self, ctx: &mut NodeCtx<'_>) {
        self.0.on_leave(ctx);
    }

    fn on_topology_change(&mut self, ctx: &mut NodeCtx<'_>, change: &TopologyChange) {
        // Every live station hears of a change; count each boundary once.
        TOPOLOGY.with(|t| {
            let mut v = t.get();
            if v.last_round != Some(change.round) {
                v.changes += 1;
                v.joined += change.joined as u64;
                v.last_round = Some(change.round);
            }
            t.set(v);
        });
        self.0.on_topology_change(ctx, change);
    }

    fn phase_hint(&self, round: u64) -> Option<u64> {
        self.0.phase_hint(round)
    }
}

/// One replica step: its bounds, and on a stamped replica the four stage
/// stamps when every one of them fired (a step whose first or last live
/// station changed at its epoch boundary has none and counts as unsplit).
pub struct Step {
    pub start: u64,
    pub end: u64,
    pub stages: Option<[u64; 4]>,
    pub live: usize,
    pub transmitters: usize,
    pub receptions: usize,
}

pub struct ReplicaRun {
    /// Bounds of the replica's own `Simulation::materialize` and
    /// `Network::new` calls.
    pub materialize: (u64, u64),
    pub network_new: (u64, u64),
    pub rounds: u64,
    pub total_transmissions: u64,
    pub informed: usize,
    pub kills: u64,
    /// What the engine did at epoch boundaries (stamped replica only).
    pub topology: Topology,
    pub steps: Vec<Step>,
}

/// Runs `seed` on the replica; with `stamped`, every node is wrapped in
/// [`Stamped`] and each step records its stage stamps. The protocol must
/// be one the workloads use.
pub fn run(
    spec: &ScenarioSpec,
    sim: &Simulation,
    seed: u64,
    stamped: bool,
) -> Result<ReplicaRun, String> {
    let t = clock::now();
    let points = sim.materialize(seed).map_err(|e| e.to_string())?;
    let materialize = (t, clock::now());
    let t = clock::now();
    let net = Network::new(points, *sim.params())
        .map_err(|e| e.to_string())?
        .with_interference_mode(spec.mode);
    let network_new = (t, clock::now());
    let n = net.len();
    let consts = spec.constants;
    let replica = Replica {
        spec,
        net,
        seed,
        stamped,
        materialize,
        network_new,
    };
    match spec.protocol {
        ProtocolSpec::SBroadcast { source } => Ok(replica.run(
            source,
            move |id| SBroadcastNode::new(id, source, 1, n, consts),
            SBroadcastNode::informed,
        )),
        ProtocolSpec::ReFloodBroadcastEstimate {
            source,
            nu0,
            burst_rounds,
        } => Ok(replica.run(
            source,
            move |id| EstimatingReFloodNode::new(id, source, 1, nu0, burst_rounds),
            EstimatingReFloodNode::informed,
        )),
        ref other => Err(format!("no replica for protocol '{}'", other.name())),
    }
}

struct Replica<'a> {
    spec: &'a ScenarioSpec,
    net: Network<sinr_geometry::Point2>,
    seed: u64,
    stamped: bool,
    materialize: (u64, u64),
    network_new: (u64, u64),
}

impl Replica<'_> {
    fn run<Pr: Protocol + 'static>(
        self,
        source: usize,
        make: impl FnMut(usize) -> Pr + Clone + 'static,
        done: fn(&Pr) -> bool,
    ) -> ReplicaRun {
        if self.stamped {
            let mut make = make;
            drive(
                self,
                source,
                move |id| Stamped(make(id)),
                move |p: &Stamped<Pr>| done(&p.0),
            )
        } else {
            drive(self, source, make, done)
        }
    }
}

fn drive<Pr: Protocol + 'static>(
    replica: Replica<'_>,
    source: usize,
    make: impl FnMut(usize) -> Pr + Clone + 'static,
    done: impl Fn(&Pr) -> bool,
) -> ReplicaRun {
    let Replica {
        spec,
        net,
        seed,
        stamped,
        materialize,
        network_new,
    } = replica;
    let mut eng = Engine::new(net, seed, make.clone());
    eng.set_physics_threads(spec.physics_threads);
    eng.set_repair_policy(spec.repair);
    eng.set_kernel_dispatch(spec.kernel_dispatch);
    eng.set_accumulation(spec.accumulation);
    if spec.record {
        eng.record_rounds();
    }
    if let Some(churn) = &spec.churn {
        let mut proc = ChurnProcess::over_deployment(
            churn.model,
            eng.network().points(),
            derive_seed(seed, CHURN_STREAM, 0),
        )
        .protect(source);
        eng.set_churn(
            churn.epoch_rounds,
            move |_, alive, delta| proc.step_into(alive, delta),
            make.clone(),
        );
    }
    if let Some(mobility) = &spec.mobility {
        let mut mob = Mobility::over_deployment(
            mobility.model,
            eng.network().points(),
            derive_seed(seed, MOBILITY_STREAM, 0),
        );
        eng.set_mobility(mobility.epoch_rounds, move |_, pts| {
            mob.ensure_stations(pts.len());
            mob.advance(pts);
        });
    }
    if let Some(adversary) = &spec.adversary {
        let mut plans = FaultPlanSet::new();
        for (k, model) in adversary.models.iter().enumerate() {
            plans.push(model.build(derive_seed(seed, ADVERSARY_STREAM, k as u64)));
        }
        eng.set_adversary(adversary.epoch_rounds, source, Box::new(plans));
    }

    TOPOLOGY.with(|t| t.set(Topology::NONE));
    let budget = spec.budget.unwrap_or(u64::MAX);
    let live_done = |eng: &Engine<_, Pr>| {
        eng.nodes()
            .iter()
            .zip(eng.network().alive())
            .all(|(p, &a)| !a || done(p))
    };
    let mut steps = Vec::with_capacity(budget.min(1 << 16) as usize);
    let mut executed = 0u64;
    while !live_done(&eng) && executed < budget {
        if stamped {
            let alive = eng.network().alive();
            LAST_ID.with(|c| c.set(alive.iter().rposition(|&a| a).unwrap_or(0)));
            STAMPS.with(|s| s.set([None; 4]));
        }
        let live = eng.network().live_count();
        let start = clock::now();
        let stats = eng.step();
        let end = clock::now();
        let stages = match STAMPS.with(Cell::get) {
            [Some(a), Some(b), Some(c), Some(d)]
                if stamped && start <= a && a <= b && b <= c && c <= d =>
            {
                Some([a, b, c, d])
            }
            _ => None,
        };
        steps.push(Step {
            start,
            end,
            stages,
            live,
            transmitters: stats.transmitters,
            receptions: stats.receptions,
        });
        executed += 1;
    }
    LAST_ID.with(|c| c.set(usize::MAX));
    let informed = eng
        .nodes()
        .iter()
        .zip(eng.network().alive())
        .filter(|(p, &a)| a && done(p))
        .count();
    ReplicaRun {
        materialize,
        network_new,
        rounds: executed,
        total_transmissions: eng.trace().total_transmissions(),
        informed,
        kills: eng.fault_stats().kills,
        topology: TOPOLOGY.with(Cell::get),
        steps,
    }
}
