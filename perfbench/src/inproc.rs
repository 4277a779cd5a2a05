//! The in-process workloads (`sbcast_static`, `reflood_dynamic`):
//! untraced end-to-end runs and the traced per-layer run.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use sinr_core::sim::{
    decode_run_report, encode_run_report, Observer, RunReport, ScenarioSpec, Simulation,
};
use sinr_phy::Network;
use sinr_runtime::RoundStats;

use crate::measure::{median, ms, quantile, secs, set_peak_rss};
use crate::pins::Pins;
use crate::replica::{ReplicaRun, Topology};
use crate::trace::Tracer;
use crate::workload::{is_boundary, Workload};
use crate::{clock, replica, Outcome};

/// Largest `1 - Σ stages / Σ step` the traced run accepts: the stages
/// leave out only the end of a step after the last delivery.
pub const STAGE_SUM_TOLERANCE: f64 = 0.05;

pub fn build(spec: &ScenarioSpec) -> Result<Simulation, String> {
    spec.to_scenario()
        .and_then(|s| s.build())
        .map_err(|e| e.to_string())
}

/// One set-up: what a trial pays before its first round.
fn setup_once(spec: &ScenarioSpec, seed: u64) -> Result<usize, String> {
    let sim = build(spec)?;
    let points = sim.materialize(seed).map_err(|e| e.to_string())?;
    let net = Network::new(points, *sim.params())
        .map_err(|e| e.to_string())?
        .with_interference_mode(spec.mode);
    Ok(black_box(net).len())
}

/// Checks that a replica reproduced the trial `report` describes.
fn check_replica(seed: u64, report: &RunReport, rep: &ReplicaRun) -> Result<(), String> {
    let kills = report.faults.as_ref().map_or(0, |f| f.kills);
    let want = (
        report.rounds,
        report.total_transmissions,
        report.informed,
        kills,
    );
    let got = (rep.rounds, rep.total_transmissions, rep.informed, rep.kills);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "seed {seed}: replica (rounds, tx, informed, kills) = {got:?}, scenario = {want:?}"
        ))
    }
}

/// Rounds, and the work the no-op guard looks for, summed over a run's
/// trials.
#[derive(Default)]
pub struct Activity {
    pub rounds: u64,
    pub kills: u64,
    /// Topology changes the engine delivered, as stamped replicas saw them.
    pub topology: Topology,
}

impl Activity {
    pub fn add(&mut self, report: &RunReport) {
        self.rounds += report.rounds;
        self.kills += report.faults.as_ref().map_or(0, |f| f.kills);
    }

    pub fn add_replica(&mut self, rep: &ReplicaRun) {
        self.topology.changes += rep.topology.changes;
        self.topology.joined += rep.topology.joined;
    }

    /// Asserts that the epoch layer `reflood_dynamic` was chosen for did
    /// real work: the engine delivered topology changes, churn brought
    /// stations in and the adversary killed some.
    pub fn guard(&self, w: Workload, out: &mut Outcome) {
        let Topology {
            changes, joined, ..
        } = self.topology;
        if w == Workload::RefloodDynamic && (changes == 0 || joined == 0 || self.kills == 0) {
            out.violate(format!(
                "no-op guard: {changes} topology changes, {joined} joins and {} kills, need all > 0",
                self.kills
            ));
        }
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run(w: Workload, seed: u64, seconds: f64, pins: &Pins, out: &mut Outcome) {
    let spec = w.spec();
    let spec_text = spec.encode();
    let seeds = w.trial_seeds(seed);

    let mut setup_s = Vec::new();
    let mut trial_s = Vec::new();
    let mut job_ms = Vec::new();
    let mut activity = Activity::default();
    let mut first = None;
    let start = clock::now();
    let mut i = 0;
    while i == 0 || secs(clock::now() - start) < seconds {
        let s = seeds[i % seeds.len()];
        i += 1;
        // The trial's set-up, measured on its own before it: `setup_s` is
        // the median over the whole run, so no one slow moment of the
        // machine decides it.
        let (setup, span) = clock::timed(|| setup_once(&spec, s));
        setup_s.push(secs(span.1 - span.0));
        if let Err(e) = setup {
            out.violate(format!("seed {s}: set-up: {e}"));
        }
        out.attempted += 1;
        // A job: canonical spec text in, canonical report bytes out.
        let t_job = clock::now();
        let sim = ScenarioSpec::decode(&spec_text)
            .map_err(|e| e.to_string())
            .and_then(|spec| build(&spec));
        let sim = match sim {
            Ok(sim) => sim,
            Err(e) => {
                out.fail(format!("seed {s}: {e}"));
                continue;
            }
        };
        let t_run = clock::now();
        let result = sim.run(s);
        let run_time = clock::now() - t_run;
        let result = result.map(|report| {
            let bytes = encode_run_report(&report);
            (report, bytes)
        });
        let job_time = clock::now() - t_job;
        match result {
            Ok((report, bytes)) => {
                if let Err(e) = pins.check(w.name(), s, &bytes) {
                    out.fail(e);
                }
                trial_s.push(secs(run_time));
                job_ms.push(ms(job_time));
                activity.add(&report);
                if trial_s.len() == 1 {
                    // Peak memory of one set-up and one trial: later trials
                    // add allocator history that depends on their order.
                    set_peak_rss(out);
                }
                first.get_or_insert((s, report));
            }
            Err(e) => out.fail(format!("seed {s}: {e}")),
        }
    }
    // A report does not say what the engine did at epoch boundaries:
    // replay the first trial on the stamped replica, after the timed loop.
    if let (true, Some((s, report))) = (w.is_dynamic(), &first) {
        let rep = build(&spec).and_then(|sim| replica::run(&spec, &sim, *s, true));
        match rep.and_then(|rep| check_replica(*s, report, &rep).map(|()| rep)) {
            Ok(rep) => activity.add_replica(&rep),
            Err(e) => out.violate(e),
        }
    }
    activity.guard(w, out);
    out.set("setup_s", median(&setup_s));
    out.set(
        "rounds_per_s",
        activity.rounds as f64 / trial_s.iter().sum::<f64>(),
    );
    out.set("trial_p50_s", median(&trial_s));
    out.set("job_p50_ms", median(&job_ms));
    out.set("job_p90_ms", quantile(&job_ms, 0.9).unwrap_or(0.0));
    out.note(format!(
        "{} trials over {} distinct seeds",
        trial_s.len(),
        seeds.len().min(i)
    ));
}

/// Per-round wall-clock stamps from the real `Scenario` path.
#[derive(Default)]
struct RoundClock {
    stamps: Vec<(u64, RoundStats)>,
    begin: Option<u64>,
    sink: Arc<Mutex<Vec<RoundLog>>>,
}

struct RoundLog {
    begin: u64,
    rounds: Vec<(u64, RoundStats)>,
}

impl Observer for RoundClock {
    fn begin(&mut self, _n: usize) {
        self.begin = Some(clock::now());
    }

    fn on_round(&mut self, stats: &RoundStats, _informed: usize) {
        self.stamps.push((clock::now(), *stats));
    }

    fn finish(&mut self, _report: &mut RunReport) {
        if let Some(begin) = self.begin {
            let log = RoundLog {
                begin,
                rounds: std::mem::take(&mut self.stamps),
            };
            self.sink.lock().expect("round log lock poisoned").push(log);
        }
    }
}

/// Everything one traced trial checks, from the caller's perspective.
pub struct TracedTrial {
    pub report: RunReport,
    pub bytes: String,
    /// Untraced `Simulation::run` wall time of the same seed.
    pub untraced_s: f64,
    pub observed_s: f64,
    /// The stamped replica's run of the same seed.
    pub stamped: ReplicaRun,
    /// Failed checks: the observed run, the wire round trip and the
    /// replicas must all reproduce the untraced report.
    pub problems: Vec<String>,
}

/// Runs one traced trial of `seed` under trial id `trial`: an untraced
/// run, the scenario-level spans, an observed run with per-round spans,
/// the plain replica with per-step spans, the stamped replica with
/// per-stage spans, and the wire spans.
pub fn traced_trial(
    w: Workload,
    spec: &ScenarioSpec,
    seed: u64,
    trial: u64,
    tr: &mut Tracer,
) -> Result<TracedTrial, String> {
    let root_start = clock::now();
    let seed_err = |e: sinr_core::sim::SimError| format!("seed {seed}: {e}");
    let sim = build(spec)?;
    let (report, untraced) = clock::timed(|| sim.run(seed));
    let report = report.map_err(seed_err)?;
    let (built, built_span) = clock::timed(|| build(spec));
    black_box(built?);
    let (points, materialized) = clock::timed(|| sim.materialize(seed));
    let points = points.map_err(seed_err)?;
    let (net, networked) = clock::timed(|| {
        Network::new(points, *sim.params()).map(|net| net.with_interference_mode(spec.mode))
    });
    let edges = net.map_err(|e| e.to_string())?.comm_graph().num_edges();

    let sink = Arc::new(Mutex::new(Vec::new()));
    let factory_sink = Arc::clone(&sink);
    let observed_sim = spec
        .to_scenario()
        .map_err(|e| e.to_string())?
        .observe(move || {
            Box::new(RoundClock {
                sink: Arc::clone(&factory_sink),
                ..RoundClock::default()
            })
        })
        .build()
        .map_err(|e| e.to_string())?;
    let (observed, observed_span) = clock::timed(|| observed_sim.run(seed));
    let observed = observed.map_err(seed_err)?;
    let (plain, plain_span) = clock::timed(|| replica::run(spec, &sim, seed, false));
    let plain = plain?;
    let (stamped, stamped_span) = clock::timed(|| replica::run(spec, &sim, seed, true));
    let stamped = stamped?;

    let (spec_rt, spec_rt_span) = clock::timed(|| ScenarioSpec::decode(&black_box(spec.encode())));
    black_box(spec_rt.map_err(|e| e.to_string())?);
    let (bytes, encoded) = clock::timed(|| encode_run_report(black_box(&report)));
    let (decoded, decoded_span) = clock::timed(|| decode_run_report(black_box(&bytes)));

    // Checks: the observed run and the decoded report equal the untraced
    // report, and both replicas reproduced its trial.
    let mut problems = Vec::new();
    if encode_run_report(&observed) != bytes {
        problems.push(format!(
            "seed {seed}: observed run differs from the untraced run"
        ));
    }
    if !matches!(&decoded, Ok(d) if *d == report) {
        problems.push(format!(
            "seed {seed}: report does not survive the wire round trip"
        ));
    }
    for rep in [&plain, &stamped] {
        problems.extend(check_replica(seed, &report, rep).err());
    }

    // Spans.
    let root = tr.span("trial", trial, None, (root_start, clock::now()));
    tr.span("sim.run", trial, Some(root), untraced);
    tr.span("sim.build", trial, Some(root), built_span);
    tr.span("netgen.materialize", trial, Some(root), materialized);
    tr.span("phy.network_new", trial, Some(root), networked);
    tr.count("phy.comm_edges", trial, edges as f64);
    let obs_id = tr.span("sim.run_observed", trial, Some(root), observed_span);
    let epochs = w.epochs();
    for log in sink.lock().expect("round log lock poisoned").drain(..) {
        let mut prev = log.begin;
        for (at, stats) in log.rounds {
            let name = if is_boundary(&epochs, stats.round) {
                "runtime.round_boundary"
            } else {
                "runtime.round_quiet"
            };
            tr.span(name, trial, Some(obs_id), (prev, at));
            prev = at;
        }
    }
    let plain_id = tr.span("replica.run", trial, Some(root), plain_span);
    tr.span(
        "replica.materialize",
        trial,
        Some(plain_id),
        plain.materialize,
    );
    tr.span(
        "replica.network_new",
        trial,
        Some(plain_id),
        plain.network_new,
    );
    for step in &plain.steps {
        tr.span(
            "runtime.step",
            trial,
            Some(plain_id),
            (step.start, step.end),
        );
        tr.count("runtime.station_rounds", trial, step.live as f64);
        tr.count("phy.transmitters", trial, step.transmitters as f64);
        tr.count("phy.receptions", trial, step.receptions as f64);
    }
    tr.count("replica.rounds", trial, plain.rounds as f64);
    let stamped_id = tr.span("replica.stamped_run", trial, Some(root), stamped_span);
    for step in &stamped.steps {
        let id = tr.span(
            "replica.stamped_step",
            trial,
            Some(stamped_id),
            (step.start, step.end),
        );
        if let Some([p0, p1, d0, d1]) = step.stages {
            tr.span("runtime.pre_poll", trial, Some(id), (step.start, p0));
            tr.span("core.poll", trial, Some(id), (p0, p1));
            tr.span("phy.resolve", trial, Some(id), (p1, d0));
            tr.span("core.deliver", trial, Some(id), (d0, d1));
        }
    }
    tr.count("runtime.kills", trial, stamped.kills as f64);
    tr.count(
        "runtime.epoch_boundaries",
        trial,
        stamped.topology.changes as f64,
    );
    tr.span("wire.spec_roundtrip", trial, Some(root), spec_rt_span);
    tr.span("wire.report_encode", trial, Some(root), encoded);
    tr.span("wire.report_decode", trial, Some(root), decoded_span);
    tr.count("wire.report_bytes", trial, bytes.len() as f64);

    Ok(TracedTrial {
        report,
        bytes,
        untraced_s: secs(untraced.1 - untraced.0),
        observed_s: secs(observed_span.1 - observed_span.0),
        stamped,
        problems,
    })
}

/// The traced run of an in-process workload.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    pins: &Pins,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    let spec = w.spec();
    let seeds = w.trial_seeds(seed);
    let mut activity = Activity::default();
    let (mut untraced, mut observed) = (0.0, 0.0);
    let start = clock::now();
    let mut i = 0;
    while i == 0 || secs(clock::now() - start) < seconds {
        let s = seeds[i % seeds.len()];
        out.attempted += 1;
        match traced_trial(w, &spec, s, i as u64, tr) {
            Ok(mut t) => {
                t.problems.extend(pins.check(w.name(), s, &t.bytes).err());
                if !t.problems.is_empty() {
                    out.fail(t.problems.join("; "));
                }
                activity.add(&t.report);
                activity.add_replica(&t.stamped);
                untraced += t.untraced_s;
                observed += t.observed_s;
            }
            Err(e) => out.fail(e),
        }
        i += 1;
    }
    activity.guard(w, out);
    out.set("trace.overhead_frac", observed / untraced - 1.0);
    layer_metrics(tr, out);
    out.note(format!("{i} traced trials"));
}

/// Derives the per-layer metrics shared by every workload from the spans
/// and counters of traced trials.
pub fn layer_metrics(tr: &Tracer, out: &mut Outcome) {
    let per_trial_ms = |name: &str| -> f64 {
        let v: Vec<f64> = tr.sum_by_trial(name).values().map(|ns| ns / 1e6).collect();
        median(&v)
    };
    let total = |name: &str| -> f64 { tr.sum_by_trial(name).values().sum() };
    let count_total = |name: &str| -> f64 { tr.counts_by_trial(name).values().sum() };
    let us = |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|ns| ns / 1e3).collect() };
    let count_median = |name: &str| -> f64 {
        let v: Vec<f64> = tr.counts_by_trial(name).values().copied().collect();
        median(&v)
    };

    out.set("netgen.materialize_ms", per_trial_ms("netgen.materialize"));
    out.set("phy.network_new_ms", per_trial_ms("phy.network_new"));
    out.set("phy.comm_edges", count_median("phy.comm_edges"));
    out.set("sim.build_ms", per_trial_ms("sim.build"));

    let rounds = count_total("replica.rounds").max(1.0);
    let tx = count_total("phy.transmitters");
    let rx = count_total("phy.receptions");
    out.set("phy.resolve_ms", per_trial_ms("phy.resolve"));
    out.set(
        "phy.resolve_us_per_round",
        total("phy.resolve") / 1e3 / rounds,
    );
    out.set("phy.tx_per_round", tx / rounds);
    out.set("phy.rx_per_round", rx / rounds);
    out.set("phy.decode_yield", if tx > 0.0 { rx / tx } else { 0.0 });
    out.set("core.poll_ms", per_trial_ms("core.poll"));
    out.set("core.deliver_ms", per_trial_ms("core.deliver"));
    out.set(
        "core.poll_ns_per_station",
        total("core.poll") / count_total("runtime.station_rounds").max(1.0),
    );
    out.set("runtime.pre_poll_ms", per_trial_ms("runtime.pre_poll"));

    let steps_us = us("runtime.step");
    out.set("runtime.step_us_p50", median(&steps_us));
    out.set(
        "runtime.step_us_p99",
        quantile(&steps_us, 0.99).unwrap_or(0.0),
    );

    // Epoch self time on the real Scenario path: each boundary round
    // minus the median quiet round of its trial.
    let boundary = tr.spans_by_trial("runtime.round_boundary");
    let quiet = tr.spans_by_trial("runtime.round_quiet");
    let mut epoch_ms = Vec::new();
    for (trial, quiet_ns) in &quiet {
        let q = median(quiet_ns);
        let b = boundary.get(trial).map_or(&[][..], Vec::as_slice);
        epoch_ms.push(b.iter().map(|ns| (ns - q).max(0.0)).sum::<f64>() / 1e6);
    }
    out.set("runtime.epoch_ms", median(&epoch_ms));
    // Boundaries at which the engine delivered a topology change.
    out.set(
        "runtime.epoch_boundaries",
        count_median("runtime.epoch_boundaries"),
    );
    out.set(
        "runtime.boundary_round_us_p50",
        median(&us("runtime.round_boundary")),
    );
    out.set(
        "runtime.quiet_round_us_p50",
        median(&us("runtime.round_quiet")),
    );
    out.set("runtime.kills", count_median("runtime.kills"));

    // The plain replica's drive self time: what its run spends outside
    // materialize, Network::new and the steps, i.e. engine set-up, the
    // done-predicate scans before every round and result collection.
    let overhead: Vec<f64> = tr
        .self_times("replica.run")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.set("sim.drive_overhead_ms", median(&overhead));

    out.set("wire.spec_roundtrip_us", median(&us("wire.spec_roundtrip")));
    out.set("wire.report_encode_us", median(&us("wire.report_encode")));
    out.set("wire.report_decode_us", median(&us("wire.report_decode")));
    out.set("wire.report_bytes", count_median("wire.report_bytes"));

    // The stage spans must account for the stamped step time: a step's
    // self time is the part no stage covers.
    let step_total = total("replica.stamped_step");
    let uncovered: f64 = tr.self_times("replica.stamped_step").iter().sum();
    let err = if step_total > 0.0 {
        uncovered / step_total
    } else {
        0.0
    };
    out.set("trace.stage_sum_error_frac", err);
    if !(0.0..=STAGE_SUM_TOLERANCE).contains(&err) {
        out.violate(format!(
            "stage-sum check: stages cover {:.4} of step time, tolerance {STAGE_SUM_TOLERANCE}",
            1.0 - err
        ));
    }
}
