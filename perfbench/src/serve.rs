//! The `serve_closed_loop` workload: an in-process `sinr-serve` with one
//! worker and one client on loopback, in a closed loop (submit, read
//! events up to `done`, submit the next job).

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::thread::{self, JoinHandle};

use sinr_core::sim::{decode_run_report, ScenarioSpec};
use sinr_serve::{reference_report, request_shutdown, Client, Server};
use sinr_wire::Value;

use crate::inproc;
use crate::measure::{median, ms, quantile, secs, set_peak_rss};
use crate::pins::Pins;
use crate::trace::Tracer;
use crate::workload::{Workload, SEEDS_PER_JOB, SERVE_JOBS};
use crate::{clock, Outcome};

const W: Workload = Workload::ServeClosedLoop;

/// Jobs per measured server start-up. `setup_s` is the median of
/// start-ups spread over the whole run, so no one slow moment of the
/// machine decides it.
const SETUP_EVERY: usize = 4;

/// Jobs after which `peak_rss_mb` is read: two passes over the job
/// cycle, so the reading covers the job state the server retains for a
/// fixed amount of work, however fast the loop runs.
const RSS_JOBS: usize = 2 * SERVE_JOBS;

/// Served jobs whose trials the traced run re-runs in-process.
const TRACED_COMPUTE_JOBS: usize = 8;

struct Running {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
    client: Client,
}

/// Binds a one-worker server, runs it on its own thread, connects one
/// client and waits for a `pong`.
fn start() -> io::Result<Running> {
    let server = Server::bind("127.0.0.1:0", 1)?;
    let addr = server.local_addr()?;
    let handle = thread::spawn(move || server.run());
    let ready = Client::connect(addr).and_then(|mut client| {
        client.send_line("{\"op\":\"ping\"}")?;
        match client.next_event()? {
            Some(e) if e.kind == "pong" => Ok(client),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "no pong")),
        }
    });
    match ready {
        Ok(client) => Ok(Running {
            addr,
            handle,
            client,
        }),
        Err(e) => {
            let _ = request_shutdown(addr);
            let _ = handle.join();
            Err(e)
        }
    }
}

/// [`start`], with its wall time pushed onto `setup`.
fn timed_start(setup: &mut Vec<f64>) -> io::Result<Running> {
    let (running, span) = clock::timed(start);
    setup.push(secs(span.1 - span.0));
    running
}

fn stop(running: Running) -> Result<(), String> {
    drop(running.client);
    request_shutdown(running.addr).map_err(|e| e.to_string())?;
    match running.handle.join() {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// Client-side view of one job.
struct Job {
    submitted: u64,
    accepted: u64,
    first_round: Option<u64>,
    last_report: u64,
    done: u64,
    reports: Vec<(u64, String)>,
    rounds_seen: u64,
    /// Round events that arrived before this job's `accepted`.
    rounds_before_accepted: u64,
    dropped: u64,
}

/// Submits one job and reads its events up to `done`, stamping each.
fn run_job(client: &mut Client, spec: &ScenarioSpec, seeds: &[u64]) -> Result<Job, String> {
    let io = |e: io::Error| e.to_string();
    let submitted = clock::now();
    client.submit(spec, seeds, true).map_err(io)?;
    let mut job_id = None;
    let mut job = Job {
        submitted,
        accepted: submitted,
        first_round: None,
        last_report: submitted,
        done: submitted,
        reports: Vec::new(),
        rounds_seen: 0,
        rounds_before_accepted: 0,
        dropped: 0,
    };
    let mut accepted = false;
    loop {
        let event = client
            .next_event()
            .map_err(io)?
            .ok_or("connection closed before done")?;
        let now = clock::now();
        // Only this job is in flight, and the server may stream its first
        // rounds ahead of `accepted`: the first job id seen is this job's.
        let id = event.body.get("job").and_then(Value::as_u64);
        if job_id.is_none() {
            job_id = id;
        }
        if event.kind != "error" && id != job_id {
            return Err(format!("event for job {id:?} while waiting on {job_id:?}"));
        }
        match event.kind.as_str() {
            "accepted" => {
                accepted = true;
                job.accepted = now;
            }
            "round" => {
                job.rounds_seen += 1;
                job.rounds_before_accepted += u64::from(!accepted);
                job.first_round.get_or_insert(now);
            }
            "report" => {
                let seed = event
                    .body
                    .get("seed")
                    .and_then(Value::as_u64)
                    .ok_or("report without seed")?;
                // Re-encoding the parsed value is byte identity: the wire
                // format is canonical.
                let bytes = event
                    .body
                    .get("report")
                    .ok_or("report without body")?
                    .encode();
                job.reports.push((seed, bytes));
                job.last_report = now;
            }
            "done" => {
                job.dropped = event
                    .body
                    .get("dropped_rounds")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                job.done = now;
                return Ok(job);
            }
            "error" => {
                let msg = event
                    .body
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                return Err(format!("server error: {msg}"));
            }
            other => return Err(format!("unexpected event '{other}'")),
        }
    }
}

/// Runs the closed loop; the traced run adds the per-layer metrics from
/// the client-side stamps and from the first jobs' trials re-run
/// in-process.
pub fn run(seed: u64, seconds: f64, pins: &Pins, out: &mut Outcome, tracer: Option<&mut Tracer>) {
    let spec = W.spec();
    let seeds = W.trial_seeds(seed);
    let pairs: Vec<&[u64]> = seeds.chunks(SEEDS_PER_JOB).collect();

    let mut setup = Vec::new();
    let mut running = match timed_start(&mut setup) {
        Ok(r) => r,
        Err(e) => {
            out.violate(format!("server start: {e}"));
            return;
        }
    };

    // The closed loop.
    let mut jobs: Vec<(usize, Job)> = Vec::new();
    let start_loop = clock::now();
    let mut j = 0;
    while j == 0 || secs(clock::now() - start_loop) < seconds {
        if j % SETUP_EVERY == SETUP_EVERY - 1 {
            // A spare server, started while the loop's server idles.
            let spare = timed_start(&mut setup).map_err(|e| e.to_string());
            if let Err(e) = spare.and_then(stop) {
                out.violate(format!("spare server: {e}"));
            }
        }
        let pair = j % SERVE_JOBS;
        out.attempted += 1;
        j += 1;
        match run_job(&mut running.client, &spec, pairs[pair]) {
            Ok(job) => {
                jobs.push((pair, job));
                if jobs.len() == RSS_JOBS {
                    set_peak_rss(out);
                }
            }
            Err(e) => {
                // The connection's state is unknown after a failed job.
                out.fail(format!("job {j}: {e}"));
                break;
            }
        }
    }
    if let Err(e) = stop(running) {
        out.violate(format!("server stop: {e}"));
    }
    out.set("setup_s", median(&setup));
    if jobs.len() < RSS_JOBS {
        set_peak_rss(out);
    }

    // Correctness: every served report equals the in-process reference
    // and its pin.
    let mut reference: BTreeMap<u64, Result<String, String>> = BTreeMap::new();
    let mut job_rounds = vec![0u64; jobs.len()];
    for (k, (pair, job)) in jobs.iter().enumerate() {
        let mut problems = Vec::new();
        for &s in pairs[*pair] {
            let want = reference
                .entry(s)
                .or_insert_with(|| reference_report(&spec, s));
            let got = job.reports.iter().find(|(rs, _)| *rs == s).map(|(_, b)| b);
            let verdict = match (want, got) {
                (Ok(want), Some(got)) if want == got => pins.check(W.name(), s, got),
                (Ok(_), Some(_)) => Err(format!(
                    "seed {s}: served report differs from reference_report"
                )),
                (Ok(_), None) => Err(format!("seed {s}: no report served")),
                (Err(e), _) => Err(format!("seed {s}: reference run failed: {e}")),
            };
            problems.extend(verdict.err());
            if let Some(r) = got.and_then(|b| decode_run_report(b).ok()) {
                job_rounds[k] += r.rounds;
            }
        }
        // A job is the operation: it fails once, however many trials differ.
        if !problems.is_empty() {
            out.fail(format!("job {}: {}", k + 1, problems.join("; ")));
        }
    }
    let rounds_seen: u64 = jobs.iter().map(|(_, job)| job.rounds_seen).sum();
    if rounds_seen == 0 {
        out.violate("no-op guard: the client saw no round events".into());
    }

    let latency = |job: &Job| ms(job.done - job.submitted);
    let job_ms: Vec<f64> = jobs.iter().map(|(_, job)| latency(job)).collect();
    let busy_s: f64 = jobs
        .iter()
        .map(|(_, job)| secs(job.done - job.submitted))
        .sum();
    out.set(
        "rounds_per_s",
        job_rounds.iter().sum::<u64>() as f64 / busy_s,
    );
    // A served trial's share of its job: what a client waits per trial.
    let per_trial_s: Vec<f64> = job_ms
        .iter()
        .map(|ms| ms / 1e3 / SEEDS_PER_JOB as f64)
        .collect();
    out.set("trial_p50_s", median(&per_trial_s));
    out.set("job_p50_ms", median(&job_ms));
    out.set("job_p90_ms", quantile(&job_ms, 0.9).unwrap_or(0.0));
    out.note(format!(
        "{} jobs of {SEEDS_PER_JOB} trials over {} distinct jobs",
        jobs.len(),
        SERVE_JOBS.min(j)
    ));

    let Some(tr) = tracer else {
        return;
    };
    // Per-layer metrics: the first jobs' trials re-run in-process with
    // the trial-level spans and the replica ...
    let (mut untraced, mut observed) = (0.0, 0.0);
    let mut compute_s: BTreeMap<u64, f64> = BTreeMap::new();
    let mut trial = 0u64;
    for pair in pairs
        .iter()
        .take(SERVE_JOBS.min(j).min(TRACED_COMPUTE_JOBS))
    {
        for &s in *pair {
            match inproc::traced_trial(W, &spec, s, trial, tr) {
                Ok(t) => {
                    for problem in t.problems {
                        out.violate(problem);
                    }
                    untraced += t.untraced_s;
                    observed += t.observed_s;
                    compute_s.insert(s, t.untraced_s);
                }
                Err(e) => out.violate(e),
            }
            trial += 1;
        }
    }
    out.set("trace.overhead_frac", observed / untraced - 1.0);
    inproc::layer_metrics(tr, out);

    // ... and the client-side stamps of every job, with the compute and
    // overhead of the jobs whose trials were re-run.
    for (k, (pair, job)) in jobs.iter().enumerate() {
        let id = 1_000_000 + k as u64;
        let root = tr.span("serve.job", id, None, (job.submitted, job.done));
        tr.span(
            "serve.accept",
            id,
            Some(root),
            (job.submitted, job.accepted),
        );
        if let Some(first) = job.first_round {
            tr.span("serve.first_round", id, Some(root), (job.submitted, first));
        }
        tr.span(
            "serve.done_after_report",
            id,
            Some(root),
            (job.last_report, job.done),
        );
        let compute: Option<f64> = pairs[*pair].iter().map(|s| compute_s.get(s)).sum();
        if let Some(compute) = compute {
            tr.count("serve.compute_ms", id, compute * 1e3);
            tr.count("serve.overhead_ms", id, latency(job) - compute * 1e3);
        }
    }
    let med_ms = |name: &str| {
        median(
            &tr.durations(name)
                .iter()
                .map(|ns| ns / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    out.set("serve.accept_ms", med_ms("serve.accept"));
    out.set("serve.first_round_ms", med_ms("serve.first_round"));
    out.set(
        "serve.done_after_report_ms",
        med_ms("serve.done_after_report"),
    );
    out.set("serve.compute_ms", median(&tr.counts("serve.compute_ms")));
    out.set("serve.overhead_ms", median(&tr.counts("serve.overhead_ms")));
    let dropped: u64 = jobs.iter().map(|(_, job)| job.dropped).sum();
    out.set("serve.round_events", rounds_seen as f64);
    out.set("serve.round_events_dropped", dropped as f64);
    let early: u64 = jobs.iter().map(|(_, job)| job.rounds_before_accepted).sum();
    out.set("serve.round_events_before_accepted", early as f64);
    // Recorded, not gated: rounds the reports count that were neither
    // streamed nor reported dropped.
    out.set(
        "serve.round_events_unaccounted",
        job_rounds.iter().sum::<u64>() as f64 - rounds_seen as f64 - dropped as f64,
    );
}
