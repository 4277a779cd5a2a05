//! `perfbench`: the end-to-end and per-layer benchmark of the SINR
//! broadcast simulator. See `README.md` beside this crate for the
//! workloads, the metrics and what each metric is expected to move.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! perfbench --workload <name> --emit-pins
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits with
//! 1 when any report or check failed, and with 2 on a usage error.

mod clock;
mod inproc;
mod measure;
mod pins;
mod replica;
mod serve;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use sinr_core::sim::encode_run_report;

use crate::pins::{pin_line, Pins};
use crate::trace::Tracer;
use crate::workload::{Workload, DEFAULT_SEED};

/// End-to-end metrics, reported by the untraced run of every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("trial_p50_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run of every workload; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("netgen.materialize_ms", "ms"),
    ("phy.network_new_ms", "ms"),
    ("phy.comm_edges", "count"),
    ("sim.build_ms", "ms"),
    ("phy.resolve_ms", "ms"),
    ("phy.resolve_us_per_round", "us"),
    ("phy.tx_per_round", "count"),
    ("phy.rx_per_round", "count"),
    ("phy.decode_yield", "frac"),
    ("core.poll_ms", "ms"),
    ("core.deliver_ms", "ms"),
    ("core.poll_ns_per_station", "ns"),
    ("runtime.pre_poll_ms", "ms"),
    ("runtime.step_us_p50", "us"),
    ("runtime.step_us_p99", "us"),
    ("runtime.epoch_ms", "ms"),
    ("runtime.epoch_boundaries", "count"),
    ("runtime.boundary_round_us_p50", "us"),
    ("runtime.quiet_round_us_p50", "us"),
    ("runtime.kills", "count"),
    ("sim.drive_overhead_ms", "ms"),
    ("wire.spec_roundtrip_us", "us"),
    ("wire.report_encode_us", "us"),
    ("wire.report_decode_us", "us"),
    ("wire.report_bytes", "bytes"),
    ("serve.accept_ms", "ms"),
    ("serve.first_round_ms", "ms"),
    ("serve.done_after_report_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.round_events", "count"),
    ("serve.round_events_dropped", "count"),
    ("serve.round_events_unaccounted", "count"),
    ("serve.round_events_before_accepted", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.stage_sum_error_frac", "frac"),
];

/// What a run measured and whether everything it checked held.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and violated checks, described.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed operation (a trial or job).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records a violated check that is not itself an operation.
    pub fn violate(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_pins: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sbcast_static|reflood_dynamic|serve_closed_loop> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--emit-pins]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut emit_pins) =
        (None, DEFAULT_SEED, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--emit-pins" => emit_pins = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        emit_pins,
    })
}

/// Prints the pin lines of every trial seed a run can draw.
fn emit_pins(w: Workload) -> Result<(), String> {
    let spec = w.spec();
    let sim = inproc::build(&spec)?;
    for s in w.pinned_seeds() {
        let report = sim.run(s).map_err(|e| format!("seed {s}: {e}"))?;
        println!("{}", pin_line(w.name(), s, &encode_run_report(&report)));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_pins {
        return match emit_pins(args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = args.workload;
    println!(
        "{}",
        measure::stamp_json(w.name(), args.seed, args.seconds, args.trace)
    );

    let pins = Pins::load();
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::new);
    match (w, tracer.as_mut()) {
        (Workload::ServeClosedLoop, tr) => serve::run(args.seed, args.seconds, &pins, &mut out, tr),
        (_, None) => inproc::run(w, args.seed, args.seconds, &pins, &mut out),
        (_, Some(tr)) => inproc::run_traced(w, args.seed, args.seconds, &pins, &mut out, tr),
    }

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(tr) = &tracer {
        let path = PathBuf::from(format!(
            ".bench_build/perfbench-trace/{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.violate(format!("writing {}: {e}", path.display())),
        }
    }

    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.violate(format!("{name} is not finite ({v})"));
                0.0
            }
            // Per-layer metrics of a layer the workload does not
            // exercise read 0; every end-to-end metric must be measured.
            None if args.trace => 0.0,
            None => {
                out.violate(format!("{name} was not measured"));
                0.0
            }
        };
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} of {} operations)",
        out.failed, out.attempted
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for problem in out.problems.iter().take(20) {
        eprintln!("perfbench: FAILED: {problem}");
    }
    let correct = out.problems.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
