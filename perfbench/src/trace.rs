//! In-memory span and counter recorder for the traced run.
//!
//! A span has a name, start, end (nanoseconds from [`crate::clock`]),
//! parent and trial id. Spans are kept in
//! memory while the workload runs and written out as JSON lines when it
//! ends; the per-layer metrics are derived from them afterwards.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trial: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    spans: Vec<Span>,
    counters: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Records a finished span over `(start_ns, end_ns)` and returns its
    /// id (for children).
    pub fn span(
        &mut self,
        name: &'static str,
        trial: u64,
        parent: Option<usize>,
        (start_ns, end_ns): (u64, u64),
    ) -> usize {
        let span = Span {
            name,
            trial,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a count observed at a layer boundary.
    pub fn count(&mut self, name: &'static str, trial: u64, value: f64) {
        self.counters.push((name, trial, value));
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total nanoseconds of spans called `name`, per trial.
    pub fn sum_by_trial(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.trial).or_insert(0.0) += s.dur_ns() as f64;
        }
        out
    }

    /// Durations in nanoseconds of spans called `name`, per trial.
    pub fn spans_by_trial(&self, name: &str) -> BTreeMap<u64, Vec<f64>> {
        let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.trial).or_default().push(s.dur_ns() as f64);
        }
        out
    }

    /// Every value recorded for counter `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Sum of counter `name`, per trial.
    pub fn counts_by_trial(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for &(n, trial, v) in &self.counters {
            if n == name {
                *out.entry(trial).or_insert(0.0) += v;
            }
        }
        out
    }

    /// Self time of every span called `name`: its duration minus the part
    /// of it that its children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.dur_ns() - covered) as f64
            })
            .collect()
    }

    /// Writes every span and counter as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trial, s.start_ns, s.end_ns
            )?;
        }
        for &(name, trial, value) in &self.counters {
            writeln!(
                out,
                "{{\"counter\":\"{name}\",\"trial\":{trial},\"value\":{value}}}"
            )?;
        }
        out.flush()
    }
}
