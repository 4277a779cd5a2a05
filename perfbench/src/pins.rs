//! Report pins: the digest and length of each trial's canonical report
//! bytes (`encode_run_report`) for every trial seed a run can draw,
//! generated once with `--emit-pins`.

use std::collections::BTreeMap;

use crate::measure::fnv1a64;

const PINS: &str = include_str!("../pins.txt");

pub struct Pins(BTreeMap<(String, u64), (u64, usize)>);

impl Pins {
    pub fn load() -> Self {
        let mut map = BTreeMap::new();
        for line in PINS.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = match f.as_slice() {
                [w, seed, digest, len] => seed
                    .parse()
                    .ok()
                    .zip(u64::from_str_radix(digest, 16).ok())
                    .zip(len.parse().ok())
                    .map(|((s, d), l)| ((w.to_string(), s), (d, l))),
                _ => None,
            };
            let (key, pin) = parsed.unwrap_or_else(|| panic!("malformed pin line: {line}"));
            map.insert(key, pin);
        }
        Pins(map)
    }

    /// `Err` unless `bytes` match the pin for `(workload, seed)`; a seed
    /// without a pin is an error too.
    pub fn check(&self, workload: &str, seed: u64, bytes: &str) -> Result<(), String> {
        let Some(&(digest, len)) = self.0.get(&(workload.to_string(), seed)) else {
            return Err(format!("seed {seed}: no pin for this trial seed"));
        };
        let got = fnv1a64(bytes.as_bytes());
        if got == digest && bytes.len() == len {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: report digest {got:016x} ({} bytes) differs from pin {digest:016x} ({len} bytes)",
                bytes.len()
            ))
        }
    }
}

/// One `pins.txt` line for a trial's report bytes.
pub fn pin_line(workload: &str, seed: u64, bytes: &str) -> String {
    format!(
        "{workload} {seed} {:016x} {}",
        fnv1a64(bytes.as_bytes()),
        bytes.len()
    )
}
