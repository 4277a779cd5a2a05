//! Small measurement helpers: order statistics, the report digest, peak
//! memory and the environment stamp.

use crate::Outcome;

/// Linear-interpolated quantile `q` in `[0, 1]`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// 64-bit FNV-1a: the digest pinned for each report's canonical bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Records the process's peak resident set so far (`VmHWM`, in MiB) as
/// `peak_rss_mb`.
pub fn set_peak_rss(out: &mut Outcome) {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kib {
        Some(kib) => out.set("peak_rss_mb", kib / 1024.0),
        None => out.violate("peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }
}

/// What a result was measured on and with, printed with every result.
/// The benchmark's checkout need not be a git repository, so the code
/// measured is identified by the digest of its sources, not a commit.
#[allow(clippy::disallowed_methods)]
pub fn stamp_json(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    // lint: allow(parallelism-resolver) -- stamps the core count on each result; no thread budget is resolved here
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"stamp\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace},\"nproc\":{nproc},\"tier\":\"{}\",\"rustc\":\"{}\",\
         \"source_digest\":\"{}\"}}}}",
        sinr_geometry::hardware_tier().label(),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    )
}
