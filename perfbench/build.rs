//! Stamps the binary with the compiler version and a digest of the
//! simulator sources it was built from (the benchmark's checkout need not
//! be a git repository, so the digest identifies the code measured).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());

    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    collect(&crates, &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&crates).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    // lint: allow(quiet-libraries) -- cargo reads build-script directives from standard output
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}\n\
         cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}\n\
         cargo:rerun-if-changed=../crates\n\
         cargo:rerun-if-changed=build.rs"
    );
}

/// Every `.rs` and `Cargo.toml` file under `dir`.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
