//! Self-application: the linter's strongest test is the workspace itself.
//!
//! * The real tree must be clean under `--check` (this is what the CI
//!   `lint` job asserts too — a violation fails here first, with the same
//!   diagnostic).
//! * The committed `lint-ratchet.toml` must reject a *seeded* `unwrap()`
//!   added to `crates/phy` — proving the ratchet actually bites.

use std::path::{Path, PathBuf};

use sinr_lint::{lint_files, lint_root, Config, Ratchet, Rule, SourceFile, Workspace};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let report = lint_root(&repo_root(), &Config::default()).unwrap();
    assert!(
        report.is_clean(),
        "the workspace violates its own lint rules:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The committed baseline is exactly the measured surface: a shrink
    // should be banked via --ratchet-update, not left to drift.
    assert!(
        report.improvements.is_empty(),
        "panic surface shrank below the committed ceiling — run \
         `cargo run -p sinr-lint -- --ratchet-update` and commit: {:?}",
        report.improvements
    );
}

#[test]
fn committed_ratchet_rejects_a_seeded_unwrap_in_phy() {
    let root = repo_root();
    let mut files = Workspace::load(&root).unwrap().files;
    files.push(SourceFile {
        rel_path: "crates/phy/src/seeded_debt.rs".to_string(),
        text: "pub fn seeded(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n".to_string(),
    });
    let baseline_text =
        std::fs::read_to_string(root.join("lint-ratchet.toml")).expect("committed baseline");
    let baseline = Ratchet::parse(&baseline_text).unwrap();
    let report = lint_files(&files, &Config::default(), Some(&baseline));
    let ratchet_hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::PanicRatchet)
        .collect();
    assert_eq!(
        ratchet_hits.len(),
        1,
        "exactly the seeded unwrap must trip the ratchet: {:#?}",
        report.diagnostics
    );
    assert!(ratchet_hits[0].message.contains("`phy`"));
}

#[test]
fn committed_ratchet_rejects_a_seeded_unsafe_block_in_the_simd_tree() {
    let root = repo_root();
    let mut files = Workspace::load(&root).unwrap().files;
    // Correctly SAFETY-annotated and under an allowed path — but one
    // token over the committed `[unsafe-blocks]` ceiling.
    files.push(SourceFile {
        rel_path: "crates/geometry/src/simd/seeded_unsafe.rs".to_string(),
        text: "// SAFETY: seeded fixture; the count still ratchets.\n\
               pub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n"
            .to_string(),
    });
    let baseline_text =
        std::fs::read_to_string(root.join("lint-ratchet.toml")).expect("committed baseline");
    let baseline = Ratchet::parse(&baseline_text).unwrap();
    let report = lint_files(&files, &Config::default(), Some(&baseline));
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.path == "lint-ratchet.toml")
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "exactly the seeded unsafe must trip the ratchet: {:#?}",
        report.diagnostics
    );
    assert!(hits[0].message.contains("`geometry`"), "{:?}", hits[0]);
    assert!(hits[0].message.contains("unsafe"), "{:?}", hits[0]);
}

#[test]
fn seeded_unsafe_outside_the_allowlist_is_flagged() {
    let root = repo_root();
    let mut files = Workspace::load(&root).unwrap().files;
    // A SAFETY comment does not excuse unsafe outside the SIMD paths.
    files.push(SourceFile {
        rel_path: "crates/runtime/src/seeded_unsafe.rs".to_string(),
        text: "// SAFETY: the location, not the comment, is the violation.\n\
               pub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n"
            .to_string(),
    });
    let baseline_text =
        std::fs::read_to_string(root.join("lint-ratchet.toml")).expect("committed baseline");
    let baseline = Ratchet::parse(&baseline_text).unwrap();
    let report = lint_files(&files, &Config::default(), Some(&baseline));
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::ForbidUnsafe)
        .collect();
    assert_eq!(hits.len(), 1, "{:#?}", report.diagnostics);
    assert!(
        hits[0].message.contains("outside the SIMD allowlist"),
        "{:?}",
        hits[0]
    );
}

#[test]
fn seeded_hashmap_in_deterministic_crate_is_flagged() {
    // End-to-end regression guard for the founding bug class: a fresh
    // `HashMap` import in `runtime` must be caught even with the rest of
    // the workspace clean.
    let root = repo_root();
    let mut files = Workspace::load(&root).unwrap().files;
    files.push(SourceFile {
        rel_path: "crates/runtime/src/seeded_map.rs".to_string(),
        text: "use std::collections::HashMap;\n".to_string(),
    });
    let baseline_text =
        std::fs::read_to_string(root.join("lint-ratchet.toml")).expect("committed baseline");
    let baseline = Ratchet::parse(&baseline_text).unwrap();
    let report = lint_files(&files, &Config::default(), Some(&baseline));
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::UnorderedCollections)
            .count(),
        1,
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn cli_check_exits_zero_on_the_workspace() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sinr-lint"))
        .args(["--check", "--root"])
        .arg(repo_root())
        .output()
        .expect("run sinr-lint binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "sinr-lint --check failed:\n{stdout}");
    assert!(stdout.contains("sinr-lint: clean"), "{stdout}");
}
