//! Fixture-corpus test: every known-bad snippet is flagged at exactly the
//! right `file:line`, lexer edge cases are NOT flagged, and the ratchet
//! comparison rejects growth.

use std::path::{Path, PathBuf};

use sinr_lint::{lint_files, Config, Ratchet, Rule, Workspace};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("bad_workspace")
}

fn zero_baseline() -> Ratchet {
    Ratchet {
        counts: [("geometry", 0), ("phy", 0), ("runtime", 0)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        unsafe_counts: [("geometry", 0)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

#[test]
fn every_bad_snippet_flagged_at_its_line() {
    let ws = Workspace::load(&fixture_root()).unwrap();
    assert_eq!(ws.files.len(), 10, "fixture corpus drifted: {ws:?}");
    let report = lint_files(&ws.files, &Config::default(), Some(&zero_baseline()));

    let got: Vec<(&str, usize, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.as_str(), d.line, d.rule))
        .collect();
    let expected: Vec<(&str, usize, Rule)> = vec![
        // Under an allowed SIMD path the missing-SAFETY contract applies.
        ("crates/geometry/src/simd/kernel.rs", 5, Rule::ForbidUnsafe),
        ("crates/phy/src/lib.rs", 1, Rule::ForbidUnsafe),
        ("crates/phy/src/noisy.rs", 4, Rule::QuietLibraries),
        ("crates/phy/src/noisy.rs", 5, Rule::QuietLibraries),
        ("crates/phy/src/noisy.rs", 6, Rule::QuietLibraries),
        ("crates/phy/src/parallel.rs", 4, Rule::ParallelismResolver),
        // A `simd/` directory outside the allowlist is no excuse.
        ("crates/phy/src/simd/kernel.rs", 5, Rule::ForbidUnsafe),
        ("crates/phy/src/unordered.rs", 4, Rule::UnorderedCollections),
        // Outside the allowlist, location is the violation — twice, and
        // the SAFETY comment on line 8 does not excuse line 9.
        ("crates/phy/src/unsound.rs", 4, Rule::ForbidUnsafe),
        ("crates/phy/src/unsound.rs", 9, Rule::ForbidUnsafe),
        ("crates/phy/src/wallclock.rs", 4, Rule::WallClock),
        ("crates/phy/src/wallclock.rs", 5, Rule::WallClock),
        ("crates/phy/src/wallclock.rs", 6, Rule::WallClock),
        // The seeded unwrap in panicky.rs (1) exceeds the zero baseline;
        // line 8 is phy's entry in the canonical baseline rendering.
        ("lint-ratchet.toml", 8, Rule::PanicRatchet),
        // The seeded unsafe in geometry's simd/kernel.rs (1) exceeds the
        // zero `[unsafe-blocks]` baseline; line 14 is geometry's entry
        // there. Phy's unsafe sits outside the allowlist, so it is
        // flagged in place and never counted.
        ("lint-ratchet.toml", 14, Rule::ForbidUnsafe),
    ];
    assert_eq!(got, expected, "full diagnostics: {:#?}", report.diagnostics);
}

#[test]
fn lexer_edge_fixture_is_silent() {
    let ws = Workspace::load(&fixture_root()).unwrap();
    let edge: Vec<_> = ws
        .files
        .iter()
        .filter(|f| f.rel_path.ends_with("lexer_edges.rs"))
        .cloned()
        .collect();
    assert_eq!(edge.len(), 1);
    let report = lint_files(&edge, &Config::default(), Some(&zero_baseline()));
    assert!(
        report.diagnostics.is_empty(),
        "lexer edge cases misfired: {:#?}",
        report.diagnostics
    );
}

#[test]
fn correct_baseline_clears_the_ratchet() {
    let ws = Workspace::load(&fixture_root()).unwrap();
    let mut baseline = zero_baseline();
    baseline.counts.insert("phy".to_string(), 1);
    baseline.unsafe_counts.insert("geometry".to_string(), 1);
    let report = lint_files(&ws.files, &Config::default(), Some(&baseline));
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.path == "lint-ratchet.toml"),
        "{:#?}",
        report.diagnostics
    );
    assert_eq!(report.panic_counts.get("phy"), Some(&1));
    assert_eq!(report.unsafe_counts.get("geometry"), Some(&1));
    assert_eq!(report.unsafe_counts.get("phy"), None);
}

#[test]
fn shrunk_surface_reports_improvement_not_failure() {
    let ws = Workspace::load(&fixture_root()).unwrap();
    let mut baseline = zero_baseline();
    baseline.counts.insert("phy".to_string(), 5);
    let report = lint_files(&ws.files, &Config::default(), Some(&baseline));
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.rule == Rule::PanicRatchet));
    assert_eq!(report.improvements.len(), 1);
    assert_eq!(report.improvements[0].krate, "phy");
    assert_eq!(report.improvements[0].actual, 1);
}

#[test]
fn missing_baseline_is_a_failure() {
    let ws = Workspace::load(&fixture_root()).unwrap();
    let report = lint_files(&ws.files, &Config::default(), None);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::PanicRatchet && d.message.contains("missing")),
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn cli_check_exits_nonzero_on_fixtures_with_file_line_output() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sinr-lint"))
        .args(["--check", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run sinr-lint binary");
    assert!(!out.status.success(), "fixture corpus must fail --check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "crates/phy/src/unordered.rs:4: [unordered-collections]",
        "crates/phy/src/wallclock.rs:4: [wall-clock]",
        "crates/phy/src/noisy.rs:4: [quiet-libraries]",
        "crates/phy/src/parallel.rs:4: [parallelism-resolver]",
        "crates/phy/src/unsound.rs:4: [forbid-unsafe]",
        "crates/geometry/src/simd/kernel.rs:5: [forbid-unsafe]",
        "crates/phy/src/simd/kernel.rs:5: [forbid-unsafe]",
        "outside the SIMD allowlist",
        "crates/phy/src/lib.rs:1: [forbid-unsafe]",
        "[panic-ratchet]",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}
