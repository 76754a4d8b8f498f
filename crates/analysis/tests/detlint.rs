//! Analyzer self-tests: the fixture corpus pins exact finding counts per
//! rule, the JSON report encoding is byte-stable, and — the actual
//! contract gate — the real workspace tree scans clean.

use analysis::{scan_source, scan_workspace, Rule};
use std::path::Path;

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

/// Scan a fixture under a synthetic path that puts `rule` in scope.
fn scan_fixture(name: &str, rule: Rule) -> analysis::Report {
    // R001 only applies inside the engine crate; the others use a neutral
    // path (outside bench / the numerics seed grid). U001 audits library
    // code, so its fixtures scan as a library file; the other fixtures
    // define `pub fn`s nothing calls, so they scan as a binary, where U001
    // does not apply.
    let path = match rule {
        Rule::R001 => "crates/engine/src/bin/fixture.rs",
        Rule::U001 => "crates/x/src/fixture.rs",
        _ => "crates/x/src/bin/fixture.rs",
    };
    scan_source(path, &fixture(name))
}

#[test]
fn violating_fixtures_pin_exact_counts() {
    let expectations = [
        ("d001_violating.rs", Rule::D001, 3),
        ("d002_violating.rs", Rule::D002, 2),
        ("d003_violating.rs", Rule::D003, 2),
        ("d004_violating.rs", Rule::D004, 1),
        ("d004_violating_gather.rs", Rule::D004, 1),
        ("r001_violating.rs", Rule::R001, 3),
        ("u001_violating.rs", Rule::U001, 10),
    ];
    for (name, rule, expected) in expectations {
        let report = scan_fixture(name, rule);
        let of_rule = report.findings.iter().filter(|f| f.rule == rule).count();
        assert_eq!(of_rule, expected, "{name}: {rule:?} finding count");
        // Every finding in a violating fixture is active (no allows).
        assert_eq!(
            report.active().filter(|f| f.rule == rule).count(),
            expected,
            "{name}: all {rule:?} findings must be unsuppressed"
        );
    }
}

#[test]
fn clean_fixtures_have_zero_findings() {
    for (name, rule) in [
        ("d001_clean.rs", Rule::D001),
        ("d002_clean.rs", Rule::D002),
        ("d003_clean.rs", Rule::D003),
        ("d004_clean.rs", Rule::D004),
        ("r001_clean.rs", Rule::R001),
        ("u001_clean.rs", Rule::U001),
    ] {
        let report = scan_fixture(name, rule);
        assert!(
            report.findings.is_empty(),
            "{name} must scan clean, got {:?}",
            report.findings
        );
        assert!(report.is_clean());
    }
}

/// D004's one carve-out is the executor itself, `numerics/src/exec.rs`:
/// the gather kernels are sequential, so a gather-shaped threaded
/// reduction fires in `sparse.rs` exactly as it does anywhere else, and
/// every rule applies to that file.
#[test]
fn d004_sparse_kernel_carveout_is_one_file_wide() {
    let text = fixture("d004_violating_gather.rs");
    let exec = scan_source("crates/numerics/src/exec.rs", &text);
    assert!(exec.findings.iter().all(|f| f.rule != Rule::D004));
    for path in [
        "crates/numerics/src/sparse.rs",
        "crates/numerics/src/stats.rs",
        "crates/spn/src/transient.rs",
    ] {
        let report = scan_source(path, &text);
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.rule == Rule::D004)
                .count(),
            1,
            "{path}: gather-shaped threaded reduction must fire"
        );
    }
    assert_eq!(
        analysis::rules::rules_for_path("crates/numerics/src/sparse.rs"),
        analysis::rules::rules_for_path("crates/numerics/src/stats.rs"),
    );
}

#[test]
fn json_report_is_byte_stable() {
    let text = fixture("d001_violating.rs");
    let a = scan_source("crates/x/src/fixture.rs", &text).to_json();
    let b = scan_source("crates/x/src/fixture.rs", &text).to_json();
    assert_eq!(a, b, "same input must yield byte-identical JSON");
    // Structural spot checks so the format cannot silently drift.
    assert!(a.starts_with("{\"clean\":false,\"files_scanned\":1,\"findings\":["));
    assert!(a.contains("\"rule\":\"D001\""));
    assert!(a.contains("\"suppression\":null"));
    assert!(a.ends_with("\"version\":1}"));
}

#[test]
fn suppressed_findings_keep_reason_in_json() {
    let src = "// detlint::allow(D002): fixture timing probe\n\
               fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
    let report = scan_source("crates/x/src/fixture.rs", src);
    assert!(report.is_clean());
    let json = report.to_json();
    assert!(json.contains("\"suppression\":\"fixture timing probe\""));
    assert!(json.contains("\"clean\":true"));
}

#[test]
fn workspace_tree_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = scan_workspace(&root).expect("workspace scan succeeds");
    assert!(report.files_scanned > 50, "scan must cover the real tree");
    let active: Vec<_> = report.active().collect();
    assert!(
        active.is_empty(),
        "unsuppressed findings in the workspace: {active:?}"
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale allows: {:?}",
        report.stale_allows
    );
    assert!(
        report.malformed_allows.is_empty(),
        "malformed allows: {:?}",
        report.malformed_allows
    );
    assert!(report.is_clean());
    // The allow-list cannot grow without a visible diff here: the reasoned
    // suppressions per rule are pinned exactly.
    let counts: Vec<(&str, usize, usize)> = report
        .counts()
        .into_iter()
        .map(|(id, c)| (id, c.active, c.suppressed))
        .collect();
    assert_eq!(
        counts,
        [
            ("D001", 0, 0),
            ("D002", 0, 3),
            ("D003", 0, 5),
            ("D004", 0, 1),
            ("R001", 0, 5),
            ("U001", 0, 18),
        ]
    );
}
