//! Hostile specs from `tests/fixtures/hostile/` dropped into a spool end
//! as named error artifacts, and the service exits normally.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

/// What each corpus file's error artifact must name, by file stem.
const CAUSES: [(&str, &str); 4] = [
    // 200 000 `[`: the parser's nesting limit, not the stack, stops it.
    ("nesting-200k", "nesting"),
    ("duplicate-key", "duplicate key"),
    // Validated although the backend is exact and never samples.
    ("confidence-1.5", "confidence"),
    // A mission grid ending at 1e308 s asks for a transient solve of
    // Poisson depth q·1e308; the depth cap refuses it before Fox–Glynn
    // allocates.
    ("mission-1e308", "Poisson depth"),
];

/// Every file of the corpus, drained from one spool in one run, leaves
/// exactly one error artifact naming its cause, and the runner exits with
/// the documented failure code instead of dying of a signal.
#[test]
fn serve_drain_writes_one_named_error_artifact_per_hostile_file() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/hostile");
    let root = std::env::temp_dir().join(format!("gcsids-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (spool, results) = (root.join("spool"), root.join("results"));
    fs::create_dir_all(&spool).unwrap();
    let mut stems = Vec::new();
    for entry in fs::read_dir(&corpus).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        stems.push(name.strip_suffix(".json").unwrap().to_string());
        fs::copy(&path, spool.join(&name)).unwrap();
    }
    stems.sort();
    let causes: BTreeMap<&str, &str> = CAUSES.into_iter().collect();
    assert_eq!(
        stems,
        causes.keys().copied().collect::<Vec<_>>(),
        "every corpus file needs an expected cause"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_runner"))
        .arg("serve")
        .arg("--spool")
        .arg(&spool)
        .arg("--results")
        .arg(&results)
        .args(["--workers", "1", "--drain"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Exit code 1 means "a spec failed"; a signal (abort) has no code.
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("{} failed", causes.len())),
        "stderr: {stderr}"
    );

    let mut artifacts: Vec<String> = fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != "service.summary.json")
        .collect();
    artifacts.sort();
    let expected: Vec<String> = stems.iter().map(|s| format!("{s}.error.json")).collect();
    assert_eq!(artifacts, expected);
    for (stem, cause) in &causes {
        let error = fs::read_to_string(results.join(format!("{stem}.error.json"))).unwrap();
        assert!(error.contains(cause), "{stem}: {error}");
    }
    assert!(fs::read_dir(&spool).unwrap().next().is_none());
    fs::remove_dir_all(&root).unwrap();
}
