//! Hostile specs from `tests/fixtures/hostile/`, plus one oversized spec
//! written at test time, end as named errors, and the process exits
//! normally: dropped into a spool for `runner serve --drain`, and read as
//! a spec directory by plain `runner --specs`.

use engine::json::Value;
use engine::spec::MAX_SPEC_BYTES;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What each corpus file's error must name, by file stem.
const CAUSES: [(&str, &str); 5] = [
    // 200 000 `[`: the parser's nesting limit, not the stack, stops it.
    ("nesting-200k", "nesting"),
    ("duplicate-key", "duplicate key"),
    // Validated although the backend is exact and never samples.
    ("confidence-1.5", "confidence"),
    // A mission grid ending at 1e308 s asks for a transient solve of
    // Poisson depth q·1e308; the depth cap refuses it before Fox–Glynn
    // allocates.
    ("mission-1e308", "Poisson depth"),
    // The rate shapes need a base index above 1; validation refuses it
    // before exploration evaluates a shape.
    ("detection-exponent-1", "exponent"),
];

/// A spec file one byte over [`MAX_SPEC_BYTES`], written at test time (the
/// corpus commits none), and what its error must name. Its text is valid
/// JSON, so only the size cap can refuse it.
const OVERSIZE: (&str, &str) = ("oversize", "size");

fn write_oversize(dir: &Path) {
    let padding = MAX_SPEC_BYTES + 1 - r#"{"name": ""}"#.len();
    let text = format!(r#"{{"name": "{}"}}"#, "x".repeat(padding));
    assert_eq!(text.len(), MAX_SPEC_BYTES + 1);
    fs::write(dir.join(format!("{}.json", OVERSIZE.0)), text).unwrap();
}

/// The committed corpus directory.
fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/hostile")
}

/// The stems of the corpus files, sorted, checked against [`CAUSES`].
fn corpus_stems() -> Vec<String> {
    let mut stems: Vec<String> = fs::read_dir(corpus())
        .unwrap()
        .map(|entry| {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_suffix(".json").unwrap().to_string()
        })
        .collect();
    stems.sort();
    let causes: BTreeMap<&str, &str> = CAUSES.into_iter().collect();
    assert_eq!(
        stems,
        causes.keys().copied().collect::<Vec<_>>(),
        "every corpus file needs an expected cause"
    );
    stems
}

/// Every file of the corpus, drained from one spool in one run, leaves
/// exactly one error artifact naming its cause, and the runner exits with
/// the documented failure code instead of dying of a signal.
#[test]
fn serve_drain_writes_one_named_error_artifact_per_hostile_file() {
    let root = std::env::temp_dir().join(format!("gcsids-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (spool, results) = (root.join("spool"), root.join("results"));
    fs::create_dir_all(&spool).unwrap();
    let stems = corpus_stems();
    for stem in &stems {
        let name = format!("{stem}.json");
        fs::copy(corpus().join(&name), spool.join(&name)).unwrap();
    }
    write_oversize(&spool);
    let causes: BTreeMap<&str, &str> = CAUSES.into_iter().chain([OVERSIZE]).collect();

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
    let expected: Vec<String> = causes.keys().map(|s| format!("{s}.error.json")).collect();
    assert_eq!(artifacts, expected);
    for (stem, cause) in &causes {
        let error = fs::read_to_string(results.join(format!("{stem}.error.json"))).unwrap();
        assert!(error.contains(cause), "{stem}: {error}");
    }
    assert!(fs::read_dir(&spool).unwrap().next().is_none());
    fs::remove_dir_all(&root).unwrap();
}

/// Plain `runner --specs` over the corpus (and the oversized file): every
/// file is one entry of the report's `failures`, naming its cause, and the
/// runner exits with the documented failure code.
#[test]
fn runner_specs_names_one_failure_per_hostile_file() {
    let root = std::env::temp_dir().join(format!("gcsids-hostile-specs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let specs = root.join("specs");
    fs::create_dir_all(&specs).unwrap();
    let mut stems = corpus_stems();
    for stem in &stems {
        let name = format!("{stem}.json");
        fs::copy(corpus().join(&name), specs.join(&name)).unwrap();
    }
    write_oversize(&specs);
    stems.push(OVERSIZE.0.to_string());
    stems.sort();
    let report = root.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_runner"))
        .arg("--specs")
        .arg(&specs)
        .arg("--out")
        .arg(&report)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");

    let report = Value::parse(&fs::read_to_string(&report).unwrap()).unwrap();
    assert!(report.field("specs").unwrap().as_arr().unwrap().is_empty());
    let mut failures: Vec<(String, String)> = (report.field("failures").unwrap())
        .as_arr()
        .unwrap()
        .iter()
        .map(|f| {
            let spec = f.field("spec").unwrap().as_str().unwrap();
            let stem = Path::new(spec).file_stem().unwrap().to_string_lossy();
            let error = f.field("error").unwrap().as_str().unwrap();
            (stem.into_owned(), error.to_string())
        })
        .collect();
    failures.sort();
    let named: Vec<&str> = failures.iter().map(|(stem, _)| stem.as_str()).collect();
    assert_eq!(named, stems, "one failure per corpus file");
    let causes: BTreeMap<&str, &str> = CAUSES.into_iter().chain([OVERSIZE]).collect();
    for (stem, error) in &failures {
        assert!(error.contains(causes[stem.as_str()]), "{stem}: {error}");
    }
    fs::remove_dir_all(&root).unwrap();
}
