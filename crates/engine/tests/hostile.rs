//! Hostile specs from `tests/fixtures/hostile/` dropped into a spool end
//! as named error artifacts, and the service exits normally.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn hostile(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/hostile")
        .join(name)
}

/// A mission grid ending at 1e308 s asks for a transient solve of Poisson
/// depth q·1e308. The depth cap refuses it before Fox–Glynn allocates,
/// so the drain writes one error artifact and exits with the documented
/// failure code instead of dying of an allocation abort.
#[test]
fn serve_drain_writes_one_error_artifact_for_a_1e308_mission_grid() {
    let root = std::env::temp_dir().join(format!("gcsids-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (spool, results) = (root.join("spool"), root.join("results"));
    fs::create_dir_all(&spool).unwrap();
    fs::copy(
        hostile("mission-1e308.json"),
        spool.join("mission-1e308.json"),
    )
    .unwrap();

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
    assert!(stderr.contains("1 failed"), "stderr: {stderr}");

    let mut artifacts: Vec<String> = fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != "service.summary.json")
        .collect();
    artifacts.sort();
    assert_eq!(artifacts, ["mission-1e308.error.json"]);
    let error = fs::read_to_string(results.join("mission-1e308.error.json")).unwrap();
    assert!(error.contains("Poisson depth"), "{error}");
    assert!(fs::read_dir(&spool).unwrap().next().is_none());
    fs::remove_dir_all(&root).unwrap();
}
