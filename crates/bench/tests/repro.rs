//! One producer per result: the `repro` registry names every committed
//! `results/*.txt` exactly once, and the binary reproduces them.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use coolpim_bench::repro::ARTIFACTS;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn registry_names_are_unique_and_match_the_committed_results() {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate names in {names:?}");

    let stems: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ is readable")
        .map(|e| e.expect("results/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| {
            p.file_stem()
                .expect("a .txt file has a stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let names: BTreeSet<String> = unique.iter().map(|n| n.to_string()).collect();
    assert_eq!(names, stems);
    assert_eq!(names.len(), 16);
}

#[test]
fn a_scale_independent_artifact_matches_its_committed_file_without_reading_the_scale() {
    // An unusable scale would make the graph build exit 2, so success
    // here also shows the artifact never touches the evaluation graph.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1_flits")
        .env("COOLPIM_SCALE", "abc")
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let committed = std::fs::read(results_dir().join("table1_flits.txt")).expect("committed file");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&committed)
    );
}

#[test]
fn unknown_artifacts_are_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig10_speedup")
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown artifact \"fig10_speedup\""));
}

/// `repro NAME...` at a small scale: its stdout, and stderr's cell count.
fn repro_at_scale_10(names: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(names)
        .env("COOLPIM_SCALE", "10")
        .env_remove("COOLPIM_PROFILE")
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    let count = stderr
        .lines()
        .find(|l| l.contains("declared cells"))
        .unwrap_or_default()
        .to_string();
    (String::from_utf8(out.stdout).expect("utf-8 text"), count)
}

#[test]
fn artifacts_run_together_print_what_they_print_alone() {
    let names = [
        "eval_all",
        "fig14_timeline",
        "ablation_epoch",
        "ablation_cooling",
    ];
    let (joint, count) = repro_at_scale_10(&names);
    // eval_all's 50 cells, Fig. 14's 3, the epoch ablation's 5 and the
    // cooling ablation's 4; Fig. 14's and one row of each ablation are
    // eval_all cells.
    assert_eq!(count, "# 57 co-simulations for 62 declared cells");
    let alone: String = names.iter().map(|n| repro_at_scale_10(&[n]).0).collect();
    assert_eq!(joint, alone);
}
