//! End-to-end acceptance tests for the statistical observatory: the
//! `sim --seed-list` replicate runner, the `obs gate` noise-aware
//! regression gate (pass on an unchanged tree, non-zero with a named
//! metric + effect size on an inflated one), and the `obs report`
//! longitudinal view of a directory of run records (`--runs` required).

use std::path::{Path, PathBuf};
use std::process::Command;

use coolpim_bench::runrec::RunRecord;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("coolpim-observatory-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Runs `sim` with three fixed seeds at a tiny scale, writing the
/// folded replicated record to `out`.
fn run_replicated_sim(out: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args([
            "--scale",
            "10",
            "--warning-threshold",
            "30",
            "--seed-list",
            "1,2,3",
            "--metrics-out",
        ])
        .arg(out)
        .status()
        .expect("spawn sim");
    assert!(status.success(), "sim --seed-list failed");
}

#[test]
fn gate_passes_unchanged_and_fails_inflated() {
    let dir = tmpdir("gate");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    run_replicated_sim(&a);
    run_replicated_sim(&b);

    // Unchanged tree, ≥ 3 replicates a side: the gate must pass.
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(["gate", "run"])
        .arg(&b)
        .arg("--baseline")
        .arg(&a)
        .output()
        .expect("spawn obs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean gate failed:\n{stdout}");
    assert!(stdout.contains("PASS"), "no PASS verdict:\n{stdout}");
    assert!(
        stdout.contains("3v3"),
        "expected 3v3 sample counts:\n{stdout}"
    );

    // Synthetically inflated metric: non-zero exit, FAIL line naming
    // the metric and its effect size.
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(["gate", "run"])
        .arg(&b)
        .arg("--baseline")
        .arg(&a)
        .args(["--inflate", "exec_s=1.5"])
        .output()
        .expect("spawn obs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "inflated gate must exit 1:\n{stdout}"
    );
    assert!(
        stdout.contains("FAIL: exec_s regressed"),
        "FAIL line must name the metric:\n{stdout}"
    );
    assert!(
        stdout.contains("σ"),
        "FAIL line must carry the effect size:\n{stdout}"
    );

    // Self-test inversion: with --expect-regression the same invocation
    // succeeds (and would fail on a quiet gate).
    let status = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(["gate", "run"])
        .arg(&b)
        .arg("--baseline")
        .arg(&a)
        .args(["--inflate", "exec_s=1.5", "--expect-regression"])
        .status()
        .expect("spawn obs");
    assert!(
        status.success(),
        "--expect-regression must succeed on a fired gate"
    );
    let status = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(["gate", "run"])
        .arg(&b)
        .arg("--baseline")
        .arg(&a)
        .arg("--expect-regression")
        .status()
        .expect("spawn obs");
    assert_eq!(
        status.code(),
        Some(1),
        "--expect-regression must fail when the gate stays quiet"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_names_every_metric_trend_across_a_run_store() {
    // Two captures of one configuration: same config hash, so the
    // report folds them into one group's history.
    let dir = tmpdir("report");
    let runs = dir.join("runs");
    let metrics = ["exec_s", "max_peak_dram_c", "throttle_steps"];
    for (i, factor) in [1.0, 1.25].into_iter().enumerate() {
        let mut rec = RunRecord::new("dc-coolpim-sw", "workload=dc policy=coolpim-sw");
        rec.unix_time_s = 1_000 + i as u64;
        for (k, m) in metrics.iter().enumerate() {
            rec.push(m, factor * (k + 1) as f64);
        }
        rec.write_to(&runs.join(format!("run{i}.json")))
            .expect("write record");
    }

    let md_path = dir.join("observatory.md");
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .arg("report")
        .arg("--runs")
        .arg(&runs)
        .arg("--md")
        .arg(&md_path)
        .output()
        .expect("spawn obs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("dc-coolpim-sw") && stdout.contains("2 record(s)"),
        "{stdout}"
    );

    // Every metric of the records must appear with a trend
    // classification.
    for metric in metrics {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(metric))
            .unwrap_or_else(|| panic!("report has no line for {metric}:\n{stdout}"));
        assert!(
            ["flat", "noise", "SIGNAL"].iter().any(|c| line.contains(c)),
            "no classification on: {line}"
        );
    }

    let md = std::fs::read_to_string(&md_path).expect("markdown written");
    assert!(md.contains("# Cross-run observatory"));
    assert!(md.contains("| `exec_s` |"), "markdown lacks metric rows");

    // `report` reads run stores only; any other flag is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(["report", "--bench", "x.json"])
        .output()
        .expect("spawn obs");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_without_runs_is_a_usage_error() {
    // There is no default store: `--runs DIR` names what to read.
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .arg("report")
        .output()
        .expect("spawn obs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("report needs --runs DIR"), "{stderr}");
    assert!(stderr.contains("usage: obs report --runs DIR"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report without a source");
}
