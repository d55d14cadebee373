//! `sim` at its command line: scales outside the accepted range and
//! non-finite warning thresholds are usage errors, the sweep modes refuse
//! the per-run flags they would ignore, a single run refuses a trace
//! rotation budget without a trace or of 0 MB, a replay refuses the
//! flags the trace already fixes, a live run's record times its setup, a
//! timeline sent to a redirected stdout survives the summary, and a trace
//! that loses writes fails the run.

use std::fs::File;
use std::process::{Command, Stdio};

use coolpim_bench::RunRecord;

#[test]
fn scales_outside_the_accepted_range_exit_2_with_a_diagnostic() {
    for scale in ["33", "7"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sim"))
            .args(["--scale", scale])
            .output()
            .expect("spawn sim");
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--scale {scale} out of range 8..=24")),
            "--scale {scale}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--scale {scale}: {stderr}");
    }
}

/// Runs `sim` with `args`, expecting exit 2 with a diagnostic that
/// contains `needle` and no panic.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(args)
        .output()
        .expect("spawn sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn non_finite_warning_thresholds_exit_2() {
    for c in ["nan", "inf", "-inf", "NaN"] {
        assert_usage_error(
            &["--warning-threshold", c],
            &format!("--warning-threshold {c} is not a finite temperature"),
        );
    }
}

/// Every flag only a single run reads, with a value where it takes one.
const PER_RUN_FLAGS: &[&[&str]] = &[
    &["--graph", "edges.txt"],
    &["--trace", "t.jsonl"],
    &["--trace-rotate-mb", "8"],
    &["--timeline-out", "t.csv"],
    &["--trace-timeline", "t.json"],
    &["--profile"],
    &["--flight-recorder"],
    &["--postmortem-dir", "pm"],
    &["--heartbeat", "5"],
    &["--record-trace", "t.cptr"],
];

#[test]
fn sweep_modes_refuse_the_per_run_flags_they_would_ignore() {
    let record_flag: &[&str] = &["--metrics-out", "m.json"];
    for flag in PER_RUN_FLAGS.iter().chain([&record_flag]) {
        let mut args = vec!["--matrix", "--scale", "10"];
        args.extend_from_slice(flag);
        assert_usage_error(
            &args,
            &format!(
                "--matrix makes many runs and would ignore the per-run flag(s) {}",
                flag[0]
            ),
        );
    }
    for flag in PER_RUN_FLAGS {
        let mut args = vec!["--seed-list", "1,2", "--scale", "10"];
        args.extend_from_slice(flag);
        assert_usage_error(
            &args,
            &format!(
                "--seed-list makes many runs and would ignore the per-run flag(s) {}",
                flag[0]
            ),
        );
    }
    // Every ignored flag is named, not just the first.
    assert_usage_error(
        &["--seed-list", "1,2", "--profile", "--heartbeat", "1"],
        "per-run flag(s) --profile --heartbeat;",
    );
    assert_usage_error(
        &["--seed-list", "1,2", "--matrix"],
        "--matrix and --seed-list are separate sweep modes",
    );
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for flag in [
        &["--timeline"][..],
        &["-t"],
        &["--replicates", "2"],
        &["--run-record", "runs"],
    ] {
        assert_usage_error(flag, &format!("unknown argument {:?}", flag[0]));
    }
}

#[test]
fn a_single_run_refuses_a_rotation_budget_without_a_trace() {
    assert_usage_error(
        &["--scale", "10", "--trace-rotate-mb", "8"],
        "--trace-rotate-mb caps the --trace file; give --trace too",
    );
}

#[test]
fn a_rotation_budget_of_zero_is_a_usage_error() {
    assert_usage_error(
        &[
            "--scale",
            "10",
            "--trace",
            "t.jsonl",
            "--trace-rotate-mb",
            "0",
        ],
        "--trace-rotate-mb 0 leaves no room for a trace part",
    );
    assert!(!std::path::Path::new("t.jsonl").exists());
}

#[test]
fn a_replay_refuses_the_workload_and_graph_flags() {
    // The trace file need not exist: the flags are checked first.
    let replay = ["--replay", "absent.cptr"];
    for flag in [
        &["--workload", "bfs-ta"][..],
        &["-w", "bfs-ta"],
        &["--scale", "12"],
        &["-s", "12"],
        &["--degree", "8"],
        &["--seed", "9"],
        &["--graph", "edges.txt"],
        &["--record-trace", "t.cptr"],
    ] {
        let canonical = match flag[0] {
            "-w" => "--workload",
            "-s" => "--scale",
            f => f,
        };
        let args: Vec<&str> = replay.iter().chain(flag).copied().collect();
        assert_usage_error(
            &args,
            &format!(
                "--replay takes the workload and graph from the trace and would ignore {canonical}"
            ),
        );
    }
    // Every flag given is named, each once, and a sweep mode does not
    // bypass the check.
    assert_usage_error(
        &[
            "--replay",
            "absent.cptr",
            "--matrix",
            "--scale",
            "12",
            "--seed",
            "9",
            "--scale",
            "13",
        ],
        "would ignore --scale --seed\n",
    );
}

#[test]
fn replicates_keep_their_run_record() {
    let path = std::env::temp_dir().join(format!("coolpim-sim-reps-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(["--workload", "dc", "--scale", "10", "--seed-list", "1,2"])
        .arg("--metrics-out")
        .arg(&path)
        .output()
        .expect("spawn sim");
    assert!(
        out.status.success(),
        "sim --seed-list failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let record = RunRecord::load(&path).expect("the replicated record parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(record.seeds, [1, 2]);
    assert!(record.metric("exec_s").is_some_and(|s| s > 0.0));
}

#[test]
fn a_live_run_records_its_graph_and_kernel_setup_times() {
    let out = std::env::temp_dir().join(format!("coolpim-sim-setup-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(["--workload", "dc", "--scale", "10", "--metrics-out"])
        .arg(&out)
        .status()
        .expect("spawn sim");
    assert!(status.success(), "sim failed");
    let record = RunRecord::load(&out).expect("the run record parses");
    std::fs::remove_file(&out).ok();
    for key in ["setup.graph_s", "setup.kernel_s"] {
        let v = record.metric(key);
        assert!(v.is_some_and(|s| s > 0.0), "{key} = {v:?}");
    }
    // A run without write failures leaves its record without the counter.
    assert_eq!(record.metric("counter.trace_dropped_writes"), None);
}

#[test]
fn a_timeline_on_redirected_stdout_precedes_the_summary() {
    let path = std::env::temp_dir().join(format!("coolpim-sim-stdout-{}.txt", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(["--workload", "dc", "--scale", "10"])
        .args(["--timeline-out", "/dev/stdout"])
        .stdout(Stdio::from(
            File::create(&path).expect("create stdout file"),
        ))
        .status()
        .expect("spawn sim");
    assert!(status.success(), "sim failed");
    let text = std::fs::read_to_string(&path).expect("read stdout file");
    std::fs::remove_file(&path).ok();
    assert!(
        text.starts_with("t_ms,pim_rate_op_ns,data_bw_gbps,peak_dram_c,phase\n"),
        "{text}"
    );
    assert!(text.lines().any(|l| l.starts_with("workload ")), "{text}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_trace_that_loses_writes_fails_the_run() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("coolpim-sim-full-{}.json", std::process::id()));
    let sim = |trace: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_sim"))
            .args(["--workload", "dc", "--scale", "10", "--trace"])
            .arg(trace)
            .arg("--metrics-out")
            .arg(&path)
            .output()
            .expect("spawn sim")
    };
    // The same run with a working trace: the events a full disk loses.
    let whole = dir.join(format!("coolpim-sim-whole-{}.jsonl", std::process::id()));
    assert!(sim(&whole).status.success());
    let events = std::fs::read_to_string(&whole)
        .expect("trace")
        .lines()
        .count();
    std::fs::remove_file(&whole).ok();
    let out = sim(std::path::Path::new("/dev/full"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("trace /dev/full is incomplete: "),
        "{stderr}"
    );
    let record = RunRecord::load(&path).expect("the run record parses");
    std::fs::remove_file(&path).ok();
    let dropped = record.metric("counter.trace_dropped_writes");
    assert_eq!(dropped, Some(events as f64), "every lost event counted");
    assert!(
        stderr.contains(&format!(": {events} event(s) lost")),
        "{stderr}"
    );
}
