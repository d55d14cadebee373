//! `sim` at its command line: scales outside the accepted range are
//! usage errors, and a live run's record times its setup.

use std::process::Command;

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
}
