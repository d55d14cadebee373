//! `analyze` at its command line: it renders run records, refuses a
//! file that is not one by name, and the removed `--json` output is an
//! unknown argument.

use std::process::Command;

use coolpim_bench::runrec::RunRecord;

fn analyze(args: &[&std::path::Path]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("spawn analyze")
}

#[test]
fn a_file_that_is_not_a_run_record_exits_1_naming_it() {
    let dir = std::env::temp_dir().join(format!("coolpim-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let trace = dir.join("trace.jsonl");
    let empty = dir.join("empty.json");
    let missing = dir.join("missing.json");
    std::fs::write(
        &trace,
        "{\"kind\":\"KernelLaunch\",\"t_ps\":0,\"launch\":1}\n",
    )
    .expect("write trace");
    std::fs::write(&empty, "").expect("write empty");
    for path in [&trace, &empty, &missing] {
        let out = analyze(&[path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", path.display());
        assert!(
            stderr.contains(&format!("{}: ", path.display())),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "a report was printed for {}",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_run_record_renders_its_control_loop_kpis() {
    let dir = std::env::temp_dir().join(format!("coolpim-analyze-rec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join("run.json");
    let mut rec = RunRecord::new("pagerank-CoolPIM(SW)", "cfg");
    for (name, v) in [
        ("exec_s", 0.0002),
        ("throttle_steps", 1.0),
        ("counter.thermal_warnings_raised", 1.0),
        ("hist.warning_to_action_ps.p50", 134217728.0),
        ("counter.overshoot_episodes", 1.0),
        ("gauge.overshoot_s", 0.0001),
        ("gauge.derated_s", 0.0001),
        ("gauge.headroom_utilization", 1.095),
    ] {
        rec.push(name, v);
    }
    rec.write_to(&path).expect("write record");
    let out = analyze(&[&path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for line in [
        "== control loop ==  pagerank-CoolPIM(SW)  (0.0002 s sim)",
        // Absent counters read 0.
        "warnings raised/accepted/actions   1 / 0 / 1  (orphans 0)",
        "p50<=134217728 ps",
        "overshoot                          1 episodes, 0.0001 s, 0.0000 C*s",
        "derated time                       0.0001 s (50.0 % of run)",
        "thermal headroom utilization       1.095",
    ] {
        assert!(stdout.contains(line), "missing {line:?} in\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_json_output_flag_is_gone() {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--json", "reports.jsonl"])
        .output()
        .expect("spawn analyze");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument \"--json\""));
}
