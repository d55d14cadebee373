//! `analyze` at its command line: a file in which no line parses as a
//! trace event is refused by name, not reported as an empty run, and the
//! removed `--json` output is an unknown argument.

use std::process::Command;

#[test]
fn a_file_without_one_trace_event_exits_1_naming_it() {
    let dir = std::env::temp_dir().join(format!("coolpim-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let garbage = dir.join("garbage.txt");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&garbage, "not a trace\n{\"kind\":\"Nope\"}\n").expect("write garbage");
    std::fs::write(&empty, "").expect("write empty");
    for path in [&garbage, &empty] {
        let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
            .arg(path)
            .output()
            .expect("spawn analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", path.display());
        assert!(
            stderr.contains(&format!("{}: no line parses", path.display())),
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
fn the_json_output_flag_is_gone() {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--json", "reports.jsonl"])
        .output()
        .expect("spawn analyze");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument \"--json\""));
}
