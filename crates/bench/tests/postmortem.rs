//! `postmortem` rejects a missing or malformed bundle with exit status 1
//! and a diagnostic that names the file once.

use std::process::Command;

fn postmortem_fails_naming_once(path: &std::path::Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_postmortem"))
        .arg(path)
        .output()
        .expect("run postmortem");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = path.display().to_string();
    assert_eq!(stderr.matches(name.as_str()).count(), 1, "{stderr}");
}

#[test]
fn missing_and_malformed_bundles_are_reported_once() {
    let dir = std::env::temp_dir().join(format!("coolpim_postmortem_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    postmortem_fails_naming_once(&dir.join("missing.jsonl"));
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"bad\":1}\n").expect("write bundle");
    postmortem_fails_naming_once(&bad);
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
