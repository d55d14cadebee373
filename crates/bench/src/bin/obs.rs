//! `obs` — the cross-run statistical observatory CLI.
//!
//! ```text
//! obs report --runs DIR [--runs DIR]... [--md PATH]
//! obs gate SET CURRENT [--baseline FILE] [--md PATH]
//!          [--inflate METRIC=FACTOR] [--expect-regression]
//! ```
//!
//! **`obs report`** scans the `--runs` directories (at least one) of
//! flat-JSON run records, such as a directory of `sim --metrics-out`
//! files, groups records by configuration hash, and renders each
//! group's longitudinal history: per-metric sparkline, first/last
//! values, detected change-points, and a noise-vs-signal
//! classification. The terminal dashboard always prints; `--md`
//! additionally writes the Markdown report artifact.
//!
//! **`obs gate`** is the one regression gate: it checks CURRENT
//! against the named gate set (see `coolpim_bench::gate`, which holds
//! every threshold). `run`, `profile` and `overhead` read a run
//! record; `trace` reads a `sim --trace-timeline` Chrome timeline;
//! `control-loop` reads `analyze --json` reports.
//! `run` and `profile` compare against `--baseline`; with replicated
//! records on both sides a band excursion must also be statistically
//! significant to fail. `--md` additionally writes the table as
//! Markdown. Exit status: 0 pass, 1 regression, 2 usage/IO error.
//!
//! `--inflate METRIC=FACTOR` multiplies the *current* side's metric
//! (headline and distribution samples) before gating — a self-test knob
//! so CI can prove each gate actually fires; `--expect-regression`
//! inverts the verdict: exit 0 only if the gate DID fail (on the
//! inflated metric, when `--inflate` was given).

use std::path::{Path, PathBuf};

use coolpim_bench::gate::{self, inflate, Report, SETS};
use coolpim_bench::obs::{group_by_config, render_markdown, render_terminal, scan_records};
use coolpim_bench::runrec::RunRecord;

fn usage() -> ! {
    let sets: Vec<&str> = SETS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: obs report --runs DIR [--runs DIR]... [--md PATH]\n\
         \x20      obs gate SET CURRENT [--baseline FILE] [--md PATH]\n\
         \x20              [--inflate METRIC=FACTOR] [--expect-regression]\n\
         sets: {}",
        sets.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("report") => report(&argv[1..]),
        Some("gate") => gate(&argv[1..]),
        _ => usage(),
    }
}

fn take(argv: &[String], i: &mut usize) -> String {
    *i += 1;
    argv.get(*i).cloned().unwrap_or_else(|| usage())
}

fn report(argv: &[String]) {
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut md: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--runs" => runs.push(take(argv, &mut i).into()),
            "--md" => md = Some(take(argv, &mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if runs.is_empty() {
        eprintln!("obs: report needs --runs DIR");
        usage();
    }

    let (records, warnings) = scan_records(&runs);
    let groups = group_by_config(records);

    print!("{}", render_terminal(&groups, &warnings));
    if let Some(path) = md {
        let doc = render_markdown(&groups, &warnings);
        if let Err(e) = std::fs::write(&path, doc) {
            fail_io(format!("failed to write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
}

fn fail_io(e: String) -> ! {
    eprintln!("obs: {e}");
    std::process::exit(2);
}

fn gate(argv: &[String]) {
    let mut positional: Vec<&str> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut md: Option<String> = None;
    let mut inflation: Option<(String, f64)> = None;
    let mut expect_regression = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--baseline" => baseline = Some(take(argv, &mut i)),
            "--md" => md = Some(take(argv, &mut i)),
            "--inflate" => {
                let v = take(argv, &mut i);
                let (m, f) = v.split_once('=').unwrap_or_else(|| usage());
                inflation = Some((m.to_string(), f.parse().unwrap_or_else(|_| usage())));
            }
            "--expect-regression" => expect_regression = true,
            flag if flag.starts_with("--") => usage(),
            arg => positional.push(arg),
        }
        i += 1;
    }
    let [set_name, cpath] = positional[..] else {
        usage()
    };
    let Some(set) = gate::set(set_name) else {
        eprintln!("obs: unknown gate set {set_name:?}");
        usage()
    };
    if set.needs_baseline() && baseline.is_none() {
        eprintln!("obs: gate set {set_name} needs --baseline");
        usage();
    }
    let base = baseline
        .as_deref()
        .map(|p| RunRecord::load(Path::new(p)).unwrap_or_else(|e| fail_io(e)));
    let (mut cur, notes) = set.load(Path::new(cpath)).unwrap_or_else(|e| fail_io(e));
    if let Some((metric, factor)) = &inflation {
        eprintln!("# self-test: inflating current {metric} by {factor}x");
        inflate(&mut cur, metric, *factor);
    }

    let report = Report::new(set, base.as_ref(), &cur);
    let bname = baseline.as_deref().unwrap_or("-");
    for note in &notes {
        println!("# {note}");
    }
    print!("{}", report.render(bname, cpath));
    if let Some(path) = md {
        if let Err(e) = std::fs::write(&path, report.render_markdown(bname, cpath)) {
            fail_io(format!("failed to write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }

    let failures = report.failures();
    if expect_regression {
        // Self-test mode: the gate MUST have fired — on the inflated
        // metric specifically, when one was named.
        let hit = match &inflation {
            Some((metric, _)) => failures.iter().any(|r| r.metric == *metric),
            None => !failures.is_empty(),
        };
        if hit {
            eprintln!("# self-test ok: gate fired as expected");
            std::process::exit(0);
        }
        eprintln!("obs: self-test FAILED — expected a regression and the gate did not fire");
        std::process::exit(1);
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}
