//! `postmortem` — inspect a flight-recorder dump bundle.
//!
//! ```text
//! postmortem BUNDLE.jsonl [BUNDLE.jsonl ...]
//! ```
//!
//! Loads one or more versioned JSONL bundles written by the co-sim
//! flight recorder (`sim --postmortem-dir`) and prints, per bundle:
//!
//! - the dump header (trigger, simulated time, warning id, threshold,
//!   recorded window, hottest vault at dump time);
//! - the vault ranking table, ordered by °C·s of peak-DRAM temperature
//!   above the warning threshold integrated over the recorded window —
//!   the spatial "who overheated, and for how long" view;
//! - the SM attribution table, ranking source SMs by PIM ops sent to
//!   the hot vaults — the causal "who heated them" view;
//! - the per-vault heat map of the newest frame, on the glyph ramp of
//!   the Fig. 3 heat map.
//!
//! Together the two tables turn a thermal warning into an actionable
//! statement: *vault V crossed the threshold because SMs S₀, S₁ kept
//! offloading atomics into it.*

use coolpim_bench::heatmap::{render_vault_rows, vault_grid};
use coolpim_telemetry::{FlightFrame, PostmortemBundle};

fn usage() -> ! {
    eprintln!("usage: postmortem BUNDLE.jsonl [BUNDLE.jsonl ...]");
    std::process::exit(2);
}

/// Vaults shown in the per-SM "ops to hot vaults" column: the top of
/// the °C·s ranking, capped so the table stays readable.
const HOT_VAULTS_SHOWN: usize = 4;

fn print_bundle(path: &str, b: &PostmortemBundle) {
    println!("bundle             {path}");
    println!("schema version     {}", b.schema_version);
    println!("trigger            {}", b.trigger);
    println!("dump time          {:.3} ms", b.t_ps as f64 / 1e9);
    match b.warning_id {
        Some(id) => println!("warning id         {id}"),
        None => println!("warning id         -"),
    }
    println!("threshold          {:.1} °C", b.threshold_c);
    println!(
        "window             {} frames x {:.1} µs epochs, {} vaults",
        b.frames.len(),
        b.epoch_ps as f64 / 1e6,
        b.vaults()
    );
    match b.hottest_vault() {
        Some(v) => println!("hottest vault      {v}"),
        None => println!("hottest vault      -"),
    }

    let ranks = b.rank_vaults();
    println!();
    println!("vault ranking (°C·s above threshold over the recorded window)");
    println!("  vault   degC.s     latest peak   PIM ops");
    for r in &ranks {
        println!(
            "  {:>5}   {:>8.4}   {:>8.2} °C   {:>7}",
            r.vault, r.cs_above, r.latest_peak_c, r.pim_ops
        );
    }
    if ranks.is_empty() {
        println!("  (no frames recorded)");
    }

    let hot: Vec<usize> = ranks
        .iter()
        .take(HOT_VAULTS_SHOWN)
        .map(|r| r.vault)
        .collect();
    println!();
    println!(
        "SM attribution (PIM ops to hot vaults {:?}, whole window)",
        hot
    );
    println!("  source      to hot vaults     total PIM ops");
    let rows = b.sm_pim_ops_to(&hot);
    for (sm, to_hot) in &rows {
        let total: u64 = b
            .attribution
            .iter()
            .filter(|r| r.sm == *sm)
            .map(|r| r.vault_pim_ops.iter().sum::<u64>())
            .sum();
        let label = match sm {
            Some(id) => format!("SM {id}"),
            None => "untagged".to_string(),
        };
        println!("  {label:<10}  {to_hot:>13}     {total:>13}");
    }
    if rows.is_empty() {
        println!("  (no attribution rows)");
    }

    if let Some(frame) = b.frames.last() {
        println!();
        print_heat_map(path, b, frame);
    }
}

/// The per-vault peak-DRAM map of the bundle's newest frame.
fn print_heat_map(path: &str, b: &PostmortemBundle, frame: &FlightFrame) {
    println!(
        "== Vault heat map from dump (trigger {}, t = {:.3} ms, threshold {:.1} °C) ==",
        b.trigger,
        b.t_ps as f64 / 1e9,
        b.threshold_c
    );
    let temps: Vec<f64> = frame.vaults.iter().map(|v| v.peak_dram_c).collect();
    let (lo, hi) = temps
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let (nx, ny) = vault_grid(temps.len());
    println!(
        "Per-vault peak DRAM temp, newest frame ({nx}x{ny} vaults, {lo:.1}–{hi:.1} °C, '.'=cool '#'=hot):"
    );
    for line in render_vault_rows(&temps, lo, hi) {
        println!("  {line}");
    }
    if let Some(hot) = b.hottest_vault() {
        println!(
            "\nHottest vault at dump time: {hot} ({:.2} °C); run `postmortem {path}`",
            temps.get(hot).copied().unwrap_or(f64::NAN)
        );
        println!("for the °C·s ranking and the SM attribution tables.");
    }
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() || paths.iter().any(|p| p == "--help" || p == "-h") {
        usage();
    }
    let mut first = true;
    for path in &paths {
        match PostmortemBundle::load(std::path::Path::new(path)) {
            Ok(b) => {
                if !first {
                    println!();
                }
                first = false;
                print_bundle(path, &b);
            }
            // The load error already names the file.
            Err(e) => {
                eprintln!("postmortem: {e}");
                std::process::exit(1);
            }
        }
    }
}
