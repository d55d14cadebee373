//! `watch` — live terminal dashboard over a `sim --monitor` endpoint.
//!
//! ```text
//! watch --addr HOST:PORT [--interval SECS] [--once] [--scrape-once]
//! ```
//!
//! Polls `/status`, `/metrics`, and `/series` and renders a refreshing
//! dashboard: run header, progress bar with ETA, the 8x4 vault-temp
//! heat map (same glyph ramp as the Fig. 3 artifact), a peak-temperature
//! sparkline over the run's recent history, and the throttle state
//! (SW-DynT pool tokens / HW-DynT warp cap). Exits when `/status`
//! reports the run done (or after one frame with `--once`).
//!
//! `--scrape-once` is the CI probe mode: fetch `/metrics` and
//! `/status` once, validate the exposition format and the status JSON,
//! print a one-line summary, and exit non-zero on any malformation or
//! dead endpoint — no dashboard.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use coolpim_bench::heatmap::{progress_bar, render_vault_rows, sparkline};
use coolpim_telemetry::expo::validate_exposition;
use coolpim_telemetry::json::parse_flat_object;
use coolpim_telemetry::monitor::http_get;
use coolpim_telemetry::StatusSnapshot;

struct Args {
    addr: SocketAddr,
    interval_s: f64,
    once: bool,
    scrape_once: bool,
}

fn usage() -> ! {
    eprintln!("usage: watch --addr HOST:PORT [--interval SECS] [--once] [--scrape-once]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut interval_s = 1.0f64;
    let mut once = false;
    let mut scrape_once = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" | "-a" => {
                let s = take(&mut i);
                addr = s
                    .to_socket_addrs()
                    .ok()
                    .and_then(|mut it| it.next())
                    .or_else(|| {
                        eprintln!("cannot resolve {s:?}");
                        None
                    });
            }
            "--interval" | "-i" => {
                interval_s = take(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--once" => once = true,
            "--scrape-once" => scrape_once = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
    Args {
        addr: addr.unwrap_or_else(|| usage()),
        interval_s: interval_s.max(0.1),
        once,
        scrape_once,
    }
}

const TIMEOUT: Duration = Duration::from_secs(3);

fn fetch(addr: &SocketAddr, path: &str) -> Result<String, String> {
    match http_get(addr, path, TIMEOUT) {
        Ok((200, body)) => Ok(body),
        Ok((code, _)) => Err(format!("GET {path}: HTTP {code}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// Extracts the per-vault temperatures from an exposition page
/// (`coolpim_vault_peak_dram_c{vault="N"} V` lines), ordered by index.
fn vault_temps_from_metrics(page: &str) -> Vec<f64> {
    let mut pairs: Vec<(usize, f64)> = page
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("coolpim_vault_peak_dram_c{vault=\"")?;
            let (idx, rest) = rest.split_once("\"}")?;
            Some((idx.parse().ok()?, rest.trim().parse().ok()?))
        })
        .collect();
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Tier-0 values of one named series from a `/series` JSONL body, in
/// time order (the endpoint emits oldest → newest).
fn series_tier0(body: &str, name: &str) -> Vec<f64> {
    body.lines()
        .filter_map(parse_flat_object)
        .filter(|o| o.str_field("series") == Some(name) && o.u64_field("tier") == Some(0))
        .filter_map(|o| o.f64_field("v"))
        .collect()
}

fn fmt_tokens(v: Option<f64>, unit: &str) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.0} {unit}"),
        _ => "-".to_string(),
    }
}

fn render_frame(status: &StatusSnapshot, metrics_page: &str, series_body: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "coolpim watch — {} (config {})\n",
        status.run_id, status.config_hash
    ));
    // Progress toward the sim-time cap: wall-so-far vs wall-so-far+ETA
    // (an upper bound — most runs retire their kernel earlier).
    let wall_so_far = if status.epochs_per_s > 0.0 {
        status.epoch as f64 / status.epochs_per_s
    } else {
        0.0
    };
    let frac = if status.done {
        1.0
    } else if status.eta_s.is_finite() && wall_so_far + status.eta_s > 0.0 {
        wall_so_far / (wall_so_far + status.eta_s)
    } else {
        f64::NAN
    };
    out.push_str(&format!(
        "{} epoch {}  t={:.3} ms  {:.0} epochs/s  ETA<= {}\n",
        progress_bar(frac, 24),
        status.epoch,
        status.t_ps as f64 * 1e-9,
        status.epochs_per_s,
        if status.done {
            "done".to_string()
        } else if status.eta_s.is_finite() {
            format!("{:.0} s", status.eta_s)
        } else {
            "?".to_string()
        },
    ));
    out.push_str(&format!(
        "phase {}  peak {:.2} C  last warning #{}\n",
        status.phase, status.peak_dram_c, status.last_warning_id
    ));

    let temps = vault_temps_from_metrics(metrics_page);
    if !temps.is_empty() {
        let finite: Vec<f64> = temps.iter().copied().filter(|v| v.is_finite()).collect();
        let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "vault peak DRAM temp ({lo:.1}-{hi:.1} C, '.'=cool '#'=hot):\n"
        ));
        for row in render_vault_rows(&temps, lo, hi) {
            out.push_str("  ");
            out.push_str(&row);
            out.push('\n');
        }
    }

    let peaks = series_tier0(series_body, "peak_dram_c");
    if !peaks.is_empty() {
        out.push_str(&format!("peak temp history  {}\n", sparkline(&peaks, 48)));
    }
    let pool = series_tier0(series_body, "pool_tokens").last().copied();
    let cap = series_tier0(series_body, "warp_cap").last().copied();
    out.push_str(&format!(
        "throttle: SW-DynT pool {}  HW-DynT warp cap {}\n",
        fmt_tokens(pool, "tokens"),
        fmt_tokens(cap, "slots"),
    ));
    out
}

/// CI probe: validate both endpoints once; non-zero exit on failure.
fn scrape_once(addr: &SocketAddr) -> i32 {
    let mut failures = 0;
    match fetch(addr, "/metrics") {
        Ok(page) => match validate_exposition(&page) {
            Ok(s) => println!(
                "/metrics ok: {} families, {} samples",
                s.families, s.samples
            ),
            Err(e) => {
                eprintln!("/metrics INVALID: {e}");
                failures += 1;
            }
        },
        Err(e) => {
            eprintln!("/metrics unreachable: {e}");
            failures += 1;
        }
    }
    match fetch(addr, "/status") {
        Ok(body) => match StatusSnapshot::from_json(&body) {
            Some(s) => println!(
                "/status ok: run {} config {} epoch {} phase {}",
                s.run_id, s.config_hash, s.epoch, s.phase
            ),
            None => {
                eprintln!("/status INVALID: not a flat status object: {body}");
                failures += 1;
            }
        },
        Err(e) => {
            eprintln!("/status unreachable: {e}");
            failures += 1;
        }
    }
    if failures == 0 {
        0
    } else {
        1
    }
}

fn main() {
    let args = parse_args();
    if args.scrape_once {
        std::process::exit(scrape_once(&args.addr));
    }
    let mut first = true;
    loop {
        let status = match fetch(&args.addr, "/status").map(|b| StatusSnapshot::from_json(&b)) {
            Ok(Some(s)) => s,
            Ok(None) => {
                eprintln!("watch: /status returned malformed JSON");
                std::process::exit(1);
            }
            Err(e) => {
                // A vanished endpoint right after `done` is a normal
                // race; before any successful frame it is an error.
                eprintln!("watch: {e}");
                std::process::exit(if first { 1 } else { 0 });
            }
        };
        let metrics_page = fetch(&args.addr, "/metrics").unwrap_or_default();
        let series_body = fetch(&args.addr, "/series").unwrap_or_default();
        let frame = render_frame(&status, &metrics_page, &series_body);
        if !args.once && !first {
            // Repaint in place: home the cursor and clear below.
            print!("\x1b[H\x1b[J");
        }
        print!("{frame}");
        if args.once || status.done {
            if status.done {
                println!("run complete.");
            }
            break;
        }
        first = false;
        std::thread::sleep(Duration::from_secs_f64(args.interval_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vault_temps_parse_from_exposition_lines() {
        let page = "# HELP coolpim_vault_peak_dram_c x\n\
                    # TYPE coolpim_vault_peak_dram_c gauge\n\
                    coolpim_vault_peak_dram_c{vault=\"1\"} 81.5\n\
                    coolpim_vault_peak_dram_c{vault=\"0\"} 80\n\
                    coolpim_other 7\n";
        assert_eq!(vault_temps_from_metrics(page), vec![80.0, 81.5]);
        assert!(vault_temps_from_metrics("").is_empty());
    }

    #[test]
    fn series_tier0_filters_by_name_and_tier() {
        let body = "{\"series\":\"peak_dram_c\",\"tier\":0,\"t_ps\":1,\"v\":80}\n\
                    {\"series\":\"peak_dram_c\",\"tier\":1,\"t_ps\":1,\"v\":99}\n\
                    {\"series\":\"pool_tokens\",\"tier\":0,\"t_ps\":1,\"v\":96}\n\
                    {\"series\":\"peak_dram_c\",\"tier\":0,\"t_ps\":2,\"v\":81}\n";
        assert_eq!(series_tier0(body, "peak_dram_c"), vec![80.0, 81.0]);
        assert_eq!(series_tier0(body, "pool_tokens"), vec![96.0]);
        assert!(series_tier0(body, "nope").is_empty());
    }

    #[test]
    fn frame_renders_required_dashboard_elements() {
        let status = StatusSnapshot {
            run_id: "pagerank-coolpim-sw".to_string(),
            config_hash: "0123456789abcdef".to_string(),
            phase: "Extended".to_string(),
            epoch: 100,
            t_ps: 10_000_000_000,
            peak_dram_c: 84.5,
            epochs_per_s: 50.0,
            eta_s: 6.0,
            last_warning_id: 2,
            done: false,
        };
        let metrics = "# HELP coolpim_vault_peak_dram_c x\n\
                       # TYPE coolpim_vault_peak_dram_c gauge\n\
                       coolpim_vault_peak_dram_c{vault=\"0\"} 80\n\
                       coolpim_vault_peak_dram_c{vault=\"1\"} 85\n";
        let series = "{\"series\":\"peak_dram_c\",\"tier\":0,\"t_ps\":1,\"v\":80}\n\
                      {\"series\":\"peak_dram_c\",\"tier\":0,\"t_ps\":2,\"v\":85}\n\
                      {\"series\":\"pool_tokens\",\"tier\":0,\"t_ps\":2,\"v\":92}\n";
        let frame = render_frame(&status, metrics, series);
        // The acceptance criteria: vault temps, throttle state, progress.
        assert!(frame.contains("vault peak DRAM temp"));
        assert!(frame.contains("throttle: SW-DynT pool 92 tokens"));
        assert!(frame.contains('%'), "progress bar missing: {frame}");
        assert!(frame.contains("phase Extended"));
        assert!(frame.contains("peak temp history"));
        assert!(frame.contains("ETA<= 6 s"));
        // 25% through: 2s elapsed (100 epochs at 50/s), 6s remaining.
        assert!(frame.contains("25%"), "{frame}");
    }

    #[test]
    fn done_status_renders_complete_bar() {
        let status = StatusSnapshot {
            done: true,
            ..StatusSnapshot::default()
        };
        let frame = render_frame(&status, "", "");
        assert!(frame.contains("100%"));
        assert!(frame.contains("ETA<= done"));
    }
}
