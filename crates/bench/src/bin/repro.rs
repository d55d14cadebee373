//! `repro` — reproduce the paper's tables, figures and ablations.
//!
//! ```text
//! repro NAME [NAME ...]   print the named artifacts to stdout, in order
//! repro --write DIR       write every artifact to DIR/<name>.txt
//! ```
//!
//! Names are the stems of the committed `results/*.txt`, so `repro
//! --write results` regenerates them all. The co-simulations of every
//! named artifact run together, each distinct cell once (see
//! `coolpim_bench::repro`); stderr counts them. `COOLPIM_PROFILE=1` (or
//! `true`) prints their span tree to stdout ahead of the artifacts.

use coolpim_bench::repro::{reproduce, Artifact, ARTIFACTS};
use coolpim_telemetry::Tracer;

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    eprintln!(
        "usage: repro NAME [NAME ...] | repro --write DIR\nartifacts: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (artifacts, dir): (Vec<&Artifact>, _) = match args.as_slice() {
        [] => usage(),
        [flag, dir] if flag == "--write" => {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("repro: {}: {e}", dir.display());
                std::process::exit(1);
            }
            (ARTIFACTS.iter().collect(), Some(dir))
        }
        names => {
            let found = names
                .iter()
                .map(|n| match ARTIFACTS.iter().find(|a| a.0 == n) {
                    Some(artifact) => artifact,
                    None => {
                        eprintln!("repro: unknown artifact {n:?}");
                        usage()
                    }
                });
            (found.collect(), None)
        }
    };
    let profiling = matches!(
        std::env::var("COOLPIM_PROFILE").as_deref(),
        Ok("1" | "true")
    );
    let tracer = profiling.then(Tracer::new);
    let texts = reproduce(&artifacts, tracer.as_ref());
    if let Some(profile) = tracer.map(|t| t.profile()).filter(|p| p.slices > 0) {
        print!("{}", profile.render());
    }
    for (artifact, text) in artifacts.iter().zip(texts) {
        let Some(dir) = dir else {
            print!("{text}");
            continue;
        };
        let path = dir.join(format!("{}.txt", artifact.0));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("repro: {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("# wrote {}", path.display());
    }
}
