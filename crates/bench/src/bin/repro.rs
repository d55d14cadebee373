//! `repro` — reproduce the paper's tables, figures and ablations.
//!
//! ```text
//! repro NAME [NAME ...]   print the named artifacts to stdout, in order
//! repro --write DIR       write every artifact to DIR/<name>.txt
//! ```
//!
//! Names are the stems of the committed `results/*.txt`, so `repro
//! --write results` regenerates them all (see `coolpim_bench::repro`).

use coolpim_bench::repro::{EvalGraph, ARTIFACTS};

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro NAME [NAME ...] | repro --write DIR\nartifacts: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let graph = EvalGraph::default();
    match args.as_slice() {
        [] => usage(),
        [flag, dir] if flag == "--write" => {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("repro: {}: {e}", dir.display());
                std::process::exit(1);
            }
            for (name, render) in &ARTIFACTS {
                let path = dir.join(format!("{name}.txt"));
                if let Err(e) = std::fs::write(&path, render(&graph)) {
                    eprintln!("repro: {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("# wrote {}", path.display());
            }
        }
        names => {
            let renders: Vec<_> = names
                .iter()
                .map(|n| match ARTIFACTS.iter().find(|(name, _)| name == n) {
                    Some(&(_, render)) => render,
                    None => {
                        eprintln!("repro: unknown artifact {n:?}");
                        usage()
                    }
                })
                .collect();
            for render in renders {
                print!("{}", render(&graph));
            }
        }
    }
}
