//! The experiment driver: `experiments <id>|all [--quick]`.
//!
//! `experiments fig08` prints one table or figure of the paper's
//! evaluation. `experiments all` runs every one and writes the combined
//! report to `EXPERIMENTS-results.txt` (and stdout). `--quick` selects
//! the reduced-scale variant used in smoke testing. An unknown id exits
//! with status 2 and lists the valid ids.

use cm_bench::experiments::{find, ExpConfig, EXPERIMENTS};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = if args.iter().any(|a| a == "--quick") {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };
    let Some(id) = args.iter().find(|a| *a != "--quick") else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("usage: experiments <id>|all [--quick]");
        eprintln!("ids: {}", ids.join(", "));
        std::process::exit(2);
    };
    if id == "all" {
        run_all(&cfg);
        return;
    }
    let experiment = find(id).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    match (experiment.run)(&cfg) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{id} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs every experiment in table order. A failing experiment is
/// reported in place and the rest still run.
fn run_all(cfg: &ExpConfig) {
    let mut out = String::new();
    let started = Instant::now();
    writeln!(
        out,
        "CounterMiner reproduction — all experiments ({:?} scale)\n",
        cfg.scale
    )
    .expect("writing to a String cannot fail");
    for experiment in EXPERIMENTS {
        let t = Instant::now();
        eprintln!("running {} ...", experiment.id);
        match (experiment.run)(cfg) {
            Ok(report) => writeln!(out, "{report}"),
            Err(e) => writeln!(out, "{} FAILED: {e}\n", experiment.id),
        }
        .expect("writing to a String cannot fail");
        eprintln!("  {} done in {:.1?}", experiment.id, t.elapsed());
    }
    writeln!(out, "total wall time: {:.1?}", started.elapsed())
        .expect("writing to a String cannot fail");
    print!("{out}");
    if let Err(e) = std::fs::write("EXPERIMENTS-results.txt", &out) {
        eprintln!("could not write EXPERIMENTS-results.txt: {e}");
    }
}
