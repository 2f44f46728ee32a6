//! `counterminer` — command-line interface to the CounterMiner pipeline.
//!
//! Run `counterminer help` for usage. Everything operates on the
//! simulated Haswell-E PMU and `.cmstore` run stores; see the
//! repository README for the library API.

mod args;
mod commands;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };

    // `--help` anywhere asks for the usage text, whatever else was given.
    let command = if parsed.flag("help") {
        "help"
    } else {
        parsed.positional(0).unwrap_or("help")
    }
    .to_string();
    if let Err(e) = commands::check_options(&command, &parsed) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if parsed.positional_count() > 3 {
        eprintln!("note: extra positional arguments are ignored");
    }
    // Global `--threads N` caps the worker pool for every parallel
    // stage; 0 (the default) keeps the CM_THREADS / all-cores default.
    match parsed.get_num("threads", 0usize) {
        Ok(n) => cm_par::set_max_threads(n),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    // Global `--metrics <off|summary|json[:PATH]>` overrides the CM_OBS
    // environment variable; unset, CM_OBS (or off) applies lazily.
    if let Some(metrics) = parsed.get("metrics") {
        match cm_obs::parse_mode(metrics) {
            Ok(mode) => cm_obs::set_mode(mode),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let result = match command.as_str() {
        "catalog" => commands::catalog(&parsed),
        "benchmarks" => commands::benchmarks(),
        "collect" => commands::collect(&parsed),
        "clean" => commands::clean(&parsed),
        "import" => commands::import(&parsed),
        "error" => commands::error(&parsed),
        "analyze" => commands::analyze(&parsed),
        "ingest" => commands::ingest(&parsed),
        "query" => commands::query(&parsed),
        "store-info" => commands::store_info(&parsed),
        "serve" => commands::serve(&parsed),
        "watch" => commands::watch(&parsed),
        "load" => commands::load(&parsed),
        "cluster" => commands::cluster(&parsed),
        "spark" => commands::spark(&parsed),
        "colocate" => commands::colocate(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };

    // Emit collected metrics (if any mode is active) even when the
    // command failed — a partial trace is exactly what debugging wants.
    cm_obs::report::report();

    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
