//! Quickstart: the CounterMiner pipeline end to end on one benchmark.
//!
//! Collects multiplexed counter data for HiBench `wordcount` on the
//! simulated Haswell-E PMU, cleans it, trains SGBRT performance models
//! with Event Importance Refinement, and prints the top events and
//! interaction pairs. The collected and cleaned runs persist in a
//! `.cmstore` run store, so a rerun on the same file skips collection.
//!
//! Run with: `cargo run --release --example quickstart`

use cm_ml::SgbrtConfig;
use cm_sim::Benchmark;
use cm_store::Store;
use counterminer::{CounterMiner, ImportanceConfig, MinerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A moderate configuration so the example finishes in seconds:
    // measure 60 events (multiplexed on 4 counters) over 2 runs.
    let config = MinerConfig {
        runs_per_benchmark: 2,
        events_to_measure: Some(60),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 80,
                ..SgbrtConfig::default()
            },
            prune_step: 10,
            min_events: 20,
            ..ImportanceConfig::default()
        },
        ..MinerConfig::default()
    };

    let mut miner = CounterMiner::new(config);
    println!("analyzing {} ...", Benchmark::Wordcount);
    let path = std::env::temp_dir().join("counterminer_quickstart.cmstore");
    let _ = std::fs::remove_file(&path);
    let mut store = Store::open(&path)?;
    let report = miner.analyze_with_store(Benchmark::Wordcount, &mut store)?;

    println!(
        "\ncleaning: {} outliers replaced, {} missing values filled",
        report.outliers_replaced, report.missing_filled
    );

    println!("\nEIR error curve (events -> held-out error):");
    for it in &report.eir.iterations {
        println!("  {:>3} events -> {:.1}%", it.n_events, it.error * 100.0);
    }
    println!(
        "MAPM: {} events, {:.1}% error",
        report.eir.mapm_events.len(),
        report.eir.best_error() * 100.0
    );

    println!("\ntop 10 events by importance:");
    for (event, importance) in report.eir.top(10) {
        let info = miner.catalog().info(*event);
        println!(
            "  {:<4} {:<44} {:5.1}%",
            info.abbrev(),
            info.name(),
            importance
        );
    }

    println!("\ntop 5 interaction pairs:");
    for pair in report.interactions.iter().take(5) {
        println!(
            "  {}-{}  {:5.1}%",
            miner.catalog().info(pair.pair.0).abbrev(),
            miner.catalog().info(pair.pair.1).abbrev(),
            pair.share
        );
    }

    let info = store.info();
    println!(
        "\nrun store {}: {} series, {} bytes on disk",
        path.display(),
        info.series,
        info.file_bytes
    );
    std::fs::remove_file(&path)?;
    Ok(())
}
