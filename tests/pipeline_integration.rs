//! End-to-end pipeline integration: collect → clean → rank.

use cm_ml::SgbrtConfig;
use cm_sim::Benchmark;
use counterminer::{CounterMiner, ImportanceConfig, MinerConfig};

fn small_config(seed: u64) -> MinerConfig {
    MinerConfig {
        runs_per_benchmark: 1,
        events_to_measure: Some(24),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 50,
                ..SgbrtConfig::default()
            },
            prune_step: 4,
            min_events: 12,
            seed,
            ..ImportanceConfig::default()
        },
        interaction_top_k: 5,
        seed,
        ..MinerConfig::default()
    }
}

#[test]
fn analyze_produces_complete_report() {
    let mut miner = CounterMiner::new(small_config(1));
    let report = miner.analyze(Benchmark::Sort).unwrap();

    // Ranking covers the MAPM events and sums to 100 %.
    assert_eq!(report.eir.ranking.len(), report.eir.mapm_events.len());
    let total: f64 = report.eir.ranking.iter().map(|(_, v)| v).sum();
    assert!((total - 100.0).abs() < 1e-6);

    // EIR pruned from 24 down to 12 in steps of 4.
    let ns: Vec<usize> = report.eir.iterations.iter().map(|i| i.n_events).collect();
    assert_eq!(ns, vec![24, 20, 16, 12]);

    // 5 top events -> C(5,2) = 10 interaction pairs, shares sum to 100.
    assert_eq!(report.interactions.len(), 10);
    let share_total: f64 = report.interactions.iter().map(|p| p.share).sum();
    assert!((share_total - 100.0).abs() < 1e-6);

    // Multiplexing 24 events on 4 counters is dirty; the cleaner works.
    assert!(report.outliers_replaced + report.missing_filled > 0);
}

#[test]
fn analysis_is_deterministic_per_seed() {
    let report_a = CounterMiner::new(small_config(7))
        .analyze(Benchmark::Scan)
        .unwrap();
    let report_b = CounterMiner::new(small_config(7))
        .analyze(Benchmark::Scan)
        .unwrap();
    assert_eq!(report_a.eir.ranking, report_b.eir.ranking);

    let report_c = CounterMiner::new(small_config(8))
        .analyze(Benchmark::Scan)
        .unwrap();
    assert_ne!(report_a.eir.ranking, report_c.eir.ranking);
}

#[test]
fn different_benchmarks_rank_differently() {
    // The paper's second finding: importance rankings vary across
    // benchmarks.
    let sort = CounterMiner::new(small_config(3))
        .analyze(Benchmark::Sort)
        .unwrap();
    let pagerank = CounterMiner::new(small_config(3))
        .analyze(Benchmark::Pagerank)
        .unwrap();
    let top_sort: Vec<_> = sort.eir.top(3).iter().map(|&(e, _)| e).collect();
    let top_pagerank: Vec<_> = pagerank.eir.top(3).iter().map(|&(e, _)| e).collect();
    assert_ne!(top_sort, top_pagerank);
}
