//! Shape checks on the paper-reproduction experiments (quick scale):
//! the qualitative claims of each table/figure must hold even at reduced
//! repetition counts.

use cm_bench::experiments::*;
use cm_bench::ExpConfig;

fn cfg() -> ExpConfig {
    ExpConfig::quick()
}

#[test]
fn fig01_error_band_is_plausible() {
    let result = fig01_mlpx_error::run(&cfg()).unwrap();
    assert_eq!(result.errors.len(), 16);
    let avg = result.average();
    // Paper: 28.3 %. Allow a generous band at quick scale.
    assert!(avg > 10.0 && avg < 50.0, "avg error {avg:.1}%");
    assert!(result.min() < result.max());
}

#[test]
fn fig02_shows_outliers_and_missing_values() {
    let result = fig02_dirty_examples::run(&cfg()).unwrap();
    assert!(
        result.outlier_ratio() > 2.0,
        "no visible outlier (ratio {:.1})",
        result.outlier_ratio()
    );
    assert!(result.missing_count() > 0, "no missing values");
    assert!(
        result.ocoe_cold_start_ratio() > 1.3,
        "cold-start spike not visible under OCOE"
    );
}

#[test]
fn fig03_error_grows_with_event_count() {
    let result = fig03_error_vs_events::run(&cfg()).unwrap();
    assert_eq!(result.points.len(), 7);
    assert!(
        result.trend_slope() > 0.15,
        "error should clearly rise with multiplexed events: {:?}",
        result.points
    );
    // The 36-event error clearly exceeds the 10-event error.
    let first = result.points.first().unwrap().1;
    let last = result.points.last().unwrap().1;
    assert!(last > first + 3.0, "{first} -> {last}");
}

#[test]
fn table1_n5_reaches_target_coverage() {
    let result = table1_threshold_coverage::run(&cfg()).unwrap();
    assert_eq!(result.rows.len(), 16);
    let n = result.universal_n().expect("some candidate reaches 99%");
    assert!(n <= 5.0, "paper reaches 99% at n = 5; got n = {n}");
}

#[test]
fn fig05_cleaning_repairs_the_examples() {
    let result = fig05_cleaning_examples::run(&cfg()).unwrap();
    assert!(result.idu_report.outliers_replaced > 0);
    assert!(result.outlier_ratio_after() < result.dirty.outlier_ratio());
    assert!(result.icm_cleaned.zero_count() < result.dirty.icm_mlpx.zero_count());
}

#[test]
fn fig06_cleaning_reduces_error() {
    let result = fig06_error_reduction::run(&cfg()).unwrap();
    let raw = result.raw_average();
    let cleaned = result.cleaned_average();
    assert!(
        cleaned < 0.65 * raw,
        "cleaning should cut the error: {raw:.1}% -> {cleaned:.1}%"
    );
}

#[test]
fn fig14_important_knob_swings_more() {
    let result = fig14_tuning_sweep::run(&cfg()).unwrap();
    let bbs = result.bbs.variation_percent();
    let nwt = result.nwt.variation_percent();
    assert!(bbs > 2.0 * nwt, "bbs {bbs:.1}% vs nwt {nwt:.1}%");
    // Paper: 111.3 % vs 29.4 %.
    assert!(bbs > 50.0 && bbs < 250.0);
    assert!(nwt < 60.0);
}

#[test]
fn fig15_method_a_is_cheaper() {
    let result = fig15_profiling_cost::run(&cfg()).unwrap();
    assert_eq!(result.method_b(), 6000);
    assert!(result.method_a() < result.method_b() / 3);
    // The learning curve rises with more examples.
    let first = result.learning_curve.first().unwrap().1;
    let last = result.learning_curve.last().unwrap().1;
    assert!(
        last >= first - 5.0,
        "curve should not collapse: {first} -> {last}"
    );
}

#[test]
fn tables_print_complete_inventories() {
    let t2 = table2_benchmarks::run();
    assert_eq!(t2.benchmarks.len(), 16);
    assert!(t2.to_string().contains("Spark 2.0"));

    let t3 = table3_events::run();
    assert_eq!(t3.rows.len(), cm_events::abbrev::ALL_NAMED.len());
    assert!(t3.to_string().contains("ILD_STALL.IQ_FULL"));

    let t4 = table4_spark_params::run();
    assert_eq!(t4.params.len(), 13);
    assert!(t4.to_string().contains("spark.broadcast.blockSize"));
}

#[test]
fn ablation_components_both_contribute() {
    let result = ablation_cleaning::run(&cfg()).unwrap();
    assert!(result.outliers_only < result.raw);
    assert!(result.missing_only < result.raw);
    assert!(result.both <= result.outliers_only.min(result.missing_only) + 1.0);
    // The paper's n = 5 is at or near the sweep minimum.
    let best_n = result
        .n_sweep
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
        .0;
    assert!((4.0..=6.0).contains(&best_n), "best n = {best_n}");
}

#[test]
fn cleaning_composes_with_subinterval_estimation() {
    let result = baseline_subinterval::run(&cfg()).unwrap();
    assert!(result.scaling_cleaned < result.scaling_raw);
    assert!(result.subinterval_cleaned < result.subinterval_raw);
    // The composed pipeline is the best configuration.
    assert!(result.subinterval_cleaned <= result.scaling_cleaned + 1.5);
}

#[test]
fn fig13_sort_dominant_pair_is_oro_bbs() {
    let result = fig13_param_event_interactions::run(&cfg()).unwrap();
    assert_eq!(result.rows.len(), 8);
    let (event, param) = result.dominant(cm_sim::Benchmark::Sort).unwrap();
    assert_eq!(
        (event, param),
        ("ORO", "bbs"),
        "paper: ORO-bbs dominates sort"
    );
}

#[test]
fn experiment_driver_runs_instant_ids_and_rejects_unknown_ones() {
    let driver = env!("CARGO_BIN_EXE_experiments");
    for (id, expected) in [
        ("table2", table2_benchmarks::run().to_string()),
        ("table3", table3_events::run().to_string()),
        ("table4", table4_spark_params::run().to_string()),
    ] {
        let from_table = (find(id).unwrap().run)(&cfg()).unwrap();
        assert_eq!(from_table, expected, "{id} via the table");
        let out = std::process::Command::new(driver).arg(id).output().unwrap();
        assert!(out.status.success(), "{id} exited {:?}", out.status);
        assert_eq!(String::from_utf8(out.stdout).unwrap(), expected, "{id}");
    }
    assert!(find("fig99").is_err());
    let out = std::process::Command::new(driver)
        .arg("fig99")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    for experiment in EXPERIMENTS {
        assert!(stderr.contains(experiment.id), "{stderr}");
    }
}
