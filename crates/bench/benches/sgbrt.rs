//! SGBRT training and prediction — the Fig. 8–10 model kernel.

use cm_bench::harness::Harness;
use cm_ml::{BinnedDataset, Dataset, SgbrtConfig, Trainer, MAX_BINS};
use cm_rng::Rng;

fn dataset(rows: usize, features: usize) -> Dataset {
    let mut rng = Rng::seed_from_u64(1);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..features).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = data
        .iter()
        .map(|r| 2.0 - r[0] - 0.4 * r[1] * r[1] + 0.1 * r[2])
        .collect();
    Dataset::new(data, y).unwrap()
}

fn bench_sgbrt(c: &mut Harness) {
    let mut group = c.benchmark_group("sgbrt");
    group.sample_size(10);
    for features in [20usize, 60] {
        let data = dataset(400, features);
        let config = SgbrtConfig {
            n_trees: 50,
            ..SgbrtConfig::default()
        };
        group.bench_with_input(format!("fit_400rows/{features}"), &features, |b, _| {
            b.iter(|| config.fit(std::hint::black_box(&data)).unwrap());
        });
    }
    let data = dataset(400, 20);
    let model = SgbrtConfig::default().fit(&data).unwrap();
    group.bench_function("predict_batch_400", |b| {
        b.iter(|| model.predict_batch(std::hint::black_box(data.rows())));
    });
}

/// Serial (1 worker) vs. parallel (all cores) training and prediction —
/// results are bit-identical, only the wall clock changes.
fn bench_sgbrt_threads(c: &mut Harness) {
    let mut group = c.benchmark_group("sgbrt_threads");
    group.sample_size(10);
    let data = dataset(400, 60);
    let config = SgbrtConfig {
        n_trees: 50,
        ..SgbrtConfig::default()
    };
    let model = config.fit(&data).unwrap();
    for (label, threads) in [("serial", 1usize), ("parallel", 0)] {
        cm_par::set_max_threads(threads);
        group.bench_function(format!("fit_400x60/{label}"), |b| {
            b.iter(|| config.fit(std::hint::black_box(&data)).unwrap());
        });
        group.bench_function(format!("predict_batch/{label}"), |b| {
            b.iter(|| model.predict_batch(std::hint::black_box(data.rows())));
        });
    }
    cm_par::set_max_threads(0);
}

/// Exact threshold scan vs. histogram bins on an EIR-sized problem
/// (2000 intervals × 60 events — one pruning round's retrain), plus the
/// one-off binning cost the EIR loop amortizes across rounds.
fn bench_trainers(c: &mut Harness) {
    let mut group = c.benchmark_group("sgbrt_trainers");
    group.sample_size(10);
    let data = dataset(2000, 60);
    for (label, trainer) in [("exact", Trainer::Exact), ("hist", Trainer::Hist)] {
        let config = SgbrtConfig {
            n_trees: 50,
            trainer,
            ..SgbrtConfig::default()
        };
        group.bench_function(format!("fit_2000x60/{label}"), |b| {
            b.iter(|| config.fit(std::hint::black_box(&data)).unwrap());
        });
    }
    group.bench_function("bin_2000x60", |b| {
        b.iter(|| BinnedDataset::from_dataset(std::hint::black_box(&data), MAX_BINS));
    });
    let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
    let config = SgbrtConfig {
        n_trees: 50,
        trainer: Trainer::Hist,
        ..SgbrtConfig::default()
    };
    group.bench_function("fit_binned_2000x60", |b| {
        b.iter(|| {
            config
                .fit_binned(std::hint::black_box(&binned.view()), data.targets())
                .unwrap()
        });
    });
}

/// The one batch API on its two row layouts: per-row `Vec` rows vs.
/// `chunks_exact` slices of one packed buffer, as the interaction
/// sweeps pass their probes (the slice collection is timed too).
fn bench_predict_flat(c: &mut Harness) {
    let mut group = c.benchmark_group("sgbrt_predict");
    group.sample_size(10);
    let data = dataset(2000, 60);
    let model = SgbrtConfig {
        n_trees: 50,
        ..SgbrtConfig::default()
    }
    .fit(&data)
    .unwrap();
    let flat: Vec<f64> = data.rows().iter().flatten().copied().collect();
    group.bench_function("predict_batch_nested_2000x60", |b| {
        b.iter(|| model.predict_batch(std::hint::black_box(data.rows())));
    });
    group.bench_function("predict_batch_flat_2000x60", |b| {
        b.iter(|| {
            let rows: Vec<&[f64]> = std::hint::black_box(&flat).chunks_exact(60).collect();
            model.predict_batch(&rows)
        });
    });
}

fn main() {
    let mut c = Harness::new("sgbrt");
    bench_sgbrt(&mut c);
    bench_sgbrt_threads(&mut c);
    bench_trainers(&mut c);
    bench_predict_flat(&mut c);
    c.finish();
}
