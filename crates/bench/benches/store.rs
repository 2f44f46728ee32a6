//! Persistent columnar store throughput: encode+commit, recommit after
//! a streamed append, cold reads, and cached reads.

use cm_bench::harness::Harness;
use cm_events::{EventId, SampleMode};
use cm_store::{CacheConfig, SeriesKey, Store};
use std::path::PathBuf;

const RUNS: u32 = 4;
const EVENTS: usize = 16;

fn bench_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cm_bench_store_{}_{name}.cmstore",
        std::process::id()
    ))
}

/// Integral counter-like values (DeltaVarint-eligible): samples
/// `from..to` of one series.
fn counter_series(run: u32, event: usize, from: usize, to: usize) -> Vec<f64> {
    (from..to)
        .map(|i| (1000 + (i as u64 * 37 + run as u64 * 101 + event as u64 * 13) % 4096) as f64)
        .collect()
}

/// Writes a fully committed store with `RUNS × EVENTS` series of `n`
/// values each, returning it ready for reads.
fn committed_store(path: &PathBuf, n: usize, cache: CacheConfig) -> Store {
    let _ = std::fs::remove_file(path);
    let mut store = Store::open_with(path, cache).unwrap();
    for run in 0..RUNS {
        for event in 0..EVENTS {
            store
                .append_series(
                    SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event)),
                    &counter_series(run, event, 0, n),
                )
                .unwrap();
        }
    }
    store.commit().unwrap();
    store
}

fn bench_store(c: &mut Harness) {
    let mut group = c.benchmark_group("store");
    group.sample_size(20);

    for n in [256usize, 1024] {
        // Stage + encode + atomically commit a whole store.
        let path = bench_path("commit");
        group.bench_with_input(format!("commit/{n}"), &n, |bench, &n| {
            bench.iter(|| {
                let store = committed_store(&path, n, CacheConfig::default());
                std::hint::black_box(store.info().file_bytes)
            });
        });
        let _ = std::fs::remove_file(&path);

        // The serve append shape: 2-row tails staged on one run's series
        // of a committed store, then a commit that copies every other
        // chunk into the next file generation. Chains grow and compact
        // across iterations exactly as under repeated stream appends.
        let path = bench_path("recommit_append");
        let mut store = committed_store(&path, n, CacheConfig::default());
        let mut next = n;
        group.bench_with_input(format!("recommit_append/{n}"), &n, |bench, _| {
            bench.iter(|| {
                for event in 0..EVENTS {
                    let key = SeriesKey::new("bench", 0, SampleMode::Mlpx, EventId::new(event));
                    let tail = counter_series(0, event, next, next + 2);
                    store.extend_series(key, &tail).unwrap();
                }
                next += 2;
                store.commit().unwrap();
                std::hint::black_box(store.info().file_bytes)
            });
        });
        drop(store);
        let _ = std::fs::remove_file(&path);

        // Cold reads: cache disabled, every read decodes from disk.
        let path = bench_path("read_cold");
        let store = committed_store(
            &path,
            n,
            CacheConfig {
                capacity_bytes: 0,
                ..CacheConfig::default()
            },
        );
        group.bench_with_input(format!("read_cold/{n}"), &n, |bench, _| {
            bench.iter(|| {
                let mut sum = 0.0f64;
                for run in 0..RUNS {
                    for event in 0..EVENTS {
                        let key =
                            SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event));
                        sum += store.read_series(std::hint::black_box(&key)).unwrap()[0];
                    }
                }
                sum
            });
        });
        drop(store);
        let _ = std::fs::remove_file(&path);

        // Warm reads: default cache, steady-state hits after first pass.
        let path = bench_path("read_cached");
        let store = committed_store(&path, n, CacheConfig::default());
        for run in 0..RUNS {
            for event in 0..EVENTS {
                let key = SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event));
                store.read_series(&key).unwrap();
            }
        }
        group.bench_with_input(format!("read_cached/{n}"), &n, |bench, _| {
            bench.iter(|| {
                let mut sum = 0.0f64;
                for run in 0..RUNS {
                    for event in 0..EVENTS {
                        let key =
                            SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event));
                        sum += store.read_series(std::hint::black_box(&key)).unwrap()[0];
                    }
                }
                sum
            });
        });
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}

fn main() {
    let mut c = Harness::new("store");
    bench_store(&mut c);
    c.finish();
}
