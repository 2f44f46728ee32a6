//! Store integration: simulated runs survive a commit/reopen round trip
//! bit-for-bit, and the run table mirrors what was collected.

use cm_events::{EventId, SampleMode};
use cm_sim::{Benchmark, PmuConfig, SimRun, Workload};
use cm_store::{RunId, Store};
use counterminer::collector;
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "counterminer_it_{tag}_{}.cmstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Appends `runs`, commits, and reopens the store from disk.
fn commit_and_reopen(path: &PathBuf, runs: &[SimRun]) -> Store {
    let mut store = Store::open(path).unwrap();
    for run in runs {
        store.append_run(&run.record).unwrap();
    }
    store.commit().unwrap();
    Store::open(path).unwrap()
}

fn run_id(run: &SimRun) -> RunId {
    RunId::new(
        run.record.program(),
        run.record.run_index(),
        run.record.mode(),
    )
}

#[test]
fn simulated_runs_round_trip_through_disk() {
    let catalog = cm_events::EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let mut runs = Vec::new();
    for benchmark in [Benchmark::Wordcount, Benchmark::WebServing] {
        let workload = Workload::new(benchmark, &catalog);
        let events = workload.top_event_ids(&catalog, 8);
        runs.extend(collector::collect_runs(
            &workload,
            &events,
            SampleMode::Mlpx,
            2,
            &pmu,
            1,
        ));
        runs.extend(collector::collect_runs(
            &workload,
            &events,
            SampleMode::Ocoe,
            1,
            &pmu,
            1,
        ));
    }
    assert_eq!(runs.len(), 6);

    let path = temp_store("roundtrip");
    let loaded = commit_and_reopen(&path, &runs);
    assert_eq!(loaded.run_ids().count(), runs.len());

    for run in &runs {
        let id = run_id(run);
        let got = loaded
            .read_run(&id)
            .unwrap_or_else(|e| panic!("missing {id:?}: {e}"));
        assert_eq!(
            got.exec_time_secs().to_bits(),
            run.record.exec_time_secs().to_bits()
        );
        for (event, series) in run.record.iter() {
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.series(event).unwrap().values()),
                bits(series.values()),
                "{id:?} event {event} series drifted"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn summaries_reflect_collected_runs() {
    let catalog = cm_events::EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let workload = Workload::new(Benchmark::Scan, &catalog);
    let events = workload.top_event_ids(&catalog, 5);
    let runs = collector::collect_runs(&workload, &events, SampleMode::Mlpx, 3, &pmu, 2);
    let path = temp_store("summary");
    let store = commit_and_reopen(&path, &runs);

    // First level: one run-table row per run, each with its exec time.
    assert_eq!(store.programs(), vec!["scan".to_string()]);
    let ids: Vec<&RunId> = store.run_ids().filter(|id| id.program == "scan").collect();
    assert_eq!(ids.len(), 3);
    let exec_times: Vec<f64> = ids
        .iter()
        .map(|id| store.exec_time_secs(id).unwrap())
        .collect();
    assert!(exec_times.iter().all(|&t| t > 0.0));
    for (run, &secs) in runs.iter().zip(&exec_times) {
        assert_eq!(secs, run.record.exec_time_secs());
    }
    // Second level: the events recorded are exactly the measured set.
    let mut stored: Vec<EventId> = store
        .series_keys()
        .filter(|k| k.program == "scan")
        .map(|k| k.event)
        .collect();
    stored.sort();
    stored.dedup();
    let mut expected: Vec<EventId> = events.iter().collect();
    expected.sort();
    assert_eq!(stored, expected);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn variable_length_series_are_preserved() {
    // Two runs of the same program have different lengths (OS jitter);
    // the store must not normalize them.
    let catalog = cm_events::EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let workload = Workload::new(Benchmark::Bayes, &catalog);
    let events = workload.top_event_ids(&catalog, 4);
    let runs = collector::collect_runs(&workload, &events, SampleMode::Ocoe, 4, &pmu, 3);
    let lens: Vec<usize> = runs.iter().map(|r| r.intervals()).collect();
    assert!(
        lens.windows(2).any(|w| w[0] != w[1]),
        "expected length jitter, got {lens:?}"
    );

    let path = temp_store("lengths");
    let loaded = commit_and_reopen(&path, &runs);
    for (i, run) in runs.iter().enumerate() {
        let got = loaded
            .read_run(&RunId::new("bayes", i as u32, SampleMode::Ocoe))
            .unwrap();
        for (event, series) in run.record.iter() {
            assert_eq!(got.series(event).unwrap().len(), series.len());
        }
    }
    std::fs::remove_file(&path).unwrap();
}
