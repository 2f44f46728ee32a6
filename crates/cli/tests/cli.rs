//! End-to-end checks of the store commands through the `counterminer`
//! binary: `collect`, `clean`, `import` and `query` on temporary
//! `.cmstore` files.

use cm_events::EventCatalog;
use cm_sim::{Benchmark, Workload};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh per-test directory, removed when the guard drops.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cm_cli_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn counterminer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_counterminer"))
        .args(args)
        .output()
        .expect("run the counterminer binary")
}

/// Runs a command that must succeed and returns its stdout.
fn ok(args: &[&str]) -> String {
    let out = counterminer(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn collect_then_query_lists_the_run_table() {
    let dir = TempDir::new("collect");
    let store = dir.file("runs.cmstore");
    ok(&[
        "collect", "sort", "--store", &store, "--runs", "2", "--events", "6",
    ]);

    let listing = ok(&["query", &store]);
    assert!(
        listing.contains("12 series, 2 run(s)"),
        "unexpected listing:\n{listing}"
    );
    let line = listing
        .lines()
        .find(|l| l.trim_start().starts_with("sort:"))
        .unwrap_or_else(|| panic!("no sort line in:\n{listing}"));
    assert!(
        line.contains("2 run(s), 6 events, 12 series, exec times ["),
        "unexpected program line: {line}"
    );
}

#[test]
fn clean_then_query_one_series() {
    let dir = TempDir::new("clean");
    let (raw, cleaned) = (dir.file("raw.cmstore"), dir.file("clean.cmstore"));
    ok(&[
        "collect", "sort", "--store", &raw, "--runs", "2", "--events", "6",
    ]);
    let report = ok(&["clean", &raw, "--out", &cleaned]);
    assert!(report.starts_with("cleaned 2 run(s)"), "{report}");

    let catalog = EventCatalog::haswell();
    let workload = Workload::new(Benchmark::Sort, &catalog);
    let event = workload.top_event_ids(&catalog, 6).iter().next().unwrap();
    let abbrev = catalog.info(event).abbrev();
    let shown = ok(&[
        "query",
        &cleaned,
        "--program",
        "sort",
        "--event",
        abbrev,
        "--run",
        "1",
        "--bins",
        "4",
    ]);
    assert!(shown.starts_with("sort run 1 (MLPX)"), "{shown}");
    assert!(shown.contains("samples "), "{shown}");
    let bins = shown.lines().filter(|l| l.starts_with('[')).count();
    assert_eq!(bins, 4, "{shown}");
    assert!(shown.contains("exec time over 2 run(s)"), "{shown}");
}

#[test]
fn import_perf_stat_text_into_a_store() {
    let dir = TempDir::new("import");
    let perf = dir.file("perf.csv");
    std::fs::write(
        &perf,
        "1.001,12345,,ICACHE.MISSES,100,\n\
         1.001,<not counted>,,ILD_STALL.IQ_FULL,0,\n\
         2.002,23456,,ICACHE.MISSES,100,\n\
         2.002,999,,ILD_STALL.IQ_FULL,100,\n",
    )
    .unwrap();
    let store = dir.file("imported.cmstore");
    let parsed = ok(&["import", &perf, "--store", &store, "--program", "myprog"]);
    assert!(
        parsed.contains("parsed 2 intervals, 2 events, 1 `<not counted>` samples"),
        "{parsed}"
    );

    let listing = ok(&["query", &store]);
    assert!(
        listing.contains("myprog: 1 run(s), 2 events, 2 series"),
        "{listing}"
    );
    let abbrev = EventCatalog::haswell()
        .by_name("ICACHE.MISSES")
        .unwrap()
        .abbrev()
        .to_string();
    let shown = ok(&["query", &store, "--program", "myprog", "--event", &abbrev]);
    assert!(shown.contains("samples 2"), "{shown}");
    assert!(shown.contains("max 23456.0"), "{shown}");
}

#[test]
fn colliding_collect_is_a_typed_error_and_leaves_the_store_intact() {
    let dir = TempDir::new("collide");
    let store = dir.file("runs.cmstore");
    ok(&[
        "collect", "sort", "--store", &store, "--runs", "1", "--events", "6",
    ]);
    let before = std::fs::read(&store).unwrap();

    let out = counterminer(&[
        "collect", "sort", "--store", &store, "--runs", "2", "--events", "6",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a typed error exits 1, a panic 101"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("of sort run 0 already stored"),
        "expected DuplicateSeries, got: {stderr}"
    );
    assert_eq!(std::fs::read(&store).unwrap(), before);
}

/// A misspelt or retired option fails with exit code 2 and names the
/// option, instead of running with the default it was meant to change.
#[test]
fn unknown_options_exit_2_and_are_named() {
    for (args, option) in [
        (
            &["error", "sort", "--events", "8", "--sede", "3"][..],
            "--sede",
        ),
        (&["analyze", "sort", "--trainer", "exact"][..], "--trainer"),
    ] {
        let out = counterminer(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {option}")),
            "{args:?}: {stderr}"
        );
    }
    // `--help` is not an unknown option anywhere: it prints the usage.
    assert!(ok(&["analyze", "sort", "--help"]).contains("USAGE"));
}
