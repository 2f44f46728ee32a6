//! CLI subcommand implementations.

use crate::args::{ArgError, Args};
use cm_events::{EventCatalog, EventId, RunRecord, SampleMode};
use cm_load::{
    chaos_sweep, prepare_store, run_workload, saturation_sweep, LoadReport, LoopMode, RunMetrics,
    Workload as LoadWorkload,
};
use cm_ml::SgbrtConfig;
use cm_serve::{Pending, Request, Response, ServeConfig, Server, ServerHandle};
use cm_sim::{Benchmark, PmuConfig, SparkParam, SparkStudy, Workload, ALL_BENCHMARKS};
use cm_store::{SeriesKey, Store, StoreError};
use counterminer::case_study::{
    rank_param_event_interactions, sweep_parameter, ProfilingCostModel,
};
use counterminer::error_metrics::mlpx_error;
use counterminer::{
    collector, CleanerKind, ClusterConfig, CounterMiner, DataCleaner, ImportanceConfig, MinerConfig,
};
use std::collections::BTreeSet;
use std::error::Error;
use std::path::Path;
use std::time::Duration;

type CmdResult = Result<(), Box<dyn Error>>;

/// Usage text shown by `counterminer help`.
pub const USAGE: &str = "\
counterminer — mining big performance data from hardware counters

USAGE: counterminer <command> [options]

COMMANDS:
  catalog [--abbrev ISF]            list the 229-event Haswell-E catalog,
                                    or look one event up
  benchmarks                        list the sixteen simulated benchmarks
  collect <benchmark> --store FILE  profile a benchmark on the simulated
        [--runs N] [--events N]     PMU and append the runs to the
        [--ocoe] [--seed S]         columnar store FILE
  clean <FILE> --out FILE2          clean every multiplexed run of a
                                    store, writing the cleaned store
  import <FILE> --store FILE        parse `perf stat -I -x,` interval
        [--program NAME] [--sep C]  output into the columnar store
  error <benchmark> [--events N]    measure the MLPX error of
        [--seed S]                  ICACHE.MISSES before/after cleaning
  analyze <benchmark> [--events N]  the full pipeline: importance and
        [--runs N] [--trees N]      interaction rankings
        [--seed S] [--store FILE]
        [--cleaner point|bayes]     reconstruction estimator: point
                                    (default) or bayes, which attaches a
                                    variance to every reconstructed
                                    value and reports confidence
                                    intervals and a ranking-stability
                                    score (the CM_CLEANER environment
                                    variable also works; the cleaner is
                                    part of the snapshot fingerprint)
                                    with --store, collected and cleaned
                                    data persist into the columnar store
                                    FILE; a rerun with the same settings
                                    resumes from it, skipping collection
                                    and cleaning
        [--chaos-seed U64]          dev: inject the seed's deterministic
                                    schedule of I/O faults into the
                                    store (requires --store); reports
                                    the outcome instead of failing —
                                    the run must never panic
  ingest <benchmark> --store FILE   collect and clean a benchmark into
        [--runs N] [--events N]     the columnar store without modeling
        [--seed S]                  (a later analyze --store resumes)
        [--follow] [--chunk N]      with --follow, stream the rows in N
                                    at a time instead: each chunk is an
                                    atomic append and cleaning advances
                                    incrementally; an interrupted follow
                                    resumes from the committed rows
  query <FILE>                      list the programs of a columnar
                                    store: runs, events, exec times
        [--program NAME             or summarize one stored series:
         --event ABBR [--run N]     statistics, a textual histogram of
         [--bins B]]                B bins, and the program's exec times
  store-info <FILE> [--json]        columnar store facts: format version,
                                    series/chunk counts, encodings,
                                    file size, metadata; --json emits a
                                    machine-readable object
  serve --store FILE                start the in-process analysis server
        [--benchmark B]             and run a deterministic smoke
        [--requests N]              exercise: ping, store probe, and N
        [--workers N]               identical analyze requests that
                                    coalesce into one computation (the
                                    stats line shows the dedup hits)
  watch <benchmark> --store FILE    subscribe to the benchmark's ranking
        [--top K] [--chunk N]       on the analysis server while its
                                    rows stream in; prints a line only
                                    when the top-K order or the MAPM
                                    materially changes
  load --store FILE                 drive the concurrent serving layer
        --benchmark B               with a seeded mixed workload, once
        [--clients N] [--ops N]     with batching/dedup on and once off,
        [--mode closed|open]        reporting p50/p99/p999 latency and
        [--rate HZ] [--seed S]      throughput for both
        [--warmup-ms N]
        [--cooldown-ms N]
        [--curve 8,16,32]           also sweep client counts and report
                                    the measured saturation point
        [--out BENCH.json]          write the perf_gate-compatible
                                    report
        [--chaos-seeds N]           instead rerun the workload once per
        [--scratch DIR]             fault seed on a private store copy;
                                    fails on any handler panic or torn
                                    store
  cluster [BENCH,BENCH,...]         cluster cleaned counter signatures
        --store FILE [--k N]        across benchmarks (default: all 16)
        [--sigmas X] [--inject N]   with seeded k-medoids and flag
        [--runs N] [--events N]     anomalous runs; --inject adds N
        [--seed S] [--json]         synthetic anomalous runs per
                                    benchmark to verify detection;
                                    --json emits the machine-readable
                                    report
  spark <benchmark> [--seed S]      the Spark-tuning case study
  colocate <benchA> <benchB>        importance ranking of two co-located
        [--events N] [--seed S]     benchmarks sharing the PMU
  help                              this text

GLOBAL OPTIONS:
  --threads N                       worker threads for parallel stages
                                    (default: all cores; the CM_THREADS
                                    environment variable also works)
  --metrics MODE                    pipeline observability: off, summary
                                    (human-readable span/counter report
                                    on stderr), json, or json:PATH
                                    (JSON lines; the CM_OBS environment
                                    variable also works)

ENVIRONMENT:
  CM_STORE_CACHE                    columnar-store block-cache capacity
                                    (e.g. 64M, 1G; 0 disables caching)
  CM_STREAM_BLOCK                   streaming clean block size in rows
                                    (default 64); changing it changes
                                    the stream's config fingerprint
  CM_CLEANER                        default reconstruction estimator
                                    (point or bayes) wherever --cleaner
                                    is not given
";

fn benchmark_by_name(name: &str) -> Result<Benchmark, ArgError> {
    ALL_BENCHMARKS
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(name) || b.abbrev().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ArgError(format!(
                "unknown benchmark {name:?}; try one of: {}",
                ALL_BENCHMARKS
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

fn required_positional<'a>(args: &'a Args, index: usize, what: &str) -> Result<&'a str, ArgError> {
    args.positional(index)
        .ok_or_else(|| ArgError(format!("missing {what}")))
}

/// Options every command accepts: `--threads N` and `--metrics MODE`.
const GLOBAL_OPTIONS: &[&str] = &["threads", "metrics"];

/// Options [`miner_config`] reads, accepted by every command that
/// builds a pipeline configuration from them.
const MINER_OPTIONS: &[&str] = &["events", "runs", "trees", "seed", "cleaner"];

/// Rejects the first option (or flag) `command` does not read, naming
/// it — so a typo like `--sede` fails instead of silently running with
/// the default.
///
/// # Errors
///
/// Returns [`ArgError`] naming the unknown option.
pub fn check_options(command: &str, args: &Args) -> Result<(), ArgError> {
    let accepted: &[&[&str]] = match command {
        "catalog" => &[&["abbrev"]],
        "benchmarks" => &[],
        "collect" => &[&["store", "runs", "events", "seed", "ocoe"]],
        "clean" => &[&["out"]],
        "import" => &[&["store", "program", "sep"]],
        "error" | "colocate" => &[&["events", "seed"]],
        "analyze" => &[MINER_OPTIONS, &["store", "chaos-seed"]],
        "ingest" => &[MINER_OPTIONS, &["store", "follow", "chunk"]],
        "query" => &[&["program", "event", "run", "bins"]],
        "store-info" => &[&["json"]],
        "serve" => &[
            MINER_OPTIONS,
            &["store", "benchmark", "requests", "workers"],
        ],
        "watch" => &[MINER_OPTIONS, &["store", "top", "chunk", "workers"]],
        "load" => &[
            MINER_OPTIONS,
            &[
                "store",
                "benchmark",
                "clients",
                "ops",
                "workers",
                "warmup-ms",
                "cooldown-ms",
                "mode",
                "rate",
                "chaos-seeds",
                "scratch",
                "curve",
                "out",
            ],
        ],
        "cluster" => &[MINER_OPTIONS, &["store", "k", "sigmas", "inject", "json"]],
        "spark" => &[&["seed"]],
        // `help` ignores its arguments; an unknown command is reported
        // by the dispatcher.
        _ => return Ok(()),
    };
    let known =
        |key: &str| GLOBAL_OPTIONS.contains(&key) || accepted.iter().any(|g| g.contains(&key));
    match args.keys().find(|key| !known(key)) {
        Some(key) => Err(ArgError(format!(
            "unknown option --{key} for `{command}` (see `counterminer help`)"
        ))),
        None => Ok(()),
    }
}

/// `counterminer catalog [--abbrev X]`
pub fn catalog(args: &Args) -> CmdResult {
    let catalog = EventCatalog::haswell();
    match args.get("abbrev") {
        Some(abbrev) => {
            let info = catalog
                .by_abbrev(abbrev)
                .ok_or_else(|| ArgError(format!("no event with abbreviation {abbrev:?}")))?;
            println!("{:<6} {}", info.abbrev(), info.name());
            println!("  {}", info.description());
            println!("  kind: {}, distribution: {}", info.kind(), info.family());
        }
        None => {
            println!("{} events:", catalog.len());
            for info in catalog.iter() {
                println!(
                    "{:<6} {:<52} {:<9} {}",
                    info.abbrev(),
                    info.name(),
                    info.kind().to_string(),
                    info.family()
                );
            }
        }
    }
    Ok(())
}

/// `counterminer benchmarks`
pub fn benchmarks() -> CmdResult {
    println!(
        "{:<20} {:<6} {:<12} {:<28} category",
        "benchmark", "abbr", "suite", "framework"
    );
    for b in ALL_BENCHMARKS {
        println!(
            "{:<20} {:<6} {:<12} {:<28} {}",
            b.to_string(),
            b.abbrev(),
            b.suite().to_string(),
            b.framework(),
            b.category()
        );
    }
    Ok(())
}

/// Opens a store the command only reads: a missing file is an error,
/// not an empty store.
fn open_existing(path: &str) -> Result<Store, Box<dyn Error>> {
    if !Path::new(path).exists() {
        return Err(ArgError(format!("no store at {path}")).into());
    }
    Ok(Store::open(Path::new(path))?)
}

/// Stages `runs` into the store at `path` and commits them. A run that
/// is already stored fails with [`cm_store::StoreError::DuplicateSeries`]
/// before anything is written.
fn append_runs<'a>(
    path: &str,
    runs: impl IntoIterator<Item = &'a RunRecord>,
) -> Result<(), Box<dyn Error>> {
    let mut store = Store::open(Path::new(path))?;
    for run in runs {
        store.append_run(run)?;
    }
    store.commit()?;
    Ok(())
}

/// `counterminer collect <benchmark> --store FILE [...]`
pub fn collect(args: &Args) -> CmdResult {
    let benchmark = benchmark_by_name(required_positional(args, 1, "benchmark name")?)?;
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    let runs: usize = args.get_num("runs", 2)?;
    let n_events: usize = args.get_num("events", 10)?;
    let seed: u64 = args.get_num("seed", 0)?;
    let mode = if args.flag("ocoe") {
        SampleMode::Ocoe
    } else {
        SampleMode::Mlpx
    };

    let catalog = EventCatalog::haswell();
    let workload = Workload::new(benchmark, &catalog);
    let events = workload.top_event_ids(&catalog, n_events);
    let pmu = PmuConfig::default();
    let collected = collector::collect_runs(&workload, &events, mode, runs, &pmu, seed);
    append_runs(path, collected.iter().map(|run| &run.record))?;
    println!("collected {runs} {mode} run(s) of {benchmark} measuring {n_events} events -> {path}");
    Ok(())
}

/// `counterminer clean <FILE> --out FILE2`
pub fn clean(args: &Args) -> CmdResult {
    let path = required_positional(args, 1, "store file")?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out FILE is required".into()))?;
    let store = open_existing(path)?;
    let cleaner = DataCleaner::default();
    let mut cleaned = Vec::new();
    let mut outliers = 0usize;
    let mut missing = 0usize;
    for id in store.run_ids() {
        let mut run = store.read_run(id)?;
        if id.mode == SampleMode::Mlpx {
            for report in cleaner.clean_run(&mut run)? {
                outliers += report.outliers_replaced;
                missing += report.missing_filled;
            }
        }
        cleaned.push(run);
    }
    append_runs(out, &cleaned)?;
    println!(
        "cleaned {} run(s): {outliers} outliers replaced, {missing} missing values filled -> {out}",
        cleaned.len()
    );
    Ok(())
}

/// `counterminer import <FILE> --store FILE [...]`
pub fn import(args: &Args) -> CmdResult {
    let file = required_positional(args, 1, "perf output file")?;
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    let program = args.get("program").unwrap_or("imported");
    let sep = args
        .get("sep")
        .map(|s| s.chars().next().unwrap_or(','))
        .unwrap_or(',');
    let catalog = EventCatalog::haswell();
    let text = std::fs::read_to_string(file)?;
    let report = counterminer::import::parse_perf_stat(&text, sep, program, 0, &catalog)?;
    println!(
        "parsed {} intervals, {} events, {} `<not counted>` samples",
        report.intervals,
        report.run.event_count(),
        report.not_counted
    );
    if !report.unknown_events.is_empty() {
        println!("unmatched event names: {:?}", report.unknown_events);
    }
    append_runs(path, [&report.run])?;
    println!("stored -> {path}");
    Ok(())
}

/// `counterminer error <benchmark> [--events N] [--seed S]`
pub fn error(args: &Args) -> CmdResult {
    let benchmark = benchmark_by_name(required_positional(args, 1, "benchmark name")?)?;
    let n_events: usize = args.get_num("events", 10)?;
    let seed: u64 = args.get_num("seed", 0)?;

    let catalog = EventCatalog::haswell();
    let workload = Workload::new(benchmark, &catalog);
    let icm = catalog
        .by_abbrev(cm_events::abbrev::ICM)
        .expect("ICM in catalog")
        .id();
    let mut events = workload.top_event_ids(&catalog, n_events);
    events.insert(icm);
    let pmu = PmuConfig::default();

    let ocoe1 = pmu.simulate_ocoe(&workload, &events, 0, seed);
    let ocoe2 = pmu.simulate_ocoe(&workload, &events, 1, seed);
    let mlpx = pmu.simulate_mlpx(&workload, &events, 2, seed);
    let s1 = ocoe1.record.series(icm).expect("measured");
    let s2 = ocoe2.record.series(icm).expect("measured");
    let sm = mlpx.record.series(icm).expect("measured");
    let raw = mlpx_error(s1, s2, sm)?;
    let (cleaned, report) = DataCleaner::default().clean_series(sm)?;
    let after = mlpx_error(s1, s2, &cleaned)?;
    println!(
        "{benchmark}: ICACHE.MISSES MLPX error {raw:.1}% raw -> {after:.1}% cleaned \
         ({} outliers, {} missing; {n_events} events on {} counters)",
        report.outliers_replaced, report.missing_filled, pmu.counters
    );
    Ok(())
}

/// Builds the pipeline configuration shared by `analyze` and `ingest`
/// from the common command-line knobs. Both commands must agree on the
/// collection settings for an `ingest` to warm a later `analyze --store`.
fn miner_config(args: &Args) -> Result<MinerConfig, ArgError> {
    let n_events: usize = args.get_num("events", 60)?;
    let runs: usize = args.get_num("runs", 2)?;
    let trees: usize = args.get_num("trees", 80)?;
    let seed: u64 = args.get_num("seed", 0)?;
    let cleaner: CleanerKind = match args.get("cleaner") {
        Some(s) => s.parse().map_err(|e| ArgError(format!("{e}")))?,
        None => CleanerKind::default(),
    };
    Ok(MinerConfig {
        runs_per_benchmark: runs,
        cleaner_kind: cleaner,
        events_to_measure: Some(n_events),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: trees,
                ..SgbrtConfig::default()
            },
            seed,
            ..ImportanceConfig::default()
        },
        seed,
        ..MinerConfig::default()
    })
}

/// `counterminer analyze <benchmark> [...]`
pub fn analyze(args: &Args) -> CmdResult {
    let benchmark = benchmark_by_name(required_positional(args, 1, "benchmark name")?)?;
    let chaos_seed: Option<u64> = match args.get("chaos-seed") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| ArgError(format!("--chaos-seed needs a u64, got {raw:?}")))?,
        ),
    };
    let mut miner = CounterMiner::new(miner_config(args)?);
    let report = match (args.get("store"), chaos_seed) {
        (None, Some(_)) => {
            return Err(ArgError("--chaos-seed requires --store FILE".into()).into());
        }
        (Some(path), Some(seed)) => {
            // Dev harness: run the store-backed pipeline with the
            // seed's fault schedule injected into every store I/O.
            // Both outcomes are expected — completion or a typed
            // error — so the command reports instead of failing; a
            // panic is the only wrong answer.
            let fs = std::sync::Arc::new(cm_chaos::FaultFs::new(seed));
            let outcome = (|| -> Result<_, Box<dyn Error>> {
                let mut store = Store::open_with_vfs(
                    Path::new(path),
                    cm_store::CacheConfig::from_env(),
                    fs.clone(),
                )?;
                Ok(miner.analyze_with_store(benchmark, &mut store)?)
            })();
            match outcome {
                Ok(report) => {
                    println!(
                        "chaos seed {seed}: {} fault(s) injected, pipeline completed",
                        fs.injected()
                    );
                    report
                }
                Err(e) => {
                    println!(
                        "chaos seed {seed}: {} fault(s) injected, typed failure: {e}",
                        fs.injected()
                    );
                    return Ok(());
                }
            }
        }
        (Some(path), None) => {
            let mut store = Store::open(Path::new(path))?;
            let report = miner.analyze_with_store(benchmark, &mut store)?;
            let info = store.info();
            println!(
                "store {path}: {} series, {} bytes on disk",
                info.series, info.file_bytes
            );
            report
        }
        (None, None) => miner.analyze(benchmark)?,
    };

    println!(
        "{benchmark}: cleaned {} outliers, filled {} missing values ({} cleaner)",
        report.outliers_replaced, report.missing_filled, report.cleaner
    );
    println!(
        "MAPM: {} events, {:.1}% held-out error",
        report.eir.mapm_events.len(),
        report.eir.best_error() * 100.0
    );
    println!("EIR curve:");
    print!("{}", counterminer::report::render_eir_curve(&report.eir));
    println!("top events:");
    print!(
        "{}",
        counterminer::report::render_importance(miner.catalog(), &report.eir, 10)
    );
    if let Some(uncertainty) = &report.eir.uncertainty {
        println!(
            "ranking stability (top-{}): {:.3} — probability the order above \
             survives resampling from the posteriors",
            uncertainty.top_k, uncertainty.stability
        );
        if let Some(intervals) = report.eir.confidence_intervals(0.95) {
            println!("95% confidence intervals on importance:");
            for (event, lo, hi) in intervals.iter().take(5) {
                println!(
                    "  {:<6} [{:5.1}%, {:5.1}%]",
                    miner.catalog().info(*event).abbrev(),
                    lo.max(0.0),
                    hi
                );
            }
        }
    }
    println!("top interaction pairs:");
    print!(
        "{}",
        counterminer::report::render_interactions(miner.catalog(), &report.interactions, 5)
    );
    Ok(())
}

/// `counterminer ingest <benchmark> --store FILE [--follow] [...]`
pub fn ingest(args: &Args) -> CmdResult {
    let benchmark = benchmark_by_name(required_positional(args, 1, "benchmark name")?)?;
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    if args.flag("follow") {
        return ingest_follow(args, benchmark, path);
    }
    let miner = CounterMiner::new(miner_config(args)?);
    let mut store = Store::open(Path::new(path))?;
    let summary = miner.ingest(benchmark, &mut store)?;
    if summary.resumed {
        println!(
            "{benchmark}: snapshot already in {path} ({} runs, {} events) — nothing to do",
            summary.runs, summary.events
        );
    } else {
        println!(
            "{benchmark}: collected {} run(s) of {} events, cleaned {} outliers and {} \
             missing values -> {path}",
            summary.runs, summary.events, summary.outliers_replaced, summary.missing_filled
        );
    }
    Ok(())
}

/// `counterminer ingest <benchmark> --store FILE --follow [--chunk N]`
///
/// Streaming ingest: rows arrive in chunks, each chunk appended and
/// committed atomically, with cleaning advancing incrementally (sealed
/// blocks are cleaned exactly once). A killed and restarted follow
/// resumes from the committed row count — re-running the command after
/// an interruption continues where the store left off.
fn ingest_follow(args: &Args, benchmark: Benchmark, path: &str) -> CmdResult {
    let chunk: usize = args.get_num("chunk", 32)?;
    if chunk == 0 {
        return Err(ArgError("--chunk must be at least 1".into()).into());
    }
    let config = cm_stream::StreamConfig::from_env(miner_config(args)?);
    let block = config.block;
    let mut store = Store::open(Path::new(path))?;
    let mut session = cm_stream::StreamSession::open(&mut store, benchmark, config)?;
    if session.total_rows() > 0 {
        println!(
            "{benchmark}: resuming at row {} of {} ({} sealed)",
            session.total_rows(),
            session.source_rows(),
            session.sealed_rows()
        );
    }
    let mut appends = 0usize;
    loop {
        let report = session.append(&mut store, chunk)?;
        if report.appended_rows > 0 {
            appends += 1;
            println!(
                "  +{:<4} rows -> {:>4}/{} total, {:>4} sealed, {:>3} recleaned",
                report.appended_rows,
                report.total_rows,
                session.source_rows(),
                report.sealed_rows,
                report.recleaned_rows
            );
        }
        if report.exhausted {
            break;
        }
    }
    println!(
        "{benchmark}: {} append(s) of up to {chunk} row(s), block size {block}; \
         {} outliers replaced, {} missing values filled -> {path}",
        appends,
        session.outliers_replaced(),
        session.missing_filled()
    );
    println!("(a later `analyze --store {path}` or `watch` picks this up)");
    Ok(())
}

/// Execution times of a program's runs, from the run table.
fn exec_times(store: &Store, program: &str) -> Vec<f64> {
    store
        .run_ids()
        .filter(|id| id.program == program)
        .filter_map(|id| store.exec_time_secs(id))
        .collect()
}

/// `counterminer query <FILE> [--program NAME --event ABBR [--run N] [--bins B]]`
pub fn query(args: &Args) -> CmdResult {
    let path = required_positional(args, 1, "store file")?;
    let store = open_existing(path)?;
    let Some(program) = args.get("program") else {
        // No program: list what the store holds.
        println!(
            "store {path}: {} series, {} run(s)",
            store.series_count(),
            store.run_ids().count()
        );
        for program in store.programs() {
            let keys: Vec<&SeriesKey> = store
                .series_keys()
                .filter(|k| k.program == program)
                .collect();
            let runs: BTreeSet<(u32, SampleMode)> =
                keys.iter().map(|k| (k.run_index, k.mode)).collect();
            let events: BTreeSet<EventId> = keys.iter().map(|k| k.event).collect();
            let times: Vec<String> = exec_times(&store, &program)
                .iter()
                .map(|t| format!("{t:.1}s"))
                .collect();
            println!(
                "  {program}: {} run(s), {} events, {} series, exec times [{}]",
                runs.len(),
                events.len(),
                keys.len(),
                times.join(", ")
            );
        }
        return Ok(());
    };
    let abbrev = args
        .get("event")
        .ok_or_else(|| ArgError("--event ABBR is required with --program".into()))?;
    let run_index: u32 = args.get_num("run", 0)?;
    let bins: usize = args.get_num("bins", 12)?;
    let catalog = EventCatalog::haswell();
    let info = catalog
        .by_abbrev(abbrev)
        .ok_or_else(|| ArgError(format!("no event with abbreviation {abbrev:?}")))?;
    // Prefer the MLPX series, fall back to OCOE. Only a missing series
    // falls through: a damaged chunk is an error, not "not found".
    let (mode, series) = [SampleMode::Mlpx, SampleMode::Ocoe]
        .into_iter()
        .find_map(|mode| {
            match store.read_series_ts(&SeriesKey::new(program, run_index, mode, info.id())) {
                Err(StoreError::SeriesNotFound { .. }) => None,
                found => Some(found.map(|series| (mode, series))),
            }
        })
        .transpose()?
        .ok_or_else(|| {
            ArgError(format!(
                "no series for {abbrev} in run {run_index} of {program:?}"
            ))
        })?;

    println!(
        "{program} run {run_index} ({mode}) — {} ({})",
        info.name(),
        info.description()
    );
    println!(
        "samples {}   min {:.1}   mean {:.1}   max {:.1}   zeros {}",
        series.len(),
        series.min().unwrap_or(0.0),
        series.mean().unwrap_or(0.0),
        series.max().unwrap_or(0.0),
        series.zero_count()
    );
    let (edges, counts) = cm_stats::descriptive::histogram(series.values(), bins)
        .map_err(counterminer::CmError::Stats)?;
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, &count) in counts.iter().enumerate() {
        let bar = "#".repeat(count * 50 / peak);
        println!(
            "[{:>12.1}, {:>12.1})  {count:>5} {bar}",
            edges[i],
            edges[i + 1]
        );
    }
    let times = exec_times(&store, program);
    if !times.is_empty() {
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!(
            "exec time over {} run(s): min {min:.1}s mean {mean:.1}s max {max:.1}s",
            times.len()
        );
    }
    Ok(())
}

/// `counterminer store-info <FILE> [--json]`
pub fn store_info(args: &Args) -> CmdResult {
    let path = required_positional(args, 1, "store file")?;
    let store = Store::open(Path::new(path))?;
    let info = store.info();
    // Snapshot cleaner kinds: which estimator reconstructed each
    // persisted benchmark snapshot (the fingerprint covers it, so a
    // resume under the other cleaner is a miss).
    let cleaners: Vec<(&str, String)> = ALL_BENCHMARKS
        .iter()
        .filter_map(|b| {
            store
                .meta(&format!("snapshot.{}.cleaner", b.name()))
                .map(|kind| (b.name(), kind.to_string()))
        })
        .collect();
    if args.flag("json") {
        println!("{{");
        println!(
            "  \"path\": \"{}\",",
            path.replace('\\', "\\\\").replace('"', "\\\"")
        );
        println!("  \"version\": {},", info.version);
        println!("  \"series\": {},", info.series);
        println!("  \"staged\": {},", info.staged);
        println!("  \"runs\": {},", info.runs);
        println!("  \"meta_entries\": {},", info.meta_entries);
        let kinds = cleaners
            .iter()
            .map(|(name, kind)| format!("\"{name}\": \"{kind}\""))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  \"cleaners\": {{{kinds}}},");
        println!("  \"total_values\": {},", info.total_values);
        println!("  \"file_bytes\": {},", info.file_bytes);
        println!("  \"delta_chunks\": {},", info.delta_chunks);
        println!("  \"raw_chunks\": {}", info.raw_chunks);
        println!("}}");
        return Ok(());
    }
    println!("store {path}");
    println!("  format version  {}", info.version);
    println!("  series          {} ({} staged)", info.series, info.staged);
    println!("  runs            {}", info.runs);
    println!("  sample values   {}", info.total_values);
    println!("  file size       {} bytes", info.file_bytes);
    println!(
        "  chunks          {} delta+varint, {} raw f64",
        info.delta_chunks, info.raw_chunks
    );
    if info.meta_entries > 0 {
        println!("  metadata        {} entries", info.meta_entries);
    }
    for (name, kind) in &cleaners {
        println!("  snapshot        {name} cleaned by the {kind} estimator");
    }
    Ok(())
}

/// `counterminer serve --store FILE [--benchmark B] [...]`
///
/// Starts the in-process analysis server on a store and runs a
/// deterministic smoke exercise against it: a ping, a store probe, and
/// `--requests` *identical* analyze requests enqueued before the
/// scheduler starts, so they land in one batch and deduplicate into a
/// single computation. The final stats line shows the dedup hits.
pub fn serve(args: &Args) -> CmdResult {
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    let requests: usize = args.get_num("requests", 8)?;
    let config = ServeConfig {
        miner: miner_config(args)?,
        workers: args.get_num("workers", 0)?,
        ..ServeConfig::default()
    };
    let mut server = Server::new(config);
    server.add_store("main", Path::new(path))?;
    let client = server.client();

    let ping = client.submit(Request::Ping);
    let info = client.submit(Request::Info {
        store: "main".into(),
    });
    let analyzes: Vec<Pending> = match args.get("benchmark") {
        Some(name) => {
            let benchmark = benchmark_by_name(name)?;
            (0..requests)
                .map(|_| {
                    client.submit(Request::Analyze {
                        store: "main".into(),
                        benchmark,
                    })
                })
                .collect()
        }
        None => Vec::new(),
    };

    let handle = server.start();
    ping.wait()?;
    if let Response::Info(i) = info.wait()? {
        println!(
            "store main: format v{}, {} series, {} bytes on disk",
            i.version, i.series, i.file_bytes
        );
    }
    let mut analysis = None;
    for pending in analyzes {
        if let Response::Analysis(a) = pending.wait()? {
            analysis = Some(a);
        }
    }
    if let Some(a) = analysis {
        let catalog = EventCatalog::haswell();
        println!(
            "{}: {} ranked events, {:.1}% held-out error (snapshot fingerprint {:016x})",
            a.benchmark,
            a.ranking.len(),
            a.best_error * 100.0,
            a.fingerprint
        );
        for (event, share) in a.ranking.iter().take(5) {
            println!("  {:<6} {share:5.1}%", catalog.info(*event).abbrev());
        }
    }
    let cache = handle.cache_stats();
    let stats = handle.shutdown();
    println!(
        "cache: {} hits, {} misses, {} entries resident",
        cache.hits, cache.misses, cache.entries
    );
    println!(
        "serve stats: {} requests, {} errors, {} batch flushes, {} coalesced reads, {} dedup hits",
        stats.requests, stats.errors, stats.batch_flushes, stats.batch_coalesced, stats.dedup_hits
    );
    Ok(())
}

/// `counterminer watch <benchmark> --store FILE [--top K] [--chunk N]`
///
/// Live-subscription demo: starts the in-process analysis server on the
/// store, subscribes to the benchmark's ranking, then streams the
/// benchmark's rows in through `StreamAppend` requests. The client is
/// notified only when the answer *materially* changes — the top-K order
/// shifts or the MAPM moves — so most appends print nothing.
pub fn watch(args: &Args) -> CmdResult {
    let benchmark = benchmark_by_name(required_positional(args, 1, "benchmark name")?)?;
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    let top_k: usize = args.get_num("top", 5)?;
    let chunk: usize = args.get_num("chunk", 32)?;
    if chunk == 0 {
        return Err(ArgError("--chunk must be at least 1".into()).into());
    }
    let config = ServeConfig {
        miner: miner_config(args)?,
        workers: args.get_num("workers", 0)?,
        ..ServeConfig::default()
    };
    let mut server = Server::new(config);
    server.add_store("main", Path::new(path))?;
    let client = server.client();
    let handle = server.start();
    let catalog = EventCatalog::haswell();

    let result = (|| -> CmdResult {
        let mut sub = client.subscribe("main", benchmark, top_k)?;
        let mut appends = 0usize;
        let mut notified = 0usize;
        loop {
            let response = client
                .submit(Request::StreamAppend {
                    store: "main".into(),
                    benchmark,
                    rows: chunk,
                })
                .wait()?;
            let report = match response {
                Response::Appended(report) => report,
                other => return Err(format!("unexpected response: {other:?}").into()),
            };
            if report.appended_rows > 0 {
                appends += 1;
            }
            for note in sub.poll()? {
                notified += 1;
                let events: Vec<&str> = note
                    .summary
                    .top_events()
                    .iter()
                    .map(|&e| catalog.info(e).abbrev())
                    .collect();
                println!(
                    "#{:<3} row {:>4}  {:<12}  top [{}]  MAPM {} events, {:.1}% error",
                    note.seq,
                    note.sealed_rows,
                    format!("{:?}", note.reason),
                    events.join(" "),
                    note.summary.mapm_events.len(),
                    note.summary.best_error * 100.0
                );
            }
            if report.exhausted {
                break;
            }
        }
        println!(
            "{benchmark}: {appends} append(s) of up to {chunk} row(s), {notified} \
             notification(s) — silent appends left the ranking unchanged"
        );
        Ok(())
    })();
    handle.shutdown();
    result
}

fn print_load_run(name: &str, m: &RunMetrics) {
    let l = &m.latency;
    println!(
        "{name:<10} {:>9.0} ops/s   p50 {:>7} us  p99 {:>7} us  p999 {:>7} us  max {:>7} us   \
         ({} dedup hits, {} coalesced reads, {} errors)",
        m.throughput_ops_per_sec,
        l.p50_ns / 1_000,
        l.p99_ns / 1_000,
        l.p999_ns / 1_000,
        l.max_ns / 1_000,
        m.stats.dedup_hits,
        m.stats.batch_coalesced,
        m.errors,
    );
}

/// `counterminer load --store FILE --benchmark B [...]`
///
/// Warms the store, then drives the serving layer with a seeded mixed
/// workload twice — batching/dedup on, then off — and reports latency
/// percentiles and throughput for both. `--out` writes the
/// `BENCH_serve_*.json` report the `perf_gate` binary understands;
/// `--chaos-seeds N` instead reruns the workload once per fault seed on
/// a private store copy and fails on any handler panic or torn store.
pub fn load(args: &Args) -> CmdResult {
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    let benchmark = benchmark_by_name(
        args.get("benchmark")
            .ok_or_else(|| ArgError("--benchmark NAME is required".into()))?,
    )?;
    let config = miner_config(args)?;
    let clients: usize = args.get_num("clients", 64)?;
    let ops: usize = args.get_num("ops", 16)?;
    let load_seed: u64 = args.get_num("seed", 0)?;
    let workers: usize = args.get_num("workers", 0)?;
    let warmup_ms: u64 = args.get_num("warmup-ms", 0)?;
    let cooldown_ms: u64 = args.get_num("cooldown-ms", 0)?;
    let mode = match args.get("mode").unwrap_or("closed") {
        "closed" => LoopMode::Closed,
        "open" => LoopMode::Open {
            rate_hz: args.get_num("rate", 50.0)?,
        },
        other => {
            return Err(ArgError(format!("--mode must be closed or open, not {other:?}")).into());
        }
    };
    let workload = LoadWorkload {
        clients,
        ops_per_client: ops,
        mode,
        seed: load_seed,
        warmup: Duration::from_millis(warmup_ms),
        cooldown: Duration::from_millis(cooldown_ms),
        ..LoadWorkload::default()
    };

    println!("warming {path} with {benchmark} ...");
    let keys = prepare_store(Path::new(path), benchmark, &config)?;
    println!("  {} series available to the query mix", keys.len());

    if let Some(raw) = args.get("chaos-seeds") {
        let seeds: u64 = raw
            .parse()
            .map_err(|_| ArgError(format!("--chaos-seeds needs a count, got {raw:?}")))?;
        let scratch = match args.get("scratch") {
            Some(dir) => std::path::PathBuf::from(dir),
            None => std::env::temp_dir().join(format!("cm_load_chaos_{}", std::process::id())),
        };
        let sc = ServeConfig {
            miner: config,
            workers,
            ..ServeConfig::default()
        };
        let report = chaos_sweep(
            Path::new(path),
            &scratch,
            benchmark,
            &sc,
            &workload,
            &keys,
            0..seeds,
        )?;
        let _ = std::fs::remove_dir_all(&scratch);
        println!(
            "chaos sweep over {seeds} seed(s): {} faults injected, {} requests, {} typed errors",
            report.total_faults(),
            report.total_ops(),
            report.total_typed_errors()
        );
        if report.handler_panics() > 0 || report.torn_stores() > 0 {
            return Err(format!(
                "chaos sweep failed: {} handler panic(s), {} torn store(s)",
                report.handler_panics(),
                report.torn_stores()
            )
            .into());
        }
        println!("every failure was typed; every store reopened intact");
        return Ok(());
    }

    let start_server = |batching: bool| -> Result<ServerHandle, Box<dyn Error>> {
        let sc = ServeConfig {
            miner: config,
            workers,
            batching,
            ..ServeConfig::default()
        };
        let mut server = Server::new(sc);
        server.add_store("main", Path::new(path))?;
        Ok(server.start())
    };
    let mode_id = match workload.mode {
        LoopMode::Closed => "closed",
        LoopMode::Open { .. } => "open",
    };
    let mut report = LoadReport::new(
        format!(
            "cm-load {mode_id}-loop mixed workload: {clients} clients x {ops} ops, seed \
             {load_seed}; batched vs unbatched on the same store"
        ),
        benchmark.name(),
    );

    let handle = start_server(true)?;
    let batched = run_workload(&handle, "main", benchmark, &keys, &workload, "batched");
    if let Some(curve) = args.get("curve") {
        let counts = curve
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<Vec<usize>, _>>()
            .map_err(|_| {
                ArgError(format!(
                    "--curve needs comma-separated counts, got {curve:?}"
                ))
            })?;
        let (runs, saturation) = saturation_sweep(
            &handle, "main", benchmark, &keys, &workload, &counts, "curve",
        );
        for r in &runs {
            println!(
                "  curve: {:>4} clients -> {:>9.0} ops/s",
                r.clients, r.throughput_ops_per_sec
            );
        }
        report.runs.extend(runs);
        report.saturation_clients = saturation;
        match saturation {
            Some(c) => println!("saturation at {c} clients"),
            None => println!("throughput still scaling at the last sweep point"),
        }
    }
    handle.shutdown();

    let handle = start_server(false)?;
    let unbatched = run_workload(&handle, "main", benchmark, &keys, &workload, "unbatched");
    handle.shutdown();

    print_load_run("batched", &batched);
    print_load_run("unbatched", &unbatched);
    if unbatched.throughput_ops_per_sec > 0.0 {
        println!(
            "batching speedup: {:.2}x",
            batched.throughput_ops_per_sec / unbatched.throughput_ops_per_sec
        );
    }
    report.register_throughput(
        &format!("serve/{mode_id}/throughput"),
        batched.throughput_ops_per_sec,
    );
    report.add_run(&format!("serve/{mode_id}/mixed/batched"), batched);
    report.add_run(&format!("serve/{mode_id}/mixed/unbatched"), unbatched);
    if let Some(out) = args.get("out") {
        report.write(Path::new(out))?;
        println!("report -> {out}");
    }
    Ok(())
}

/// `counterminer cluster [BENCH,...] --store FILE [...]`
///
/// The cross-benchmark `cluster` analysis mode: ingests every listed
/// benchmark into the store (warm snapshots are reused), builds cleaned
/// counter signatures, clusters them with seeded k-medoids, and flags
/// runs beyond their cluster's calibrated anomaly threshold. Output is
/// bit-identical at any `--threads`.
pub fn cluster(args: &Args) -> CmdResult {
    let benchmarks: Vec<Benchmark> = match args.positional(1) {
        Some(list) => list
            .split(',')
            .map(|name| benchmark_by_name(name.trim()))
            .collect::<Result<_, _>>()?,
        None => ALL_BENCHMARKS.to_vec(),
    };
    let path = args
        .get("store")
        .ok_or_else(|| ArgError("--store FILE is required".into()))?;
    let cfg = ClusterConfig {
        k: args.get_num("k", ClusterConfig::default().k)?,
        threshold_sigmas: args.get_num("sigmas", ClusterConfig::default().threshold_sigmas)?,
        inject_anomalies: args.get_num("inject", 0)?,
    };
    let miner = CounterMiner::new(miner_config(args)?);
    let mut store = Store::open(Path::new(path))?;
    let report = miner.analyze_cluster(&benchmarks, &mut store, &cfg)?;

    if args.flag("json") {
        println!("{{");
        println!("  \"k\": {},", report.k);
        println!("  \"mean_silhouette\": {},", report.mean_silhouette);
        println!(
            "  \"thresholds\": [{}],",
            report
                .thresholds
                .iter()
                .map(|t| if t.is_finite() {
                    t.to_string()
                } else {
                    "null".into()
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!("  \"anomalies\": {},", report.anomaly_count());
        println!("  \"runs\": [");
        for (i, r) in report.runs.iter().enumerate() {
            let comma = if i + 1 < report.runs.len() { "," } else { "" };
            println!(
                "    {{\"benchmark\": \"{}\", \"run\": {}, \"cluster\": {}, \
                 \"distance\": {}, \"injected\": {}, \"anomalous\": {}}}{comma}",
                r.benchmark, r.run_index, r.cluster, r.medoid_distance, r.injected, r.anomalous
            );
        }
        println!("  ]");
        println!("}}");
    } else {
        print!("{report}");
    }
    Ok(())
}

/// `counterminer spark <benchmark> [--seed S]`
pub fn spark(args: &Args) -> CmdResult {
    let benchmark = benchmark_by_name(required_positional(args, 1, "benchmark name")?)?;
    let seed: u64 = args.get_num("seed", 0)?;
    let catalog = EventCatalog::haswell();
    let study = SparkStudy::new(benchmark, &catalog);

    println!("(parameter, event) interaction ranking for {benchmark}:");
    let ranked = rank_param_event_interactions(&study, &catalog, 6, seed)?;
    for (param, event, share) in ranked.iter().take(5) {
        println!(
            "  {:<4} ({:<40}) <-> {:<4} {share:5.1}%",
            param.abbrev(),
            param.spark_name(),
            event
        );
    }
    let dominant = ranked[0].0;
    let weak = SparkParam::NetworkTimeout;
    println!("\nsweeps:");
    for param in [dominant, weak] {
        let sweep = sweep_parameter(&study, param, 8, seed)?;
        print!("  {:<4}", param.abbrev());
        for (label, secs) in &sweep.points {
            print!("  {label}={secs:.0}s");
        }
        println!("   variation {:.1}%", sweep.variation_percent());
    }
    let cost = ProfilingCostModel::default();
    println!(
        "\nprofiling cost at 90% accuracy: method B {} runs vs method A {} runs ({:.1}x)",
        cost.method_b_runs(0.9),
        cost.method_a_runs(0.9),
        cost.speedup(0.9)
    );
    Ok(())
}

/// `counterminer colocate <benchA> <benchB> [...]`
pub fn colocate(args: &Args) -> CmdResult {
    let a = benchmark_by_name(required_positional(args, 1, "first benchmark")?)?;
    let b = benchmark_by_name(required_positional(args, 2, "second benchmark")?)?;
    let n_events: usize = args.get_num("events", 60)?;
    let seed: u64 = args.get_num("seed", 0)?;

    let catalog = EventCatalog::haswell();
    let pair = cm_sim::ColocatedWorkload::new(a, b, &catalog);
    let pmu = PmuConfig::default();

    // Both solo profiles + the L2 family + filler.
    let mut events = cm_events::EventSet::new();
    for bench in [a, b] {
        for abbrev in bench.importance_profile() {
            events.insert(catalog.by_abbrev(abbrev).expect("profile event").id());
        }
    }
    for abbrev in ["L2H", "L2R", "L2C", "L2A", "L2M", "L2S", "BRE"] {
        events.insert(catalog.by_abbrev(abbrev).expect("named event").id());
    }
    for info in catalog.iter() {
        if events.len() >= n_events {
            break;
        }
        events.insert(info.id());
    }

    let runs: Vec<_> = (0..2)
        .map(|i| {
            let truth = pair.generate_run(i, seed);
            pmu.measure_mlpx(&pair, &truth, &events, i, seed)
        })
        .collect();
    let ids: Vec<cm_events::EventId> = events.iter().collect();
    let cleaner = DataCleaner::default();
    let data = collector::build_dataset(&runs, &ids, Some(&cleaner))?;
    let data = collector::normalize_columns(&data)?;
    let eir = counterminer::ImportanceRanker::new(ImportanceConfig {
        sgbrt: SgbrtConfig {
            n_trees: 80,
            ..SgbrtConfig::default()
        },
        min_events: 20,
        ..ImportanceConfig::default()
    })
    .rank(&data, &ids)?;

    println!("{} — top events:", pair.name());
    print!(
        "{}",
        counterminer::report::render_importance(&catalog, &eir, 10)
    );
    let l2 = eir
        .top(10)
        .iter()
        .filter(|&&(e, _)| catalog.info(e).is_l2_related())
        .count();
    println!("{l2} L2 events in the top 10");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_lookup_accepts_names_and_abbrevs() {
        assert_eq!(benchmark_by_name("sort").unwrap(), Benchmark::Sort);
        assert_eq!(benchmark_by_name("SOT").unwrap(), Benchmark::Sort);
        assert_eq!(
            benchmark_by_name("webserving").unwrap(),
            Benchmark::WebServing
        );
        assert!(benchmark_by_name("nope").is_err());
    }

    #[test]
    fn commands_reject_missing_arguments() {
        let parse = |tokens: &[&str]| {
            crate::args::Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
        };
        // collect without --store.
        assert!(collect(&parse(&["collect", "sort"])).is_err());
        // collect of an unknown benchmark.
        assert!(collect(&parse(&["collect", "nope", "--store", "/tmp/x.cmstore"])).is_err());
        // error without a benchmark.
        assert!(error(&parse(&["error"])).is_err());
        // query of a missing store file.
        assert!(query(&parse(&["query", "/definitely/not/here"])).is_err());
        // clean without --out, then of a missing store file.
        assert!(clean(&parse(&["clean", "/tmp"])).is_err());
        assert!(clean(&parse(&[
            "clean",
            "/definitely/not/here",
            "--out",
            "/tmp/x"
        ]))
        .is_err());
        // colocate with one benchmark missing.
        assert!(colocate(&parse(&["colocate", "sort"])).is_err());
        // import without --store or a missing file.
        assert!(import(&parse(&["import", "/no/such/file"])).is_err());
        // ingest without --store.
        assert!(ingest(&parse(&["ingest", "sort"])).is_err());
        // ingest of an unknown benchmark.
        assert!(ingest(&parse(&["ingest", "nope", "--store", "/tmp/x.cmstore"])).is_err());
        // watch without --store, then with a zero chunk.
        assert!(watch(&parse(&["watch", "sort"])).is_err());
        assert!(watch(&parse(&[
            "watch",
            "sort",
            "--store",
            "/tmp/x.cmstore",
            "--chunk",
            "0",
        ]))
        .is_err());
        // follow-mode ingest with a zero chunk (rejected before I/O).
        assert!(ingest(&parse(&[
            "ingest",
            "sort",
            "--store",
            "/tmp/x.cmstore",
            "--follow",
            "--chunk",
            "0",
        ]))
        .is_err());
        // cluster without --store, then with an unknown benchmark.
        assert!(cluster(&parse(&["cluster", "sort,wordcount"])).is_err());
        assert!(cluster(&parse(&["cluster", "nope", "--store", "/tmp/x.cmstore"])).is_err());
        // query without a store file.
        assert!(query(&parse(&["query"])).is_err());
        // query with --program but no --event.
        assert!(query(&parse(&["query", "/tmp/x", "--program", "wc"])).is_err());
        // store-info without a store file.
        assert!(store_info(&parse(&["store-info"])).is_err());
        // serve without --store.
        assert!(serve(&parse(&["serve"])).is_err());
        // load without --store, then without --benchmark.
        assert!(load(&parse(&["load"])).is_err());
        assert!(load(&parse(&["load", "--store", "/tmp/x.cmstore"])).is_err());
        // load with an unknown loop mode (rejected before any I/O).
        assert!(load(&parse(&[
            "load",
            "--store",
            "/tmp/x.cmstore",
            "--benchmark",
            "sort",
            "--mode",
            "sideways",
        ]))
        .is_err());
    }

    #[test]
    fn store_info_and_query_reject_non_store_files() {
        let dir = std::env::temp_dir().join(format!("cm_cli_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.cmstore");
        std::fs::write(&path, b"this is not a columnar store").unwrap();
        let parse = |tokens: &[&str]| {
            crate::args::Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
        };
        let p = path.to_string_lossy().into_owned();
        assert!(store_info(&parse(&["store-info", &p])).is_err());
        assert!(query(&parse(&["query", &p])).is_err());
    }

    #[test]
    fn query_reports_a_damaged_chunk_instead_of_not_found() {
        let dir = std::env::temp_dir().join(format!("cm_cli_crc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.cmstore");
        let catalog = EventCatalog::haswell();
        let info = catalog.by_abbrev(cm_events::abbrev::ICM).unwrap();
        let mut store = Store::open(&path).unwrap();
        let key = SeriesKey::new("wc", 0, SampleMode::Mlpx, info.id());
        store.append_series(key, &[0.5; 16]).unwrap();
        store.commit().unwrap();
        // The only chunk starts right after the 32-byte superblock.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[33] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let p = path.to_string_lossy().into_owned();
        let args = crate::args::Args::parse(
            ["query", &p, "--program", "wc", "--event", info.abbrev()]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let err = query(&args).unwrap_err();
        assert!(
            matches!(
                err.downcast_ref::<StoreError>(),
                Some(StoreError::ChecksumMismatch { .. })
            ),
            "expected a checksum error, got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_mentions_every_command() {
        for cmd in [
            "catalog",
            "benchmarks",
            "collect",
            "clean",
            "import",
            "error",
            "analyze",
            "ingest",
            "query",
            "store-info",
            "serve",
            "watch",
            "load",
            "cluster",
            "spark",
            "colocate",
        ] {
            assert!(USAGE.contains(cmd), "usage missing {cmd}");
        }
        assert!(USAGE.contains("--follow"), "usage missing --follow");
        assert!(USAGE.contains("--chunk"), "usage missing --chunk");
        assert!(
            USAGE.contains("CM_STREAM_BLOCK"),
            "usage missing CM_STREAM_BLOCK"
        );
        assert!(USAGE.contains("--json"), "usage missing --json");
        assert!(USAGE.contains("--clients"), "usage missing --clients");
        assert!(
            USAGE.contains("--chaos-seeds"),
            "usage missing --chaos-seeds"
        );
        assert!(USAGE.contains("--threads"), "usage missing --threads");
        assert!(USAGE.contains("--metrics"), "usage missing --metrics");
        assert!(USAGE.contains("--cleaner"), "usage missing --cleaner");
        assert!(USAGE.contains("CM_CLEANER"), "usage missing CM_CLEANER");
        assert!(USAGE.contains("--store"), "usage missing --store");
        assert!(USAGE.contains("--bins"), "usage missing --bins");
        assert!(USAGE.contains("--chaos-seed"), "usage missing --chaos-seed");
        assert!(USAGE.contains("CM_OBS"), "usage missing CM_OBS");
        assert!(
            USAGE.contains("CM_STORE_CACHE"),
            "usage missing CM_STORE_CACHE"
        );
    }

    #[test]
    fn chaos_seed_without_store_is_rejected() {
        let parse = |tokens: &[&str]| {
            crate::args::Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
        };
        let err = analyze(&parse(&["analyze", "sort", "--chaos-seed", "7"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--store"), "unexpected error: {err}");
        // And a non-numeric seed is a parse error, not a panic.
        let err = analyze(&parse(&[
            "analyze",
            "sort",
            "--chaos-seed",
            "banana",
            "--store",
            "/tmp/x.cmstore",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("u64"), "unexpected error: {err}");
    }

    #[test]
    fn analyze_rejects_unknown_cleaner() {
        let args = crate::args::Args::parse(
            ["analyze", "sort", "--cleaner", "oracle"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let err = analyze(&args).unwrap_err().to_string();
        assert!(err.contains("point"), "unexpected error: {err}");
        assert!(err.contains("bayes"), "unexpected error: {err}");
    }

    /// `--trainer` is gone: the exact trainer is a test oracle only, so
    /// the option is unknown rather than silently ignored.
    #[test]
    fn analyze_rejects_unknown_trainer() {
        let args = crate::args::Args::parse(
            ["analyze", "sort", "--trainer", "exact"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let err = check_options("analyze", &args).unwrap_err().to_string();
        assert!(
            err.contains("unknown option --trainer"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        let parse = |tokens: &[&str]| {
            crate::args::Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
        };
        let err = check_options("error", &parse(&["error", "sort", "--sede", "3"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--sede"), "unexpected error: {err}");
        // Flags count too, and the global options pass everywhere.
        assert!(check_options("analyze", &parse(&["analyze", "sort", "--json"])).is_err());
        check_options(
            "analyze",
            &parse(&["analyze", "sort", "--threads", "2", "--metrics", "off"]),
        )
        .unwrap();
        check_options("help", &parse(&["analyze", "--x", "1", "--help"])).unwrap();
        check_options("nonsense", &parse(&["nonsense", "--x", "1"])).unwrap();
    }
}
