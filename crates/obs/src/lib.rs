//! Pipeline observability for the CounterMiner workspace: hierarchical
//! span timers, typed metrics, and pluggable reporters — with zero
//! dependencies and zero hot-path cost when disabled.
//!
//! The pipeline stages (collector → cleaner → GBRT training → EIR →
//! interaction sweeps) each do quantifiable work: samples taken,
//! outliers replaced, trees grown, pruning rounds evaluated. This crate
//! is how they report it:
//!
//! * [`span!`] — a hierarchical RAII wall-clock timer; nested spans form
//!   a parent/child tree via a per-thread stack of slash-joined paths,
//! * [`Registry`] — the global sink for **counters** (monotonic `u64`
//!   sums), **gauges** (last-written `f64`), **labels** (last-written
//!   strings, e.g. the active trainer), **histograms** (exact-value
//!   counts for low-cardinality observations such as the cleaner's
//!   chosen `n`), and **series** (ordered `(x, y)` points, e.g. the EIR
//!   error curve),
//! * [`report`] — two reporters over a drained [`Snapshot`]: a
//!   human-readable tree summary and machine-readable JSON lines.
//!
//! # Modes and cost
//!
//! Collection is controlled by a process-wide [`Mode`], resolved from
//! [`set_mode`] or (lazily, on first use) the `CM_OBS` environment
//! variable (`off`, `summary`, `json`, or `json:PATH`). The default is
//! [`Mode::Off`], in which every recording entry point returns after a
//! single relaxed atomic load — instrumented hot paths cost nothing
//! measurable. When enabled, writes go to one of a fixed set of
//! mutex-guarded shards chosen per thread, so concurrent recording
//! rarely contends; [`Registry::drain`] merges and resets all shards.
//!
//! # Determinism
//!
//! Count-valued data (counters, histogram counts, series points, span
//! *counts*) must be **bit-identical at any thread count**; only
//! durations (span times and `*_ns` counters) and explicitly
//! scheduling-scoped metrics (`par.sched.*`, and the serving layer's
//! batch-formation counters `serve.batch.*` / `serve.dedup.*`, which
//! depend on how many requests happen to be queued when the scheduler
//! drains) may vary. Counter sums commute, so any instrumentation that
//! adds per-item counts from parallel workers satisfies this
//! automatically. The rule is enforced end-to-end by the
//! `obs_determinism` integration test and exposed via
//! [`Snapshot::deterministic_counters`].
//!
//! # Counter namespaces
//!
//! Counter names are dot-separated, first segment = the emitting
//! subsystem. The namespaces in use across the workspace:
//!
//! | prefix | emitted by | examples |
//! |---|---|---|
//! | `collector.` / `pmu.` | run collection & the simulated PMU | `collector.runs`, `pmu.samples`, `pmu.group_switches` |
//! | `cleaner.` | the data cleaner | `cleaner.series`, `cleaner.outliers_replaced`, `cleaner.missing_filled`, `cleaner.zeros_kept` |
//! | `ml.` / `interaction.` | model training & pair ranking | `ml.trees_grown`, `interaction.pairs` |
//! | `pipeline.` | the pipeline facade | `pipeline.analyses`, `pipeline.resume.hits`, `pipeline.resume.misses` (persistent-store snapshot reuse) |
//! | `store.` | the persistent columnar store | `store.commits`, `store.chunks_written`, `store.bytes_written`, `store.recovered_partial`, `store.cache.hits`, `store.cache.misses`, `store.cache.evictions` |
//! | `store.commit.` | the store's commit copy path | `store.commit.copy_reads` (positioned reads that copied committed chunks into the next file; one per staging-buffer fill of a contiguous run, not one per chunk), `store.commit.copied_bytes` (committed chunk bytes copied) |
//! | `store.decode.` | the store's chunk read path | `store.decode.chunks` (chunks checksummed + decoded), `store.decode.bytes` (payload bytes decoded), `store.decode.reads` (positioned file reads issued; batched reads coalesce many chunks per read) |
//! | `par.sched.` | thread-pool scheduling (non-deterministic by design) | `par.sched.steals` |
//! | `serve.` | the concurrent analysis service (`cm-serve`) | `serve.requests`, `serve.errors`, `serve.subscriptions`, `serve.notifications` (workload-deterministic); `serve.batch.flushes`, `serve.batch.coalesced`, `serve.dedup.hits` (batch formation — scheduling-scoped like `par.sched.*`) |
//! | `stream.` | streaming ingest & incremental analysis (`cm-stream`) | `stream.appends`, `stream.append_rows`, `stream.reclean_rows` (tail rows re-cleaned), `stream.warm_starts` (cached analysis reused), `stream.trains` (full retrains) — all workload-deterministic |
//! | `cluster.` | the cross-benchmark cluster analysis mode (`counterminer`) | `cluster.analyses`, `cluster.runs` (corpus + injected runs clustered), `cluster.injected`, `cluster.anomalies` — all workload-deterministic counts |
//! | `chaos.` | the fault-injection harness (`cm-chaos`) | `chaos.faults.injected`, `chaos.faults.short_read`, `chaos.faults.fail_write`, `chaos.faults.short_write`, `chaos.faults.fail_sync`, `chaos.faults.bit_flip` |
//!
//! New instrumentation should join an existing namespace or add one
//! segment-first, so reports group related counters together.
//!
//! # Examples
//!
//! ```
//! cm_obs::set_mode(cm_obs::Mode::Summary);
//! {
//!     let _outer = cm_obs::span!("clean");
//!     let _inner = cm_obs::span!("clean.series", event = 3);
//!     cm_obs::counter_add("cleaner.outliers_replaced", 2);
//!     cm_obs::histogram_record("cleaner.n_used", 3.5);
//!     cm_obs::series_push("eir.cv_error", 60.0, 0.082);
//! }
//! let snap = cm_obs::Registry::global().drain();
//! assert_eq!(snap.counters["cleaner.outliers_replaced"], 2);
//! assert_eq!(snap.spans["clean/clean.series{event=3}"].count, 1);
//! assert_eq!(snap.series["eir.cv_error"], vec![(60.0, 0.082)]);
//! cm_obs::set_mode(cm_obs::Mode::Off);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod registry;
pub mod report;
mod span;

pub use registry::{
    counter_add, gauge_set, histogram_record, label_set, series_push, Registry, Snapshot, SpanStat,
};
pub use report::{render_json, render_summary};
pub use span::{span_enter, span_enter_detached, span_enter_under, SpanGuard, SpanHandle};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// What the observability layer does with recorded data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Mode {
    /// Collect nothing; every recording call is a near-free no-op.
    #[default]
    Off,
    /// Collect, and render the human-readable tree summary on
    /// [`report::report`].
    Summary,
    /// Collect, and render JSON lines on [`report::report`] — to stderr,
    /// or to the file named by the optional path.
    Json(Option<String>),
}

/// 0 = uninitialized, 1 = off, 2 = summary, 3 = json.
static MODE_TAG: AtomicU8 = AtomicU8::new(0);
/// Destination path for [`Mode::Json`]; `None` means stderr.
static JSON_PATH: Mutex<Option<String>> = Mutex::new(None);

/// Parses a mode string: `off`, `summary`, `json`, or `json:PATH`.
///
/// This is the grammar of both the `CM_OBS` environment variable and
/// the CLI's `--metrics` option.
///
/// # Errors
///
/// Returns a human-readable message for anything else.
///
/// # Examples
///
/// ```
/// use cm_obs::{parse_mode, Mode};
/// assert_eq!(parse_mode("summary"), Ok(Mode::Summary));
/// assert_eq!(
///     parse_mode("json:/tmp/metrics.jsonl"),
///     Ok(Mode::Json(Some("/tmp/metrics.jsonl".to_string())))
/// );
/// assert!(parse_mode("verbose").is_err());
/// ```
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    if s.eq_ignore_ascii_case("off") {
        Ok(Mode::Off)
    } else if s.eq_ignore_ascii_case("summary") {
        Ok(Mode::Summary)
    } else if s.eq_ignore_ascii_case("json") {
        Ok(Mode::Json(None))
    } else if let Some(path) = s.strip_prefix("json:") {
        Ok(Mode::Json(Some(path.to_string())))
    } else {
        Err(format!(
            "unknown metrics mode {s:?}; expected off, summary, json, or json:PATH"
        ))
    }
}

/// Sets the process-wide observability mode, overriding `CM_OBS`.
pub fn set_mode(mode: Mode) {
    let tag = match &mode {
        Mode::Off => 1,
        Mode::Summary => 2,
        Mode::Json(path) => {
            *JSON_PATH.lock().unwrap_or_else(|e| e.into_inner()) = path.clone();
            3
        }
    };
    MODE_TAG.store(tag, Ordering::Release);
}

/// The current mode, initializing from `CM_OBS` on first call.
pub fn mode() -> Mode {
    match tag() {
        1 => Mode::Off,
        2 => Mode::Summary,
        _ => Mode::Json(JSON_PATH.lock().unwrap_or_else(|e| e.into_inner()).clone()),
    }
}

/// Whether collection is active. A single relaxed atomic load on the
/// hot path — instrumentation should gate any non-trivial bookkeeping
/// (string formatting, `Instant::now`) behind this.
#[inline]
pub fn enabled() -> bool {
    tag() != 1
}

#[inline]
fn tag() -> u8 {
    let t = MODE_TAG.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    init_from_env()
}

#[cold]
fn init_from_env() -> u8 {
    let mode = std::env::var("CM_OBS")
        .ok()
        .and_then(|v| parse_mode(v.trim()).ok())
        .unwrap_or(Mode::Off);
    set_mode(mode);
    MODE_TAG.load(Ordering::Relaxed)
}

/// Opens a hierarchical timing span; the returned [`SpanGuard`] records
/// the span's wall time into the global [`Registry`] when dropped.
///
/// The first argument is the span name; optional trailing `key = value`
/// fields are formatted into the name as `name{key=value,…}`, giving
/// per-instance spans (e.g. one per EIR pruning round) that still
/// aggregate cleanly. Nested spans — on the *same thread* — become
/// children: their recorded path is `parent/child`. Spans opened inside
/// parallel regions start a fresh tree on the worker thread; prefer
/// counters there.
///
/// # Examples
///
/// ```
/// cm_obs::set_mode(cm_obs::Mode::Summary);
/// for round in 0..3 {
///     let _span = cm_obs::span!("eir.round", round = round);
///     // ... train and evaluate ...
/// }
/// let snap = cm_obs::Registry::global().drain();
/// assert_eq!(snap.spans["eir.round{round=1}"].count, 1);
/// cm_obs::set_mode(cm_obs::Mode::Off);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::span_enter(::std::string::String::from($name))
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        if $crate::enabled() {
            let mut __path = ::std::string::String::from($name);
            __path.push('{');
            let __fields: ::std::vec::Vec<::std::string::String> =
                vec![$(::std::format!(::std::concat!(::std::stringify!($key), "={}"), $value)),+];
            __path.push_str(&__fields.join(","));
            __path.push('}');
            $crate::span_enter(__path)
        } else {
            $crate::SpanGuard::disabled()
        }
    }};
}

/// Serializes the unit tests that toggle the global mode or drain the
/// global registry: tests run on parallel threads, and one test's
/// `set_mode(Off)` or `drain()` must not land inside another's window.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_rejects() {
        assert_eq!(parse_mode("OFF"), Ok(Mode::Off));
        assert_eq!(parse_mode("Summary"), Ok(Mode::Summary));
        assert_eq!(parse_mode("json"), Ok(Mode::Json(None)));
        assert_eq!(
            parse_mode("json:out.jsonl"),
            Ok(Mode::Json(Some("out.jsonl".into())))
        );
        assert!(parse_mode("").is_err());
        assert!(parse_mode("trace").is_err());
    }
}
