//! The request/response protocol.

use cm_events::EventId;
use cm_sim::Benchmark;
use cm_store::{SeriesKey, StoreInfo};
use cm_stream::{AppendReport, RankSummary};
use counterminer::{AnalysisReport, ClusterConfig, ClusterReport, IngestSummary};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// One request to the serving layer. Stores are addressed by the name
/// they were registered under ([`Server::add_store`](crate::Server::add_store)).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`] without
    /// touching any store.
    Ping,
    /// Aggregate facts about a store ([`Store::info`](cm_store::Store::info)).
    Info {
        /// Registered store name.
        store: String,
    },
    /// Read one stored series. Concurrent queries against the same
    /// store are coalesced into one batched read.
    Query {
        /// Registered store name.
        store: String,
        /// The series to read.
        key: SeriesKey,
    },
    /// Run (or resume) the full analysis of a benchmark from the
    /// store's persisted snapshot, collecting first if the store is
    /// cold. Identical concurrent requests are deduplicated.
    Analyze {
        /// Registered store name.
        store: String,
        /// The benchmark to analyze.
        benchmark: Benchmark,
    },
    /// Like [`Request::Analyze`], but answered with just the top `k`
    /// of the importance ranking — piggybacks on any concurrent
    /// analysis of the same `(store, benchmark)`.
    Ranked {
        /// Registered store name.
        store: String,
        /// The benchmark to analyze.
        benchmark: Benchmark,
        /// How many ranking entries to return.
        top_k: usize,
    },
    /// Run the cross-benchmark `cluster` analysis mode
    /// ([`CounterMiner::analyze_cluster`](counterminer::CounterMiner::analyze_cluster)):
    /// cluster cleaned counter signatures and flag anomalous runs,
    /// ingesting any cold benchmark first. Identical concurrent
    /// requests deduplicate into one computation, like
    /// [`Request::Analyze`].
    Cluster {
        /// Registered store name.
        store: String,
        /// The benchmarks to cluster across.
        benchmarks: Vec<Benchmark>,
        /// Clustering and anomaly-detection knobs.
        config: ClusterConfig,
    },
    /// Collect and persist a benchmark's snapshot without modeling
    /// (the serving form of `counterminer ingest`).
    Ingest {
        /// Registered store name.
        store: String,
        /// The benchmark to collect.
        benchmark: Benchmark,
    },
    /// Append the next `rows` sampling intervals of a live stream to
    /// the store (opening — or resuming — the server-side
    /// [`StreamSession`](cm_stream::StreamSession) on first touch).
    /// Appends to one `(store, benchmark)` stream serialize; the commit
    /// is atomic, so a failed append leaves the previous committed
    /// snapshot intact and answers with a typed error.
    StreamAppend {
        /// Registered store name.
        store: String,
        /// The benchmark being streamed.
        benchmark: Benchmark,
        /// How many source rows to append.
        rows: usize,
    },
    /// Watch a stream: be notified when — and only when — the top-K
    /// importance order or the MAPM materially changes
    /// (see [`RankSummary::materially_differs`](cm_stream::RankSummary::materially_differs)).
    Subscribe {
        /// Registered store name.
        store: String,
        /// The benchmark stream to watch.
        benchmark: Benchmark,
        /// How many leading ranking entries the subscriber cares about.
        top_k: usize,
    },
    /// Drain a subscription's queued notifications with sequence
    /// numbers greater than `after`. Never blocks server-side: an empty
    /// answer means "nothing new yet".
    Poll {
        /// The subscription to drain.
        id: SubscriptionId,
        /// Only notifications with `seq > after` are returned.
        after: u64,
    },
}

/// A successful answer to a [`Request`] (same order of variants).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info(StoreInfo),
    /// Answer to [`Request::Query`]: the decoded series, shared with
    /// the block cache (cloning the `Arc` copies no samples).
    Series(Arc<Vec<f64>>),
    /// Answer to [`Request::Analyze`]: the shared analysis — every
    /// deduplicated waiter receives the same allocation.
    Analysis(Arc<RankedAnalysis>),
    /// Answer to [`Request::Ranked`]: the top-k importance ranking.
    Ranked(Vec<(EventId, f64)>),
    /// Answer to [`Request::Cluster`]: the shared cluster report —
    /// every deduplicated waiter receives the same allocation.
    Clustered(Arc<ClusterReport>),
    /// Answer to [`Request::Ingest`].
    Ingested(IngestSummary),
    /// Answer to [`Request::StreamAppend`]: what the append did.
    Appended(AppendReport),
    /// Answer to [`Request::Subscribe`]: the id to poll with.
    Subscribed(SubscriptionId),
    /// Answer to [`Request::Poll`]: the notifications drained, oldest
    /// first (empty when nothing material happened since `after`).
    Notify(Vec<Notification>),
}

/// Identifies one subscription on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// Why a subscriber was notified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyReason {
    /// The first analysis this subscription observed.
    Initial,
    /// The order of the watched top-K ranking entries changed.
    TopKChanged,
    /// The MAPM changed: a different event set, or a material shift in
    /// its held-out error.
    MapmChanged,
}

/// One ranking-change notification.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Monotonic per-subscription sequence number, starting at 1.
    pub seq: u64,
    /// What changed.
    pub reason: NotifyReason,
    /// Rows the triggering analysis was trained on.
    pub sealed_rows: usize,
    /// The new ranking summary.
    pub summary: RankSummary,
}

/// The serving-layer view of an [`AnalysisReport`]: the rankings and
/// cleaning tallies, without the trained model (which is large and not
/// `Clone`). This is what a wire format would carry.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAnalysis {
    /// The benchmark analyzed.
    pub benchmark: Benchmark,
    /// The snapshot fingerprint the analysis was computed from — the
    /// deduplication key.
    pub fingerprint: u64,
    /// The MAPM importance ranking: `(event, importance %)`,
    /// descending.
    pub ranking: Vec<(EventId, f64)>,
    /// Cross-validation error of the most accurate model.
    pub best_error: f64,
    /// Interaction ranking as `(event_a, event_b, intensity, share %)`.
    pub interactions: Vec<(EventId, EventId, f64, f64)>,
    /// Total outliers replaced during cleaning.
    pub outliers_replaced: usize,
    /// Total missing values filled during cleaning.
    pub missing_filled: usize,
    /// Ranking-stability score (`bayes` cleaning mode only): probability
    /// the top-K importance order survives resampling from the
    /// posteriors. `None` under the point cleaner. Lets a subscriber
    /// judge whether a rank change between two analyses is within noise.
    pub stability: Option<f64>,
}

impl RankedAnalysis {
    /// Flattens a pipeline report into the wire shape.
    pub fn from_report(report: &AnalysisReport, fingerprint: u64) -> Self {
        RankedAnalysis {
            benchmark: report.benchmark,
            fingerprint,
            ranking: report.eir.ranking.clone(),
            best_error: report.eir.best_error(),
            interactions: report
                .interactions
                .iter()
                .map(|p| (p.pair.0, p.pair.1, p.intensity, p.share))
                .collect(),
            outliers_replaced: report.outliers_replaced,
            missing_filled: report.missing_filled,
            stability: report.eir.uncertainty.as_ref().map(|u| u.stability),
        }
    }
}

/// Why a request failed. Always typed, always delivered to the
/// submitting client — a failing request never unwinds the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a store that was never registered.
    UnknownStore(String),
    /// The store layer failed (I/O, checksum, truncation); the message
    /// is the rendered [`StoreError`](cm_store::StoreError).
    Store(String),
    /// The analysis pipeline failed (or a handler panicked); the
    /// message is the rendered [`CmError`](counterminer::CmError).
    Pipeline(String),
    /// The streaming layer refused: configuration mismatch against the
    /// persisted stream, or inconsistent stream state; the message is
    /// the rendered [`StreamError`](cm_stream::StreamError).
    Stream(String),
    /// A [`Request::Poll`] named a subscription that does not exist.
    UnknownSubscription(SubscriptionId),
    /// The server shut down before answering.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownStore(name) => write!(f, "unknown store {name:?}"),
            ServeError::Store(msg) => write!(f, "store failure: {msg}"),
            ServeError::Pipeline(msg) => write!(f, "pipeline failure: {msg}"),
            ServeError::Stream(msg) => write!(f, "stream failure: {msg}"),
            ServeError::UnknownSubscription(SubscriptionId(id)) => {
                write!(f, "unknown subscription #{id}")
            }
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_error_renders_each_variant() {
        assert_eq!(
            ServeError::UnknownStore("x".into()).to_string(),
            "unknown store \"x\""
        );
        assert!(ServeError::Store("bad crc".into())
            .to_string()
            .contains("bad crc"));
        assert!(ServeError::Pipeline("no data".into())
            .to_string()
            .contains("no data"));
        assert_eq!(ServeError::Closed.to_string(), "server closed");
    }
}
