//! The CounterMiner serving layer: a long-running, concurrent analysis
//! service over one or more persistent [`cm_store`] files.
//!
//! The batch pipeline (`counterminer analyze`) answers one question per
//! process. This crate turns the same engine into a *service*: a
//! [`Server`] owns a set of `.cmstore` files plus one [`CounterMiner`]
//! configuration, and any number of [`Client`]s — one per simulated
//! connection, cheaply cloneable — submit [`Request`]s concurrently and
//! wait on [`Response`]s. Transport is an in-process channel:
//! [`Client::call`] submits a request and blocks on its response.
//!
//! # Scheduling: batching and deduplication
//!
//! The perf story is the scheduler (see [`ServeConfig::batching`]).
//! Requests are drained from the submission channel in batches and
//! *coalesced* before execution:
//!
//! * concurrent [`Request::Query`]s against the same store merge into a
//!   single [`Store::read_series_batch`] call — one pass of region
//!   coalescing, positioned reads, and parallel decode for the whole
//!   group instead of one small read per request;
//! * concurrent [`Request::Analyze`] / [`Request::Ranked`] requests for
//!   the same `(store, benchmark)` — which share a snapshot fingerprint
//!   under the server's single miner configuration — are deduplicated:
//!   one leader computes the analysis, every waiter receives the same
//!   [`RankedAnalysis`] behind an [`Arc`](std::sync::Arc). Observable
//!   as `serve.dedup.hits`.
//!
//! All stores share one [`BlockCache`](cm_store::BlockCache) (via
//! [`Store::open_with_cache`]), so hot blocks are cached once per
//! *server*, not once per store handle, and
//! [`ServerHandle::publish_gauges`] exposes per-shard occupancy and
//! hit/miss/eviction gauges.
//!
//! # Determinism and failure
//!
//! Response *payloads* are bit-identical to single-threaded execution:
//! batching and deduplication change when work happens, never what it
//! computes. The batch-formation counters (`serve.batch.*`,
//! `serve.dedup.*`) depend on queue timing and are scheduling-scoped,
//! like `par.sched.*`; `serve.requests` / `serve.errors` are
//! workload-deterministic. Request failures — unknown store, store
//! corruption, a panicking handler — come back as typed
//! [`ServeError`]s on the submitting client; they never take down the
//! server or other in-flight requests.
//!
//! # Examples
//!
//! ```no_run
//! use cm_serve::{Request, Response, ServeConfig, Server};
//! use cm_sim::Benchmark;
//!
//! let mut server = Server::new(ServeConfig::default());
//! server.add_store("main", "perf.cmstore")?;
//! let handle = server.start();
//! let client = handle.client();
//! let pending = client.submit(Request::Analyze {
//!     store: "main".to_string(),
//!     benchmark: Benchmark::Sort,
//! });
//! match pending.wait()? {
//!     Response::Analysis(report) => println!("top event: {:?}", report.ranking[0]),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! handle.shutdown();
//! # Ok::<(), cm_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod proto;
mod server;

pub use proto::{
    Notification, NotifyReason, RankedAnalysis, Request, Response, ServeError, SubscriptionId,
};
pub use server::{
    Client, Pending, ServeConfig, ServeStats, Server, ServerHandle, SubscriptionHandle,
};

// Re-exported so service users can build configurations without naming
// the pipeline crate directly.
pub use cm_store::{CacheConfig, Store};
pub use cm_stream::{AppendReport, RankSummary, StreamConfig};
pub use counterminer::{CounterMiner, MinerConfig};
