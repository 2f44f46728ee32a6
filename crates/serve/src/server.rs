//! The server: submission channel, batching scheduler, worker pool.

use crate::proto::{
    Notification, NotifyReason, RankedAnalysis, Request, Response, ServeError, SubscriptionId,
};
use cm_obs::{span_enter_detached, span_enter_under, SpanGuard, SpanHandle};
use cm_sim::Benchmark;
use cm_store::{BlockCache, CacheConfig, CacheStats, SeriesKey, Store, StoreError, Vfs};
use cm_stream::{RankSummary, StreamConfig, StreamError, StreamSession};
use counterminer::{ClusterConfig, ClusterReport, CmError, CounterMiner, MinerConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server schedules and executes requests.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing request batches; `0` means one per
    /// available CPU.
    pub workers: usize,
    /// Most requests drained into one scheduling batch.
    pub max_batch: usize,
    /// Whether to coalesce queries and deduplicate analyses. `false`
    /// executes every request individually — the baseline the load
    /// harness compares against.
    pub batching: bool,
    /// How long the scheduler waits after the first request of a batch
    /// for more to arrive. Zero (the default) only drains what is
    /// already queued — lowest latency; a small linger trades latency
    /// for larger batches under open-loop load.
    pub linger: Duration,
    /// The pipeline configuration shared by every analysis this server
    /// performs. One configuration per server is what makes identical
    /// requests share a snapshot fingerprint.
    pub miner: MinerConfig,
    /// The shared block cache all registered stores draw from.
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            max_batch: 64,
            batching: true,
            linger: Duration::ZERO,
            miner: MinerConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// A submitted request travelling to the scheduler.
struct ReqEnvelope {
    req: Request,
    reply: Sender<Result<Response, ServeError>>,
    /// The client-side request span; worker execution spans attach
    /// under it so the span tree reads request → exec even though they
    /// run on different threads.
    parent: SpanHandle,
}

enum Envelope {
    Req(ReqEnvelope),
    Shutdown,
}

/// Atomic mirror of the `serve.*` counters, readable without enabling
/// observability.
#[derive(Debug, Default)]
struct StatsInner {
    requests: AtomicU64,
    errors: AtomicU64,
    batch_flushes: AtomicU64,
    batch_coalesced: AtomicU64,
    dedup_hits: AtomicU64,
}

/// A point-in-time copy of the server's request counters (see
/// [`ServerHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests dispatched (every request counts exactly once).
    pub requests: u64,
    /// Requests answered with a [`ServeError`].
    pub errors: u64,
    /// Scheduling batches flushed to the worker pool.
    pub batch_flushes: u64,
    /// Query requests that rode along in a batched store read instead
    /// of issuing their own (`group size - 1`, summed).
    pub batch_coalesced: u64,
    /// Analyze/ranked requests answered from another request's
    /// computation (`group size - 1`, summed).
    pub dedup_hits: u64,
}

/// One subscriber's change-detection state: comparisons run against the
/// last summary it was *notified* with, so a slow drift still notifies
/// once it accumulates past the tolerance.
#[derive(Debug)]
struct Subscription {
    store: String,
    benchmark: Benchmark,
    top_k: usize,
    last: Option<RankSummary>,
    queue: Vec<Notification>,
    next_seq: u64,
}

/// The subscription table; ids are never reused.
#[derive(Debug, Default)]
struct SubRegistry {
    next_id: u64,
    subs: HashMap<SubscriptionId, Subscription>,
}

/// State shared by the scheduler and every worker.
#[derive(Debug)]
struct Shared {
    stores: HashMap<String, Arc<RwLock<Store>>>,
    miner: CounterMiner,
    cache: Arc<BlockCache>,
    stats: StatsInner,
    /// Configuration every server-side stream session opens with.
    stream: StreamConfig,
    /// Live stream sessions, one per `(store, benchmark)`. The mutex
    /// serializes appends to a stream; a session that fails is dropped
    /// so the next append reopens from the last committed snapshot.
    streams: Mutex<HashMap<(String, Benchmark), StreamSession>>,
    subs: Mutex<SubRegistry>,
}

impl Shared {
    fn store(&self, name: &str) -> Result<&Arc<RwLock<Store>>, ServeError> {
        self.stores
            .get(name)
            .ok_or_else(|| ServeError::UnknownStore(name.to_string()))
    }
}

fn store_err(e: StoreError) -> ServeError {
    ServeError::Store(e.to_string())
}

fn stream_err(e: StreamError) -> ServeError {
    match e {
        StreamError::Store(s) => ServeError::Store(s.to_string()),
        other => ServeError::Stream(other.to_string()),
    }
}

fn cm_err(e: CmError) -> ServeError {
    match e {
        CmError::Store(s) => ServeError::Store(s.to_string()),
        other => ServeError::Pipeline(other.to_string()),
    }
}

/// A configured-but-not-yet-running server. Stores are registered
/// here; [`Server::start`] moves everything onto the scheduler thread
/// and returns the [`ServerHandle`].
///
/// Clients may be created (and may submit) *before* `start` — requests
/// queue in the channel and are drained into the first scheduling
/// batch. Tests use this to make batch formation deterministic.
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    cache: Arc<BlockCache>,
    stores: HashMap<String, Arc<RwLock<Store>>>,
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
}

impl Server {
    /// Creates a server with no stores registered.
    pub fn new(config: ServeConfig) -> Self {
        let cache = Arc::new(BlockCache::new(config.cache));
        let (tx, rx) = mpsc::channel();
        Server {
            config,
            cache,
            stores: HashMap::new(),
            tx,
            rx,
        }
    }

    /// The scheduling configuration this server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Opens the store at `path` against the server's shared block
    /// cache and registers it under `name`. Re-registering a name
    /// replaces the previous store.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from opening, as [`ServeError::Store`].
    pub fn add_store(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<(), ServeError> {
        let store = Store::open_with_cache(path, Arc::clone(&self.cache)).map_err(store_err)?;
        self.stores
            .insert(name.into(), Arc::new(RwLock::new(store)));
        Ok(())
    }

    /// Like [`Server::add_store`], with filesystem operations routed
    /// through `vfs` — how the chaos suite serves from a faulty disk.
    ///
    /// # Errors
    ///
    /// As for [`Server::add_store`].
    pub fn add_store_with_vfs(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(), ServeError> {
        let store = Store::open_shared(path, Arc::clone(&self.cache), vfs).map_err(store_err)?;
        self.stores
            .insert(name.into(), Arc::new(RwLock::new(store)));
        Ok(())
    }

    /// A client bound to this server. Valid before and after
    /// [`Server::start`].
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
        }
    }

    /// Starts the scheduler and worker pool, consuming the server.
    pub fn start(self) -> ServerHandle {
        let Server {
            config,
            cache,
            stores,
            tx,
            rx,
        } = self;
        let shared = Arc::new(Shared {
            stores,
            miner: CounterMiner::new(config.miner),
            cache,
            stats: StatsInner::default(),
            stream: StreamConfig::from_env(config.miner),
            streams: Mutex::new(HashMap::new()),
            subs: Mutex::new(SubRegistry::default()),
        });
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let scheduler = {
            let shared = Arc::clone(&shared);
            let sched = Scheduler {
                shared,
                max_batch: config.max_batch.max(1),
                batching: config.batching,
                linger: config.linger,
                workers,
            };
            std::thread::Builder::new()
                .name("cm-serve-sched".to_string())
                .spawn(move || sched.run(rx))
                .expect("spawn scheduler thread")
        };
        ServerHandle {
            tx,
            scheduler: Some(scheduler),
            shared,
        }
    }
}

/// A running server. Dropping the handle shuts the server down (any
/// still-queued requests answer [`ServeError::Closed`]).
#[derive(Debug)]
pub struct ServerHandle {
    tx: Sender<Envelope>,
    scheduler: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// A new client of this server. Clients are cheap (`Clone` of a
    /// channel sender) and safe to move across threads.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
        }
    }

    /// A snapshot of the request counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            batch_flushes: s.batch_flushes.load(Ordering::Relaxed),
            batch_coalesced: s.batch_coalesced.load(Ordering::Relaxed),
            dedup_hits: s.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Aggregate statistics of the shared block cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Publishes the shared cache's per-shard occupancy and activity
    /// as `serve.cache.shard.*` gauges — the load harness's stats
    /// sampler calls this periodically. Free when observability is off.
    pub fn publish_gauges(&self) {
        if !cm_obs::enabled() {
            return;
        }
        for (i, shard) in self.shared.cache.shard_stats().iter().enumerate() {
            cm_obs::gauge_set(
                &format!("serve.cache.shard.{i}.entries"),
                shard.entries as f64,
            );
            cm_obs::gauge_set(&format!("serve.cache.shard.{i}.bytes"), shard.bytes as f64);
            cm_obs::gauge_set(&format!("serve.cache.shard.{i}.hits"), shard.hits as f64);
            cm_obs::gauge_set(
                &format!("serve.cache.shard.{i}.misses"),
                shard.misses as f64,
            );
            cm_obs::gauge_set(
                &format!("serve.cache.shard.{i}.evictions"),
                shard.evictions as f64,
            );
        }
    }

    /// Stops accepting requests, finishes the in-flight batch, joins
    /// the scheduler and workers, and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            let _ = self.tx.send(Envelope::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A connection to a server: submit requests, await responses.
#[derive(Debug, Clone)]
pub struct Client {
    tx: Sender<Envelope>,
}

impl Client {
    /// Submits `req` without waiting; the returned [`Pending`] is the
    /// other half. A client can hold any number of requests in flight.
    pub fn submit(&self, req: Request) -> Pending {
        let span = span_enter_detached("serve.request".to_string());
        let (reply_tx, reply_rx) = mpsc::channel();
        let env = ReqEnvelope {
            req,
            reply: reply_tx,
            parent: span.handle(),
        };
        let sent = self.tx.send(Envelope::Req(env)).is_ok();
        Pending {
            rx: reply_rx,
            _span: span,
            sent,
        }
    }

    /// Submit-and-wait: the synchronous call shape.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`].
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req).wait()
    }

    /// Subscribes to ranking changes of a benchmark stream and returns
    /// a handle that polls for notifications (the transport is
    /// request/response, so "push" is a poll the handle does for you).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStore`] for an unregistered store, plus the
    /// usual transport errors.
    pub fn subscribe(
        &self,
        store: impl Into<String>,
        benchmark: Benchmark,
        top_k: usize,
    ) -> Result<SubscriptionHandle, ServeError> {
        match self.call(Request::Subscribe {
            store: store.into(),
            benchmark,
            top_k,
        })? {
            Response::Subscribed(id) => Ok(SubscriptionHandle {
                client: self.clone(),
                id,
                after: 0,
            }),
            other => Err(ServeError::Pipeline(format!(
                "unexpected response to subscribe: {other:?}"
            ))),
        }
    }
}

/// A live subscription: drains ranking-change notifications for one
/// `(store, benchmark)` stream. Obtained from [`Client::subscribe`].
///
/// The handle tracks the last sequence number it returned, so each
/// [`SubscriptionHandle::poll`] yields every notification exactly once.
#[derive(Debug)]
pub struct SubscriptionHandle {
    client: Client,
    id: SubscriptionId,
    after: u64,
}

impl SubscriptionHandle {
    /// The server-side subscription id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Drains notifications queued since the last poll, oldest first.
    /// Non-blocking on the server: an empty vec means "nothing new".
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSubscription`] if the id is gone, plus the
    /// usual transport errors.
    pub fn poll(&mut self) -> Result<Vec<Notification>, ServeError> {
        match self.client.call(Request::Poll {
            id: self.id,
            after: self.after,
        })? {
            Response::Notify(list) => {
                if let Some(last) = list.last() {
                    self.after = last.seq;
                }
                Ok(list)
            }
            other => Err(ServeError::Pipeline(format!(
                "unexpected response to poll: {other:?}"
            ))),
        }
    }

    /// Polls until at least one notification arrives or `timeout`
    /// elapses (returning the empty vec in that case).
    ///
    /// # Errors
    ///
    /// As for [`SubscriptionHandle::poll`].
    pub fn wait_next(&mut self, timeout: Duration) -> Result<Vec<Notification>, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            let list = self.poll()?;
            if !list.is_empty() || Instant::now() >= deadline {
                return Ok(list);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// An in-flight request. Dropping it abandons the response (the server
/// still executes the work). The held request span records the full
/// submit-to-response wall time when the `Pending` drops.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Result<Response, ServeError>>,
    _span: SpanGuard,
    sent: bool,
}

impl Pending {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`]; [`ServeError::Closed`] if the
    /// server shut down without answering.
    pub fn wait(self) -> Result<Response, ServeError> {
        if !self.sent {
            return Err(ServeError::Closed);
        }
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

/// One unit handed to the worker pool: either a coalesced group or a
/// run of individually-executed requests.
enum Job {
    /// Executed one by one (pings, infos, ingests — and *everything*
    /// when batching is off).
    Singles(Vec<ReqEnvelope>),
    /// Queries against one store, answered by a single batched read.
    QueryBatch {
        store: String,
        envs: Vec<ReqEnvelope>,
    },
    /// Analyze/ranked requests sharing `(store, benchmark)`, answered
    /// by a single analysis.
    AnalysisGroup {
        store: String,
        benchmark: cm_sim::Benchmark,
        envs: Vec<ReqEnvelope>,
    },
    /// Identical cluster requests (same store, benchmark list, and
    /// configuration), answered by a single clustering.
    ClusterGroup {
        store: String,
        benchmarks: Vec<Benchmark>,
        config: ClusterConfig,
        envs: Vec<ReqEnvelope>,
    },
}

struct Scheduler {
    shared: Arc<Shared>,
    max_batch: usize,
    batching: bool,
    linger: Duration,
    workers: usize,
}

impl Scheduler {
    fn run(self, rx: Receiver<Envelope>) {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut pool = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = Arc::clone(&self.shared);
            let job_rx = Arc::clone(&job_rx);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("cm-serve-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match job {
                            Ok(job) => run_job(&shared, job),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }

        let mut shutdown = false;
        while !shutdown {
            let first = match rx.recv() {
                Ok(env) => env,
                Err(_) => break,
            };
            let mut batch = Vec::new();
            match first {
                Envelope::Shutdown => shutdown = true,
                Envelope::Req(env) => batch.push(env),
            }
            let deadline = Instant::now() + self.linger;
            while !shutdown && batch.len() < self.max_batch {
                let remaining = deadline.saturating_duration_since(Instant::now());
                let next = if remaining.is_zero() {
                    rx.try_recv().ok()
                } else {
                    rx.recv_timeout(remaining).ok()
                };
                match next {
                    Some(Envelope::Req(env)) => batch.push(env),
                    Some(Envelope::Shutdown) => shutdown = true,
                    None => break,
                }
            }
            if !batch.is_empty() {
                self.dispatch(batch, &job_tx);
            }
        }
        // Closing the job channel stops the pool once queued jobs
        // drain; queued-but-undispatched requests drop their reply
        // senders, so their clients observe `Closed`.
        drop(job_tx);
        for worker in pool {
            let _ = worker.join();
        }
    }

    /// Partitions one drained batch into jobs and hands them to the
    /// pool. This is where coalescing and deduplication happen.
    fn dispatch(&self, batch: Vec<ReqEnvelope>, job_tx: &Sender<Job>) {
        let stats = &self.shared.stats;
        stats.batch_flushes.fetch_add(1, Ordering::Relaxed);
        stats
            .requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        cm_obs::counter_add("serve.batch.flushes", 1);
        cm_obs::counter_add("serve.requests", batch.len() as u64);

        if !self.batching {
            for env in batch {
                let _ = job_tx.send(Job::Singles(vec![env]));
            }
            return;
        }

        let mut singles: Vec<ReqEnvelope> = Vec::new();
        let mut queries: HashMap<String, Vec<ReqEnvelope>> = HashMap::new();
        let mut analyses: HashMap<(String, cm_sim::Benchmark), Vec<ReqEnvelope>> = HashMap::new();
        // Cluster configs hold floats, so the dedup key is request
        // equality rather than a hash — batches are small.
        let mut clusters: Vec<(Request, Vec<ReqEnvelope>)> = Vec::new();
        for env in batch {
            match &env.req {
                Request::Query { store, .. } => {
                    queries.entry(store.clone()).or_default().push(env);
                }
                Request::Analyze { store, benchmark }
                | Request::Ranked {
                    store, benchmark, ..
                } => {
                    analyses
                        .entry((store.clone(), *benchmark))
                        .or_default()
                        .push(env);
                }
                Request::Cluster { .. } => {
                    match clusters.iter_mut().find(|(req, _)| *req == env.req) {
                        Some((_, envs)) => envs.push(env),
                        None => clusters.push((env.req.clone(), vec![env])),
                    }
                }
                Request::Ping
                | Request::Info { .. }
                | Request::Ingest { .. }
                | Request::StreamAppend { .. }
                | Request::Subscribe { .. }
                | Request::Poll { .. } => {
                    singles.push(env);
                }
            }
        }
        for (store, envs) in queries {
            if envs.len() > 1 {
                let extra = (envs.len() - 1) as u64;
                stats.batch_coalesced.fetch_add(extra, Ordering::Relaxed);
                cm_obs::counter_add("serve.batch.coalesced", extra);
            }
            let _ = job_tx.send(Job::QueryBatch { store, envs });
        }
        for ((store, benchmark), envs) in analyses {
            if envs.len() > 1 {
                let extra = (envs.len() - 1) as u64;
                stats.dedup_hits.fetch_add(extra, Ordering::Relaxed);
                cm_obs::counter_add("serve.dedup.hits", extra);
            }
            let _ = job_tx.send(Job::AnalysisGroup {
                store,
                benchmark,
                envs,
            });
        }
        for (req, envs) in clusters {
            if envs.len() > 1 {
                let extra = (envs.len() - 1) as u64;
                stats.dedup_hits.fetch_add(extra, Ordering::Relaxed);
                cm_obs::counter_add("serve.dedup.hits", extra);
            }
            let Request::Cluster {
                store,
                benchmarks,
                config,
            } = req
            else {
                unreachable!("cluster group holds only cluster requests");
            };
            let _ = job_tx.send(Job::ClusterGroup {
                store,
                benchmarks,
                config,
                envs,
            });
        }
        if !singles.is_empty() {
            let _ = job_tx.send(Job::Singles(singles));
        }
    }
}

/// Sends `result` to `reply`, counting errors. A receiver that already
/// gave up (dropped its [`Pending`]) is fine.
fn respond(
    shared: &Shared,
    reply: &Sender<Result<Response, ServeError>>,
    result: Result<Response, ServeError>,
) {
    if result.is_err() {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        cm_obs::counter_add("serve.errors", 1);
    }
    let _ = reply.send(result);
}

/// Flattens a `catch_unwind` outcome into the request's result type.
fn flatten_panic<T>(caught: std::thread::Result<Result<T, ServeError>>) -> Result<T, ServeError> {
    match caught {
        Ok(result) => result,
        Err(_) => Err(ServeError::Pipeline("request handler panicked".to_string())),
    }
}

fn run_job(shared: &Shared, job: Job) {
    match job {
        Job::Singles(envs) => {
            for env in envs {
                let _exec = exec_span(&env.parent, "serve.exec");
                let result = flatten_panic(catch_unwind(AssertUnwindSafe(|| {
                    exec_single(shared, &env.req)
                })));
                respond(shared, &env.reply, result);
            }
        }
        Job::QueryBatch { store, envs } => {
            let _exec = exec_span(&envs[0].parent, "serve.exec.query_batch");
            let keys: Vec<SeriesKey> = envs
                .iter()
                .map(|env| match &env.req {
                    Request::Query { key, .. } => key.clone(),
                    _ => unreachable!("query batch holds only queries"),
                })
                .collect();
            let result = flatten_panic(catch_unwind(AssertUnwindSafe(|| {
                let handle = shared.store(&store)?;
                let guard = handle.read().unwrap_or_else(|e| e.into_inner());
                guard.read_series_batch(&keys).map_err(store_err)
            })));
            match result {
                Ok(series) => {
                    for (env, values) in envs.iter().zip(series) {
                        respond(shared, &env.reply, Ok(Response::Series(values)));
                    }
                }
                Err(e) => {
                    for env in &envs {
                        respond(shared, &env.reply, Err(e.clone()));
                    }
                }
            }
        }
        Job::AnalysisGroup {
            store,
            benchmark,
            envs,
        } => {
            let _exec = exec_span(&envs[0].parent, "serve.exec.analyze");
            let result = flatten_panic(catch_unwind(AssertUnwindSafe(|| {
                compute_analysis(shared, &store, benchmark)
            })));
            match result {
                Ok(analysis) => {
                    for env in &envs {
                        let response = match &env.req {
                            Request::Ranked { top_k, .. } => {
                                let k = (*top_k).min(analysis.ranking.len());
                                Response::Ranked(analysis.ranking[..k].to_vec())
                            }
                            _ => Response::Analysis(Arc::clone(&analysis)),
                        };
                        respond(shared, &env.reply, Ok(response));
                    }
                }
                Err(e) => {
                    for env in &envs {
                        respond(shared, &env.reply, Err(e.clone()));
                    }
                }
            }
        }
        Job::ClusterGroup {
            store,
            benchmarks,
            config,
            envs,
        } => {
            let _exec = exec_span(&envs[0].parent, "serve.exec.cluster");
            let result = flatten_panic(catch_unwind(AssertUnwindSafe(|| {
                compute_cluster(shared, &store, &benchmarks, &config)
            })));
            match result {
                Ok(report) => {
                    for env in &envs {
                        respond(
                            shared,
                            &env.reply,
                            Ok(Response::Clustered(Arc::clone(&report))),
                        );
                    }
                }
                Err(e) => {
                    for env in &envs {
                        respond(shared, &env.reply, Err(e.clone()));
                    }
                }
            }
        }
    }
}

fn exec_span(parent: &SpanHandle, name: &str) -> SpanGuard {
    span_enter_under(parent, name.to_string())
}

/// Executes one request in isolation — the no-batching path, and the
/// path for request kinds that never coalesce.
fn exec_single(shared: &Shared, req: &Request) -> Result<Response, ServeError> {
    match req {
        Request::Ping => Ok(Response::Pong),
        Request::Info { store } => {
            let handle = shared.store(store)?;
            let guard = handle.read().unwrap_or_else(|e| e.into_inner());
            Ok(Response::Info(guard.info()))
        }
        Request::Query { store, key } => {
            let handle = shared.store(store)?;
            let guard = handle.read().unwrap_or_else(|e| e.into_inner());
            guard
                .read_series(key)
                .map(Response::Series)
                .map_err(store_err)
        }
        Request::Analyze { store, benchmark } => {
            compute_analysis(shared, store, *benchmark).map(Response::Analysis)
        }
        Request::Ranked {
            store,
            benchmark,
            top_k,
        } => {
            let analysis = compute_analysis(shared, store, *benchmark)?;
            let k = (*top_k).min(analysis.ranking.len());
            Ok(Response::Ranked(analysis.ranking[..k].to_vec()))
        }
        Request::Cluster {
            store,
            benchmarks,
            config,
        } => compute_cluster(shared, store, benchmarks, config).map(Response::Clustered),
        Request::Ingest { store, benchmark } => {
            let handle = shared.store(store)?;
            let mut guard = handle.write().unwrap_or_else(|e| e.into_inner());
            shared
                .miner
                .ingest(*benchmark, &mut guard)
                .map(Response::Ingested)
                .map_err(cm_err)
        }
        Request::StreamAppend {
            store,
            benchmark,
            rows,
        } => exec_stream_append(shared, store, *benchmark, *rows),
        Request::Subscribe {
            store,
            benchmark,
            top_k,
        } => {
            shared.store(store)?; // fail fast on unknown stores
            let mut registry = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
            registry.next_id += 1;
            let id = SubscriptionId(registry.next_id);
            registry.subs.insert(
                id,
                Subscription {
                    store: store.clone(),
                    benchmark: *benchmark,
                    top_k: *top_k,
                    last: None,
                    queue: Vec::new(),
                    next_seq: 0,
                },
            );
            cm_obs::counter_add("serve.subscriptions", 1);
            Ok(Response::Subscribed(id))
        }
        Request::Poll { id, after } => {
            let mut registry = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
            let sub = registry
                .subs
                .get_mut(id)
                .ok_or(ServeError::UnknownSubscription(*id))?;
            // Everything at or below `after` is acknowledged: drop it.
            sub.queue.retain(|n| n.seq > *after);
            Ok(Response::Notify(sub.queue.clone()))
        }
    }
}

/// Appends to the server-side stream session for `(store, benchmark)`,
/// opening (or resuming) it on first touch, then notifies any
/// subscribers whose watched summary materially changed.
///
/// The streams mutex serializes appends per server; the store's write
/// lock covers staging and the atomic commit. A failed session is
/// removed so the next append reopens from the last committed snapshot
/// — the client sees a typed error, never a torn stream.
fn exec_stream_append(
    shared: &Shared,
    store_name: &str,
    benchmark: Benchmark,
    rows: usize,
) -> Result<Response, ServeError> {
    let handle = shared.store(store_name)?;
    let mut streams = shared.streams.lock().unwrap_or_else(|e| e.into_inner());
    let key = (store_name.to_string(), benchmark);

    let report = {
        let mut guard = handle.write().unwrap_or_else(|e| e.into_inner());
        if !streams.contains_key(&key) {
            let session = StreamSession::open(&mut guard, benchmark, shared.stream.clone())
                .map_err(stream_err)?;
            streams.insert(key.clone(), session);
        }
        let session = streams.get_mut(&key).expect("session just ensured");
        match session.append(&mut guard, rows) {
            Ok(report) => report,
            Err(e) => {
                streams.remove(&key);
                return Err(stream_err(e));
            }
        }
    };

    // Only pay for an analysis when someone is watching this stream
    // (and even then, an append that sealed nothing warm-starts).
    let session = streams.get_mut(&key).expect("session exists");
    let mut registry = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
    let watching = registry
        .subs
        .values()
        .any(|s| s.store == key.0 && s.benchmark == benchmark);
    if watching {
        if let Some(analysis) = session.analysis().map_err(stream_err)? {
            for sub in registry
                .subs
                .values_mut()
                .filter(|s| s.store == key.0 && s.benchmark == benchmark)
            {
                let summary = analysis.summary(sub.top_k);
                let reason = match &sub.last {
                    None => Some(NotifyReason::Initial),
                    Some(prev) if summary.order_changed(prev) => Some(NotifyReason::TopKChanged),
                    Some(prev) if summary.mapm_changed(prev) => Some(NotifyReason::MapmChanged),
                    Some(_) => None,
                };
                if let Some(reason) = reason {
                    sub.next_seq += 1;
                    sub.queue.push(Notification {
                        seq: sub.next_seq,
                        reason,
                        sealed_rows: analysis.sealed_rows,
                        summary: summary.clone(),
                    });
                    sub.last = Some(summary);
                    cm_obs::counter_add("serve.notifications", 1);
                }
            }
        }
    }
    Ok(Response::Appended(report))
}

/// The analysis hot path: try the warm, shared-read route first; on a
/// cold store, ingest under the write lock, then analyze warm. Many
/// threads analyzing different benchmarks from one store proceed in
/// parallel on the read path.
fn compute_analysis(
    shared: &Shared,
    store: &str,
    benchmark: cm_sim::Benchmark,
) -> Result<Arc<RankedAnalysis>, ServeError> {
    let handle = shared.store(store)?;
    let fingerprint = shared.miner.snapshot_fingerprint(benchmark);
    {
        let guard = handle.read().unwrap_or_else(|e| e.into_inner());
        if let Some(report) = shared
            .miner
            .analyze_snapshot(benchmark, &guard)
            .map_err(cm_err)?
        {
            return Ok(Arc::new(RankedAnalysis::from_report(&report, fingerprint)));
        }
    }
    {
        let mut guard = handle.write().unwrap_or_else(|e| e.into_inner());
        shared.miner.ingest(benchmark, &mut guard).map_err(cm_err)?;
    }
    let guard = handle.read().unwrap_or_else(|e| e.into_inner());
    match shared
        .miner
        .analyze_snapshot(benchmark, &guard)
        .map_err(cm_err)?
    {
        Some(report) => Ok(Arc::new(RankedAnalysis::from_report(&report, fingerprint))),
        None => Err(ServeError::Pipeline(
            "snapshot missing immediately after ingest".to_string(),
        )),
    }
}

/// The cluster analogue of [`compute_analysis`]: warm, shared-read
/// clustering from committed snapshots first; on a cold store, ingest
/// every missing benchmark under the write lock, then cluster warm.
fn compute_cluster(
    shared: &Shared,
    store: &str,
    benchmarks: &[Benchmark],
    config: &ClusterConfig,
) -> Result<Arc<ClusterReport>, ServeError> {
    let handle = shared.store(store)?;
    {
        let guard = handle.read().unwrap_or_else(|e| e.into_inner());
        if let Some(report) = shared
            .miner
            .cluster_snapshot(benchmarks, &guard, config)
            .map_err(cm_err)?
        {
            return Ok(Arc::new(report));
        }
    }
    {
        let mut guard = handle.write().unwrap_or_else(|e| e.into_inner());
        for &benchmark in benchmarks {
            shared.miner.ingest(benchmark, &mut guard).map_err(cm_err)?;
        }
    }
    let guard = handle.read().unwrap_or_else(|e| e.into_inner());
    match shared
        .miner
        .cluster_snapshot(benchmarks, &guard, config)
        .map_err(cm_err)?
    {
        Some(report) => Ok(Arc::new(report)),
        None => Err(ServeError::Pipeline(
            "snapshot missing immediately after ingest".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::{EventId, SampleMode};
    use cm_sim::Benchmark;
    use counterminer::MinerConfig;

    fn tiny_config() -> MinerConfig {
        let mut config = MinerConfig {
            runs_per_benchmark: 1,
            events_to_measure: Some(14),
            interaction_top_k: 4,
            ..MinerConfig::default()
        };
        config.importance.sgbrt.n_trees = 40;
        config.importance.sgbrt.tree.max_depth = 3;
        config.importance.prune_step = 3;
        config.importance.min_events = 8;
        config
    }

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cm_serve_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("unit.cmstore")
    }

    fn tiny_server(tag: &str) -> (ServerHandle, std::path::PathBuf) {
        let path = temp_store_path(tag);
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            miner: tiny_config(),
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register store");
        (server.start(), path)
    }

    #[test]
    fn ping_and_unknown_store_round_trip() {
        let (handle, path) = tiny_server("ping");
        let client = handle.client();
        assert!(matches!(client.call(Request::Ping), Ok(Response::Pong)));
        let err = client
            .call(Request::Info {
                store: "nope".into(),
            })
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownStore("nope".into()));
        let stats = handle.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_then_query_serves_persisted_series() {
        let (handle, path) = tiny_server("analyze");
        let client = handle.client();
        let analysis = match client
            .call(Request::Analyze {
                store: "main".into(),
                benchmark: Benchmark::Sort,
            })
            .expect("analyze")
        {
            Response::Analysis(a) => a,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(!analysis.ranking.is_empty());
        assert_eq!(analysis.benchmark, Benchmark::Sort);

        // The snapshot's series are now stored under the benchmark's
        // snapshot namespace; read one back through the service.
        let info = match client
            .call(Request::Info {
                store: "main".into(),
            })
            .expect("info")
        {
            Response::Info(info) => info,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(info.series > 0);

        // Ranked piggybacks on the same snapshot.
        let ranked = match client
            .call(Request::Ranked {
                store: "main".into(),
                benchmark: Benchmark::Sort,
                top_k: 3,
            })
            .expect("ranked")
        {
            Response::Ranked(r) => r,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked, analysis.ranking[..3].to_vec());
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn queries_queued_before_start_coalesce_into_one_batched_read() {
        let path = temp_store_path("coalesce");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = Store::open(&path).expect("open");
            for event in 0..6 {
                let key = SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(event));
                let values: Vec<f64> = (0..32).map(|i| (event * 100 + i) as f64).collect();
                store.append_series(key, &values).expect("append");
            }
            store.commit().expect("commit");
        }
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register");
        let client = server.client();
        let pendings: Vec<Pending> = (0..6)
            .map(|event| {
                client.submit(Request::Query {
                    store: "main".into(),
                    key: SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(event)),
                })
            })
            .collect();
        let handle = server.start();
        for (event, pending) in pendings.into_iter().enumerate() {
            match pending.wait().expect("query") {
                Response::Series(values) => {
                    assert_eq!(values[0], (event * 100) as f64);
                    assert_eq!(values.len(), 32);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        let stats = handle.shutdown();
        // All six queries were queued before the scheduler started, so
        // they form one batch: one flush, five coalesced riders.
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.batch_coalesced, 5);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn batching_off_executes_requests_individually() {
        let path = temp_store_path("nobatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = Store::open(&path).expect("open");
            let key = SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(0));
            store.append_series(key, &[1.0, 2.0]).expect("append");
            store.commit().expect("commit");
        }
        let config = ServeConfig {
            batching: false,
            workers: 1,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register");
        let client = server.client();
        let pendings: Vec<Pending> = (0..4)
            .map(|_| {
                client.submit(Request::Query {
                    store: "main".into(),
                    key: SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(0)),
                })
            })
            .collect();
        let handle = server.start();
        for pending in pendings {
            assert!(matches!(pending.wait(), Ok(Response::Series(_))));
        }
        let stats = handle.shutdown();
        assert_eq!(stats.batch_coalesced, 0);
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.requests, 4);
        let _ = std::fs::remove_file(path);
    }

    fn stream_append(client: &Client, rows: usize) -> cm_stream::AppendReport {
        match client
            .call(Request::StreamAppend {
                store: "main".into(),
                benchmark: Benchmark::Sort,
                rows,
            })
            .expect("stream append")
        {
            Response::Appended(report) => report,
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn subscription_notifies_when_and_only_when_the_answer_changes() {
        let (handle, path) = tiny_server("subscribe");
        let client = handle.client();
        let mut sub = client
            .subscribe("main", Benchmark::Sort, 3)
            .expect("subscribe");

        // A mirror session over a private store predicts, deterministically,
        // what the server's stream computes — the test oracle for
        // "notified exactly when the summary materially changes".
        let mirror_path = temp_store_path("subscribe_mirror");
        let _ = std::fs::remove_file(&mirror_path);
        let mut mirror_store = Store::open(&mirror_path).expect("mirror store");
        let mut mirror = cm_stream::StreamSession::open(
            &mut mirror_store,
            Benchmark::Sort,
            cm_stream::StreamConfig::from_env(tiny_config()),
        )
        .expect("mirror session");

        // Nothing sealed yet: no analysis exists, so no notification.
        let report = stream_append(&client, 40);
        assert_eq!(report.sealed_rows, 0);
        mirror.append(&mut mirror_store, 40).expect("mirror");
        assert!(sub.poll().expect("poll").is_empty());

        // First sealed block: the first analysis always notifies.
        let report = stream_append(&client, 30);
        assert_eq!(report.sealed_rows, 64);
        mirror.append(&mut mirror_store, 30).expect("mirror");
        let first = sub.wait_next(Duration::from_secs(30)).expect("wait");
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].reason, NotifyReason::Initial);
        assert_eq!(first[0].sealed_rows, 64);
        let mut last_notified = mirror
            .analysis()
            .expect("mirror analysis")
            .expect("sealed")
            .summary(3);
        assert_eq!(first[0].summary, last_notified);

        // No new sealed block: warm start, identical answer, silence.
        let report = stream_append(&client, 10);
        assert_eq!(report.sealed_rows, 64);
        mirror.append(&mut mirror_store, 10).expect("mirror");
        assert!(sub.poll().expect("poll").is_empty());

        // Seal several more blocks; the mirror predicts whether each
        // step's summary materially differs from the last notified one.
        for rows in [100, 150] {
            let server_report = stream_append(&client, rows);
            mirror.append(&mut mirror_store, rows).expect("mirror");
            assert_eq!(server_report.total_rows, mirror.total_rows());
            let summary = mirror
                .analysis()
                .expect("mirror analysis")
                .expect("sealed")
                .summary(3);
            let notes = sub.poll().expect("poll");
            if summary.materially_differs(&last_notified) {
                assert_eq!(notes.len(), 1, "material change must notify");
                assert_eq!(notes[0].summary, summary);
                assert!(matches!(
                    notes[0].reason,
                    NotifyReason::TopKChanged | NotifyReason::MapmChanged
                ));
                last_notified = summary;
            } else {
                assert!(notes.is_empty(), "immaterial change must stay silent");
            }
        }

        // Polling an unknown subscription is a typed error.
        let err = client
            .call(Request::Poll {
                id: crate::proto::SubscriptionId(9999),
                after: 0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownSubscription(crate::proto::SubscriptionId(9999))
        );

        handle.shutdown();
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(mirror_path);
    }

    #[test]
    fn identical_cluster_requests_deduplicate_into_one_computation() {
        let path = temp_store_path("cluster");
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            miner: tiny_config(),
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register store");
        let client = server.client();
        let request = Request::Cluster {
            store: "main".into(),
            benchmarks: vec![Benchmark::Sort, Benchmark::Wordcount],
            config: ClusterConfig {
                k: 2,
                inject_anomalies: 1,
                ..ClusterConfig::default()
            },
        };
        // Queued before start: all four land in one batch and dedup.
        let pendings: Vec<Pending> = (0..4).map(|_| client.submit(request.clone())).collect();
        let handle = server.start();
        let mut reports = Vec::new();
        for pending in pendings {
            match pending.wait().expect("cluster") {
                Response::Clustered(report) => reports.push(report),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let first = &reports[0];
        assert_eq!(first.k, 2);
        // 1 run per benchmark plus 1 injected probe per benchmark.
        assert_eq!(first.runs.len(), 4);
        assert_eq!(first.runs.iter().filter(|r| r.injected).count(), 2);
        for report in &reports[1..] {
            assert!(Arc::ptr_eq(first, report), "waiters must share the report");
        }
        let stats = handle.shutdown();
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.dedup_hits, 3);

        // A fresh server over the same store answers warm,
        // bit-identically.
        let mut server = Server::new(ServeConfig {
            miner: tiny_config(),
            workers: 1,
            ..ServeConfig::default()
        });
        server.add_store("main", &path).expect("register store");
        let client = server.client();
        let handle = server.start();
        match client.call(request).expect("warm cluster") {
            Response::Clustered(report) => assert_eq!(**first, *report),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn client_of_dropped_server_observes_closed() {
        let (handle, path) = tiny_server("closed");
        let client = handle.client();
        drop(handle);
        assert_eq!(client.call(Request::Ping), Err(ServeError::Closed));
        let _ = std::fs::remove_file(path);
    }
}
