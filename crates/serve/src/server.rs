//! The serving core: weighted-fair admission, a batch-forming scheduler,
//! and a pool of executor workers.
//!
//! Two kinds of threads share the work. One lightweight **batch former**
//! owns the admission queues: it runs a deficit-round-robin pass over the
//! backlogged tenants (each earns its configured weight per batch formed,
//! pays one unit per admitted request), picks the richest tenant's oldest
//! request to choose the model, holds the batch open up to
//! [`ServeConfig::batch_window`] for more same-model requests (up to
//! [`ServeConfig::max_batch`], filled across tenants in deficit order), and
//! hands the formed batch to a bounded ready queue. **Executor workers**
//! ([`ServeConfig::workers`] of them) pop ready batches and replay them
//! concurrently — different models, or different batches of one model, can
//! be in flight at once. A multi-request batch replays the model's one
//! batch-1 program across lanes, each lane bit-identical (outputs and full
//! report) to a solo run of its request, so a tenant can observe neither
//! batching nor which worker ran its request.
//!
//! Admission is bounded **per tenant** ([`ServeConfig::queue_depth`]), so a
//! flooding tenant exhausts only its own quota. Requests leave the queue
//! early in two ways: a deadline expiring into [`ServeError::Timeout`], or
//! cancellation ([`crate::Ticket::cancel`], or simply dropping the ticket)
//! into [`ServeError::Cancelled`] — both are pruned by the former or at the
//! executor boundary, never run, and are counted in [`ServerStats`].
//!
//! The hot path replays one compiled program per model: the first batch
//! compiles the planned batch-1 [`GraphSession`] into a [`feather::Program`]
//! (consulting the `FEATHER_CACHE_DIR` artifact cache first), and every
//! later batch replays the cached [`ProgramSession`] with zero planning,
//! hashing or per-layer dispatch work — [`ProgramCacheStats`] counts exactly
//! that. Every batch, whatever its size, is one lane-vectorized replay
//! ([`ProgramSession::run_batched_with_scratch`]) with request `i` on lane
//! `i`. Each worker keeps a [`ReplayScratch`] per (model, batch size) it has
//! served, so steady-state replay allocates no buffer memory either.
//!
//! The server is **fault tolerant**. Replays run under `catch_unwind`: a
//! panicking worker resolves only its own batch (retrying members with
//! budget left, failing the rest as [`ServeError::Failed`]) and is respawned
//! by the former. Failed batch members are re-enqueued at their tenant's
//! queue head with exponential backoff up to [`ServeConfig::max_retries`] —
//! replay determinism makes the retried response bit-identical. Each model
//! carries a [`CircuitBreaker`]: sustained consecutive failures open it and
//! requests fast-fail as [`ServeError::Unavailable`] until a half-open probe
//! succeeds. Under overload (queue occupancy or deadline-miss rate past
//! [`ServeConfig::brownout_pct`]) the former halves the effective batch size
//! and admission sheds requests whose deadlines are already infeasible
//! ([`ServeError::Overloaded`]) instead of letting them time out in the
//! queue. All of it is exercised deterministically by the seeded
//! [`FaultPlan`] injection plane (`FEATHER_FAULT_PLAN`).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use feather::{
    ArtifactStatus, FeatherConfig, GraphRun, GraphSession, ProgramSession, ReplayScratch,
    RouteCacheStats,
};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;

use crate::breaker::CircuitBreaker;
use crate::error::ServeError;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::stats::{ProgramCacheStats, ServerStats};
use crate::sync::{lock_recover, read_recover, write_recover};
use crate::ticket::{Promise, Ticket};

/// Scheduling and admission knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Most requests coalesced into one executor run. `1` disables batching.
    pub max_batch: usize,
    /// Per-tenant admission bound: a tenant with this many queued requests
    /// gets further submissions rejected with [`ServeError::QueueFull`].
    /// Other tenants' queues are unaffected.
    pub queue_depth: usize,
    /// How long the former holds a non-full batch open waiting for more
    /// same-model requests. Zero launches whatever is queued immediately.
    pub batch_window: Duration,
    /// Deadline applied to every request without an explicit one: requests
    /// still queued past it are dropped with [`ServeError::Timeout`].
    /// `None` means requests wait indefinitely.
    pub default_deadline: Option<Duration>,
    /// Executor pool size: how many formed batches can execute
    /// concurrently. `1` reproduces the old single-scheduler behavior.
    pub workers: usize,
    /// Formed batches buffered between the former and the pool. The former
    /// does not form a batch until a slot is free, so this bounds how far
    /// scheduling runs ahead of execution: `1` (the default) forms each
    /// batch at the moment a worker can take it — from the fullest possible
    /// backlog, with fairness and cancellation decided as late as possible.
    /// Workers pop instantly when idle, so depth 1 never limits pool
    /// overlap; raise it only to hide the former's batch-window latency
    /// between executions.
    pub ready_depth: usize,
    /// How many times a failed request (transient executor error, injected
    /// fault, or worker panic) is re-enqueued before resolving as
    /// [`ServeError::Failed`]. Retried responses are bit-identical to what
    /// the first attempt would have returned. `0` disables retries.
    pub max_retries: u32,
    /// Backoff before a request's first retry; attempt `n` waits
    /// `retry_backoff * 2^(n-1)`.
    pub retry_backoff: Duration,
    /// Consecutive batch-execution failures that open a model's circuit
    /// breaker (requests then fast-fail as [`ServeError::Unavailable`]).
    /// `0` disables the breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Overload threshold as a percentage of `queue_depth`: when any
    /// tenant's queue occupancy reaches it (or the deadline-miss rate
    /// sustains ≥ 1 per formed batch), the former enters brownout — the
    /// effective `max_batch` halves (smaller batches drain the head of the
    /// queue sooner) and admission sheds requests whose deadlines are
    /// already infeasible given the backlog ([`ServeError::Overloaded`]).
    /// `> 100` disables brownout.
    pub brownout_pct: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_depth: 64,
            batch_window: Duration::from_micros(500),
            default_deadline: None,
            workers: 1,
            ready_depth: 1,
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            brownout_pct: 90,
        }
    }
}

impl ServeConfig {
    /// Reads the knobs from the environment on top of the defaults:
    /// `FEATHER_SERVE_MAX_BATCH`, `FEATHER_SERVE_QUEUE_DEPTH`,
    /// `FEATHER_SERVE_WINDOW_US` (batch window in microseconds),
    /// `FEATHER_SERVE_WORKERS` (executor pool size),
    /// `FEATHER_SERVE_MAX_RETRIES`,
    /// `FEATHER_SERVE_RETRY_BACKOFF_US`, `FEATHER_SERVE_BREAKER_THRESHOLD`,
    /// `FEATHER_SERVE_BREAKER_COOLDOWN_MS` and `FEATHER_SERVE_BROWNOUT_PCT`.
    /// Unset or unparsable variables keep their default.
    pub fn from_env() -> Self {
        fn read(name: &str) -> Option<usize> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        let mut cfg = ServeConfig::default();
        if let Some(n) = read("FEATHER_SERVE_MAX_BATCH") {
            cfg.max_batch = n.max(1);
        }
        if let Some(n) = read("FEATHER_SERVE_QUEUE_DEPTH") {
            cfg.queue_depth = n.max(1);
        }
        if let Some(us) = read("FEATHER_SERVE_WINDOW_US") {
            cfg.batch_window = Duration::from_micros(us as u64);
        }
        if let Some(n) = read("FEATHER_SERVE_WORKERS") {
            cfg.workers = n.max(1);
        }
        if let Some(n) = read("FEATHER_SERVE_MAX_RETRIES") {
            cfg.max_retries = n as u32;
        }
        if let Some(us) = read("FEATHER_SERVE_RETRY_BACKOFF_US") {
            cfg.retry_backoff = Duration::from_micros(us as u64);
        }
        if let Some(n) = read("FEATHER_SERVE_BREAKER_THRESHOLD") {
            cfg.breaker_threshold = n as u32;
        }
        if let Some(ms) = read("FEATHER_SERVE_BREAKER_COOLDOWN_MS") {
            cfg.breaker_cooldown = Duration::from_millis(ms as u64);
        }
        if let Some(pct) = read("FEATHER_SERVE_BROWNOUT_PCT") {
            cfg.brownout_pct = pct.max(1);
        }
        cfg
    }
}

/// One resolved inference response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The model's INT32 output accumulators for this request's sample —
    /// bit-identical to a solo (batch-1) run of the same input.
    pub oacts: Tensor4<i32>,
    /// How many requests shared the batch (one replay) that produced this.
    pub batch_size: usize,
    /// Index of the pool worker that executed the batch.
    pub worker: usize,
    /// Time spent queued before the batch launched, in microseconds.
    pub queue_us: u64,
    /// End-to-end latency (submit → response), in microseconds.
    pub latency_us: u64,
    /// This request's own modeled accelerator cycles — exactly the total of
    /// a solo run of its input, whatever batch it rode in.
    pub cycles: u64,
    /// This request's own modeled DRAM bytes, exact like `cycles`.
    pub dram_bytes: u64,
}

/// Most (model, batch size) replay scratches one executor worker parks before it
/// drops them all and regrows — a backstop against unbounded buffer stash
/// growth when a server cycles through many models and batch sizes.
const SCRATCH_CAPACITY: usize = 32;

/// One model's lazily compiled program plus the counters that prove the hot
/// path replays instead of replanning.
struct ProgramCache {
    program: Option<Arc<ProgramSession>>,
    stats: ProgramCacheStats,
}

/// A registered model: its weights plus its one compiled program.
struct Model {
    weights: BTreeMap<NodeId, Tensor4<i8>>,
    input_shape: [usize; 4],
    /// The planned batch-1 session from registration: the compile source of
    /// the model's program and the owner of its compiled-route cache.
    base: Arc<GraphSession>,
    programs: Mutex<ProgramCache>,
    /// Trips after [`ServeConfig::breaker_threshold`] consecutive failed
    /// batch executions; open, this model's submits fast-fail.
    breaker: CircuitBreaker,
}

impl Model {
    /// The model's replay session, compiling it (through the on-disk
    /// artifact cache) only on the first call. `fault` injects load/insert
    /// failures on the miss path — with a plan active the `artifact_*`
    /// counters can undercount `misses` by the injected failures.
    fn program_for(&self, fault: Option<&FaultPlan>) -> Result<Arc<ProgramSession>, ServeError> {
        let mut cache = lock_recover(&self.programs);
        if let Some(program) = cache.program.clone() {
            cache.stats.hits += 1;
            return Ok(program);
        }
        cache.stats.misses += 1;
        if fault
            .and_then(|f| f.roll(FaultSite::ArtifactLoad))
            .is_some()
        {
            return Err(ServeError::Failed("injected: artifact load failure".into()));
        }
        let (program, status) = self.base.compile_cached()?;
        match status {
            ArtifactStatus::Hit => cache.stats.artifact_hits += 1,
            ArtifactStatus::Miss | ArtifactStatus::Disabled => cache.stats.artifact_misses += 1,
            ArtifactStatus::Quarantined => {
                cache.stats.artifact_misses += 1;
                cache.stats.artifact_quarantined += 1;
            }
        }
        if fault.and_then(|f| f.roll(FaultSite::CacheInsert)).is_some() {
            return Err(ServeError::Failed("injected: cache insert failure".into()));
        }
        let session = Arc::new(ProgramSession::new(program));
        cache.program = Some(session.clone());
        Ok(session)
    }

    fn program_cache_stats(&self) -> ProgramCacheStats {
        lock_recover(&self.programs).stats
    }
}

/// One queued request.
struct Request {
    /// Admission sequence number — orders requests within a formed batch.
    id: u64,
    tenant: String,
    model: String,
    iacts: Tensor4<i8>,
    enqueued: Instant,
    deadline: Option<Instant>,
    promise: Arc<Promise>,
    /// Failed executions so far; bounded by [`ServeConfig::max_retries`].
    attempts: u32,
    /// Retry backoff: the former leaves the request queued until this
    /// instant passes.
    not_before: Option<Instant>,
}

impl Request {
    /// A request the scheduler must drop instead of running: its ticket was
    /// cancelled (or abandoned), or its deadline has passed.
    fn dead_at(&self, now: Instant) -> bool {
        self.promise.is_cancelled() || self.deadline.is_some_and(|d| d <= now)
    }

    /// Whether the former may schedule this request at `now` (its retry
    /// backoff, if any, has elapsed).
    fn eligible_at(&self, now: Instant) -> bool {
        self.not_before.map_or(true, |t| t <= now)
    }
}

/// One tenant's pending requests plus its deficit-round-robin balance.
#[derive(Default)]
struct TenantQueue {
    requests: VecDeque<Request>,
    /// Deficit counter: earns the tenant's weight per batch formed while
    /// backlogged, pays one per request admitted into a batch. Forgiven
    /// (entry dropped) when the tenant's queue drains — idle tenants don't
    /// bank credit.
    deficit: i64,
}

/// The per-tenant admission queues plus the open/closed flag, under one lock.
struct QueueState {
    tenants: BTreeMap<String, TenantQueue>,
    open: bool,
    /// True while the former is alive and will drain the queues. Checked
    /// (under this lock) by the retry path: once the former has decided to
    /// exit, re-enqueueing would strand tickets forever, so late failures
    /// resolve as [`ServeError::Failed`] instead.
    forming: bool,
}

impl QueueState {
    fn backlogged(&self) -> bool {
        self.tenants.values().any(|tq| !tq.requests.is_empty())
    }
}

/// A formed batch travelling from the former to an executor worker.
struct ReadyBatch {
    model: String,
    requests: Vec<Request>,
}

/// The bounded hand-off queue between the former and the executor pool.
struct ReadyState {
    batches: VecDeque<ReadyBatch>,
    /// Set by the former after it drained admission; workers exit once the
    /// queue is empty and closed.
    closed: bool,
    /// Indexes of workers that died (panicked) and need a replacement.
    /// Shares the lock with `closed` so a death is never reported into the
    /// gap after the former's final respawn sweep: a worker that observes
    /// `closed` spawns its own replacement instead of pushing here.
    dead_workers: Vec<usize>,
}

/// State shared between the front-end handles, the former, and the workers.
struct Inner {
    cfg: ServeConfig,
    models: RwLock<BTreeMap<String, Arc<Model>>>,
    queue: Mutex<QueueState>,
    /// Signaled on every admission and on shutdown.
    arrived: Condvar,
    /// Per-tenant weights for the deficit round-robin (default 1).
    weights: RwLock<BTreeMap<String, u64>>,
    ready: Mutex<ReadyState>,
    /// Signaled when a batch lands in the ready queue (and at close).
    ready_pop: Condvar,
    /// Signaled when a worker frees a ready-queue slot.
    ready_push: Condvar,
    /// Admission-side counters: rejects plus former-pruned timeouts and
    /// cancellations. Executor-side counters live in `worker_stats`.
    stats: Mutex<ServerStats>,
    /// One counter shard per executor worker — the hot path never contends
    /// on a global stats lock.
    worker_stats: Vec<Mutex<ServerStats>>,
    /// Batches currently inside a `ProgramSession` run, and the high-water
    /// mark thereof — the observable proof of executor overlap.
    executing: AtomicU64,
    max_executing: AtomicU64,
    /// Workers currently parked on an empty ready queue. The former reads
    /// this to decide whether launching a non-full batch past its window
    /// buys any latency: while every worker is busy it keeps the batch
    /// open instead (see [`form_batch`]).
    idle_workers: AtomicU64,
    next_id: AtomicU64,
    /// The seeded fault-injection plan, if any. `None` (the production
    /// default) keeps the hot path to a single null check per site.
    fault: Option<FaultPlan>,
    /// Whether the former currently runs in overload brownout.
    brownout: AtomicBool,
    /// The batch size the former is currently forming to: `max_batch`
    /// normally, halved under brownout. Read by admission for its shed
    /// estimate.
    effective_max_batch: AtomicU64,
    /// EWMA of batch execution time in microseconds (admission's service
    ///-rate estimate for the brownout infeasibility check).
    batch_ewma_us: AtomicU64,
    /// EWMA of queue timeouts per formed batch, in 1/256ths (the former's
    /// deadline-miss-rate brownout trigger).
    miss_ewma: AtomicU64,
    /// Join handles of respawned workers (and post-close self-spawned
    /// drainers); drained by [`Server::shutdown`].
    extra_workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The inference server. See the [module docs](self) for the scheduling
/// model; see [`ServeConfig`] for the knobs.
///
/// Dropping the server shuts it down gracefully: admission closes, the
/// former drains every queued request, the pool drains every formed batch,
/// then all threads join.
pub struct Server {
    inner: Arc<Inner>,
    former: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server, its batch-former thread, and its executor pool.
    /// Models bring their own accelerator configuration at
    /// [`Server::register_model`] time. Reads `FEATHER_FAULT_PLAN` for a
    /// fault-injection plan (none in production).
    pub fn new(cfg: ServeConfig) -> Self {
        Server::with_fault_plan(cfg, FaultPlan::from_env())
    }

    /// [`Server::new`] with an explicit [`FaultPlan`] instead of the
    /// environment's — how tests inject faults without mutating the
    /// process-global environment.
    pub fn with_fault_plan(cfg: ServeConfig, fault: Option<FaultPlan>) -> Self {
        let cfg = ServeConfig {
            max_batch: cfg.max_batch.max(1),
            queue_depth: cfg.queue_depth.max(1),
            workers: cfg.workers.max(1),
            ready_depth: cfg.ready_depth.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            cfg,
            models: RwLock::new(BTreeMap::new()),
            queue: Mutex::new(QueueState {
                tenants: BTreeMap::new(),
                open: true,
                forming: true,
            }),
            arrived: Condvar::new(),
            weights: RwLock::new(BTreeMap::new()),
            ready: Mutex::new(ReadyState {
                batches: VecDeque::new(),
                closed: false,
                dead_workers: Vec::new(),
            }),
            ready_pop: Condvar::new(),
            ready_push: Condvar::new(),
            stats: Mutex::new(ServerStats::default()),
            worker_stats: (0..cfg.workers)
                .map(|_| Mutex::new(ServerStats::default()))
                .collect(),
            executing: AtomicU64::new(0),
            max_executing: AtomicU64::new(0),
            idle_workers: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            fault,
            brownout: AtomicBool::new(false),
            effective_max_batch: AtomicU64::new(cfg.max_batch as u64),
            batch_ewma_us: AtomicU64::new(0),
            miss_ewma: AtomicU64::new(0),
            extra_workers: Mutex::new(Vec::new()),
        });
        let former = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("feather-serve-former".to_string())
                .spawn(move || run_former(&inner))
                .expect("former thread spawns")
        };
        let workers = (0..cfg.workers)
            .map(|worker| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("feather-serve-worker-{worker}"))
                    .spawn(move || run_worker(&inner, worker))
                    .expect("worker thread spawns")
            })
            .collect();
        Server {
            inner,
            former: Some(former),
            workers,
        }
    }

    /// Registers a model under `name`: plans a batch-1 [`GraphSession`] for
    /// `graph` on `accelerator` and keeps `weights` resident. The graph must
    /// be authored at batch 1 (requests are single-sample; the scheduler
    /// batches them into lanes of one batch-1 replay).
    ///
    /// # Errors
    /// [`ServeError::BadInput`] if the graph's batch extent is not 1, or a
    /// wrapped [`ServeError::Exec`] if the graph does not compile.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        accelerator: FeatherConfig,
        graph: &Graph,
        weights: BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let input_shape = graph.tensor_shape(graph.input());
        if input_shape[0] != 1 {
            return Err(ServeError::BadInput(format!(
                "model `{name}` is authored at batch {} — register batch-1 graphs and let \
                 the scheduler batch requests",
                input_shape[0]
            )));
        }
        let base = Arc::new(GraphSession::auto(accelerator, graph)?);
        let model = Arc::new(Model {
            weights,
            input_shape,
            base,
            programs: Mutex::new(ProgramCache {
                program: None,
                stats: ProgramCacheStats::default(),
            }),
            breaker: CircuitBreaker::new(
                self.inner.cfg.breaker_threshold,
                self.inner.cfg.breaker_cooldown,
            ),
        });
        write_recover(&self.inner.models).insert(name, model);
        Ok(())
    }

    /// Sets `tenant`'s weight for the deficit-round-robin admission pass
    /// (clamped to at least 1; every tenant defaults to 1). A tenant with
    /// weight `w` earns `w` credits per batch formed while backlogged and
    /// pays one per admitted request, so sustained-contention batch shares
    /// are proportional to weights.
    pub fn set_tenant_weight(&self, tenant: impl Into<String>, weight: u64) {
        write_recover(&self.inner.weights).insert(tenant.into(), weight.max(1));
    }

    /// Submits a single-sample request for `model` on behalf of `tenant`,
    /// using the configured default deadline. Returns a [`Ticket`] to wait
    /// on (or `await`); dropping the ticket cancels the request.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`], [`ServeError::BadInput`] on a shape
    /// mismatch, [`ServeError::QueueFull`] when the tenant's queue is at
    /// capacity, or [`ServeError::Shutdown`].
    pub fn submit(
        &self,
        tenant: &str,
        model: &str,
        iacts: Tensor4<i8>,
    ) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(tenant, model, iacts, self.inner.cfg.default_deadline)
    }

    /// [`Server::submit`] with an explicit per-request deadline (`None`
    /// waits indefinitely).
    ///
    /// # Errors
    /// Same as [`Server::submit`], plus [`ServeError::Unavailable`] when the
    /// model's circuit breaker is open and [`ServeError::Overloaded`] when
    /// brownout sheds an infeasible deadline at admission.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        model: &str,
        iacts: Tensor4<i8>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let registered = read_recover(&self.inner.models)
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        if iacts.shape() != registered.input_shape {
            return Err(ServeError::BadInput(format!(
                "model `{model}` expects input {:?}, got {:?}",
                registered.input_shape,
                iacts.shape()
            )));
        }

        let enqueued = Instant::now();
        if !registered.breaker.admit(enqueued) {
            let mut stats = lock_recover(&self.inner.stats);
            stats.submitted += 1;
            stats.shed += 1;
            stats.tenants.entry(tenant.to_string()).or_default().shed += 1;
            return Err(ServeError::Unavailable {
                model: model.to_string(),
            });
        }
        let promise = Promise::new();
        let ticket = Ticket::new(
            promise.clone(),
            self.inner.next_id.fetch_add(1, Ordering::Relaxed),
        );
        {
            let mut queue = lock_recover(&self.inner.queue);
            if !queue.open {
                return Err(ServeError::Shutdown);
            }
            lock_recover(&self.inner.stats).submitted += 1;
            // Brownout shedding: with the server in overload, a request
            // whose deadline cannot outlast the backlog ahead of it would
            // only time out in the queue — resolve that at admission, where
            // the client can still react.
            if self.inner.brownout.load(Ordering::Relaxed) {
                if let Some(d) = deadline {
                    let queued: usize = queue.tenants.values().map(|tq| tq.requests.len()).sum();
                    let eff = self
                        .inner
                        .effective_max_batch
                        .load(Ordering::Relaxed)
                        .max(1);
                    let ewma = self.inner.batch_ewma_us.load(Ordering::Relaxed);
                    let wait_us = (queued as u64 / eff + 1).saturating_mul(ewma);
                    if d < Duration::from_micros(wait_us) {
                        let mut stats = lock_recover(&self.inner.stats);
                        stats.shed += 1;
                        stats.tenants.entry(tenant.to_string()).or_default().shed += 1;
                        return Err(ServeError::Overloaded);
                    }
                }
            }
            let tq = queue.tenants.entry(tenant.to_string()).or_default();
            if tq.requests.len() >= self.inner.cfg.queue_depth {
                // Cancelled or expired requests still parked in the queue
                // should not hold capacity against live ones: prune, then
                // re-check before bouncing.
                let dead = take_dead(tq, enqueued);
                resolve_dead(&self.inner, dead);
                let tq = queue
                    .tenants
                    .get_mut(tenant)
                    .expect("tenant entry just touched");
                if tq.requests.len() >= self.inner.cfg.queue_depth {
                    let mut stats = lock_recover(&self.inner.stats);
                    stats.rejected += 1;
                    stats
                        .tenants
                        .entry(tenant.to_string())
                        .or_default()
                        .rejected += 1;
                    return Err(ServeError::QueueFull {
                        depth: self.inner.cfg.queue_depth,
                    });
                }
            }
            let tq = queue
                .tenants
                .get_mut(tenant)
                .expect("tenant entry just touched");
            tq.requests.push_back(Request {
                id: ticket.id(),
                tenant: tenant.to_string(),
                model: model.to_string(),
                iacts,
                enqueued,
                deadline: deadline.map(|d| enqueued + d),
                promise,
                attempts: 0,
                not_before: None,
            });
        }
        self.inner.arrived.notify_all();
        Ok(ticket)
    }

    /// A snapshot of the server's counters: the admission-side shard merged
    /// with every executor worker's shard, plus the concurrency watermark.
    pub fn stats(&self) -> ServerStats {
        let mut stats = lock_recover(&self.inner.stats).clone();
        for shard in &self.inner.worker_stats {
            stats.merge(&lock_recover(shard));
        }
        stats.max_concurrent_batches = stats
            .max_concurrent_batches
            .max(self.inner.max_executing.load(Ordering::Acquire));
        stats
    }

    /// Counters of a registered model's compiled-route cache.
    pub fn route_cache_stats(&self, model: &str) -> Option<RouteCacheStats> {
        read_recover(&self.inner.models)
            .get(model)
            .map(|m| m.base.route_cache_stats())
    }

    /// Counters of a registered model's compiled-program cache: in-memory
    /// replay hits/misses plus on-disk artifact hits/misses. A warm server
    /// shows only `hits` moving — every batch after the first does zero
    /// planning or compile work.
    pub fn program_cache_stats(&self, model: &str) -> Option<ProgramCacheStats> {
        read_recover(&self.inner.models)
            .get(model)
            .map(|m| m.program_cache_stats())
    }

    /// Whether `model`'s circuit breaker is currently rejecting traffic.
    /// `None` for unregistered models.
    pub fn breaker_open(&self, model: &str) -> Option<bool> {
        read_recover(&self.inner.models)
            .get(model)
            .map(|m| m.breaker.is_open())
    }

    /// The scheduling configuration the server runs with.
    pub fn config(&self) -> ServeConfig {
        self.inner.cfg
    }

    /// Closes admission, drains every queued request and formed batch, and
    /// joins the former and the executor pool. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        if let Some(former) = self.former.take() {
            {
                let mut queue = lock_recover(&self.inner.queue);
                queue.open = false;
            }
            self.inner.arrived.notify_all();
            // The former drains admission, then closes the ready queue; the
            // workers drain that and exit.
            former.join().expect("former thread panicked");
            for worker in self.workers.drain(..) {
                // A worker that died to an injected panic was replaced; its
                // own join result is the panic payload, not an error.
                let _ = worker.join();
            }
            // Respawned workers (and post-close drainers) register here —
            // including replacements spawned while this loop runs, hence
            // drain-until-empty.
            loop {
                let extras: Vec<JoinHandle<()>> =
                    lock_recover(&self.inner.extra_workers).drain(..).collect();
                if extras.is_empty() {
                    break;
                }
                for handle in extras {
                    let _ = handle.join();
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long an idle thread sleeps between checks — a backstop for missed
/// wakeups, not the signaling path.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Removes `tq`'s cancelled/expired requests (front to back, preserving the
/// order of survivors) and returns them for resolution.
fn take_dead(tq: &mut TenantQueue, now: Instant) -> Vec<Request> {
    let mut dead = Vec::new();
    let mut kept = VecDeque::with_capacity(tq.requests.len());
    while let Some(request) = tq.requests.pop_front() {
        if request.dead_at(now) {
            dead.push(request);
        } else {
            kept.push_back(request);
        }
    }
    tq.requests = kept;
    dead
}

/// Fulfils pruned requests and books them into the admission-side stats:
/// cancellation wins over expiry when both apply. Returns how many resolved
/// as timeouts (the former's deadline-miss-rate signal).
fn resolve_dead(inner: &Inner, dead: Vec<Request>) -> usize {
    if dead.is_empty() {
        return 0;
    }
    let mut timeouts = 0;
    let mut stats = lock_recover(&inner.stats);
    for request in dead {
        let tenant = stats.tenants.entry(request.tenant.clone()).or_default();
        if request.promise.is_cancelled() {
            tenant.cancelled += 1;
            stats.cancelled += 1;
            request.promise.fulfill(Err(ServeError::Cancelled));
        } else {
            tenant.timed_out += 1;
            stats.timed_out += 1;
            timeouts += 1;
            request.promise.fulfill(Err(ServeError::Timeout));
        }
    }
    timeouts
}

/// Prunes every tenant's dead requests under the queue lock; returns the
/// number resolved as timeouts.
fn prune_queues(inner: &Inner, queue: &mut QueueState) -> usize {
    let now = Instant::now();
    let mut dead = Vec::new();
    for tq in queue.tenants.values_mut() {
        dead.extend(take_dead(tq, now));
    }
    resolve_dead(inner, dead)
}

/// One injection decision at `site`; `None` whenever no plan is loaded.
fn roll_fault(inner: &Inner, site: FaultSite) -> Option<FaultAction> {
    inner.fault.as_ref()?.roll(site)
}

/// Spawns a replacement executor for dead `worker` (same index, so it
/// inherits the stats shard) and registers its handle for shutdown to join.
fn spawn_replacement(inner: &Arc<Inner>, worker: usize) {
    lock_recover(&inner.stats).respawns += 1;
    let cloned = inner.clone();
    let handle = std::thread::Builder::new()
        .name(format!("feather-serve-worker-{worker}-respawn"))
        .spawn(move || run_worker(&cloned, worker))
        .expect("respawn thread spawns");
    lock_recover(&inner.extra_workers).push(handle);
}

/// Respawns every worker reported dead. Called by the former each loop (and
/// from its waits), plus once after closing the ready queue.
fn respawn_dead(inner: &Arc<Inner>) {
    let dead: Vec<usize> = {
        let mut ready = lock_recover(&inner.ready);
        std::mem::take(&mut ready.dead_workers)
    };
    for worker in dead {
        spawn_replacement(inner, worker);
    }
}

/// A dying worker's report: hand the former a respawn request — or, if the
/// former already closed the ready queue (and may be gone), spawn the
/// replacement directly so any still-queued batches get drained.
fn request_respawn(inner: &Arc<Inner>, worker: usize) {
    let closed = {
        let mut ready = lock_recover(&inner.ready);
        if !ready.closed {
            ready.dead_workers.push(worker);
        }
        ready.closed
    };
    if closed {
        spawn_replacement(inner, worker);
    } else {
        inner.arrived.notify_all();
    }
}

/// Guards an executor worker's thread: dropped during an unwinding panic
/// (an injected pickup panic, or any unexpected one), it reports the worker
/// dead so a replacement is spawned. Disarmed on clean exit.
struct WorkerSentinel {
    inner: Arc<Inner>,
    worker: usize,
    armed: bool,
}

impl Drop for WorkerSentinel {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            request_respawn(&self.inner, self.worker);
        }
    }
}

/// Resolves the members of a failed batch execution: cancelled/expired
/// members resolve as usual, members with retry budget left are re-enqueued
/// at their tenant's queue head with exponential backoff, the rest fail as
/// [`ServeError::Failed`]. If the former has already stopped forming,
/// nothing is re-enqueued (it would hang forever) — budget or not, the
/// request fails.
fn retry_or_fail(inner: &Inner, worker: usize, requests: Vec<Request>, reason: &str) {
    if requests.is_empty() {
        return;
    }
    let now = Instant::now();
    let mut requeue = Vec::new();
    let fail = |stats: &mut ServerStats, request: Request| {
        if request.promise.is_cancelled() {
            stats.cancelled += 1;
            stats
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .cancelled += 1;
            request.promise.fulfill(Err(ServeError::Cancelled));
        } else if request.deadline.is_some_and(|d| d <= now) {
            stats.timed_out += 1;
            stats
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .timed_out += 1;
            request.promise.fulfill(Err(ServeError::Timeout));
        } else {
            stats.failed += 1;
            stats
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .failed += 1;
            request.promise.fulfill(Err(ServeError::Failed(format!(
                "{reason} (attempt {} of {})",
                request.attempts + 1,
                inner.cfg.max_retries + 1
            ))));
        }
    };
    {
        let mut stats = lock_recover(&inner.worker_stats[worker]);
        for mut request in requests {
            if !request.dead_at(now) && request.attempts < inner.cfg.max_retries {
                request.attempts += 1;
                // Exponential backoff: attempt n waits backoff * 2^(n-1).
                let exp = (request.attempts - 1).min(16);
                request.not_before = Some(now + inner.cfg.retry_backoff * (1u32 << exp));
                stats.retries += 1;
                requeue.push(request);
            } else {
                fail(&mut stats, request);
            }
        }
    }
    if requeue.is_empty() {
        return;
    }
    let stranded = {
        let mut queue = lock_recover(&inner.queue);
        if queue.forming {
            // Queue-head re-enqueue: retries go back out ahead of newer
            // arrivals from the same tenant.
            for request in requeue.drain(..) {
                queue
                    .tenants
                    .entry(request.tenant.clone())
                    .or_default()
                    .requests
                    .push_front(request);
            }
            false
        } else {
            true
        }
    };
    if stranded {
        let mut stats = lock_recover(&inner.worker_stats[worker]);
        for request in requeue {
            fail(&mut stats, request);
        }
    } else {
        inner.arrived.notify_all();
    }
}

/// The tenant with the largest deficit among those `eligible` selects; ties
/// break toward the lexicographically first name, so selection is
/// deterministic.
fn richest_tenant<F>(queue: &QueueState, eligible: F) -> Option<String>
where
    F: Fn(&TenantQueue) -> bool,
{
    queue
        .tenants
        .iter()
        .filter(|(_, tq)| eligible(tq))
        .max_by(|(a_name, a), (b_name, b)| a.deficit.cmp(&b.deficit).then(b_name.cmp(a_name)))
        .map(|(name, _)| name.clone())
}

/// The batch-former loop: form batches until admission is closed *and* the
/// queues are empty (shutdown still serves everything already admitted),
/// then close the ready queue so the executor pool drains and exits. The
/// former doubles as the pool supervisor: every round it respawns workers
/// that died to a panic.
fn run_former(inner: &Arc<Inner>) {
    loop {
        respawn_dead(inner);
        wait_ready_slot(inner);
        match form_batch(inner) {
            None => break,
            Some(batch) if batch.requests.is_empty() => continue,
            Some(batch) => push_ready(inner, batch),
        }
    }
    // Close and take any last death reports in one critical section: a
    // worker that dies after observing `closed` self-replaces instead.
    let leftover: Vec<usize> = {
        let mut ready = lock_recover(&inner.ready);
        ready.closed = true;
        std::mem::take(&mut ready.dead_workers)
    };
    inner.ready_pop.notify_all();
    for worker in leftover {
        spawn_replacement(inner, worker);
    }
}

/// Blocks until a batch is ready (or returns `None` at shutdown-and-
/// drained). One deficit-round-robin pass picks the leading tenant (whose
/// oldest request chooses the model); the window then holds the batch open
/// for same-model arrivals, and extraction fills it across tenants in
/// deficit order. Dead requests are pruned (and resolved) along the way, so
/// an empty batch is possible when every candidate was cancelled or expired.
fn form_batch(inner: &Arc<Inner>) -> Option<ReadyBatch> {
    let mut timeouts = 0usize;
    let mut queue = lock_recover(&inner.queue);
    // Wait for schedulable work: a request whose retry backoff (if any) has
    // elapsed. Ineligible retries still count as backlog — shutdown must
    // not abandon them — but only an eligible request starts a batch.
    loop {
        timeouts += prune_queues(inner, &mut queue);
        let now = Instant::now();
        if queue
            .tenants
            .values()
            .any(|tq| tq.requests.iter().any(|r| r.eligible_at(now)))
        {
            break;
        }
        if !queue.open && !queue.backlogged() {
            // Drained and closed: tell the retry path re-enqueueing is no
            // longer possible, atomically with the decision to exit.
            queue.forming = false;
            record_miss_ewma(inner, timeouts);
            return None;
        }
        let (guard, _) = inner
            .arrived
            .wait_timeout(queue, IDLE_POLL)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue = guard;
        // Supervision must not stall while the former idles here.
        respawn_dead(inner);
    }

    // Brownout decision, taken once per batch from the freshest backlog
    // view: occupancy of the fullest tenant queue (admission bounds are
    // per-tenant) or a sustained deadline-miss rate trips it; either way
    // the effective batch halves so the queue head drains sooner.
    let occupancy_pct = queue
        .tenants
        .values()
        .map(|tq| tq.requests.len() * 100 / inner.cfg.queue_depth.max(1))
        .max()
        .unwrap_or(0);
    let miss_rate = inner.miss_ewma.load(Ordering::Relaxed);
    let brownout = occupancy_pct >= inner.cfg.brownout_pct || miss_rate >= 256;
    inner.brownout.store(brownout, Ordering::Relaxed);
    let max_batch = if brownout {
        (inner.cfg.max_batch / 2).max(1)
    } else {
        inner.cfg.max_batch
    };
    inner
        .effective_max_batch
        .store(max_batch as u64, Ordering::Relaxed);

    // The DRR round: every backlogged tenant earns its weight; the richest
    // (among those with an eligible request) leads, and its oldest eligible
    // request picks the model this batch serves.
    {
        let weights = read_recover(&inner.weights);
        for (name, tq) in queue.tenants.iter_mut() {
            if !tq.requests.is_empty() {
                tq.deficit += *weights.get(name).unwrap_or(&1) as i64;
            }
        }
    }
    let now = Instant::now();
    let lead = richest_tenant(&queue, |tq| tq.requests.iter().any(|r| r.eligible_at(now)))
        .expect("an eligible request broke the wait");
    let model = queue.tenants[&lead]
        .requests
        .iter()
        .find(|r| r.eligible_at(now))
        .expect("lead tenant had an eligible request")
        .model
        .clone();

    // Hold the batch open up to the window for more same-model requests
    // (shutdown launches immediately — latency no longer matters, drain
    // fast). Past the window, keep holding while every executor is busy: a
    // formed batch could not start anyway, so each extra arrival fattens it
    // for free. This is the explicit version of the PR-7 inline scheduler's
    // implicit back-pressure (it could not form while executing), and it is
    // what keeps saturated closed-loop batches full — launching on the bare
    // window measured mean batch 6.9 instead of 8 and a 13% throughput
    // loss. A starving worker bumps `idle_workers` and knocks on `arrived`,
    // so dispatch latency past the window is one wakeup, not a poll.
    let window_end = Instant::now() + inner.cfg.batch_window;
    while queue.open {
        timeouts += prune_queues(inner, &mut queue);
        let now = Instant::now();
        let waiting: usize = queue
            .tenants
            .values()
            .map(|tq| {
                tq.requests
                    .iter()
                    .filter(|r| r.model == model && r.eligible_at(now))
                    .count()
            })
            .sum();
        if waiting >= max_batch {
            break;
        }
        let wait = if now < window_end {
            window_end - now
        } else if inner.idle_workers.load(Ordering::SeqCst) > 0 {
            break;
        } else {
            IDLE_POLL
        };
        let (guard, _) = inner
            .arrived
            .wait_timeout(queue, wait)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue = guard;
        respawn_dead(inner);
    }
    timeouts += prune_queues(inner, &mut queue);

    // Extraction: repeatedly take the oldest eligible same-model request of
    // the richest tenant still holding one; each admitted request pays one
    // credit. Other models' requests keep their queue positions.
    let now = Instant::now();
    let candidate = |r: &Request| r.model == model && r.eligible_at(now);
    let mut batch = Vec::new();
    while batch.len() < max_batch {
        let Some(tenant) = richest_tenant(&queue, |tq| tq.requests.iter().any(&candidate)) else {
            break;
        };
        let tq = queue.tenants.get_mut(&tenant).expect("tenant selected");
        let pos = tq
            .requests
            .iter()
            .position(&candidate)
            .expect("tenant had a candidate");
        let request = tq.requests.remove(pos).expect("position in bounds");
        tq.deficit -= 1;
        batch.push(request);
    }

    // Drained tenants leave the round: credit (or debt) does not bank
    // across idle periods. Debt is floored at one batch's worth — a tenant
    // that served alone (paying more than it earned, with nobody competing)
    // must not carry that artificial debt into a later contended phase.
    queue.tenants.retain(|_, tq| !tq.requests.is_empty());
    let debt_floor = -(inner.cfg.max_batch as i64);
    for tq in queue.tenants.values_mut() {
        tq.deficit = tq.deficit.max(debt_floor);
    }

    // Admission order within the batch, so coalescing stays deterministic.
    batch.sort_by_key(|r| r.id);
    record_miss_ewma(inner, timeouts);
    Some(ReadyBatch {
        model,
        requests: batch,
    })
}

/// Folds one formed batch's queue-timeout count into the deadline-miss
/// EWMA (fixed-point 1/256ths, quarter-weight): sustained ≥ 1 miss per
/// batch converges to ≥ 256 and trips brownout.
fn record_miss_ewma(inner: &Inner, timeouts: usize) {
    let old = inner.miss_ewma.load(Ordering::Relaxed);
    let sample = (timeouts as u64).saturating_mul(256);
    inner
        .miss_ewma
        .store(old - old / 4 + sample / 4, Ordering::Relaxed);
}

/// Back-pressure: the former does not even begin forming a batch until the
/// pool can accept it. Requests keep accumulating in the admission queues
/// while every ready slot is full, so under sustained load each batch is
/// formed at the moment a slot frees — from the fullest possible backlog —
/// and the window only pads genuinely idle periods. Forming eagerly and
/// blocking on the push instead would lock undersized batches in far ahead
/// of their execution (measured: mean batch 3.9 instead of 8 on the
/// closed-loop sweep, a 27% throughput loss vs the PR-7 inline scheduler,
/// whose execution time back-pressured formation implicitly).
fn wait_ready_slot(inner: &Arc<Inner>) {
    wait_slot_supervised(inner, |_| {});
}

/// Hands a formed batch to the pool. Only the former pushes, so after
/// [`wait_ready_slot`] the slot is still free; the wait here is a
/// belt-and-braces bound, not the back-pressure mechanism.
fn push_ready(inner: &Arc<Inner>, batch: ReadyBatch) {
    let mut batch = Some(batch);
    wait_slot_supervised(inner, |ready| {
        if let Some(batch) = batch.take() {
            ready.batches.push_back(batch);
        }
    });
    inner.ready_pop.notify_one();
}

/// Waits for a free ready-queue slot, then runs `then` under the ready
/// lock. While waiting, the former keeps supervising: if every worker died
/// the slot would never free, so death reports are respawned from inside
/// the wait (the ready lock is released around each spawn).
fn wait_slot_supervised<F: FnMut(&mut ReadyState)>(inner: &Arc<Inner>, mut then: F) {
    loop {
        let dead = {
            let mut ready = lock_recover(&inner.ready);
            loop {
                if !ready.dead_workers.is_empty() {
                    break std::mem::take(&mut ready.dead_workers);
                }
                if ready.batches.len() < inner.cfg.ready_depth {
                    then(&mut ready);
                    return;
                }
                let (guard, _) = inner
                    .ready_push
                    .wait_timeout(ready, IDLE_POLL)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                ready = guard;
            }
        };
        for worker in dead {
            spawn_replacement(inner, worker);
        }
    }
}

/// One executor worker: pop ready batches and replay them until the former
/// closes the queue and it runs dry. The worker keeps a [`ReplayScratch`]
/// per (model, batch size) it serves, so its steady state allocates no
/// buffer memory.
fn run_worker(inner: &Arc<Inner>, worker: usize) {
    let mut sentinel = WorkerSentinel {
        inner: inner.clone(),
        worker,
        armed: true,
    };
    let mut scratches: BTreeMap<(String, usize), ReplayScratch> = BTreeMap::new();
    loop {
        let batch = {
            let mut ready = lock_recover(&inner.ready);
            loop {
                if let Some(batch) = ready.batches.pop_front() {
                    inner.ready_push.notify_one();
                    break batch;
                }
                if ready.closed {
                    sentinel.armed = false;
                    return;
                }
                // Starving: tell the former a non-full batch is now worth
                // launching (it may be holding one open past its window
                // because nobody could run it anyway).
                inner.idle_workers.fetch_add(1, Ordering::SeqCst);
                inner.arrived.notify_all();
                let (guard, _) = inner
                    .ready_pop
                    .wait_timeout(ready, IDLE_POLL)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                ready = guard;
                inner.idle_workers.fetch_sub(1, Ordering::SeqCst);
            }
        };
        // Injected pickup faults. Both resolve the batch's members first
        // (retry or fail — never strand a ticket); the panic then unwinds
        // the worker thread and the sentinel requests a respawn.
        if let Some(action) = roll_fault(inner, FaultSite::WorkerPickup) {
            let panics = action == FaultAction::Panic;
            if panics {
                lock_recover(&inner.worker_stats[worker]).worker_panics += 1;
            }
            retry_or_fail(
                inner,
                worker,
                batch.requests,
                "injected: worker pickup fault",
            );
            if panics {
                panic!("injected fault: worker pickup");
            }
            continue;
        }
        match execute_batch(inner, worker, batch, &mut scratches) {
            BatchOutcome::Done => {}
            BatchOutcome::WorkerDied => {
                // The replay panicked (caught, batch resolved). Retire this
                // worker thread — its scratch state dies with it — and ask
                // for a replacement.
                sentinel.armed = false;
                request_respawn(inner, worker);
                return;
            }
        }
    }
}

/// How [`execute_batch`] ended: normally, or with a caught replay panic
/// that retires the worker thread.
enum BatchOutcome {
    Done,
    WorkerDied,
}

/// Runs one formed batch on `worker` and resolves every member's promise.
/// Requests cancelled or expired since formation are resolved here without
/// executing — the final gate that keeps dead requests out of the
/// accelerator. The replay itself runs under `catch_unwind`: a panic
/// resolves only this batch (retry or fail per member), feeds the model's
/// breaker, and retires the worker for respawn.
fn execute_batch(
    inner: &Arc<Inner>,
    worker: usize,
    batch: ReadyBatch,
    scratches: &mut BTreeMap<(String, usize), ReplayScratch>,
) -> BatchOutcome {
    let launched = Instant::now();
    let mut live = Vec::with_capacity(batch.requests.len());
    {
        let mut stats = lock_recover(&inner.worker_stats[worker]);
        for request in batch.requests {
            if request.promise.is_cancelled() {
                stats.cancelled += 1;
                stats
                    .tenants
                    .entry(request.tenant.clone())
                    .or_default()
                    .cancelled += 1;
                request.promise.fulfill(Err(ServeError::Cancelled));
            } else if request.deadline.is_some_and(|d| d <= launched) {
                stats.timed_out += 1;
                stats
                    .tenants
                    .entry(request.tenant.clone())
                    .or_default()
                    .timed_out += 1;
                request.promise.fulfill(Err(ServeError::Timeout));
            } else {
                live.push(request);
            }
        }
    }
    if live.is_empty() {
        return BatchOutcome::Done;
    }

    let size = live.len();
    let model = read_recover(&inner.models)
        .get(&batch.model)
        .cloned()
        .expect("submit validated the model; models are never unregistered");

    // One failed execution = one breaker strike for the model, whatever
    // the members' retry budgets decide individually.
    let strike = |reason: &str, live: Vec<Request>| {
        if model.breaker.record_failure(Instant::now()) {
            lock_recover(&inner.worker_stats[worker]).breaker_opens += 1;
        }
        retry_or_fail(inner, worker, live, reason);
    };

    let program = match model.program_for(inner.fault.as_ref()) {
        Ok(program) => program,
        Err(err) => {
            strike(&err.to_string(), live);
            return BatchOutcome::Done;
        }
    };

    let executing = inner.executing.fetch_add(1, Ordering::SeqCst) + 1;
    inner.max_executing.fetch_max(executing, Ordering::SeqCst);
    let key = (batch.model.clone(), size);
    if !scratches.contains_key(&key) && scratches.len() >= SCRATCH_CAPACITY {
        scratches.clear();
    }
    let scratch = scratches.entry(key).or_default();
    // One `GraphRun` per request, under a supervision boundary: an injected
    // (or real) panic inside the replay must fail only this batch, not the
    // server.
    let runs = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<GraphRun>, ServeError> {
        if let Some(action) = roll_fault(inner, FaultSite::ReplayEntry) {
            match action {
                FaultAction::Panic => panic!("injected fault: replay entry"),
                FaultAction::Fail => {
                    return Err(ServeError::Failed("injected: replay failure".into()))
                }
            }
        }
        // Request `i` rides lane `i` of one batch-1 replay and gets back its
        // own exact solo outputs and report.
        let inputs: Vec<Tensor4<i8>> = live.iter().map(|r| r.iacts.clone()).collect();
        program
            .run_batched_with_scratch(scratch, &inputs, &model.weights)
            .map_err(ServeError::Exec)
    }));
    inner.executing.fetch_sub(1, Ordering::SeqCst);
    // Feed the admission-side service-rate estimate (quarter-weight EWMA).
    let elapsed_us = launched.elapsed().as_micros() as u64;
    let old = inner.batch_ewma_us.load(Ordering::Relaxed);
    let ewma = if old == 0 {
        elapsed_us
    } else {
        old - old / 4 + elapsed_us / 4
    };
    inner.batch_ewma_us.store(ewma, Ordering::Relaxed);

    let runs = match runs {
        Ok(Ok(runs)) => runs,
        Ok(Err(err)) => {
            strike(&err.to_string(), live);
            return BatchOutcome::Done;
        }
        Err(_panic) => {
            lock_recover(&inner.worker_stats[worker]).worker_panics += 1;
            strike("replay panicked", live);
            return BatchOutcome::WorkerDied;
        }
    };
    model.breaker.record_success();

    let mut stats = lock_recover(&inner.worker_stats[worker]);
    *stats.batches.entry(size).or_insert(0) += 1;
    *stats.worker_batches.entry(worker).or_insert(0) += 1;
    for (request, run) in live.into_iter().zip(runs) {
        let latency_us = request.enqueued.elapsed().as_micros() as u64;
        let response = Response {
            cycles: run.report.total_cycles(),
            dram_bytes: run.report.dram_bytes(),
            oacts: run.oacts,
            batch_size: size,
            worker,
            queue_us: launched.duration_since(request.enqueued).as_micros() as u64,
            latency_us,
        };
        let tenant = stats.tenants.entry(request.tenant.clone()).or_default();
        tenant.completed += 1;
        tenant.latency_us += latency_us;
        tenant.max_latency_us = tenant.max_latency_us.max(latency_us);
        tenant.cycles += response.cycles;
        tenant.dram_bytes += response.dram_bytes;
        stats.completed += 1;
        request.promise.fulfill(Ok(response));
    }
    BatchOutcome::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::workload::ConvLayer;

    /// conv → conv, authored at batch 1 on a 4×8 fabric.
    fn tiny_graph(name: &str) -> Graph {
        let mut g = Graph::new(name, [1, 2, 4, 4]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 4, 2, 4, 4, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        g.conv(stem, ConvLayer::new(1, 2, 4, 4, 4, 1, 1).with_name("head"))
            .unwrap();
        g
    }

    fn config() -> FeatherConfig {
        FeatherConfig::new(4, 8)
    }

    #[test]
    fn batched_responses_are_bit_identical_to_solo_runs() {
        let g = tiny_graph("m");
        let weights = g.random_weights(3);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let tenants = ["alice", "bob"];
        for burst in 1..=4usize {
            let inputs: Vec<Tensor4<i8>> = (0..burst)
                .map(|i| Tensor4::random([1, 2, 4, 4], 40 + 10 * burst as u64 + i as u64))
                .collect();
            let goldens: Vec<GraphRun> = inputs
                .iter()
                .map(|iacts| solo.run(iacts, &weights).unwrap())
                .collect();

            // A window far longer than the burst takes to submit: the former
            // launches the whole burst as one batch the moment its last
            // request arrives.
            let server = Server::new(ServeConfig {
                max_batch: burst,
                batch_window: Duration::from_secs(2),
                ..ServeConfig::default()
            });
            server
                .register_model("m", config(), &g, weights.clone())
                .unwrap();
            let tickets: Vec<Ticket> = inputs
                .iter()
                .enumerate()
                .map(|(i, iacts)| server.submit(tenants[i % 2], "m", iacts.clone()).unwrap())
                .collect();
            let mut expected: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for (i, (ticket, golden)) in tickets.into_iter().zip(&goldens).enumerate() {
                let response = ticket.wait().unwrap();
                assert_eq!(response.oacts, golden.oacts, "burst {burst} request {i}");
                assert_eq!(response.batch_size, burst);
                // Each request carries its own exact solo totals, never a
                // share of the batch's.
                let cycles = golden.report.total_cycles();
                let dram_bytes = golden.report.dram_bytes();
                assert_eq!(response.cycles, cycles, "burst {burst} request {i}");
                assert_eq!(response.dram_bytes, dram_bytes, "burst {burst} request {i}");
                let total = expected.entry(tenants[i % 2]).or_default();
                total.0 += cycles;
                total.1 += dram_bytes;
            }
            let stats = server.stats();
            assert_eq!(stats.completed, burst as u64);
            assert_eq!(stats.batches, BTreeMap::from([(burst, 1)]));
            for (tenant, (cycles, dram_bytes)) in expected {
                assert_eq!(stats.tenants[tenant].cycles, cycles, "{tenant} cycles");
                assert_eq!(
                    stats.tenants[tenant].dram_bytes, dram_bytes,
                    "{tenant} DRAM"
                );
            }
        }
    }

    #[test]
    fn batched_replay_backend_counts_and_matches_solo_runs() {
        let g = tiny_graph("m");
        let weights = g.random_weights(9);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let server = Server::new(ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_secs(2),
            ..ServeConfig::default()
        });
        server
            .register_model("m", config(), &g, weights.clone())
            .unwrap();
        // Two full batches: both lane-replay the model's one batch-1
        // program, so it compiles on the first and is a hit on the second.
        for round in 0..2u64 {
            let inputs: Vec<Tensor4<i8>> = (0..4)
                .map(|i| Tensor4::random([1, 2, 4, 4], 90 + 4 * round + i))
                .collect();
            let goldens: Vec<GraphRun> = inputs
                .iter()
                .map(|iacts| solo.run(iacts, &weights).unwrap())
                .collect();
            let tickets: Vec<Ticket> = inputs
                .iter()
                .map(|iacts| server.submit("t", "m", iacts.clone()).unwrap())
                .collect();
            for (ticket, golden) in tickets.into_iter().zip(&goldens) {
                let response = ticket.wait().unwrap();
                assert_eq!(response.oacts, golden.oacts);
                assert_eq!(response.batch_size, 4);
                assert_eq!(response.cycles, golden.report.total_cycles());
                assert_eq!(response.dram_bytes, golden.report.dram_bytes());
            }
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.batches, BTreeMap::from([(4, 2)]));
        let cache = server.program_cache_stats("m").unwrap();
        assert_eq!(cache.misses, 1, "one batch-1 program serves every batch");
        assert_eq!(cache.hits, 1);
    }

    #[test]
    fn second_request_replays_the_cached_program() {
        let g = tiny_graph("m");
        let weights = g.random_weights(7);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let server = Server::new(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        server
            .register_model("m", config(), &g, weights.clone())
            .unwrap();
        for seed in 0..3 {
            let iacts = Tensor4::random([1, 2, 4, 4], 70 + seed);
            let golden = solo.run(&iacts, &weights).unwrap().oacts;
            let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
            assert_eq!(response.oacts, golden);
        }
        let stats = server.program_cache_stats("m").unwrap();
        // One compile on the first batch-1 request, replays ever after.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.artifact_hits + stats.artifact_misses, 1);
        assert!(server.program_cache_stats("nope").is_none());
    }

    #[test]
    fn submit_validates_model_and_shape() {
        let g = tiny_graph("m");
        let server = Server::new(ServeConfig::default());
        server
            .register_model("m", config(), &g, g.random_weights(1))
            .unwrap();
        let wrong = Tensor4::random([1, 3, 4, 4], 1);
        assert!(matches!(
            server.submit("t", "nope", Tensor4::random([1, 2, 4, 4], 1)),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            server.submit("t", "m", wrong),
            Err(ServeError::BadInput(_))
        ));
    }

    #[test]
    fn batched_graphs_are_rejected_at_registration() {
        let mut g = Graph::new("b2", [2, 2, 4, 4]);
        g.conv(
            g.input(),
            ConvLayer::new(2, 2, 2, 4, 4, 1, 1).with_name("only"),
        )
        .unwrap();
        let server = Server::new(ServeConfig::default());
        assert!(matches!(
            server.register_model("b2", config(), &g, g.random_weights(1)),
            Err(ServeError::BadInput(_))
        ));
    }

    #[test]
    fn admission_control_bounces_past_queue_depth_and_shutdown_drains() {
        let g = tiny_graph("m");
        let weights = g.random_weights(5);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 9);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // A wide window plus a large max_batch keeps requests parked in the
        // queue, so the depth bound is observable deterministically.
        let mut server = Server::new(ServeConfig {
            max_batch: 8,
            queue_depth: 2,
            batch_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let t1 = server.submit("t", "m", iacts.clone()).unwrap();
        let t2 = server.submit("t", "m", iacts.clone()).unwrap();
        assert!(matches!(
            server.submit("t", "m", iacts.clone()),
            Err(ServeError::QueueFull { depth: 2 })
        ));
        assert_eq!(server.stats().rejected, 1);

        // Shutdown closes admission but still serves what was admitted.
        server.shutdown();
        assert_eq!(t1.wait().unwrap().oacts, golden);
        assert_eq!(t2.wait().unwrap().oacts, golden);
        assert!(matches!(
            server.submit("t", "m", iacts),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn queue_depth_bounds_each_tenant_separately() {
        let g = tiny_graph("m");
        let weights = g.random_weights(6);
        let iacts = Tensor4::random([1, 2, 4, 4], 11);

        let mut server = Server::new(ServeConfig {
            max_batch: 8,
            queue_depth: 2,
            batch_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let _a1 = server.submit("a", "m", iacts.clone()).unwrap();
        let _a2 = server.submit("a", "m", iacts.clone()).unwrap();
        // Tenant `a` is at capacity; tenant `b` has its own bound.
        assert!(matches!(
            server.submit("a", "m", iacts.clone()),
            Err(ServeError::QueueFull { depth: 2 })
        ));
        let _b1 = server.submit("b", "m", iacts.clone()).unwrap();
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.tenants["a"].rejected, 1);
        assert!(!stats.tenants.contains_key("b") || stats.tenants["b"].rejected == 0);
        server.shutdown();
    }

    #[test]
    fn cancelled_requests_never_execute() {
        let g = tiny_graph("m");
        let weights = g.random_weights(8);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 13);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // A wide window keeps all three parked while we cancel two of them.
        let mut server = Server::new(ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let keep = server.submit("t", "m", iacts.clone()).unwrap();
        let explicit = server.submit("t", "m", iacts.clone()).unwrap();
        let abandoned = server.submit("t", "m", iacts.clone()).unwrap();

        explicit.cancel();
        drop(abandoned); // dropping the ticket cancels too

        server.shutdown();
        assert_eq!(keep.wait().unwrap().oacts, golden);
        assert_eq!(explicit.wait(), Err(ServeError::Cancelled));

        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cancelled, 2);
        assert_eq!(stats.tenants["t"].cancelled, 2);
        // The cancelled pair never reached an executor: the only executed
        // batch held exactly the surviving request.
        assert_eq!(stats.batches, BTreeMap::from([(1, 1)]));
    }

    #[test]
    fn weighted_fair_admission_shares_batches_by_weight() {
        let g_light = tiny_graph("ml");
        let g_flood = tiny_graph("mf");
        let w_light = g_light.random_weights(21);
        let w_flood = g_flood.random_weights(22);

        // One worker and a one-deep ready queue keep batch formation late;
        // a long first window lets both tenants pile up their backlogs
        // before any fairness decision is made.
        let mut server = Server::new(ServeConfig {
            max_batch: 4,
            queue_depth: 64,
            batch_window: Duration::from_millis(150),
            workers: 1,
            ready_depth: 1,
            ..ServeConfig::default()
        });
        server
            .register_model("ml", config(), &g_light, w_light)
            .unwrap();
        server
            .register_model("mf", config(), &g_flood, w_flood)
            .unwrap();
        server.set_tenant_weight("light", 4);
        server.set_tenant_weight("flood", 1);

        // The plug opens a window on model `mf`; the backlogs below are
        // queued while the former races through its first few flood-only
        // batches, after which both tenants contend on every round.
        let plug = server
            .submit("warm", "mf", Tensor4::random([1, 2, 4, 4], 30))
            .unwrap();
        let flood: Vec<Ticket> = (0..64)
            .map(|i| {
                server
                    .submit("flood", "mf", Tensor4::random([1, 2, 4, 4], 100 + i))
                    .unwrap()
            })
            .collect();
        let light: Vec<Ticket> = (0..32)
            .map(|i| {
                server
                    .submit("light", "ml", Tensor4::random([1, 2, 4, 4], 200 + i))
                    .unwrap()
            })
            .collect();

        // Despite submitting after 64 flooding requests, the weight-4
        // tenant's 32 requests finish while the flood is still deeply
        // backlogged: under sustained contention it earns 4 of every 5
        // batches, so the flood advances by roughly a quarter of light's
        // volume (plus the few batches it won before light's backlog
        // landed). Equal weights would leave the flood at ~43 of 64 here;
        // FIFO would drain it completely first.
        for ticket in light {
            ticket.wait().unwrap();
        }
        let mid = server.stats();
        assert_eq!(mid.tenants["light"].completed, 32);
        let flood_done = mid.tenants.get("flood").map_or(0, |t| t.completed);
        assert!(
            flood_done < 64,
            "flood must still be backlogged when light drains (saw {flood_done})"
        );
        assert!(
            flood_done <= 28,
            "weight-1 flood got {flood_done} of its requests through while the \
             weight-4 tenant's 32 drained — shares are not tracking weights"
        );

        // Drain: nobody is starved forever, nothing is lost.
        plug.wait().unwrap();
        for ticket in flood {
            ticket.wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 1 + 64 + 32);
        assert_eq!(stats.tenants["flood"].completed, 64);
        server.shutdown();
    }

    /// A deeper graph whose replay spans several scheduler timeslices, so
    /// two pool workers on one hardware thread still interleave mid-run.
    fn stout_graph(name: &str) -> Graph {
        let mut g = Graph::new(name, [1, 4, 8, 8]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 16, 4, 8, 8, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        let mid = g
            .conv(
                stem,
                ConvLayer::new(1, 16, 16, 8, 8, 3, 3)
                    .with_padding(1)
                    .with_name("mid"),
            )
            .unwrap();
        g.conv(mid, ConvLayer::new(1, 4, 16, 8, 8, 1, 1).with_name("head"))
            .unwrap();
        g
    }

    #[test]
    fn executor_pool_overlaps_batches_and_stays_exact() {
        let g_a = stout_graph("a");
        let g_b = stout_graph("b");
        let w_a = g_a.random_weights(31);
        let w_b = g_b.random_weights(32);
        let solo_a = GraphSession::auto(config(), &g_a).unwrap();
        let solo_b = GraphSession::auto(config(), &g_b).unwrap();
        let ia = Tensor4::random([1, 4, 8, 8], 1000);
        let ib = Tensor4::random([1, 4, 8, 8], 2000);
        let golden_a = solo_a.run(&ia, &w_a).unwrap().oacts;
        let golden_b = solo_b.run(&ib, &w_b).unwrap().oacts;

        let server = Server::new(ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            workers: 2,
            ready_depth: 2,
            ..ServeConfig::default()
        });
        server.register_model("a", config(), &g_a, w_a).unwrap();
        server.register_model("b", config(), &g_b, w_b).unwrap();

        // Round after round, launch one request per model simultaneously;
        // with two workers the pair executes overlapped. On a single
        // hardware thread overlap relies on preemption mid-run, so keep
        // trying until the watermark proves it (each run spans multiple
        // timeslices, making that overwhelmingly likely within a few
        // rounds).
        let mut overlapped = false;
        for round in 0..150 {
            let ta = server.submit("t", "a", ia.clone()).unwrap();
            let tb = server.submit("t", "b", ib.clone()).unwrap();
            let ra = ta.wait().unwrap();
            let rb = tb.wait().unwrap();
            assert_eq!(ra.oacts, golden_a, "round {round}: model a diverged");
            assert_eq!(rb.oacts, golden_b, "round {round}: model b diverged");
            if server.stats().max_concurrent_batches >= 2 {
                overlapped = true;
                break;
            }
        }
        let stats = server.stats();
        assert!(
            overlapped,
            "two workers never overlapped two batches (watermark {})",
            stats.max_concurrent_batches
        );
        assert!(stats.max_concurrent_batches <= 2, "watermark exceeds pool");
        // Overlap takes two distinct workers, so both must have executed.
        assert!(
            stats.worker_batches.len() >= 2,
            "work never spread across the pool: {:?}",
            stats.worker_batches
        );
    }

    #[test]
    fn program_compiles_once_under_contention() {
        let g = tiny_graph("m");
        let server = Server::new(ServeConfig::default());
        server
            .register_model("m", config(), &g, g.random_weights(1))
            .unwrap();
        let model = {
            let models = server.inner.models.read().unwrap();
            models.get("m").cloned().unwrap()
        };

        // Four threads race for the model's program from a cold cache.
        const THREADS: usize = 4;
        const CALLS: usize = 32;
        let programs: Vec<Arc<ProgramSession>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let model = model.clone();
                    scope.spawn(move || {
                        let mut program = model.program_for(None).unwrap();
                        for _ in 1..CALLS {
                            program = model.program_for(None).unwrap();
                        }
                        program
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let stats = model.program_cache_stats();
        // Exactly one compile, every other call a hit on that one program,
        // and no lost counter updates.
        assert_eq!(stats.misses, 1, "the model compiles exactly once");
        assert_eq!(stats.hits + stats.misses, (THREADS * CALLS) as u64);
        assert_eq!(stats.artifact_hits + stats.artifact_misses, stats.misses);
        assert!(programs.iter().all(|p| Arc::ptr_eq(p, &programs[0])));
    }

    #[test]
    fn expired_requests_resolve_as_timeouts() {
        let g = tiny_graph("m");
        let server = Server::new(ServeConfig {
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        });
        server
            .register_model("m", config(), &g, g.random_weights(1))
            .unwrap();
        let ticket = server
            .submit_with_deadline(
                "t",
                "m",
                Tensor4::random([1, 2, 4, 4], 2),
                Some(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::Timeout));
        let stats = server.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.tenants["t"].timed_out, 1);
    }

    #[test]
    fn from_env_clamps_and_defaults() {
        // Field-level sanity on the defaults the env overlay starts from.
        let cfg = ServeConfig::default();
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.queue_depth, 64);
        assert!(cfg.batch_window > Duration::ZERO);
        assert_eq!(cfg.default_deadline, None);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.ready_depth, 1);
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.retry_backoff > Duration::ZERO);
        assert_eq!(cfg.breaker_threshold, 8);
        assert!(cfg.breaker_cooldown > Duration::ZERO);
        assert_eq!(cfg.brownout_pct, 90);
        // Zero-valued knobs clamp to functioning minimums.
        let server = Server::new(ServeConfig {
            max_batch: 0,
            queue_depth: 0,
            workers: 0,
            ready_depth: 0,
            ..ServeConfig::default()
        });
        let cfg = server.config();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.queue_depth, 1);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.ready_depth, 1);
    }

    /// `submitted == completed + rejected + timed_out + cancelled + failed
    /// + shed` — every admitted request resolves exactly once.
    fn assert_conserved(stats: &ServerStats) {
        assert_eq!(
            stats.submitted,
            stats.accounted(),
            "conservation violated: {stats:?}"
        );
    }

    #[test]
    fn injected_replay_failure_retries_bit_identically() {
        let g = tiny_graph("m");
        let weights = g.random_weights(40);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 41);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // The first replay draw fails; the retry must return exactly what
        // the first attempt would have.
        let plan = FaultPlan::seeded(1).with_fail_first(FaultSite::ReplayEntry, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(response.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.worker_panics, 0);
        assert_conserved(&stats);
    }

    #[test]
    fn exhausted_retry_budget_fails_the_request() {
        let g = tiny_graph("m");
        // Every replay draw fails and the budget allows one retry: the
        // request must resolve as Failed after exactly two attempts.
        let plan = FaultPlan::seeded(2).with_fail(FaultSite::ReplayEntry, 1.0);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                max_retries: 1,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server
            .register_model("m", config(), &g, g.random_weights(42))
            .unwrap();
        let result = server
            .submit("t", "m", Tensor4::random([1, 2, 4, 4], 43))
            .unwrap()
            .wait();
        assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.completed, 0);
        assert_conserved(&stats);
    }

    #[test]
    fn replay_panic_is_supervised_and_the_worker_respawned() {
        let g = tiny_graph("m");
        let weights = g.random_weights(50);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 51);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // First replay draw panics: the lone worker dies mid-batch. The
        // batch must resolve (retried), a replacement worker must serve the
        // retry, and the server must keep working afterwards.
        let plan = FaultPlan::seeded(3).with_panic_first(FaultSite::ReplayEntry, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                workers: 1,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let response = server
            .submit("t", "m", iacts.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.oacts, golden);
        // Still serving after the panic.
        let again = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(again.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 0);
        assert_conserved(&stats);
    }

    #[test]
    fn pickup_panic_resolves_the_batch_before_unwinding() {
        let g = tiny_graph("m");
        let weights = g.random_weights(60);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 61);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // With no retry budget, the pickup panic fails its batch outright —
        // but must never strand the ticket, and the pool must recover.
        let plan = FaultPlan::seeded(4).with_panic_first(FaultSite::WorkerPickup, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                workers: 1,
                max_retries: 0,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let result = server.submit("t", "m", iacts.clone()).unwrap().wait();
        assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(response.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_conserved(&stats);
    }

    #[test]
    fn circuit_breaker_opens_fast_fails_and_recovers_via_probe() {
        let g = tiny_graph("m");
        let weights = g.random_weights(70);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 71);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // Exactly the first two batch executions fail; threshold 2 opens
        // the breaker. Serial submits keep each request in its own batch.
        let plan = FaultPlan::seeded(5).with_fail_first(FaultSite::ReplayEntry, 2);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                max_retries: 0,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(30),
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        for _ in 0..2 {
            let result = server.submit("t", "m", iacts.clone()).unwrap().wait();
            assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        }
        assert_eq!(server.breaker_open("m"), Some(true));
        let result = server.submit("t", "m", iacts.clone()).map(|t| t.id());
        assert!(
            matches!(result, Err(ServeError::Unavailable { .. })),
            "{result:?}"
        );
        // After the cooldown a probe is admitted; the injection budget is
        // spent, so it completes and closes the breaker.
        std::thread::sleep(Duration::from_millis(40));
        let probe = server
            .submit("t", "m", iacts.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(probe.oacts, golden);
        assert_eq!(server.breaker_open("m"), Some(false));
        let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(response.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.shed, 1, "the fast-fail while open counts as shed");
        assert!(stats.breaker_opens >= 1);
        assert_conserved(&stats);
    }

    #[test]
    fn brownout_sheds_infeasible_deadlines_under_overload() {
        let g = stout_graph("m");
        let weights = g.random_weights(80);
        let iacts = Tensor4::random([1, 4, 8, 8], 81);

        // Tiny per-tenant depth and a low threshold make overload easy to
        // reach; max_batch 1 keeps the backlog draining slowly.
        let mut server = Server::new(ServeConfig {
            max_batch: 1,
            queue_depth: 8,
            batch_window: Duration::ZERO,
            brownout_pct: 50,
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        // Establish the service-rate estimate with one completed batch.
        server
            .submit("t", "m", iacts.clone())
            .unwrap()
            .wait()
            .unwrap();

        // Flood past the occupancy threshold, then probe with deadlines no
        // backlog this deep can meet. The former recomputes the brownout
        // flag per formed batch, so allow a few probe rounds for it to
        // trip; a shed resolves at admission as Overloaded.
        let mut shed = false;
        let mut backlog = Vec::new();
        'outer: for _ in 0..50 {
            while backlog.len() < 8 {
                match server.submit("t", "m", iacts.clone()) {
                    Ok(t) => backlog.push(t),
                    Err(ServeError::QueueFull { .. }) => break,
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            for _ in 0..4 {
                match server.submit_with_deadline(
                    "probe",
                    "m",
                    iacts.clone(),
                    Some(Duration::from_micros(1)),
                ) {
                    Err(ServeError::Overloaded) => {
                        shed = true;
                        break 'outer;
                    }
                    // Not in brownout yet (or estimate still warming):
                    // the probe just times out in the queue.
                    Ok(ticket) => assert_eq!(ticket.wait(), Err(ServeError::Timeout)),
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            // Let the backlog drain a little before re-flooding.
            backlog.drain(..).for_each(|t| {
                t.wait().unwrap();
            });
        }
        assert!(shed, "overload never shed an infeasible deadline");
        backlog.drain(..).for_each(|t| {
            t.wait().unwrap();
        });
        server.shutdown();
        let stats = server.stats();
        assert!(stats.shed >= 1);
        assert!(stats.tenants["probe"].shed >= 1);
        assert_conserved(&stats);
    }
}
