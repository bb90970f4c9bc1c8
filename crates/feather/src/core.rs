//! The shared tile-loop core of the functional executor, optimized for
//! evaluations-per-second:
//!
//! * **Compiled BIRRD routes** — every distinct reduction-reorder request is
//!   routed once and lowered to a flat gather-sum program
//!   ([`feather_birrd::CompiledRoute`]); steady-state fires are pure index
//!   arithmetic over reusable scratch, with the programs shared across
//!   layers (and worker threads) through a [`RouteCache`].
//! * **Zero-alloc steady state** — weight staging, fire buses, reduction
//!   groups and BIRRD input/output vectors live in span-lifetime scratch;
//!   iAct/oAct addressing goes through precompiled per-dimension location
//!   tables ([`feather_arch::layout::LocationPlan4`]) and precomputed
//!   `h`/`w` coordinate tables instead of per-element coordinate maps.
//! * **Thread-parallel sharding** — the outer `(weight-tile, batch)` loop is
//!   sharded across `std::thread::scope` workers (the same no-registry
//!   pattern as `layoutloop::PlanParallelism`). Each worker simulates its
//!   shard on forked buffers ([`feather_memsim::FunctionalBuffer::fork`])
//!   writing disjoint output regions, with private statistics and counters
//!   merged at join; per-tile timing is reduced *after* the join from the
//!   summed fire counts, so the parallel run is bit-identical to the serial
//!   one — outputs, statistics and cycle counts alike.
//! * **One loop for every batch size** — data lives in lane-striped buffers
//!   (one sample per lane) and every op runs once across all lanes, with
//!   accounting that describes a single sample. The lane count is a const
//!   generic: `run_conv_core` picks a one-lane instantiation for the
//!   interpreter, the compile pass and single-sample replay, in which every
//!   per-lane loop folds away.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use feather_arch::layout::{Location, LocationPlan4};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use feather_arch::{ArchError, Dim};
use feather_birrd::{Birrd, CompiledRoute, ReductionRequest};
use feather_memsim::{FunctionalBuffer, LayoutView};
use feather_nest::{NestArray, NestTiming};

use crate::config::FeatherConfig;
use crate::mapping::LayerMapping;

/// Raw counters produced by one pass of the inner tile loop.
pub(crate) struct CoreRun {
    /// Compute cycles (tile timings + serialized BIRRD passes), excluding
    /// bank-conflict stalls — the caller charges those from the buffer stats.
    pub cycles: u64,
    /// Number of BIRRD passes (row fires that produced live outputs).
    pub birrd_passes: u64,
    /// Number of adder activations inside BIRRD.
    pub birrd_adds: u64,
    /// Useful MACs performed.
    pub macs: u64,
}

/// Hit/miss/eviction counters and the current size of a session's
/// compiled-route cache — what a long-running serving process watches to
/// size the cache.
///
/// The counters reflect *shared-map* traffic: steady-state lookups are
/// absorbed by the lock-free worker-local L1 maps (which live for one layer
/// span), so `hits + misses` counts L1 misses, and `misses` counts actual
/// route-and-compile work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups served by the shared compiled-route map.
    pub hits: u64,
    /// Lookups that had to route and compile a fresh program.
    pub misses: u64,
    /// Programs dropped to keep the shared map within its capacity.
    pub evictions: u64,
    /// Compiled programs currently resident in the shared map.
    pub entries: usize,
}

/// Default capacity of a [`RouteCache`]'s shared map. A whole scaled
/// ResNet-50 graph needs well under a hundred distinct reduce-reorder
/// programs, so this comfortably holds many models' working sets while
/// bounding a serving process that churns through arbitrary graphs.
const ROUTE_CACHE_CAPACITY: usize = 1024;

/// The bounded shared map behind a [`RouteCache`]: compiled programs keyed by
/// request, plus the insertion order that drives FIFO eviction.
#[derive(Debug, Default)]
struct RouteMap {
    routes: HashMap<ReductionRequest, Arc<CompiledRoute>>,
    order: VecDeque<ReductionRequest>,
}

/// A shared, thread-safe memo of compiled BIRRD route programs.
///
/// The controller replays the same handful of reduce-reorder patterns
/// millions of times per layer and routing is deterministic per request, so
/// one routed-and-compiled program per distinct request serves a whole
/// network run — and, because sessions keep their cache in an [`Arc`],
/// every subsequent run of the same session (and every segment of a graph
/// session) too. Workers keep a lock-free local map in front of this shared
/// map, so steady-state lookups never touch the lock.
///
/// The shared map is bounded: once `capacity` distinct programs are resident,
/// inserting a new one evicts the oldest (FIFO). Eviction only drops the
/// shared reference — workers holding the program in their L1 (or in-flight
/// `Arc`s) keep using it; a later lookup simply recompiles. Hit/miss/eviction
/// counters are exposed through [`RouteCache::stats`].
#[derive(Debug)]
pub(crate) struct RouteCache {
    shared: RwLock<RouteMap>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache::new()
    }
}

/// The worker-local L1 in front of a [`RouteCache`].
type LocalRoutes = HashMap<ReductionRequest, Arc<CompiledRoute>>;

impl RouteCache {
    pub(crate) fn new() -> Self {
        RouteCache::with_capacity(ROUTE_CACHE_CAPACITY)
    }

    /// A cache bounded to `capacity` resident programs (at least one).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        RouteCache {
            shared: RwLock::new(RouteMap::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A snapshot of the shared-map counters and occupancy.
    pub(crate) fn stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shared
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .routes
                .len(),
        }
    }

    /// Resolves a request to its compiled program: worker-local map, then the
    /// shared map, then route + compile (publishing the result to both). The
    /// request is borrowed so the caller can reuse one scratch request across
    /// fires; it is only cloned on the rare local-map miss.
    fn lookup(
        &self,
        birrd: &Birrd,
        request: &ReductionRequest,
        local: &mut LocalRoutes,
    ) -> Result<Arc<CompiledRoute>, ArchError> {
        if let Some(hit) = local.get(request) {
            return Ok(hit.clone());
        }
        let shared_hit = self
            .shared
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .routes
            .get(request)
            .cloned();
        let compiled = match shared_hit {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let config = birrd
                    .route(request)
                    .map_err(|e| ArchError::InvalidDataflow(e.to_string()))?;
                let compiled = Arc::new(
                    CompiledRoute::compile(birrd.topology(), &config)
                        .expect("routed configuration always matches the network shape"),
                );
                self.publish(request, compiled)
            }
        };
        local.insert(request.clone(), compiled.clone());
        Ok(compiled)
    }

    /// Installs a freshly-compiled program in the shared map, evicting the
    /// oldest resident program if the map is full. Another worker may have
    /// routed the same request concurrently; keep whichever program landed
    /// first (they are identical — routing is deterministic).
    fn publish(
        &self,
        request: &ReductionRequest,
        compiled: Arc<CompiledRoute>,
    ) -> Arc<CompiledRoute> {
        let mut shared = self.shared.write().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = shared.routes.get(request) {
            return existing.clone();
        }
        while shared.routes.len() >= self.capacity {
            let oldest = shared.order.pop_front().expect("map is non-empty");
            shared.routes.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shared.routes.insert(request.clone(), compiled.clone());
        shared.order.push_back(request.clone());
        compiled
    }
}

/// Records the exact sequence of compiled routes a serial layer pass
/// consumes, for ahead-of-time compilation ([`crate::program`]).
///
/// Routes are a pure function of layer geometry (the mapped-lane pattern and
/// the oAct layout's bank assignment), never of data, so one zero-input
/// collect pass captures the stream any future run will consume. The stream
/// is stored as indices into a deduplicated slot table — the replay path
/// borrows `&CompiledRoute` straight from the slot, with no hashing and no
/// `Arc` traffic.
#[derive(Debug, Default)]
pub(crate) struct RouteRecorder {
    slot_of: HashMap<ReductionRequest, u32>,
    slots: Vec<Arc<CompiledRoute>>,
    requests: Vec<ReductionRequest>,
    stream: Vec<u32>,
    block_starts: Vec<u32>,
}

impl RouteRecorder {
    pub(crate) fn new() -> Self {
        RouteRecorder::default()
    }

    /// Marks the start of work block `block` (one `(wt_m, wt_c, n)` triple).
    /// The serial collect pass visits blocks in order, so the start offsets
    /// land densely; sharded replay workers jump their cursor to
    /// `block_starts[block]` when they pick up a block mid-stream.
    fn enter_block(&mut self, block: usize) {
        debug_assert_eq!(
            block,
            self.block_starts.len(),
            "collect pass must visit blocks in order"
        );
        self.block_starts.push(self.stream.len() as u32);
    }

    fn record(&mut self, request: &ReductionRequest, route: &Arc<CompiledRoute>) {
        let slot = match self.slot_of.get(request) {
            Some(&slot) => slot,
            None => {
                let slot = self.slots.len() as u32;
                self.slot_of.insert(request.clone(), slot);
                self.slots.push(route.clone());
                self.requests.push(request.clone());
                slot
            }
        };
        self.stream.push(slot);
    }

    pub(crate) fn into_stream(self) -> RouteStream {
        RouteStream {
            slots: self.slots,
            requests: self.requests,
            stream: self.stream,
            block_starts: self.block_starts,
        }
    }
}

/// A frozen route consumption sequence for one layer: the deduplicated
/// compiled programs (`slots`), the originating requests (kept so a program
/// artifact can be serialized and the routes deterministically recompiled on
/// load), the per-fire slot indices in serial order, and the stream offset at
/// which each `(wt_m, wt_c, n)` work block begins.
#[derive(Debug, Clone)]
pub(crate) struct RouteStream {
    pub(crate) slots: Vec<Arc<CompiledRoute>>,
    pub(crate) requests: Vec<ReductionRequest>,
    pub(crate) stream: Vec<u32>,
    pub(crate) block_starts: Vec<u32>,
}

impl RouteStream {
    /// Rebuilds a stream from its serialized parts by re-routing every
    /// request (routing is deterministic, so the recompiled programs are
    /// identical to the recorded ones).
    pub(crate) fn recompile(
        birrd: &Birrd,
        requests: Vec<ReductionRequest>,
        stream: Vec<u32>,
        block_starts: Vec<u32>,
    ) -> Result<Self, ArchError> {
        let slots = requests
            .iter()
            .map(|request| {
                let config = birrd
                    .route(request)
                    .map_err(|e| ArchError::InvalidDataflow(e.to_string()))?;
                Ok(Arc::new(
                    CompiledRoute::compile(birrd.topology(), &config)
                        .expect("routed configuration always matches the network shape"),
                ))
            })
            .collect::<Result<Vec<_>, ArchError>>()?;
        for &slot in &stream {
            if slot as usize >= slots.len() {
                return Err(ArchError::InvalidDataflow(
                    "route stream references an out-of-range slot".into(),
                ));
            }
        }
        Ok(RouteStream {
            slots,
            requests,
            stream,
            block_starts,
        })
    }
}

/// How `run_conv_core` resolves reduce-reorder routes for a layer pass.
pub(crate) enum RouteExecution<'a> {
    /// Interpreted path: hash each request through the shared [`RouteCache`]
    /// (with a worker-local L1 in front).
    Cached(&'a RouteCache),
    /// Compile path: like `Cached`, but also record the serial consumption
    /// order into a [`RouteRecorder`]. Forces a single worker.
    Collect(&'a RouteCache, &'a mut RouteRecorder),
    /// Replay path: consume a prerecorded [`RouteStream`] cursor-style —
    /// no request building, no hashing, no `Arc` clones.
    Replay(&'a RouteStream),
}

/// The per-worker view of a [`RouteExecution`].
enum SpanRoutes<'a> {
    Cached {
        cache: &'a RouteCache,
        local: LocalRoutes,
    },
    Collect {
        cache: &'a RouteCache,
        local: LocalRoutes,
        recorder: &'a mut RouteRecorder,
    },
    Replay {
        stream: &'a RouteStream,
        pos: usize,
    },
}

/// The shareable (`Copy`) subset of [`RouteExecution`] handed to sharded
/// workers; `Collect` is excluded because recording is inherently serial.
#[derive(Clone, Copy)]
enum WorkerRoutes<'a> {
    Cached(&'a RouteCache),
    Replay(&'a RouteStream),
}

impl<'a> WorkerRoutes<'a> {
    fn span_routes(self) -> SpanRoutes<'a> {
        match self {
            WorkerRoutes::Cached(cache) => SpanRoutes::Cached {
                cache,
                local: LocalRoutes::new(),
            },
            WorkerRoutes::Replay(stream) => SpanRoutes::Replay { stream, pos: 0 },
        }
    }
}

/// Fills the reusable scratch `request` from the current fire batch: lane
/// spans of every batched group plus their destination banks.
fn fill_request(
    request: &mut ReductionRequest,
    batch: &[FireGroup],
    mapped: &[bool],
    c_cols: usize,
) {
    request.input_groups.fill(None);
    request.group_destinations.clear();
    for (gid, g) in batch.iter().enumerate() {
        let lane = g.q_lane * c_cols;
        let span = lane..lane + c_cols;
        for (live, slot) in mapped[span.clone()]
            .iter()
            .zip(&mut request.input_groups[span])
        {
            if *live {
                *slot = Some(gid);
            }
        }
        request.group_destinations.insert(gid, g.bank);
    }
}

/// Number of worker threads the executor uses when none is requested
/// explicitly: the `FEATHER_THREADS` environment variable if set to a
/// positive integer, otherwise the machine's available parallelism
/// (`FEATHER_THREADS=1` forces the serial path).
///
/// The variable is re-read on every call — a server that adjusts
/// `FEATHER_THREADS` between sessions (or a test that sets it after some
/// other test already ran a layer) sees the new value immediately instead of
/// a process-lifetime latch.
pub fn default_threads() -> usize {
    match std::env::var("FEATHER_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => available_threads(),
        },
        Err(_) => available_threads(),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Below this many (reference-kernel) MACs a layer is not worth forking
/// buffers and spawning workers for; auto-threading falls back to serial.
/// An explicit thread request always wins.
const AUTO_PARALLEL_MIN_MACS: u64 = 16_384;

/// Precompiles an iAct layout over a layer's `(N, C, H, W)` extents — the
/// single source of the iAct coordinate order used by the executor.
pub(crate) fn iact_plan(layout: &feather_arch::layout::Layout, layer: &ConvLayer) -> LocationPlan4 {
    layout.plan4([
        (Dim::N, layer.n),
        (Dim::C, layer.c),
        (Dim::H, layer.h),
        (Dim::W, layer.w),
    ])
}

/// Precompiles an oAct layout over a layer's `(N, M, P, Q)` extents — the
/// single source of the oAct coordinate order used by the executor.
pub(crate) fn oact_plan(layout: &feather_arch::layout::Layout, layer: &ConvLayer) -> LocationPlan4 {
    layout.plan4([
        (Dim::N, layer.n),
        (Dim::M, layer.m),
        (Dim::P, layer.output_height()),
        (Dim::Q, layer.output_width()),
    ])
}

/// Everything the tile loop needs that is immutable across the whole layer:
/// tiling factors, the precompiled address plans, the padded-coordinate
/// tables and the BIRRD instance. Shared by reference across workers.
///
/// The struct is *owned* (no borrows) so a compiled [`crate::program::Program`]
/// can build it once and replay it for the lifetime of a serving process; the
/// interpreted path simply constructs one per run.
#[derive(Debug, Clone)]
pub(crate) struct LayerExec {
    pub(crate) layer: ConvLayer,
    pub(crate) mapping: LayerMapping,
    rows: usize,
    cols: usize,
    m_rows: usize,
    c_cols: usize,
    q_cols: usize,
    m_tiles: usize,
    c_tiles: usize,
    q_tiles: usize,
    p_total: usize,
    q_total: usize,
    rs: usize,
    depthwise: bool,
    birrd: Birrd,
    /// `(N, C, H, W)` location plan for the iAct view.
    iact_plan: LocationPlan4,
    /// `(N, M, P, Q)` location plan for the oAct view.
    oact_plan: LocationPlan4,
    /// `h_table[p * R + r]` = input row for output row `p` at kernel row `r`
    /// (`None` inside the padding halo or past the input edge).
    h_table: Vec<Option<usize>>,
    /// `w_table[q * S + s]` = input column for output column `q` at kernel
    /// column `s`.
    w_table: Vec<Option<usize>>,
}

impl LayerExec {
    pub(crate) fn new(
        config: &FeatherConfig,
        layer: &ConvLayer,
        mapping: &LayerMapping,
    ) -> Result<Self, ArchError> {
        let rows = config.rows;
        let cols = config.cols;
        let p_total = layer.output_height();
        let q_total = layer.output_width();
        // Depthwise layers collapse the channel reduction: each output
        // channel consumes only its own input channel.
        let depthwise = layer.is_depthwise();
        let c_cols = if depthwise { 1 } else { mapping.c_cols };
        let q_cols = mapping.q_cols.min(cols / c_cols).max(1);
        let m_rows = mapping.m_rows;
        let m_tiles = layer.m.div_ceil(m_rows);
        let c_tiles = if depthwise {
            1
        } else {
            layer.c.div_ceil(c_cols)
        };
        let q_tiles = q_total.div_ceil(q_cols);
        let birrd = Birrd::new(cols).map_err(|e| ArchError::InvalidDataflow(e.to_string()))?;

        let iact_plan = iact_plan(&mapping.iact_layout, layer);
        let oact_plan = oact_plan(&mapping.oact_layout, layer);
        let in_bounds = |raw: usize, extent: usize| {
            (raw >= layer.padding && raw - layer.padding < extent).then(|| raw - layer.padding)
        };
        let h_table = (0..p_total * layer.r)
            .map(|i| in_bounds((i / layer.r) * layer.stride + i % layer.r, layer.h))
            .collect();
        let w_table = (0..q_total * layer.s)
            .map(|i| in_bounds((i / layer.s) * layer.stride + i % layer.s, layer.w))
            .collect();

        Ok(LayerExec {
            layer: layer.clone(),
            mapping: mapping.clone(),
            rows,
            cols,
            m_rows,
            c_cols,
            q_cols,
            m_tiles,
            c_tiles,
            q_tiles,
            p_total,
            q_total,
            rs: layer.r * layer.s,
            depthwise,
            birrd,
            iact_plan,
            oact_plan,
            h_table,
            w_table,
        })
    }

    /// Work units for sharding: one per `(weight tile, batch sample)` pair.
    fn units(&self) -> usize {
        self.m_tiles * self.layer.n
    }

    /// The layer's BIRRD instance (used to re-route recorded requests when
    /// loading a program artifact).
    pub(crate) fn birrd(&self) -> &Birrd {
        &self.birrd
    }

    /// Number of `(wt_m, wt_c, n)` work blocks a recorded route stream must
    /// cover — one entry per `RouteStream::block_starts` slot.
    pub(crate) fn block_count(&self) -> usize {
        self.m_tiles * self.c_tiles * self.layer.n
    }
}

/// One reduction group of a row fire: the column-lane span it gathers from,
/// the StaB bank its sum must reach, and the output cell it accumulates into.
#[derive(Clone, Copy)]
struct FireGroup {
    q_lane: usize,
    bank: usize,
    loc: Location,
}

/// Per-worker result: everything needed to reconstruct the serial counters.
struct SpanAccum {
    /// Row fires per `(wt_m, wt_c)` tile (index `wt_m * c_tiles + wt_c`);
    /// tile timing is derived from the *summed* counts after the join so the
    /// shard boundaries never show up in the cycle model.
    tile_fires: Vec<u64>,
    /// Serialization cycles charged for multi-batch BIRRD fires.
    extra_cycles: u64,
    birrd_passes: u64,
    birrd_adds: u64,
    macs: u64,
}

/// Lane-count parameter of the core's any-lane instantiation: the count is
/// read from the views' buffers at run time. Any other value pins the count
/// at compile time; the core instantiates `1` for the single-lane case.
const ANY_LANES: usize = 0;

/// The lane count a `L`-instantiated loop runs at: `L` itself, or the
/// view's own count for [`ANY_LANES`].
#[inline(always)]
fn lane_count<const L: usize>(view: &LayoutView<'_, i32>) -> usize {
    if L == ANY_LANES {
        view.lanes()
    } else {
        L
    }
}

/// The inner tile loop shared by the single-layer entry point, the
/// network-level pipeline executor, the compile pass and program replay:
/// weight-stationary tiling over `(M, C)`, Phase-1 local temporal reduction
/// in NEST, Phase-2 row fires through BIRRD with Reorder-in-Reduction into
/// the output view.
///
/// `iact` is the active StaB half (the layer's inputs, already staged in
/// `mapping.iact_layout`); `oact` is the shadow half the reduced outputs land
/// in, addressed by `mapping.oact_layout`. Both views carry the same number
/// of lanes ([`LayoutView::lanes`]), one batch sample per lane: the layer
/// runs once across all of them and every returned counter — like the
/// buffers' access statistics — describes a single sample, because the
/// schedule, the routes and the access pattern never depend on the data.
///
/// `routes` selects how reduce-reorder programs are resolved (cached lookup,
/// cached + record, or replay of a recorded stream).
/// `expose_first_weight_load` charges the cold weight load of the first
/// tile; a pipelined layer whose weights were prefetched during the previous
/// layer passes `false`. `threads` requests an exact worker count (`Some(1)`
/// forces serial); `None` auto-sizes from [`default_threads`] for layers
/// with enough work.
pub(crate) fn run_conv_core(
    ctx: &LayerExec,
    weights: &Tensor4<i8>,
    iact: &mut LayoutView<'_, i32>,
    oact: &mut LayoutView<'_, i32>,
    routes: RouteExecution<'_>,
    expose_first_weight_load: bool,
    threads: Option<usize>,
) -> Result<CoreRun, ArchError> {
    assert_eq!(
        iact.lanes(),
        oact.lanes(),
        "iAct and oAct views must carry the same lanes"
    );
    let workers = effective_workers(threads, &ctx.layer, ctx.units());
    // The one place the lane count picks an instantiation: the single lane
    // (interpreter, compile pass, one-sample replay) gets its own, in which
    // every per-lane loop folds to straight-line code.
    let spans = if iact.lanes() == 1 {
        run_worker_spans::<1>(ctx, weights, workers, iact, oact, routes)?
    } else {
        run_worker_spans::<ANY_LANES>(ctx, weights, workers, iact, oact, routes)?
    };

    // Reduce: sum the fire counts per tile across workers, then charge each
    // tile's timing once — exactly what the serial loop computes inline.
    let timing = NestTiming::new(ctx.rows, ctx.cols, ctx.birrd.latency_cycles());
    let mut run = CoreRun {
        cycles: 0,
        birrd_passes: 0,
        birrd_adds: 0,
        macs: 0,
    };
    let mut tile_fires = vec![0u64; ctx.m_tiles * ctx.c_tiles];
    for span in &spans {
        for (tile, fires) in span.tile_fires.iter().enumerate() {
            tile_fires[tile] += fires;
        }
        run.cycles += span.extra_cycles;
        run.birrd_passes += span.birrd_passes;
        run.birrd_adds += span.birrd_adds;
        run.macs += span.macs;
    }
    for (tile, &fires) in tile_fires.iter().enumerate() {
        let first_tile = tile == 0 && expose_first_weight_load;
        run.cycles += timing.tile(ctx.rs, fires, ctx.rs, first_tile).total();
    }
    Ok(run)
}

/// Resolves the worker count a layer pass actually shards across — the
/// single place the serial-vs-sharded decision is made:
///
/// * An explicit request (`Some(n)`) is honored but clamped to the number of
///   work units; `Some(1)` forces the serial path.
/// * The auto path (`None`) uses [`default_threads`] only for layers with
///   enough work ([`AUTO_PARALLEL_MIN_MACS`]); below that it stays serial.
///
/// Whenever this resolves to 1 — including an explicit `Some(8)` on a layer
/// with a single `(weight-tile, batch)` unit, or the auto path on a
/// single-thread host where [`default_threads`] is 1 — the dispatcher runs
/// the plain serial span and never pays fork/absorb overhead for workers
/// that cannot help.
pub(crate) fn effective_workers(
    threads: Option<usize>,
    layer: &ConvLayer,
    units_total: usize,
) -> usize {
    let requested = match threads {
        Some(n) => n.max(1),
        None if reference_macs(layer) >= AUTO_PARALLEL_MIN_MACS => default_threads(),
        None => 1,
    };
    requested.min(units_total)
}

/// MACs of the reference kernel for this layer — the work estimate behind the
/// auto-parallelism threshold.
fn reference_macs(layer: &ConvLayer) -> u64 {
    let c_red = if layer.is_depthwise() { 1 } else { layer.c };
    (layer.n * layer.m * layer.output_height() * layer.output_width()) as u64
        * (c_red * layer.r * layer.s) as u64
}

/// Dispatches the full unit range serially or sharded, per `workers`.
/// Recording a route stream is inherently serial, so `Collect` always runs
/// one span.
fn run_worker_spans<const L: usize>(
    ctx: &LayerExec,
    weights: &Tensor4<i8>,
    workers: usize,
    iact: &mut LayoutView<'_, i32>,
    oact: &mut LayoutView<'_, i32>,
    routes: RouteExecution<'_>,
) -> Result<Vec<SpanAccum>, ArchError> {
    let units_total = ctx.units();
    let shared = match routes {
        RouteExecution::Collect(cache, recorder) => {
            let mut span_routes = SpanRoutes::Collect {
                cache,
                local: LocalRoutes::new(),
                recorder,
            };
            return Ok(vec![run_span::<L>(
                ctx,
                weights,
                0..units_total,
                iact,
                oact,
                &mut span_routes,
            )?]);
        }
        RouteExecution::Cached(cache) => WorkerRoutes::Cached(cache),
        RouteExecution::Replay(stream) => WorkerRoutes::Replay(stream),
    };
    if workers <= 1 {
        return Ok(vec![run_span::<L>(
            ctx,
            weights,
            0..units_total,
            iact,
            oact,
            &mut shared.span_routes(),
        )?]);
    }
    run_sharded::<L>(ctx, weights, workers, iact, oact, shared)
}

/// Runs the span `0..units` split across `workers` scoped threads, each on
/// forked buffers, and absorbs data + statistics back into the real views.
/// The forks inherit the views' lane striping, so the absorb merges every
/// lane's data and one sample's statistics.
fn run_sharded<const L: usize>(
    ctx: &LayerExec,
    weights: &Tensor4<i8>,
    workers: usize,
    iact: &mut LayoutView<'_, i32>,
    oact: &mut LayoutView<'_, i32>,
    routes: WorkerRoutes<'_>,
) -> Result<Vec<SpanAccum>, ArchError> {
    let units_total = ctx.units();
    let chunk = units_total.div_ceil(workers);
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|w| (w * chunk)..((w + 1) * chunk).min(units_total))
        .filter(|r| !r.is_empty())
        .collect();
    let idims = ctx.layer.iact_dim_sizes();
    let odims = ctx.layer.oact_dim_sizes();
    // Pristine pre-fork copies: worker changes are diffed against these at
    // the join, so absorbing one worker can never revert another's writes.
    let ibase = iact.fork_buffer();
    let obase = oact.fork_buffer();

    type WorkerOut = Result<(SpanAccum, FunctionalBuffer<i32>, FunctionalBuffer<i32>), ArchError>;
    let outcomes: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|units| {
                let mut ibuf = ibase.fork();
                let mut obuf = obase.fork();
                let (idims, odims) = (&idims, &odims);
                scope.spawn(move || -> WorkerOut {
                    let accum = {
                        let mut iview = LayoutView::new(&mut ibuf, &ctx.mapping.iact_layout, idims);
                        let mut oview = LayoutView::new(&mut obuf, &ctx.mapping.oact_layout, odims);
                        run_span::<L>(
                            ctx,
                            weights,
                            units,
                            &mut iview,
                            &mut oview,
                            &mut routes.span_routes(),
                        )?
                    };
                    Ok((accum, ibuf, obuf))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked"))
            .collect()
    });

    let mut spans = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let (accum, ibuf, obuf) = outcome?;
        iact.absorb(&ibuf, &ibase);
        oact.absorb(&obuf, &obase);
        spans.push(accum);
    }
    Ok(spans)
}

/// Simulates the contiguous unit range `units` (units flatten the
/// `(wt_m, n)` loop, `n` innermost) across every lane of the views. This is
/// the whole hot loop; everything it allocates lives for the span.
///
/// Data moves in lane stripes: the fire bus and the BIRRD inputs and outputs
/// hold `cols * lanes` values column-major, plus a `cols`-wide presence mask
/// that every lane shares, and buffer traffic goes through the stripe
/// accessors, which account one sample's access.
fn run_span<const L: usize>(
    ctx: &LayerExec,
    weights: &Tensor4<i8>,
    units: Range<usize>,
    iact: &mut LayoutView<'_, i32>,
    oact: &mut LayoutView<'_, i32>,
    routes: &mut SpanRoutes<'_>,
) -> Result<SpanAccum, ArchError> {
    let cols = ctx.cols;
    let layer = &ctx.layer;
    let lanes = lane_count::<L>(iact);
    let mut nest = NestArray::with_lanes(ctx.rows, cols, lanes);
    let mut accum = SpanAccum {
        tile_fires: vec![0; ctx.m_tiles * ctx.c_tiles],
        extra_cycles: 0,
        birrd_passes: 0,
        birrd_adds: 0,
        macs: 0,
    };

    // Span-lifetime scratch: the steady state below is allocation-free (the
    // one exception is the reused lookup request's tiny destination map,
    // whose `BTreeMap` nodes reallocate per batch).
    let mut w_scratch = vec![0i8; ctx.rs];
    // Lane-mapping masks, one `cols`-wide row per `(qt, m_lane)` pair. The
    // mask depends only on the weight tile `(wt_m, wt_c)` and those two
    // indices — not on `(n, p)` — so it is rebuilt once per tile and merely
    // indexed inside the per-pixel hot loop.
    let mut mapped_table = vec![false; ctx.q_tiles * ctx.m_rows * cols];
    let mut bus: Vec<i32> = vec![0; cols * lanes];
    let mut inputs: Vec<i64> = vec![0; cols * lanes];
    let mut outputs: Vec<i64> = vec![0; cols * lanes];
    let mut in_present: Vec<bool> = vec![false; cols];
    let mut out_present: Vec<bool> = vec![false; cols];
    let mut lane_vals: Vec<i8> = vec![0; lanes];
    let mut groups: Vec<FireGroup> = Vec::with_capacity(ctx.q_cols);
    let mut batch: Vec<FireGroup> = Vec::with_capacity(ctx.q_cols);
    let mut pending: Vec<FireGroup> = Vec::with_capacity(ctx.q_cols);
    let mut bank_used = vec![false; cols];
    let mut request = ReductionRequest {
        input_groups: vec![None; cols],
        group_destinations: BTreeMap::new(),
    };

    let n_total = layer.n;
    let mut unit = units.start;
    while unit < units.end {
        let wt_m = unit / n_total;
        let n_range = (unit % n_total)..(units.end - wt_m * n_total).min(n_total);
        unit = wt_m * n_total + n_range.end;

        for wt_c in 0..ctx.c_tiles {
            stage_weights(ctx, weights, &mut nest, wt_m, wt_c, &mut w_scratch);
            let tile = wt_m * ctx.c_tiles + wt_c;
            for qt in 0..ctx.q_tiles {
                for m_lane in 0..ctx.m_rows {
                    let m = wt_m * ctx.m_rows + m_lane;
                    let row = &mut mapped_table[(qt * ctx.m_rows + m_lane) * cols..][..cols];
                    for (col, slot) in row.iter_mut().enumerate() {
                        let q_lane = col / ctx.c_cols;
                        let q = qt * ctx.q_cols + q_lane;
                        let c = if ctx.depthwise {
                            m
                        } else {
                            wt_c * ctx.c_cols + col % ctx.c_cols
                        };
                        *slot =
                            q_lane < ctx.q_cols && q < ctx.q_total && m < layer.m && c < layer.c;
                    }
                }
            }

            for n in n_range.clone() {
                // One `(wt_m, wt_c, n)` triple is a work block with a
                // data-independent route sub-sequence; recording marks its
                // start and replay jumps its cursor there, so sharded
                // replay workers stay in sync with the serial recording.
                match routes {
                    SpanRoutes::Cached { .. } => {}
                    SpanRoutes::Collect { recorder, .. } => {
                        recorder.enter_block(tile * n_total + n);
                    }
                    SpanRoutes::Replay { stream, pos } => {
                        *pos = stream.block_starts[tile * n_total + n] as usize;
                    }
                }
                for p in 0..ctx.p_total {
                    for qt in 0..ctx.q_tiles {
                        // ---- Phase 1: local temporal reduction ----
                        for rs_step in 0..ctx.rs {
                            let r_i = rs_step / layer.s;
                            let s_i = rs_step % layer.s;
                            let h = ctx.h_table[p * layer.r + r_i];
                            iact.begin_cycle();
                            if let Some(h) = h {
                                phase1_step::<L>(
                                    ctx,
                                    &mut nest,
                                    iact,
                                    &mut lane_vals,
                                    wt_m,
                                    wt_c,
                                    n,
                                    h,
                                    s_i,
                                    qt,
                                    rs_step,
                                );
                            }
                            iact.flush_cycle();
                        }

                        // ---- Phase 2: row fires through BIRRD (RIR) ----
                        for m_lane in 0..ctx.m_rows {
                            let m = wt_m * ctx.m_rows + m_lane;
                            let mapped = &mapped_table[(qt * ctx.m_rows + m_lane) * cols..][..cols];
                            nest.fire_row_stripe(m_lane, mapped, &mut bus);
                            accum.tile_fires[tile] += 1;
                            if m >= layer.m {
                                continue;
                            }

                            // Build the reduction groups: one per live
                            // q_lane, destination = the StaB bank the oAct
                            // lands in under the next layer's layout.
                            groups.clear();
                            for q_lane in 0..ctx.q_cols {
                                let q = qt * ctx.q_cols + q_lane;
                                if q >= ctx.q_total {
                                    continue;
                                }
                                let lane = q_lane * ctx.c_cols;
                                if !mapped[lane..lane + ctx.c_cols].iter().any(|&b| b) {
                                    continue;
                                }
                                let loc = ctx.oact_plan.location([n, m, p, q]);
                                groups.push(FireGroup {
                                    q_lane,
                                    bank: loc.offset % cols,
                                    loc,
                                });
                            }

                            // Split into batches with unique destination
                            // banks (a concordant mapping needs one batch).
                            while !groups.is_empty() {
                                batch.clear();
                                pending.clear();
                                bank_used.fill(false);
                                for g in groups.drain(..) {
                                    if !bank_used[g.bank] {
                                        bank_used[g.bank] = true;
                                        batch.push(g);
                                    } else {
                                        pending.push(g);
                                    }
                                }
                                std::mem::swap(&mut groups, &mut pending);

                                let owned_route;
                                let route: &CompiledRoute = match routes {
                                    SpanRoutes::Replay { stream, pos } => {
                                        // The hot path: a prerecorded slot
                                        // index — no request assembly, no
                                        // hashing, no shared-map traffic.
                                        let stream: &RouteStream = stream;
                                        let slot = stream.stream[*pos] as usize;
                                        *pos += 1;
                                        &stream.slots[slot]
                                    }
                                    SpanRoutes::Cached { cache, local } => {
                                        fill_request(&mut request, &batch, mapped, ctx.c_cols);
                                        owned_route = cache.lookup(&ctx.birrd, &request, local)?;
                                        &owned_route
                                    }
                                    SpanRoutes::Collect {
                                        cache,
                                        local,
                                        recorder,
                                    } => {
                                        fill_request(&mut request, &batch, mapped, ctx.c_cols);
                                        owned_route = cache.lookup(&ctx.birrd, &request, local)?;
                                        recorder.record(&request, &owned_route);
                                        &owned_route
                                    }
                                };

                                in_present.fill(false);
                                for g in &batch {
                                    let lane = g.q_lane * ctx.c_cols;
                                    for col in lane..lane + ctx.c_cols {
                                        if mapped[col] {
                                            in_present[col] = true;
                                            let stripe = col * lanes..(col + 1) * lanes;
                                            for (input, &value) in
                                                inputs[stripe.clone()].iter_mut().zip(&bus[stripe])
                                            {
                                                *input = value as i64;
                                            }
                                        }
                                    }
                                }
                                route
                                    .run_batched(
                                        &inputs,
                                        &in_present,
                                        lanes,
                                        &mut outputs,
                                        &mut out_present,
                                    )
                                    .expect("compiled route matches the network width");
                                accum.birrd_passes += 1;
                                accum.birrd_adds += route.adder_activations() as u64;

                                oact.begin_cycle();
                                for g in &batch {
                                    // In-situ accumulation in the output
                                    // buffer across channel tiles, all lanes
                                    // at once (one accounted write). An
                                    // absent BIRRD output's stripe is zero.
                                    let sums = &outputs[g.bank * lanes..(g.bank + 1) * lanes];
                                    for (cell, &sum) in
                                        oact.write_stripe_at(g.loc).iter_mut().zip(sums)
                                    {
                                        *cell = Some(cell.unwrap_or(0) + sum as i32);
                                    }
                                }
                                oact.flush_cycle();
                                if !groups.is_empty() {
                                    // An extra BIRRD pass serializes the fire.
                                    accum.extra_cycles += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    accum.macs = nest.total_macs();
    Ok(accum)
}

/// One Phase-1 `rs_step` of a `(n, p, qt)` pixel group: feed every mapped PE
/// its iAct stripe (one accounted read per cell, all lanes) and advance the
/// local temporal reduction. The input row `h` is already validated against
/// the padding halo.
#[allow(clippy::too_many_arguments)]
fn phase1_step<const L: usize>(
    ctx: &LayerExec,
    nest: &mut NestArray,
    iact: &mut LayoutView<'_, i32>,
    lane_vals: &mut [i8],
    wt_m: usize,
    wt_c: usize,
    n: usize,
    h: usize,
    s_i: usize,
    qt: usize,
    rs_step: usize,
) {
    let layer = &ctx.layer;
    let lane_vals = &mut lane_vals[..lane_count::<L>(iact)];
    let m_base = wt_m * ctx.m_rows;
    if m_base >= layer.m {
        return;
    }
    let m_lanes = ctx.m_rows.min(layer.m - m_base);
    for q_lane in 0..ctx.q_cols {
        let q = qt * ctx.q_cols + q_lane;
        if q >= ctx.q_total {
            continue;
        }
        let Some(w) = ctx.w_table[q * layer.s + s_i] else {
            continue;
        };
        for c_lane in 0..ctx.c_cols {
            let col = q_lane * ctx.c_cols + c_lane;
            if ctx.depthwise {
                // Each output channel reads its own input channel.
                for m_lane in 0..m_lanes {
                    let c = m_base + m_lane;
                    if c >= layer.c {
                        continue;
                    }
                    read_iacts(iact, ctx.iact_plan.location([n, c, h, w]), lane_vals);
                    nest.mac_stripe(m_lane..m_lane + 1, col, lane_vals, rs_step);
                }
            } else {
                // The same iAct is shared by every row: one accounted read,
                // broadcast to all mapped rows.
                let c = wt_c * ctx.c_cols + c_lane;
                if c >= layer.c {
                    continue;
                }
                read_iacts(iact, ctx.iact_plan.location([n, c, h, w]), lane_vals);
                nest.mac_stripe(0..m_lanes, col, lane_vals, rs_step);
            }
        }
    }
}

/// Reads one iAct cell's lane stripe (one accounted read) into `vals`;
/// never-written cells read as zero.
#[inline(always)]
fn read_iacts(iact: &mut LayoutView<'_, i32>, loc: Location, vals: &mut [i8]) {
    for (value, cell) in vals.iter_mut().zip(iact.read_stripe_at(loc)) {
        *value = cell.unwrap_or(0) as i8;
    }
}

/// Stages one `(wt_m, wt_c)` weight tile into the NEST shadow registers and
/// swaps it in. Fully out-of-range `(m, c)` lanes are skipped outright: they
/// neither MAC nor drive the bus, so their stale registers are never read —
/// no need to stage zero vectors for ragged tail tiles.
fn stage_weights(
    ctx: &LayerExec,
    weights: &Tensor4<i8>,
    nest: &mut NestArray,
    wt_m: usize,
    wt_c: usize,
    w_scratch: &mut [i8],
) {
    let layer = &ctx.layer;
    for m_lane in 0..ctx.m_rows {
        let m = wt_m * ctx.m_rows + m_lane;
        for q_lane in 0..ctx.q_cols {
            for c_lane in 0..ctx.c_cols {
                let c = if ctx.depthwise {
                    m
                } else {
                    wt_c * ctx.c_cols + c_lane
                };
                if m >= layer.m || c >= layer.c {
                    continue;
                }
                for r in 0..layer.r {
                    for s in 0..layer.s {
                        w_scratch[r * layer.s + s] = if ctx.depthwise {
                            weights.get(c, 0, r, s)
                        } else {
                            weights.get(m, c, r, s)
                        };
                    }
                }
                nest.load_weights(m_lane, q_lane * ctx.c_cols + c_lane, w_scratch);
            }
        }
    }
    nest.swap_all_weights();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that mutate `FEATHER_THREADS` (process-global
    /// environment).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn default_threads_rereads_the_environment() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("FEATHER_THREADS", "3");
        assert_eq!(default_threads(), 3);
        // Not latched: a later change is visible immediately.
        std::env::set_var("FEATHER_THREADS", "1");
        assert_eq!(default_threads(), 1);
        std::env::set_var("FEATHER_THREADS", "not a number");
        assert_eq!(default_threads(), available_threads());
        std::env::remove_var("FEATHER_THREADS");
        assert_eq!(default_threads(), available_threads());
    }

    #[test]
    fn effective_workers_falls_back_to_serial() {
        let _guard = ENV_LOCK.lock().unwrap();
        // Big enough to clear AUTO_PARALLEL_MIN_MACS; tiny layers stay serial.
        let big = ConvLayer::new(2, 16, 16, 14, 14, 3, 3).with_padding(1);
        let small = ConvLayer::new(1, 2, 2, 4, 4, 1, 1);
        assert!(reference_macs(&big) >= AUTO_PARALLEL_MIN_MACS);
        assert!(reference_macs(&small) < AUTO_PARALLEL_MIN_MACS);

        // Explicit requests clamp to the unit count: asking for 8 workers on
        // one work unit resolves to the serial path, not a 1-worker shard.
        assert_eq!(effective_workers(Some(8), &big, 1), 1);
        assert_eq!(effective_workers(Some(8), &big, 3), 3);
        assert_eq!(effective_workers(Some(1), &big, 64), 1);
        assert_eq!(effective_workers(Some(0), &big, 64), 1);

        // Auto path: a single-thread host (FEATHER_THREADS=1) resolves to
        // serial regardless of how much work the layer has...
        std::env::set_var("FEATHER_THREADS", "1");
        assert_eq!(effective_workers(None, &big, 64), 1);
        // ...a parallel host shards big layers but never small ones.
        std::env::set_var("FEATHER_THREADS", "4");
        assert_eq!(effective_workers(None, &big, 64), 4);
        assert_eq!(effective_workers(None, &small, 64), 1);
        std::env::remove_var("FEATHER_THREADS");
    }

    /// A one-group request reducing lanes `0..lanes` into `bank`.
    fn request(cols: usize, lanes: usize, bank: usize) -> ReductionRequest {
        let mut input_groups = vec![None; cols];
        for slot in input_groups.iter_mut().take(lanes) {
            *slot = Some(0);
        }
        let mut group_destinations = BTreeMap::new();
        group_destinations.insert(0, bank);
        ReductionRequest {
            input_groups,
            group_destinations,
        }
    }

    #[test]
    fn route_cache_counts_hits_and_misses() {
        let cache = RouteCache::new();
        let birrd = Birrd::new(4).unwrap();
        let mut local = LocalRoutes::new();
        let req = request(4, 2, 1);
        cache.lookup(&birrd, &req, &mut local).unwrap();
        // A fresh worker (empty L1) hits the shared map.
        let mut other = LocalRoutes::new();
        cache.lookup(&birrd, &req, &mut other).unwrap();
        // The warm worker's L1 absorbs the lookup without touching counters.
        cache.lookup(&birrd, &req, &mut local).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn route_cache_evicts_oldest_beyond_capacity() {
        let cache = RouteCache::with_capacity(2);
        let birrd = Birrd::new(4).unwrap();
        // Distinct requests (different destination banks); a fresh L1 per
        // lookup forces every resolution through the shared map.
        for bank in 0..4 {
            let mut local = LocalRoutes::new();
            cache
                .lookup(&birrd, &request(4, 2, bank), &mut local)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
        // The oldest two were evicted; re-resolving one recompiles (a miss),
        // while the newest two still hit.
        let mut local = LocalRoutes::new();
        cache.lookup(&birrd, &request(4, 2, 0), &mut local).unwrap();
        let mut local = LocalRoutes::new();
        cache.lookup(&birrd, &request(4, 2, 3), &mut local).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn evicted_routes_remain_usable_through_live_references() {
        let cache = RouteCache::with_capacity(1);
        let birrd = Birrd::new(4).unwrap();
        let mut local = LocalRoutes::new();
        let first = cache.lookup(&birrd, &request(4, 2, 0), &mut local).unwrap();
        // Evict it from the shared map…
        let mut other = LocalRoutes::new();
        cache.lookup(&birrd, &request(4, 2, 1), &mut other).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // …the held Arc (and the warm L1 copy) still run fine.
        let mut inputs = vec![None; 4];
        inputs[0] = Some(5i64);
        inputs[1] = Some(7);
        let mut outputs = vec![None; 4];
        first.run(&inputs, &mut outputs).unwrap();
        assert_eq!(outputs[0], Some(12), "reduction of lanes 0..2 into bank 0");
        let again = cache.lookup(&birrd, &request(4, 2, 0), &mut local).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "L1 copy survives eviction");
    }
}
