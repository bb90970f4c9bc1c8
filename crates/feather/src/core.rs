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
//!   interpreter and single-sample replay, in which every per-lane loop
//!   folds away. Lowering ([`lower_routes`]) runs no core: it walks the
//!   fire schedule alone.

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

    /// Resolves a request to its compiled program: worker-local map, then
    /// [`RouteCache::resolve`] (publishing the result to both). The request is
    /// borrowed so the caller can reuse one scratch request across fires; it
    /// is only cloned on the rare local-map miss.
    fn lookup(
        &self,
        birrd: &Birrd,
        request: &ReductionRequest,
        local: &mut LocalRoutes,
    ) -> Result<Arc<CompiledRoute>, ArchError> {
        if let Some(hit) = local.get(request) {
            return Ok(hit.clone());
        }
        let compiled = self.resolve(birrd, request)?;
        local.insert(request.clone(), compiled.clone());
        Ok(compiled)
    }

    /// Resolves a request through the shared map, routing and compiling it
    /// (and publishing the program) on a miss.
    fn resolve(
        &self,
        birrd: &Birrd,
        request: &ReductionRequest,
    ) -> Result<Arc<CompiledRoute>, ArchError> {
        let shared_hit = self
            .shared
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .routes
            .get(request)
            .cloned();
        Ok(match shared_hit {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let compiled = Arc::new(route_and_compile(birrd, request)?);
                self.publish(request, compiled)
            }
        })
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

/// The exact, compact identity of one BIRRD pass: for each group of the
/// pass, in order, its `q_lane`, its destination bank and the mapped-lane
/// bits of its `c_cols`-wide column span (`c_cols.div_ceil(32)` words). Every
/// group maps at least one lane, so a key and the pass's [`ReductionRequest`]
/// determine each other one-to-one, for any `c_cols` — the key is what the
/// lowering memoizes routes under, at a fraction of the request's size.
type RouteKey = Box<[u32]>;

/// Words one group occupies in a [`RouteKey`].
fn key_stride(c_cols: usize) -> usize {
    2 + c_cols.div_ceil(32)
}

/// Writes the [`RouteKey`] of the pass `batch` into the reusable `key`.
fn encode_key(key: &mut Vec<u32>, batch: &[FireGroup], mapped: &[bool], c_cols: usize) {
    key.clear();
    for g in batch {
        key.push(g.q_lane as u32);
        key.push(g.bank as u32);
        push_lane_bits(key, &mapped[g.q_lane * c_cols..][..c_cols]);
    }
}

/// Appends a span's mapped-lane flags as 32-bit words, lane `i` at bit
/// `i % 32` of word `i / 32`.
fn push_lane_bits(key: &mut Vec<u32>, span: &[bool]) {
    for word in span.chunks(32) {
        key.push(
            word.iter()
                .enumerate()
                .fold(0, |bits, (i, &live)| bits | (u32::from(live) << i)),
        );
    }
}

/// An empty request over a `cols`-wide array.
fn blank_request(cols: usize) -> ReductionRequest {
    ReductionRequest {
        input_groups: vec![None; cols],
        group_destinations: BTreeMap::new(),
    }
}

/// Overwrites `request` (a [`blank_request`] of the array width) with the
/// request a [`RouteKey`] stands for: group `gid` gathers the mapped lanes of
/// its span and reduces into its bank.
fn expand_key(request: &mut ReductionRequest, key: &[u32], c_cols: usize) {
    request.input_groups.fill(None);
    request.group_destinations.clear();
    for (gid, group) in key.chunks(key_stride(c_cols)).enumerate() {
        let lane = group[0] as usize * c_cols;
        for c in 0..c_cols {
            if (group[2 + c / 32] >> (c % 32)) & 1 == 1 {
                request.input_groups[lane + c] = Some(gid);
            }
        }
        request.group_destinations.insert(gid, group[1] as usize);
    }
}

/// A frozen route consumption sequence for one layer: the deduplicated
/// compiled programs (`slots`), the per-fire slot indices in serial order,
/// and the stream offset at which each `(wt_m, wt_c, n)` work block begins.
/// The replay path borrows `&CompiledRoute` straight from the slot, with no
/// hashing and no `Arc` traffic.
#[derive(Debug, Clone)]
pub(crate) struct RouteStream {
    pub(crate) slots: Vec<Arc<CompiledRoute>>,
    pub(crate) stream: Vec<u32>,
    pub(crate) block_starts: Vec<u32>,
}

impl RouteStream {
    /// FNV-1a 64 over the `Debug` text of the compiled slots, the per-fire
    /// slot stream and the block table: one number that changes whenever
    /// any route, its order of use or a block offset does.
    pub(crate) fn digest(&self) -> u64 {
        let text = format!(
            "{:?}\n{:?}\n{:?}",
            self.slots, self.stream, self.block_starts
        );
        crate::program::fnv1a64(text.as_bytes())
    }
}

/// Routes a request and lowers the configuration to a compiled program.
fn route_and_compile(
    birrd: &Birrd,
    request: &ReductionRequest,
) -> Result<CompiledRoute, ArchError> {
    let config = birrd
        .route(request)
        .map_err(|e| ArchError::InvalidDataflow(e.to_string()))?;
    Ok(CompiledRoute::compile(birrd.topology(), &config)
        .expect("routed configuration always matches the network shape"))
}

/// Lowers one layer's [`RouteStream`] without executing it: walks the serial
/// fire schedule — `(wt_m, wt_c, n)` blocks, then `p`, `qt`, `m_lane`, then
/// each row fire's bank-unique passes — with no MACs, no buffers and no
/// weights. Routes are a pure function of layer geometry (the mapped-lane
/// pattern and the oAct layout's bank assignment), never of data, so this is
/// exactly the stream any run consumes. Each pass is memoized under its
/// exact [`RouteKey`]; a request is built, and resolved through `cache`,
/// only the first time a key appears.
pub(crate) fn lower_routes(ctx: &LayerExec, cache: &RouteCache) -> Result<RouteStream, ArchError> {
    let mut mapped_table = vec![false; ctx.q_tiles * ctx.m_rows * ctx.cols];
    let mut passes = FirePasses::new(ctx);
    let mut slot_of: HashMap<RouteKey, u32> = HashMap::new();
    let mut slots: Vec<Arc<CompiledRoute>> = Vec::new();
    let mut stream: Vec<u32> = Vec::new();
    let mut block_starts: Vec<u32> = Vec::with_capacity(ctx.block_count());
    let mut key: Vec<u32> = Vec::new();
    let mut request = blank_request(ctx.cols);
    let m_total = ctx.layer.m;
    for wt_m in 0..ctx.m_tiles {
        // Rows past the last output channel fire no live outputs.
        let m_lanes = ctx.m_rows.min(m_total - wt_m * ctx.m_rows);
        for wt_c in 0..ctx.c_tiles {
            map_tile_lanes(ctx, wt_m, wt_c, &mut mapped_table);
            for n in 0..ctx.layer.n {
                block_starts.push(stream.len() as u32);
                for p in 0..ctx.p_total {
                    for qt in 0..ctx.q_tiles {
                        for m_lane in 0..m_lanes {
                            let m = wt_m * ctx.m_rows + m_lane;
                            let mapped = tile_lanes(ctx, &mapped_table, qt, m_lane);
                            passes.for_each(ctx, mapped, [n, m, p, qt], |batch, _| {
                                encode_key(&mut key, batch, mapped, ctx.c_cols);
                                let slot = match slot_of.get(&key[..]) {
                                    Some(&slot) => slot,
                                    None => {
                                        expand_key(&mut request, &key, ctx.c_cols);
                                        slots.push(cache.resolve(&ctx.birrd, &request)?);
                                        let slot = slots.len() as u32 - 1;
                                        slot_of.insert(key.as_slice().into(), slot);
                                        slot
                                    }
                                };
                                stream.push(slot);
                                Ok(())
                            })?;
                        }
                    }
                }
            }
        }
    }
    Ok(RouteStream {
        slots,
        stream,
        block_starts,
    })
}

/// How `run_conv_core` resolves reduce-reorder routes for a layer pass.
#[derive(Clone, Copy)]
pub(crate) enum RouteExecution<'a> {
    /// Interpreted path: hash each request through the shared [`RouteCache`]
    /// (with a worker-local L1 in front).
    Cached(&'a RouteCache),
    /// Replay path: consume a prerecorded [`RouteStream`] cursor-style —
    /// no request building, no hashing, no `Arc` clones.
    Replay(&'a RouteStream),
}

impl<'a> RouteExecution<'a> {
    /// A worker's private resolution state.
    fn span_routes(self) -> SpanRoutes<'a> {
        match self {
            RouteExecution::Cached(cache) => SpanRoutes::Cached {
                cache,
                local: LocalRoutes::new(),
            },
            RouteExecution::Replay(stream) => SpanRoutes::Replay { stream, pos: 0 },
        }
    }
}

/// The per-worker view of a [`RouteExecution`].
enum SpanRoutes<'a> {
    Cached {
        cache: &'a RouteCache,
        local: LocalRoutes,
    },
    Replay {
        stream: &'a RouteStream,
        pos: usize,
    },
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

    /// Number of `(wt_m, wt_c, n)` work blocks a recorded route stream must
    /// cover — one entry per `RouteStream::block_starts` slot.
    pub(crate) fn block_count(&self) -> usize {
        self.m_tiles * self.c_tiles * self.layer.n
    }

    /// The `(N, C, H, W)` location plan of the layer's iAct view.
    pub(crate) fn iact_plan(&self) -> &LocationPlan4 {
        &self.iact_plan
    }

    /// The `(N, M, P, Q)` location plan of the layer's oAct view.
    pub(crate) fn oact_plan(&self) -> &LocationPlan4 {
        &self.oact_plan
    }
}

/// Fills the lane-mapping masks of weight tile `(wt_m, wt_c)`: one
/// `cols`-wide row per `(qt, m_lane)` pair, `true` where the column's PE
/// holds a live `(m, c)` weight for an in-range output column. The masks
/// depend only on the tile and those two indices — not on `(n, p)` — so the
/// schedule rebuilds them once per tile and merely indexes them per pixel.
fn map_tile_lanes(ctx: &LayerExec, wt_m: usize, wt_c: usize, table: &mut [bool]) {
    let layer = &ctx.layer;
    for qt in 0..ctx.q_tiles {
        for m_lane in 0..ctx.m_rows {
            let m = wt_m * ctx.m_rows + m_lane;
            let row = &mut table[(qt * ctx.m_rows + m_lane) * ctx.cols..][..ctx.cols];
            for (col, slot) in row.iter_mut().enumerate() {
                let q_lane = col / ctx.c_cols;
                let q = qt * ctx.q_cols + q_lane;
                let c = if ctx.depthwise {
                    m
                } else {
                    wt_c * ctx.c_cols + col % ctx.c_cols
                };
                *slot = q_lane < ctx.q_cols && q < ctx.q_total && m < layer.m && c < layer.c;
            }
        }
    }
}

/// The `(qt, m_lane)` row of a [`map_tile_lanes`] table.
#[inline(always)]
fn tile_lanes<'t>(ctx: &LayerExec, table: &'t [bool], qt: usize, m_lane: usize) -> &'t [bool] {
    &table[(qt * ctx.m_rows + m_lane) * ctx.cols..][..ctx.cols]
}

/// One reduction group of a row fire: the column-lane span it gathers from,
/// the StaB bank its sum must reach, and the output cell it accumulates into.
#[derive(Clone, Copy)]
struct FireGroup {
    q_lane: usize,
    bank: usize,
    loc: Location,
}

/// Reusable scratch for splitting a row fire into BIRRD passes.
struct FirePasses {
    groups: Vec<FireGroup>,
    batch: Vec<FireGroup>,
    pending: Vec<FireGroup>,
    bank_used: Vec<bool>,
}

impl FirePasses {
    fn new(ctx: &LayerExec) -> Self {
        FirePasses {
            groups: Vec::with_capacity(ctx.q_cols),
            batch: Vec::with_capacity(ctx.q_cols),
            pending: Vec::with_capacity(ctx.q_cols),
            bank_used: vec![false; ctx.cols],
        }
    }

    /// The one definition of a row fire's schedule, shared by execution
    /// and lowering. Builds the reduction groups of output row `m` at
    /// `(n, p, qt)` — one per live `q_lane`, destined for the StaB bank its
    /// oAct lands in under the next layer's layout — and splits them into
    /// passes with unique destination banks (a concordant mapping needs
    /// one). Calls `pass(groups, serialized)` once per pass, in order;
    /// `serialized` is true when another pass follows.
    #[inline(always)]
    fn for_each(
        &mut self,
        ctx: &LayerExec,
        mapped: &[bool],
        [n, m, p, qt]: [usize; 4],
        mut pass: impl FnMut(&[FireGroup], bool) -> Result<(), ArchError>,
    ) -> Result<(), ArchError> {
        self.groups.clear();
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
            self.groups.push(FireGroup {
                q_lane,
                bank: loc.offset % ctx.cols,
                loc,
            });
        }
        while !self.groups.is_empty() {
            self.batch.clear();
            self.pending.clear();
            self.bank_used.fill(false);
            for g in self.groups.drain(..) {
                if !self.bank_used[g.bank] {
                    self.bank_used[g.bank] = true;
                    self.batch.push(g);
                } else {
                    self.pending.push(g);
                }
            }
            std::mem::swap(&mut self.groups, &mut self.pending);
            pass(&self.batch, !self.groups.is_empty())?;
        }
        Ok(())
    }
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

/// The inner tile loop shared by the interpreter (`NetworkSession`'s
/// pipeline executor, which also runs `Feather`'s one-layer calls and
/// `GraphSession::run_interpreted`) and program replay: weight-stationary
/// tiling over `(M, C)`, Phase-1 local temporal reduction in NEST, Phase-2
/// row fires through BIRRD with Reorder-in-Reduction into the output view.
/// Lowering never runs it.
///
/// `iact` is the active StaB half (the layer's inputs, already staged in
/// `mapping.iact_layout`); `oact` is the shadow half the reduced outputs land
/// in, addressed by `mapping.oact_layout`. Both views carry the same number
/// of lanes ([`LayoutView::lanes`]), one batch sample per lane: the layer
/// runs once across all of them and every returned counter — like the
/// buffers' access statistics — describes a single sample, because the
/// schedule, the routes and the access pattern never depend on the data.
///
/// `routes` selects how reduce-reorder programs are resolved (cached lookup
/// or replay of a recorded stream).
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
    // (interpreter, one-sample replay) gets its own, in which
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
fn run_worker_spans<const L: usize>(
    ctx: &LayerExec,
    weights: &Tensor4<i8>,
    workers: usize,
    iact: &mut LayoutView<'_, i32>,
    oact: &mut LayoutView<'_, i32>,
    routes: RouteExecution<'_>,
) -> Result<Vec<SpanAccum>, ArchError> {
    if workers <= 1 {
        return Ok(vec![run_span::<L>(
            ctx,
            weights,
            0..ctx.units(),
            iact,
            oact,
            &mut routes.span_routes(),
        )?]);
    }
    run_sharded::<L>(ctx, weights, workers, iact, oact, routes)
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
    routes: RouteExecution<'_>,
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
    let mut mapped_table = vec![false; ctx.q_tiles * ctx.m_rows * cols];
    let mut bus: Vec<i32> = vec![0; cols * lanes];
    let mut inputs: Vec<i64> = vec![0; cols * lanes];
    let mut outputs: Vec<i64> = vec![0; cols * lanes];
    let mut in_present: Vec<bool> = vec![false; cols];
    let mut lane_vals: Vec<i8> = vec![0; lanes];
    let mut passes = FirePasses::new(ctx);
    let mut key: Vec<u32> = Vec::new();
    let mut request = blank_request(cols);

    let n_total = layer.n;
    let mut unit = units.start;
    while unit < units.end {
        let wt_m = unit / n_total;
        let n_range = (unit % n_total)..(units.end - wt_m * n_total).min(n_total);
        unit = wt_m * n_total + n_range.end;

        for wt_c in 0..ctx.c_tiles {
            stage_weights(ctx, weights, &mut nest, wt_m, wt_c, &mut w_scratch);
            let tile = wt_m * ctx.c_tiles + wt_c;
            map_tile_lanes(ctx, wt_m, wt_c, &mut mapped_table);

            for n in n_range.clone() {
                // One `(wt_m, wt_c, n)` triple is a work block with a
                // data-independent route sub-sequence; the lowering marks
                // its start and replay jumps its cursor there, so sharded
                // replay workers stay in sync with the serial lowering.
                if let SpanRoutes::Replay { stream, pos } = routes {
                    *pos = stream.block_starts[tile * n_total + n] as usize;
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
                            let mapped = tile_lanes(ctx, &mapped_table, qt, m_lane);
                            nest.fire_row_stripe(m_lane, mapped, &mut bus);
                            accum.tile_fires[tile] += 1;
                            if m >= layer.m {
                                continue;
                            }

                            passes.for_each(ctx, mapped, [n, m, p, qt], |batch, serialized| {
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
                                        encode_key(&mut key, batch, mapped, ctx.c_cols);
                                        expand_key(&mut request, &key, ctx.c_cols);
                                        owned_route = cache.lookup(&ctx.birrd, &request, local)?;
                                        &owned_route
                                    }
                                };

                                in_present.fill(false);
                                for g in batch {
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
                                    .run_batched(&inputs, &in_present, lanes, &mut outputs)
                                    .expect("compiled route matches the network width");
                                accum.birrd_passes += 1;
                                accum.birrd_adds += route.adder_activations() as u64;

                                oact.begin_cycle();
                                for g in batch {
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
                                if serialized {
                                    // An extra BIRRD pass serializes the fire.
                                    accum.extra_cycles += 1;
                                }
                                Ok(())
                            })?;
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

    /// A pass's compact key expands back to exactly its request, including
    /// spans wider than one 32-bit key word.
    #[test]
    fn route_keys_round_trip_requests_for_any_span_width() {
        for (cols, c_cols) in [(8usize, 1usize), (16, 4), (128, 40)] {
            let q_cols = cols / c_cols;
            // Every other lane live, offset per span, so no two spans agree.
            let mapped: Vec<bool> = (0..cols).map(|col| (col + col / c_cols) % 2 == 0).collect();
            let batch: Vec<FireGroup> = (0..q_cols)
                .rev()
                .map(|q_lane| FireGroup {
                    q_lane,
                    bank: (q_lane * 3) % cols,
                    loc: Location { line: 0, offset: 0 },
                })
                .collect();
            let mut key = Vec::new();
            encode_key(&mut key, &batch, &mapped, c_cols);
            assert_eq!(key.len(), q_cols * key_stride(c_cols));
            // Group `gid` gathers the mapped lanes of its own span.
            let mut request = blank_request(cols);
            for (gid, g) in batch.iter().enumerate() {
                let span = g.q_lane * c_cols..(g.q_lane + 1) * c_cols;
                for (slot, &live) in request.input_groups[span.clone()]
                    .iter_mut()
                    .zip(&mapped[span])
                {
                    if live {
                        *slot = Some(gid);
                    }
                }
                request.group_destinations.insert(gid, g.bank);
            }
            let mut expanded = blank_request(cols);
            expand_key(&mut expanded, &key, c_cols);
            assert_eq!(expanded, request, "{cols}/{c_cols}");
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
