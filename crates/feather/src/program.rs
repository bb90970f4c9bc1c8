//! Ahead-of-time graph compilation: lower a planned [`GraphSession`] into a
//! flat [`Program`] of ops and replay it with zero per-layer planning — the
//! accelerator-as-ISA execution model.
//!
//! A graph's whole schedule — every layer's dataflow, layout, fire order and
//! BIRRD route — is fixed before any data arrives. Lowering resolves all of
//! it once, and every run replays the result; [`GraphSession::run`] itself
//! is lower-once-then-replay:
//!
//! * **[`Program`]** — a linear op stream (`Op`: `Stage`, `Fire`,
//!   `Reorder`, `Swap`, `Drain`, `Join`, `Park`/`Unpark`) with every layout,
//!   location plan, buffer spec, scratch move and compiled BIRRD route
//!   resolved at compile time. Routes live in direct `Arc` slots inside a
//!   per-layer `RouteStream` — replay never hashes a request or touches
//!   the shared route cache.
//! * **[`ProgramSession`]** — the executor: dispatches the op stream
//!   linearly. Replay is bit-identical to the interpreted
//!   [`GraphSession::run_interpreted`] — outputs, cycle counts, access
//!   statistics, energy, the whole [`GraphRun`] report (enforced by the
//!   `program_equivalence` suite).
//! * **[`Program::dump`]** — a diffable text listing of exactly what a run
//!   will do, locked down by a golden snapshot test.
//!
//! Lowering needs no input data because the reduce-reorder pattern of every
//! fire is a pure function of layer geometry (the mapped-lane pattern and the
//! oAct layout's bank assignment) — never of activation or weight values. It
//! walks each layer's fire schedule without MACs or buffers, memoizing routes
//! under a compact exact per-pass key, and replay consumes the recorded
//! stream cursor-style, jumping to per-block offsets so sharded workers stay
//! in sync with the serial schedule.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use feather_arch::energy::EnergyModel;
use feather_arch::graph::{NodeId, NodeOp, TensorId};
use feather_arch::tensor::{quantize_to_i8, quantize_value, saturating_add_i8, Tensor4};
use feather_arch::workload::ConvKind;
use feather_arch::{ArchError, Dim};
use feather_memsim::{BufferSpec, LayoutView, PingPong, ScratchRegion};

use crate::accelerator::check_weight_shape;
use crate::config::FeatherConfig;
use crate::core::{lower_routes, run_conv_core, LayerExec, RouteExecution, RouteStream};
use crate::graph_session::{pool_window_weights, widen, GraphSession, Step};
use crate::report::{
    GraphReport, GraphRun, JoinSummary, LayerSummary, NetworkReport, SegmentSummary,
};
use crate::session::{for_each_oact, iact_spec, layer_summary, oact_spec};

/// One slot of a program's tensor table: a graph tensor's id, its scratch
/// key and its batched run-time shape.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TensorSlot {
    /// The graph [`TensorId`] index.
    id: usize,
    /// Scratch-region key — identical to the interpreted session's
    /// `TensorId::to_string` so scratch traffic accounting matches exactly.
    key: String,
    /// `(N, C, H, W)` shape with the batch extent applied.
    shape: [usize; 4],
}

/// Where a compiled layer's weights come from at replay time.
#[derive(Debug, Clone)]
enum WeightSource {
    /// Supplied by the caller, keyed by graph node.
    Node(NodeId),
    /// Synthesized pooling-window constants (never streamed from DRAM).
    Pool(Tensor4<i8>),
}

/// One fully-resolved layer of a compiled segment: the owned tile-loop
/// context (which carries the precompiled location plans), the buffer
/// disciplines of both StaB halves and the frozen route stream.
#[derive(Debug, Clone)]
struct CompiledLayer {
    exec: LayerExec,
    weight: WeightSource,
    iact_spec: BufferSpec,
    oact_spec: BufferSpec,
    idims: BTreeMap<Dim, usize>,
    odims: BTreeMap<Dim, usize>,
    routes: RouteStream,
}

/// A compiled linear segment: its layers plus the graph-level flags that
/// drive DRAM accounting.
#[derive(Debug, Clone)]
struct CompiledSegment {
    /// Node names in execution order (one per layer).
    names: Vec<String>,
    /// Tensor-table slot the segment reads.
    input: usize,
    /// Tensor-table slot the segment produces.
    output: usize,
    /// The segment reads the graph input (its iAct staging hits DRAM).
    graph_input: bool,
    /// The segment produces the graph output (its oActs drain to DRAM).
    graph_output: bool,
    layers: Vec<CompiledLayer>,
}

/// A compiled residual join: where its two operands come from and where the
/// sum goes.
#[derive(Debug, Clone)]
struct JoinSpec {
    name: String,
    /// Tensor-table slot of the sum.
    output: usize,
    a: OperandSrc,
    b: OperandSrc,
    graph_output: bool,
}

/// How a join operand (or segment input) is acquired at replay time —
/// resolved at compile time from the interpreted session's consumer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OperandSrc {
    /// The fresh StaB resident; `take` moves it out (last consumer),
    /// otherwise it is cloned and stays fresh.
    Fresh {
        /// This is the tensor's last consumer.
        take: bool,
    },
    /// The front of the unpark queue (a preceding [`Op::Unpark`] fetched it
    /// from the scratch region).
    Queue,
}

/// One instruction of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Acquire the segment input and stage it into a fresh ping/pong StaB.
    Stage {
        seg: usize,
        /// Source: the fresh register (`true`) or the unpark queue.
        fresh: bool,
        /// Move the fresh tensor out instead of cloning it.
        take: bool,
    },
    /// Run one layer's tile loop, replaying its recorded route stream.
    Fire { seg: usize, layer: usize },
    /// Boundary quantization in place (RIR already reordered the values).
    Reorder { seg: usize, layer: usize },
    /// Swap the StaB halves.
    Swap { seg: usize },
    /// Drain the segment output, assemble its report, quantize it into the
    /// fresh register.
    Drain { seg: usize },
    /// Perform a residual add.
    Join { join: usize },
    /// Park the displaced fresh tensor in the scratch region (it still has
    /// consumers).
    Park { tensor: usize },
    /// Fetch a parked tensor into the unpark queue; `free` releases the
    /// allocation (last consumer).
    Unpark { tensor: usize, free: bool },
}

/// A flat, replayable lowering of a planned graph: every layout, location
/// plan, BIRRD route and scratch move resolved ahead of time. Produced by
/// [`GraphSession::compile`] and executed by [`ProgramSession`]. Cloning is
/// cheap: the compiled segments (the bulk of a program) are shared.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    config: FeatherConfig,
    batch: usize,
    quant_shift: u32,
    quant_zero: i8,
    threads: Option<usize>,
    /// Batched `(N, C, H, W)` shape of the graph input.
    input_shape: [usize; 4],
    /// Tensor-table slot of the graph input.
    input_slot: usize,
    fingerprint: u64,
    energy_model: EnergyModel,
    tensors: Vec<TensorSlot>,
    segments: Arc<[CompiledSegment]>,
    joins: Vec<JoinSpec>,
    ops: Vec<Op>,
}

impl Program {
    /// The compiled graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Samples per replayed run.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The hardware configuration the program was compiled for.
    pub fn config(&self) -> FeatherConfig {
        self.config
    }

    /// The schedule fingerprint this program was compiled from — matches
    /// [`GraphSession::fingerprint`] of the originating session.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of ops in the instruction stream.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Total recorded route-stream entries (BIRRD fires) across all layers.
    pub fn route_fires(&self) -> usize {
        self.segments
            .iter()
            .flat_map(|s| &s.layers)
            .map(|l| l.routes.stream.len())
            .sum()
    }

    /// A diffable text listing of exactly what a replayed run does: the
    /// fabric, the tensor table, every compiled layer with its mapping,
    /// layouts and route-stream size, the joins and the full op stream. The
    /// format is deterministic and locked by a golden snapshot test.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program \"{}\" fingerprint {:016x}",
            self.name, self.fingerprint
        );
        let _ = writeln!(
            out,
            "fabric {}x{} stab_lines={} strb_lines={}",
            self.config.rows, self.config.cols, self.config.stab_lines, self.config.strb_lines
        );
        let threads = match self.threads {
            Some(n) => n.to_string(),
            None => "auto".to_string(),
        };
        let _ = writeln!(
            out,
            "batch {} quant shift={} zero={} threads={}",
            self.batch, self.quant_shift, self.quant_zero, threads
        );
        let _ = writeln!(
            out,
            "input {} {:?}",
            self.tensors[self.input_slot].key, self.input_shape
        );
        let _ = writeln!(out, "tensors:");
        for slot in &self.tensors {
            let _ = writeln!(out, "  {} {:?}", slot.key, slot.shape);
        }
        let _ = writeln!(out, "segments:");
        for (si, seg) in self.segments.iter().enumerate() {
            let mut flags = String::new();
            if seg.graph_input {
                flags.push_str(" graph_input");
            }
            if seg.graph_output {
                flags.push_str(" graph_output");
            }
            let _ = writeln!(
                out,
                "  seg {si}: in={} out={}{}",
                self.tensors[seg.input].key, self.tensors[seg.output].key, flags
            );
            for (li, layer) in seg.layers.iter().enumerate() {
                let l = &layer.exec.layer;
                let m = &layer.exec.mapping;
                let kind = kind_token(l.kind);
                let weights = match &layer.weight {
                    WeightSource::Node(id) => format!("w={id}"),
                    WeightSource::Pool(_) => "w=pool".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    layer {li} {}: conv n{} m{} c{} {}x{} k{}x{} s{} p{} {kind} {weights}",
                    seg.names[li], l.n, l.m, l.c, l.h, l.w, l.r, l.s, l.stride, l.padding
                );
                let _ = writeln!(
                    out,
                    "      map m_rows={} c_cols={} q_cols={} iact={} oact={}",
                    m.m_rows, m.c_cols, m.q_cols, m.iact_layout, m.oact_layout
                );
                let _ = writeln!(
                    out,
                    "      routes slots={} fires={} blocks={}",
                    layer.routes.slots.len(),
                    layer.routes.stream.len(),
                    layer.routes.block_starts.len()
                );
                let _ = writeln!(out, "      route digest {:016x}", layer.routes.digest());
            }
        }
        let _ = writeln!(out, "joins:");
        for (ji, join) in self.joins.iter().enumerate() {
            let _ = writeln!(
                out,
                "  join {ji} {}: out={} a={} b={}{}",
                join.name,
                self.tensors[join.output].key,
                operand_token(join.a),
                operand_token(join.b),
                if join.graph_output {
                    " graph_output"
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "ops:");
        for (i, op) in self.ops.iter().enumerate() {
            let text = match *op {
                Op::Stage { seg, fresh, take } => {
                    let src = match (fresh, take) {
                        (true, true) => "fresh move",
                        (true, false) => "fresh copy",
                        (false, _) => "queue",
                    };
                    format!("stage   seg={seg} src={src}")
                }
                Op::Fire { seg, layer } => format!("fire    seg={seg} layer={layer}"),
                Op::Reorder { seg, layer } => format!("reorder seg={seg} layer={layer}"),
                Op::Swap { seg } => format!("swap    seg={seg}"),
                Op::Drain { seg } => format!("drain   seg={seg}"),
                Op::Join { join } => format!("join    {}", self.joins[join].name),
                Op::Park { tensor } => format!("park    {}", self.tensors[tensor].key),
                Op::Unpark { tensor, free } => format!(
                    "unpark  {}{}",
                    self.tensors[tensor].key,
                    if free { " free" } else { "" }
                ),
            };
            let _ = writeln!(out, "  {i:04} {text}");
        }
        out
    }
}

/// Reusable replay allocations: the per-segment StaB ping/pong pairs that
/// [`ProgramSession::run_batched_with_scratch`] parks between runs instead
/// of reallocating. One scratch belongs to one executor thread at a time (it
/// is `&mut` for the whole run) and adapts automatically when handed a
/// different program or lane count — the stash is keyed on
/// `(fingerprint, batch, lanes)` and a mismatch drops it, so buffers striped
/// for 4 lanes never serve a 1- or 8-lane run. A worker serving many
/// (model, batch size) pairs can keep one scratch per pair or share fewer
/// and only pay a regrow.
///
/// Replaying through a reused scratch is bit-identical to replaying through
/// a fresh one (outputs *and* the full report) — buffers are re-provisioned
/// with [`PingPong::reset`] at every segment stage.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// `(fingerprint, batch, lanes)` of the last completed run through this
    /// scratch.
    shaped_for: Option<(u64, usize, usize)>,
    /// One parked StaB pair per program segment.
    stabs: Vec<Option<PingPong<i32>>>,
}

impl ReplayScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Re-targets the stash at `(program, lanes)`, dropping buffers shaped
    /// for anything else, and marks it dirty until [`ReplayScratch::commit`]:
    /// if the replay panics mid-run (a supervised serving worker catches
    /// it), the next `begin` sees the mismatch and drops the half-staged
    /// stash instead of replaying through it.
    fn begin(&mut self, program: &Program, lanes: usize) {
        let key = (program.fingerprint, program.batch, lanes);
        if self.shaped_for != Some(key) {
            self.stabs.clear();
        }
        self.shaped_for = None;
        if self.stabs.len() != program.segments.len() {
            self.stabs.resize_with(program.segments.len(), || None);
        }
    }

    /// Marks a completed run's stash clean so the next `begin` reuses it.
    fn commit(&mut self, program: &Program, lanes: usize) {
        self.shaped_for = Some((program.fingerprint, program.batch, lanes));
    }
}

/// The graph-DAG replay executor: dispatches a compiled [`Program`]'s op
/// stream linearly. Cheap to clone (the program is shared through an `Arc`);
/// safe to use from multiple threads via `&self`.
#[derive(Debug, Clone)]
pub struct ProgramSession {
    program: Arc<Program>,
    threads: Option<usize>,
}

impl ProgramSession {
    /// Wraps a compiled program for execution.
    pub fn new(program: Program) -> Self {
        Self::from_arc(Arc::new(program))
    }

    /// Wraps an already-shared compiled program.
    pub fn from_arc(program: Arc<Program>) -> Self {
        ProgramSession {
            program,
            threads: None,
        }
    }

    /// Pins the executor's worker-thread count (builder style), overriding
    /// the count captured at compile time. The parallel replay is
    /// bit-identical to the serial one.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The compiled program this session replays.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Replays the program on one sample: bit-identical to
    /// [`GraphSession::run_interpreted`] of the originating session —
    /// outputs, cycles, access statistics and reports alike — with zero
    /// planning, hashing or weight cloning on the hot path. This is
    /// [`ProgramSession::run_batched`] at one lane.
    ///
    /// # Errors
    /// Returns an error on missing weights or operand shape mismatches.
    pub fn run(
        &self,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<GraphRun, ArchError> {
        let mut runs = self.run_batched(std::slice::from_ref(iacts), weights)?;
        Ok(runs.pop().expect("one run per sample"))
    }

    /// Replays the program once per input sample, executing every op a single
    /// time across all samples in lane-vectorized lockstep. Activations live
    /// in lane stripes (sample `l` occupies lane `l` of every StaB cell),
    /// each BIRRD route gathers whole stripes, and every piece of
    /// cycle/conflict/traffic accounting runs **once**: the schedule, routes
    /// and access patterns are data-independent, so one sample's accounting
    /// is every sample's accounting. The returned runs — outputs *and* full
    /// reports — are bit-identical to [`GraphSession::run_interpreted`] of
    /// each sample alone (the per-lane [`JoinSummary`] saturation flags are
    /// the only data-dependent bits and are computed per lane).
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_batched(
        &self,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        self.run_batched_with_scratch(&mut ReplayScratch::new(), iacts, weights)
    }

    /// [`ProgramSession::run_batched`] reusing `scratch`'s lane-striped StaB
    /// allocations across calls: each segment's StaB ping/pong pair is parked
    /// in the scratch at drain time and re-provisioned (reshaped + cleared,
    /// no reallocation) at the next stage, so a serving executor's steady
    /// state allocates no buffer memory per batch. Results are bit-identical
    /// to [`ProgramSession::run_batched`] with a fresh scratch.
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_batched_with_scratch(
        &self,
        scratch_bufs: &mut ReplayScratch,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        let p = &*self.program;
        let lanes = iacts.len();
        if lanes == 0 {
            return Err(ArchError::InvalidWorkload(
                "batched replay needs at least one sample".to_string(),
            ));
        }
        for sample in iacts {
            if sample.shape() != p.input_shape {
                return Err(ArchError::ShapeMismatch(format!(
                    "graph input shape {:?}, expected {:?}",
                    sample.shape(),
                    p.input_shape
                )));
            }
        }
        scratch_bufs.begin(p, lanes);
        let threads = self.threads.or(p.threads);

        // Parked tensors hold `lanes` concatenated per-lane copies; the lane
        // factor divides the region's accounting and occupancy back to one
        // sample's numbers — exactly what every lane's report clones.
        let mut scratch: ScratchRegion<i8> =
            ScratchRegion::with_lane_factor(p.config.cols.max(1), lanes);
        let mut fresh: Option<(usize, Vec<Tensor4<i8>>)> = Some((p.input_slot, iacts.to_vec()));
        let mut displaced: Option<(usize, Vec<Tensor4<i8>>)> = None;
        let mut queue: VecDeque<Vec<Tensor4<i8>>> = VecDeque::new();
        // Segment reports are identical across lanes (all accounting is
        // data-independent); join saturation is per lane.
        let mut segment_reports: Vec<SegmentSummary> = Vec::with_capacity(p.segments.len());
        let mut join_reports: Vec<Vec<JoinSummary>> =
            vec![Vec::with_capacity(p.joins.len()); lanes];
        let mut final_acc: Option<Vec<Tensor4<i32>>> = None;

        // In-flight segment state between its Stage and Drain ops.
        let mut stab: Option<PingPong<i32>> = None;
        let mut summaries: Vec<LayerSummary> = Vec::new();
        let mut input_from_scratch = false;

        let broken = |what: &str| {
            ArchError::InvalidWorkload(format!("compiled program is inconsistent: {what}"))
        };

        for op in &p.ops {
            match *op {
                Op::Unpark { tensor, free } => {
                    let slot = &p.tensors[tensor];
                    let missing = || {
                        ArchError::InvalidWorkload(format!(
                            "tensor t{} consumed before being produced or after being freed",
                            slot.id
                        ))
                    };
                    // `fetch` counts the read; the final consumer then moves
                    // the parked allocation out instead of copying it.
                    let mut data = if free {
                        scratch.fetch(&slot.key).ok_or_else(missing)?;
                        scratch.release(&slot.key).expect("fetched above")
                    } else {
                        scratch.fetch(&slot.key).ok_or_else(missing)?.to_vec()
                    };
                    // Peel lanes off the back, so lane 0 keeps the allocation.
                    let per_lane = data.len() / lanes;
                    let mut parts: Vec<Vec<i8>> = (1..lanes)
                        .rev()
                        .map(|lane| data.split_off(lane * per_lane))
                        .collect();
                    parts.push(data);
                    let tensors = parts
                        .into_iter()
                        .rev()
                        .map(|part| Tensor4::from_vec(slot.shape, part))
                        .collect::<Result<Vec<_>, _>>()?;
                    queue.push_back(tensors);
                }
                Op::Stage {
                    seg,
                    fresh: from_fresh,
                    take,
                } => {
                    let input = if from_fresh {
                        if take {
                            fresh
                                .take()
                                .ok_or_else(|| broken("fresh operand missing"))?
                                .1
                        } else {
                            fresh
                                .as_ref()
                                .ok_or_else(|| broken("fresh operand missing"))?
                                .1
                                .clone()
                        }
                    } else {
                        queue
                            .pop_front()
                            .ok_or_else(|| broken("unpark queue is empty"))?
                    };
                    input_from_scratch = !from_fresh;
                    let cs = &p.segments[seg];
                    let first = &cs.layers[0];
                    let l = &first.exec.layer;
                    let expected = [l.n, l.c, l.h, l.w];
                    if input[0].shape() != expected {
                        return Err(ArchError::ShapeMismatch(format!(
                            "iacts shape {:?}, expected {:?}",
                            input[0].shape(),
                            expected
                        )));
                    }
                    let mut pp: PingPong<i32> = match scratch_bufs.stabs[seg].take() {
                        Some(mut parked) => {
                            parked.reset(first.iact_spec);
                            parked
                        }
                        None => PingPong::with_lanes(first.iact_spec, lanes),
                    };
                    {
                        let (active, _) = pp.split_mut();
                        let mut view =
                            LayoutView::new(active, &first.exec.mapping.iact_layout, &first.idims);
                        // Lane 0 drives the coordinate walk; the other lanes
                        // follow by flat index (`for_each` visits coordinates
                        // in the row-major order `as_slice` stores).
                        let rest: Vec<&[i8]> = input.iter().skip(1).map(|t| t.as_slice()).collect();
                        let mut flat = 0usize;
                        input[0].for_each(|coord, v| {
                            let stripe =
                                view.write_stripe_at(first.exec.iact_plan().location(coord));
                            stripe[0] = Some(v as i32);
                            for (lane, data) in rest.iter().enumerate() {
                                stripe[lane + 1] = Some(data[flat] as i32);
                            }
                            flat += 1;
                        });
                        view.flush_cycle();
                    }
                    stab = Some(pp);
                    summaries = Vec::with_capacity(cs.layers.len());
                }
                Op::Fire { seg, layer } => {
                    let cs = &p.segments[seg];
                    let cl = &cs.layers[layer];
                    let lw: &Tensor4<i8> = match &cl.weight {
                        WeightSource::Pool(w) => w,
                        WeightSource::Node(id) => weights.get(id).ok_or_else(|| {
                            ArchError::InvalidWorkload(format!(
                                "no weight tensor supplied for node `{}`",
                                cs.names[layer]
                            ))
                        })?,
                    };
                    check_weight_shape(&cl.exec.layer, lw)?;
                    let pp = stab.as_mut().ok_or_else(|| broken("fire before stage"))?;
                    pp.shadow().reshape(cl.oact_spec);
                    if layer > 0 {
                        pp.active().rebank(cl.iact_spec);
                    }
                    let iact_base = *pp.active_ref().stats();
                    let oact_base = *pp.shadow_ref().stats();
                    let core = {
                        let (active, shadow) = pp.split_mut();
                        let mut iact_view =
                            LayoutView::new(active, &cl.exec.mapping.iact_layout, &cl.idims);
                        let mut oact_view =
                            LayoutView::new(shadow, &cl.exec.mapping.oact_layout, &cl.odims);
                        run_conv_core(
                            &cl.exec,
                            lw,
                            &mut iact_view,
                            &mut oact_view,
                            RouteExecution::Replay(&cl.routes),
                            layer == 0,
                            threads,
                        )?
                    };
                    let iact_stats = pp.active_ref().stats().since(&iact_base);
                    let oact_stats = pp.shadow_ref().stats().since(&oact_base);
                    summaries.push(layer_summary(
                        &p.config,
                        &p.energy_model,
                        &cl.exec.layer,
                        &core,
                        iact_stats,
                        oact_stats,
                        layer == 0,
                        layer + 1 == cs.layers.len(),
                    ));
                }
                Op::Reorder { seg, layer } => {
                    let cl = &p.segments[seg].layers[layer];
                    let pp = stab
                        .as_mut()
                        .ok_or_else(|| broken("reorder before stage"))?;
                    let shadow = pp.shadow();
                    let mut view = LayoutView::new(shadow, &cl.exec.mapping.oact_layout, &cl.odims);
                    let (shift, zero) = (p.quant_shift, p.quant_zero);
                    for_each_oact(&cl.exec.layer, |coord| {
                        let stripe = view.poke_stripe_at(cl.exec.oact_plan().location(coord));
                        for cell in stripe.iter_mut() {
                            let acc = cell.unwrap_or(0);
                            *cell = Some(quantize_value(acc, shift, zero) as i32);
                        }
                    });
                }
                Op::Swap { .. } => {
                    stab.as_mut()
                        .ok_or_else(|| broken("swap before stage"))?
                        .swap();
                }
                Op::Drain { seg } => {
                    let cs = &p.segments[seg];
                    let last = cs.layers.last().expect("segments are non-empty");
                    let mut pp = stab.take().ok_or_else(|| broken("drain before stage"))?;
                    let oacts: Vec<Tensor4<i32>> = {
                        let (active, _) = pp.split_mut();
                        let view =
                            LayoutView::new(active, &last.exec.mapping.oact_layout, &last.odims);
                        let l = &last.exec.layer;
                        (0..lanes)
                            .map(|lane| {
                                Tensor4::from_fn(
                                    [l.n, l.m, l.output_height(), l.output_width()],
                                    |n, m, ph, q| {
                                        view.peek_stripe_at(
                                            last.exec.oact_plan().location([n, m, ph, q]),
                                        )[lane]
                                            .unwrap_or(0)
                                    },
                                )
                            })
                            .collect()
                    };
                    let mut report = NetworkReport {
                        layers: std::mem::take(&mut summaries),
                        stab_swaps: pp.swaps(),
                    };
                    scratch_bufs.stabs[seg] = Some(pp);
                    adjust_report(&mut report, cs, &p.energy_model);
                    segment_reports.push(SegmentSummary {
                        nodes: cs.names.clone(),
                        report,
                        input_from_scratch,
                    });
                    if cs.graph_output {
                        final_acc = Some(oacts.clone());
                    }
                    let quantized: Vec<Tensor4<i8>> = oacts
                        .iter()
                        .map(|o| quantize_to_i8(o, p.quant_shift, p.quant_zero))
                        .collect();
                    displaced = fresh.take();
                    fresh = Some((cs.output, quantized));
                }
                Op::Join { join } => {
                    let spec = &p.joins[join];
                    let a = take_operand(spec.a, &mut fresh, &mut queue, &broken)?;
                    let b = take_operand(spec.b, &mut fresh, &mut queue, &broken)?;
                    let mut sums: Vec<Tensor4<i8>> = Vec::with_capacity(lanes);
                    for (lane, (la, lb)) in a.iter().zip(&b).enumerate() {
                        let (sum, saturated) = saturating_add_i8(la, lb)?;
                        join_reports[lane].push(JoinSummary {
                            name: spec.name.clone(),
                            elements: sum.len() as u64,
                            saturated,
                        });
                        sums.push(sum);
                    }
                    if spec.graph_output {
                        final_acc = Some(sums.iter().map(widen).collect());
                    }
                    displaced = fresh.take();
                    fresh = Some((spec.output, sums));
                }
                Op::Park { tensor } => {
                    let (_, data) = displaced
                        .take()
                        .ok_or_else(|| broken("park without a displaced tensor"))?;
                    let mut flat: Vec<i8> = Vec::with_capacity(data.len() * data[0].len());
                    for lane in &data {
                        flat.extend_from_slice(lane.as_slice());
                    }
                    scratch.park(p.tensors[tensor].key.clone(), flat);
                }
            }
        }

        let final_acc = final_acc.ok_or_else(|| broken("no op produced the graph output"))?;
        scratch_bufs.commit(p, lanes);
        let scratch_stats = *scratch.stats();
        let scratch_peak = scratch.peak_occupancy() as u64;
        Ok(final_acc
            .into_iter()
            .zip(join_reports)
            .enumerate()
            .map(|(lane, (oacts, joins))| GraphRun {
                oacts,
                report: GraphReport {
                    // The last lane takes the shared reports, the rest clone.
                    segments: if lane + 1 == lanes {
                        std::mem::take(&mut segment_reports)
                    } else {
                        segment_reports.clone()
                    },
                    joins,
                    scratch: scratch_stats,
                    scratch_peak_elems: scratch_peak,
                },
            })
            .collect())
    }
}

/// Resolves a join operand (one tensor per lane) from the fresh register or
/// the unpark queue.
fn take_operand(
    src: OperandSrc,
    fresh: &mut Option<(usize, Vec<Tensor4<i8>>)>,
    queue: &mut VecDeque<Vec<Tensor4<i8>>>,
    broken: &impl Fn(&str) -> ArchError,
) -> Result<Vec<Tensor4<i8>>, ArchError> {
    match src {
        OperandSrc::Fresh { take: true } => Ok(fresh
            .take()
            .ok_or_else(|| broken("fresh operand missing"))?
            .1),
        OperandSrc::Fresh { take: false } => Ok(fresh
            .as_ref()
            .ok_or_else(|| broken("fresh operand missing"))?
            .1
            .clone()),
        OperandSrc::Queue => queue
            .pop_front()
            .ok_or_else(|| broken("unpark queue is empty")),
    }
}

/// Rewrites a drained segment's report for graph-level DRAM accounting —
/// the compiled mirror of the interpreted session's `adjust_report`.
fn adjust_report(report: &mut NetworkReport, seg: &CompiledSegment, energy: &EnergyModel) {
    let mut dirty: Vec<usize> = Vec::new();
    if !seg.graph_input {
        report.layers[0].report.dram_iact_bytes = 0;
        dirty.push(0);
    }
    if !seg.graph_output {
        let last = report.layers.len() - 1;
        report.layers[last].report.dram_oact_bytes = 0;
        dirty.push(last);
    }
    for (i, layer) in seg.layers.iter().enumerate() {
        if matches!(layer.weight, WeightSource::Pool(_)) {
            report.layers[i].report.dram_weight_bytes = 0;
            dirty.push(i);
        }
    }
    for i in dirty {
        let layer = &mut report.layers[i].report;
        layer.energy.dram_pj = energy.dram_pj(layer.dram_bytes());
    }
}

// ------------------------------------------------------------------ compile

/// Lowers a planned session into a [`Program`] without executing it — the
/// implementation behind [`GraphSession::compile`], which keeps the result.
pub(crate) fn compile(session: &GraphSession) -> Result<Program, ArchError> {
    let graph = session.graph();
    let config = session.config();
    let (quant_shift, quant_zero) = session.quantization();
    let batch = session.batch();

    // Tensor table: the graph input plus every node output, with batched
    // shapes and the scratch keys the interpreted session uses.
    let mut tensors: Vec<TensorSlot> = Vec::new();
    let mut slot_of: BTreeMap<TensorId, usize> = BTreeMap::new();
    let mut add_tensor = |t: TensorId, tensors: &mut Vec<TensorSlot>| {
        let mut shape = graph.tensor_shape(t);
        shape[0] = batch;
        slot_of.entry(t).or_insert_with(|| {
            tensors.push(TensorSlot {
                id: t.0,
                key: t.to_string(),
                shape,
            });
            tensors.len() - 1
        });
    };
    add_tensor(graph.input(), &mut tensors);
    for node in graph.nodes() {
        add_tensor(node.output, &mut tensors);
    }
    let input_slot = slot_of[&graph.input()];
    let input_shape = tensors[input_slot].shape;

    // Lower every segment: build the owned layer contexts and walk each
    // layer's fire schedule for its route stream — no data, no buffers.
    let mut segments: Vec<CompiledSegment> = Vec::with_capacity(session.segments.len());
    for exec in &session.segments {
        let seg = &exec.segment;
        let steps = exec.session.steps();
        let route_cache = exec.session.route_cache();
        let mut layers: Vec<CompiledLayer> = Vec::with_capacity(steps.len());
        let mut names: Vec<String> = Vec::with_capacity(steps.len());
        for (i, (layer, mapping)) in steps.iter().enumerate() {
            let node = graph.node(seg.nodes[i]);
            names.push(node.name.clone());
            let weight = match &node.op {
                NodeOp::PoolAsConv(_) => WeightSource::Pool(pool_window_weights(layer)),
                _ => WeightSource::Node(node.id),
            };
            let exec = LayerExec::new(&config, layer, mapping)?;
            let routes = lower_routes(&exec, route_cache)?;
            layers.push(CompiledLayer {
                weight,
                iact_spec: iact_spec(layer, mapping),
                oact_spec: oact_spec(layer, mapping),
                idims: layer.iact_dim_sizes(),
                odims: layer.oact_dim_sizes(),
                exec,
                routes,
            });
        }

        segments.push(CompiledSegment {
            names,
            input: slot_of[&seg.input],
            output: slot_of[&seg.output],
            graph_input: seg.input == graph.input(),
            graph_output: seg.output == graph.output(),
            layers,
        });
    }

    // Emit the op stream by symbolically replaying the interpreted run-state
    // transitions (consumer counts, the fresh register, scratch parking).
    let mut remaining: BTreeMap<TensorId, usize> = BTreeMap::new();
    remaining.insert(graph.input(), graph.consumers(graph.input()).len());
    for node in graph.nodes() {
        remaining.insert(node.output, graph.consumers(node.output).len());
    }
    let mut fresh_t: Option<TensorId> = Some(graph.input());
    let mut ops: Vec<Op> = Vec::new();
    let mut joins: Vec<JoinSpec> = Vec::new();

    let take_sym = |t: TensorId,
                    remaining: &mut BTreeMap<TensorId, usize>,
                    fresh_t: &mut Option<TensorId>,
                    ops: &mut Vec<Op>|
     -> OperandSrc {
        let uses = remaining.get_mut(&t).expect("planned tensors are known");
        *uses = uses.saturating_sub(1);
        let last = *uses == 0;
        if *fresh_t == Some(t) {
            if last {
                *fresh_t = None;
            }
            OperandSrc::Fresh { take: last }
        } else {
            ops.push(Op::Unpark {
                tensor: slot_of[&t],
                free: last,
            });
            OperandSrc::Queue
        }
    };
    let publish_sym = |t: TensorId,
                       remaining: &BTreeMap<TensorId, usize>,
                       fresh_t: &mut Option<TensorId>,
                       ops: &mut Vec<Op>,
                       slot_of: &BTreeMap<TensorId, usize>| {
        if let Some(old) = fresh_t.take() {
            if remaining.get(&old).copied().unwrap_or(0) > 0 {
                ops.push(Op::Park {
                    tensor: slot_of[&old],
                });
            }
        }
        *fresh_t = Some(t);
    };

    for step in &session.plan {
        match *step {
            Step::Segment(si) => {
                let seg = &session.segments[si].segment;
                let src = take_sym(seg.input, &mut remaining, &mut fresh_t, &mut ops);
                let (from_fresh, take) = match src {
                    OperandSrc::Fresh { take } => (true, take),
                    OperandSrc::Queue => (false, false),
                };
                ops.push(Op::Stage {
                    seg: si,
                    fresh: from_fresh,
                    take,
                });
                let num_layers = segments[si].layers.len();
                for li in 0..num_layers {
                    ops.push(Op::Fire { seg: si, layer: li });
                    if li + 1 < num_layers {
                        ops.push(Op::Reorder { seg: si, layer: li });
                    }
                    ops.push(Op::Swap { seg: si });
                }
                ops.push(Op::Drain { seg: si });
                publish_sym(seg.output, &remaining, &mut fresh_t, &mut ops, &slot_of);
            }
            Step::Join(id) => {
                let node = graph.node(id);
                let a = take_sym(node.inputs[0], &mut remaining, &mut fresh_t, &mut ops);
                let b = take_sym(node.inputs[1], &mut remaining, &mut fresh_t, &mut ops);
                let ji = joins.len();
                joins.push(JoinSpec {
                    name: node.name.clone(),
                    output: slot_of[&node.output],
                    a,
                    b,
                    graph_output: node.output == graph.output(),
                });
                ops.push(Op::Join { join: ji });
                publish_sym(node.output, &remaining, &mut fresh_t, &mut ops, &slot_of);
            }
        }
    }

    Ok(Program {
        name: graph.name.clone(),
        config,
        batch,
        quant_shift,
        quant_zero,
        threads: session.segments[0].session.threads(),
        input_shape,
        input_slot,
        fingerprint: session_fingerprint(session),
        energy_model: session.energy_model,
        tensors,
        segments: segments.into(),
        joins,
        ops,
    })
}

/// FNV-1a 64 fingerprint of everything that determines a session's compiled
/// program — the implementation behind [`GraphSession::fingerprint`].
pub(crate) fn session_fingerprint(session: &GraphSession) -> u64 {
    let graph = session.graph();
    let config = session.config();
    let (shift, zero) = session.quantization();
    let mut text = String::new();
    let threads = match session.segments[0].session.threads() {
        Some(n) => n.to_string(),
        None => "auto".to_string(),
    };
    let _ = writeln!(
        text,
        "program|{}|rows={}|cols={}|stab={}|strb={}|batch={}|shift={shift}|zero={zero}|threads={threads}",
        graph.name,
        config.rows,
        config.cols,
        config.stab_lines,
        config.strb_lines,
        session.batch()
    );
    for node in graph.nodes() {
        let tag = match &node.op {
            NodeOp::Conv(_) => "conv",
            NodeOp::Gemm(_) => "gemm",
            NodeOp::PoolAsConv(_) => "pool",
            NodeOp::Add => "add",
        };
        let inputs: Vec<String> = node.inputs.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(
            text,
            "node|{}|{}|{tag}|in={}|out={}",
            node.id,
            node.name,
            inputs.join(","),
            node.output
        );
    }
    for (si, exec) in session.segments.iter().enumerate() {
        for (li, (layer, mapping)) in exec.session.steps().iter().enumerate() {
            let _ = writeln!(
                text,
                "layer|{si}|{li}|{},{},{},{},{},{},{},{},{},{}|{},{},{}|{}|{}",
                layer.n,
                layer.m,
                layer.c,
                layer.h,
                layer.w,
                layer.r,
                layer.s,
                layer.stride,
                layer.padding,
                kind_token(layer.kind),
                mapping.m_rows,
                mapping.c_cols,
                mapping.q_cols,
                mapping.iact_layout,
                mapping.oact_layout
            );
        }
    }
    for step in &session.plan {
        let _ = match *step {
            Step::Segment(si) => writeln!(text, "step|seg{si}"),
            Step::Join(id) => writeln!(text, "step|join{id}"),
        };
    }
    fnv1a64(text.as_bytes())
}

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ------------------------------------------------------------ text helpers

fn kind_token(kind: ConvKind) -> &'static str {
    match kind {
        ConvKind::Standard => "standard",
        ConvKind::Depthwise => "depthwise",
        ConvKind::Pointwise => "pointwise",
    }
}

fn operand_token(src: OperandSrc) -> &'static str {
    match src {
        OperandSrc::Fresh { take: true } => "fresh_move",
        OperandSrc::Fresh { take: false } => "fresh_copy",
        OperandSrc::Queue => "queue",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::graph::Graph;
    use feather_arch::workload::ConvLayer;

    fn residual_graph() -> Graph {
        let mut g = Graph::new("residual", [1, 4, 6, 6]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        let main = g
            .conv(
                stem,
                ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_main"),
            )
            .unwrap();
        let proj = g
            .conv(
                stem,
                ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_proj"),
            )
            .unwrap();
        let j0 = g.add(main, proj, "b0_add").unwrap();
        let main1 = g
            .conv(
                j0,
                ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                    .with_padding(1)
                    .with_name("b1_main"),
            )
            .unwrap();
        let j1 = g.add(main1, j0, "b1_add").unwrap();
        g.conv(j1, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
            .unwrap();
        g
    }

    #[test]
    fn replay_matches_interpreted_run_exactly() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 11);
        let weights = g.random_weights(12);
        let interpreted = session.run_interpreted(&iacts, &weights).unwrap();
        let program = session.compile().unwrap();
        let replayed = ProgramSession::new(program).run(&iacts, &weights).unwrap();
        assert_eq!(replayed.oacts, interpreted.oacts);
        assert_eq!(replayed.report, interpreted.report);
    }

    #[test]
    fn replay_is_reusable_and_thread_invariant() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 21);
        let weights = g.random_weights(22);
        let interpreted = session.run_interpreted(&iacts, &weights).unwrap();
        let replay = ProgramSession::new(session.compile().unwrap());
        // Replay twice (a serving process reuses one program) and once with
        // explicit sharding — all bit-identical.
        let first = replay.run(&iacts, &weights).unwrap();
        let second = replay.run(&iacts, &weights).unwrap();
        let sharded = replay
            .clone()
            .with_threads(3)
            .run(&iacts, &weights)
            .unwrap();
        assert_eq!(first.report, interpreted.report);
        assert_eq!(second.report, interpreted.report);
        assert_eq!(sharded.oacts, interpreted.oacts);
        assert_eq!(sharded.report, interpreted.report);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_retargets_across_programs() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(42);
        let replay = ProgramSession::new(session.compile().unwrap());
        let batch2 = ProgramSession::new(session.with_batch(2).unwrap().compile().unwrap());

        // One scratch driven through 1 → 4 → 1 lanes of one program, then
        // onto a second program (the batch-2 variant), twice per step so each
        // stash is also reused as-is. Every run must match the same run on a
        // fresh scratch exactly (outputs and full report): no state leaks
        // between requests, and a stash shaped for one (program, lanes) key
        // never serves another.
        let mut scratch = ReplayScratch::new();
        let steps = [
            (&replay, 1usize, 1usize),
            (&replay, 1, 4),
            (&replay, 1, 1),
            (&batch2, 2, 1),
        ];
        for (step, (program, batch, lanes)) in steps.into_iter().enumerate() {
            for rep in 0..2u64 {
                let seed = 50 + 10 * step as u64 + 5 * rep;
                let samples: Vec<Tensor4<i8>> = (0..lanes as u64)
                    .map(|lane| Tensor4::random([batch, 4, 6, 6], seed + lane))
                    .collect();
                let fresh = program.run_batched(&samples, &weights).unwrap();
                let reused = program
                    .run_batched_with_scratch(&mut scratch, &samples, &weights)
                    .unwrap();
                assert_eq!(reused.len(), lanes);
                for (lane, (reused, fresh)) in reused.iter().zip(&fresh).enumerate() {
                    let at = format!("step {step} rep {rep} lane {lane}");
                    assert_eq!(reused.oacts, fresh.oacts, "{at}: outputs diverged");
                    assert_eq!(reused.report, fresh.report, "{at}: report diverged");
                }
            }
        }
    }

    /// Every lane of a replay equals the interpreter's solo run of its
    /// sample, at every lane count, reused or fresh, serial or sharded.
    #[test]
    fn batched_replay_is_bit_identical_to_solo_replays() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(82);
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..4u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 80 + seed))
            .collect();

        let mut scratch = ReplayScratch::new();
        for lanes in [1usize, 2, 4] {
            let batch = &samples[..lanes];
            let fresh = replay.run_batched(batch, &weights).unwrap();
            let reused = replay
                .run_batched_with_scratch(&mut scratch, batch, &weights)
                .unwrap();
            assert_eq!(fresh.len(), lanes);
            for (lane, sample) in batch.iter().enumerate() {
                let solo = session.run_interpreted(sample, &weights).unwrap();
                assert_eq!(fresh[lane].oacts, solo.oacts, "lane {lane} outputs");
                assert_eq!(fresh[lane].report, solo.report, "lane {lane} report");
                assert_eq!(reused[lane].oacts, solo.oacts, "lane {lane} reused outputs");
                assert_eq!(
                    reused[lane].report, solo.report,
                    "lane {lane} reused report"
                );
            }
        }
        // Sharded batched replay stays exact too.
        let sharded = replay
            .clone()
            .with_threads(3)
            .run_batched(&samples, &weights)
            .unwrap();
        for (lane, sample) in samples.iter().enumerate() {
            let solo = session.run_interpreted(sample, &weights).unwrap();
            assert_eq!(sharded[lane].oacts, solo.oacts, "lane {lane} sharded");
            assert_eq!(sharded[lane].report, solo.report, "lane {lane} sharded");
        }
        assert!(replay.run_batched(&[], &weights).is_err());
    }

    /// The route digest covers each part of a layer's route stream: moving
    /// a route to another slot, retargeting one fire or shifting one block
    /// start each changes it, though every count in the `routes` line of
    /// the dump stays the same.
    #[test]
    fn route_digest_tracks_slots_stream_and_blocks() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let program = session.compile().unwrap();
        let routes = &program.segments[1].layers[0].routes;
        assert!(routes.slots.len() > 1 && routes.block_starts.len() > 1);
        let base = routes.digest();
        assert_eq!(routes.clone().digest(), base, "digest is deterministic");

        let mut swapped = routes.clone();
        swapped.slots.swap(0, 1);
        assert_ne!(swapped.digest(), base, "slot order");

        let mut retargeted = routes.clone();
        let first = retargeted.stream[0];
        retargeted.stream[0] = (first + 1) % retargeted.slots.len() as u32;
        assert_ne!(retargeted.digest(), base, "stream entry");

        let mut shifted = routes.clone();
        shifted.block_starts[1] += 1;
        assert_ne!(shifted.digest(), base, "block start");
    }

    #[test]
    fn fingerprint_tracks_schedule_changes() {
        let g = residual_graph();
        let base = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        assert_eq!(base.fingerprint(), base.fingerprint());
        let batched = base.with_batch(4).unwrap();
        assert_ne!(base.fingerprint(), batched.fingerprint());
        let requantized = base.clone().with_quantization(5, 1);
        assert_ne!(base.fingerprint(), requantized.fingerprint());
        let other_fabric = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        assert_ne!(base.fingerprint(), other_fabric.fingerprint());
    }
}
