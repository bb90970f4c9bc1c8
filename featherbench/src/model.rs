//! A model with its generated inputs and reference outputs, and the probe
//! that calls `feather` directly on it: build, compile, interpret, replay
//! one sample and replay eight in lockstep, checking every output.

use std::collections::BTreeMap;

use feather::{FeatherConfig, GraphRun, GraphSession, ProgramSession};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;
use feather_arch::ArchError;

use crate::check::{corrupt, same_count, same_output, Fail};
use crate::inputs::{stream, tensor_seed};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Distinct images per workload.
const DISTINCT_IMAGES: usize = 8;

/// Samples in the lockstep replay probe.
const LANES: usize = 8;

/// A graph on an accelerator, with seeded weights and images and each
/// image's reference output.
pub struct Model {
    /// The network.
    pub graph: Graph,
    /// The accelerator it runs on.
    pub config: FeatherConfig,
    /// Seeded weights.
    pub weights: BTreeMap<NodeId, Tensor4<i8>>,
    /// Seeded distinct input images.
    pub images: Vec<Tensor4<i8>>,
    /// `run_graph_reference` of each image.
    pub goldens: Vec<Tensor4<i32>>,
}

impl Model {
    /// Generates the inputs from `seed` and computes every reference
    /// output, in the `bench.inputs` and `bench.golden` phases. With
    /// `corrupt_golden`, the first reference is deliberately wrong.
    pub fn new(
        tr: &mut Tracer,
        graph: Graph,
        config: FeatherConfig,
        seed: u64,
        corrupt_golden: bool,
    ) -> Result<Model, Fail> {
        tr.open("bench.inputs");
        let weights = graph.random_weights(tensor_seed(seed, stream::WEIGHTS));
        let [_, c, h, w] = graph.tensor_shape(graph.input());
        let base = tensor_seed(seed, stream::IMAGES);
        let images: Vec<Tensor4<i8>> = (0..DISTINCT_IMAGES as u64)
            .map(|i| Tensor4::random([1, c, h, w], base + i))
            .collect();
        tr.close();

        tr.open("bench.golden");
        let (shift, zero) = GraphSession::auto(config, &graph)
            .map_err(|e| Fail::broken("building the session for quantization", e))?
            .quantization();
        let mut goldens = images
            .iter()
            .map(|img| {
                feather::graph_session::run_graph_reference(&graph, img, &weights, shift, zero)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| Fail::broken("run_graph_reference", e))?;
        tr.close();
        if corrupt_golden {
            corrupt(&mut goldens[0]);
        }
        Ok(Model {
            graph,
            config,
            weights,
            images,
            goldens,
        })
    }
}

/// Calls `feather` on `model` `reps` times and sets the modeled totals
/// (`model_*`), the work counts and, when `reps > 1`, the `feather.*`
/// timings as medians. Each rep builds a session with `build`, compiles
/// it, interprets and replays one image and checks interpreter ==
/// reference and replay == interpreter on outputs and the full report;
/// timed reps also replay all eight images in lockstep and check each
/// lane. Returns the first rep's run.
pub fn probe(
    tr: &mut Tracer,
    model: &Model,
    build: &dyn Fn() -> Result<GraphSession, ArchError>,
    reps: usize,
    m: &mut Metrics,
) -> Result<GraphRun, Fail> {
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<GraphRun> = None;
    for rep in 0..reps {
        let image = rep % model.images.len();
        let (iacts, golden) = (&model.images[image], &model.goldens[image]);

        let (session, t) = tr.time("feather.build", build);
        let session = session.map_err(|e| Fail::broken("building the session", e))?;
        times.entry("feather.build_ms").or_default().push(ms(t));

        let (program, t) = tr.time("feather.compile", || session.compile());
        let replay = ProgramSession::new(program.map_err(|e| Fail::broken("compile", e))?);
        times.entry("feather.compile_ms").or_default().push(ms(t));

        let (interp, t) = tr.time("feather.interp", || session.run(iacts, &model.weights));
        let interp = interp.map_err(|e| Fail::broken("GraphSession::run", e))?;
        same_output("interpreter vs reference", &interp.oacts, golden)?;
        times.entry("feather.interp_ms").or_default().push(ms(t));

        let (replayed, t) = tr.time("feather.replay", || replay.run(iacts, &model.weights));
        let replayed = replayed.map_err(|e| Fail::broken("ProgramSession::run", e))?;
        same_output("replay vs interpreter", &replayed.oacts, &interp.oacts)?;
        same_count(
            "replay report == interpreter report",
            replayed.report == interp.report,
            true,
        )?;
        times.entry("feather.replay_ms").or_default().push(ms(t));

        if reps > 1 {
            let lanes: Vec<Tensor4<i8>> = (0..LANES)
                .map(|l| model.images[l % model.images.len()].clone())
                .collect();
            let (runs, t) = tr.time("feather.replay8", || {
                replay.run_batched(&lanes, &model.weights)
            });
            let runs = runs.map_err(|e| Fail::broken("ProgramSession::run_batched", e))?;
            for (l, run) in runs.iter().enumerate() {
                let want = &model.goldens[l % model.goldens.len()];
                same_output(&format!("lockstep replay lane {l}"), &run.oacts, want)?;
            }
            times
                .entry("feather.replay8_ms_per_sample")
                .or_default()
                .push(ms(t) / LANES as f64);
        }

        match &first {
            None => {
                set_counts(m, &replayed, replay.program());
                first = Some(replayed);
            }
            Some(f) => {
                same_count(
                    "modeled cycles across images",
                    replayed.report.total_cycles(),
                    f.report.total_cycles(),
                )?;
                same_count(
                    "modeled DRAM bytes across images",
                    replayed.report.dram_bytes(),
                    f.report.dram_bytes(),
                )?;
            }
        }
    }
    if reps > 1 {
        for (name, samples) in &times {
            m.set(name, median(samples));
        }
    }
    Ok(first.expect("at least one probe rep"))
}

/// The metrics [`probe`] sets that must not depend on the inputs.
#[cfg(test)]
pub const COUNTS: &[&str] = &[
    "model_cycles",
    "model_dram_bytes",
    "model_energy_pj",
    "feather.ops",
    "feather.stab_swaps",
    "birrd.route_fires",
    "birrd.passes",
    "birrd.adds",
    "nest.macs",
    "memsim.stall_cycles",
];

/// Modeled totals and work counts of one run of a compiled program.
fn set_counts(m: &mut Metrics, run: &GraphRun, program: &feather::Program) {
    let r = &run.report;
    let layers = || r.layers().map(|l| &l.report);
    m.set("model_cycles", r.total_cycles() as f64);
    m.set("model_dram_bytes", r.dram_bytes() as f64);
    m.set("model_energy_pj", r.total_energy_pj());
    m.set("feather.ops", program.num_ops() as f64);
    m.set("feather.stab_swaps", r.stab_swaps() as f64);
    m.set("birrd.route_fires", program.route_fires() as f64);
    m.set(
        "birrd.passes",
        layers().map(|l| l.birrd_passes).sum::<u64>() as f64,
    );
    m.set(
        "birrd.adds",
        layers().map(|l| l.birrd_adds).sum::<u64>() as f64,
    );
    m.set("nest.macs", r.total_macs() as f64);
    m.set(
        "memsim.stall_cycles",
        layers().map(|l| l.stall_cycles).sum::<u64>() as f64,
    );
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
