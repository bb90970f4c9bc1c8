//! `cosearch_resnet`: the paper's own flow. A cold Layoutloop co-search
//! picks each layer's dataflow and layout, `feather` builds the planned
//! network, and the interpreter simulates inputs on it.

use std::time::{Duration, Instant};

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::resnet50_graph_scaled;
use layoutloop::{plan_graph, ArchSpec, CoSearchCache, GraphPlan, MapperConfig};

use crate::check::{same_count, same_output, Fail};
use crate::inputs::{stream, Rng};
use crate::metrics::Metrics;
use crate::model::{ms, probe, Model};
use crate::stats::{median, required_over_parts};
use crate::trace::Tracer;

/// Probe repetitions on traced runs.
const PROBE_REPS: usize = 3;
/// Seed of the mapper's own search. Part of the program's configuration,
/// not an input: the plan must not change with `--seed`.
const MAPPER_SEED: u64 = 0;

/// Runs the workload and fills `m`; returns (attempted, failed).
pub fn run(
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    corrupt_golden: bool,
    m: &mut Metrics,
) -> Result<(u64, u64), Fail> {
    let model = Model::new(
        tr,
        resnet50_graph_scaled(8, 8),
        FeatherConfig::paper_16x16(),
        seed,
        corrupt_golden,
    )?;
    let arch = ArchSpec::feather_like(16, 16);
    let mapper = MapperConfig::fast();

    // The window alternates cold set-ups (plan + build) with simulated
    // inferences on the latest build, giving set-ups a quarter of the time.
    tr.open("bench.window");
    let mut rng = Rng::new(seed, stream::TRAFFIC);
    let (mut plans, mut builds, mut setups, mut sims) = (vec![], vec![], vec![], vec![]);
    let mut planned: Option<(GraphPlan, GraphSession)> = None;
    let mut first_report = None;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while planned.is_none() || Instant::now() < deadline {
        let setup_time: f64 = setups.iter().sum();
        let sim_time: f64 = sims.iter().sum::<f64>() / 1e3;
        let simulate_on = planned.as_ref().filter(|_| 3.0 * setup_time > sim_time);
        if let Some((_, session)) = simulate_on {
            let image = rng.below(model.images.len());
            let (run, t) = tr.time("feather.interp", || {
                session.run(&model.images[image], &model.weights)
            });
            let run = run.map_err(|e| Fail::broken("GraphSession::run", e))?;
            same_output("simulated inference", &run.oacts, &model.goldens[image])?;
            let counts = (run.report.total_cycles(), run.report.dram_bytes());
            let first = *first_report.get_or_insert(counts);
            same_count("modeled (cycles, DRAM bytes) across inputs", counts, first)?;
            sims.push(ms(t));
        } else {
            let mut cache = CoSearchCache::new();
            let (plan, plan_t) = tr.time("layoutloop.plan", || {
                plan_graph(&arch, &model.graph, &mapper, MAPPER_SEED, &mut cache)
            });
            let plan = plan.map_err(|e| Fail::broken("plan_graph", e))?;
            let (session, build_t) = tr.time("feather.build", || {
                GraphSession::from_schedules(model.config, &model.graph, &plan.schedules())
            });
            let session = session.map_err(|e| Fail::broken("from_schedules", e))?;
            if let Some((earlier, _)) = &planned {
                same_count(
                    "co-search plan fingerprint",
                    plan.fingerprint(),
                    earlier.fingerprint(),
                )?;
            }
            plans.push(ms(plan_t));
            builds.push(ms(build_t));
            setups.push((plan_t + build_t).as_secs_f64());
            planned = Some((plan, session));
        }
    }
    tr.close();
    let (plan, _) = planned.expect("at least one set-up");

    tr.open("bench.probe");
    let schedules = plan.schedules();
    let build = || GraphSession::from_schedules(model.config, &model.graph, &schedules);
    let reps = if tr.enabled() { PROBE_REPS } else { 1 };
    let run = probe(tr, &model, &build, reps, m)?;
    tr.close();
    let first = first_report.ok_or_else(|| Fail::Broken("no inference simulated".into()))?;
    same_count(
        "probe vs window modeled counts",
        (run.report.total_cycles(), run.report.dram_bytes()),
        first,
    )?;

    m.set("setup_s", median(&setups));
    let what = "simulated inference time";
    let rate = |p: &[f64]| Some(p.len() as f64 / (p.iter().sum::<f64>() / 1e3));
    m.set(
        "latency_p50_ms",
        required_over_parts(&sims, |p| Some(median(p)), what)?,
    );
    m.set("throughput_rps", required_over_parts(&sims, rate, what)?);
    m.note_tails(&sims);
    m.note(
        "sim_ms",
        median(&sims),
        "ms",
        &format!("median of {} simulated inferences", sims.len()),
    );
    m.note(
        "setups",
        setups.len() as f64,
        "count",
        "cold plan + build repetitions",
    );

    m.set("layoutloop.plan_ms", median(&plans));
    m.set("layoutloop.tables_computed", plan.cache_misses as f64);
    m.set("layoutloop.table_hits", plan.cache_hits as f64);
    m.set("layoutloop.est_cycles", plan.total_cycles() as f64);
    m.set("layoutloop.est_energy_pj", plan.total_energy_pj());
    // The window's samples of these calls outnumber the probe's.
    m.set("feather.build_ms", median(&builds));
    m.set("feather.interp_ms", median(&sims));
    Ok((sims.len() as u64, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::COUNTS;

    #[test]
    fn modeled_counts_ignore_the_seed() {
        let graph = resnet50_graph_scaled(8, 8);
        let arch = ArchSpec::feather_like(16, 16);
        let mut cache = CoSearchCache::new();
        let plan = plan_graph(
            &arch,
            &graph,
            &MapperConfig::fast(),
            MAPPER_SEED,
            &mut cache,
        )
        .expect("the graph plans");
        let schedules = plan.schedules();
        let counts = |seed| {
            let (mut tr, mut m) = (Tracer::new(false), Metrics::default());
            let config = FeatherConfig::paper_16x16();
            let model = Model::new(&mut tr, graph.clone(), config, seed, false).expect("inputs");
            let build = || GraphSession::from_schedules(config, &model.graph, &schedules);
            probe(&mut tr, &model, &build, 1, &mut m).expect("probe passes");
            COUNTS
                .iter()
                .map(|n| m.get(n).expect("probe sets every count"))
                .collect::<Vec<_>>()
        };
        let first = counts(1);
        assert_eq!(first[0], 73_969.0, "modeled cycles of the co-searched plan");
        assert_eq!(first, counts(2));
    }
}
