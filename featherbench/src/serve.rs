//! `serve_open` and `serve_closed`: traffic from one generator thread into
//! a `feather-serve` server hosting the scaled ResNet-50.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::resnet50_graph_scaled;
use feather_serve::{Response, ServeConfig, ServeError, Server, ServerStats, Ticket};

use crate::check::{same_count, same_output, Fail};
use crate::inputs::{poisson, stream, Arrival, Rng};
use crate::metrics::Metrics;
use crate::model::{ms, probe, Model};
use crate::stats::{median, percentile, required_over_parts};
use crate::trace::Tracer;

/// Offered load of `serve_open`, requests per second.
const OPEN_RATE: f64 = 50.0;
/// Requests `serve_closed` keeps outstanding.
const CLOSED_OUTSTANDING: usize = 16;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Length of one warm-up round.
const WARMUP_ROUND: Duration = Duration::from_secs(2);
/// Warm-up ends after this many consecutive rounds compile no program...
const WARMUP_QUIET_ROUNDS: usize = 2;
/// ...or after this many rounds in all.
const WARMUP_MAX_ROUNDS: usize = 8;
/// Probe repetitions on traced runs.
const PROBE_REPS: usize = 5;

const MODEL: &str = "resnet50";
const TENANT: &str = "bench";

/// Modeled totals of one batch-1 inference of the serving model, as
/// recorded by every `BENCH_<n>.json` since `BENCH_5.json`.
const MODEL_CYCLES: u64 = 15_395;
const MODEL_DRAM_BYTES: u64 = 100_758;

/// How the generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Poisson arrivals at [`OPEN_RATE`] into a one-worker server.
    Open,
    /// [`CLOSED_OUTSTANDING`] requests in flight into a two-worker server.
    Closed,
}

impl Traffic {
    fn config(self) -> ServeConfig {
        let workers = match self {
            Traffic::Open => 1,
            Traffic::Closed => 2,
        };
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }
}

/// One completed request of the timed window.
struct Sample {
    latency_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    lag_ms: f64,
}

/// What the generator saw in one stretch of traffic.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    rejected: u64,
    shed: u64,
    timed_out: u64,
    failed: u64,
    /// When each response that counts toward throughput resolved, in
    /// seconds after the stretch began.
    done_s: Vec<f64>,
}

impl Tally {
    fn lost(&self) -> u64 {
        self.rejected + self.shed + self.timed_out + self.failed
    }

    /// A refused submit: counted, never retried.
    fn refused(&mut self, err: ServeError) -> Result<(), Fail> {
        match err {
            ServeError::QueueFull { .. } => self.rejected += 1,
            ServeError::Overloaded | ServeError::Unavailable { .. } => self.shed += 1,
            other => return Err(Fail::broken("submit", other)),
        }
        Ok(())
    }

    /// A request that resolved without a response.
    fn unanswered(&mut self, err: ServeError) {
        match err {
            ServeError::Timeout => self.timed_out += 1,
            _ => self.failed += 1,
        }
    }
}

/// Runs one serving workload and fills `m`; returns (attempted, failed).
pub fn run(
    traffic: Traffic,
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    corrupt_golden: bool,
    m: &mut Metrics,
) -> Result<(u64, u64), Fail> {
    let model = Model::new(
        tr,
        resnet50_graph_scaled(16, 16),
        FeatherConfig::new(8, 16),
        seed,
        corrupt_golden,
    )?;

    tr.open("bench.setup");
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (mut register, mut first) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        // The previous server shuts down outside the timed set-up.
        drop(server.take());
        let (s, times) = set_up(tr, traffic.config(), &model)?;
        setups.push(times[0]);
        register.push(times[1]);
        first.push(times[2]);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    tr.close();

    tr.open("bench.warmup");
    let warmup_misses = program_misses(&server);
    prime(&server, &model)?;
    let (mut rounds, mut quiet) = (0, 0);
    while quiet < WARMUP_QUIET_ROUNDS && rounds < WARMUP_MAX_ROUNDS {
        let misses = program_misses(&server);
        let mut rng = Rng::new(seed, stream::WARMUP + rounds as u64);
        generate(traffic, &server, &model, &mut rng, WARMUP_ROUND, None)?;
        rounds += 1;
        quiet = if program_misses(&server) == misses {
            quiet + 1
        } else {
            0
        };
    }
    let warmup_misses = program_misses(&server) - warmup_misses;
    tr.close();

    let (stats_before, misses_before) = (server.stats(), program_misses(&server));
    tr.open("bench.window");
    let mut rng = Rng::new(seed, stream::TRAFFIC);
    let window = Duration::from_secs(seconds);
    let tally = generate(traffic, &server, &model, &mut rng, window, Some(&mut *tr))?;
    tr.close();
    let (stats_after, misses_after) = (server.stats(), program_misses(&server));
    drop(server);

    tr.open("bench.probe");
    let config = model.config;
    let build = || GraphSession::auto(config, &model.graph);
    let reps = if tr.enabled() { PROBE_REPS } else { 1 };
    let run = probe(tr, &model, &build, reps, m)?;
    tr.close();
    same_count(
        "serving model: modeled cycles of one inference",
        run.report.total_cycles(),
        MODEL_CYCLES,
    )?;
    same_count(
        "serving model: modeled DRAM bytes of one inference",
        run.report.dram_bytes(),
        MODEL_DRAM_BYTES,
    )?;

    let lat: Vec<f64> = tally.samples.iter().map(|s| s.latency_ms).collect();
    let mut done = tally.done_s.clone();
    done.sort_by(f64::total_cmp);
    let rate = |p: &[f64]| Some((p.len() - 1) as f64 / (p[p.len() - 1] - p[0]));
    m.set("setup_s", median(&setups));
    m.set(
        "latency_p50_ms",
        required_over_parts(&lat, |p| Some(median(p)), "latency")?,
    );
    m.set(
        "throughput_rps",
        required_over_parts(&done, rate, "responses")?,
    );
    m.note_tails(&lat);
    m.note(
        "failed_frac",
        tally.lost() as f64 / tally.attempted as f64,
        "ratio",
        &format!("{} of {} attempted", tally.lost(), tally.attempted),
    );
    m.note(
        "warmup_rounds",
        rounds as f64,
        "count",
        &format!("2 s rounds; {warmup_misses} programs compiled"),
    );

    let pick = |f: fn(&Sample) -> f64| tally.samples.iter().map(f).collect::<Vec<f64>>();
    let (queue, exec, lag) = (
        pick(|s| s.queue_ms),
        pick(|s| s.exec_ms),
        pick(|s| s.lag_ms),
    );
    m.set("serve.queue_ms.p50", median(&queue));
    m.set_some("serve.queue_ms.p99", percentile(&queue, 99.0));
    m.set("serve.exec_ms.p50", median(&exec));
    m.set_some("serve.exec_ms.p99", percentile(&exec, 99.0));
    m.set_some("serve.gen_lag_ms.p99", percentile(&lag, 99.0));
    let (batches, batched) = batches_between(&stats_before, &stats_after);
    m.set("serve.batch_mean", batched as f64 / batches.max(1) as f64);
    m.set("serve.batches", batches as f64);
    m.set(
        "serve.max_concurrent_batches",
        stats_after.max_concurrent_batches as f64,
    );
    m.set(
        "serve.program_misses",
        (misses_after - misses_before) as f64,
    );
    m.set(
        "serve.retries",
        (stats_after.retries - stats_before.retries) as f64,
    );
    m.set("serve.rejected", tally.rejected as f64);
    m.set("serve.shed", tally.shed as f64);
    m.set("serve.timed_out", tally.timed_out as f64);
    m.set("serve.failed", tally.failed as f64);
    m.set("serve.register_ms", median(&register));
    m.set("serve.first_response_ms", median(&first));
    Ok((tally.attempted, tally.lost()))
}

/// Starts a server, registers the model and waits for a first verified
/// response. Returns the server and the seconds of the whole set-up, then
/// the milliseconds of registration and of the first response.
fn set_up(tr: &mut Tracer, cfg: ServeConfig, model: &Model) -> Result<(Server, [f64; 3]), Fail> {
    let weights = model.weights.clone();
    let image = model.images[0].clone();
    let start = Instant::now();
    let (server, _) = tr.time("serve.start", || Server::with_fault_plan(cfg, None));
    let (registered, reg) = tr.time("serve.register", || {
        server.register_model(MODEL, model.config, &model.graph, weights)
    });
    registered.map_err(|e| Fail::broken("register_model", e))?;
    let (response, first) = tr.time("serve.first_response", || {
        server.submit(TENANT, MODEL, image).and_then(Ticket::wait)
    });
    let setup = start.elapsed();
    let response = response.map_err(|e| Fail::broken("first request", e))?;
    same_output("first response", &response.oacts, &model.goldens[0])?;
    Ok((server, [setup.as_secs_f64(), ms(reg), ms(first)]))
}

/// Sends bursts of 1 to `max_batch` simultaneous requests, so that the
/// server compiles a program for each batch size it can form before the
/// workload's own traffic takes over. Light traffic forms large batches
/// only rarely, and each first one would compile inside the timed window.
fn prime(server: &Server, model: &Model) -> Result<(), Fail> {
    for burst in 1..=server.config().max_batch {
        let tickets = (0..burst)
            .map(|i| {
                let image = i % model.images.len();
                let ticket = server.submit(TENANT, MODEL, model.images[image].clone());
                ticket.map(|t| (t, image))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| Fail::broken("warm-up submit", e))?;
        for (ticket, image) in tickets {
            let r = ticket
                .wait()
                .map_err(|e| Fail::broken("warm-up request", e))?;
            same_output("warm-up response", &r.oacts, &model.goldens[image])?;
        }
    }
    Ok(())
}

/// Sends `traffic` for `length`, checks every response, and records a span
/// per request when `tr` is given.
fn generate(
    traffic: Traffic,
    server: &Server,
    model: &Model,
    rng: &mut Rng,
    length: Duration,
    tr: Option<&mut Tracer>,
) -> Result<Tally, Fail> {
    match traffic {
        Traffic::Open => {
            let count = (OPEN_RATE * length.as_secs_f64()).round() as usize;
            let arrivals = poisson(rng, OPEN_RATE, count, model.images.len());
            open_loop(server, model, &arrivals, tr)
        }
        Traffic::Closed => closed_loop(server, model, rng, length, tr),
    }
}

/// Sends each arrival when it is due, then collects the responses. The one
/// generator thread sleeps between arrivals and so cannot see completions;
/// each request's latency is its generator lag (due → submit) plus the
/// server's own submit → response time.
fn open_loop(
    server: &Server,
    model: &Model,
    arrivals: &[Arrival],
    mut tr: Option<&mut Tracer>,
) -> Result<Tally, Fail> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut sent = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let due = start + a.due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let iacts = model.images[a.image].clone();
        let submitted = Instant::now();
        tally.attempted += 1;
        match server.submit(TENANT, MODEL, iacts) {
            Ok(ticket) => sent.push((ticket, a.image, due, submitted)),
            Err(e) => tally.refused(e)?,
        }
    }
    for (ticket, image, due, submitted) in sent {
        let id = ticket.id();
        match ticket.wait() {
            Ok(r) => {
                same_output("response", &r.oacts, &model.goldens[image])?;
                let done = record(&mut tally, tr.as_deref_mut(), id, &r, due, submitted);
                tally.done_s.push((done - start).as_secs_f64());
            }
            Err(e) => tally.unanswered(e),
        }
    }
    Ok(tally)
}

/// Keeps [`CLOSED_OUTSTANDING`] requests in flight for `length`: each
/// collected response is replaced by a new request. Throughput counts the
/// responses collected within `length`; the requests still in flight at its
/// end are collected and checked too.
fn closed_loop(
    server: &Server,
    model: &Model,
    rng: &mut Rng,
    length: Duration,
    mut tr: Option<&mut Tracer>,
) -> Result<Tally, Fail> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let deadline = start + length;
    let mut in_flight = VecDeque::with_capacity(CLOSED_OUTSTANDING);
    loop {
        while in_flight.len() < CLOSED_OUTSTANDING && Instant::now() < deadline {
            let image = rng.below(model.images.len());
            let iacts = model.images[image].clone();
            let submitted = Instant::now();
            tally.attempted += 1;
            match server.submit(TENANT, MODEL, iacts) {
                Ok(ticket) => in_flight.push_back((ticket, image, submitted)),
                Err(e) => tally.refused(e)?,
            }
        }
        let Some((ticket, image, submitted)) = in_flight.pop_front() else {
            break;
        };
        let id = ticket.id();
        match ticket.wait() {
            Ok(r) => {
                same_output("response", &r.oacts, &model.goldens[image])?;
                record(&mut tally, tr.as_deref_mut(), id, &r, submitted, submitted);
                let collected = Instant::now();
                if collected <= deadline {
                    tally.done_s.push((collected - start).as_secs_f64());
                }
            }
            Err(e) => tally.unanswered(e),
        }
    }
    Ok(tally)
}

/// Records a verified response as a sample and, when tracing, as a
/// request span (from `due`) with its generator-lag, queue and execution
/// children. Returns when the response resolved.
fn record(
    tally: &mut Tally,
    tr: Option<&mut Tracer>,
    id: u64,
    r: &Response,
    due: Instant,
    submitted: Instant,
) -> Instant {
    let launched = submitted + Duration::from_micros(r.queue_us);
    let done = submitted + Duration::from_micros(r.latency_us);
    let lag = submitted - due;
    tally.samples.push(Sample {
        latency_ms: ms(lag) + r.latency_us as f64 / 1e3,
        queue_ms: r.queue_us as f64 / 1e3,
        exec_ms: r.latency_us.saturating_sub(r.queue_us) as f64 / 1e3,
        lag_ms: ms(lag),
    });
    if let Some(tr) = tr {
        let span = tr.record("serve.request", due, done, Some(id));
        tr.record_in(span, "bench.gen_lag", due, submitted);
        tr.record_in(span, "serve.queue", submitted, launched);
        tr.record_in(span, "serve.exec", launched, done);
    }
    done
}

fn program_misses(server: &Server) -> u64 {
    server
        .program_cache_stats(MODEL)
        .expect("the model is registered")
        .misses
}

/// Batches executed between two snapshots, and the requests they held.
fn batches_between(before: &ServerStats, after: &ServerStats) -> (u64, u64) {
    after.batches.iter().fold((0, 0), |(b, r), (&size, &n)| {
        let n = n - before.batches.get(&size).copied().unwrap_or(0);
        (b + n, r + n * size as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::COUNTS;

    /// Every modeled total and work count of the serving model, for `seed`.
    fn counts(seed: u64) -> Vec<f64> {
        let (mut tr, mut m) = (Tracer::new(false), Metrics::default());
        let model = Model::new(
            &mut tr,
            resnet50_graph_scaled(16, 16),
            FeatherConfig::new(8, 16),
            seed,
            false,
        )
        .expect("inputs and references");
        let build = || GraphSession::auto(model.config, &model.graph);
        probe(&mut tr, &model, &build, 1, &mut m).expect("probe passes");
        COUNTS
            .iter()
            .map(|name| m.get(name).expect("probe sets every count"))
            .collect()
    }

    #[test]
    fn modeled_counts_match_history_and_ignore_the_seed() {
        let first = counts(1);
        assert_eq!(first[0], MODEL_CYCLES as f64);
        assert_eq!(first[1], MODEL_DRAM_BYTES as f64);
        assert_eq!(first, counts(2));
    }
}
