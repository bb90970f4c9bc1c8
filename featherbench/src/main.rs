//! The repository's benchmark: three workloads across `layoutloop`,
//! `feather` and `feather-serve`, timed from outside through their public
//! functions. See README.md for the workloads and metrics.
//!
//! ```text
//! featherbench --workload <serve_open|serve_closed|cosearch_resnet>
//!              --seed <n> --seconds <n> --trace <0|1> [--corrupt-golden]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced). Any output mismatch exits with code 1 and no
//! result line.

mod check;
mod cosearch;
mod inputs;
mod metrics;
mod model;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::time::Instant;

use check::Fail;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["serve_open", "serve_closed", "cosearch_resnet"];

/// Environment variables that change the program's configuration behind
/// the benchmark's back; a run refuses to start while any is set.
const REFUSED_ENV: &[&str] = &["FEATHER_FAULT_PLAN", "FEATHER_CACHE_DIR", "FEATHER_THREADS"];
const REFUSED_ENV_PREFIX: &str = "FEATHER_SERVE_";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_golden: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, Fail> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut corrupt_golden = false;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| Fail::Usage(format!("{flag} needs a value")))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| Fail::Usage(format!("{flag} takes a whole number, got `{v}`")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => trace = Some(number(value()?)?),
            "--corrupt-golden" => corrupt_golden = true,
            other => return Err(Fail::Usage(format!("unknown argument `{other}`"))),
        }
    }
    let workload = workload.ok_or_else(|| Fail::Usage("--workload is required".into()))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(Fail::Usage(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        )));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(Fail::Usage(format!("--trace is 0 or 1, got {t}"))),
    };
    let seconds = seconds.unwrap_or(30);
    if seconds == 0 {
        return Err(Fail::Usage("--seconds must be at least 1".into()));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| Fail::Usage("--seed is required".into()))?,
        seconds,
        trace,
        corrupt_golden,
    })
}

fn refuse_env() -> Result<(), Fail> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with(REFUSED_ENV_PREFIX))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(Fail::Usage(format!(
            "refusing to run with {set:?} set: they reconfigure the program under test"
        )))
    }
}

fn main() {
    match run(std::env::args().skip(1)) {
        Ok(line) => println!("{line}"),
        Err(fail) => {
            eprintln!("featherbench: {fail}");
            std::process::exit(fail.code());
        }
    }
}

/// Runs one workload and returns the result line.
fn run(args: impl Iterator<Item = String>) -> Result<String, Fail> {
    let args = parse_args(args)?;
    refuse_env()?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "featherbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );

    let started = Instant::now();
    let mut tr = Tracer::new(args.trace);
    let mut m = Metrics::default();
    // The one layer each workload leaves alone reads 0.
    let idle_layer = if args.workload == "cosearch_resnet" {
        "serve."
    } else {
        "layoutloop."
    };
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(idle_layer)) {
        m.set(name, 0.0);
    }
    tr.open("bench.run");
    let (seed, secs, corrupt) = (args.seed, args.seconds, args.corrupt_golden);
    let (attempted, failed) = match args.workload.as_str() {
        "serve_open" => serve::run(serve::Traffic::Open, seed, secs, &mut tr, corrupt, &mut m)?,
        "serve_closed" => serve::run(serve::Traffic::Closed, seed, secs, &mut tr, corrupt, &mut m)?,
        _ => cosearch::run(seed, secs, &mut tr, corrupt, &mut m)?,
    };
    tr.close();
    m.set("peak_rss_mb", peak_rss_mb()?);

    if args.trace {
        let self_ms = tr.self_ms_by_layer();
        for name in [
            "self_ms.bench",
            "self_ms.serve",
            "self_ms.feather",
            "self_ms.layoutloop",
        ] {
            let layer = name.trim_start_matches("self_ms.");
            m.set(name, self_ms.get(layer).copied().unwrap_or(0.0));
        }
        m.set("trace.spans", tr.spans().len() as f64);
        for (e2e, traced) in [
            ("setup_s", "trace.setup_s"),
            ("latency_p50_ms", "trace.latency_p50_ms"),
            ("throughput_rps", "trace.throughput_rps"),
        ] {
            m.set(
                traced,
                m.get(e2e)
                    .expect("every workload sets the end-to-end metrics"),
            );
        }
        let path = write_trace(&tr, &args)?;
        println!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    }

    print_report(&m, args.trace, attempted, failed);
    println!("wall time {:.1} s", started.elapsed().as_secs_f64());
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    m.result_line(list, attempted, failed).map_err(Fail::Broken)
}

/// The readable report: every metric with its unit, then the notes.
fn print_report(m: &Metrics, trace: bool, attempted: u64, failed: u64) {
    println!("attempted {attempted}, failed {failed}");
    let lists: &[&[(&str, &str)]] = if trace {
        &[END_TO_END, PER_LAYER]
    } else {
        &[END_TO_END]
    };
    for &(name, unit) in lists.iter().copied().flatten() {
        let value = m.get(name).unwrap_or(f64::NAN);
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    for (name, value, unit, note) in &m.notes {
        println!("  {name:<32} {value:>16.4} {unit}  ({note})");
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Fail::broken("reading /proc/self/status", e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Fail::Broken("no VmHWM in /proc/self/status".into()))
}

/// Directory of the repository this benchmark lives in.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The checked-out commit, read from `.git` without running git, or
/// `none` outside a git checkout.
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

/// Writes the spans as JSON lines under `featherbench/out/`.
fn write_trace(tr: &Tracer, args: &Args) -> Result<std::path::PathBuf, Fail> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| Fail::broken("creating the trace directory", e))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tr.to_json_lines()).map_err(|e| Fail::broken("writing the trace", e))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, Fail> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve_open --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_open", 4, 10, true)
        );
        assert!(!a.corrupt_golden);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload serve_open",
            "--workload serve_open --seed x",
            "--workload serve_open --seed 1 --trace 2",
            "--workload serve_open --seed 1 --seconds 0",
            "--workload serve_open --seed 1 --frobnicate",
        ] {
            assert!(matches!(args(bad), Err(Fail::Usage(_))), "accepted `{bad}`");
        }
    }
}
