//! The metrics the benchmark reports, their units, and the result line.
//!
//! Every workload reports every metric of one list: the end-to-end list on
//! untraced runs, the per-layer list on traced runs. Per-layer metrics of
//! the layer a workload does not exercise read 0: `serve.*` on
//! `cosearch_resnet`, `layoutloop.*` on the serving workloads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median_over_parts, percentile};

/// End-to-end metrics: what a user of the system sees. None is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("model_cycles", "cycles"),
    ("model_dram_bytes", "B"),
    ("model_energy_pj", "pJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run. The layer is the name's prefix.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.exec_ms.p99", "ms"),
    ("serve.batch_mean", "req/batch"),
    ("serve.batches", "count"),
    ("serve.max_concurrent_batches", "count"),
    ("serve.program_misses", "count"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.failed", "count"),
    ("serve.register_ms", "ms"),
    ("serve.first_response_ms", "ms"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("feather.build_ms", "ms"),
    ("feather.compile_ms", "ms"),
    ("feather.replay_ms", "ms"),
    ("feather.replay8_ms_per_sample", "ms"),
    ("feather.interp_ms", "ms"),
    ("feather.ops", "count"),
    ("feather.stab_swaps", "count"),
    ("birrd.route_fires", "count"),
    ("birrd.passes", "count"),
    ("birrd.adds", "count"),
    ("nest.macs", "count"),
    ("memsim.stall_cycles", "cycles"),
    ("layoutloop.plan_ms", "ms"),
    ("layoutloop.tables_computed", "count"),
    ("layoutloop.table_hits", "count"),
    ("layoutloop.est_cycles", "cycles"),
    ("layoutloop.est_energy_pj", "pJ"),
    ("self_ms.bench", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.feather", "ms"),
    ("self_ms.layoutloop", "ms"),
    ("trace.spans", "count"),
    ("trace.setup_s", "s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.throughput_rps", "1/s"),
];

/// Metric values by name, plus report-only lines that are printed for
/// people but are not part of the result line.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// `(name, value, unit, note)` lines shown only in the readable report.
    pub notes: Vec<(String, f64, &'static str, String)>,
}

impl Metrics {
    /// Sets a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit(name).is_some(),
            "metric `{name}` is not declared in END_TO_END or PER_LAYER"
        );
        self.values.insert(name, value);
    }

    /// Sets a metric when it could be measured.
    pub fn set_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.set(name, value);
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a report-only line.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        self.notes
            .push((name.into(), value, unit, note.to_string()));
    }

    /// Notes the latency tail: p90 as a median over sub-windows, like
    /// `latency_p50_ms`, and p99 over the whole window, each only where at
    /// least ten samples lie beyond it. Tails are reported, not gated: they
    /// swing with the host's speed far more than the median does.
    pub fn note_tails(&mut self, latency_ms: &[f64]) {
        let n = format!("{} samples", latency_ms.len());
        if let Some(p90) = median_over_parts(latency_ms, |p| percentile(p, 90.0)) {
            self.note("latency_p90_ms", p90, "ms", &n);
        }
        if let Some(p99) = percentile(latency_ms, 99.0) {
            self.note("latency_p99_ms", p99, "ms", &n);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `list`. Fails if one is missing or not a finite number, or if an
    /// end-to-end metric is not positive.
    pub fn result_line(
        &self,
        list: &[(&'static str, &'static str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, &(name, unit)) in list.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured (too few samples?)"))?;
            if !value.is_finite() || (list == END_TO_END && value <= 0.0) {
                return Err(format!("metric `{name}` has no valid value: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The declared unit of a metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_refuses_missing_and_zero_metrics() {
        let mut m = Metrics::default();
        assert!(m.result_line(END_TO_END, 1, 0).is_err());
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = m.result_line(END_TO_END, 3, 0).expect("all set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        m.set("model_cycles", 0.0);
        assert!(m.result_line(END_TO_END, 3, 0).is_err());
    }
}
