//! Metric names, units and the result line.

use crate::trace_agg::Agg;
use crate::{host, stats, Opts};

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). A workload
/// that lacks the layer (`serve.*` outside `serve_poisson`, say) reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("conv.input_transform_ms", "ms"),
    ("conv.output_transform_ms", "ms"),
    ("conv.gemm_ms", "ms"),
    ("conv.VGG16_c_ms", "ms"),
    ("conv.ResNet-50_b_ms", "ms"),
    ("conv.ResNet-50_c_ms", "ms"),
    ("conv.GoogLeNet_c_ms", "ms"),
    ("conv.YOLOv3_a_ms", "ms"),
    ("conv.YOLOv3_c_ms", "ms"),
    ("conv.useful_gmacs", "GMAC/s"),
    ("gemm.executed_macs", "count"),
    ("gemm.padded_mac_ratio", "ratio"),
    ("gemm.gmacs", "GMAC/s"),
    ("gemm.roof_pct", "%"),
    ("gemm.pack_ms", "ms"),
    ("pool.phases_per_unit", "count"),
    ("pool.idle_ms", "ms"),
    ("pool.steals", "count"),
    ("graph.conv_ms", "ms"),
    ("graph.glue_ms", "ms"),
    ("graph.bookkeeping_ms", "ms"),
    ("graph.plan_bytes", "bytes"),
    ("serve.batch_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.outside_batch_ms", "ms"),
    ("serve.batch_occupancy", "ratio"),
    ("serve.padded_rows_ratio", "ratio"),
    ("serve.max_queue_depth", "count"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("quant.saturated_ratio", "ratio"),
    ("quant.rel_l2_error", "ratio"),
    ("host.vnni_roof_gmacs", "GMAC/s"),
    ("host.copy_gbs", "GB/s"),
    ("trace.overhead_pct", "%"),
];

/// One measured value, with the number of samples behind it. Its unit is
/// the one [`END_TO_END`] or [`PER_LAYER`] gives the name.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            value,
            samples,
        }
    }
}

/// What one run found: operation accounting and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run: passes, forwards or requests, plus cold builds.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// Some output was wrong (a failure other than a refused request).
    pub wrong: bool,
    pub metrics: Vec<Metric>,
    /// Extra accounting printed on the line before the result.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Record a wrong output or an error; the run continues where it can.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: {why}");
        self.attempted += 1;
        self.failed += 1;
        self.wrong = true;
    }

    /// Account one checked operation.
    pub fn check<T>(&mut self, r: Result<T, String>) {
        match r {
            Ok(_) => self.attempted += 1,
            Err(e) => self.fail(e),
        }
    }

    pub fn ok(&self) -> bool {
        !self.wrong
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: the metric set of this run's kind, each by name and
    /// unit, with 0 for a per-layer metric the workload does not have.
    pub fn result_json(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = self.value(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ok() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Sample counts and accounting notes, one JSON object.
    pub fn notes_json(&self) -> String {
        let mut fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}.samples\":{}", m.name, m.samples))
            .collect();
        fields.extend(self.notes.iter().map(|(k, v)| format!("\"{k}\":{v}")));
        format!("{{{}}}", fields.join(","))
    }
}

/// The end-to-end metrics of an untraced run: median and p99 of the unit
/// latencies, the median cold set-up, and the peak resident set.
pub fn push_end_to_end(out: &mut Outcome, unit_ms: Vec<f64>, setup_s: f64, setup_samples: usize) {
    let n = unit_ms.len();
    let sorted = stats::sorted(unit_ms);
    out.push(Metric::new("p50_ms", stats::median(&sorted), n));
    out.push(Metric::new("p99_ms", stats::percentile(&sorted, 0.99), n));
    out.note("p99_ms.samples_beyond", stats::samples_beyond(n, 0.99));
    out.push(Metric::new("setup_s", setup_s, setup_samples));
    out.push(Metric::new("peak_rss_mb", host::peak_rss_mb(), 1));
}

/// The per-layer metrics every workload derives the same way: pool and
/// quantization counters, roof probes and the tracing overhead.
pub fn push_common(
    out: &mut Outcome,
    agg: &Agg,
    opts: &Opts,
    plain_p50: f64,
    traced: &[f64],
    gemm_gmacs: f64,
) {
    let units = agg.units().max(1) as f64;
    let n = agg.units() as usize;
    out.push(Metric::new(
        "pool.phases_per_unit",
        agg.phases_in_units as f64 / units,
        n,
    ));
    out.push(Metric::new(
        "pool.idle_ms",
        agg.per_unit_ms(agg.counter("pool/idle_ns")),
        n,
    ));
    out.push(Metric::new(
        "pool.steals",
        agg.instant("pool/steal").sum as f64 / units,
        n,
    ));
    let values = agg.counter("quant/values").max(1) as f64;
    out.push(Metric::new(
        "quant.saturated_ratio",
        agg.counter("quant/saturated") as f64 / values,
        n,
    ));
    let roof = host::vnni_roof_gmacs(opts.threads);
    out.push(Metric::new("host.vnni_roof_gmacs", roof, 1));
    out.push(Metric::new(
        "host.copy_gbs",
        host::copy_gbs(opts.threads),
        5,
    ));
    if roof > 0.0 {
        out.push(Metric::new("gemm.roof_pct", 100.0 * gemm_gmacs / roof, n));
    }
    let traced_p50 = stats::median(traced);
    out.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_p50 / plain_p50 - 1.0),
        traced.len(),
    ));
    out.note("trace.dropped_events", agg.dropped);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is `name` a legal metric name: letters, digits, `_`, `.` and `-`,
    /// starting with a letter or digit, at most 64 characters?
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for &(_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name(".p50"));
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name("conv/gemm"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory on its own
        };
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.push(Metric::new("p50_ms", 1.5, 3));
        let line = out.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        for &(name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        }
        assert!(line.contains("\"p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}"));
        assert!(lowino_testkit::validate_json(&line).is_ok());
    }
}
