//! Metric catalog and the result line.
//!
//! The end-to-end and per-layer names here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

use crate::stats::{quantile, support_note};
use crate::trace::NameStat;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("latency_best_us", "us"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("pattern.parse_us", "us"),
    ("pattern.print_us", "us"),
    ("pattern.canonical_key_us", "us"),
    ("constraints.parse_us", "us"),
    ("constraints.closure_ms", "ms"),
    ("constraints.closed_len", "count"),
    ("core.cdm_us", "us"),
    ("core.cdm_removed", "count"),
    ("core.augment_us", "us"),
    ("core.augment_nodes_added", "count"),
    ("core.cim_us", "us"),
    ("core.redundancy_tests", "count"),
    ("core.cim_removed", "count"),
    ("core.tables_us", "us"),
    ("core.tables_share", "ratio"),
    ("core.minimize_us", "us"),
    ("core.engine_us", "us"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.key_pass_ms", "ms"),
    ("core.worker_busy_share", "ratio"),
    ("base.pool_steals", "count"),
    ("data.xml_parse_ms", "ms"),
    ("data.index_ms", "ms"),
    ("match.eval_us", "us"),
    ("match.nodes_per_s", "1/s"),
    ("match.answers", "count"),
    ("match.minimize_share", "ratio"),
    ("serve.queue_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.minimize_us", "us"),
    ("serve.render_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.outside_us", "us"),
    ("serve.shed", "count"),
    ("serve.backpressure_stalls", "count"),
    ("obs.flight_dropped", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_share", "ratio"),
];

/// Span name → per-layer metric reporting its mean self time, and the
/// divisor from nanoseconds to the metric's unit.
const SELF_TIME_METRICS: [(&str, &str, f64); 12] = [
    ("pattern.parse", "pattern.parse_us", 1e3),
    ("pattern.print", "pattern.print_us", 1e3),
    ("pattern.canonical_key", "pattern.canonical_key_us", 1e3),
    ("constraints.parse", "constraints.parse_us", 1e3),
    ("constraints.closure", "constraints.closure_ms", 1e6),
    ("core.cdm", "core.cdm_us", 1e3),
    ("core.augment", "core.augment_us", 1e3),
    ("core.cim", "core.cim_us", 1e3),
    ("core.engine", "core.engine_us", 1e3),
    ("data.xml_parse", "data.xml_parse_ms", 1e6),
    ("data.index", "data.index_ms", 1e6),
    ("match.eval", "match.eval_us", 1e3),
];

/// Span name → per-layer metric reporting its mean *inclusive* duration:
/// spans that wrap a layer's sub-steps.
const INCLUSIVE_METRICS: [(&str, &str, f64); 2] =
    [("core.minimize", "core.minimize_us", 1e3), ("core.key_pass", "core.key_pass_ms", 1e6)];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a single reading).
    pub samples: usize,
}

/// A workload run's verdict and numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that failed, were refused or shed, or answered wrong.
    pub failed: u64,
    /// First few failure descriptions (program defects).
    pub defects: Vec<String>,
    /// Reported metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one failed operation, keeping its description if there is
    /// room.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.defects.len() < 8 {
            self.defects.push(what);
        }
    }

    /// Operations that failed over operations attempted.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number (non-finite values print as 0 would hide a
/// defect, so they print as a very large number instead).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Note the p50, p95 and p99 (nearest rank) of latencies in
/// microseconds, and a p99 too few samples support. They are printed,
/// not reported: on a shared host they follow the neighbours' load more
/// than the program (README.md).
pub fn latency_notes(us: &[f64], notes: &mut Vec<String>) {
    let (p50, p95, p99) = (quantile(us, 0.5), quantile(us, 0.95), quantile(us, 0.99));
    notes.push(format!(
        "latency p50 {:.1} us, p95 {:.1} us, p99 {:.1} us (printed only, n={})",
        p50.value,
        p95.value,
        p99.value,
        us.len()
    ));
    notes.extend(support_note("latency p99", &p99));
}

/// Builder for the end-to-end metric set: every catalog name must be set.
#[derive(Debug, Default)]
pub struct EndToEnd {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl EndToEnd {
    /// Record `name` (a catalog name) with its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "unknown end-to-end metric {name}");
        self.values.insert(name, (value, samples));
    }

    /// The metrics in catalog order. Panics if one was never set: a
    /// workload must define every end-to-end metric.
    pub fn finish(self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) =
                    *self.values.get(name).unwrap_or_else(|| panic!("{name} was not measured"));
                Metric { name, value, unit, samples }
            })
            .collect()
    }
}

/// Builder for the per-layer metric set. Layers a workload does not run
/// report 0 and are listed in [`Layers::idle`].
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Record `name` (a catalog name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// Record the self-time and inclusive-time metrics of every span name
    /// that ran.
    pub fn record_spans(&mut self, stats: &BTreeMap<&'static str, NameStat>) {
        for (span, metric, div) in SELF_TIME_METRICS {
            if let Some(s) = stats.get(span).filter(|s| s.count > 0) {
                self.set(metric, s.self_ns as f64 / s.count as f64 / div);
            }
        }
        for (span, metric, div) in INCLUSIVE_METRICS {
            if let Some(s) = stats.get(span).filter(|s| s.count > 0) {
                self.set(metric, s.total_ns as f64 / s.count as f64 / div);
            }
        }
    }

    /// Catalog names this run left unmeasured.
    pub fn idle(&self) -> Vec<&'static str> {
        PER_LAYER.iter().map(|(n, _)| *n).filter(|n| !self.values.contains_key(n)).collect()
    }

    /// The metrics in catalog order, unmeasured ones as 0.
    pub fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
                samples: 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::Json;

    /// The names and units this program emits are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut e2e = EndToEnd::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            e2e.set(name, 1.5 + i as f64, 3);
        }
        let mut out = Outcome { attempted: 10, metrics: e2e.finish(), ..Outcome::default() };
        out.fail("wrong".into());
        let json = Json::parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
        let m = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn latency_notes_print_the_percentiles() {
        let us: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let mut notes = Vec::new();
        latency_notes(&us, &mut notes);
        assert_eq!(
            notes,
            ["latency p50 500.0 us, p95 950.0 us, p99 990.0 us (printed only, n=1000)"]
        );
        latency_notes(&us[..100], &mut notes);
        assert!(notes[2].starts_with("latency p99 rests on 100 samples"), "{notes:?}");
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn every_end_to_end_metric_must_be_set() {
        EndToEnd::default().finish();
    }

    #[test]
    fn idle_layers_report_zero() {
        let mut l = Layers::default();
        l.set("core.cdm_us", 2.0);
        assert_eq!(l.idle().len(), PER_LAYER.len() - 1);
        let m = l.finish();
        assert_eq!(m.iter().find(|m| m.name == "core.cdm_us").unwrap().value, 2.0);
        assert_eq!(m.iter().find(|m| m.name == "core.cim_us").unwrap().value, 0.0);
    }
}
