//! The metric catalogue (names and units, as `BENCHMARK.json` lists them)
//! and the result line every run ends with.

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every run with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sweep_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every run with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("particles.sample_ms", "ms"),
    ("particles.count", "count"),
    ("assignment.build_ms", "ms"),
    ("assignment.dense_builds", "count"),
    ("assignment.dense_bytes", "B"),
    ("assignment.fallbacks", "count"),
    ("ffi.tree_build_ms", "ms"),
    ("ffi.tree_entries", "count"),
    ("machine.build_ms", "ms"),
    ("machine.builds", "count"),
    ("machine.oracle_bytes", "B"),
    ("machine.bytes_computed", "B"),
    ("machine.ops_per_byte", "op/B"),
    ("nfi.ms", "ms"),
    ("nfi.calls", "count"),
    ("nfi.comms", "count"),
    ("nfi.comms_per_us", "1/us"),
    ("nfi.bytes_computed", "B"),
    ("nfi.ops_per_byte", "op/B"),
    ("ffi.ms", "ms"),
    ("ffi.calls", "count"),
    ("ffi.interp_comms", "count"),
    ("ffi.anterp_comms", "count"),
    ("ffi.ilist_comms", "count"),
    ("ffi.comms_per_us", "1/us"),
    ("ffi.bytes_computed", "B"),
    ("ffi.ops_per_byte", "op/B"),
    ("runner.cells", "count"),
    ("runner.cell_p50_ms", "ms"),
    ("runner.cell_max_ms", "ms"),
    ("runner.in_cell_unattributed_ms", "ms"),
    ("runner.outside_cells_ms", "ms"),
    ("runner.retries", "count"),
    ("artifact.serialize_ms", "ms"),
    ("cache.mem_hit_us", "us"),
    ("cache.disk_hit_us", "us"),
    ("cache.store_ms", "ms"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.mem_evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.mem_hit_us", "us"),
    ("serve.disk_hit_us", "us"),
    ("serve.compute_ms", "ms"),
    ("serve.overhead_us", "us"),
    ("serve.computations", "count"),
    ("serve.dedups", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.compute_wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("host.calibration_ms", "ms"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: compute calls, requests, replays and checks.
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Context printed beside the result, such as the tail percentile.
    pub notes: Map,
}

impl Outcome {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# FAILED: {what}");
        }
    }

    /// Attempted operations that succeeded, as a share of all attempted.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, and every
/// metric of `catalogue` with its unit. A metric the run did not record,
/// or a value that is not a finite number, is a bug in the benchmark.
pub fn result_line(outcome: &Outcome, catalogue: &[(&'static str, &'static str)]) -> String {
    let mut metrics = Map::new();
    for &(name, unit) in catalogue {
        let value = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not recorded"));
        assert!(value.is_finite(), "metric {name} is {value}");
        metrics.insert(name, json!({ "value": value, "unit": unit }));
    }
    let doc = json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&doc).expect("serialize result")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalogue must name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, "a");
        o.check(false, "b");
        for (name, _) in END_TO_END {
            o.metrics.set(name, 1.5);
        }
        let v: Value = serde_json::from_str(&result_line(&o, &END_TO_END)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], false);
        assert_eq!(v["attempted"], 2);
        assert_eq!(v["metrics"]["sweep_s"]["unit"], "s");
        assert_eq!(o.ok_ratio(), 0.5);
    }
}
