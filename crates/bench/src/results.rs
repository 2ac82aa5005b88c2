//! Machine-readable export of regeneration results.
//!
//! Every binary accepts `--json <path>` and writes its artifact as one JSON
//! document with a common envelope (`artifact`, `config`, `cells`, `data`),
//! so runs can be diffed, archived, or fed to plotting scripts without
//! scraping the text tables.
//!
//! The `cells` section carries the fault-tolerance accounting: cells that
//! failed after retries (as structured errors) and cells skipped by a spent
//! `--time-budget`. Both arrays are empty for a complete run, and the
//! envelope deliberately excludes computed/replayed counts, so the artifact
//! of a resumed sweep is byte-identical to an uninterrupted one.

use crate::args::SweepArgs;
use crate::figures::{AnnsSweep, ProcessorSweep, TopologySweep};
use crate::tables::CurvePairGrid;
use serde_json::{json, Value};
use sfc_core::runner::SweepSummary;
use sfc_core::{ExperimentSpec, MetricsRegistry, Stats};
use sfc_curves::CurveKind;
use std::sync::OnceLock;

/// The bench process's metrics registry: dense-grid build accounting
/// surfaced both in the `--timing` envelope and (for embedders) through the
/// same [`MetricsRegistry`] interface `sfc-serve` exposes.
pub fn bench_registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Refresh the registry's dense-grid gauges from the process-wide counters
/// and return the pair `(dense_builds, cellmap_fallbacks)`.
fn grid_index_gauges() -> (u64, u64) {
    let registry = bench_registry();
    let builds = registry.gauge(
        "sfc_bench_dense_grid_builds",
        "Assignments built with the dense occupancy index this process",
    );
    let fallbacks = registry.gauge(
        "sfc_bench_cellmap_fallbacks",
        "Assignments that fell back to the sparse cell map this process",
    );
    builds.set(sfc_core::assignment::dense_grid_builds());
    fallbacks.set(sfc_core::assignment::cellmap_fallbacks());
    (builds.get(), fallbacks.get())
}

fn stats_json(s: &Option<Stats>) -> Value {
    match s {
        Some(s) => json!({
            "mean": s.mean,
            "std_dev": s.std_dev,
            "min": s.min,
            "max": s.max,
            "trials": s.n,
        }),
        None => Value::Null,
    }
}

fn config_json(spec: &ExperimentSpec) -> Value {
    json!({
        "scale": spec.scale,
        "trials": spec.trials,
        "seed": spec.seed,
    })
}

fn cells_json(summary: &SweepSummary) -> Value {
    let failed: Vec<Value> = summary
        .failed
        .iter()
        .map(|f| {
            json!({
                "cell": f.cell,
                "error": f.error,
                "attempts": f.attempts,
            })
        })
        .collect();
    json!({
        "failed": failed,
        "skipped": summary.skipped,
        "journal_degraded": summary.journal_degraded,
    })
}

/// Common envelope for one exported artifact. The `config` section reports
/// the spec's scale/trials/seed, so a cache replay and a fresh run of the
/// same spec serialize identically.
pub fn envelope(
    artifact: &str,
    spec: &ExperimentSpec,
    summary: &SweepSummary,
    data: Value,
) -> Value {
    json!({
        "artifact": artifact,
        "paper": "DeFord & Kalyanaraman, ICPP 2013",
        "config": config_json(spec),
        "cells": cells_json(summary),
        "data": data,
    })
}

/// The `data` section of a Table I/II curve-pair grid export.
pub fn grid_data(grids: &[CurvePairGrid]) -> Value {
    let data: Vec<Value> = grids
        .iter()
        .map(|g| {
            let block = |values: &[[Option<Stats>; 4]; 4]| -> Value {
                let rows: Vec<Value> = CurveKind::PAPER
                    .iter()
                    .enumerate()
                    .map(|(r, proc_curve)| {
                        let cols: Vec<Value> = CurveKind::PAPER
                            .iter()
                            .enumerate()
                            .map(|(p, part_curve)| {
                                json!({
                                    "particle_curve": part_curve.short_name(),
                                    "acd": stats_json(&values[r][p]),
                                })
                            })
                            .collect();
                        json!({
                            "processor_curve": proc_curve.short_name(),
                            "cells": cols,
                        })
                    })
                    .collect();
                json!(rows)
            };
            json!({
                "distribution": g.distribution.name(),
                "nfi": block(&g.nfi),
                "ffi": block(&g.ffi),
            })
        })
        .collect();
    json!(data)
}

/// The `data` section of a Figure 5 ANNS sweep export.
pub fn anns_data(sweeps: &[AnnsSweep]) -> Value {
    let data: Vec<Value> = sweeps
        .iter()
        .map(|s| {
            let series: Vec<Value> = CurveKind::PAPER
                .iter()
                .enumerate()
                .map(|(c, curve)| {
                    json!({
                        "curve": curve.short_name(),
                        "values": s.values[c],
                    })
                })
                .collect();
            json!({
                "radius": s.radius,
                "orders": s.orders,
                "series": series,
            })
        })
        .collect();
    json!(data)
}

/// The `data` section of a Figure 6 topology sweep export.
pub fn topology_data(sweep: &TopologySweep) -> Value {
    let block = |data: &Vec<Vec<Option<Stats>>>| -> Value {
        let rows: Vec<Value> = sweep
            .topologies
            .iter()
            .enumerate()
            .map(|(t, topo)| {
                let by_curve: Vec<Value> = CurveKind::PAPER
                    .iter()
                    .enumerate()
                    .map(|(c, curve)| {
                        json!({
                            "curve": curve.short_name(),
                            "acd": stats_json(&data[t][c]),
                        })
                    })
                    .collect();
                json!({ "topology": topo.name(), "series": by_curve })
            })
            .collect();
        json!(rows)
    };
    json!({ "nfi": block(&sweep.nfi), "ffi": block(&sweep.ffi) })
}

/// The `data` section of a Figure 7 processor sweep export.
pub fn processors_data(sweep: &ProcessorSweep) -> Value {
    let block = |data: &Vec<Vec<Option<Stats>>>| -> Value {
        let rows: Vec<Value> = sweep
            .processors
            .iter()
            .enumerate()
            .map(|(p, procs)| {
                let by_curve: Vec<Value> = CurveKind::PAPER
                    .iter()
                    .enumerate()
                    .map(|(c, curve)| {
                        json!({
                            "curve": curve.short_name(),
                            "acd": stats_json(&data[p][c]),
                        })
                    })
                    .collect();
                json!({ "processors": procs, "series": by_curve })
            })
            .collect();
        json!(rows)
    };
    json!({ "nfi": block(&sweep.nfi), "ffi": block(&sweep.ffi) })
}

/// Export the per-cell timing envelope for one run: wall-clock and phase
/// breakdown (sample / assign / nfi / ffi, or whatever phases the sweep
/// recorded) for every cell **computed this run**, in submission order.
/// Replayed, failed and skipped cells carry no timing. This is written to
/// the separate `--timing` path, never merged into the `--json` artifact:
/// the artifact must stay byte-identical between runs, and wall-clock
/// measurements are not.
pub fn timing_json(artifact: &str, args: &SweepArgs, summary: &SweepSummary) -> Value {
    let cells: Vec<Value> = summary
        .timings
        .iter()
        .map(|(name, t)| {
            let phases: Vec<Value> = t
                .phases
                .iter()
                .map(|(phase, ms)| json!({ "phase": phase, "ms": ms }))
                .collect();
            json!({
                "cell": name,
                "wall_ms": t.wall_ms,
                "phases": phases,
            })
        })
        .collect();
    let (dense_builds, cellmap_fallbacks) = grid_index_gauges();
    json!({
        "artifact": format!("{artifact}-timing"),
        "paper": "DeFord & Kalyanaraman, ICPP 2013",
        "config": json!({
            "scale": args.scale,
            "trials": args.trials,
            "seed": args.seed,
        }),
        "jobs": args.jobs,
        // The size the shared kernel pool was configured to: `--jobs`, or
        // `available_parallelism` without it. The vendored rayon runs every
        // kernel on its calling cell worker, so no extra threads exist.
        "rayon_threads": rayon::current_num_threads() as u64,
        "grid_index": json!({
            "dense_builds": dense_builds,
            "cellmap_fallbacks": cellmap_fallbacks,
        }),
        "cells": cells,
    })
}

/// The `data` section of any rendered [`sfc_core::report::Table`] list
/// (the `parametric` and `extensions` artifacts are plain tables).
pub fn tables_data(tables: &[sfc_core::report::Table]) -> Value {
    let data: Vec<Value> = tables
        .iter()
        .map(|t| {
            json!({
                "title": t.title(),
                "header": t.header(),
                "rows": t.rows(),
            })
        })
        .collect();
    json!(data)
}

/// Write a JSON document to `path` (pretty-printed).
pub fn write_json(path: &str, value: &Value) -> std::io::Result<()> {
    std::fs::write(path, serde_json::to_string_pretty(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::run_anns_sweep;
    use crate::tables::run_distribution;
    use sfc_core::runner::{FailedCell, SweepRunner};
    use sfc_particles::DistributionKind;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::table1(4, 1, 5)
    }

    fn tiny_args() -> SweepArgs {
        SweepArgs {
            scale: 4,
            trials: 1,
            seed: 5,
            ..SweepArgs::default()
        }
    }

    fn done() -> SweepSummary {
        SweepSummary::default()
    }

    #[test]
    fn grid_export_shape() {
        let spec = tiny_spec();
        let grid = run_distribution(
            DistributionKind::Uniform.default_params(),
            &spec,
            &mut SweepRunner::ephemeral(),
        );
        let v = envelope("table1", &spec, &done(), grid_data(&[grid]));
        assert_eq!(v["artifact"], "table1");
        assert_eq!(v["config"]["scale"], 4);
        let rows = v["data"][0]["nfi"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0]["cells"].as_array().unwrap().len(), 4);
        let acd = &rows[0]["cells"][0]["acd"];
        assert!(acd["mean"].as_f64().unwrap() >= 0.0);
        assert_eq!(acd["trials"], 1);
        assert_eq!(v["cells"]["failed"].as_array().unwrap().len(), 0);
        assert_eq!(v["cells"]["skipped"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn anns_export_shape() {
        let sweep = run_anns_sweep(1, &[1, 2, 3, 4], &mut SweepRunner::ephemeral());
        let v = envelope("figure5", &tiny_spec(), &done(), anns_data(&[sweep]));
        let series = v["data"][0]["series"].as_array().unwrap();
        assert_eq!(series.len(), 4);
        assert_eq!(series[0]["values"].as_array().unwrap().len(), 4);
        assert_eq!(series[0]["curve"], "Hilbert");
    }

    #[test]
    fn export_round_trips_through_parser() {
        let sweep = run_anns_sweep(1, &[1, 2, 3], &mut SweepRunner::ephemeral());
        let v = envelope("figure5", &tiny_spec(), &done(), anns_data(&[sweep]));
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn generic_table_export() {
        let mut t = sfc_core::report::Table::new("Demo", &["A", "B"]);
        t.push_numeric_row("x", &[1.5]);
        let v = envelope("parametric", &tiny_spec(), &done(), tables_data(&[t]));
        assert_eq!(v["artifact"], "parametric");
        assert_eq!(v["data"][0]["title"], "Demo");
        assert_eq!(v["data"][0]["rows"][0][1], "1.500");
    }

    #[test]
    fn failed_and_skipped_cells_reach_the_envelope() {
        let summary = SweepSummary {
            computed: 1,
            replayed: 0,
            failed: vec![FailedCell {
                cell: "Uniform/t0/Hilbert".into(),
                error: "chaos injection".into(),
                attempts: 3,
            }],
            skipped: vec!["Uniform/t1/Z".into()],
            journal_degraded: true,
            ..SweepSummary::default()
        };
        let v = envelope("table1", &tiny_spec(), &summary, json!([]));
        assert_eq!(v["cells"]["failed"][0]["cell"], "Uniform/t0/Hilbert");
        assert_eq!(v["cells"]["failed"][0]["attempts"], 3);
        assert_eq!(v["cells"]["skipped"][0], "Uniform/t1/Z");
        assert_eq!(v["cells"]["journal_degraded"], true);
        // Counts stay out of the envelope: a resumed complete run must be
        // byte-identical to an uninterrupted one.
        assert_eq!(v["cells"]["computed"], Value::Null);
        assert_eq!(v["cells"]["replayed"], Value::Null);
    }

    #[test]
    fn timing_envelope_lists_computed_cells_in_order() {
        let args = tiny_args();
        let mut summary = SweepSummary::default();
        summary.timings.push((
            "Uniform/t0/H".into(),
            sfc_core::CellTiming {
                wall_ms: 12.5,
                phases: vec![("sample".into(), 3.0), ("nfi".into(), 7.25)],
            },
        ));
        summary.timings.push((
            "Uniform/t0/Z".into(),
            sfc_core::CellTiming {
                wall_ms: 9.0,
                phases: vec![],
            },
        ));
        let v = timing_json("table1", &args, &summary);
        assert_eq!(v["artifact"], "table1-timing");
        assert!(v["grid_index"]["dense_builds"].as_u64().is_some());
        assert!(v["grid_index"]["cellmap_fallbacks"].as_u64().is_some());
        let cells = v["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0]["cell"], "Uniform/t0/H");
        assert_eq!(cells[0]["wall_ms"], 12.5);
        assert_eq!(cells[0]["phases"][1]["phase"], "nfi");
        assert_eq!(cells[0]["phases"][1]["ms"], 7.25);
        assert_eq!(cells[1]["cell"], "Uniform/t0/Z");
    }

    #[test]
    fn bench_registry_exports_grid_index_gauges() {
        // timing_json refreshes the gauges from the process-wide counters;
        // after one call both series scrape through the shared registry.
        let _ = timing_json("table1", &tiny_args(), &SweepSummary::default());
        let text = bench_registry().render_prometheus();
        assert!(text.contains("sfc_bench_dense_grid_builds"), "{text}");
        assert!(text.contains("sfc_bench_cellmap_fallbacks"), "{text}");
    }

    #[test]
    fn missing_stats_export_as_null() {
        assert_eq!(stats_json(&None), Value::Null);
    }

    #[test]
    fn write_json_creates_file() {
        let sweep = run_anns_sweep(1, &[1, 2], &mut SweepRunner::ephemeral());
        let v = envelope("figure5", &tiny_spec(), &done(), anns_data(&[sweep]));
        let path = std::env::temp_dir().join("sfc_bench_results_test.json");
        write_json(path.to_str().unwrap(), &v).unwrap();
        let read: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read["artifact"], "figure5");
        std::fs::remove_file(path).ok();
    }
}
