//! Driver for the extension studies beyond the paper's published
//! evaluation, covering its future-work list (Section VIII):
//!
//! 1. **Link congestion** (future work i): route every near-field message
//!    deterministically and report the maximum and mean link load per curve —
//!    does the ACD winner also spread traffic evenly?
//! 2. **3-D ANNS** (future work ii): does the Figure 5 inversion (Z and
//!    row-major beating Hilbert and Gray) persist in three dimensions?
//! 3. **3-D ACD** (future work ii): the full communication model on an
//!    octree with 3-D interconnects.
//! 4. **Clustering metric** (related-work baseline): the database metric on
//!    which the Hilbert curve famously *wins*, shown side by side with the
//!    ANNS on which it loses.
//! 5. **Closed curves**: the Moore curve (closed Hilbert) against the open
//!    Hilbert curve on a torus, plus the cyclic stretch metric.
//!
//! Each table row is one sweep cell of the `extensions` sweep, so
//! `--journal`/`--time-budget` resume and bound this artifact like the
//! paper regenerations. The 2-D axes come from the [`ExperimentSpec`]
//! (whose `extensions` constructor floors the scale at 2 — routing every
//! message is heavy); the fixed 3-D and clustering side experiments are
//! constants of the artifact family itself.

use crate::cell::{Machines, Measure, Pipeline, TrialCache};
use sfc_core::anns::{anns, anns_cyclic};
use sfc_core::anns3d::anns3d;
use sfc_core::clustering::average_clusters;
use sfc_core::model3d::{ffi_acd_3d, nfi_acd_3d, Assignment3, Machine3, Topology3Kind};
use sfc_core::report::Table;
use sfc_core::runner::{BatchCell, SweepRunner};
use sfc_core::timing;
use sfc_core::ExperimentSpec;
use sfc_curves::curve3d::Curve3dKind;
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;
use sfc_particles::sampler3d::sample3d;
use sfc_particles::Distribution;
use sfc_topology::TopologyKind;
use std::sync::OnceLock;

/// Format one cell's values with the given per-column formatters, or a row
/// of `—` when the cell failed or was skipped.
fn row_or_missing(label: &str, values: Option<&[f64]>, fmts: &[fn(f64) -> String]) -> Vec<String> {
    let mut row = vec![label.to_string()];
    match values {
        Some(vs) => row.extend(vs.iter().zip(fmts).map(|(&v, f)| f(v))),
        None => row.extend(fmts.iter().map(|_| "—".to_string())),
    }
    row
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn f0(v: f64) -> String {
    format!("{v:.0}")
}

/// Run the five extension studies, returning their tables in render order.
pub fn run_extensions(spec: &ExperimentSpec, runner: &mut SweepRunner) -> Vec<Table> {
    // 1. Link congestion on the torus at the spec's (floored) Table I
    // configuration. Trial 0 feeds it, trial 1 the closed-curve study.
    let workload = spec.workload(spec.distributions[0]);
    let particles = TrialCache::new(workload, 2);
    let procs = spec.processors[0];
    let link_loads = Pipeline {
        machines: Machines::Build(&[TopologyKind::Torus]),
        measure: Measure::LinkLoad,
        radius: spec.radii[0],
        norm: spec.norm,
    };
    let mut congestion = Table::new(
        format!(
            "NFI link congestion — torus, {} particles, {procs} processors",
            workload.n
        ),
        &[
            "Curve",
            "ACD",
            "max link load",
            "mean link load",
            "mean active load",
            "imbalance",
        ],
    );
    let congestion_cells: Vec<BatchCell> = spec
        .particle_curves
        .iter()
        .map(|&curve| {
            let particles = &particles;
            BatchCell::try_new(format!("congestion/{}", curve.short_name()), move || {
                link_loads.measure_cell(particles, 0, curve, procs)
            })
        })
        .collect();
    for (curve, result) in spec
        .particle_curves
        .iter()
        .zip(runner.run_cells(congestion_cells))
    {
        congestion.push_row(row_or_missing(
            curve.short_name(),
            result.values(),
            &[f3, f0, f2, f2, f2],
        ));
    }

    // 2. 3-D ANNS.
    let mut table3d = Table::new(
        "3-D ANNS (radius-1 Manhattan) — future work item ii",
        &["Cube", "Hilbert", "Z", "Gray", "RowMajor"],
    );
    let orders3d: Vec<u32> = (2..=5).collect();
    let anns3d_cells: Vec<BatchCell> = orders3d
        .iter()
        .map(|&order| {
            BatchCell::new(format!("anns3d/o{order}"), move || {
                timing::phase("anns", || {
                    Curve3dKind::ALL
                        .iter()
                        .map(|&k| anns3d(k, order).average())
                        .collect()
                })
            })
        })
        .collect();
    for (&order, result) in orders3d.iter().zip(runner.run_cells(anns3d_cells)) {
        let side = 1u64 << order;
        table3d.push_row(row_or_missing(
            &format!("{side}^3"),
            result.values(),
            &[f3, f3, f3, f3],
        ));
    }

    // 3. The full 3-D ACD model: the 2-D findings replayed on an octree
    // with 3-D interconnects (future work item ii).
    let cube_order = 6u32; // 64^3 cells
    let n3 = 20_000usize;
    let procs3 = 4096u64; // 16^3 torus / 2^12 hypercube
    let particles3 = OnceLock::new();
    let mut acd3 = Table::new(
        format!("3-D ACD — {n3} uniform particles in a 64^3 cube, {procs3} processors"),
        &[
            "Curve",
            "NFI mesh3d",
            "NFI torus3d",
            "NFI hypercube",
            "FFI torus3d",
        ],
    );
    let seed = spec.seed;
    let acd3_cells: Vec<BatchCell> = Curve3dKind::ALL
        .iter()
        .map(|&curve| {
            let particles3 = &particles3;
            BatchCell::new(format!("acd3d/{}", curve.short_name()), move || {
                let particles3 = timing::phase("sample", || {
                    particles3
                        .get_or_init(|| sample3d(Distribution::uniform(), cube_order, n3, seed))
                });
                let asg = timing::phase("assign", || {
                    Assignment3::new(particles3, cube_order, curve, procs3)
                });
                let machine =
                    |topo| timing::phase("machine", || Machine3::new(topo, procs3, curve));
                // ALL = [Mesh3d, Torus3d, Hypercube] matches the headers.
                let mut row: Vec<f64> = Topology3Kind::ALL
                    .iter()
                    .map(|&topo| {
                        let machine = machine(topo);
                        timing::phase("nfi", || nfi_acd_3d(&asg, &machine, 1).acd())
                    })
                    .collect();
                let torus = machine(Topology3Kind::Torus3d);
                row.push(timing::phase("ffi", || ffi_acd_3d(&asg, &torus).acd()));
                row
            })
        })
        .collect();
    for (curve, result) in Curve3dKind::ALL.iter().zip(runner.run_cells(acd3_cells)) {
        acd3.push_row(row_or_missing(
            curve.short_name(),
            result.values(),
            &[f3, f3, f3, f3],
        ));
    }

    // 4. Clustering vs ANNS, side by side.
    let mut metrics = Table::new(
        "Clustering (4x4 queries) vs ANNS at 64x64 — the metric inversion",
        &[
            "Curve",
            "avg clusters (lower=better)",
            "ANNS (lower=better)",
        ],
    );
    let metric_cells: Vec<BatchCell> = spec
        .particle_curves
        .iter()
        .map(|&curve| {
            BatchCell::try_new(format!("metrics/{}", curve.short_name()), move || {
                let clusters = timing::phase("clustering", || average_clusters(curve, 6, 4));
                let stretch = timing::phase("anns", || anns(curve, 6))?;
                Ok(vec![clusters, stretch.average()])
            })
        })
        .collect();
    for (curve, result) in spec
        .particle_curves
        .iter()
        .zip(runner.run_cells(metric_cells))
    {
        metrics.push_row(row_or_missing(
            curve.short_name(),
            result.values(),
            &[f3, f3],
        ));
    }

    // 5. Closed curves: does closing the Hilbert loop (Moore curve) help on
    // a torus, whose links also wrap?
    let mut moore = Table::new(
        "Closed-curve study — Hilbert vs Moore on a torus",
        &["Curve", "NFI ACD", "FFI ACD", "cyclic max stretch (64x64)"],
    );
    let closed_curves = [CurveKind::Hilbert, CurveKind::Moore];
    let acd_pair = Pipeline {
        measure: Measure::NfiFfi,
        ..link_loads
    };
    let moore_cells: Vec<BatchCell> = closed_curves
        .iter()
        .map(|&curve| {
            let particles = &particles;
            BatchCell::try_new(format!("moore/{}", curve.short_name()), move || {
                let mut values = acd_pair.measure_cell(particles, 1, curve, procs)?;
                let cyclic = timing::phase("anns", || anns_cyclic(curve, 6, 1, Norm::Manhattan))?;
                values.push(cyclic.max_stretch);
                Ok(values)
            })
        })
        .collect();
    for (curve, result) in closed_curves.iter().zip(runner.run_cells(moore_cells)) {
        moore.push_row(row_or_missing(
            curve.short_name(),
            result.values(),
            &[f3, f3, f0],
        ));
    }

    vec![congestion, table3d, acd3, metrics, moore]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_produce_five_tables() {
        let spec = ExperimentSpec::extensions(5, 1, 20130701);
        let tables = run_extensions(&spec, &mut SweepRunner::ephemeral());
        assert_eq!(tables.len(), 5);
        assert!(tables[0].title().contains("link congestion"));
        assert!(tables[4].title().contains("Moore"));
        for t in &tables {
            assert!(t.num_rows() >= 2, "{} too short", t.title());
        }
    }
}
