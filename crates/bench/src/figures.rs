//! Drivers for Figures 5, 6 and 7 and the Section VI-C parametric studies.
//!
//! Every sweep is decomposed into named cells — one `(configuration, trial)`
//! unit each — executed through the fault-tolerant [`SweepRunner`], so an
//! interrupted regeneration resumes from its `--journal`, and a cell that
//! returns a typed error (or keeps panicking after its retries) is recorded
//! as a structured failure without aborting the rest of the sweep. Values
//! missing after a partial sweep surface as `None` entries and render as
//! `—`. The ACD sweeps measure their cells through the shared pipeline in
//! `cell.rs`.

use crate::cell::{fold, Grid, Machines, Measure, Pipeline, TrialCache};
use sfc_core::anns::anns_radius;
use sfc_core::report::Table;
use sfc_core::runner::{BatchCell, SweepRunner};
use sfc_core::timing;
use sfc_core::{ExperimentSpec, Stats};
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;
use sfc_particles::Workload;
use sfc_topology::TopologyKind;

/// Format an optional mean to the paper's three decimals, `—` when the
/// partial sweep left it uncomputed.
fn fmt_cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "—".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Figure 5: ANNS vs spatial resolution
// ---------------------------------------------------------------------------

/// One data series of Figure 5: per curve, the average stretch at each grid
/// order.
#[derive(Debug, Clone)]
pub struct AnnsSweep {
    /// Neighborhood radius (1 for Figure 5(a), 6 for 5(b)).
    pub radius: u32,
    /// Grid orders measured (resolution = `2^order` per side).
    pub orders: Vec<u32>,
    /// `values[curve][order_index]` = average stretch (`None` if the cell
    /// failed or was skipped).
    pub values: Vec<Vec<Option<f64>>>,
}

/// Run the Figure 5 sweep for a given radius over the given grid orders
/// (the paper's Figure 5 spans 2×2 through 512×512, i.e. orders
/// `1..=9`). Cell `"r{radius}/{curve}/o{order}"` produces the single
/// stretch value for that resolution.
pub fn run_anns_sweep(radius: u32, orders: &[u32], runner: &mut SweepRunner) -> AnnsSweep {
    let orders: Vec<u32> = orders.to_vec();
    let mut cells = Vec::with_capacity(4 * orders.len());
    for &curve in CurveKind::PAPER.iter() {
        for &order in &orders {
            let name = format!("r{radius}/{}/o{order}", curve.short_name());
            cells.push(BatchCell::try_new(name, move || {
                let stretch = timing::phase("anns", || {
                    anns_radius(curve, order, radius, Norm::Manhattan)
                });
                Ok(vec![stretch?.average()])
            }));
        }
    }
    let results = runner.run_cells(cells);
    let values = (0..4)
        .map(|c| {
            (0..orders.len())
                .map(|oi| results[c * orders.len() + oi].values().map(|v| v[0]))
                .collect()
        })
        .collect();
    AnnsSweep {
        radius,
        orders,
        values,
    }
}

/// Render an ANNS sweep as a table: rows = resolution, columns = curves.
pub fn render_anns(sweep: &AnnsSweep) -> Table {
    let title = format!(
        "Figure 5({}) — Average Nearest Neighbor Stretch, radius {}",
        if sweep.radius == 1 { "a" } else { "b" },
        sweep.radius
    );
    let mut header = vec!["Resolution"];
    header.extend(CurveKind::PAPER.iter().map(|c| c.name()));
    let mut table = Table::new(title, &header);
    for (i, &order) in sweep.orders.iter().enumerate() {
        let side = 1u64 << order;
        let mut row = vec![format!("{side}x{side}")];
        row.extend((0..4).map(|c| fmt_cell(sweep.values[c][i])));
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 6: topology comparison
// ---------------------------------------------------------------------------

/// Results of the Figure 6 sweep: `nfi[topology][curve]`, `ffi` likewise.
#[derive(Debug, Clone)]
pub struct TopologySweep {
    /// Topologies measured, in display order.
    pub topologies: Vec<TopologyKind>,
    /// Near-field ACD per (topology, curve).
    pub nfi: Vec<Vec<Option<Stats>>>,
    /// Far-field ACD per (topology, curve).
    pub ffi: Vec<Vec<Option<Stats>>>,
}

/// Near-field radius of the Figure 6 experiment ("a radius of 4 was used").
pub const FIG6_RADIUS: u32 = 4;

/// Run the Figure 6 experiment: 1,000,000 uniform particles on a 4096×4096
/// resolution (scaled by `--scale`), the same SFC for particle and
/// processor order, across all six topologies (the paper plots four and
/// notes bus/ring are off the scale).
///
/// Cell `"t{trial}/{curve}"` produces twelve values: the (near-field,
/// far-field) ACD pair on each of the six topologies, interleaved.
pub fn run_topology_sweep(spec: &ExperimentSpec, runner: &mut SweepRunner) -> TopologySweep {
    let pipeline = Pipeline {
        machines: Machines::Build(&spec.topologies),
        measure: Measure::NfiFfi,
        radius: spec.radii[0],
        norm: spec.norm,
    };
    let particles = TrialCache::new(spec.workload(spec.distributions[0]), spec.trials);
    let mut cells = Vec::new();
    for t in 0..spec.trials {
        for &curve in &spec.particle_curves {
            let particles = &particles;
            cells.push(BatchCell::try_new(
                format!("t{t}/{}", curve.short_name()),
                move || pipeline.measure_cell(particles, t, curve, spec.processors[0]),
            ));
        }
    }
    let (nt, nc) = (spec.topologies.len(), spec.particle_curves.len());
    let [nfi, ffi] = fold(&runner.run_cells(cells), nt, nc, |i, v| {
        [v % 2, v / 2, i % nc]
    });
    TopologySweep {
        topologies: spec.topologies.clone(),
        nfi,
        ffi,
    }
}

/// Render one interaction model of the Figure 6 sweep: rows = curve,
/// columns = topology.
pub fn render_topology(sweep: &TopologySweep, near_field: bool) -> Table {
    let (tag, data) = if near_field {
        ("a: Near-Field", &sweep.nfi)
    } else {
        ("b: Far-Field", &sweep.ffi)
    };
    let mut header = vec!["Curve"];
    let names: Vec<&str> = sweep.topologies.iter().map(|t| t.name()).collect();
    header.extend(names.iter());
    let mut table = Table::new(format!("Figure 6({tag}) — ACD by topology"), &header);
    for (ci, &curve) in CurveKind::PAPER.iter().enumerate() {
        let mut row = vec![curve.name().to_string()];
        row.extend(
            (0..sweep.topologies.len()).map(|ti| fmt_cell(data[ti][ci].as_ref().map(|s| s.mean))),
        );
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 7: ACD vs processor count
// ---------------------------------------------------------------------------

/// Results of the Figure 7 sweep: `nfi[proc_index][curve]`, `ffi` likewise.
#[derive(Debug, Clone)]
pub struct ProcessorSweep {
    /// Processor counts measured.
    pub processors: Vec<u64>,
    /// Near-field ACD per (processor count, curve).
    pub nfi: Vec<Vec<Option<Stats>>>,
    /// Far-field ACD per (processor count, curve).
    pub ffi: Vec<Vec<Option<Stats>>>,
}

/// Run the Figure 7 experiment: 1,000,000 uniform particles (scaled), torus
/// topology, same SFC for both orderings, with the processor count swept
/// over powers of four.
///
/// Cell `"t{trial}/{curve}/p{procs}"` produces the (near-field, far-field)
/// ACD pair.
pub fn run_processor_sweep(spec: &ExperimentSpec, runner: &mut SweepRunner) -> ProcessorSweep {
    let pipeline = Pipeline {
        machines: Machines::Build(&spec.topologies[..1]),
        measure: Measure::NfiFfi,
        radius: spec.radii[0],
        norm: spec.norm,
    };
    let particles = TrialCache::new(spec.workload(spec.distributions[0]), spec.trials);
    // Paper scale: 256 .. 65,536 processors, shifted down with the
    // workload; the spec carries the resolved list in ascending order.
    let processors = &spec.processors;
    let mut cells = Vec::new();
    for t in 0..spec.trials {
        for &curve in &spec.particle_curves {
            for &procs in processors {
                let name = format!("t{t}/{}/p{procs}", curve.short_name());
                let particles = &particles;
                cells.push(BatchCell::try_new(name, move || {
                    pipeline.measure_cell(particles, t, curve, procs)
                }));
            }
        }
    }
    let (np, nc) = (processors.len(), spec.particle_curves.len());
    let [nfi, ffi] = fold(&runner.run_cells(cells), np, nc, |i, v| {
        [v, i % np, (i / np) % nc]
    });
    ProcessorSweep {
        processors: processors.clone(),
        nfi,
        ffi,
    }
}

/// Render one interaction model of the Figure 7 sweep: rows = processor
/// count, columns = curves.
pub fn render_processors(sweep: &ProcessorSweep, near_field: bool) -> Table {
    let (tag, data) = if near_field {
        ("a: Near-Field", &sweep.nfi)
    } else {
        ("b: Far-Field", &sweep.ffi)
    };
    let mut header = vec!["Processors"];
    header.extend(CurveKind::PAPER.iter().map(|c| c.name()));
    let mut table = Table::new(
        format!("Figure 7({tag}) — ACD vs processors (torus)"),
        &header,
    );
    for (pi, &procs) in sweep.processors.iter().enumerate() {
        let mut row = vec![procs.to_string()];
        row.extend((0..4).map(|ci| fmt_cell(data[pi][ci].as_ref().map(|s| s.mean))));
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Section VI-C parametric studies
// ---------------------------------------------------------------------------

/// One row of a Section VI-C study: its cells are named
/// `{cell}/{curve}/t{trial}`, and its table row starts with `label`.
struct StudyRow<'a> {
    cell: String,
    label: String,
    particles: &'a TrialCache,
    radius: u32,
}

/// Run one Section VI-C study on the torus with tied curves: a cell per
/// (row, curve, trial) measuring `measure`, and per row its label followed
/// by the mean of each of the `K` measured kernels per curve — the NFI
/// columns, then the FFI columns.
fn run_study<const K: usize>(
    spec: &ExperimentSpec,
    runner: &mut SweepRunner,
    measure: Measure,
    mut table: Table,
    rows: &[StudyRow],
) -> Table {
    let mut cells = Vec::new();
    for row in rows {
        let pipeline = Pipeline {
            machines: Machines::Build(&[TopologyKind::Torus]),
            measure,
            radius: row.radius,
            norm: spec.norm,
        };
        for &curve in &spec.particle_curves {
            for t in 0..spec.trials {
                let name = format!("{}/{}/t{t}", row.cell, curve.short_name());
                cells.push(BatchCell::try_new(name, move || {
                    pipeline.measure_cell(row.particles, t, curve, spec.processors[0])
                }));
            }
        }
    }
    let (nc, trials) = (spec.particle_curves.len(), spec.trials as usize);
    let grids: [Grid; K] = fold(&runner.run_cells(cells), rows.len(), nc, |i, v| {
        [v, i / (nc * trials), (i / trials) % nc]
    });
    for (r, row) in rows.iter().enumerate() {
        let mut cells = vec![row.label.clone()];
        for grid in &grids {
            cells.extend(grid[r].iter().map(|s| fmt_cell(s.map(|s| s.mean))));
        }
        table.push_row(cells);
    }
    table
}

/// NFI ACD as the neighborhood radius varies (torus, tied curves).
/// Cell `"r{radius}/{curve}/t{trial}"` produces the single ACD value.
pub fn run_radius_sweep(spec: &ExperimentSpec, runner: &mut SweepRunner) -> Table {
    let particles = TrialCache::new(spec.workload(spec.distributions[0]), spec.trials);
    let rows: Vec<StudyRow> = spec
        .radii
        .iter()
        .map(|&radius| StudyRow {
            cell: format!("r{radius}"),
            label: radius.to_string(),
            particles: &particles,
            radius,
        })
        .collect();
    let mut header = vec!["Radius"];
    header.extend(CurveKind::PAPER.iter().map(|c| c.name()));
    let table = Table::new("Section VI-C — NFI ACD vs neighborhood radius", &header);
    run_study::<1>(spec, runner, Measure::Nfi, table, &rows)
}

/// ACD as the input size varies at a fixed processor count (torus, tied
/// curves); near- and far-field rendered as two column groups.
/// Cell `"n{particles}/{curve}/t{trial}"` produces the (NFI, FFI) pair.
pub fn run_input_size_sweep(spec: &ExperimentSpec, runner: &mut SweepRunner) -> Table {
    let base = spec.workload(spec.distributions[0]);
    let caches: Vec<TrialCache> = spec
        .particle_counts
        .iter()
        .map(|&n| {
            let workload = Workload::new(base.grid_order, n as usize, base.dist, base.seed);
            TrialCache::new(workload, spec.trials)
        })
        .collect();
    let rows: Vec<StudyRow> = spec
        .particle_counts
        .iter()
        .zip(&caches)
        .map(|(&n, particles)| StudyRow {
            cell: format!("n{n}"),
            label: n.to_string(),
            particles,
            radius: spec.radii[0],
        })
        .collect();
    let mut header: Vec<String> = vec!["Particles".into()];
    header.extend(CurveKind::PAPER.iter().map(|c| c.short_name().to_string()));
    header.extend(
        CurveKind::PAPER
            .iter()
            .map(|c| format!("{} (FFI)", c.short_name())),
    );
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let table = Table::new(
        "Section VI-C — ACD vs input size (NFI columns then FFI columns)",
        &header,
    );
    run_study::<2>(spec, runner, Measure::NfiFfi, table, &rows)
}

/// ACD per distribution at the Table I/II configuration with tied curves —
/// the Section VI-C observation that NFI is best under uniform inputs while
/// FFI barely distinguishes the distributions.
/// Cell `"{distribution}/{curve}/t{trial}"` produces the (NFI, FFI) pair.
pub fn run_distribution_comparison(spec: &ExperimentSpec, runner: &mut SweepRunner) -> Table {
    let caches: Vec<TrialCache> = spec
        .distributions
        .iter()
        .map(|&dist| TrialCache::new(spec.workload(dist), spec.trials))
        .collect();
    let rows: Vec<StudyRow> = spec
        .distributions
        .iter()
        .zip(&caches)
        .map(|(dist, particles)| StudyRow {
            cell: dist.kind.to_string(),
            label: dist.kind.to_string(),
            particles,
            radius: spec.radii[0],
        })
        .collect();
    let mut header: Vec<String> = vec!["Distribution".into()];
    for kernel in ["NFI", "FFI"] {
        header.extend(
            CurveKind::PAPER
                .iter()
                .map(|c| format!("{} ({kernel})", c.short_name())),
        );
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let table = Table::new(
        "Section VI-C — ACD by input distribution (tied curves)",
        &header,
    );
    run_study::<2>(spec, runner, Measure::NfiFfi, table, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    // scale 5: 128x128 fig6 grid, ~976 particles, 64 processors.
    fn tiny_spec(artifact: sfc_core::ArtifactKind) -> ExperimentSpec {
        ExperimentSpec::for_artifact(artifact, 5, 1, 3)
    }

    #[test]
    fn anns_sweep_shape() {
        let sweep = run_anns_sweep(1, &[1, 2, 3, 4, 5], &mut SweepRunner::ephemeral());
        assert_eq!(sweep.orders, vec![1, 2, 3, 4, 5]);
        assert_eq!(sweep.values.len(), 4);
        assert_eq!(sweep.values[0].len(), 5);
        let table = render_anns(&sweep);
        assert_eq!(table.num_rows(), 5);
        assert!(table.render().contains("32x32"));
    }

    #[test]
    fn anns_values_grow_with_resolution() {
        let sweep = run_anns_sweep(1, &[1, 2, 3, 4, 5, 6], &mut SweepRunner::ephemeral());
        for series in &sweep.values {
            assert!(series.windows(2).all(|w| w[0].unwrap() < w[1].unwrap()));
        }
    }

    #[test]
    fn topology_sweep_runs_all_six() {
        let sweep = run_topology_sweep(
            &tiny_spec(sfc_core::ArtifactKind::Figure6),
            &mut SweepRunner::ephemeral(),
        );
        assert_eq!(sweep.topologies.len(), 6);
        let t = render_topology(&sweep, true);
        assert_eq!(t.num_rows(), 4);
        assert!(t.render().contains("Hypercube"));
        let f = render_topology(&sweep, false);
        assert!(f.render().contains("Far-Field"));
    }

    #[test]
    fn processor_sweep_is_monotone_in_p_for_row_major_nfi() {
        // More processors spread neighbors further apart; ACD should not
        // shrink as p grows (fixed workload).
        let sweep = run_processor_sweep(
            &tiny_spec(sfc_core::ArtifactKind::Figure7),
            &mut SweepRunner::ephemeral(),
        );
        assert!(sweep.processors.len() >= 2);
        let row_major_series: Vec<f64> = (0..sweep.processors.len())
            .map(|pi| sweep.nfi[pi][3].as_ref().unwrap().mean)
            .collect();
        let first = row_major_series.first().unwrap();
        let last = row_major_series.last().unwrap();
        assert!(last >= first);
        let t = render_processors(&sweep, true);
        assert_eq!(t.num_rows(), sweep.processors.len());
    }

    #[test]
    fn radius_sweep_radii_increase_acd_weakly() {
        let mut spec = tiny_spec(sfc_core::ArtifactKind::Parametric);
        spec.radii = vec![1, 2];
        let table = run_radius_sweep(&spec, &mut SweepRunner::ephemeral());
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn zero_radius_cells_fail_once_and_render_missing() {
        let mut spec = tiny_spec(sfc_core::ArtifactKind::Parametric);
        spec.radii = vec![0, 1];
        let mut runner = SweepRunner::ephemeral();
        let table = run_radius_sweep(&spec, &mut runner);
        assert_eq!(table.rows()[0], ["0", "—", "—", "—", "—"]);
        assert!(table.rows()[1][1..].iter().all(|v| v != "—"));
        let summary = runner.finish();
        assert_eq!(summary.failed.len(), 4);
        for f in &summary.failed {
            assert!(f.cell.starts_with("r0/"), "{}", f.cell);
            assert_eq!(f.error, sfc_core::SfcError::ZeroRadius.to_string());
            assert_eq!(f.attempts, 1, "{}: a typed error is not retried", f.cell);
        }
    }

    #[test]
    fn distribution_comparison_rows() {
        let table = run_distribution_comparison(
            &tiny_spec(sfc_core::ArtifactKind::Parametric),
            &mut SweepRunner::ephemeral(),
        );
        assert_eq!(table.num_rows(), 3);
        let text = table.render();
        assert!(text.contains("Uniform") && text.contains("Exponential"));
    }

    #[test]
    fn input_size_sweep_rows() {
        let mut spec = tiny_spec(sfc_core::ArtifactKind::Parametric);
        spec.particle_counts = vec![200, 400];
        let table = run_input_size_sweep(&spec, &mut SweepRunner::ephemeral());
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn skipped_cells_render_as_missing() {
        let mut args = crate::args::SweepArgs {
            scale: 5,
            trials: 1,
            seed: 3,
            ..crate::args::SweepArgs::default()
        };
        args.time_budget = Some(0);
        let mut runner = crate::harness::runner("figure7", &args);
        let sweep = run_processor_sweep(&tiny_spec(sfc_core::ArtifactKind::Figure7), &mut runner);
        assert!(sweep.nfi.iter().flatten().all(|s| s.is_none()));
        let text = render_processors(&sweep, true).render();
        assert!(text.contains('—'));
        let summary = runner.finish();
        assert_eq!(summary.computed, 0);
        assert!(!summary.skipped.is_empty());
    }
}
