//! Drivers for Tables I and II: the 4 × 4 particle/processor curve grid
//! under each input distribution.
//!
//! Paper setup (Section VI-A): 250,000 particles on a 1024 × 1024
//! resolution, 65,536 processors on a torus, each of
//! {Hilbert, Z, Gray, Row-major}² as the (particle, processor) curve pair,
//! for the uniform, normal and exponential distributions. Table I reports
//! the near-field ACD (radius-1 Chebyshev neighborhoods), Table II the
//! far-field ACD.
//!
//! The sweep is decomposed into one cell per `(distribution, trial,
//! particle curve)` — the unit of work the fault-tolerant [`SweepRunner`]
//! journals and resumes. A cell builds its particle-order assignment (and
//! owner tree) once and evaluates it against the four processor-order
//! machines, so the work sharing matches the original monolithic loop.

use crate::cell::{fold, Grid, Machines, Measure, Pipeline, TrialCache};
use sfc_core::report::Table;
use sfc_core::runner::{BatchCell, SweepRunner};
use sfc_core::{ExperimentSpec, Machine, Stats};
use sfc_curves::CurveKind;
use sfc_particles::{Distribution, DistributionKind};

/// Results of the 4 × 4 curve-pair grid for one distribution:
/// `values[processor_curve][particle_curve]`. A cell is `None` when every
/// trial that would feed it failed or was skipped (partial sweep).
#[derive(Debug, Clone)]
pub struct CurvePairGrid {
    /// The input distribution the grid was measured under.
    pub distribution: DistributionKind,
    /// Near-field ACD (Table I).
    pub nfi: [[Option<Stats>; 4]; 4],
    /// Far-field ACD (Table II).
    pub ffi: [[Option<Stats>; 4]; 4],
}

/// Run the Table I/II experiment for every distribution in the spec. The
/// four processor-order machines are built once and shared by every
/// distribution.
pub fn run_tables(spec: &ExperimentSpec, runner: &mut SweepRunner) -> Vec<CurvePairGrid> {
    let machines = machines(spec);
    spec.distributions
        .iter()
        .map(|&dist| run_grid(dist, spec, &machines, runner))
        .collect()
}

/// Run the 4 × 4 grid for one distribution.
///
/// Cell `"{distribution}/t{trial}/{particle_curve}"` produces eight values:
/// the near-field ACD against each of the four processor-order machines,
/// then the far-field ACD against each.
pub fn run_distribution(
    dist: Distribution,
    spec: &ExperimentSpec,
    runner: &mut SweepRunner,
) -> CurvePairGrid {
    run_grid(dist, spec, &machines(spec), runner)
}

/// The spec's processor-order machines, one per curve.
fn machines(spec: &ExperimentSpec) -> Vec<Machine> {
    spec.effective_processor_curves()
        .iter()
        .map(|&curve| Machine::closed_form(spec.topologies[0], spec.processors[0], curve))
        .collect()
}

/// [`run_distribution`] against prebuilt machines.
fn run_grid(
    dist: Distribution,
    spec: &ExperimentSpec,
    machines: &[Machine],
    runner: &mut SweepRunner,
) -> CurvePairGrid {
    let pipeline = Pipeline {
        machines: Machines::Shared(machines),
        measure: Measure::NfiFfi,
        radius: spec.radii[0],
        norm: spec.norm,
    };
    // A trial's particles are sampled once, by the first of its cells to
    // run; a fully replayed trial never samples them.
    let particles = TrialCache::new(spec.workload(dist), spec.trials);
    let mut cells = Vec::new();
    for t in 0..spec.trials {
        for &curve in &spec.particle_curves {
            let name = format!("{}/t{t}/{}", dist.kind, curve.short_name());
            let particles = &particles;
            cells.push(BatchCell::try_new(name, move || {
                pipeline.measure_cell(particles, t, curve, spec.processors[0])
            }));
        }
    }
    let (nm, nc) = (machines.len(), spec.particle_curves.len());
    let [nfi, ffi] = fold(&runner.run_cells(cells), nm, nc, |i, v| {
        [v / nm, v % nm, i % nc]
    });
    let square = |g: Grid| std::array::from_fn(|r| std::array::from_fn(|p| g[r][p]));
    CurvePairGrid {
        distribution: dist.kind,
        nfi: square(nfi),
        ffi: square(ffi),
    }
}

/// Which of the two tables to render from a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interaction {
    /// Table I: near-field.
    NearField,
    /// Table II: far-field.
    FarField,
}

/// Render one distribution's grid in the paper's layout (rows = processor
/// order, columns = particle order). The lowest value in each row is marked
/// `*` and the lowest in each column `†`, mirroring the paper's boldface and
/// italics. Cells missing from a partial sweep render as `—`.
pub fn render_grid(grid: &CurvePairGrid, which: Interaction) -> Table {
    let (name, values) = match which {
        Interaction::NearField => ("Table I (NFI)", &grid.nfi),
        Interaction::FarField => ("Table II (FFI)", &grid.ffi),
    };
    let title = format!("{name} — {} Distribution", grid.distribution);
    let mut header = vec!["Processor Order \\ Particle Order"];
    header.extend(CurveKind::PAPER.iter().map(|c| c.name()));
    let mut table = Table::new(title, &header);

    let means: Vec<Vec<Option<f64>>> = (0..4)
        .map(|r| {
            (0..4)
                .map(|p| values[r][p].as_ref().map(|s| s.mean))
                .collect()
        })
        .collect();
    let min_of = |it: &mut dyn Iterator<Item = Option<f64>>| -> f64 {
        it.flatten().fold(f64::INFINITY, f64::min)
    };
    let row_min: Vec<f64> = means
        .iter()
        .map(|row| min_of(&mut row.iter().copied()))
        .collect();
    let col_min: Vec<f64> = (0..4)
        .map(|p| min_of(&mut means.iter().map(|row| row[p])))
        .collect();

    for (r, &proc_curve) in CurveKind::PAPER.iter().enumerate() {
        let mut cells = vec![proc_curve.name().to_string()];
        for p in 0..4 {
            let s = match means[r][p] {
                Some(v) => {
                    let mut s = format!("{v:.3}");
                    if v == row_min[r] {
                        s.push('*');
                    }
                    if v == col_min[p] {
                        s.push('†');
                    }
                    s
                }
                None => "—".to_string(),
            };
            cells.push(s);
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // 64x64 grid, ~976 particles, 256 processors.
    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::table1(4, 2, 99)
    }

    fn run(dist: DistributionKind) -> CurvePairGrid {
        run_distribution(
            dist.default_params(),
            &tiny_spec(),
            &mut SweepRunner::ephemeral(),
        )
    }

    #[test]
    fn grid_has_full_shape_and_sane_values() {
        let grid = run(DistributionKind::Uniform);
        for r in 0..4 {
            for p in 0..4 {
                let nfi = grid.nfi[r][p].as_ref().unwrap();
                assert_eq!(nfi.n, 2);
                assert!(nfi.mean >= 0.0);
                assert!(grid.ffi[r][p].as_ref().unwrap().mean > 0.0);
            }
        }
    }

    #[test]
    fn hilbert_pair_beats_row_major_pair() {
        // The diagonal comparison the paper's conclusions rest on.
        let grid = run(DistributionKind::Uniform);
        assert!(grid.nfi[0][0].unwrap().mean < grid.nfi[3][3].unwrap().mean);
        assert!(grid.ffi[0][0].unwrap().mean < grid.ffi[3][3].unwrap().mean);
    }

    #[test]
    fn render_marks_minima() {
        let grid = run(DistributionKind::Exponential);
        let text = render_grid(&grid, Interaction::NearField).render();
        assert!(text.contains('*'));
        assert!(text.contains('†'));
        assert!(text.contains("Exponential"));
        let ffi_text = render_grid(&grid, Interaction::FarField).render();
        assert!(ffi_text.contains("Table II"));
    }

    #[test]
    fn results_reproducible_across_runs() {
        let a = run(DistributionKind::Normal);
        let b = run(DistributionKind::Normal);
        assert_eq!(a.nfi[2][1].unwrap().mean, b.nfi[2][1].unwrap().mean);
        assert_eq!(a.ffi[1][3].unwrap().mean, b.ffi[1][3].unwrap().mean);
    }

    #[test]
    fn partial_sweep_renders_missing_cells() {
        // Persistent chaos on the Hilbert particle curve: column 0 of every
        // grid row has no samples.
        let mut args = crate::args::SweepArgs {
            scale: 4,
            trials: 2,
            seed: 99,
            ..crate::args::SweepArgs::default()
        };
        args.chaos = vec!["/Hilbert".into()];
        args.chaos_persistent = true;
        let mut runner = crate::harness::runner("tables", &args);
        let grid = run_distribution(
            DistributionKind::Uniform.default_params(),
            &tiny_spec(),
            &mut runner,
        );
        assert!(grid.nfi[0][0].is_none());
        assert!(grid.nfi[0][1].is_some());
        let text = render_grid(&grid, Interaction::NearField).render();
        assert!(text.contains('—'));
        let summary = runner.finish();
        assert_eq!(summary.failed.len(), 2); // one per trial
        assert!(!summary.complete());
    }
}
