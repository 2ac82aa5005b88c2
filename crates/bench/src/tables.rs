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

use crate::artifact::ComputeOpts;
use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::nfi::nfi_acd;
use sfc_core::report::Table;
use sfc_core::runner::{BatchCell, SweepRunner};
use sfc_core::timing;
use sfc_core::{ExperimentSpec, Machine, Stats};
use sfc_curves::CurveKind;
use sfc_particles::{Distribution, DistributionKind};
use std::sync::OnceLock;

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
pub fn run_tables(
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> Vec<CurvePairGrid> {
    let machines = machines(spec, opts);
    spec.distributions
        .iter()
        .map(|&dist| run_grid(dist, spec, opts, &machines, runner))
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
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> CurvePairGrid {
    run_grid(dist, spec, opts, &machines(spec, opts), runner)
}

/// The spec's processor-order machines, one per curve.
fn machines(spec: &ExperimentSpec, opts: &ComputeOpts) -> Vec<Machine> {
    spec.effective_processor_curves()
        .iter()
        .map(|&proc_curve| {
            crate::harness::machine(opts, spec.topologies[0], spec.processors[0], proc_curve)
        })
        .collect()
}

/// [`run_distribution`] against prebuilt machines.
fn run_grid(
    dist: Distribution,
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    machines: &[Machine],
    runner: &mut SweepRunner,
) -> CurvePairGrid {
    let workload = spec.workload(dist);
    let num_procs = spec.processors[0];
    let radius = spec.radii[0];
    let norm = spec.norm;

    // Per-trial particle sets, sampled lazily and shared by the trial's
    // four cells (which may run on different worker threads): a fully
    // replayed trial never materializes its particles.
    let trial_particles: Vec<OnceLock<Vec<sfc_curves::point::Point2>>> =
        (0..spec.trials).map(|_| OnceLock::new()).collect();
    let mut cells = Vec::with_capacity(spec.trials as usize * 4);
    for t in 0..spec.trials {
        let particles = &trial_particles[t as usize];
        for &particle_curve in spec.particle_curves.iter() {
            let name = format!("{}/t{t}/{}", dist.kind, particle_curve.short_name());
            let workload = &workload;
            cells.push(BatchCell::new(name, move || {
                // Phase markers feed the `--timing` envelope; "sample" is
                // only paid by the first of a trial's four cells (the rest
                // hit the OnceLock).
                let particles =
                    timing::phase("sample", || particles.get_or_init(|| workload.particles(t)));
                let asg = timing::phase("assign", || {
                    crate::harness::assignment(
                        opts,
                        particles,
                        workload.grid_order,
                        particle_curve,
                        num_procs,
                    )
                });
                let tree = timing::phase("index", || OwnerTree::build(&asg));
                let mut values = Vec::with_capacity(8);
                timing::phase("nfi", || {
                    for machine in machines {
                        values.push(
                            nfi_acd(&asg, machine, radius, norm)
                                .unwrap_or_else(|e| panic!("nfi_acd: {e}"))
                                .acd(),
                        );
                    }
                });
                timing::phase("ffi", || {
                    for machine in machines {
                        values.push(
                            ffi_acd_with_tree(&asg, machine, &tree)
                                .unwrap_or_else(|e| panic!("ffi_acd: {e}"))
                                .acd(),
                        );
                    }
                });
                values
            }));
        }
    }

    let mut nfi_samples = vec![vec![Vec::new(); 4]; 4];
    let mut ffi_samples = vec![vec![Vec::new(); 4]; 4];
    for (i, result) in runner.run_cells(cells).iter().enumerate() {
        let pi = i % 4;
        if let Some(values) = result.values() {
            for ri in 0..4 {
                nfi_samples[ri][pi].push(values[ri]);
                ffi_samples[ri][pi].push(values[4 + ri]);
            }
        }
    }

    let collect = |samples: &Vec<Vec<Vec<f64>>>| -> [[Option<Stats>; 4]; 4] {
        std::array::from_fn(|ri| {
            std::array::from_fn(|pi| Stats::try_from_samples(&samples[ri][pi]).ok())
        })
    };
    CurvePairGrid {
        distribution: dist.kind,
        nfi: collect(&nfi_samples),
        ffi: collect(&ffi_samples),
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
        .map(|r| (0..4).map(|p| values[r][p].as_ref().map(|s| s.mean)).collect())
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
            &ComputeOpts::default(),
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
            &ComputeOpts::default(),
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
