//! Drivers for Figures 5, 6 and 7 and the Section VI-C parametric studies.
//!
//! Every sweep is decomposed into named cells — one `(configuration, trial)`
//! unit each — executed through the fault-tolerant [`SweepRunner`], so an
//! interrupted regeneration resumes from its `--journal` and a cell that
//! panics is retried, then recorded as a structured failure without
//! aborting the rest of the sweep. Values missing after a partial sweep
//! surface as `None` entries and render as `—`.

use crate::artifact::ComputeOpts;
use sfc_core::anns::anns_radius;
use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::nfi::nfi_acd;
use sfc_core::report::Table;
use sfc_core::runner::{BatchCell, CellResult, SweepRunner};
use sfc_core::timing;
use sfc_core::{ExperimentSpec, Stats};
use sfc_curves::point::Norm;
use sfc_curves::{CurveKind, Point2};
use sfc_particles::Workload;
use sfc_topology::TopologyKind;
use std::sync::OnceLock;

/// Format an optional mean to the paper's three decimals, `—` when the
/// partial sweep left it uncomputed.
fn fmt_cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "—".to_string(),
    }
}

fn mean_of(samples: &[f64]) -> Option<f64> {
    Stats::try_from_samples(samples).ok().map(|s| s.mean)
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
            cells.push(BatchCell::new(name, move || {
                timing::phase("anns", || {
                    vec![anns_radius(curve, order, radius, Norm::Manhattan)
                        .unwrap_or_else(|e| panic!("anns_radius: {e}"))
                        .average()]
                })
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
pub fn run_topology_sweep(
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> TopologySweep {
    let workload = spec.workload(spec.distributions[0]);
    let num_procs = spec.processors[0];
    let radius = spec.radii[0];
    let norm = spec.norm;
    let topologies: Vec<TopologyKind> = spec.topologies.clone();
    let nt = topologies.len();

    let trial_particles: Vec<OnceLock<Vec<Point2>>> =
        (0..spec.trials).map(|_| OnceLock::new()).collect();
    let mut cells = Vec::with_capacity(spec.trials as usize * 4);
    for t in 0..spec.trials {
        let particles = &trial_particles[t as usize];
        for &curve in spec.particle_curves.iter() {
            let name = format!("t{t}/{}", curve.short_name());
            let workload = &workload;
            let topologies = &topologies;
            cells.push(BatchCell::new(name, move || {
                let particles =
                    timing::phase("sample", || particles.get_or_init(|| workload.particles(t)));
                let asg = timing::phase("assign", || {
                    crate::harness::assignment(opts, particles, workload.grid_order, curve, num_procs)
                });
                let tree = timing::phase("index", || OwnerTree::build(&asg));
                let mut values = Vec::with_capacity(2 * nt);
                for &topo in topologies {
                    let machine = timing::phase("machine", || {
                        crate::harness::machine(opts, topo, num_procs, curve)
                    });
                    values.push(timing::phase("nfi", || {
                        nfi_acd(&asg, &machine, radius, norm)
                            .unwrap_or_else(|e| panic!("nfi_acd: {e}"))
                            .acd()
                    }));
                    values.push(timing::phase("ffi", || {
                        ffi_acd_with_tree(&asg, &machine, &tree)
                            .unwrap_or_else(|e| panic!("ffi_acd: {e}"))
                            .acd()
                    }));
                }
                values
            }));
        }
    }

    let mut nfi = vec![vec![Vec::new(); 4]; nt];
    let mut ffi = vec![vec![Vec::new(); 4]; nt];
    for (i, result) in runner.run_cells(cells).iter().enumerate() {
        let ci = i % 4;
        if let Some(values) = result.values() {
            for ti in 0..nt {
                nfi[ti][ci].push(values[2 * ti]);
                ffi[ti][ci].push(values[2 * ti + 1]);
            }
        }
    }
    let collect = |data: Vec<Vec<Vec<f64>>>| -> Vec<Vec<Option<Stats>>> {
        data.into_iter()
            .map(|row| row.iter().map(|s| Stats::try_from_samples(s).ok()).collect())
            .collect()
    };
    TopologySweep {
        topologies,
        nfi: collect(nfi),
        ffi: collect(ffi),
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
            (0..sweep.topologies.len())
                .map(|ti| fmt_cell(data[ti][ci].as_ref().map(|s| s.mean))),
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
pub fn run_processor_sweep(
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> ProcessorSweep {
    let workload = spec.workload(spec.distributions[0]);
    // Paper scale: 256 .. 65,536 processors, shifted down with the
    // workload; the spec carries the resolved list in ascending order.
    let processors = spec.processors.clone();
    let topology = spec.topologies[0];
    let radius = spec.radii[0];
    let norm = spec.norm;

    let trial_particles: Vec<OnceLock<Vec<Point2>>> =
        (0..spec.trials).map(|_| OnceLock::new()).collect();
    let np = processors.len();
    let mut cells = Vec::with_capacity(spec.trials as usize * 4 * np);
    for t in 0..spec.trials {
        let particles = &trial_particles[t as usize];
        for &curve in spec.particle_curves.iter() {
            for &procs in &processors {
                let name = format!("t{t}/{}/p{procs}", curve.short_name());
                let workload = &workload;
                cells.push(BatchCell::new(name, move || {
                    let particles = timing::phase("sample", || {
                        particles.get_or_init(|| workload.particles(t))
                    });
                    let asg = timing::phase("assign", || {
                        crate::harness::assignment(opts, particles, workload.grid_order, curve, procs)
                    });
                    let tree = timing::phase("index", || OwnerTree::build(&asg));
                    let machine = timing::phase("machine", || {
                        crate::harness::machine(opts, topology, procs, curve)
                    });
                    vec![
                        timing::phase("nfi", || {
                            nfi_acd(&asg, &machine, radius, norm)
                            .unwrap_or_else(|e| panic!("nfi_acd: {e}"))
                            .acd()
                        }),
                        timing::phase("ffi", || {
                            ffi_acd_with_tree(&asg, &machine, &tree)
                            .unwrap_or_else(|e| panic!("ffi_acd: {e}"))
                            .acd()
                        }),
                    ]
                }));
            }
        }
    }

    let mut nfi = vec![vec![Vec::new(); 4]; np];
    let mut ffi = vec![vec![Vec::new(); 4]; np];
    for (i, result) in runner.run_cells(cells).iter().enumerate() {
        let ci = (i / np) % 4;
        let pi = i % np;
        if let Some(values) = result.values() {
            nfi[pi][ci].push(values[0]);
            ffi[pi][ci].push(values[1]);
        }
    }
    let collect = |data: Vec<Vec<Vec<f64>>>| -> Vec<Vec<Option<Stats>>> {
        data.into_iter()
            .map(|row| row.iter().map(|s| Stats::try_from_samples(s).ok()).collect())
            .collect()
    };
    ProcessorSweep {
        processors,
        nfi: collect(nfi),
        ffi: collect(ffi),
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
    let mut table = Table::new(format!("Figure 7({tag}) — ACD vs processors (torus)"), &header);
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

/// Per-trial particle sets of one workload, sampled lazily so replayed
/// cells cost nothing. Thread-safe: the cells of one trial may run on
/// different workers, and whichever asks first samples the set.
struct TrialCache<'a> {
    workload: &'a Workload,
    sets: Vec<OnceLock<Vec<Point2>>>,
}

impl<'a> TrialCache<'a> {
    fn new(workload: &'a Workload, trials: u64) -> Self {
        TrialCache {
            workload,
            sets: (0..trials).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get(&self, t: u64) -> &[Point2] {
        self.sets[t as usize].get_or_init(|| self.workload.particles(t))
    }
}

/// NFI ACD as the neighborhood radius varies (torus, tied curves).
/// Cell `"r{radius}/{curve}/t{trial}"` produces the single ACD value.
pub fn run_radius_sweep(
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> Table {
    let radii = &spec.radii;
    let workload = spec.workload(spec.distributions[0]);
    let num_procs = spec.processors[0];
    let norm = spec.norm;
    let cache = TrialCache::new(&workload, spec.trials);
    let mut cells = Vec::with_capacity(radii.len() * 4 * spec.trials as usize);
    for &radius in radii {
        for &curve in &spec.particle_curves {
            for t in 0..spec.trials {
                let name = format!("r{radius}/{}/t{t}", curve.short_name());
                let cache = &cache;
                let workload = &workload;
                cells.push(BatchCell::new(name, move || {
                    let particles = timing::phase("sample", || cache.get(t));
                    let asg = timing::phase("assign", || {
                        crate::harness::assignment(opts, particles, workload.grid_order, curve, num_procs)
                    });
                    let machine = timing::phase("machine", || {
                        crate::harness::machine(opts, TopologyKind::Torus, num_procs, curve)
                    });
                    vec![timing::phase("nfi", || {
                        nfi_acd(&asg, &machine, radius, norm)
                            .unwrap_or_else(|e| panic!("nfi_acd: {e}"))
                            .acd()
                    })]
                }));
            }
        }
    }
    let results = runner.run_cells(cells);

    let mut header = vec!["Radius"];
    header.extend(CurveKind::PAPER.iter().map(|c| c.name()));
    let mut table = Table::new("Section VI-C — NFI ACD vs neighborhood radius", &header);
    let mut it = results.chunks(spec.trials as usize);
    for &radius in radii {
        let mut row = vec![radius.to_string()];
        for _curve in &CurveKind::PAPER {
            let acds = collect_first_values(it.next().unwrap());
            row.push(fmt_cell(mean_of(&acds)));
        }
        table.push_row(row);
    }
    table
}

/// First value of every completed cell in a chunk of batch results.
fn collect_first_values(results: &[CellResult]) -> Vec<f64> {
    results.iter().filter_map(|r| r.values().map(|v| v[0])).collect()
}

/// ACD as the input size varies at a fixed processor count (torus, tied
/// curves); near- and far-field rendered as two column groups.
/// Cell `"n{particles}/{curve}/t{trial}"` produces the (NFI, FFI) pair.
pub fn run_input_size_sweep(
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> Table {
    let sizes: Vec<usize> = spec.particle_counts.iter().map(|&n| n as usize).collect();
    let base = spec.workload(spec.distributions[0]);
    let num_procs = spec.processors[0];
    let radius = spec.radii[0];
    let norm = spec.norm;
    let mut owned_headers: Vec<String> = vec!["Particles".into()];
    for c in &CurveKind::PAPER {
        owned_headers.push(c.short_name().to_string());
    }
    for c in &CurveKind::PAPER {
        owned_headers.push(format!("{} (FFI)", c.short_name()));
    }
    let header_refs: Vec<&str> = owned_headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Section VI-C — ACD vs input size (NFI columns then FFI columns)",
        &header_refs,
    );
    let workloads: Vec<Workload> = sizes
        .iter()
        .map(|&n| Workload::new(base.grid_order, n, base.dist, base.seed))
        .collect();
    let caches: Vec<TrialCache> = workloads
        .iter()
        .map(|w| TrialCache::new(w, spec.trials))
        .collect();
    let mut cells = Vec::with_capacity(sizes.len() * 4 * spec.trials as usize);
    for (si, &n) in sizes.iter().enumerate() {
        for &curve in &spec.particle_curves {
            for t in 0..spec.trials {
                let name = format!("n{n}/{}/t{t}", curve.short_name());
                let cache = &caches[si];
                let workload = &workloads[si];
                cells.push(BatchCell::new(name, move || {
                    let particles = timing::phase("sample", || cache.get(t));
                    let asg = timing::phase("assign", || {
                        crate::harness::assignment(opts, particles, workload.grid_order, curve, num_procs)
                    });
                    let tree = timing::phase("index", || OwnerTree::build(&asg));
                    let machine = timing::phase("machine", || {
                        crate::harness::machine(opts, TopologyKind::Torus, num_procs, curve)
                    });
                    vec![
                        timing::phase("nfi", || {
                            nfi_acd(&asg, &machine, radius, norm)
                            .unwrap_or_else(|e| panic!("nfi_acd: {e}"))
                            .acd()
                        }),
                        timing::phase("ffi", || {
                            ffi_acd_with_tree(&asg, &machine, &tree)
                            .unwrap_or_else(|e| panic!("ffi_acd: {e}"))
                            .acd()
                        }),
                    ]
                }));
            }
        }
    }
    let results = runner.run_cells(cells);

    let mut it = results.chunks(spec.trials as usize);
    for &n in &sizes {
        let mut row = vec![n.to_string()];
        let mut ffi_cols = Vec::with_capacity(4);
        for _curve in &CurveKind::PAPER {
            let chunk = it.next().unwrap();
            let nfi_s = collect_first_values(chunk);
            let ffi_s: Vec<f64> =
                chunk.iter().filter_map(|r| r.values().map(|v| v[1])).collect();
            row.push(fmt_cell(mean_of(&nfi_s)));
            ffi_cols.push(fmt_cell(mean_of(&ffi_s)));
        }
        row.extend(ffi_cols);
        table.push_row(row);
    }
    table
}

/// ACD per distribution at the Table I/II configuration with tied curves —
/// the Section VI-C observation that NFI is best under uniform inputs while
/// FFI barely distinguishes the distributions.
/// Cell `"{distribution}/{curve}/t{trial}"` produces the (NFI, FFI) pair.
pub fn run_distribution_comparison(
    spec: &ExperimentSpec,
    opts: &ComputeOpts,
    runner: &mut SweepRunner,
) -> Table {
    let num_procs = spec.processors[0];
    let radius = spec.radii[0];
    let norm = spec.norm;
    let mut owned: Vec<String> = vec!["Distribution".into()];
    for c in &CurveKind::PAPER {
        owned.push(format!("{} (NFI)", c.short_name()));
    }
    for c in &CurveKind::PAPER {
        owned.push(format!("{} (FFI)", c.short_name()));
    }
    let header: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new("Section VI-C — ACD by input distribution (tied curves)", &header);
    let workloads: Vec<Workload> = spec
        .distributions
        .iter()
        .map(|&dist| spec.workload(dist))
        .collect();
    let caches: Vec<TrialCache> = workloads
        .iter()
        .map(|w| TrialCache::new(w, spec.trials))
        .collect();
    let mut cells =
        Vec::with_capacity(spec.distributions.len() * 4 * spec.trials as usize);
    for (di, dist) in spec.distributions.iter().enumerate() {
        for &curve in &spec.particle_curves {
            for t in 0..spec.trials {
                let name = format!("{}/{}/t{t}", dist.kind, curve.short_name());
                let cache = &caches[di];
                let workload = &workloads[di];
                cells.push(BatchCell::new(name, move || {
                    let particles = timing::phase("sample", || cache.get(t));
                    let asg = timing::phase("assign", || {
                        crate::harness::assignment(opts, particles, workload.grid_order, curve, num_procs)
                    });
                    let tree = timing::phase("index", || OwnerTree::build(&asg));
                    let machine = timing::phase("machine", || {
                        crate::harness::machine(opts, TopologyKind::Torus, num_procs, curve)
                    });
                    vec![
                        timing::phase("nfi", || {
                            nfi_acd(&asg, &machine, radius, norm)
                            .unwrap_or_else(|e| panic!("nfi_acd: {e}"))
                            .acd()
                        }),
                        timing::phase("ffi", || {
                            ffi_acd_with_tree(&asg, &machine, &tree)
                            .unwrap_or_else(|e| panic!("ffi_acd: {e}"))
                            .acd()
                        }),
                    ]
                }));
            }
        }
    }
    let results = runner.run_cells(cells);

    let mut it = results.chunks(spec.trials as usize);
    for dist in &spec.distributions {
        let mut nfi_row = vec![dist.kind.name().to_string()];
        let mut ffi_row = Vec::with_capacity(4);
        for _curve in &CurveKind::PAPER {
            let chunk = it.next().unwrap();
            let nfi_s = collect_first_values(chunk);
            let ffi_s: Vec<f64> =
                chunk.iter().filter_map(|r| r.values().map(|v| v[1])).collect();
            nfi_row.push(fmt_cell(mean_of(&nfi_s)));
            ffi_row.push(fmt_cell(mean_of(&ffi_s)));
        }
        nfi_row.extend(ffi_row);
        table.push_row(nfi_row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // scale 5: 128x128 fig6 grid, ~976 particles, 64 processors.
    fn tiny_spec(artifact: sfc_core::ArtifactKind) -> ExperimentSpec {
        ExperimentSpec::for_artifact(artifact, 5, 1, 3)
    }

    fn opts() -> ComputeOpts {
        ComputeOpts::default()
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
            &opts(),
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
            &opts(),
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
        let table = run_radius_sweep(&spec, &opts(), &mut SweepRunner::ephemeral());
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn distribution_comparison_rows() {
        let table = run_distribution_comparison(
            &tiny_spec(sfc_core::ArtifactKind::Parametric),
            &opts(),
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
        let table = run_input_size_sweep(&spec, &opts(), &mut SweepRunner::ephemeral());
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
        let sweep = run_processor_sweep(
            &tiny_spec(sfc_core::ArtifactKind::Figure7),
            &opts(),
            &mut runner,
        );
        assert!(sweep.nfi.iter().flatten().all(|s| s.is_none()));
        let text = render_processors(&sweep, true).render();
        assert!(text.contains('—'));
        let summary = runner.finish();
        assert_eq!(summary.computed, 0);
        assert!(!summary.skipped.is_empty());
    }
}
