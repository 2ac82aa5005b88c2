//! The one cell pipeline every 2-D sweep runs: sample → assign → index →
//! machine → NFI → FFI.
//!
//! Tables I/II, Figures 6/7, the Section VI-C studies and the extensions'
//! congestion and closed-curve studies all measure a cell the same way:
//! order one trial's particles by a curve, partition them over the ranks,
//! and measure the near and far field against one or more machines. A
//! driver describes what is fixed across its cells in a [`Pipeline`], gives
//! each cell its trial, curve and rank count through
//! [`Pipeline::measure_cell`], and folds the values back into its result
//! type with [`fold`]. Every phase the `--timing` envelope reports is
//! recorded here, and every kernel error is a typed [`SfcError`] the
//! runner fails on the first attempt.

use crate::artifact::ComputeOpts;
use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::load::nfi_link_load;
use sfc_core::nfi::nfi_acd;
use sfc_core::runner::CellResult;
use sfc_core::{timing, Assignment, Machine, SfcError, Stats};
use sfc_curves::point::Norm;
use sfc_curves::{CurveKind, Point2};
use sfc_particles::Workload;
use sfc_topology::TopologyKind;
use std::sync::OnceLock;

/// Per-trial particle sets of one workload, sampled lazily so replayed
/// cells cost nothing. Thread-safe: the cells of one trial may run on
/// different workers, and whichever asks first samples the set.
pub(crate) struct TrialCache {
    workload: Workload,
    sets: Vec<OnceLock<Vec<Point2>>>,
}

impl TrialCache {
    /// An empty cache for trials `0..trials` of `workload`.
    pub(crate) fn new(workload: Workload, trials: u64) -> Self {
        TrialCache {
            workload,
            sets: (0..trials).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get(&self, t: u64) -> &[Point2] {
        self.sets[t as usize].get_or_init(|| self.workload.particles(t))
    }
}

/// Build a machine, honoring [`ComputeOpts::no_oracle`]: the default
/// machine precomputes the dense hop-distance oracle, the ablation falls
/// back to closed-form distances. Both produce identical values.
pub(crate) fn machine(
    opts: &ComputeOpts,
    topo: TopologyKind,
    num_procs: u64,
    curve: CurveKind,
) -> Machine {
    let m = Machine::new(topo, num_procs, curve);
    if opts.no_oracle {
        m.without_oracle()
    } else {
        m
    }
}

/// Where a cell's machines come from. The source also fixes the order of
/// a cell's values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Machines<'a> {
    /// Built once per sweep and shared by every cell (Tables I/II). The
    /// cell measures them kernel by kernel: every machine's NFI values,
    /// then every machine's FFI values.
    Shared(&'a [Machine]),
    /// Built inside the cell, one per topology from the cell's curve and
    /// rank count, and dropped before the next, so a cell holds at most
    /// one. The cell's values are each machine's values in turn.
    Build(&'a [TopologyKind]),
}

/// What a cell measures on each machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Measure {
    /// The near-field ACD.
    Nfi,
    /// The near-field ACD, and the far-field ACD over an owner tree built
    /// once per cell.
    NfiFfi,
    /// Every near-field message routed: the ACD, the maximum, mean and
    /// mean active link load, and the load imbalance.
    LinkLoad,
}

/// What every cell of one sweep shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pipeline<'a> {
    /// Fast-path switches; the values never depend on them.
    pub(crate) opts: &'a ComputeOpts,
    /// The machines each cell is measured on.
    pub(crate) machines: Machines<'a>,
    /// The kernels measured on each machine.
    pub(crate) measure: Measure,
    /// Near-field neighborhood radius.
    pub(crate) radius: u32,
    /// Near-field neighborhood norm.
    pub(crate) norm: Norm,
}

impl Pipeline<'_> {
    /// Measure one cell: trial `t` of `particles`, ordered by `curve` and
    /// split over `ranks` ranks, on every machine of the pipeline (a built
    /// machine orders its ranks by `curve` too). Each step runs inside its
    /// `--timing` phase.
    pub(crate) fn measure_cell(
        &self,
        particles: &TrialCache,
        t: u64,
        curve: CurveKind,
        ranks: u64,
    ) -> Result<Vec<f64>, SfcError> {
        let points = timing::phase("sample", || particles.get(t));
        let asg = timing::phase("assign", || {
            let order = particles.workload.grid_order;
            Assignment::with_dense_grid(points, order, curve, ranks, !self.opts.no_dense_grid)
        });
        let tree = (self.measure == Measure::NfiFfi)
            .then(|| timing::phase("index", || OwnerTree::build(&asg)));
        let near = |m: &Machine| -> Result<Vec<f64>, SfcError> {
            timing::phase("nfi", || match self.measure {
                Measure::LinkLoad => {
                    let load = nfi_link_load(&asg, m, self.radius, self.norm);
                    let acd = match load.messages {
                        0 => 0.0,
                        n => load.crossings as f64 / n as f64,
                    };
                    Ok(vec![
                        acd,
                        load.max_load() as f64,
                        load.mean_load(),
                        load.mean_active_load(),
                        load.imbalance(),
                    ])
                }
                _ => Ok(vec![nfi_acd(&asg, m, self.radius, self.norm)?.acd()]),
            })
        };
        let far = |m: &Machine| -> Result<Option<f64>, SfcError> {
            let Some(tree) = &tree else { return Ok(None) };
            timing::phase("ffi", || Ok(Some(ffi_acd_with_tree(&asg, m, tree)?.acd())))
        };
        let mut values = Vec::new();
        match self.machines {
            Machines::Shared(machines) => {
                for m in machines {
                    values.extend(near(m)?);
                }
                for m in machines {
                    values.extend(far(m)?);
                }
            }
            Machines::Build(topologies) => {
                for &topo in topologies {
                    let m = timing::phase("machine", || machine(self.opts, topo, ranks, curve));
                    values.extend(near(&m)?);
                    values.extend(far(&m)?);
                }
            }
        }
        Ok(values)
    }
}

/// `Stats` per `[row][column]` slot of one measured kernel; `None` where
/// no cell fed the slot (a partial sweep).
pub(crate) type Grid = Vec<Vec<Option<Stats>>>;

/// Fold a batch's completed cells into one [`Grid`] per kernel: value `v`
/// of cell `i` is one sample of slot `[kernel, row, column] = at(i, v)`.
/// Cells fold in submission order, so every slot's samples keep trial
/// order; failed and skipped cells add none.
pub(crate) fn fold<const K: usize>(
    results: &[CellResult],
    rows: usize,
    cols: usize,
    at: impl Fn(usize, usize) -> [usize; 3],
) -> [Grid; K] {
    let mut samples: [Vec<Vec<Vec<f64>>>; K] =
        std::array::from_fn(|_| vec![vec![Vec::new(); cols]; rows]);
    for (i, values) in results.iter().enumerate() {
        for (v, &x) in values.values().unwrap_or_default().iter().enumerate() {
            let [k, r, c] = at(i, v);
            samples[k][r][c].push(x);
        }
    }
    samples.map(|grid| {
        grid.iter()
            .map(|row| {
                row.iter()
                    .map(|s| Stats::try_from_samples(s).ok())
                    .collect()
            })
            .collect()
    })
}
