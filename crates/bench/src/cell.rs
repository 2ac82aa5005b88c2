//! The one cell pipeline every 2-D sweep runs: sample → assign → index →
//! machine → NFI → FFI.
//!
//! Tables I/II, Figures 6/7, the Section VI-C studies and the extensions'
//! congestion and closed-curve studies all measure a cell the same way:
//! order one trial's particles by a curve, partition them over the ranks,
//! and measure the near and far field against one or more machines. A cell
//! is one assignment × its machine set: each kernel scans the assignment
//! once and evaluates every machine on the traffic it counted. A
//! driver describes what is fixed across its cells in a [`Pipeline`], gives
//! each cell its trial, curve and rank count through
//! [`Pipeline::measure_cell`], and folds the values back into its result
//! type with [`fold`]. Every phase the `--timing` envelope reports is
//! recorded here, and every kernel error is a typed [`SfcError`] the
//! runner fails on the first attempt.

use sfc_core::ffi::{ffi_acd_on, OwnerTree};
use sfc_core::load::{nfi_link_load, LinkLoad};
use sfc_core::nfi::nfi_acd_on;
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

/// Where a cell's machines come from. The source also fixes the order of
/// a cell's values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Machines<'a> {
    /// Built once per sweep and shared by every cell (Tables I/II). The
    /// cell's values go kernel by kernel: every machine's NFI values,
    /// then every machine's FFI values.
    Shared(&'a [Machine]),
    /// Built inside the cell, one closed-form machine per topology from the
    /// cell's curve and rank count. The cell's values are each machine's
    /// values in turn.
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
            Assignment::new(points, order, curve, ranks)
        });
        let tree = (self.measure == Measure::NfiFfi)
            .then(|| timing::phase("index", || OwnerTree::build(&asg)));
        let built: Vec<Machine>;
        let machines: Vec<&Machine> = match self.machines {
            Machines::Shared(machines) => machines.iter().collect(),
            Machines::Build(topologies) => {
                built = timing::phase("machine", || {
                    let build = |&topo| Machine::closed_form(topo, ranks, curve);
                    topologies.iter().map(build).collect()
                });
                built.iter().collect()
            }
        };
        // One value list per machine.
        let near: Vec<Vec<f64>> = timing::phase("nfi", || -> Result<_, SfcError> {
            Ok(match self.measure {
                Measure::LinkLoad => machines
                    .iter()
                    .map(|m| nfi_link_load(&asg, m, self.radius, self.norm).map(link_load_values))
                    .collect::<Result<_, _>>()?,
                _ => nfi_acd_on(&asg, &machines, self.radius, self.norm)?
                    .iter()
                    .map(|r| vec![r.acd()])
                    .collect(),
            })
        })?;
        let far: Vec<f64> = match &tree {
            Some(tree) => timing::phase("ffi", || ffi_acd_on(&asg, &machines, tree))?
                .iter()
                .map(|r| r.acd())
                .collect(),
            None => Vec::new(),
        };
        let mut values = Vec::new();
        match self.machines {
            Machines::Shared(_) => {
                values.extend(near.into_iter().flatten());
                values.extend(far);
            }
            Machines::Build(_) => {
                for (i, near) in near.into_iter().enumerate() {
                    values.extend(near);
                    values.extend(far.get(i));
                }
            }
        }
        Ok(values)
    }
}

/// The values [`Measure::LinkLoad`] reports, in column order.
fn link_load_values(load: LinkLoad) -> Vec<f64> {
    let acd = match load.messages {
        0 => 0.0,
        n => load.crossings as f64 / n as f64,
    };
    vec![
        acd,
        load.max_load() as f64,
        load.mean_load(),
        load.mean_active_load(),
        load.imbalance(),
    ]
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
