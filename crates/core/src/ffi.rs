//! Far-field interaction (FFI) ACD — Sections III–IV of the paper.
//!
//! The far field of one FMM time step induces three communication families:
//!
//! - **Interpolation**: upward accumulation. For every occupied cell at
//!   every level, the cell's owner sends its accumulated value to the owner
//!   of the parent cell. Following the paper's convention, the *owner* of a
//!   cell (quadrant) is the lowest-ranked processor holding a particle in it
//!   — with SFC-contiguous chunks this is also the processor of the lowest
//!   indexed particle.
//! - **Anterpolation**: downward accumulation — the same parent↔child pairs
//!   traversed in the opposite direction.
//! - **Interaction lists**: at every level, every occupied cell exchanges
//!   with every *occupied* cell of its interaction list (children of the
//!   parent's neighbors that are not adjacent to the cell; see
//!   [`sfc_quadtree::interaction`]).
//!
//! The ACD over the far field is the mean hop distance across all three
//! families; the per-family sums are reported separately so experiments can
//! break the total down.
//!
//! Owners live in a min-rank pyramid ([`OwnerTree`]), one [`GridIndex`]
//! per level. Level `k` is the assignment's own index, shared (one
//! particle per cell). Each coarser level holds the 2×2 minimum of the
//! level below, in the same form: dense under a dense finest level, a
//! third of its bytes (21.3 MiB at Figure 6's order 12), and sparse under
//! a sparse one (over [`MAX_GRID_CELLS`](sfc_particles::MAX_GRID_CELLS),
//! or built with `with_dense_grid(.., false)`), so memory stays `O(n·k)`.
//! Interpolation is one parent-slot load; an interaction list is the
//! parent's 6×6 block of children minus the cell's own 3×3, scanned as row
//! segments by the primitive NFI uses.
//!
//! The interaction-list relation is symmetric: `b` is in `a`'s list
//! exactly when `a` is in `b`'s. So each cell scans only the list cells
//! that come after it in row-major order, as the near-field scan does, and
//! each pair found stands for one exchange each way. Interpolation is not symmetric
//! and is counted directed; anterpolation is its transpose.
//!
//! Like the near field, one scan serves a whole machine set: each sender's
//! interpolation and interaction-list messages are counted per receiver in
//! two separate counters, so every [`FfiResult`] field stays exact, and each
//! distinct pair is evaluated once per machine (see the `scan` module). A
//! sender's cells are visited in one run: the finest level is walked in
//! particle order, which is rank order, and each coarse level is bucketed
//! by owner with a counting sort into per-thread scratch.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::machine::Machine;
use crate::scan::{scan_row, with_scratch, PairSink, Totals};
use sfc_particles::cellmap::{pack_cell, unpack_cell};
use sfc_particles::GridIndex;
use sfc_quadtree::Cell;
use std::sync::Arc;

/// Outcome of a far-field ACD computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FfiResult {
    /// Hop-distance sum of interpolation (upward) messages.
    pub interp_distance: u64,
    /// Number of interpolation messages.
    pub interp_comms: u64,
    /// Hop-distance sum of anterpolation (downward) messages.
    pub anterp_distance: u64,
    /// Number of anterpolation messages.
    pub anterp_comms: u64,
    /// Hop-distance sum of interaction-list exchanges (directed).
    pub ilist_distance: u64,
    /// Number of interaction-list exchanges (directed).
    pub ilist_comms: u64,
}

impl FfiResult {
    /// Total hop distance over all far-field communications.
    pub fn total_distance(&self) -> u64 {
        self.interp_distance + self.anterp_distance + self.ilist_distance
    }

    /// Total number of far-field communications.
    pub fn num_comms(&self) -> u64 {
        self.interp_comms + self.anterp_comms + self.ilist_comms
    }

    /// The far-field Average Communicated Distance.
    pub fn acd(&self) -> f64 {
        let n = self.num_comms();
        if n == 0 {
            0.0
        } else {
            self.total_distance() as f64 / n as f64
        }
    }

    /// ACD of the tree (interpolation + anterpolation) component alone.
    pub fn tree_acd(&self) -> f64 {
        let n = self.interp_comms + self.anterp_comms;
        if n == 0 {
            0.0
        } else {
            (self.interp_distance + self.anterp_distance) as f64 / n as f64
        }
    }

    /// ACD of the interaction-list component alone.
    pub fn ilist_acd(&self) -> f64 {
        if self.ilist_comms == 0 {
            0.0
        } else {
            self.ilist_distance as f64 / self.ilist_comms as f64
        }
    }
}

/// Call `f(x, y, owner)` for every occupied cell of `level`, each owner's
/// cells in one run. Owners are below `ranks`. The cells are bucketed by
/// owner with a counting sort through `order` and `starts`.
fn for_each_by_owner(
    level: &GridIndex,
    ranks: usize,
    order: &mut Vec<u64>,
    starts: &mut Vec<usize>,
    mut f: impl FnMut(u32, u32, u32),
) {
    // `starts[r]` becomes the first slot of owner `r`'s bucket, then,
    // after the scatter, the first slot past it.
    starts.clear();
    starts.resize(ranks + 1, 0);
    level.for_each_occupied(|_, _, rank| starts[rank as usize + 1] += 1);
    for r in 1..=ranks {
        starts[r] += starts[r - 1];
    }
    order.clear();
    order.resize(starts[ranks], 0);
    level.for_each_occupied(|x, y, rank| {
        let slot = &mut starts[rank as usize];
        order[*slot] = pack_cell(x, y);
        *slot += 1;
    });
    let mut begin = 0;
    for (rank, &end) in starts[..ranks].iter().enumerate() {
        for &key in &order[begin..end] {
            let (x, y) = unpack_cell(key);
            f(x, y, rank as u32);
        }
        begin = end;
    }
}

/// The per-level ownership index the far-field model walks: the lowest
/// rank holding a particle in each cell of each level `0 ..= k`, as a
/// min-rank pyramid (see the module docs).
pub struct OwnerTree {
    /// Levels `0 .. k`, each the 2×2 minimum of the level below.
    coarse: Vec<GridIndex>,
    /// Level `k`: the assignment's own index, shared.
    finest: Arc<GridIndex>,
}

impl OwnerTree {
    /// Build the tree for an assignment.
    pub fn build(asg: &Assignment) -> Self {
        let mut tree = OwnerTree {
            coarse: Vec::new(),
            finest: Arc::clone(asg.grid()),
        };
        tree.rebuild(asg);
        tree
    }

    /// Rebuild the tree for a new assignment *in place*. Level `l` always
    /// has side `2^l`, so with a dense index every level the last
    /// assignment had is reused, and at an unchanged grid order this
    /// allocates nothing.
    pub fn rebuild(&mut self, asg: &Assignment) {
        let k = asg.grid_order() as usize;
        self.finest = Arc::clone(asg.grid());
        // New levels start as empty placeholders; `clear_as_parent_of`
        // gives each the shape of the level it summarizes.
        self.coarse.resize_with(k, || GridIndex::sparse(0, 0));
        for level in (0..k).rev() {
            let (dst, below) = self.coarse.split_at_mut(level + 1);
            let table = &mut dst[level];
            let finer = below.first().unwrap_or(&self.finest);
            table.clear_as_parent_of(finer);
            let mut put = |x: u32, y: u32, rank| table.insert_min(x >> 1, y >> 1, rank);
            if below.is_empty() {
                // Under the finest level, walk the `n` particles rather
                // than every cell of the grid.
                for (i, p) in asg.particles().iter().enumerate() {
                    put(p.x, p.y, asg.rank_of_index(i));
                }
            } else {
                finer.for_each_occupied(put);
            }
        }
    }

    /// Number of levels (grid order + 1).
    pub fn num_levels(&self) -> usize {
        self.coarse.len() + 1
    }

    /// Owner of the given cell, or `None` if it holds no particle.
    pub fn owner(&self, cell: Cell) -> Option<u32> {
        assert!(
            cell.level as usize <= self.coarse.len(),
            "{cell} is below the finest level"
        );
        self.level(cell.level).rank_of(cell.x, cell.y)
    }

    /// Number of occupied cells at a level.
    pub fn level_len(&self, level: u32) -> usize {
        self.level(level).len()
    }

    /// Level `level`, `0 ..= k`.
    fn level(&self, level: u32) -> &GridIndex {
        self.coarse.get(level as usize).unwrap_or(&self.finest)
    }
}

/// Compute the far-field ACD for an assignment on a machine. A machine with
/// fewer ranks than the assignment addresses is a typed [`SfcError`].
pub fn ffi_acd(asg: &Assignment, machine: &Machine) -> Result<FfiResult, SfcError> {
    let tree = OwnerTree::build(asg);
    ffi_acd_with_tree(asg, machine, &tree)
}

/// Compute the far-field ACD with a prebuilt [`OwnerTree`] of `asg`.
///
/// A machine with fewer ranks than the assignment addresses is a typed
/// [`SfcError`] instead of an abort.
pub fn ffi_acd_with_tree(
    asg: &Assignment,
    machine: &Machine,
    tree: &OwnerTree,
) -> Result<FfiResult, SfcError> {
    let (mut interp, mut ilist) = ([0], [0]);
    let counts = ffi_totals(asg, &[machine], tree, &mut interp, &mut ilist)?;
    Ok(with_distances(counts, interp[0], ilist[0]))
}

/// [`ffi_acd_with_tree`] on every machine of `machines`, from one scan of
/// `asg`: the `i`-th result is the one `ffi_acd_with_tree` returns on
/// `machines[i]`.
pub fn ffi_acd_on(
    asg: &Assignment,
    machines: &[&Machine],
    tree: &OwnerTree,
) -> Result<Vec<FfiResult>, SfcError> {
    let mut interp = vec![0; machines.len()];
    let mut ilist = vec![0; machines.len()];
    let counts = ffi_totals(asg, machines, tree, &mut interp, &mut ilist)?;
    Ok(interp
        .iter()
        .zip(&ilist)
        .map(|(&up, &across)| with_distances(counts, up, across))
        .collect())
}

/// `counts` with one machine's interpolation and interaction-list
/// distances filled in.
fn with_distances(counts: FfiResult, interp: u64, ilist: u64) -> FfiResult {
    FfiResult {
        interp_distance: interp,
        // Downward accumulation retraces the same edges.
        anterp_distance: interp,
        ilist_distance: ilist,
        ..counts
    }
}

/// Scan `asg` once, summing each machine's interpolation and
/// interaction-list hop distances into `interp` and `ilist`. Returns the
/// message counts, which no machine changes, with zero distances.
fn ffi_totals(
    asg: &Assignment,
    machines: &[&Machine],
    tree: &OwnerTree,
    interp: &mut [u64],
    ilist: &mut [u64],
) -> Result<FfiResult, SfcError> {
    for machine in machines {
        machine.check_assignment(asg)?;
    }
    let mut interp = Totals::directed(machines, interp);
    let mut ilist = Totals::undirected(machines, ilist);
    ffi_traffic(asg, tree, &mut interp, &mut ilist);
    Ok(FfiResult {
        interp_comms: interp.comms,
        anterp_comms: interp.comms,
        ilist_comms: ilist.comms,
        ..FfiResult::default()
    })
}

/// Deliver the far-field traffic of `asg` to two sinks (see
/// [`PairSink`]): every interpolation message to `interp`, *directed*, and
/// the interaction-list exchanges to `ilist`, *undirected*, each pair of
/// cells once. Anterpolation is the transpose of interpolation. `tree`
/// must be built from `asg`.
///
/// # Panics
///
/// If `tree` was built from another assignment.
pub fn ffi_traffic(
    asg: &Assignment,
    tree: &OwnerTree,
    interp: &mut impl PairSink,
    ilist: &mut impl PairSink,
) {
    assert!(
        Arc::ptr_eq(&tree.finest, asg.grid()),
        "tree built from another assignment"
    );
    let ranks = asg.num_ranks();
    let k = asg.grid_order();
    with_scratch(|scratch| {
        let [up, across] = &mut scratch.counts;
        up.reset(ranks);
        across.reset(ranks);
        for level in 1..=k {
            let (cells, parents) = (tree.level(level), tree.level(level - 1));
            let side = 1u32 << level;
            let mut visit = |x: u32, y: u32, rank: u32| {
                up.send_from(rank, interp);
                across.send_from(rank, ilist);
                // Interpolation: one parent-slot load.
                let (px, py) = (x >> 1, y >> 1);
                scan_row(parents, py, px..px + 1, 0..0, up);
                // Interaction list: the children of the parent's 3×3
                // neighborhood (a 6×6 block clipped at the grid edge) minus
                // the cell's own 3×3, and of those only the cells after
                // (x, y) in row-major order. That is row `y` from `x + 2`
                // (clamped: at the grid's right edge it passes the block),
                // row `y + 1` with the own 3×3 cut out, and the rows above
                // whole. Empty at level 1, where the hole covers all.
                let (bx, by) = (x & !1, y & !1);
                let xs = bx.saturating_sub(2)..(bx + 4).min(side);
                scan_row(cells, y, (x + 2).min(xs.end)..xs.end, 0..0, across);
                let own = x.saturating_sub(1)..x + 2;
                for ny in y + 1..(by + 4).min(side) {
                    let hole = if ny == y + 1 { own.clone() } else { 0..0 };
                    scan_row(cells, ny, xs.clone(), hole, across);
                }
            };
            if level == k {
                // The particles are in curve order, which is rank order.
                for (i, p) in asg.particles().iter().enumerate() {
                    visit(p.x, p.y, asg.rank_of_index(i));
                }
            } else {
                let (order, starts) = (&mut scratch.order, &mut scratch.starts);
                for_each_by_owner(cells, ranks as usize, order, starts, &mut visit);
            }
        }
        up.flush(interp);
        across.flush(ilist);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::{CurveKind, Point2};
    use sfc_topology::TopologyKind;

    fn pts(coords: &[(u32, u32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn owner_tree_propagates_minimum_rank() {
        // Four particles on a 4x4 grid, one per rank, Z-ordered.
        let particles = pts(&[(0, 0), (3, 0), (0, 3), (3, 3)]);
        let asg = Assignment::new(&particles, 2, CurveKind::ZCurve, 4);
        let tree = OwnerTree::build(&asg);
        assert_eq!(tree.num_levels(), 3);
        // Root owned by rank 0.
        assert_eq!(tree.owner(Cell::ROOT), Some(0));
        // Each level-1 quadrant owned by its single particle's rank
        // (Z order: LL=0, LR=1, UL=2, UR=3).
        assert_eq!(tree.owner(Cell::new(1, 0, 0)), Some(0));
        assert_eq!(tree.owner(Cell::new(1, 1, 0)), Some(1));
        assert_eq!(tree.owner(Cell::new(1, 0, 1)), Some(2));
        assert_eq!(tree.owner(Cell::new(1, 1, 1)), Some(3));
        // Empty cells have no owner.
        assert_eq!(tree.owner(Cell::new(2, 1, 1)), None);
    }

    #[test]
    fn single_particle_has_tree_only_traffic_at_zero_distance() {
        let particles = pts(&[(2, 2)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 1);
        let machine = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
        let res = ffi_acd(&asg, &machine).unwrap();
        // One occupied cell per level 1..=3: 3 interpolation + 3
        // anterpolation messages, all rank-local.
        assert_eq!(res.interp_comms, 3);
        assert_eq!(res.anterp_comms, 3);
        assert_eq!(res.total_distance(), 0);
        assert_eq!(res.ilist_comms, 0);
        assert_eq!(res.acd(), 0.0);
    }

    #[test]
    fn interpolation_counts_match_occupied_cells() {
        let particles = pts(&[(0, 0), (1, 0), (7, 7), (6, 6)]);
        let asg = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let tree = OwnerTree::build(&asg);
        let machine = Machine::new(TopologyKind::Mesh, 64, CurveKind::ZCurve);
        let res = ffi_acd_with_tree(&asg, &machine, &tree).unwrap();
        let expected: u64 = (1..=3).map(|l| tree.level_len(l) as u64).sum();
        assert_eq!(res.interp_comms, expected);
        assert_eq!(res.anterp_comms, expected);
        assert_eq!(res.interp_distance, res.anterp_distance);
    }

    #[test]
    fn well_separated_pairs_generate_ilist_traffic() {
        // Two particles whose level-3 cells are in each other's interaction
        // lists: (0,0) and (3,0) on an 8x8 grid — parents (0,0) and (1,0)
        // at level 2 are adjacent, cells are 3 apart (Chebyshev) at level 3.
        let particles = pts(&[(0, 0), (3, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::RowMajor, 2);
        let machine = Machine::new(TopologyKind::Mesh, 64, CurveKind::RowMajor);
        let res = ffi_acd(&asg, &machine).unwrap();
        // Directed: 2 exchanges at level 3 only.
        assert_eq!(res.ilist_comms, 2);
        assert!(res.ilist_distance > 0);
    }

    #[test]
    fn adjacent_cells_never_appear_in_ilists() {
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 2);
        let machine = Machine::new(TopologyKind::Mesh, 64, CurveKind::Hilbert);
        let res = ffi_acd(&asg, &machine).unwrap();
        assert_eq!(res.ilist_comms, 0);
    }

    #[test]
    fn ilist_traffic_is_directed_and_symmetric() {
        let particles = pts(&[(0, 0), (3, 3), (5, 5), (7, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Gray, 4);
        let machine = Machine::new(TopologyKind::Torus, 64, CurveKind::Gray);
        let res = ffi_acd(&asg, &machine).unwrap();
        assert_eq!(res.ilist_comms % 2, 0);
        assert_eq!(res.ilist_distance % 2, 0);
    }

    #[test]
    fn acd_breakdown_sums_to_total() {
        let particles = pts(&[(0, 0), (2, 5), (7, 1), (4, 4), (6, 7)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 4);
        let machine = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
        let res = ffi_acd(&asg, &machine).unwrap();
        assert_eq!(
            res.total_distance(),
            res.interp_distance + res.anterp_distance + res.ilist_distance
        );
        assert_eq!(
            res.num_comms(),
            res.interp_comms + res.anterp_comms + res.ilist_comms
        );
        let weighted = res.tree_acd() * (res.interp_comms + res.anterp_comms) as f64
            + res.ilist_acd() * res.ilist_comms as f64;
        assert!((weighted / res.num_comms() as f64 - res.acd()).abs() < 1e-9);
    }

    #[test]
    fn prebuilt_tree_matches_direct_call() {
        let particles = pts(&[(0, 0), (2, 5), (7, 1), (4, 4)]);
        let asg = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let machine = Machine::new(TopologyKind::Mesh, 64, CurveKind::ZCurve);
        let tree = OwnerTree::build(&asg);
        assert_eq!(
            ffi_acd(&asg, &machine),
            ffi_acd_with_tree(&asg, &machine, &tree)
        );
    }

    #[test]
    #[should_panic(expected = "tree built from another assignment")]
    fn tree_of_another_assignment_is_rejected() {
        let particles = pts(&[(0, 0), (2, 5), (7, 1), (4, 4)]);
        let asg = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let other = Assignment::new(&particles, 3, CurveKind::Hilbert, 4);
        let machine = Machine::new(TopologyKind::Mesh, 64, CurveKind::ZCurve);
        let _ = ffi_acd_with_tree(&asg, &machine, &OwnerTree::build(&other));
    }

    #[test]
    fn undersized_machine_is_a_typed_error() {
        use crate::error::SfcError;
        let particles = pts(&[(0, 0), (7, 7)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 64);
        let small = Machine::new(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        match ffi_acd(&asg, &small) {
            Err(SfcError::MachineTooSmall {
                machine_ranks: 16,
                assignment_ranks: 64,
            }) => {}
            other => panic!("expected MachineTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn dense_grid_on_and_off_agree() {
        let particles = pts(&[(0, 0), (3, 3), (5, 5), (7, 0), (2, 6), (6, 2), (1, 7)]);
        let dense = Assignment::new(&particles, 3, CurveKind::Gray, 16);
        let sparse = Assignment::with_dense_grid(&particles, 3, CurveKind::Gray, 16, false);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::Gray);
        assert_eq!(ffi_acd(&dense, &machine), ffi_acd(&sparse, &machine));
    }
}
