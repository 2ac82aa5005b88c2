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
//! Owners live in a dense min-rank pyramid ([`OwnerTree`]). Level `k` is
//! the assignment's own rank index, read in place (one particle per cell).
//! Each coarser level is a flat table, the 2×2 minimum of the level below:
//! a third of the `GridIndex` bytes, 21.3 MiB at Figure 6's order 12.
//! Interpolation is one parent-slot load; an interaction list is the
//! parent's 6×6 block of children minus the cell's own 3×3, scanned as row
//! segments by the primitive NFI uses. An assignment without a dense grid
//! (over [`MAX_GRID_CELLS`](sfc_particles::MAX_GRID_CELLS), or ablated)
//! keeps every level sparse, so memory stays `O(n·k)`, and the scans take
//! the primitive's probe branch instead.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::machine::Machine;
use crate::scan::{scan_row, RankRows, Sender, Tally};
use sfc_particles::cellmap::{pack_cell, unpack_cell, CellMap};
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

/// One coarse level `l < k` of the owner pyramid.
enum Table {
    /// `2^l × 2^l` min-rank slots, row-major, [`GridIndex::EMPTY`] if
    /// empty, and the side `2^l`.
    Dense(Box<[u32]>, usize),
    /// Occupied cells by packed coordinates, for assignments without a
    /// dense grid.
    Sparse(CellMap),
}

/// One level as the kernels read it.
#[derive(Clone, Copy)]
enum Level<'a> {
    /// Level `k`: the assignment's own index, read in place.
    Finest(&'a Assignment),
    /// A level of the pyramid.
    Coarse(&'a Table),
}

impl Level<'_> {
    /// Call `f(x, y, owner)` for every occupied cell, in no set order.
    fn for_each_occupied(self, mut f: impl FnMut(u32, u32, u32)) {
        match self {
            Level::Finest(asg) => {
                for (i, p) in asg.particles().iter().enumerate() {
                    f(p.x, p.y, asg.rank_of_index(i));
                }
            }
            Level::Coarse(Table::Dense(ranks, side)) => {
                for (y, row) in ranks.chunks_exact(*side).enumerate() {
                    for (x, &rank) in row.iter().enumerate() {
                        if rank != GridIndex::EMPTY {
                            f(x as u32, y as u32, rank);
                        }
                    }
                }
            }
            Level::Coarse(Table::Sparse(map)) => {
                for (key, rank) in map.iter() {
                    let (x, y) = unpack_cell(key);
                    f(x, y, rank);
                }
            }
        }
    }
}

impl RankRows for Level<'_> {
    #[inline]
    fn row(&self, y: u32) -> Option<&[u32]> {
        match *self {
            Level::Finest(asg) => RankRows::row(asg, y),
            Level::Coarse(Table::Dense(ranks, side)) => Some(&ranks[y as usize * side..][..*side]),
            Level::Coarse(Table::Sparse(_)) => None,
        }
    }

    #[inline]
    fn probe(&self, x: u32, y: u32) -> Option<u32> {
        match *self {
            Level::Finest(asg) => RankRows::probe(asg, x, y),
            Level::Coarse(Table::Dense(ranks, side)) => {
                Some(ranks[y as usize * side + x as usize]).filter(|&r| r != GridIndex::EMPTY)
            }
            Level::Coarse(Table::Sparse(map)) => map.get(pack_cell(x, y)),
        }
    }
}

/// The per-level ownership index the far-field model walks: the lowest
/// rank holding a particle in each cell of each level `0 ..= k`, as a dense
/// min-rank pyramid (see the module docs).
pub struct OwnerTree {
    /// Levels `0 .. k`; level `k` is the assignment's own index.
    coarse: Vec<Table>,
    /// Occupied cells per level `0 ..= k`.
    lens: Vec<usize>,
    /// The assignment's cell → rank map, shared so [`OwnerTree::owner`]
    /// answers finest-level queries without a copy.
    finest: Arc<CellMap>,
}

impl OwnerTree {
    /// Build the tree for an assignment.
    pub fn build(asg: &Assignment) -> Self {
        let mut tree = OwnerTree {
            coarse: Vec::new(),
            lens: Vec::new(),
            finest: Arc::clone(asg.cell_map()),
        };
        tree.rebuild(asg);
        tree
    }

    /// Rebuild the tree for a new assignment *in place*. At an unchanged
    /// grid order and a dense grid this reuses every table and allocates
    /// nothing.
    pub fn rebuild(&mut self, asg: &Assignment) {
        let k = asg.grid_order() as usize;
        // Coarse levels are dense exactly when the finest is: they are
        // smaller, so they are under the cap whenever it is.
        let dense = asg.has_dense_grid();
        self.finest = Arc::clone(asg.cell_map());
        self.lens.clear();
        self.lens.resize(k + 1, asg.particles().len());
        self.coarse.truncate(k);
        if self.coarse.first().is_some_and(|t| matches!(t, Table::Dense(..)) != dense) {
            self.coarse.clear();
        }
        while self.coarse.len() < k {
            let side = 1usize << self.coarse.len();
            self.coarse.push(if dense {
                Table::Dense(vec![GridIndex::EMPTY; side * side].into(), side)
            } else {
                Table::Sparse(CellMap::with_capacity(0))
            });
        }
        // Each level is the 2×2 minimum of the one below. EMPTY is
        // `u32::MAX`, the identity of `min`, so empty children drop out.
        for level in (0..k).rev() {
            let (dst, below) = self.coarse.split_at_mut(level + 1);
            let below = below.first().map_or(Level::Finest(asg), Level::Coarse);
            let len = &mut self.lens[level];
            match &mut dst[level] {
                Table::Dense(ranks, side) => {
                    ranks.fill(GridIndex::EMPTY);
                    *len = 0;
                    below.for_each_occupied(|x, y, rank| {
                        let slot = &mut ranks[(y >> 1) as usize * *side + (x >> 1) as usize];
                        *len += usize::from(*slot == GridIndex::EMPTY);
                        *slot = (*slot).min(rank);
                    });
                }
                Table::Sparse(map) => {
                    *map = CellMap::with_capacity(asg.particles().len());
                    below.for_each_occupied(|x, y, rank| {
                        map.insert_min(pack_cell(x >> 1, y >> 1), rank);
                    });
                    *len = map.len();
                }
            }
        }
    }

    /// Number of levels (grid order + 1).
    pub fn num_levels(&self) -> usize {
        self.lens.len()
    }

    /// Owner of the given cell, or `None` if it holds no particle.
    pub fn owner(&self, cell: Cell) -> Option<u32> {
        match self.coarse.get(cell.level as usize) {
            Some(table) => Level::Coarse(table).probe(cell.x, cell.y),
            None if cell.level as usize == self.coarse.len() => {
                self.finest.get(pack_cell(cell.x, cell.y))
            }
            None => panic!("{cell} is below the finest level"),
        }
    }

    /// Number of occupied cells at a level.
    pub fn level_len(&self, level: u32) -> usize {
        self.lens[level as usize]
    }

    /// Level `level` for the kernels, the finest read from `asg`.
    fn level<'a>(&'a self, asg: &'a Assignment, level: u32) -> Level<'a> {
        let coarse = self.coarse.get(level as usize);
        coarse.map_or(Level::Finest(asg), Level::Coarse)
    }
}

/// Compute the far-field ACD for an assignment on a machine. A machine with
/// fewer ranks than the assignment addresses is a typed [`SfcError`].
pub fn ffi_acd(asg: &Assignment, machine: &Machine) -> Result<FfiResult, SfcError> {
    let tree = OwnerTree::build(asg);
    ffi_acd_with_tree(asg, machine, &tree)
}

/// Compute the far-field ACD with a prebuilt [`OwnerTree`] of `asg` (for
/// callers that evaluate several machines against one assignment).
///
/// A machine with fewer ranks than the assignment addresses is a typed
/// [`SfcError`] instead of an abort.
pub fn ffi_acd_with_tree(
    asg: &Assignment,
    machine: &Machine,
    tree: &OwnerTree,
) -> Result<FfiResult, SfcError> {
    machine.check_assignment(asg)?;
    let k = asg.grid_order();
    // The finest level is read from `asg`, the coarser ones from `tree`.
    assert!(
        Arc::ptr_eq(&tree.finest, asg.cell_map()),
        "tree built from another assignment"
    );
    let (mut interp, mut ilist) = (Tally::default(), Tally::default());
    for level in 1..=k {
        let (cells, parents) = (tree.level(asg, level), tree.level(asg, level - 1));
        let side = 1u32 << level;
        cells.for_each_occupied(|x, y, rank| {
            let from = Sender::new(machine, rank);
            // Interpolation: one parent-slot load.
            let (px, py) = (x >> 1, y >> 1);
            scan_row(&parents, py, px..px + 1, 0..0, &from, &mut interp);
            // Interaction list: the children of the parent's 3×3
            // neighborhood (a 6×6 block clipped at the grid edge) minus the
            // cell's own 3×3. Empty at level 1, where the hole covers all.
            let (bx, by) = (x & !1, y & !1);
            let xs = bx.saturating_sub(2)..(bx + 4).min(side);
            let own = x.saturating_sub(1)..x + 2;
            for ny in by.saturating_sub(2)..(by + 4).min(side) {
                let near = ny.abs_diff(y) <= 1;
                let hole = if near { own.clone() } else { 0..0 };
                scan_row(&cells, ny, xs.clone(), hole, &from, &mut ilist);
            }
        });
    }
    Ok(FfiResult {
        interp_distance: interp.distance,
        interp_comms: interp.comms,
        // Downward accumulation retraces the same edges.
        anterp_distance: interp.distance,
        anterp_comms: interp.comms,
        ilist_distance: ilist.distance,
        ilist_comms: ilist.comms,
    })
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
        assert_eq!(ffi_acd(&asg, &machine), ffi_acd_with_tree(&asg, &machine, &tree));
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
    fn oracle_on_and_off_agree() {
        let particles = pts(&[(0, 0), (3, 3), (5, 5), (7, 0), (2, 6), (6, 2)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 16);
        let cached = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert);
        let plain = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert).without_oracle();
        assert_eq!(ffi_acd(&asg, &cached), ffi_acd(&asg, &plain));
    }

    #[test]
    fn dense_grid_on_and_off_agree() {
        let particles = pts(&[(0, 0), (3, 3), (5, 5), (7, 0), (2, 6), (6, 2), (1, 7)]);
        let dense = Assignment::new(&particles, 3, CurveKind::Gray, 16);
        let sparse = dense.clone().without_dense_grid();
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::Gray);
        assert_eq!(ffi_acd(&dense, &machine), ffi_acd(&sparse, &machine));
    }
}
