//! Dense occupancy index over the full grid.
//!
//! The ACD kernels' innermost question — "which rank owns cell `(x, y)`?" —
//! is asked once per neighborhood cell per particle, tens of millions of
//! times per trial. The [`CellMap`](crate::CellMap) answers it with a
//! Fibonacci-hash probe (multiply, shift, compare, possible probe chain);
//! [`GridIndex`] answers it with **one indexed load** from a flat
//! `side × side` table of rank slots, and hands whole grid rows to kernels
//! so a radius-`r` neighborhood becomes a handful of contiguous row-segment
//! scans instead of `O(r²)` independent probes.
//!
//! Like the hop-distance oracle in `sfc-core`, the table is capped
//! ([`MAX_GRID_CELLS`]) and callers fall back to the `CellMap` silently
//! above the cap — both paths produce bit-identical results.

/// Cap on the dense table size, in cells. `1 << 24` cells is a
/// `4096 × 4096` grid (order 12) at 4 bytes per slot — 64 MiB, comfortably
/// resident alongside the distance oracle at the paper's full-size
/// workloads. One order further would cost 256 MiB per live assignment,
/// so larger grids silently keep the `CellMap` probe path instead.
pub const MAX_GRID_CELLS: u64 = 1 << 24;

/// A flat `side × side` occupancy table mapping every grid cell to the rank
/// owning its particle, or [`GridIndex::EMPTY`] for unoccupied cells.
#[derive(Clone)]
pub struct GridIndex {
    side: usize,
    len: usize,
    ranks: Box<[u32]>,
}

impl GridIndex {
    /// Slot value marking an unoccupied cell. Rank values must stay below
    /// this sentinel; real machines top out at far smaller rank counts.
    pub const EMPTY: u32 = u32::MAX;

    /// Allocate an all-empty index for a `2^grid_order`-sided grid, or
    /// `None` when the table would exceed [`MAX_GRID_CELLS`] — the caller
    /// keeps its sparse index in that case.
    pub fn new(grid_order: u32) -> Option<GridIndex> {
        let side = 1u64 << grid_order;
        if side
            .checked_mul(side)
            .is_none_or(|cells| cells > MAX_GRID_CELLS)
        {
            return None;
        }
        let cells = (side * side) as usize;
        Some(GridIndex {
            side: side as usize,
            len: 0,
            ranks: vec![Self::EMPTY; cells].into_boxed_slice(),
        })
    }

    /// Record `rank` as the owner of cell `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid, if the cell is
    /// already occupied, or if `rank` is the reserved [`GridIndex::EMPTY`]
    /// sentinel.
    pub fn insert(&mut self, x: u32, y: u32, rank: u32) {
        assert_ne!(rank, Self::EMPTY, "u32::MAX is the reserved empty sentinel");
        assert!(
            (x as usize) < self.side && (y as usize) < self.side,
            "cell ({x}, {y}) outside {0}x{0} grid",
            self.side
        );
        let slot = &mut self.ranks[y as usize * self.side + x as usize];
        assert_eq!(*slot, Self::EMPTY, "cell ({x}, {y}) already occupied");
        *slot = rank;
        self.len += 1;
    }

    /// Rank owning cell `(x, y)`, or `None` when it is empty — one indexed
    /// load.
    #[inline]
    pub fn rank_of(&self, x: u32, y: u32) -> Option<u32> {
        let rank = self.ranks[y as usize * self.side + x as usize];
        (rank != Self::EMPTY).then_some(rank)
    }

    /// True if cell `(x, y)` holds a particle.
    #[inline]
    pub fn is_occupied(&self, x: u32, y: u32) -> bool {
        self.ranks[y as usize * self.side + x as usize] != Self::EMPTY
    }

    /// The full rank row at height `y`: `rank_row(y)[x]` is the owner of
    /// cell `(x, y)`, or [`GridIndex::EMPTY`]. Kernels scan clipped
    /// contiguous segments of these rows instead of probing per cell.
    #[inline]
    pub fn rank_row(&self, y: u32) -> &[u32] {
        let start = y as usize * self.side;
        &self.ranks[start..start + self.side]
    }

    /// Grid side length (`2^grid_order`).
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no cell is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the dense table — the memory-envelope number the cap
    /// bounds (at most 4 × [`MAX_GRID_CELLS`] = 64 MiB).
    pub fn table_bytes(&self) -> usize {
        self.ranks.len() * std::mem::size_of::<u32>()
    }
}

impl std::fmt::Debug for GridIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridIndex")
            .field("side", &self.side)
            .field("occupied", &self.len)
            .field("table_bytes", &self.table_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut g = GridIndex::new(3).unwrap();
        assert!(g.is_empty());
        g.insert(1, 2, 7);
        g.insert(0, 0, 3);
        assert_eq!(g.rank_of(1, 2), Some(7));
        assert_eq!(g.rank_of(0, 0), Some(3));
        assert_eq!(g.rank_of(2, 2), None);
        assert!(g.is_occupied(1, 2));
        assert!(!g.is_occupied(7, 7));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn rank_rows_expose_the_sentinel() {
        let mut g = GridIndex::new(2).unwrap();
        g.insert(1, 1, 5);
        g.insert(3, 1, 0);
        let row = g.rank_row(1);
        assert_eq!(row, &[GridIndex::EMPTY, 5, GridIndex::EMPTY, 0]);
        assert!(g.rank_row(0).iter().all(|&r| r == GridIndex::EMPTY));
        assert_eq!(g.rank_row(3).len(), g.side());
    }

    #[test]
    fn cap_math_and_envelope() {
        // Order 12 is exactly the cap: 4096² = 1 << 24 cells, 64 MiB.
        let g = GridIndex::new(12).unwrap();
        assert_eq!(g.table_bytes(), 64 << 20);
        assert_eq!(g.table_bytes() as u64, 4 * MAX_GRID_CELLS);
        // Order 13 would be 256 MiB: refused, callers keep the CellMap.
        assert!(GridIndex::new(13).is_none());
        // Absurd orders must not overflow the size computation.
        assert!(GridIndex::new(31).is_none());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_insert_rejected() {
        let mut g = GridIndex::new(2).unwrap();
        g.insert(1, 1, 0);
        g.insert(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "reserved empty sentinel")]
    fn sentinel_rank_rejected() {
        let mut g = GridIndex::new(2).unwrap();
        g.insert(0, 0, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_grid_rejected() {
        let mut g = GridIndex::new(2).unwrap();
        g.insert(4, 0, 1);
    }

    #[test]
    fn debug_is_a_summary_not_a_dump() {
        let g = GridIndex::new(5).unwrap();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("side: 32"));
        assert!(dbg.contains("occupied: 0"));
        assert!(!dbg.contains("4294967295"), "{dbg}");
    }
}
