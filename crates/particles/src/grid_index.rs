//! The rank table of one grid level: which rank owns each occupied cell.
//!
//! The ACD kernels' innermost question — "which rank owns cell `(x, y)`?" —
//! is asked once per neighborhood cell per particle, tens of millions of
//! times per trial. A [`GridIndex`] answers it for one level of the grid,
//! and is the only place that chooses how.
//!
//! A level is a stack of rows of `side` cells along `x`: a square's rows
//! are keyed by `y`, a cube's by `(y, z)` as row `y + side · z`. Every
//! query takes `x` and the row. The table is:
//!
//! - **Dense**, at most [`MAX_GRID_CELLS`] cells: a flat row-major table of
//!   `u32` rank slots. A lookup is one indexed load, and kernels read
//!   whole rows ([`GridIndex::row`]), so a radius-`r` neighborhood is a
//!   handful of contiguous row-segment scans instead of one probe per
//!   cell.
//! - **Sparse**, above the cap: a [`CellMap`] sized from the number of
//!   cells it will hold, probed one cell at a time. Memory stays `O(n)`
//!   whatever the grid order.
//!
//! [`GridIndex::new`] and [`GridIndex::cube`] make the choice once, from
//! the grid order; [`GridIndex::sparse`] forces the sparse form, so tests
//! and the `grid_ablation` bench can compare the two. Both answer every
//! query identically.

use crate::cellmap::{pack_cell, unpack_cell, CellMap};

/// Cap on the dense table size, in cells. `1 << 24` cells is a
/// `4096 × 4096` grid (order 12) or a `256³` cube (order 8) at 4 bytes per
/// slot — 64 MiB per live assignment at the paper's full-size workloads.
/// One order further costs 256 MiB or more, so larger grids are sparse.
pub const MAX_GRID_CELLS: u64 = 1 << 24;

/// Which rank owns each occupied cell of a square or cubic grid level (see
/// the module docs).
pub struct GridIndex {
    /// Cells per row: the grid's side.
    side: u32,
    /// Rows: `side` for a square, `side²` for a cube. Both are `u32`, so
    /// the cube's extra field costs a square level no bytes.
    rows: u32,
    len: usize,
    slots: Slots,
}

/// How a [`GridIndex`] stores its ranks.
enum Slots {
    /// `rows × side` rank slots, row-major, [`GridIndex::EMPTY`] if empty.
    Dense(Box<[u32]>),
    /// Occupied cells by packed `(x, row)`.
    Sparse(CellMap),
}

impl GridIndex {
    /// Slot value marking an unoccupied cell in a dense row. Rank values
    /// must stay below this sentinel; real machines top out at far smaller
    /// rank counts.
    pub const EMPTY: u32 = u32::MAX;

    /// An empty index for a `2^grid_order`-sided square: dense when it has
    /// at most [`MAX_GRID_CELLS`] cells, otherwise sparse with room for
    /// `capacity` occupied cells.
    pub fn new(grid_order: u32, capacity: usize) -> GridIndex {
        let side = 1 << grid_order;
        GridIndex::shaped(side, side, capacity, true)
    }

    /// An empty index for a `2^grid_order`-sided cube, whose cell
    /// `(x, y, z)` is `(x, y + side · z)`: dense when it has at most
    /// [`MAX_GRID_CELLS`] cells, otherwise sparse with room for `capacity`
    /// occupied cells. Panics above order 15, where the row count no
    /// longer fits a `u32`.
    pub fn cube(grid_order: u32, capacity: usize) -> GridIndex {
        assert!(grid_order <= 15, "cube order {grid_order} above 15");
        let side = 1 << grid_order;
        GridIndex::shaped(side, side * side, capacity, true)
    }

    /// An empty sparse index for a `2^grid_order`-sided square with room
    /// for `capacity` occupied cells, whatever the grid's size.
    pub fn sparse(grid_order: u32, capacity: usize) -> GridIndex {
        let side = 1 << grid_order;
        GridIndex::shaped(side, side, capacity, false)
    }

    /// `rows` rows of `side` cells: dense if `dense` and within the cap,
    /// sparse with room for `capacity` cells otherwise.
    fn shaped(side: u32, rows: u32, capacity: usize, dense: bool) -> GridIndex {
        let cells = u64::from(side) * u64::from(rows);
        let slots = if dense && cells <= MAX_GRID_CELLS {
            Slots::Dense(vec![Self::EMPTY; cells as usize].into())
        } else {
            Slots::Sparse(CellMap::with_capacity(capacity))
        };
        GridIndex {
            side,
            rows,
            len: 0,
            slots,
        }
    }

    /// Empty this index and shape it as the level above `finer` in a
    /// pyramid: every axis halved, the same form (dense or sparse), and,
    /// when sparse, room for every cell of `finer`. A dense table that
    /// already has that shape is reused in place, so this allocates
    /// nothing then.
    ///
    /// # Panics
    ///
    /// If `finer` is a single cell, which has no level above it.
    pub fn clear_as_parent_of(&mut self, finer: &GridIndex) {
        assert!(finer.side >= 2, "a 1x1 grid has no parent level");
        let side = finer.side / 2;
        // Halving every axis halves a square's rows and quarters a cube's
        // (a cube of side 2 or more has more rows than cells per row).
        let rows = finer.rows / if finer.rows == finer.side { 2 } else { 4 };
        let dense = finer.is_dense();
        match &mut self.slots {
            Slots::Dense(ranks) if dense && (self.side, self.rows) == (side, rows) => {
                ranks.fill(Self::EMPTY);
                self.len = 0;
            }
            _ => *self = GridIndex::shaped(side, rows, finer.len, dense),
        }
    }

    /// Record `rank` as the owner of cell `(x, y)` unless the cell already
    /// has one. Returns the owner it already had, which is kept.
    ///
    /// # Panics
    ///
    /// If the cell is outside the grid or `rank` is [`GridIndex::EMPTY`].
    #[inline]
    pub fn insert_first(&mut self, x: u32, y: u32, rank: u32) -> Option<u32> {
        self.check(x, y, rank);
        let prev = match &mut self.slots {
            Slots::Dense(ranks) => {
                let slot = &mut ranks[y as usize * self.side as usize + x as usize];
                let prev = Some(*slot).filter(|&r| r != Self::EMPTY);
                if prev.is_none() {
                    *slot = rank;
                }
                prev
            }
            Slots::Sparse(map) => map.insert_first(pack_cell(x, y), rank),
        };
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Record `rank` as the owner of cell `(x, y)` if the cell is empty or
    /// its owner is a higher rank: the cell keeps the lowest rank offered.
    ///
    /// # Panics
    ///
    /// If the cell is outside the grid or `rank` is [`GridIndex::EMPTY`].
    #[inline]
    pub fn insert_min(&mut self, x: u32, y: u32, rank: u32) {
        self.check(x, y, rank);
        let added = match &mut self.slots {
            Slots::Dense(ranks) => {
                let slot = &mut ranks[y as usize * self.side as usize + x as usize];
                let added = *slot == Self::EMPTY;
                *slot = (*slot).min(rank);
                added
            }
            Slots::Sparse(map) => {
                let before = map.len();
                map.insert_min(pack_cell(x, y), rank);
                map.len() > before
            }
        };
        self.len += usize::from(added);
    }

    /// The checks both inserts share.
    #[inline]
    fn check(&self, x: u32, y: u32, rank: u32) {
        assert_ne!(rank, Self::EMPTY, "u32::MAX is the reserved empty sentinel");
        assert!(
            x < self.side && y < self.rows,
            "cell ({x}, {y}) outside {}x{} grid",
            self.side,
            self.rows
        );
    }

    /// Rank owning cell `(x, y)`, or `None` when it is empty: one indexed
    /// load when dense, one hash probe when sparse.
    #[inline]
    pub fn rank_of(&self, x: u32, y: u32) -> Option<u32> {
        match &self.slots {
            Slots::Dense(ranks) => {
                Some(ranks[y as usize * self.side() + x as usize]).filter(|&r| r != Self::EMPTY)
            }
            Slots::Sparse(map) => map.get(pack_cell(x, y)),
        }
    }

    /// The rank row `y` when dense: `row(y)?[x]` is the owner of
    /// cell `(x, y)`, or [`GridIndex::EMPTY`]. `None` when sparse; the
    /// caller then asks [`GridIndex::rank_of`] cell by cell.
    #[inline]
    pub fn row(&self, y: u32) -> Option<&[u32]> {
        match &self.slots {
            Slots::Dense(ranks) => Some(&ranks[y as usize * self.side()..][..self.side()]),
            Slots::Sparse(_) => None,
        }
    }

    /// Call `f(x, y, rank)` for every occupied cell `(x, y)` (`y` is the
    /// row), in no set order.
    pub fn for_each_occupied(&self, mut f: impl FnMut(u32, u32, u32)) {
        match &self.slots {
            Slots::Dense(ranks) => {
                for (y, row) in ranks.chunks_exact(self.side()).enumerate() {
                    for (x, &rank) in row.iter().enumerate() {
                        if rank != Self::EMPTY {
                            f(x as u32, y as u32, rank);
                        }
                    }
                }
            }
            Slots::Sparse(map) => {
                for (key, rank) in map.iter() {
                    let (x, y) = unpack_cell(key);
                    f(x, y, rank);
                }
            }
        }
    }

    /// True if this index holds the dense table.
    pub fn is_dense(&self) -> bool {
        matches!(self.slots, Slots::Dense(_))
    }

    /// Grid side length (`2^grid_order`): the cells per row.
    pub fn side(&self) -> usize {
        self.side as usize
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no cell is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the table: 4 per cell when dense (at most
    /// 4 × [`MAX_GRID_CELLS`] = 64 MiB), the map's slots when sparse.
    pub fn table_bytes(&self) -> usize {
        match &self.slots {
            Slots::Dense(ranks) => std::mem::size_of_val(&ranks[..]),
            Slots::Sparse(map) => map.table_bytes(),
        }
    }
}

impl std::fmt::Debug for GridIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridIndex")
            .field("side", &self.side)
            .field("rows", &self.rows)
            .field("dense", &self.is_dense())
            .field("occupied", &self.len)
            .field("table_bytes", &self.table_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same cells in a dense and a sparse index.
    fn both(order: u32, cells: &[(u32, u32, u32)]) -> [GridIndex; 2] {
        [
            GridIndex::new(order, cells.len()),
            GridIndex::sparse(order, cells.len()),
        ]
        .map(|mut g| {
            for &(x, y, rank) in cells {
                assert_eq!(g.insert_first(x, y, rank), None);
            }
            g
        })
    }

    #[test]
    fn insert_and_lookup() {
        for g in both(3, &[(1, 2, 7), (0, 0, 3)]) {
            assert_eq!(g.rank_of(1, 2), Some(7));
            assert_eq!(g.rank_of(0, 0), Some(3));
            assert_eq!(g.rank_of(2, 2), None);
            assert_eq!(g.rank_of(7, 7), None);
            assert_eq!(g.len(), 2);
        }
        assert!(GridIndex::new(3, 0).is_empty());
    }

    #[test]
    fn first_write_keeps_the_first_and_min_write_the_lowest() {
        for mut g in both(2, &[(1, 1, 4)]) {
            assert_eq!(g.insert_first(1, 1, 2), Some(4));
            assert_eq!(g.rank_of(1, 1), Some(4));
            g.insert_min(1, 1, 6);
            assert_eq!(g.rank_of(1, 1), Some(4));
            g.insert_min(1, 1, 2);
            assert_eq!(g.rank_of(1, 1), Some(2));
            g.insert_min(3, 0, 9);
            assert_eq!(g.rank_of(3, 0), Some(9));
            assert_eq!(g.len(), 2, "dense {}", g.is_dense());
        }
    }

    #[test]
    fn rows_are_dense_only_and_expose_the_sentinel() {
        let [dense, sparse] = both(2, &[(1, 1, 5), (3, 1, 0)]);
        let e = GridIndex::EMPTY;
        assert_eq!(dense.row(1).unwrap(), &[e, 5, e, 0]);
        assert!(dense.row(0).unwrap().iter().all(|&r| r == e));
        assert_eq!(dense.row(3).unwrap().len(), dense.side());
        assert!(sparse.row(1).is_none());
    }

    #[test]
    fn both_forms_enumerate_the_same_cells() {
        let cells = [(0, 0, 1), (5, 2, 0), (7, 7, 3), (2, 5, 3)];
        let [dense, sparse] = both(3, &cells);
        let collect = |g: &GridIndex| {
            let mut out = Vec::new();
            g.for_each_occupied(|x, y, rank| out.push((x, y, rank)));
            out.sort_unstable();
            out
        };
        let mut want = cells.to_vec();
        want.sort_unstable();
        assert_eq!(collect(&dense), want);
        assert_eq!(collect(&sparse), want);
    }

    #[test]
    fn cap_math_and_envelope() {
        // Order 12 is exactly the cap: 4096² = 1 << 24 cells, 64 MiB.
        let g = GridIndex::new(12, 1);
        assert!(g.is_dense());
        assert_eq!(g.table_bytes(), 64 << 20);
        assert_eq!(g.table_bytes() as u64, 4 * MAX_GRID_CELLS);
        // Order 13 would be 256 MiB: sparse, sized from the capacity.
        let g = GridIndex::new(13, 1000);
        assert!(!g.is_dense());
        assert_eq!(g.side(), 8192);
        assert_eq!(g.table_bytes(), 2048 * 12);
        // Absurd orders must not overflow the size computation.
        assert!(!GridIndex::new(31, 1).is_dense());
    }

    #[test]
    fn parent_levels_keep_the_form_and_reuse_a_fitting_table() {
        let [dense, sparse] = both(3, &[(0, 0, 2), (1, 1, 1), (7, 6, 4)]);
        for finer in [&dense, &sparse] {
            let mut parent = GridIndex::sparse(0, 0);
            for _ in 0..2 {
                parent.clear_as_parent_of(finer);
                finer.for_each_occupied(|x, y, rank| parent.insert_min(x >> 1, y >> 1, rank));
                assert_eq!(parent.is_dense(), finer.is_dense());
                assert_eq!(parent.side(), 4);
                assert_eq!(parent.len(), 2);
                assert_eq!(parent.rank_of(0, 0), Some(1));
                assert_eq!(parent.rank_of(3, 3), Some(4));
            }
        }
    }

    #[test]
    fn cubes_key_rows_by_y_and_z_and_halve_every_axis() {
        // Order 2: 4 cells a row, 16 rows, dense.
        let mut cube = GridIndex::cube(2, 4);
        assert!(cube.is_dense());
        assert_eq!(cube.side(), 4);
        assert_eq!(cube.table_bytes(), 4 * 64);
        // Cell (1, 2, 3) is row 2 + 4 · 3.
        cube.insert_first(1, 14, 6);
        cube.insert_first(0, 15, 2);
        assert_eq!(cube.rank_of(1, 14), Some(6));
        assert_eq!(cube.row(14).unwrap()[1], 6);
        let mut parent = GridIndex::sparse(0, 0);
        parent.clear_as_parent_of(&cube);
        assert!(parent.is_dense());
        assert_eq!((parent.side(), parent.table_bytes()), (2, 4 * 8));
        // (1, 2, 3) and (0, 3, 3) share the parent (0, 1, 1): row 1 + 2 · 1.
        cube.for_each_occupied(|x, row, rank| {
            let (y, z) = (row % 4, row / 4);
            parent.insert_min(x >> 1, (y >> 1) + 2 * (z >> 1), rank);
        });
        assert_eq!(parent.len(), 1);
        assert_eq!(parent.rank_of(0, 3), Some(2));
        // Order 9 is 2^27 cells, past the cap: sparse, and so is its parent.
        let mut big = GridIndex::cube(9, 10);
        assert!(!big.is_dense());
        assert_eq!(big.side(), 512);
        big.insert_first(511, 512 * 512 - 1, 3);
        assert_eq!(big.rank_of(511, 512 * 512 - 1), Some(3));
        parent.clear_as_parent_of(&big);
        assert!(!parent.is_dense());
        assert_eq!(parent.side(), 256);
        parent.insert_min(255, 256 * 256 - 1, 0);
        assert_eq!(parent.rank_of(255, 256 * 256 - 1), Some(0));
    }

    /// A level's shape takes one word beside its slots. One word more
    /// raised perfbench `sweep_topologies` peak RSS by about 1 MB per
    /// worker, through glibc heap fragmentation (2-vCPU x86-64 container).
    #[test]
    fn side_and_rows_share_one_word() {
        let word = std::mem::size_of::<usize>();
        let slots = std::mem::size_of::<Slots>();
        assert_eq!(std::mem::size_of::<GridIndex>(), 2 * word + slots);
    }

    #[test]
    #[should_panic(expected = "cube order 16 above 15")]
    fn cube_rows_must_fit_u32() {
        let _ = GridIndex::cube(16, 1);
    }

    #[test]
    #[should_panic(expected = "reserved empty sentinel")]
    fn sentinel_rank_rejected() {
        GridIndex::new(2, 1).insert_first(0, 0, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_grid_rejected() {
        GridIndex::sparse(2, 1).insert_min(4, 0, 1);
    }

    #[test]
    fn debug_is_a_summary_not_a_dump() {
        let dbg = format!("{:?}", GridIndex::new(5, 0));
        assert!(dbg.contains("side: 32"));
        assert!(dbg.contains("occupied: 0"));
        assert!(!dbg.contains("4294967295"), "{dbg}");
    }
}
