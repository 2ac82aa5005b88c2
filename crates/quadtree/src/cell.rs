//! Quadtree cells.
//!
//! A [`Cell`] identifies one square region of the `2^k × 2^k` domain: at
//! level `ℓ` (0 = root, `k` = finest) the domain is a `2^ℓ × 2^ℓ` grid of
//! cells and the cell has coordinates `(x, y)` within it. The Morton code of
//! `(x, y)` doubles as the cell's id within its level, making parent/child
//! arithmetic a two-bit shift.

use sfc_curves::morton;
use sfc_curves::Point2;

/// A cell of the spatial quadtree at a given resolution level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Resolution level: 0 is the root (whole domain), `k` the finest.
    pub level: u32,
    /// Column within the level's `2^level`-sided grid.
    pub x: u32,
    /// Row within the level's grid.
    pub y: u32,
}

impl Cell {
    /// The root cell covering the whole domain.
    pub const ROOT: Cell = Cell {
        level: 0,
        x: 0,
        y: 0,
    };

    /// Construct a cell, checking the coordinates fit the level.
    pub fn new(level: u32, x: u32, y: u32) -> Self {
        assert!(level <= 31, "level out of range: {level}");
        let side = 1u64 << level;
        assert!(
            (x as u64) < side && (y as u64) < side,
            "cell ({x}, {y}) outside level-{level} grid"
        );
        Cell { level, x, y }
    }

    /// The finest-resolution cell containing grid point `p` on a
    /// `2^grid_order`-sided grid (i.e. the leaf cell of the point).
    pub fn leaf(grid_order: u32, p: Point2) -> Self {
        Cell::new(grid_order, p.x, p.y)
    }

    /// Side length of this level's grid.
    #[inline]
    pub fn level_side(&self) -> u64 {
        1u64 << self.level
    }

    /// Morton code of the cell within its level.
    #[inline]
    pub fn code(&self) -> u64 {
        morton::encode(self.x, self.y)
    }

    /// Reconstruct a cell from its level and Morton code.
    #[inline]
    pub fn from_code(level: u32, code: u64) -> Self {
        let (x, y) = morton::decode(code);
        debug_assert!((x as u64) < (1u64 << level) && (y as u64) < (1u64 << level));
        Cell { level, x, y }
    }

    /// The parent cell (one level coarser). `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<Cell> {
        if self.level == 0 {
            return None;
        }
        Some(Cell {
            level: self.level - 1,
            x: self.x >> 1,
            y: self.y >> 1,
        })
    }

    /// The four children (one level finer), in Morton order.
    pub fn children(&self) -> [Cell; 4] {
        let level = self.level + 1;
        assert!(level <= 31, "cannot refine below level 31");
        let (x, y) = (self.x << 1, self.y << 1);
        [
            Cell { level, x, y },
            Cell { level, x: x + 1, y },
            Cell { level, x, y: y + 1 },
            Cell {
                level,
                x: x + 1,
                y: y + 1,
            },
        ]
    }

    /// True if `other` lies within this cell's region (including `self`).
    pub fn contains(&self, other: Cell) -> bool {
        if other.level < self.level {
            return false;
        }
        let shift = other.level - self.level;
        (other.x >> shift) == self.x && (other.y >> shift) == self.y
    }

    /// Chebyshev distance to a same-level cell.
    #[inline]
    pub fn chebyshev(&self, other: Cell) -> u64 {
        debug_assert_eq!(self.level, other.level, "cells must share a level");
        (self.x.abs_diff(other.x)).max(self.y.abs_diff(other.y)) as u64
    }

    /// True if `other` (same level) shares an edge or corner with this cell.
    #[inline]
    pub fn is_adjacent(&self, other: Cell) -> bool {
        self.chebyshev(other) == 1
    }

    /// The same-level cells sharing an edge or corner with this cell — at
    /// most 8, fewer at the domain boundary (the paper's Section III bound).
    /// Returned inline: enumerating a neighborhood allocates nothing.
    pub fn neighbors(&self) -> NeighborList {
        let side = self.level_side() as i64;
        let mut out = NeighborList::new();
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = self.x as i64 + dx;
                let ny = self.y as i64 + dy;
                if nx >= 0 && ny >= 0 && nx < side && ny < side {
                    out.push(Cell {
                        level: self.level,
                        x: nx as u32,
                        y: ny as u32,
                    });
                }
            }
        }
        out
    }

    /// The ancestor of this cell at the given (coarser or equal) level.
    pub fn ancestor_at(&self, level: u32) -> Cell {
        assert!(level <= self.level, "ancestor level must be coarser");
        let shift = self.level - level;
        Cell {
            level,
            x: self.x >> shift,
            y: self.y >> shift,
        }
    }
}

/// A cell's same-level neighbors held inline: a fixed `[Cell; 8]` buffer
/// plus a length, so [`Cell::neighbors`] allocates nothing. Dereferences to
/// `&[Cell]`, so slice idioms (`len`, `contains`, `for n in &list`) work
/// unchanged.
#[derive(Debug, Clone, Copy)]
pub struct NeighborList {
    cells: [Cell; 8],
    len: usize,
}

impl NeighborList {
    const fn new() -> Self {
        NeighborList {
            cells: [Cell::ROOT; 8],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, cell: Cell) {
        self.cells[self.len] = cell;
        self.len += 1;
    }

    /// The neighbors as a slice, in `(dy, dx)` enumeration order.
    #[inline]
    pub fn as_slice(&self) -> &[Cell] {
        &self.cells[..self.len]
    }
}

impl std::ops::Deref for NeighborList {
    type Target = [Cell];

    #[inline]
    fn deref(&self) -> &[Cell] {
        self.as_slice()
    }
}

impl IntoIterator for NeighborList {
    type Item = Cell;
    type IntoIter = std::iter::Take<std::array::IntoIter<Cell, 8>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.cells.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a NeighborList {
    type Item = &'a Cell;
    type IntoIter = std::slice::Iter<'a, Cell>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}({}, {})", self.level, self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_round_trip() {
        let c = Cell::new(5, 13, 22);
        for child in c.children() {
            assert_eq!(child.parent(), Some(c));
            assert!(c.contains(child));
        }
        assert_eq!(Cell::ROOT.parent(), None);
    }

    #[test]
    fn children_are_disjoint_and_cover_parent() {
        let c = Cell::new(3, 2, 5);
        let kids = c.children();
        for (i, a) in kids.iter().enumerate() {
            for b in kids.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        // Every level-4 cell inside c's region is one of the children.
        for x in (c.x << 1)..((c.x + 1) << 1) {
            for y in (c.y << 1)..((c.y + 1) << 1) {
                let cand = Cell::new(4, x, y);
                assert!(kids.contains(&cand));
            }
        }
    }

    #[test]
    fn code_round_trip() {
        let c = Cell::new(10, 513, 220);
        assert_eq!(Cell::from_code(10, c.code()), c);
    }

    #[test]
    fn interior_cell_has_eight_neighbors() {
        let c = Cell::new(4, 7, 7);
        assert_eq!(c.neighbors().len(), 8);
        for n in c.neighbors() {
            assert!(c.is_adjacent(n));
        }
    }

    #[test]
    fn corner_cell_has_three_neighbors() {
        let c = Cell::new(4, 0, 0);
        assert_eq!(c.neighbors().len(), 3);
        let c = Cell::new(4, 15, 15);
        assert_eq!(c.neighbors().len(), 3);
    }

    #[test]
    fn edge_cell_has_five_neighbors() {
        let c = Cell::new(4, 0, 7);
        assert_eq!(c.neighbors().len(), 5);
    }

    #[test]
    fn root_has_no_neighbors() {
        assert!(Cell::ROOT.neighbors().is_empty());
    }

    #[test]
    fn containment_is_reflexive_and_hierarchical() {
        let c = Cell::new(2, 1, 3);
        assert!(c.contains(c));
        assert!(Cell::ROOT.contains(c));
        assert!(!c.contains(Cell::ROOT));
        // A leaf inside and outside.
        assert!(c.contains(Cell::new(5, 0b1_000, 0b11_111)));
        assert!(!c.contains(Cell::new(5, 0, 0)));
    }

    #[test]
    fn ancestor_at_levels() {
        let leaf = Cell::new(6, 45, 33);
        assert_eq!(leaf.ancestor_at(6), leaf);
        assert_eq!(leaf.ancestor_at(0), Cell::ROOT);
        let a3 = leaf.ancestor_at(3);
        assert_eq!(a3, Cell::new(3, 5, 4));
        assert!(a3.contains(leaf));
    }

    #[test]
    #[should_panic(expected = "outside level")]
    fn out_of_level_coordinates_rejected() {
        let _ = Cell::new(2, 4, 0);
    }

    #[test]
    fn leaf_of_point() {
        let c = Cell::leaf(8, Point2::new(100, 200));
        assert_eq!((c.level, c.x, c.y), (8, 100, 200));
    }
}
