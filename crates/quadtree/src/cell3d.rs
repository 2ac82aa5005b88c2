//! Octree cells — the 3-D counterpart of [`crate::cell`].
//!
//! The paper's model generalizes verbatim: in 3-D the spatial domain is a
//! `2^k`-sided cube represented as an octree; a cell's near field is its
//! (up to) 26 edge/corner/face-sharing neighbors, and its interaction list
//! holds the children of its parent's neighbors that are not adjacent to it
//! (at most `6³ − 3³ = 189` cells).

/// A cell of the spatial octree at a given resolution level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell3 {
    /// Resolution level: 0 is the root, `k` the finest.
    pub level: u32,
    /// Coordinates within the level's `2^level`-sided grid.
    pub x: u32,
    /// Second coordinate.
    pub y: u32,
    /// Third coordinate.
    pub z: u32,
}

/// Maximum interaction-list length in 3-D.
pub const MAX_INTERACTION_LIST_3D: usize = 189;

impl Cell3 {
    /// The root cell covering the whole domain.
    pub const ROOT: Cell3 = Cell3 {
        level: 0,
        x: 0,
        y: 0,
        z: 0,
    };

    /// Construct a cell, checking coordinates fit the level.
    pub fn new(level: u32, x: u32, y: u32, z: u32) -> Self {
        assert!(level <= 20, "level out of range: {level}");
        let side = 1u64 << level;
        assert!(
            (x as u64) < side && (y as u64) < side && (z as u64) < side,
            "cell ({x}, {y}, {z}) outside level-{level} grid"
        );
        Cell3 { level, x, y, z }
    }

    /// The parent cell; `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<Cell3> {
        if self.level == 0 {
            return None;
        }
        Some(Cell3 {
            level: self.level - 1,
            x: self.x >> 1,
            y: self.y >> 1,
            z: self.z >> 1,
        })
    }

    /// The eight children, in Morton order.
    pub fn children(&self) -> [Cell3; 8] {
        let level = self.level + 1;
        assert!(level <= 20);
        let (x, y, z) = (self.x << 1, self.y << 1, self.z << 1);
        std::array::from_fn(|i| Cell3 {
            level,
            x: x + (i as u32 & 1),
            y: y + ((i as u32 >> 1) & 1),
            z: z + ((i as u32 >> 2) & 1),
        })
    }

    /// Chebyshev distance to a same-level cell.
    #[inline]
    pub fn chebyshev(&self, other: Cell3) -> u64 {
        debug_assert_eq!(self.level, other.level);
        (self.x.abs_diff(other.x))
            .max(self.y.abs_diff(other.y))
            .max(self.z.abs_diff(other.z)) as u64
    }

    /// The same-level cells sharing a face, edge or corner — at most 26.
    pub fn neighbors(&self) -> Vec<Cell3> {
        let side = (1u64 << self.level) as i64;
        let mut out = Vec::with_capacity(26);
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let nx = self.x as i64 + dx;
                    let ny = self.y as i64 + dy;
                    let nz = self.z as i64 + dz;
                    if nx >= 0 && ny >= 0 && nz >= 0 && nx < side && ny < side && nz < side {
                        out.push(Cell3 {
                            level: self.level,
                            x: nx as u32,
                            y: ny as u32,
                            z: nz as u32,
                        });
                    }
                }
            }
        }
        out
    }

    /// The ancestor at a coarser (or equal) level.
    pub fn ancestor_at(&self, level: u32) -> Cell3 {
        assert!(level <= self.level);
        let shift = self.level - level;
        Cell3 {
            level,
            x: self.x >> shift,
            y: self.y >> shift,
            z: self.z >> shift,
        }
    }
}

/// The 3-D interaction list: children of the parent's neighbors (and of the
/// parent) that are not equal or adjacent to `cell`.
pub fn interaction_list_3d(cell: Cell3) -> Vec<Cell3> {
    let mut out = Vec::new();
    let parent = match cell.parent() {
        Some(p) => p,
        None => return out,
    };
    let mut push_children_of = |p: Cell3| {
        for child in p.children() {
            if child.chebyshev(cell) > 1 {
                out.push(child);
            }
        }
    };
    push_children_of(parent);
    for pn in parent.neighbors() {
        push_children_of(pn);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_round_trip() {
        let c = Cell3::new(4, 5, 9, 13);
        let kids = c.children();
        assert_eq!(kids.len(), 8);
        for child in kids {
            assert_eq!(child.parent(), Some(c));
        }
        assert_eq!(Cell3::ROOT.parent(), None);
    }

    #[test]
    fn children_are_distinct() {
        let kids = Cell3::new(2, 1, 2, 3).children();
        for (i, a) in kids.iter().enumerate() {
            for b in kids.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn interior_cell_has_26_neighbors() {
        let c = Cell3::new(3, 4, 4, 4);
        assert_eq!(c.neighbors().len(), 26);
        let corner = Cell3::new(3, 0, 0, 0);
        assert_eq!(corner.neighbors().len(), 7);
    }

    #[test]
    fn interior_interaction_list_is_189() {
        let c = Cell3::new(4, 8, 8, 8);
        assert_eq!(interaction_list_3d(c).len(), MAX_INTERACTION_LIST_3D);
    }

    #[test]
    fn root_and_level1_lists_empty() {
        assert!(interaction_list_3d(Cell3::ROOT).is_empty());
        for child in Cell3::ROOT.children() {
            assert!(interaction_list_3d(child).is_empty());
        }
    }

    #[test]
    fn interaction_members_well_separated() {
        let c = Cell3::new(3, 2, 5, 3);
        for other in interaction_list_3d(c) {
            assert!(c.chebyshev(other) > 1);
            assert!(c.parent().unwrap().chebyshev(other.parent().unwrap()) <= 1);
        }
    }

    #[test]
    fn completeness_on_small_cube() {
        // Every pair of distinct leaves at level 3 (8^3 cube) is near-field
        // or handled at exactly one level.
        let k = 3u32;
        let side = 1u32 << k;
        let cells: Vec<Cell3> = (0..side)
            .flat_map(|z| {
                (0..side).flat_map(move |y| (0..side).map(move |x| Cell3::new(k, x, y, z)))
            })
            .collect();
        for (i, &a) in cells.iter().enumerate() {
            for &b in cells.iter().skip(i + 1).step_by(7) {
                let near = a.chebyshev(b) <= 1;
                let mut far_levels = 0;
                for level in 1..=k {
                    let (aa, ba) = (a.ancestor_at(level), b.ancestor_at(level));
                    if aa != ba
                        && aa.chebyshev(ba) > 1
                        && aa.parent().unwrap().chebyshev(ba.parent().unwrap()) <= 1
                    {
                        far_levels += 1;
                    }
                }
                assert_eq!(far_levels, u32::from(!near), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn ancestor_chain() {
        let c = Cell3::new(5, 21, 9, 30);
        assert_eq!(c.ancestor_at(0), Cell3::ROOT);
        assert_eq!(c.ancestor_at(5), c);
        let a = c.ancestor_at(2);
        assert_eq!((a.x, a.y, a.z), (2, 1, 3));
    }
}
