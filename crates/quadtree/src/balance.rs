//! Linear quadtrees and 2:1 balance refinement.
//!
//! The paper's FMM substrate cites Sundar, Sampath & Biros ("Bottom-up
//! construction and 2:1 balance refinement of linear octrees in parallel",
//! SISC 2008) for the tree construction used by production FMM codes. A
//! *linear* quadtree stores only its leaves, as (level, Morton code) pairs;
//! it is **complete** when the leaves tile the domain exactly, and **2:1
//! balanced** when no two edge/corner-adjacent leaves differ by more than
//! one level — the invariant FMM implementations need so that near-field
//! lists stay O(1) per leaf.
//!
//! [`LinearQuadtree::from_seeds`] builds the minimal complete tree refined
//! at a given set of seed cells; [`LinearQuadtree::balance`] enforces the
//! 2:1 constraint by ripple refinement to a fixed point.

use crate::cell::Cell;
use std::collections::HashSet;

/// A complete linear quadtree: the sorted list of leaf cells tiling a
/// `2^grid_order`-sided domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearQuadtree {
    grid_order: u32,
    /// Leaves sorted by (level-k-extended Morton position); guaranteed to
    /// tile the domain without overlap.
    leaves: Vec<Cell>,
}

impl LinearQuadtree {
    /// The trivial tree: one root leaf.
    pub fn root(grid_order: u32) -> Self {
        assert!((1..=20).contains(&grid_order));
        LinearQuadtree {
            grid_order,
            leaves: vec![Cell::ROOT],
        }
    }

    /// The minimal complete tree in which every seed cell is covered by a
    /// leaf at the seed's level or finer. Seeds may be at any levels (at
    /// most `grid_order`).
    pub fn from_seeds(grid_order: u32, seeds: &[Cell]) -> Self {
        assert!((1..=20).contains(&grid_order));
        for s in seeds {
            assert!(
                s.level <= grid_order,
                "seed {s} finer than the grid order {grid_order}"
            );
        }
        let mut leaves = Vec::new();
        // Recursive top-down split wherever a strictly finer seed lies
        // inside the cell.
        fn build(cell: Cell, seeds: &[Cell], leaves: &mut Vec<Cell>) {
            let must_split = seeds
                .iter()
                .any(|s| s.level > cell.level && cell.contains(*s));
            if must_split {
                for child in cell.children() {
                    // Only recurse with the seeds relevant to this child.
                    let sub: Vec<Cell> = seeds
                        .iter()
                        .copied()
                        .filter(|s| child.contains(*s) || s.contains(child))
                        .collect();
                    build(child, &sub, leaves);
                }
            } else {
                leaves.push(cell);
            }
        }
        build(Cell::ROOT, seeds, &mut leaves);
        let mut tree = LinearQuadtree { grid_order, leaves };
        tree.sort_leaves();
        tree
    }

    fn sort_leaves(&mut self) {
        let k = self.grid_order;
        // Sort by position of the cell's first descendant at the finest
        // level — the canonical linear-octree order.
        self.leaves
            .sort_unstable_by_key(|c| c.code() << (2 * (k - c.level)));
    }

    /// Grid order of the domain.
    pub fn grid_order(&self) -> u32 {
        self.grid_order
    }

    /// The leaves in canonical order.
    pub fn leaves(&self) -> &[Cell] {
        &self.leaves
    }

    /// The leaf covering `cell` (the leaf equal to it or its ancestor), if
    /// the tree is complete.
    pub fn leaf_covering(&self, cell: Cell) -> Option<Cell> {
        let set: HashSet<Cell> = self.leaves.iter().copied().collect();
        let mut cur = cell;
        loop {
            if set.contains(&cur) {
                return Some(cur);
            }
            cur = cur.parent()?;
        }
    }

    /// True if the leaves tile the domain exactly (measure check plus
    /// pairwise disjointness via sorting).
    pub fn is_complete(&self) -> bool {
        let k = self.grid_order;
        let total: u128 = self
            .leaves
            .iter()
            .map(|c| 1u128 << (2 * (k - c.level)))
            .sum();
        if total != 1u128 << (2 * k) {
            return false;
        }
        // Sorted by first-descendant position; consecutive leaves must not
        // overlap, which with the measure check implies an exact tiling.
        for w in self.leaves.windows(2) {
            if w[0].contains(w[1]) || w[1].contains(w[0]) {
                return false;
            }
        }
        true
    }

    /// True if no two adjacent leaves differ by more than one level.
    pub fn is_balanced(&self) -> bool {
        self.first_violation().is_none()
    }

    /// Find a leaf that violates the 2:1 constraint: a leaf with an
    /// edge/corner-adjacent leaf more than one level coarser (the coarser
    /// leaf is returned).
    fn first_violation(&self) -> Option<Cell> {
        let set: HashSet<Cell> = self.leaves.iter().copied().collect();
        for &leaf in &self.leaves {
            if leaf.level <= 1 {
                continue;
            }
            for nb in leaf.neighbors() {
                // Find the leaf covering the neighbor cell.
                let mut cur = nb;
                loop {
                    if set.contains(&cur) {
                        if leaf.level > cur.level + 1 {
                            return Some(cur);
                        }
                        break;
                    }
                    match cur.parent() {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
            }
        }
        None
    }

    /// Refine to the 2:1 balance fixed point: repeatedly split the coarser
    /// partner of every violating pair. Terminates because levels are
    /// bounded by the grid order.
    pub fn balance(&mut self) {
        while let Some(victim) = self.first_violation() {
            let pos = self
                .leaves
                .iter()
                .position(|&c| c == victim)
                .expect("violation refers to a leaf");
            self.leaves.swap_remove(pos);
            self.leaves.extend(victim.children());
            self.sort_leaves();
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree has no leaves (never after construction).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Maximum leaf level.
    pub fn max_level(&self) -> u32 {
        self.leaves.iter().map(|c| c.level).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::Point2;

    #[test]
    fn root_tree_is_complete_and_balanced() {
        let t = LinearQuadtree::root(5);
        assert!(t.is_complete());
        assert!(t.is_balanced());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn single_deep_seed() {
        // One seed at the finest corner forces a refinement chain; the
        // unbalanced tree has 1 + 3*level leaves.
        let k = 5u32;
        let seed = Cell::leaf(k, Point2::new(0, 0));
        let t = LinearQuadtree::from_seeds(k, &[seed]);
        assert!(t.is_complete());
        assert_eq!(t.len() as u32, 1 + 3 * k);
        assert_eq!(t.leaf_covering(seed), Some(seed));
        // A corner chain nests against same-or-one-coarser siblings at
        // every level, so it is already 2:1 balanced...
        assert!(t.is_balanced());
    }

    #[test]
    fn center_seed_is_unbalanced() {
        // ...but a deep seed *adjacent to the central cross* puts a finest
        // leaf next to a level-1 quadrant: violation.
        let k = 5u32;
        let half = (1u32 << k) / 2;
        let seed = Cell::leaf(k, Point2::new(half - 1, half - 1));
        let t = LinearQuadtree::from_seeds(k, &[seed]);
        assert!(t.is_complete());
        assert!(!t.is_balanced());
    }

    #[test]
    fn balancing_fixes_the_center_chain() {
        let k = 6u32;
        let half = (1u32 << k) / 2;
        let seed = Cell::leaf(k, Point2::new(half - 1, half - 1));
        let mut t = LinearQuadtree::from_seeds(k, &[seed]);
        t.balance();
        assert!(t.is_complete(), "balance must preserve completeness");
        assert!(t.is_balanced());
        // The seed leaf survives at its level.
        assert_eq!(t.leaf_covering(seed), Some(seed));
        // 2:1 balancing of a single deep chain grows the tree by a bounded
        // factor, far below full refinement (4^6 = 4096 cells).
        assert!(t.len() < 400, "{} leaves", t.len());
        assert!((t.len() as u32) > 1 + 3 * k);
    }

    #[test]
    fn seeds_at_mixed_levels() {
        let seeds = vec![Cell::new(4, 0, 0), Cell::new(2, 3, 3), Cell::new(6, 40, 17)];
        let mut t = LinearQuadtree::from_seeds(6, &seeds);
        assert!(t.is_complete());
        for s in &seeds {
            let covering = t.leaf_covering(*s).unwrap();
            assert!(
                covering.level >= s.level,
                "{s} covered by coarser {covering}"
            );
        }
        t.balance();
        assert!(t.is_complete() && t.is_balanced());
    }

    #[test]
    fn balance_is_idempotent() {
        let seeds = vec![Cell::new(5, 17, 3), Cell::new(5, 0, 31)];
        let mut t = LinearQuadtree::from_seeds(5, &seeds);
        t.balance();
        let first = t.clone();
        t.balance();
        assert_eq!(t, first);
    }

    #[test]
    fn fully_refined_tree_is_balanced() {
        // Seeds in all four corners at the max level of a small grid.
        let k = 3u32;
        let side = (1u32 << k) - 1;
        let seeds = vec![
            Cell::new(k, 0, 0),
            Cell::new(k, side, 0),
            Cell::new(k, 0, side),
            Cell::new(k, side, side),
        ];
        let mut t = LinearQuadtree::from_seeds(k, &seeds);
        t.balance();
        assert!(t.is_balanced() && t.is_complete());
        // All leaves within the level budget.
        assert!(t.max_level() <= k);
    }

    #[test]
    fn adjacent_leaf_levels_differ_by_at_most_one_after_balance() {
        // Direct verification of the invariant over all leaf pairs.
        let seeds = vec![Cell::new(7, 100, 3), Cell::new(7, 3, 100)];
        let mut t = LinearQuadtree::from_seeds(7, &seeds);
        t.balance();
        let leaves = t.leaves().to_vec();
        for (i, &a) in leaves.iter().enumerate() {
            for &b in leaves.iter().skip(i + 1) {
                // Adjacency between different-level cells: compare at the
                // finer level via ancestors.
                let (fine, coarse) = if a.level >= b.level { (a, b) } else { (b, a) };
                let coarse_at_fine_x0 = coarse.x << (fine.level - coarse.level);
                let coarse_side = 1u32 << (fine.level - coarse.level);
                let coarse_at_fine_y0 = coarse.y << (fine.level - coarse.level);
                // Chebyshev distance between the fine cell and the coarse
                // cell's footprint at the fine level.
                let dx = if fine.x < coarse_at_fine_x0 {
                    coarse_at_fine_x0 - fine.x
                } else {
                    (fine.x + 1).saturating_sub(coarse_at_fine_x0 + coarse_side)
                };
                let dy = if fine.y < coarse_at_fine_y0 {
                    coarse_at_fine_y0 - fine.y
                } else {
                    (fine.y + 1).saturating_sub(coarse_at_fine_y0 + coarse_side)
                };
                let touching = dx <= 1 && dy <= 1;
                if touching {
                    assert!(
                        fine.level - coarse.level <= 1,
                        "leaves {a} and {b} violate 2:1"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finer than the grid order")]
    fn overfine_seed_rejected() {
        let _ = LinearQuadtree::from_seeds(3, &[Cell::new(4, 0, 0)]);
    }
}
