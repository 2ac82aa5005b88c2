//! Compressed quadtrees.
//!
//! The paper's FMM model (Section III) represents the domain "as a
//! compressed quadtree …, where the cells with particles at the finest
//! resolution occupy leaf positions, and coarser cells are represented by
//! internal nodes" — the structure of Hariharan & Aluru's parallel FMM
//! codes. In a compressed quadtree, chains of single-child cells are
//! collapsed: every internal node has at least two non-empty children, so
//! the tree has at most `2n − 1` nodes for `n` points regardless of how
//! deep the spatial refinement goes.
//!
//! Construction is bottom-up over the Morton-sorted points (Sundar, Sampath
//! & Biros style): the tree is exactly the "Cartesian tree" of the Morton
//! codes under the lowest-common-ancestor-cell relation, built here by
//! recursive splitting in `O(n log n)`.

use crate::cell::Cell;
use sfc_curves::{morton, Point2};

/// A node of a [`CompressedQuadtree`].
#[derive(Debug, Clone)]
pub struct Node {
    /// The smallest cell containing all points of this subtree.
    pub cell: Cell,
    /// Index of the parent node; `None` for the root.
    pub parent: Option<usize>,
    /// Indices of the child nodes (2–4 for internal nodes, empty for
    /// leaves), ordered by Morton code.
    pub children: Vec<usize>,
    /// Range of this subtree's points in the tree's Morton-sorted point
    /// array.
    pub point_range: std::ops::Range<usize>,
}

impl Node {
    /// True if this node is a leaf (a single occupied finest-level cell).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of points under this node.
    pub fn num_points(&self) -> usize {
        self.point_range.len()
    }
}

/// A compressed quadtree over a set of distinct grid points.
#[derive(Debug, Clone)]
pub struct CompressedQuadtree {
    grid_order: u32,
    nodes: Vec<Node>,
    root: Option<usize>,
    /// Points sorted by Morton code.
    points: Vec<Point2>,
}

impl CompressedQuadtree {
    /// Build the tree for `points` on a `2^grid_order`-sided grid. Duplicate
    /// points are rejected (the model places at most one particle per cell).
    pub fn build(grid_order: u32, points: &[Point2]) -> Self {
        assert!((1..=31).contains(&grid_order));
        let side = 1u64 << grid_order;
        let mut pts: Vec<Point2> = points.to_vec();
        for p in &pts {
            assert!(p.in_grid(side), "{p} outside grid of order {grid_order}");
        }
        pts.sort_unstable_by_key(|p| morton::encode(p.x, p.y));
        for w in pts.windows(2) {
            assert_ne!(
                w[0], w[1],
                "duplicate point {}: one particle per cell",
                w[0]
            );
        }
        let mut tree = CompressedQuadtree {
            grid_order,
            nodes: Vec::with_capacity(pts.len().saturating_mul(2)),
            root: None,
            points: pts,
        };
        if !tree.points.is_empty() {
            let root = tree.build_range(0..tree.points.len(), None);
            tree.root = Some(root);
        }
        tree
    }

    /// Smallest cell containing both leaf codes.
    fn enclosing_cell(&self, lo_code: u64, hi_code: u64) -> Cell {
        let k = self.grid_order;
        if lo_code == hi_code {
            return Cell::from_code(k, lo_code);
        }
        let top_bit = 63 - (lo_code ^ hi_code).leading_zeros();
        let digit = top_bit / 2;
        let level = k - 1 - digit;
        Cell::from_code(k, lo_code).ancestor_at(level)
    }

    fn build_range(&mut self, range: std::ops::Range<usize>, parent: Option<usize>) -> usize {
        debug_assert!(!range.is_empty());
        let lo = morton::encode(self.points[range.start].x, self.points[range.start].y);
        let hi = morton::encode(self.points[range.end - 1].x, self.points[range.end - 1].y);
        let cell = self.enclosing_cell(lo, hi);
        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            cell,
            parent,
            children: Vec::new(),
            point_range: range.clone(),
        });
        if lo == hi {
            // Single point: leaf.
            return node_idx;
        }
        // Partition the range into the four child quadrants of `cell` by
        // binary search on Morton code boundaries. Descendants of a cell at
        // level l occupy one contiguous code block of size 4^(k-l-1) per
        // child.
        let k = self.grid_order;
        let child_block = 1u64 << (2 * (k - cell.level - 1));
        let base = cell.code() << (2 * (k - cell.level));
        let mut children = Vec::with_capacity(4);
        let mut start = range.start;
        for q in 0..4u64 {
            let upper = base + (q + 1) * child_block;
            // Points are Morton-sorted; find the end of this quadrant.
            let end = start
                + self.points[start..range.end]
                    .partition_point(|p| morton::encode(p.x, p.y) < upper);
            if end > start {
                let child = self.build_range(start..end, Some(node_idx));
                children.push(child);
            }
            start = end;
        }
        debug_assert_eq!(start, range.end);
        debug_assert!(children.len() >= 2, "compression violated");
        self.nodes[node_idx].children = children;
        node_idx
    }

    /// Grid order of the domain.
    pub fn grid_order(&self) -> u32 {
        self.grid_order
    }

    /// All nodes, root first (preorder).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Index of the root node, if the tree is non-empty.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// The points, Morton-sorted.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Number of leaves (equals the number of points).
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// The leaf node containing `p`, if `p` is one of the tree's points.
    pub fn leaf_of(&self, p: Point2) -> Option<usize> {
        let code = morton::encode(p.x, p.y);
        let mut idx = self.root?;
        loop {
            let node = &self.nodes[idx];
            if node.is_leaf() {
                let only = self.points[node.point_range.start];
                return (only == p).then_some(idx);
            }
            let mut next = None;
            for &c in &node.children {
                let ccell = self.nodes[c].cell;
                let shift = 2 * (self.grid_order - ccell.level);
                if (code >> shift) == ccell.code() {
                    next = Some(c);
                    break;
                }
            }
            idx = next?;
        }
    }

    /// Depth of the tree in *compressed* edges (root = 0; empty tree = 0).
    pub fn depth(&self) -> usize {
        fn go(tree: &CompressedQuadtree, idx: usize) -> usize {
            let node = &tree.nodes[idx];
            node.children
                .iter()
                .map(|&c| 1 + go(tree, c))
                .max()
                .unwrap_or(0)
        }
        self.root.map_or(0, |r| go(self, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, order: u32, seed: u64) -> Vec<Point2> {
        let side = 1u32 << order;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::HashSet::new();
        while set.len() < n {
            set.insert((rng.gen_range(0..side), rng.gen_range(0..side)));
        }
        set.into_iter().map(|(x, y)| Point2::new(x, y)).collect()
    }

    fn check_invariants(tree: &CompressedQuadtree) {
        let n = tree.points().len();
        if n == 0 {
            assert!(tree.root().is_none());
            return;
        }
        assert!(tree.nodes().len() <= 2 * n);
        assert_eq!(tree.num_leaves(), n);
        for (idx, node) in tree.nodes().iter().enumerate() {
            if node.is_leaf() {
                assert_eq!(node.num_points(), 1);
                assert_eq!(node.cell.level, tree.grid_order());
            } else {
                // Compression: at least two children.
                assert!(node.children.len() >= 2, "single-child chain at {idx}");
                // Children partition the parent's point range.
                let mut covered = 0;
                for &c in &node.children {
                    let child = &tree.nodes()[c];
                    assert_eq!(child.parent, Some(idx));
                    assert!(node.cell.contains(child.cell));
                    assert!(child.cell.level > node.cell.level);
                    covered += child.num_points();
                }
                assert_eq!(covered, node.num_points());
            }
            // The node's cell is tight: it contains all its points...
            for p in &tree.points()[node.point_range.clone()] {
                assert!(node.cell.contains(Cell::leaf(tree.grid_order(), *p)));
            }
        }
        // ... and for internal nodes, no single child cell contains them all
        // (tightness ⇔ points span at least two quadrants of the cell).
        for node in tree.nodes() {
            if !node.is_leaf() {
                let pts = &tree.points()[node.point_range.clone()];
                for quad in node.cell.children() {
                    let all_inside = pts
                        .iter()
                        .all(|p| quad.contains(Cell::leaf(tree.grid_order(), *p)));
                    assert!(!all_inside, "cell {} not tight", node.cell);
                }
            }
        }
    }

    #[test]
    fn empty_tree() {
        let tree = CompressedQuadtree::build(4, &[]);
        assert!(tree.root().is_none());
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.depth(), 0);
        check_invariants(&tree);
    }

    #[test]
    fn single_point_tree_is_one_leaf() {
        let tree = CompressedQuadtree::build(6, &[Point2::new(17, 42)]);
        assert_eq!(tree.nodes().len(), 1);
        assert!(tree.nodes()[0].is_leaf());
        assert_eq!(tree.nodes()[0].cell, Cell::new(6, 17, 42));
        check_invariants(&tree);
    }

    #[test]
    fn two_distant_points_share_root_only() {
        let tree = CompressedQuadtree::build(4, &[Point2::new(0, 0), Point2::new(15, 15)]);
        assert_eq!(tree.nodes().len(), 3);
        let root = &tree.nodes()[tree.root().unwrap()];
        assert_eq!(root.cell, Cell::ROOT);
        assert_eq!(root.children.len(), 2);
        check_invariants(&tree);
    }

    #[test]
    fn two_close_points_compress_the_chain() {
        // Adjacent cells deep in one quadrant: the root chain is compressed
        // to a single internal node at the deepest separating level.
        let tree = CompressedQuadtree::build(8, &[Point2::new(0, 0), Point2::new(1, 0)]);
        assert_eq!(tree.nodes().len(), 3);
        let root = &tree.nodes()[tree.root().unwrap()];
        // Smallest cell separating (0,0) and (1,0) is the level-7 cell (0,0).
        assert_eq!(root.cell, Cell::new(7, 0, 0));
        check_invariants(&tree);
    }

    #[test]
    fn random_trees_maintain_invariants() {
        for (n, order, seed) in [
            (10usize, 4u32, 1u64),
            (100, 6, 2),
            (1000, 8, 3),
            (500, 10, 4),
        ] {
            let pts = random_points(n, order, seed);
            let tree = CompressedQuadtree::build(order, &pts);
            check_invariants(&tree);
        }
    }

    #[test]
    fn leaf_lookup_finds_every_point() {
        let pts = random_points(200, 7, 9);
        let tree = CompressedQuadtree::build(7, &pts);
        for p in &pts {
            let leaf = tree.leaf_of(*p).expect("point should have a leaf");
            assert!(tree.nodes()[leaf].is_leaf());
            assert_eq!(tree.points()[tree.nodes()[leaf].point_range.start], *p);
        }
        // A point not in the set:
        let absent = Point2::new(127, 127);
        if !pts.contains(&absent) {
            assert_eq!(tree.leaf_of(absent), None);
        }
    }

    #[test]
    fn full_grid_tree_is_the_complete_quadtree() {
        // Every cell of a 4x4 grid occupied: 16 leaves, 5 internal nodes.
        let mut pts = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                pts.push(Point2::new(x, y));
            }
        }
        let tree = CompressedQuadtree::build(2, &pts);
        assert_eq!(tree.nodes().len(), 21);
        assert_eq!(tree.depth(), 2);
        check_invariants(&tree);
    }

    #[test]
    #[should_panic(expected = "duplicate point")]
    fn duplicates_rejected() {
        let _ = CompressedQuadtree::build(4, &[Point2::new(1, 1), Point2::new(1, 1)]);
    }

    #[test]
    fn collinear_points_on_diagonal() {
        // Diagonal points exercise deep splits at every level.
        let pts: Vec<Point2> = (0..16).map(|i| Point2::new(i, i)).collect();
        let tree = CompressedQuadtree::build(4, &pts);
        check_invariants(&tree);
        assert_eq!(tree.num_leaves(), 16);
    }
}
