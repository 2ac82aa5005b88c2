//! 2-D mesh and torus topologies.
//!
//! "The bulk of our experiments focused on mesh/grid and torus topologies
//! which are more common on HPC architectures" (Section II-B). Processors
//! are arranged on an `sx × sy` grid; node id `y * sx + x` sits at grid
//! position `(x, y)`. The mesh links orthogonal neighbors; the torus adds
//! wrap-around links in both dimensions.
//!
//! These are the two topologies to which processor-order SFCs apply
//! ([`Topology::grid_side`] returns `Some` here), mirroring step 3 of the
//! paper's algorithm: "Order the processors with the specified
//! processor-order SFC (applies only to mesh and torus topologies)".

use crate::{NodeId, Topology, TopologyKind};

/// Position decomposition shared by mesh and torus.
#[inline]
fn coords(node: NodeId, sx: u64) -> (u64, u64) {
    (node % sx, node / sx)
}

/// A 2-D mesh of `sx × sy` processors with orthogonal links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2d {
    sx: u64,
    sy: u64,
}

impl Mesh2d {
    /// Create an `sx × sy` mesh.
    pub fn new(sx: u64, sy: u64) -> Self {
        assert!(sx >= 1 && sy >= 1, "mesh dimensions must be positive");
        assert!(sx.checked_mul(sy).is_some(), "mesh size overflows u64");
        Mesh2d { sx, sy }
    }

    /// Create a square mesh with side `2^order`, the configuration the paper
    /// pairs with processor-order SFCs.
    pub fn square(order: u32) -> Self {
        let side = 1u64 << order;
        Mesh2d::new(side, side)
    }

    /// Grid position of a node.
    #[inline]
    pub fn position(&self, node: NodeId) -> (u64, u64) {
        coords(node, self.sx)
    }

    /// Node id at a grid position.
    #[inline]
    pub fn node_at(&self, x: u64, y: u64) -> NodeId {
        debug_assert!(x < self.sx && y < self.sy);
        y * self.sx + x
    }

    /// The processors directly linked to `a`.
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        let (x, y) = self.position(a);
        let mut out = Vec::with_capacity(4);
        if x > 0 {
            out.push(self.node_at(x - 1, y));
        }
        if x + 1 < self.sx {
            out.push(self.node_at(x + 1, y));
        }
        if y > 0 {
            out.push(self.node_at(x, y - 1));
        }
        if y + 1 < self.sy {
            out.push(self.node_at(x, y + 1));
        }
        out
    }
}

impl Topology for Mesh2d {
    fn num_nodes(&self) -> u64 {
        self.sx * self.sy
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        debug_assert!(a < self.num_nodes() && b < self.num_nodes());
        let (ax, ay) = self.position(a);
        let (bx, by) = self.position(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn diameter(&self) -> u64 {
        (self.sx - 1) + (self.sy - 1)
    }

    fn name(&self) -> &'static str {
        "Mesh"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Mesh
    }

    fn num_links(&self) -> u64 {
        // Each row has sx-1 undirected edges, each column sy-1.
        2 * (self.sy * (self.sx - 1) + self.sx * (self.sy - 1))
    }

    fn grid_side(&self) -> Option<u64> {
        (self.sx == self.sy).then_some(self.sx)
    }

    fn fill_distance_row(&self, from: NodeId, row: &mut [u64]) {
        // Hoist `from`'s decomposition and walk the grid row-major, tracking
        // (x, y) incrementally instead of dividing per node.
        let (fx, fy) = self.position(from);
        let (mut x, mut y) = (0u64, 0u64);
        for slot in row.iter_mut() {
            *slot = fx.abs_diff(x) + fy.abs_diff(y);
            x += 1;
            if x == self.sx {
                x = 0;
                y += 1;
            }
        }
    }
}

/// A 2-D torus: a mesh with wrap-around links in both dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus2d {
    sx: u64,
    sy: u64,
}

impl Torus2d {
    /// Create an `sx × sy` torus.
    pub fn new(sx: u64, sy: u64) -> Self {
        assert!(sx >= 1 && sy >= 1, "torus dimensions must be positive");
        assert!(sx.checked_mul(sy).is_some(), "torus size overflows u64");
        Torus2d { sx, sy }
    }

    /// Create a square torus with side `2^order`.
    pub fn square(order: u32) -> Self {
        let side = 1u64 << order;
        Torus2d::new(side, side)
    }

    /// Grid position of a node.
    #[inline]
    pub fn position(&self, node: NodeId) -> (u64, u64) {
        coords(node, self.sx)
    }

    /// Node id at a grid position.
    #[inline]
    pub fn node_at(&self, x: u64, y: u64) -> NodeId {
        debug_assert!(x < self.sx && y < self.sy);
        y * self.sx + x
    }

    /// The processors directly linked to `a` (deduplicated for degenerate
    /// side lengths of 1 or 2).
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        let (x, y) = self.position(a);
        let mut out = vec![
            self.node_at((x + self.sx - 1) % self.sx, y),
            self.node_at((x + 1) % self.sx, y),
            self.node_at(x, (y + self.sy - 1) % self.sy),
            self.node_at(x, (y + 1) % self.sy),
        ];
        out.sort_unstable();
        out.dedup();
        out.retain(|&n| n != a);
        out
    }
}

impl Topology for Torus2d {
    fn num_nodes(&self) -> u64 {
        self.sx * self.sy
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        debug_assert!(a < self.num_nodes() && b < self.num_nodes());
        let (ax, ay) = self.position(a);
        let (bx, by) = self.position(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        dx.min(self.sx - dx) + dy.min(self.sy - dy)
    }

    fn diameter(&self) -> u64 {
        self.sx / 2 + self.sy / 2
    }

    fn name(&self) -> &'static str {
        "Torus"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Torus
    }

    fn num_links(&self) -> u64 {
        2 * (self.sy * crate::ring_undirected_edges(self.sx)
            + self.sx * crate::ring_undirected_edges(self.sy))
    }

    fn grid_side(&self) -> Option<u64> {
        (self.sx == self.sy).then_some(self.sx)
    }

    fn fill_distance_row(&self, from: NodeId, row: &mut [u64]) {
        let (fx, fy) = self.position(from);
        let (mut x, mut y) = (0u64, 0u64);
        for slot in row.iter_mut() {
            let dx = fx.abs_diff(x);
            let dy = fy.abs_diff(y);
            *slot = dx.min(self.sx - dx) + dy.min(self.sy - dy);
            x += 1;
            if x == self.sx {
                x = 0;
                y += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::check_against_bfs;

    #[test]
    fn mesh_distance_is_manhattan() {
        let mesh = Mesh2d::new(8, 8);
        assert_eq!(mesh.distance(mesh.node_at(0, 0), mesh.node_at(7, 7)), 14);
        assert_eq!(mesh.distance(mesh.node_at(3, 4), mesh.node_at(3, 4)), 0);
        assert_eq!(mesh.diameter(), 14);
    }

    #[test]
    fn torus_uses_wraparound() {
        let torus = Torus2d::new(8, 8);
        assert_eq!(torus.distance(torus.node_at(0, 0), torus.node_at(7, 7)), 2);
        assert_eq!(torus.distance(torus.node_at(0, 0), torus.node_at(4, 4)), 8);
        assert_eq!(torus.diameter(), 8);
    }

    #[test]
    fn torus_never_exceeds_mesh_distance() {
        let mesh = Mesh2d::new(6, 5);
        let torus = Torus2d::new(6, 5);
        for a in 0..30 {
            for b in 0..30 {
                assert!(torus.distance(a, b) <= mesh.distance(a, b));
            }
        }
    }

    #[test]
    fn rectangular_grids_report_no_square_side() {
        assert_eq!(Mesh2d::new(4, 8).grid_side(), None);
        assert_eq!(Mesh2d::new(8, 8).grid_side(), Some(8));
        assert_eq!(Torus2d::square(3).grid_side(), Some(8));
    }

    #[test]
    fn corner_node_has_two_neighbors() {
        let mesh = Mesh2d::new(4, 4);
        assert_eq!(mesh.neighbors(0).len(), 2);
        assert_eq!(mesh.neighbors(5).len(), 4);
    }

    #[test]
    fn torus_all_nodes_have_four_neighbors() {
        let torus = Torus2d::new(4, 4);
        for n in 0..16 {
            assert_eq!(torus.neighbors(n).len(), 4);
        }
    }

    #[test]
    fn mesh_matches_bfs() {
        let mesh = Mesh2d::new(5, 7);
        check_against_bfs(&mesh, |a| mesh.neighbors(a));
    }

    #[test]
    fn torus_matches_bfs() {
        for (sx, sy) in [(4u64, 4u64), (5, 3), (2, 6), (1, 5)] {
            let torus = Torus2d::new(sx, sy);
            check_against_bfs(&torus, |a| torus.neighbors(a));
        }
    }

    #[test]
    fn num_links_equals_neighbor_degree_sum() {
        for (sx, sy) in [(1u64, 1u64), (1, 4), (2, 2), (4, 4), (5, 3)] {
            let mesh = Mesh2d::new(sx, sy);
            let sum: u64 = (0..mesh.num_nodes())
                .map(|n| mesh.neighbors(n).len() as u64)
                .sum();
            assert_eq!(mesh.num_links(), sum, "mesh {sx}x{sy}");
            let torus = Torus2d::new(sx, sy);
            let sum: u64 = (0..torus.num_nodes())
                .map(|n| torus.neighbors(n).len() as u64)
                .sum();
            assert_eq!(torus.num_links(), sum, "torus {sx}x{sy}");
        }
    }

    #[test]
    fn degenerate_torus_sides() {
        let torus = Torus2d::new(2, 2);
        // Side-2 wraparound coincides with the direct link; no double edges.
        assert_eq!(torus.neighbors(0), vec![1, 2]);
        assert_eq!(torus.distance(0, 3), 2);
    }
}
