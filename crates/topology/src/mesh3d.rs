//! 3-D mesh and torus topologies.
//!
//! Extensions beyond the paper's 2-D networks, supporting the future-work
//! direction of mapping onto 3-D interconnects (Section VIII, item iii).
//! Node id `z * sx * sy + y * sx + x` sits at position `(x, y, z)`.

use crate::{NodeId, Topology, TopologyKind};

/// A 3-D mesh of `sx × sy × sz` processors with orthogonal links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh3d {
    sx: u64,
    sy: u64,
    sz: u64,
}

/// A 3-D torus: [`Mesh3d`] plus wrap-around links in all three dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus3d {
    sx: u64,
    sy: u64,
    sz: u64,
}

macro_rules! grid3_common {
    ($name:ident) => {
        impl $name {
            /// Create an `sx × sy × sz` network.
            pub fn new(sx: u64, sy: u64, sz: u64) -> Self {
                assert!(sx >= 1 && sy >= 1 && sz >= 1, "dimensions must be positive");
                assert!(
                    sx.checked_mul(sy).and_then(|v| v.checked_mul(sz)).is_some(),
                    "network size overflows u64"
                );
                $name { sx, sy, sz }
            }

            /// Create a cubic network with side `2^order`.
            pub fn cube(order: u32) -> Self {
                let side = 1u64 << order;
                $name::new(side, side, side)
            }

            /// Grid position of a node.
            #[inline]
            pub fn position(&self, node: NodeId) -> (u64, u64, u64) {
                let plane = self.sx * self.sy;
                (node % self.sx, (node % plane) / self.sx, node / plane)
            }

            /// Node id at a grid position.
            #[inline]
            pub fn node_at(&self, x: u64, y: u64, z: u64) -> NodeId {
                debug_assert!(x < self.sx && y < self.sy && z < self.sz);
                z * self.sx * self.sy + y * self.sx + x
            }
        }
    };
}

grid3_common!(Mesh3d);
grid3_common!(Torus3d);

impl Mesh3d {
    /// The processors directly linked to `a`.
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        let (x, y, z) = self.position(a);
        let mut out = Vec::with_capacity(6);
        if x > 0 {
            out.push(self.node_at(x - 1, y, z));
        }
        if x + 1 < self.sx {
            out.push(self.node_at(x + 1, y, z));
        }
        if y > 0 {
            out.push(self.node_at(x, y - 1, z));
        }
        if y + 1 < self.sy {
            out.push(self.node_at(x, y + 1, z));
        }
        if z > 0 {
            out.push(self.node_at(x, y, z - 1));
        }
        if z + 1 < self.sz {
            out.push(self.node_at(x, y, z + 1));
        }
        out
    }
}

impl Torus3d {
    /// The processors directly linked to `a` (deduplicated for degenerate
    /// side lengths).
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        let (x, y, z) = self.position(a);
        let mut out = vec![
            self.node_at((x + self.sx - 1) % self.sx, y, z),
            self.node_at((x + 1) % self.sx, y, z),
            self.node_at(x, (y + self.sy - 1) % self.sy, z),
            self.node_at(x, (y + 1) % self.sy, z),
            self.node_at(x, y, (z + self.sz - 1) % self.sz),
            self.node_at(x, y, (z + 1) % self.sz),
        ];
        out.sort_unstable();
        out.dedup();
        out.retain(|&n| n != a);
        out
    }
}

impl Topology for Mesh3d {
    fn num_nodes(&self) -> u64 {
        self.sx * self.sy * self.sz
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay, az) = self.position(a);
        let (bx, by, bz) = self.position(b);
        ax.abs_diff(bx) + ay.abs_diff(by) + az.abs_diff(bz)
    }

    fn diameter(&self) -> u64 {
        (self.sx - 1) + (self.sy - 1) + (self.sz - 1)
    }

    fn name(&self) -> &'static str {
        "Mesh3D"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Mesh3d
    }

    fn num_links(&self) -> u64 {
        2 * (self.sy * self.sz * (self.sx - 1)
            + self.sx * self.sz * (self.sy - 1)
            + self.sx * self.sy * (self.sz - 1))
    }
}

impl Topology for Torus3d {
    fn num_nodes(&self) -> u64 {
        self.sx * self.sy * self.sz
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay, az) = self.position(a);
        let (bx, by, bz) = self.position(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        let dz = az.abs_diff(bz);
        dx.min(self.sx - dx) + dy.min(self.sy - dy) + dz.min(self.sz - dz)
    }

    fn diameter(&self) -> u64 {
        self.sx / 2 + self.sy / 2 + self.sz / 2
    }

    fn name(&self) -> &'static str {
        "Torus3D"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Torus3d
    }

    fn num_links(&self) -> u64 {
        2 * (self.sy * self.sz * crate::ring_undirected_edges(self.sx)
            + self.sx * self.sz * crate::ring_undirected_edges(self.sy)
            + self.sx * self.sy * crate::ring_undirected_edges(self.sz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::check_against_bfs;

    #[test]
    fn mesh3d_distance() {
        let mesh = Mesh3d::new(4, 4, 4);
        assert_eq!(
            mesh.distance(mesh.node_at(0, 0, 0), mesh.node_at(3, 3, 3)),
            9
        );
        assert_eq!(mesh.diameter(), 9);
    }

    #[test]
    fn torus3d_wraps() {
        let torus = Torus3d::new(4, 4, 4);
        assert_eq!(
            torus.distance(torus.node_at(0, 0, 0), torus.node_at(3, 3, 3)),
            3
        );
        assert_eq!(torus.diameter(), 6);
    }

    #[test]
    fn position_round_trip() {
        let mesh = Mesh3d::new(3, 4, 5);
        for n in 0..mesh.num_nodes() {
            let (x, y, z) = mesh.position(n);
            assert_eq!(mesh.node_at(x, y, z), n);
        }
    }

    #[test]
    fn mesh3d_matches_bfs() {
        let mesh = Mesh3d::new(3, 3, 3);
        check_against_bfs(&mesh, |a| mesh.neighbors(a));
    }

    #[test]
    fn torus3d_matches_bfs() {
        let torus = Torus3d::new(3, 4, 2);
        check_against_bfs(&torus, |a| torus.neighbors(a));
    }

    #[test]
    fn num_links_equals_neighbor_degree_sum() {
        for (sx, sy, sz) in [(1u64, 1u64, 1u64), (2, 2, 2), (3, 4, 2), (4, 4, 4)] {
            let mesh = Mesh3d::new(sx, sy, sz);
            let sum: u64 = (0..mesh.num_nodes())
                .map(|n| mesh.neighbors(n).len() as u64)
                .sum();
            assert_eq!(mesh.num_links(), sum, "mesh {sx}x{sy}x{sz}");
            let torus = Torus3d::new(sx, sy, sz);
            let sum: u64 = (0..torus.num_nodes())
                .map(|n| torus.neighbors(n).len() as u64)
                .sum();
            assert_eq!(torus.num_links(), sum, "torus {sx}x{sy}x{sz}");
        }
    }
}
