//! Dynamic topology construction for experiment sweeps.

use crate::{Bus, Hypercube, Mesh2d, QuadtreeNet, Ring, Topology, Torus2d};

/// Identifies one of the supported topologies; used by experiment configs
/// that sweep the network dimension of the paper's parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopologyKind {
    /// Linear array ([`Bus`]).
    Bus,
    /// Ring ([`Ring`]).
    Ring,
    /// 2-D mesh ([`Mesh2d`]).
    Mesh,
    /// 2-D torus ([`Torus2d`]).
    Torus,
    /// Quadtree interconnect ([`QuadtreeNet`]).
    Quadtree,
    /// Binary hypercube ([`Hypercube`]).
    Hypercube,
    /// 3-D mesh extension ([`crate::Mesh3d`]).
    Mesh3d,
    /// 3-D torus extension ([`crate::Torus3d`]).
    Torus3d,
}

impl TopologyKind {
    /// The six topologies studied in the paper (Section II-B).
    pub const PAPER: [TopologyKind; 6] = [
        TopologyKind::Bus,
        TopologyKind::Ring,
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::Quadtree,
        TopologyKind::Hypercube,
    ];

    /// The four topologies plotted in Figure 6 (bus and ring are measured
    /// but off the chart's scale).
    pub const FIGURE6: [TopologyKind; 4] = [
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::Quadtree,
        TopologyKind::Hypercube,
    ];

    /// Build the topology with exactly `nodes` processors.
    ///
    /// `nodes` must be a power of four so that every topology in a sweep can
    /// host the same processor count (square grids need a square count, the
    /// quadtree a power of four, the hypercube a power of two). The paper's
    /// processor counts (e.g. 65,536 = 4^8) all satisfy this. The 3-D
    /// variants are not part of sweeps; `build` panics for them.
    pub fn build(self, nodes: u64) -> Box<dyn Topology> {
        assert!(
            nodes.is_power_of_two() && nodes.trailing_zeros().is_multiple_of(2),
            "topology sweeps require a power-of-four processor count, got {nodes}"
        );
        let grid_order = nodes.trailing_zeros() / 2;
        match self {
            TopologyKind::Bus => Box::new(Bus::new(nodes)),
            TopologyKind::Ring => Box::new(Ring::new(nodes)),
            TopologyKind::Mesh => Box::new(Mesh2d::square(grid_order)),
            TopologyKind::Torus => Box::new(Torus2d::square(grid_order)),
            TopologyKind::Quadtree => Box::new(QuadtreeNet::with_nodes(nodes)),
            TopologyKind::Hypercube => Box::new(Hypercube::with_nodes(nodes)),
            TopologyKind::Mesh3d | TopologyKind::Torus3d => panic!("sweeps build no 3-D topology"),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Bus => "Bus",
            TopologyKind::Ring => "Ring",
            TopologyKind::Mesh => "Mesh",
            TopologyKind::Torus => "Torus",
            TopologyKind::Quadtree => "Quadtree",
            TopologyKind::Hypercube => "Hypercube",
            TopologyKind::Mesh3d => "Mesh3D",
            TopologyKind::Torus3d => "Torus3D",
        }
    }

    /// Parse a topology name as used on bench binaries' command lines.
    pub fn parse(s: &str) -> Option<TopologyKind> {
        match s.to_ascii_lowercase().as_str() {
            "bus" => Some(TopologyKind::Bus),
            "ring" => Some(TopologyKind::Ring),
            "mesh" | "grid" => Some(TopologyKind::Mesh),
            "torus" => Some(TopologyKind::Torus),
            "quadtree" | "tree" => Some(TopologyKind::Quadtree),
            "hypercube" | "cube" => Some(TopologyKind::Hypercube),
            "mesh3d" => Some(TopologyKind::Mesh3d),
            "torus3d" => Some(TopologyKind::Torus3d),
            _ => None,
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn build_produces_requested_node_counts() {
        for kind in TopologyKind::PAPER {
            let topo = kind.build(256);
            assert_eq!(topo.num_nodes(), 256, "{kind}");
            assert_eq!(topo.kind(), kind);
        }
    }

    #[test]
    fn paper_diameters_at_65536_nodes() {
        // Sanity-check the relative connectivity the paper's Figure 6
        // reflects: hypercube < quadtree < torus < mesh << ring < bus.
        let d = |k: TopologyKind| k.build(65536).diameter();
        assert_eq!(d(TopologyKind::Hypercube), 16);
        assert_eq!(d(TopologyKind::Quadtree), 16);
        assert_eq!(d(TopologyKind::Torus), 256);
        assert_eq!(d(TopologyKind::Mesh), 510);
        assert_eq!(d(TopologyKind::Ring), 32768);
        assert_eq!(d(TopologyKind::Bus), 65535);
    }

    #[test]
    #[should_panic(expected = "power-of-four")]
    fn non_square_count_rejected() {
        let _ = TopologyKind::Mesh.build(32);
    }

    #[test]
    fn parse_round_trips() {
        for kind in TopologyKind::PAPER {
            assert_eq!(TopologyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TopologyKind::parse("unknown"), None);
    }

    #[test]
    fn grid_side_only_on_grids() {
        assert_eq!(TopologyKind::Mesh.build(64).grid_side(), Some(8));
        assert_eq!(TopologyKind::Torus.build(64).grid_side(), Some(8));
        assert_eq!(TopologyKind::Bus.build(64).grid_side(), None);
        assert_eq!(TopologyKind::Hypercube.build(64).grid_side(), None);
        assert_eq!(TopologyKind::Quadtree.build(64).grid_side(), None);
    }
}
