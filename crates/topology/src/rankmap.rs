//! Processor rank assignment — the paper's *processor-order SFCs*.
//!
//! Applications address processors by rank `0 .. p`; the interconnect
//! addresses them by physical node id. The paper's second use-case for SFCs
//! (Section I) is choosing this rank→node map: on a mesh or torus, rank `r`
//! is placed at the grid position the chosen SFC visits `r`-th. On the other
//! topologies the identity map is used — their canonical numbering already
//! reflects the network structure.

use crate::{NodeId, Topology};
use sfc_curves::{CurveKind, Point2};

/// A bijection between application ranks and physical nodes.
pub trait RankMap: Send + Sync {
    /// Physical node hosting the given rank.
    fn node_of(&self, rank: u64) -> NodeId;

    /// Rank hosted on the given physical node.
    fn rank_of(&self, node: NodeId) -> u64;

    /// Number of ranks (equals the node count of the paired topology).
    fn len(&self) -> u64;

    /// True when there are no ranks (never for valid networks).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The identity rank map: rank `r` lives on node `r`.
#[derive(Debug, Clone, Copy)]
pub struct IdentityMap {
    len: u64,
}

impl IdentityMap {
    /// Identity map over `len` ranks.
    pub fn new(len: u64) -> Self {
        IdentityMap { len }
    }
}

impl RankMap for IdentityMap {
    #[inline]
    fn node_of(&self, rank: u64) -> NodeId {
        debug_assert!(rank < self.len);
        rank
    }

    #[inline]
    fn rank_of(&self, node: NodeId) -> u64 {
        debug_assert!(node < self.len);
        node
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// A rank map that lays ranks along a space-filling curve over a square
/// power-of-two processor grid: rank `r` is placed at the `r`-th point of
/// the curve, and the physical node id is the row-major encoding of that
/// grid position.
#[derive(Debug, Clone, Copy)]
pub struct SfcRankMap {
    curve: CurveKind,
    /// Grid order: the processor grid is `2^order × 2^order`.
    order: u32,
}

impl SfcRankMap {
    /// Create a map for a `2^order`-sided processor grid following `curve`.
    pub fn new(curve: CurveKind, order: u32) -> Self {
        SfcRankMap { curve, order }
    }

    /// Create a map for a grid topology with `side × side` nodes. Panics if
    /// `side` is not a power of two (the paper always uses powers of two).
    pub fn for_side(curve: CurveKind, side: u64) -> Self {
        assert!(
            side.is_power_of_two(),
            "SFC rank maps require a power-of-two grid side, got {side}"
        );
        SfcRankMap::new(curve, side.trailing_zeros())
    }

    /// The curve kind used by this map.
    pub fn curve(&self) -> CurveKind {
        self.curve
    }

    /// The grid position assigned to `rank`.
    #[inline]
    pub fn position_of(&self, rank: u64) -> Point2 {
        self.curve.point_of(self.order, rank)
    }
}

impl RankMap for SfcRankMap {
    #[inline]
    fn node_of(&self, rank: u64) -> NodeId {
        let p = self.position_of(rank);
        ((p.y as u64) << self.order) | p.x as u64
    }

    #[inline]
    fn rank_of(&self, node: NodeId) -> u64 {
        let mask = (1u64 << self.order) - 1;
        let p = Point2::new((node & mask) as u32, (node >> self.order) as u32);
        self.curve.index_of(self.order, p)
    }

    fn len(&self) -> u64 {
        1u64 << (2 * self.order)
    }
}

/// A topology paired with a rank map: the unit the ACD model measures
/// distances on. All distances are taken between *ranks*; the map translates
/// to physical nodes first.
pub struct RankedNetwork<T> {
    topology: T,
    map: Box<dyn RankMap>,
}

impl<T: Topology> RankedNetwork<T> {
    /// Pair a topology with the identity rank map.
    pub fn identity(topology: T) -> Self {
        let map = Box::new(IdentityMap::new(topology.num_nodes()));
        RankedNetwork { topology, map }
    }

    /// Pair a grid topology (square mesh/torus) with an SFC rank map.
    ///
    /// Panics if the topology is not a square power-of-two grid — mirroring
    /// the paper, where processor-order SFCs apply only to mesh and torus.
    pub fn with_sfc_ranks(topology: T, curve: CurveKind) -> Self {
        let side = topology
            .grid_side()
            .unwrap_or_else(|| panic!("{} does not support SFC rank maps", topology.name()));
        let map = Box::new(SfcRankMap::for_side(curve, side));
        RankedNetwork { topology, map }
    }

    /// Pair a topology with an explicit rank map.
    pub fn with_map(topology: T, map: Box<dyn RankMap>) -> Self {
        assert_eq!(
            topology.num_nodes(),
            map.len(),
            "rank map covers {} ranks but topology has {} nodes",
            map.len(),
            topology.num_nodes()
        );
        RankedNetwork { topology, map }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u64 {
        self.topology.num_nodes()
    }

    /// Physical node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: u64) -> NodeId {
        self.map.node_of(rank)
    }

    /// Hop distance between the processors hosting two ranks.
    #[inline]
    pub fn rank_distance(&self, a: u64, b: u64) -> u64 {
        self.topology
            .distance(self.map.node_of(a), self.map.node_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bus, Mesh2d, Torus2d};

    #[test]
    fn identity_map_round_trip() {
        let m = IdentityMap::new(16);
        for r in 0..16 {
            assert_eq!(m.node_of(r), r);
            assert_eq!(m.rank_of(r), r);
        }
        assert_eq!(m.len(), 16);
        assert!(!m.is_empty());
    }

    #[test]
    fn sfc_map_is_bijective() {
        for kind in CurveKind::ALL {
            let m = SfcRankMap::new(kind, 3);
            let mut seen = vec![false; m.len() as usize];
            for r in 0..m.len() {
                let node = m.node_of(r);
                assert_eq!(m.rank_of(node), r, "{kind}");
                assert!(!seen[node as usize]);
                seen[node as usize] = true;
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn hilbert_ranks_are_adjacent_on_mesh() {
        let net = RankedNetwork::with_sfc_ranks(Mesh2d::square(4), CurveKind::Hilbert);
        for r in 0..net.num_ranks() - 1 {
            assert_eq!(net.rank_distance(r, r + 1), 1);
        }
    }

    #[test]
    fn row_major_ranks_on_mesh() {
        let net = RankedNetwork::with_sfc_ranks(Mesh2d::square(2), CurveKind::RowMajor);
        // Rank 3 -> (3,0), rank 4 -> (0,1): 4 hops apart on a 4x4 mesh.
        assert_eq!(net.rank_distance(3, 4), 4);
    }

    #[test]
    fn torus_wraps_rank_distances() {
        let net = RankedNetwork::with_sfc_ranks(Torus2d::square(2), CurveKind::RowMajor);
        // Rank 0 -> (0,0), rank 3 -> (3,0): 1 hop via wraparound.
        assert_eq!(net.rank_distance(0, 3), 1);
    }

    #[test]
    #[should_panic(expected = "does not support SFC rank maps")]
    fn sfc_ranks_rejected_on_bus() {
        let _ = RankedNetwork::with_sfc_ranks(Bus::new(16), CurveKind::Hilbert);
    }

    #[test]
    fn identity_network_distance_passthrough() {
        let net = RankedNetwork::identity(Bus::new(8));
        assert_eq!(net.rank_distance(0, 7), 7);
        assert_eq!(net.node_of(3), 3);
    }

    #[test]
    #[should_panic(expected = "rank map covers")]
    fn mismatched_map_size_rejected() {
        let _ = RankedNetwork::with_map(Bus::new(8), Box::new(IdentityMap::new(4)));
    }
}
