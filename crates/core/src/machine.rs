//! The machine model: a topology plus a processor-order SFC — step 3 of the
//! paper's algorithm.
//!
//! [`Machine`] resolves application ranks to physical nodes *once* at
//! construction (the rank→node table is `p` entries), and for machines of
//! up to [`MAX_ORACLE_ENTRIES`]`.isqrt()` ranks additionally precomputes the
//! dense `P × P` hop matrix ([`DistanceOracle`]) so that the metric loops,
//! which call [`Machine::distance`] tens of millions of times per trial,
//! pay only a single `u16` table load per call. Above the threshold the
//! closed-form path is used; the two paths return bit-identical distances.

use crate::error::SfcError;
use crate::oracle::{DistanceOracle, MAX_ORACLE_ENTRIES};
use crate::Assignment;
use sfc_curves::CurveKind;
use sfc_topology::{RankMap, SfcRankMap, Topology, TopologyKind};

/// A concrete parallel machine: `p` ranks placed on a network.
pub struct Machine {
    topo: Box<dyn Topology>,
    /// Physical node of each rank; identity for non-grid topologies.
    node_of_rank: Vec<u64>,
    /// Processor-order curve, if one applies.
    processor_curve: Option<CurveKind>,
    /// Dense `P × P` hop table; `None` above the size threshold (or when
    /// explicitly disabled for ablation).
    oracle: Option<DistanceOracle>,
}

impl Machine {
    /// Build a machine on `kind` with `num_ranks` processors. For grid
    /// topologies (mesh, torus) the ranks are placed along `processor_curve`;
    /// for the others the curve is ignored and the canonical numbering is
    /// used, matching the paper ("applies only to mesh and torus
    /// topologies").
    pub fn new(kind: TopologyKind, num_ranks: u64, processor_curve: CurveKind) -> Self {
        let topo = kind.build(num_ranks);
        let p = topo.num_nodes();
        let (node_of_rank, used_curve): (Vec<u64>, _) = match topo.grid_side() {
            Some(side) => {
                let map = SfcRankMap::for_side(processor_curve, side);
                ((0..p).map(|r| map.node_of(r)).collect(), Some(processor_curve))
            }
            None => ((0..p).collect(), None),
        };
        // Materialize the dense hop table when it fits the memory envelope.
        // A diameter overflowing u16 (only reachable on topologies far past
        // the threshold anyway) degrades to the closed-form path rather than
        // failing construction: distances are identical either way.
        let oracle = if p.checked_mul(p).is_some_and(|e| e <= MAX_ORACLE_ENTRIES) {
            DistanceOracle::build(topo.as_ref(), &node_of_rank).ok()
        } else {
            None
        };
        Machine {
            topo,
            node_of_rank,
            processor_curve: used_curve,
            oracle,
        }
    }

    /// This machine with the distance oracle dropped, forcing every
    /// [`Machine::distance`] call through the closed-form topology path.
    /// Ablation/benchmark knob; metric results are bit-identical with the
    /// oracle on or off.
    pub fn without_oracle(mut self) -> Self {
        self.oracle = None;
        self
    }

    /// Whether the dense hop table is in effect (machines over the
    /// [`MAX_ORACLE_ENTRIES`] envelope, or explicitly ablated, run without
    /// one).
    pub fn has_oracle(&self) -> bool {
        self.oracle.is_some()
    }

    /// The hop-distance row of `rank` as `u16` entries, when the oracle is
    /// present. Kernels hoist this borrow per particle so the inner scan is
    /// one indexed load per pair.
    #[inline]
    pub fn distance_row(&self, rank: u32) -> Option<&[u16]> {
        self.oracle.as_ref().map(|o| o.row(rank))
    }

    /// Check that every rank the assignment addresses exists on this
    /// machine, as a typed error instead of a mid-kernel panic.
    pub fn check_assignment(&self, asg: &Assignment) -> Result<(), SfcError> {
        if asg.num_ranks() > self.num_ranks() {
            return Err(SfcError::MachineTooSmall {
                machine_ranks: self.num_ranks(),
                assignment_ranks: asg.num_ranks(),
            });
        }
        Ok(())
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u64 {
        self.node_of_rank.len() as u64
    }

    /// Total directed links of the underlying network, idle ones included
    /// ([`Topology::num_links`]) — the denominator for link-load averages.
    pub fn num_links(&self) -> u64 {
        self.topo.num_links()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The processor-order curve actually in effect (`None` on non-grid
    /// topologies).
    pub fn processor_curve(&self) -> Option<CurveKind> {
        self.processor_curve
    }

    /// Hop distance between the processors hosting ranks `a` and `b`.
    ///
    /// Served from the dense [`DistanceOracle`] when present; the
    /// closed-form topology path otherwise. An out-of-range rank panics
    /// with a message naming the rank and the machine size (not a bare
    /// slice-index abort).
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u64 {
        if let Some(oracle) = &self.oracle {
            return oracle.distance(a, b);
        }
        self.topo.distance(self.node_of(a), self.node_of(b))
    }

    /// Physical node of a rank. Panics with a bounds message naming the
    /// rank when it exceeds the machine.
    #[inline]
    pub fn node_of(&self, rank: u32) -> u64 {
        match self.node_of_rank.get(rank as usize) {
            Some(&node) => node,
            None => panic!(
                "rank {rank} out of range for a machine with {} ranks",
                self.node_of_rank.len()
            ),
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topo.name())
            .field("ranks", &self.num_ranks())
            .field("processor_curve", &self.processor_curve)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_machine_uses_curve_placement() {
        let m = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
        assert_eq!(m.num_ranks(), 64);
        assert_eq!(m.processor_curve(), Some(CurveKind::Hilbert));
        // Hilbert consecutive ranks are physically adjacent.
        for r in 0..63u32 {
            assert_eq!(m.distance(r, r + 1), 1);
        }
    }

    #[test]
    fn non_grid_machine_ignores_curve() {
        let m = Machine::new(TopologyKind::Hypercube, 64, CurveKind::Hilbert);
        assert_eq!(m.processor_curve(), None);
        // Identity placement: distance = Hamming of rank ids.
        assert_eq!(m.distance(0, 63), 6);
        assert_eq!(m.distance(5, 5), 0);
    }

    #[test]
    fn row_major_on_mesh_matches_grid_arithmetic() {
        let m = Machine::new(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        // Rank 0 at (0,0), rank 15 at (3,3): 6 hops.
        assert_eq!(m.distance(0, 15), 6);
        // Rank 3 at (3,0), rank 4 at (0,1): 4 hops.
        assert_eq!(m.distance(3, 4), 4);
    }

    #[test]
    fn quadtree_machine_identity_ranks() {
        let m = Machine::new(TopologyKind::Quadtree, 16, CurveKind::ZCurve);
        assert_eq!(m.processor_curve(), None);
        assert_eq!(m.distance(0, 1), 2);
        assert_eq!(m.distance(0, 15), 4);
    }

    #[test]
    fn num_links_delegates_to_topology() {
        // 8×8 torus: 2 rings per row and column of 8 edges each.
        let m = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
        assert_eq!(m.num_links(), 2 * (8 * 8 + 8 * 8));
        let m = Machine::new(TopologyKind::Hypercube, 64, CurveKind::Hilbert);
        assert_eq!(m.num_links(), 64 * 6);
    }

    #[test]
    fn distance_symmetry_spot_check() {
        for kind in [TopologyKind::Mesh, TopologyKind::Torus, TopologyKind::Quadtree] {
            let m = Machine::new(kind, 256, CurveKind::Gray);
            for (a, b) in [(0u32, 255u32), (17, 200), (3, 3)] {
                assert_eq!(m.distance(a, b), m.distance(b, a));
            }
        }
    }

    #[test]
    fn small_machines_carry_an_oracle_and_it_can_be_ablated() {
        let m = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
        assert!(m.has_oracle());
        assert_eq!(m.distance_row(0).unwrap().len(), 64);
        let m = m.without_oracle();
        assert!(!m.has_oracle());
        assert!(m.distance_row(0).is_none());
    }

    #[test]
    fn above_the_size_threshold_the_fallback_stays_bit_identical() {
        // 16,384² entries exceed MAX_ORACLE_ENTRIES, so construction skips
        // the table and every distance takes the closed-form path — the
        // same path `without_oracle` exercises, which the property test
        // above pins against the cached path pair by pair. Here we check
        // the threshold actually trips and the fallback still matches the
        // raw topology.
        let p = 16_384u64;
        assert!(p * p > crate::oracle::MAX_ORACLE_ENTRIES);
        let m = Machine::new(TopologyKind::Torus, p, CurveKind::Hilbert);
        assert!(!m.has_oracle());
        assert!(m.distance_row(0).is_none());
        let topo = TopologyKind::Torus.build(p);
        for (a, b) in [(0u32, 1u32), (5, 16_000), (9_999, 123), (777, 777)] {
            assert_eq!(m.distance(a, b), topo.distance(m.node_of(a), m.node_of(b)));
        }
    }

    #[test]
    fn oracle_and_closed_form_agree_on_every_pair() {
        for kind in [
            TopologyKind::Bus,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::Quadtree,
            TopologyKind::Hypercube,
        ] {
            for curve in [CurveKind::Hilbert, CurveKind::ZCurve] {
                for p in [4u64, 16, 64, 256] {
                    let cached = Machine::new(kind, p, curve);
                    let plain = Machine::new(kind, p, curve).without_oracle();
                    assert!(cached.has_oracle());
                    for a in 0..p as u32 {
                        for b in 0..p as u32 {
                            assert_eq!(
                                cached.distance(a, b),
                                plain.distance(a, b),
                                "{kind} {curve:?} P={p} {a}->{b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range for a machine with 16 ranks")]
    fn out_of_range_rank_panics_with_bounds_message() {
        let m = Machine::new(TopologyKind::Mesh, 16, CurveKind::Hilbert).without_oracle();
        let _ = m.distance(0, 99);
    }

    #[test]
    fn check_assignment_reports_undersized_machines() {
        use sfc_curves::Point2;
        let particles = vec![Point2::new(0, 0), Point2::new(1, 1)];
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 64);
        let small = Machine::new(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        match small.check_assignment(&asg) {
            Err(SfcError::MachineTooSmall {
                machine_ranks,
                assignment_ranks,
            }) => {
                assert_eq!(machine_ranks, 16);
                assert_eq!(assignment_ranks, 64);
            }
            other => panic!("expected MachineTooSmall, got {other:?}"),
        }
        let big = Machine::new(TopologyKind::Mesh, 64, CurveKind::Hilbert);
        assert!(big.check_assignment(&asg).is_ok());
    }
}
