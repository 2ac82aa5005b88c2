//! The machine model: a topology plus a processor-order SFC — step 3 of the
//! paper's algorithm.
//!
//! [`Machine`] resolves application ranks to physical nodes *once* at
//! construction (the rank→node table is `p` entries) and answers
//! [`Machine::distance`] from the topology's closed form. The kernels call
//! it once per distinct `(sender, receiver)` pair of an assignment's
//! traffic, not once per message (see the `scan` module), so
//! [`Machine::closed_form`], which stores only the placement table, is all
//! the sweeps build. [`Machine::new`] additionally precomputes the dense
//! `P × P` hop matrix ([`DistanceOracle`]) for machines of up to
//! [`MAX_ORACLE_ENTRIES`]`.isqrt()` ranks; the two return bit-identical
//! distances. [`Machine::cube`] builds the 3-D model's machines the same
//! way, with ranks placed along a 3-D processor curve.

use crate::error::SfcError;
use crate::oracle::{DistanceOracle, MAX_ORACLE_ENTRIES};
use sfc_curves::curve3d::{Curve3dKind, Point3};
use sfc_curves::CurveKind;
use sfc_topology::{Hypercube, Mesh3d, RankMap, SfcRankMap, Topology, TopologyKind, Torus3d};

/// A concrete parallel machine: `p` ranks placed on a network.
pub struct Machine {
    topo: Box<dyn Topology>,
    /// Physical node of each rank; identity for non-grid topologies.
    node_of_rank: Vec<u64>,
    /// Dense `P × P` hop table; `None` above the size threshold and on
    /// closed-form machines.
    oracle: Option<DistanceOracle>,
}

impl Machine {
    /// Build a machine on `kind` with `num_ranks` processors. For grid
    /// topologies (mesh, torus) the ranks are placed along `processor_curve`;
    /// for the others the curve is ignored and the canonical numbering is
    /// used, matching the paper ("applies only to mesh and torus
    /// topologies").
    ///
    /// This also materializes the dense hop table when `P²` fits
    /// [`MAX_ORACLE_ENTRIES`] (32 MiB at 4096 ranks). Use
    /// [`Machine::closed_form`] where distances are looked up per distinct
    /// rank pair, as the kernels do.
    pub fn new(kind: TopologyKind, num_ranks: u64, processor_curve: CurveKind) -> Self {
        let mut machine = Machine::closed_form(kind, num_ranks, processor_curve);
        let p = machine.num_ranks();
        // Materialize the dense hop table when it fits the memory envelope.
        // A diameter overflowing u16 (only reachable on topologies far past
        // the threshold anyway) degrades to the closed-form path rather than
        // failing construction: distances are identical either way.
        machine.oracle = if p.checked_mul(p).is_some_and(|e| e <= MAX_ORACLE_ENTRIES) {
            DistanceOracle::build(machine.topo.as_ref(), &machine.node_of_rank).ok()
        } else {
            None
        };
        machine
    }

    /// The machine [`Machine::new`] builds, without the hop table: only the
    /// `P`-entry placement, with every [`Machine::distance`] taking the
    /// topology's closed form.
    pub fn closed_form(kind: TopologyKind, num_ranks: u64, processor_curve: CurveKind) -> Self {
        let topo = kind.build(num_ranks);
        let ranks = 0..topo.num_nodes();
        let node_of_rank = match topo.grid_side() {
            Some(side) => {
                let map = SfcRankMap::for_side(processor_curve, side);
                ranks.map(|r| map.node_of(r)).collect()
            }
            None => ranks.collect(),
        };
        Machine {
            topo,
            node_of_rank,
            oracle: None,
        }
    }

    /// A machine of the 3-D model, without a hop table: ranks placed along
    /// `processor_curve` on a [`TopologyKind::Mesh3d`] or
    /// [`TopologyKind::Torus3d`] cube, canonically on a
    /// [`TopologyKind::Hypercube`]. Panics on any other `kind`, and unless
    /// `num_ranks` is a power of eight (of two for the hypercube).
    pub fn cube(kind: TopologyKind, num_ranks: u64, processor_curve: Curve3dKind) -> Self {
        let order = num_ranks.trailing_zeros() / 3;
        let topo: Box<dyn Topology> = match kind {
            TopologyKind::Hypercube => Box::new(Hypercube::with_nodes(num_ranks)),
            TopologyKind::Mesh3d => Box::new(Mesh3d::cube(order)),
            TopologyKind::Torus3d => Box::new(Torus3d::cube(order)),
            other => panic!("{other} is not a topology of the 3-D model"),
        };
        assert!(
            topo.num_nodes() == num_ranks,
            "cubic grids need a power-of-eight processor count, got {num_ranks}"
        );
        // A single rank needs no curve (there is no order-0 one).
        let node_of_rank = if kind == TopologyKind::Hypercube || num_ranks == 1 {
            (0..num_ranks).collect()
        } else {
            let (curve, side) = (processor_curve.curve(order), 1u64 << order);
            let node = |p: Point3| (p.z as u64 * side + p.y as u64) * side + p.x as u64;
            (0..num_ranks).map(|r| node(curve.point(r))).collect()
        };
        Machine {
            topo,
            node_of_rank,
            oracle: None,
        }
    }

    /// Whether the dense hop table is in effect ([`Machine::closed_form`]
    /// machines and machines over the [`MAX_ORACLE_ENTRIES`] envelope run
    /// without one).
    pub fn has_oracle(&self) -> bool {
        self.oracle.is_some()
    }

    /// Check that the ranks `0 .. assignment_ranks` an assignment addresses
    /// all exist on this machine, as a typed error instead of a mid-kernel
    /// panic.
    pub fn check_ranks(&self, assignment_ranks: u64) -> Result<(), SfcError> {
        if assignment_ranks > self.num_ranks() {
            return Err(SfcError::MachineTooSmall {
                machine_ranks: self.num_ranks(),
                assignment_ranks,
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
        // Hilbert consecutive ranks are physically adjacent.
        for r in 0..63u32 {
            assert_eq!(m.distance(r, r + 1), 1);
        }
    }

    #[test]
    fn non_grid_machine_ignores_curve() {
        let m = Machine::new(TopologyKind::Hypercube, 64, CurveKind::Hilbert);
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
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::Quadtree,
        ] {
            let m = Machine::new(kind, 256, CurveKind::Gray);
            for (a, b) in [(0u32, 255u32), (17, 200), (3, 3)] {
                assert_eq!(m.distance(a, b), m.distance(b, a));
            }
        }
    }

    #[test]
    fn only_new_builds_an_oracle() {
        assert!(Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert).has_oracle());
        let m = Machine::closed_form(TopologyKind::Torus, 64, CurveKind::Hilbert);
        assert!(!m.has_oracle());
    }

    #[test]
    fn above_the_size_threshold_the_fallback_stays_bit_identical() {
        // 16,384² entries exceed MAX_ORACLE_ENTRIES, so construction skips
        // the table and every distance takes the closed-form path — the
        // path `closed_form` machines take, which the test below pins
        // against the cached path pair by pair. Here we check
        // the threshold actually trips and the fallback still matches the
        // raw topology.
        let p = 16_384u64;
        assert!(p * p > crate::oracle::MAX_ORACLE_ENTRIES);
        let m = Machine::new(TopologyKind::Torus, p, CurveKind::Hilbert);
        assert!(!m.has_oracle());
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
                    let plain = Machine::closed_form(kind, p, curve);
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
        let m = Machine::closed_form(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        let _ = m.distance(0, 99);
    }

    #[test]
    fn check_ranks_reports_undersized_machines() {
        use crate::Assignment;
        use sfc_curves::Point2;
        let particles = vec![Point2::new(0, 0), Point2::new(1, 1)];
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 64);
        let small = Machine::new(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        match small.check_ranks(asg.num_ranks()) {
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
        assert!(big.check_ranks(asg.num_ranks()).is_ok());
    }
}
