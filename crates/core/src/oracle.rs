//! Dense rank-to-rank hop-distance oracle.
//!
//! [`DistanceOracle`] precomputes the full `P × P` hop matrix once, so a
//! [`Machine::distance`] call becomes a `u16` load instead of a
//! dyn-`Topology` dispatch, a `node_of_rank` indirection and the
//! topology's closed form. Only [`Machine::new`] builds one. The ACD
//! kernels count traffic per rank pair and ask for each distinct pair's
//! distance once per machine, so the sweeps build closed-form machines
//! ([`Machine::closed_form`]) and no artifact materializes this table.
//!
//! ## Memory envelope and fallback
//!
//! The table is a flat `Box<[u16]>` of `P²` entries. Construction is gated
//! at [`MAX_ORACLE_ENTRIES`] (`2²⁴` entries = 32 MiB, i.e. `P ≤ 4096`);
//! above the threshold [`Machine`](crate::Machine) falls back to the
//! closed-form path. Distances are stored *exactly* — a diameter that does
//! not fit `u16` is a typed [`SfcError::OracleDistanceOverflow`], never a
//! silent saturation — so results are bit-identical with the oracle on or
//! off, which the test suite checks.
//!
//! [`Machine::distance`]: crate::Machine::distance
//! [`Machine::new`]: crate::Machine::new
//! [`Machine::closed_form`]: crate::Machine::closed_form

use crate::error::SfcError;
use sfc_topology::{NodeId, Topology};

/// Largest `P²` table the oracle will materialize: `2²⁴` `u16` entries,
/// 32 MiB, reached at `P = 4096`. Chosen so every configuration the paper
/// sweeps (`P ≤ 65 536 / 4^scale`, and `P = 65 536` only at `--scale 0`
/// where the table would be 8 GiB) stays well under typical last-level
/// cache pressure while the big-`P` tail transparently uses closed forms.
pub const MAX_ORACLE_ENTRIES: u64 = 1 << 24;

/// A precomputed `P × P` rank-to-rank hop-distance matrix.
#[derive(Clone)]
pub struct DistanceOracle {
    /// Row-major `num_ranks × num_ranks` hop distances.
    table: Box<[u16]>,
    num_ranks: usize,
}

impl DistanceOracle {
    /// Build the dense table for ranks placed on `topo` by `node_of_rank`
    /// (rank `r` lives on physical node `node_of_rank[r]`).
    ///
    /// Costs `P` bulk [`Topology::fill_distance_row`] calls — one virtual
    /// call per row instead of one per pair. Returns
    /// [`SfcError::OracleDistanceOverflow`] if the topology's diameter does
    /// not fit a `u16` cell (no silent saturation).
    pub fn build(topo: &dyn Topology, node_of_rank: &[u64]) -> Result<Self, SfcError> {
        let diameter = topo.diameter();
        if diameter > u64::from(u16::MAX) {
            return Err(SfcError::OracleDistanceOverflow { diameter });
        }
        let p = node_of_rank.len();
        let n = topo.num_nodes() as usize;
        // One node-indexed scratch row per source, permuted into rank order.
        let mut node_row = vec![0u64; n];
        let mut table = vec![0u16; p * p];
        for (a, row) in table.chunks_exact_mut(p).enumerate() {
            topo.fill_distance_row(node_of_rank[a] as NodeId, &mut node_row);
            for (slot, &node_b) in row.iter_mut().zip(node_of_rank) {
                *slot = node_row[node_b as usize] as u16;
            }
        }
        Ok(DistanceOracle {
            table: table.into_boxed_slice(),
            num_ranks: p,
        })
    }

    /// Number of ranks the table covers.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Hop distance between ranks `a` and `b`.
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u64 {
        let n = self.num_ranks;
        for rank in [a, b] {
            assert!(
                (rank as usize) < n,
                "rank {rank} out of range for a distance oracle over {n} ranks"
            );
        }
        u64::from(self.table[a as usize * n + b as usize])
    }

    /// Bytes held by the table, for memory-envelope reporting.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u16>()
    }
}

impl std::fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceOracle")
            .field("num_ranks", &self.num_ranks)
            .field("table_bytes", &self.table_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_topology::{Bus, Hypercube, Mesh2d, QuadtreeNet, Ring, Torus2d};

    #[test]
    fn oracle_matches_closed_form_identity_placement() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Bus::new(16)),
            Box::new(Ring::new(16)),
            Box::new(Mesh2d::square(2)),
            Box::new(Torus2d::square(2)),
            Box::new(QuadtreeNet::new(2)),
            Box::new(Hypercube::new(4)),
        ];
        for topo in &topos {
            let p = topo.num_nodes();
            let identity: Vec<u64> = (0..p).collect();
            let oracle = DistanceOracle::build(topo.as_ref(), &identity).unwrap();
            for a in 0..p as u32 {
                for b in 0..p as u32 {
                    assert_eq!(
                        oracle.distance(a, b),
                        topo.distance(a as u64, b as u64),
                        "{} {a}->{b}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_respects_rank_permutation() {
        // Reverse placement on a bus: rank r lives on node p-1-r.
        let topo = Bus::new(8);
        let placement: Vec<u64> = (0..8).rev().collect();
        let oracle = DistanceOracle::build(&topo, &placement).unwrap();
        assert_eq!(oracle.distance(0, 7), 7);
        assert_eq!(oracle.distance(0, 1), 1); // nodes 7 and 6
        assert_eq!(oracle.distance(3, 3), 0);
    }

    #[test]
    fn diameter_overflow_is_a_typed_error() {
        // A bus longer than u16::MAX hops end to end. Building the full
        // table would be enormous, so the check must fire before any
        // allocation proportional to P².
        let topo = Bus::new(1 << 20);
        let err = DistanceOracle::build(&topo, &[0, 1 << 19]).unwrap_err();
        match err {
            SfcError::OracleDistanceOverflow { diameter } => {
                assert_eq!(diameter, (1 << 20) - 1)
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "out of range for a distance oracle")]
    fn out_of_range_rank_names_the_bounds() {
        let topo = Ring::new(4);
        let oracle = DistanceOracle::build(&topo, &[0, 1, 2, 3]).unwrap();
        let _ = oracle.distance(0, 9);
    }

    #[test]
    fn table_bytes_reports_the_envelope() {
        let topo = Ring::new(32);
        let identity: Vec<u64> = (0..32).collect();
        let oracle = DistanceOracle::build(&topo, &identity).unwrap();
        assert_eq!(oracle.table_bytes(), 32 * 32 * 2);
    }
}
