//! The ACD model in three dimensions — the paper's future-work item (ii)
//! carried out in full: particle ordering by 3-D SFCs, processor ranking on
//! 3-D interconnects, and the near-/far-field FMM communication replayed on
//! an octree.
//!
//! The structure mirrors the 2-D model ([`crate::assignment`],
//! [`crate::machine`], [`crate::nfi`], [`crate::ffi`]) with the dimensional
//! constants swapped: Chebyshev near fields have up to 26 neighbors,
//! interaction lists up to 189 entries, and the upward/downward sweeps run
//! over an octree.

use rayon::prelude::*;
use sfc_curves::curve3d::{Curve3dKind, Point3};
use sfc_particles::CellMap;
use sfc_quadtree::cell3d::{interaction_list_3d, Cell3};
use sfc_topology::{Hypercube, Mesh3d, Topology, Torus3d};

/// 3-D interconnects supported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology3Kind {
    /// Cubic 3-D mesh; ranks placed by the processor-order 3-D SFC.
    Mesh3d,
    /// Cubic 3-D torus; ranks placed by the processor-order 3-D SFC.
    Torus3d,
    /// Binary hypercube with canonical (identity) ranking.
    Hypercube,
}

impl Topology3Kind {
    /// The three topologies of the 3-D study.
    pub const ALL: [Topology3Kind; 3] = [
        Topology3Kind::Mesh3d,
        Topology3Kind::Torus3d,
        Topology3Kind::Hypercube,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Topology3Kind::Mesh3d => "Mesh3D",
            Topology3Kind::Torus3d => "Torus3D",
            Topology3Kind::Hypercube => "Hypercube",
        }
    }
}

/// A 3-D machine: `p` ranks on a 3-D network, with the rank→node table
/// resolved once at construction.
pub struct Machine3 {
    topo: Box<dyn Topology>,
    node_of_rank: Vec<u64>,
}

impl Machine3 {
    /// Build a machine with `num_ranks` processors. For the cubic grids
    /// `num_ranks` must be a power of eight; ranks are placed along
    /// `processor_curve`. The hypercube requires a power of two and ignores
    /// the curve.
    pub fn new(kind: Topology3Kind, num_ranks: u64, processor_curve: Curve3dKind) -> Self {
        match kind {
            Topology3Kind::Hypercube => {
                let topo = Hypercube::with_nodes(num_ranks);
                Machine3 {
                    topo: Box::new(topo),
                    node_of_rank: (0..num_ranks).collect(),
                }
            }
            Topology3Kind::Mesh3d | Topology3Kind::Torus3d => {
                assert!(
                    num_ranks.is_power_of_two() && num_ranks.trailing_zeros().is_multiple_of(3),
                    "cubic grids need a power-of-eight processor count, got {num_ranks}"
                );
                let order = num_ranks.trailing_zeros() / 3;
                let side = 1u64 << order;
                let curve = processor_curve.curve(order.max(1));
                let node_of_rank: Vec<u64> = if order == 0 {
                    vec![0]
                } else {
                    (0..num_ranks)
                        .map(|r| {
                            let p = curve.point(r);
                            (p.z as u64) * side * side + (p.y as u64) * side + p.x as u64
                        })
                        .collect()
                };
                let topo: Box<dyn Topology> = match kind {
                    Topology3Kind::Mesh3d => Box::new(Mesh3d::new(side, side, side)),
                    _ => Box::new(Torus3d::new(side, side, side)),
                };
                Machine3 { topo, node_of_rank }
            }
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u64 {
        self.node_of_rank.len() as u64
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Hop distance between two ranks' processors.
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u64 {
        self.topo
            .distance(self.node_of_rank[a as usize], self.node_of_rank[b as usize])
    }
}

/// Particles ordered by a 3-D SFC and distributed in consecutive chunks.
pub struct Assignment3 {
    grid_order: u32,
    chunk: usize,
    particles: Vec<Point3>,
    cell_rank: CellMap,
}

impl Assignment3 {
    /// Order `particles` (distinct cells of a `2^grid_order` cube) by
    /// `curve` and split them over `num_ranks` processors.
    pub fn new(particles: &[Point3], grid_order: u32, curve: Curve3dKind, num_ranks: u64) -> Self {
        assert!(num_ranks >= 1 && !particles.is_empty());
        let c = curve.curve(grid_order);
        let mut sorted: Vec<(u64, Point3)> = particles.iter().map(|&p| (c.index(p), p)).collect();
        sorted.sort_unstable_by_key(|&(idx, _)| idx);
        let chunk = sorted.len().div_ceil(num_ranks as usize);
        let mut cell_rank = CellMap::with_capacity(sorted.len());
        let mut ordered = Vec::with_capacity(sorted.len());
        for (i, &(_, p)) in sorted.iter().enumerate() {
            let prev = cell_rank.insert_first(
                sfc_curves::curve3d::morton3_encode(p.x, p.y, p.z),
                (i / chunk) as u32,
            );
            assert!(prev.is_none(), "duplicate particle cell {p:?}");
            ordered.push(p);
        }
        Assignment3 {
            grid_order,
            chunk,
            particles: ordered,
            cell_rank,
        }
    }

    /// Grid order `k` of the cube.
    pub fn grid_order(&self) -> u32 {
        self.grid_order
    }

    /// The particles in curve order.
    pub fn particles(&self) -> &[Point3] {
        &self.particles
    }

    /// Rank of the `i`-th particle in curve order.
    #[inline]
    pub fn rank_of_index(&self, i: usize) -> u32 {
        (i / self.chunk) as u32
    }

    /// Rank owning the particle in a cell, if occupied.
    #[inline]
    pub fn rank_of_cell(&self, x: u32, y: u32, z: u32) -> Option<u32> {
        self.cell_rank
            .get(sfc_curves::curve3d::morton3_encode(x, y, z))
    }
}

/// Near-field ACD in 3-D: every particle exchanges with all particles in its
/// Chebyshev ball of the given radius.
pub fn nfi_acd_3d(asg: &Assignment3, machine: &Machine3, radius: u32) -> crate::nfi::NfiResult {
    assert!(radius >= 1);
    let side = 1i64 << asg.grid_order();
    let r = radius as i64;
    let mut offsets = Vec::new();
    for dz in -r..=r {
        for dy in -r..=r {
            for dx in -r..=r {
                if dx != 0 || dy != 0 || dz != 0 {
                    offsets.push((dx, dy, dz));
                }
            }
        }
    }
    asg.particles()
        .par_iter()
        .enumerate()
        .fold(crate::nfi::NfiResult::default, |mut acc, (i, p)| {
            let rank = asg.rank_of_index(i);
            for &(dx, dy, dz) in &offsets {
                let nx = p.x as i64 + dx;
                let ny = p.y as i64 + dy;
                let nz = p.z as i64 + dz;
                if nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side {
                    continue;
                }
                if let Some(other) = asg.rank_of_cell(nx as u32, ny as u32, nz as u32) {
                    acc.num_comms += 1;
                    if other == rank {
                        acc.local_comms += 1;
                    } else {
                        acc.total_distance += machine.distance(rank, other);
                    }
                }
            }
            acc
        })
        .reduce(crate::nfi::NfiResult::default, crate::nfi::NfiResult::merge)
}

/// Far-field ACD in 3-D: octree interpolation/anterpolation plus the 3-D
/// interaction lists.
pub fn ffi_acd_3d(asg: &Assignment3, machine: &Machine3) -> crate::ffi::FfiResult {
    let k = asg.grid_order();
    // Per-level owner maps (min rank per occupied cell). Level `k` is the
    // assignment's own map: one particle per cell, so its rank is the
    // minimum. `coarse[l]` is level `l < k`.
    let mut coarse: Vec<CellMap> = Vec::with_capacity(k as usize);
    for _ in 0..k {
        let prev = coarse.last().unwrap_or(&asg.cell_rank);
        let mut coarser = CellMap::with_capacity(prev.len());
        for (code, rank) in prev.iter() {
            coarser.insert_min(code >> 3, rank);
        }
        coarse.push(coarser);
    }
    coarse.reverse();
    let levels = |level: u32| coarse.get(level as usize).unwrap_or(&asg.cell_rank);

    let mut result = crate::ffi::FfiResult::default();
    for level in 1..=k {
        let entries: Vec<(u64, u32)> = levels(level).iter().collect();
        let parent_map = levels(level - 1);
        let (dist, count): (u64, u64) = entries
            .par_iter()
            .map(|&(code, rank)| {
                let parent_owner = parent_map.get(code >> 3).expect("occupied parent");
                (machine.distance(rank, parent_owner), 1u64)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        result.interp_distance += dist;
        result.interp_comms += count;
    }
    result.anterp_distance = result.interp_distance;
    result.anterp_comms = result.interp_comms;

    for level in 2..=k {
        let level_map = levels(level);
        let entries: Vec<(u64, u32)> = level_map.iter().collect();
        let (dist, count): (u64, u64) = entries
            .par_iter()
            .map(|&(code, rank)| {
                let cell = Cell3::from_code(level, code);
                let mut d = 0u64;
                let mut c = 0u64;
                for other_cell in interaction_list_3d(cell) {
                    if let Some(other) = level_map.get(other_cell.code()) {
                        d += machine.distance(rank, other);
                        c += 1;
                    }
                }
                (d, c)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        result.ilist_distance += dist;
        result.ilist_comms += count;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_particles::sampler3d::sample3d;
    use sfc_particles::Distribution;

    fn setup(curve: Curve3dKind, topo: Topology3Kind) -> (Assignment3, Machine3) {
        let particles = sample3d(Distribution::uniform(), 5, 2000, 77);
        let asg = Assignment3::new(&particles, 5, curve, 512);
        let machine = Machine3::new(topo, 512, curve);
        (asg, machine)
    }

    #[test]
    fn machine3_curve_placement_unit_steps() {
        let m = Machine3::new(Topology3Kind::Torus3d, 512, Curve3dKind::Hilbert);
        for r in 0..511u32 {
            assert_eq!(m.distance(r, r + 1), 1, "rank {r}");
        }
    }

    #[test]
    fn machine3_hypercube_hamming() {
        let m = Machine3::new(Topology3Kind::Hypercube, 512, Curve3dKind::Hilbert);
        assert_eq!(m.distance(0, 511), 9);
    }

    #[test]
    #[should_panic(expected = "power-of-eight")]
    fn non_cubic_count_rejected() {
        let _ = Machine3::new(Topology3Kind::Mesh3d, 256, Curve3dKind::Hilbert);
    }

    #[test]
    fn acd_bounded_by_diameter_3d() {
        for curve in Curve3dKind::ALL {
            for topo in Topology3Kind::ALL {
                let (asg, machine) = setup(curve, topo);
                let diameter = machine.topology().diameter() as f64;
                let nfi = nfi_acd_3d(&asg, &machine, 1);
                let ffi = ffi_acd_3d(&asg, &machine);
                assert!(nfi.acd() <= diameter, "{topo:?}/{curve:?}");
                assert!(ffi.acd() <= diameter, "{topo:?}/{curve:?}");
                assert!(nfi.num_comms > 0);
                assert!(ffi.num_comms() > 0);
            }
        }
    }

    #[test]
    fn paper_ordering_persists_in_3d() {
        // The headline 2-D ACD finding carried to 3-D: Hilbert beats
        // row-major by a wide margin on the torus, for both models.
        let (h_asg, h_m) = setup(Curve3dKind::Hilbert, Topology3Kind::Torus3d);
        let (r_asg, r_m) = setup(Curve3dKind::RowMajor, Topology3Kind::Torus3d);
        let h_nfi = nfi_acd_3d(&h_asg, &h_m, 1).acd();
        let r_nfi = nfi_acd_3d(&r_asg, &r_m, 1).acd();
        assert!(
            h_nfi < r_nfi,
            "3-D NFI: Hilbert {h_nfi:.3} should beat row-major {r_nfi:.3}"
        );
        let h_ffi = ffi_acd_3d(&h_asg, &h_m).acd();
        let r_ffi = ffi_acd_3d(&r_asg, &r_m).acd();
        assert!(h_ffi < r_ffi, "3-D FFI: {h_ffi:.3} vs {r_ffi:.3}");
    }

    #[test]
    fn comm_counts_curve_invariant_3d() {
        let mut nfi_counts = std::collections::HashSet::new();
        let mut interp_counts = std::collections::HashSet::new();
        for curve in Curve3dKind::ALL {
            let (asg, machine) = setup(curve, Topology3Kind::Torus3d);
            nfi_counts.insert(nfi_acd_3d(&asg, &machine, 1).num_comms);
            interp_counts.insert(ffi_acd_3d(&asg, &machine).interp_comms);
        }
        assert_eq!(nfi_counts.len(), 1);
        assert_eq!(interp_counts.len(), 1);
    }

    #[test]
    fn single_rank_zero_acd_3d() {
        let particles = sample3d(Distribution::uniform(), 4, 200, 3);
        let asg = Assignment3::new(&particles, 4, Curve3dKind::ZCurve, 1);
        let machine = Machine3::new(Topology3Kind::Torus3d, 1, Curve3dKind::ZCurve);
        assert_eq!(nfi_acd_3d(&asg, &machine, 2).acd(), 0.0);
        assert_eq!(ffi_acd_3d(&asg, &machine).acd(), 0.0);
    }
}
