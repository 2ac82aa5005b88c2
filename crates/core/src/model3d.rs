//! The ACD model in three dimensions — the paper's future-work item (ii)
//! carried out in full: particle ordering by 3-D SFCs, processor ranking on
//! 3-D interconnects, and the near-/far-field FMM communication replayed on
//! an octree.
//!
//! The 3-D model is the 2-D model with one more axis, on the same
//! primitives. An [`Assignment3`] holds one [`GridIndex`] cube, whose rows
//! are the cube's `x` runs keyed by `(y, z)`. [`nfi_traffic_3d`] and
//! [`ffi_traffic_3d`] scan it in row segments, as
//! [`nfi_traffic`](crate::nfi::nfi_traffic) and
//! [`ffi_traffic`](crate::ffi::ffi_traffic) scan a square, and deliver to a
//! [`PairSink`]: each symmetric pair once, from the cell that comes first
//! in `(z, y, x)` order. A 3-D machine is a [`Machine::cube`], so
//! [`nfi_acd_3d`] and [`ffi_acd_3d`] evaluate one scan on a machine set.
//! Only the constants differ: up to 26 radius-1 Chebyshev neighbors, up to
//! 189 interaction-list entries, and a 2×2×2 min pyramid.

use crate::error::SfcError;
use crate::ffi::{ffi_on, for_each_by_owner, FfiResult};
use crate::machine::Machine;
use crate::nfi::{check, nfi_on, NfiResult};
use crate::scan::{scan_row, with_scratch, PairSink, Totals};
use sfc_curves::curve3d::{Curve3dKind, Point3};
use sfc_particles::GridIndex;

/// Particles ordered by a 3-D SFC and distributed in consecutive chunks.
pub struct Assignment3 {
    num_ranks: u64,
    chunk: usize,
    particles: Vec<Point3>,
    /// Rank of every occupied cell; cell `(x, y, z)` is `(x, y + side · z)`.
    grid: GridIndex,
}

impl Assignment3 {
    /// Order `particles` (distinct cells of a `2^grid_order` cube) by
    /// `curve` and split them over `num_ranks` processors in consecutive
    /// chunks of `⌈n/p⌉`.
    pub fn new(particles: &[Point3], grid_order: u32, curve: Curve3dKind, num_ranks: u64) -> Self {
        assert!(num_ranks >= 1, "at least one processor required");
        assert!(!particles.is_empty(), "at least one particle required");
        let c = curve.curve(grid_order);
        let side = 1u32 << grid_order;
        let key = |&p: &Point3| {
            let in_cube = p.x.max(p.y).max(p.z) < side;
            assert!(in_cube, "{p:?} outside cube of order {grid_order}");
            (c.index(p), p)
        };
        let mut sorted: Vec<(u64, Point3)> = particles.iter().map(key).collect();
        sorted.sort_unstable_by_key(|&(idx, _)| idx);
        let chunk = sorted.len().div_ceil(num_ranks as usize);
        let mut grid = GridIndex::cube(grid_order, sorted.len());
        let mut ordered = Vec::with_capacity(sorted.len());
        for (i, &(_, p)) in sorted.iter().enumerate() {
            let prev = grid.insert_first(p.x, p.y + side * p.z, (i / chunk) as u32);
            assert!(prev.is_none(), "duplicate particle cell {p:?}");
            ordered.push(p);
        }
        Assignment3 {
            num_ranks,
            chunk,
            particles: ordered,
            grid,
        }
    }

    /// Grid order `k` of the cube.
    pub fn grid_order(&self) -> u32 {
        self.grid.side().trailing_zeros()
    }

    /// Number of processor ranks the particles are distributed over.
    pub fn num_ranks(&self) -> u64 {
        self.num_ranks
    }

    /// True if the rank table is dense (up to [`sfc_particles::MAX_GRID_CELLS`]).
    pub fn has_dense_grid(&self) -> bool {
        self.grid.is_dense()
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
}

/// Near-field ACD in 3-D on every machine of `machines`, from one scan:
/// every particle exchanges with all particles in its Chebyshev ball of
/// the given radius. The `i`-th result is the one on `machines[i]`.
///
/// A zero radius or a machine with fewer ranks than the assignment
/// addresses is a typed [`SfcError`].
pub fn nfi_acd_3d(
    asg: &Assignment3,
    machines: &[&Machine],
    radius: u32,
) -> Result<Vec<NfiResult>, SfcError> {
    check(asg.num_ranks, machines, radius)?;
    let distance = &mut vec![0; machines.len()];
    Ok(nfi_on(machines, distance, |t| nfi_traffic_3d(asg, radius, t)).collect())
}

/// Far-field ACD in 3-D on every machine of `machines`, from one scan:
/// octree interpolation/anterpolation plus the 3-D interaction lists. The
/// `i`-th result is the one on `machines[i]`.
///
/// A machine with fewer ranks than the assignment addresses is a typed
/// [`SfcError`].
pub fn ffi_acd_3d(asg: &Assignment3, machines: &[&Machine]) -> Result<Vec<FfiResult>, SfcError> {
    for machine in machines {
        machine.check_ranks(asg.num_ranks)?;
    }
    let (interp, ilist) = (&mut vec![0; machines.len()], &mut vec![0; machines.len()]);
    let scan = |up: &mut Totals, across: &mut Totals| ffi_traffic_3d(asg, up, across);
    Ok(ffi_on(machines, interp, ilist, scan).collect())
}

/// Deliver the 3-D near-field traffic of `asg` to `sink`, *undirected*
/// (see [`PairSink`]): each pair of particles within Chebyshev `radius` is
/// delivered once, from whichever comes first in `(z, y, x)` order, and
/// stands for one message each way. Particles are scanned in curve order,
/// so each rank is one run of senders. A zero radius delivers nothing.
pub fn nfi_traffic_3d(asg: &Assignment3, radius: u32, sink: &mut impl PairSink) {
    let grid = &asg.grid;
    let side = grid.side() as i64;
    let r = radius as i64;
    with_scratch(|scratch| {
        let acc = &mut scratch.counts[0];
        acc.reset(asg.num_ranks());
        for (i, p) in asg.particles().iter().enumerate() {
            acc.send_from(asg.rank_of_index(i), sink);
            let (x, y, z) = (p.x as i64, p.y as i64, p.z as i64);
            // The half ball is a stack of row segments `x ± r`, clipped at
            // the cube's faces: row `(y, z)` right of `x`, the rest of plane
            // `z` from row `y + 1`, and planes `z + 1 ..= z + r` whole.
            let xs = (x - r).max(0) as u32..(x + r + 1).min(side) as u32;
            let row = |ny: i64, nz: i64| (ny + side * nz) as u32;
            scan_row(grid, row(y, z), p.x + 1..xs.end, 0..0, acc);
            for nz in z..=(z + r).min(side - 1) {
                let y0 = if nz == z { y + 1 } else { (y - r).max(0) };
                for ny in y0..=(y + r).min(side - 1) {
                    scan_row(grid, row(ny, nz), xs.clone(), 0..0, acc);
                }
            }
        }
        acc.flush(sink);
    });
}

/// Deliver the 3-D far-field traffic of `asg` to two sinks (see
/// [`PairSink`]): every interpolation message to `interp`, *directed*, and
/// the interaction-list exchanges to `ilist`, *undirected*, each pair of
/// cells once. Anterpolation is the transpose of interpolation.
///
/// The owners are a 2×2×2 min pyramid over the assignment's own cube.
/// Each level's cells are visited one owner at a time: the finest level in
/// particle order, which is rank order, and each coarser level bucketed
/// by owner.
pub fn ffi_traffic_3d(asg: &Assignment3, interp: &mut impl PairSink, ilist: &mut impl PairSink) {
    let k = asg.grid_order();
    let coarse = owner_pyramid(asg);
    let level = |l: u32| coarse.get(l as usize).unwrap_or(&asg.grid);
    let ranks = asg.num_ranks();
    with_scratch(|scratch| {
        let [up, across] = &mut scratch.counts;
        up.reset(ranks);
        across.reset(ranks);
        for l in 1..=k {
            let (cells, parents) = (level(l), level(l - 1));
            let side = 1u32 << l;
            let row = |y: u32, z: u32| y + side * z;
            let mut visit = |x: u32, y: u32, z: u32, rank: u32| {
                up.send_from(rank, interp);
                across.send_from(rank, ilist);
                // Interpolation: one parent-slot load.
                let px = x >> 1;
                let parent_row = (y >> 1) + side / 2 * (z >> 1);
                scan_row(parents, parent_row, px..px + 1, 0..0, up);
                // Interaction list: the parent's 6×6×6 block of children,
                // clipped at the cube's faces, minus the cell's own 3×3×3,
                // and of those only the cells after (x, y, z) in (z, y, x)
                // order: row (y, z) from x + 2 (clamped at the right face),
                // then the later rows of the block, with the own 3×3×3 cut
                // out of the rows it crosses. Empty at level 1.
                let block = |c: u32| (c & !1).saturating_sub(2)..((c & !1) + 4).min(side);
                let (xs, ys, zs) = (block(x), block(y), block(z));
                scan_row(cells, row(y, z), (x + 2).min(xs.end)..xs.end, 0..0, across);
                let own = x.saturating_sub(1)..x + 2;
                for nz in z..zs.end {
                    let y0 = if nz == z { y + 1 } else { ys.start };
                    for ny in y0..ys.end {
                        let near = nz <= z + 1 && ny + 1 >= y && ny <= y + 1;
                        let hole = if near { own.clone() } else { 0..0 };
                        scan_row(cells, row(ny, nz), xs.clone(), hole, across);
                    }
                }
            };
            if l == k {
                // The particles are in curve order, which is rank order.
                for (i, p) in asg.particles().iter().enumerate() {
                    visit(p.x, p.y, p.z, asg.rank_of_index(i));
                }
            } else {
                let (order, starts) = (&mut scratch.order, &mut scratch.starts);
                for_each_by_owner(cells, ranks as usize, order, starts, |x, r, rank| {
                    visit(x, r % side, r / side, rank)
                });
            }
        }
        up.flush(interp);
        across.flush(ilist);
    });
}

/// Levels `0 .. k` of the min-rank pyramid over `asg`'s cube: each cell
/// of level `l` holds the lowest rank in its 2×2×2 children at level
/// `l + 1`. Level `k` is the assignment's own table.
fn owner_pyramid(asg: &Assignment3) -> Vec<GridIndex> {
    let k = asg.grid_order() as usize;
    // Placeholders: `clear_as_parent_of` shapes each level.
    let mut coarse: Vec<GridIndex> = (0..k).map(|_| GridIndex::sparse(0, 0)).collect();
    for level in (0..k).rev() {
        let (dst, below) = coarse.split_at_mut(level + 1);
        let table = &mut dst[level];
        let finer = below.first().unwrap_or(&asg.grid);
        table.clear_as_parent_of(finer);
        let side = finer.side() as u32;
        let mut put = |x: u32, y: u32, z: u32, rank| {
            table.insert_min(x >> 1, (y >> 1) + side / 2 * (z >> 1), rank)
        };
        if below.is_empty() {
            // Under the finest level, walk the `n` particles rather than
            // every cell of the cube.
            for (i, p) in asg.particles().iter().enumerate() {
                put(p.x, p.y, p.z, asg.rank_of_index(i));
            }
        } else {
            finer.for_each_occupied(|x, row, rank| put(x, row % side, row / side, rank));
        }
    }
    coarse
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_particles::sampler3d::sample3d;
    use sfc_particles::Distribution;
    use sfc_topology::TopologyKind;

    /// The three topologies of the 3-D study.
    const TOPOLOGIES: [TopologyKind; 3] = [
        TopologyKind::Mesh3d,
        TopologyKind::Torus3d,
        TopologyKind::Hypercube,
    ];

    fn assignment(curve: Curve3dKind) -> Assignment3 {
        let particles = sample3d(Distribution::uniform(), 5, 2000, 77);
        Assignment3::new(&particles, 5, curve, 512)
    }

    fn nfi(asg: &Assignment3, machine: &Machine, radius: u32) -> NfiResult {
        nfi_acd_3d(asg, &[machine], radius).unwrap()[0]
    }

    fn ffi(asg: &Assignment3, machine: &Machine) -> FfiResult {
        ffi_acd_3d(asg, &[machine]).unwrap()[0]
    }

    #[test]
    fn cube_machine_curve_placement_unit_steps() {
        let m = Machine::cube(TopologyKind::Torus3d, 512, Curve3dKind::Hilbert);
        for r in 0..511u32 {
            assert_eq!(m.distance(r, r + 1), 1, "rank {r}");
        }
    }

    #[test]
    fn cube_machine_hypercube_hamming() {
        let m = Machine::cube(TopologyKind::Hypercube, 512, Curve3dKind::Hilbert);
        assert_eq!(m.distance(0, 511), 9);
    }

    #[test]
    #[should_panic(expected = "power-of-eight")]
    fn non_cubic_count_rejected() {
        let _ = Machine::cube(TopologyKind::Mesh3d, 256, Curve3dKind::Hilbert);
    }

    #[test]
    #[should_panic(expected = "not a topology of the 3-D model")]
    fn two_dimensional_topology_rejected() {
        let _ = Machine::cube(TopologyKind::Torus, 64, Curve3dKind::Hilbert);
    }

    #[test]
    #[should_panic(expected = "outside cube of order 2")]
    fn out_of_cube_particle_rejected() {
        // Row y + side · z of (0, 4, 0) is a cell of the cube, (0, 0, 1).
        let _ = Assignment3::new(&[Point3::new(0, 4, 0)], 2, Curve3dKind::ZCurve, 1);
    }

    #[test]
    fn acd_bounded_by_diameter_3d() {
        for curve in Curve3dKind::ALL {
            let asg = assignment(curve);
            for topo in TOPOLOGIES {
                let machine = Machine::cube(topo, 512, curve);
                let diameter = machine.topology().diameter() as f64;
                let near = nfi(&asg, &machine, 1);
                let far = ffi(&asg, &machine);
                assert!(near.acd() <= diameter, "{topo:?}/{curve:?}");
                assert!(far.acd() <= diameter, "{topo:?}/{curve:?}");
                assert!(near.num_comms > 0);
                assert!(far.num_comms() > 0);
            }
        }
    }

    #[test]
    fn paper_ordering_persists_in_3d() {
        // The headline 2-D ACD finding carried to 3-D: Hilbert beats
        // row-major by a wide margin on the torus, for both models.
        let torus = |curve| Machine::cube(TopologyKind::Torus3d, 512, curve);
        let (h_asg, h_m) = (
            assignment(Curve3dKind::Hilbert),
            torus(Curve3dKind::Hilbert),
        );
        let (r_asg, r_m) = (
            assignment(Curve3dKind::RowMajor),
            torus(Curve3dKind::RowMajor),
        );
        let h_nfi = nfi(&h_asg, &h_m, 1).acd();
        let r_nfi = nfi(&r_asg, &r_m, 1).acd();
        assert!(
            h_nfi < r_nfi,
            "3-D NFI: Hilbert {h_nfi:.3} should beat row-major {r_nfi:.3}"
        );
        let h_ffi = ffi(&h_asg, &h_m).acd();
        let r_ffi = ffi(&r_asg, &r_m).acd();
        assert!(h_ffi < r_ffi, "3-D FFI: {h_ffi:.3} vs {r_ffi:.3}");
    }

    #[test]
    fn comm_counts_curve_invariant_3d() {
        let mut nfi_counts = std::collections::HashSet::new();
        let mut interp_counts = std::collections::HashSet::new();
        for curve in Curve3dKind::ALL {
            let asg = assignment(curve);
            let machine = Machine::cube(TopologyKind::Torus3d, 512, curve);
            nfi_counts.insert(nfi(&asg, &machine, 1).num_comms);
            interp_counts.insert(ffi(&asg, &machine).interp_comms);
        }
        assert_eq!(nfi_counts.len(), 1);
        assert_eq!(interp_counts.len(), 1);
    }

    #[test]
    fn single_rank_zero_acd_3d() {
        let particles = sample3d(Distribution::uniform(), 4, 200, 3);
        let asg = Assignment3::new(&particles, 4, Curve3dKind::ZCurve, 1);
        let machine = Machine::cube(TopologyKind::Torus3d, 1, Curve3dKind::ZCurve);
        assert_eq!(nfi(&asg, &machine, 2).acd(), 0.0);
        assert_eq!(ffi(&asg, &machine).acd(), 0.0);
    }

    /// One scan on a machine set gives, machine by machine, what one scan
    /// per machine gives.
    #[test]
    fn machine_sets_match_single_machines() {
        let asg = assignment(Curve3dKind::Gray);
        let machines: Vec<Machine> = TOPOLOGIES
            .iter()
            .map(|&topo| Machine::cube(topo, 512, Curve3dKind::Gray))
            .collect();
        let set: Vec<&Machine> = machines.iter().collect();
        let near = nfi_acd_3d(&asg, &set, 2).unwrap();
        let far = ffi_acd_3d(&asg, &set).unwrap();
        for (i, m) in machines.iter().enumerate() {
            assert_eq!(near[i], nfi(&asg, m, 2));
            assert_eq!(far[i], ffi(&asg, m));
        }
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        let asg = assignment(Curve3dKind::Hilbert);
        let small = Machine::cube(TopologyKind::Torus3d, 64, Curve3dKind::Hilbert);
        let too_small = SfcError::MachineTooSmall {
            machine_ranks: 64,
            assignment_ranks: 512,
        };
        assert_eq!(nfi_acd_3d(&asg, &[&small], 1).unwrap_err(), too_small);
        assert_eq!(ffi_acd_3d(&asg, &[&small]).unwrap_err(), too_small);
        let machine = Machine::cube(TopologyKind::Torus3d, 512, Curve3dKind::Hilbert);
        assert_eq!(nfi_acd_3d(&asg, &[&machine], 0), Err(SfcError::ZeroRadius));
    }
}
