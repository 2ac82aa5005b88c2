//! Near-field interaction (NFI) ACD — Section IV of the paper.
//!
//! For each particle `x`, every particle `y` within radius `r` requires one
//! pairwise exchange; the communicated distance of the exchange is the hop
//! distance between the processors holding `x` and `y` (zero when they are
//! co-located). The ACD is the mean over all such exchanges.
//!
//! The neighborhood norm is configurable: the FMM near field is the
//! Chebyshev ball (cells sharing an edge or corner — "the number of nearest
//! neighbors … is bounded by 8" for `r = 1`), while the ANNS experiments use
//! the Manhattan ball. Exchanges are counted *directed* (`x → y` and
//! `y → x` are two communications); since hop distance is symmetric, the
//! ACD is identical to the undirected convention.
//!
//! Both norms' balls are symmetric, so the scan visits each pair of
//! particles once: from each particle it reads only the cells that come
//! after it in row-major order, and each pair it finds stands for the two
//! directed exchanges. One scan serves a whole machine set. It walks the
//! particles in curve order, so each rank's particles come in one run, and
//! counts the rank's pairs per receiver; each distinct `(sender, receiver)`
//! pair is then evaluated once per machine (see the `scan` module). The
//! scan runs on the calling thread; sweeps parallelize across cells. Every
//! sum is an integer, so results are exact and independent of the order of
//! evaluation.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::machine::Machine;
use crate::scan::{scan_row, with_scratch, PairSink, Totals};
use sfc_curves::point::Norm;
use sfc_particles::GridIndex;

/// Outcome of a near-field ACD computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NfiResult {
    /// Sum of hop distances over all directed exchanges.
    pub total_distance: u64,
    /// Number of directed exchanges (including rank-local ones).
    pub num_comms: u64,
    /// Exchanges between particles on the same rank (distance 0 by
    /// definition).
    pub local_comms: u64,
}

impl NfiResult {
    /// The Average Communicated Distance: mean hops per exchange. Zero when
    /// no exchanges occur.
    pub fn acd(&self) -> f64 {
        if self.num_comms == 0 {
            0.0
        } else {
            self.total_distance as f64 / self.num_comms as f64
        }
    }

    /// Fraction of exchanges that stayed on-rank.
    pub fn locality(&self) -> f64 {
        if self.num_comms == 0 {
            0.0
        } else {
            self.local_comms as f64 / self.num_comms as f64
        }
    }

    /// Merge two partial results.
    pub fn merge(self, other: NfiResult) -> NfiResult {
        NfiResult {
            total_distance: self.total_distance + other.total_distance,
            num_comms: self.num_comms + other.num_comms,
            local_comms: self.local_comms + other.local_comms,
        }
    }
}

/// Compute the near-field ACD for an assignment on a machine, with
/// neighborhood radius `radius` under `norm`.
///
/// A zero radius or a machine with fewer ranks than the assignment
/// addresses is a typed [`SfcError`], so a sweep harness records a failed
/// cell instead of aborting the run.
pub fn nfi_acd(
    asg: &Assignment,
    machine: &Machine,
    radius: u32,
    norm: Norm,
) -> Result<NfiResult, SfcError> {
    check(asg.num_ranks(), &[machine], radius)?;
    let result = nfi_on(&[machine], &mut [0], |t| nfi_traffic(asg, radius, norm, t)).next();
    Ok(result.expect("one result per machine"))
}

/// [`nfi_acd`] on every machine of `machines`, from one scan of `asg`: the
/// `i`-th result is the one `nfi_acd` returns on `machines[i]`.
pub fn nfi_acd_on(
    asg: &Assignment,
    machines: &[&Machine],
    radius: u32,
    norm: Norm,
) -> Result<Vec<NfiResult>, SfcError> {
    check(asg.num_ranks(), machines, radius)?;
    let distance = &mut vec![0; machines.len()];
    Ok(nfi_on(machines, distance, |t| nfi_traffic(asg, radius, norm, t)).collect())
}

/// The near-field result on each of `machines` of the traffic `scan`
/// delivers, undirected, to the [`Totals`] it is given. `distance` holds
/// one sum per machine, so one machine needs no allocation.
pub(crate) fn nfi_on<'a>(
    machines: &[&Machine],
    distance: &'a mut [u64],
    scan: impl FnOnce(&mut Totals),
) -> impl Iterator<Item = NfiResult> + 'a {
    let mut totals = Totals::undirected(machines, distance);
    scan(&mut totals);
    let (num_comms, local_comms) = (totals.comms, totals.local);
    distance.iter().map(move |&total_distance| NfiResult {
        total_distance,
        num_comms,
        local_comms,
    })
}

/// Reject what no near-field measurement can take: a zero radius, then a
/// machine with fewer than `ranks` ranks.
pub(crate) fn check(ranks: u64, machines: &[&Machine], radius: u32) -> Result<(), SfcError> {
    if radius < 1 {
        return Err(SfcError::ZeroRadius);
    }
    machines.iter().try_for_each(|m| m.check_ranks(ranks))
}

/// Deliver the near-field traffic of `asg` to `sink`, *undirected* (see
/// [`PairSink`]): each pair of particles within `radius` under `norm` is
/// delivered once, from whichever comes first in row-major order, and
/// stands for one message each way. Particles are scanned in curve order,
/// so each rank is one run of senders. A zero radius delivers nothing.
pub fn nfi_traffic(asg: &Assignment, radius: u32, norm: Norm, sink: &mut impl PairSink) {
    let side = 1i64 << asg.grid_order();
    let r = radius as i64;
    let grid: &GridIndex = asg.grid();
    with_scratch(|scratch| {
        let acc = &mut scratch.counts[0];
        acc.reset(asg.num_ranks());
        for (i, p) in asg.particles().iter().enumerate() {
            acc.send_from(asg.rank_of_index(i), sink);
            let (x, y) = (p.x as i64, p.y as i64);
            // The half neighborhood is a stack of contiguous row segments:
            // per `dy` in `0..=r`, stopping at the grid's top edge, `dx`
            // spans `±r` (Chebyshev) or `±(r − dy)` (Manhattan), and row
            // `dy == 0` keeps only the cells right of the particle. Each
            // segment is clipped against the grid edge once.
            for dy in 0..=r.min(side - 1 - y) {
                let w = match norm {
                    Norm::Chebyshev => r,
                    Norm::Manhattan => r - dy,
                };
                let lo = if dy == 0 { x + 1 } else { (x - w).max(0) };
                let xs = lo as u32..(x + w + 1).min(side) as u32;
                scan_row(grid, (y + dy) as u32, xs, 0..0, acc);
            }
        }
        acc.flush(sink);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::{CurveKind, Point2};
    use sfc_topology::TopologyKind;

    fn pts(coords: &[(u32, u32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    /// Two adjacent particles on two single-particle ranks placed on
    /// adjacent mesh nodes: 2 directed exchanges of 1 hop each.
    #[test]
    fn two_adjacent_particles_two_ranks() {
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 2);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let res = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 2);
        assert_eq!(res.local_comms, 0);
        // Ranks 0 and 1 sit on mesh nodes (0,0) and (1,0): 1 hop.
        assert_eq!(res.total_distance, 2);
        assert!((res.acd() - 1.0).abs() < 1e-12);
    }

    /// Co-located particles communicate at distance zero.
    #[test]
    fn same_rank_is_free() {
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 1);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let res = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 2);
        assert_eq!(res.local_comms, 2);
        assert_eq!(res.total_distance, 0);
        assert_eq!(res.acd(), 0.0);
        assert_eq!(res.locality(), 1.0);
    }

    /// Manhattan r=1 sees 4-neighborhoods, Chebyshev sees 8.
    #[test]
    fn norm_controls_neighborhood() {
        // 3x3 block of particles, count the center's exchanges by comparing
        // totals: full block under Chebyshev r=1 has each pair of the 8
        // neighbors of the center... simpler: compare comm counts.
        let mut coords = Vec::new();
        for x in 0..3u32 {
            for y in 0..3u32 {
                coords.push((x, y));
            }
        }
        let particles = pts(&coords);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 1);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let cheb = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        let manh = nfi_acd(&asg, &machine, 1, Norm::Manhattan).unwrap();
        // Chebyshev: 4 corners*3 + 4 edges*5 + 1 center*8 = 40 exchanges.
        assert_eq!(cheb.num_comms, 40);
        // Manhattan: 4 corners*2 + 4 edges*3 + center*4 = 24.
        assert_eq!(manh.num_comms, 24);
    }

    /// Isolated particles produce no communications.
    #[test]
    fn isolated_particles_no_comms() {
        let particles = pts(&[(0, 0), (7, 7)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 2);
        let machine = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
        let res = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 0);
        assert_eq!(res.acd(), 0.0);
    }

    /// Larger radius reaches the distant particle.
    #[test]
    fn radius_expands_neighborhood() {
        let particles = pts(&[(0, 0), (3, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::RowMajor, 2);
        let machine = Machine::new(TopologyKind::Torus, 64, CurveKind::RowMajor);
        for r in 1..=2 {
            let res = nfi_acd(&asg, &machine, r, Norm::Chebyshev).unwrap();
            assert_eq!(res.num_comms, 0, "radius {r}");
        }
        let res = nfi_acd(&asg, &machine, 3, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 2);
    }

    /// The grid boundary clips neighborhoods without panicking.
    #[test]
    fn boundary_clipping() {
        let particles = pts(&[(0, 0), (0, 1), (1, 0)]);
        let asg = Assignment::new(&particles, 1, CurveKind::Hilbert, 1);
        let machine = Machine::new(TopologyKind::Mesh, 4, CurveKind::Hilbert);
        let res = nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap();
        // All pairs within radius 2: 3 unordered pairs = 6 directed.
        assert_eq!(res.num_comms, 6);
        assert_eq!(res.local_comms, 6);
    }

    /// ACD is invariant under the direction convention (always symmetric).
    #[test]
    fn directed_counting_is_symmetric() {
        let particles = pts(&[(0, 0), (1, 1), (2, 2), (0, 2)]);
        let asg = Assignment::new(&particles, 2, CurveKind::ZCurve, 4);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::ZCurve);
        let res = nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms % 2, 0);
        assert_eq!(res.total_distance % 2, 0);
    }

    #[test]
    fn zero_radius_rejected() {
        let particles = pts(&[(0, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 1);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        let err = nfi_acd(&asg, &machine, 0, Norm::Chebyshev).unwrap_err();
        assert_eq!(err, crate::error::SfcError::ZeroRadius);
        // The typed error still renders the human-readable message callers
        // used to get from the (since removed) panicking shim.
        assert!(
            err.to_string().contains("radius must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn invalid_configurations_are_typed_errors_not_aborts() {
        use crate::error::SfcError;
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 4);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        assert_eq!(
            nfi_acd(&asg, &machine, 0, Norm::Chebyshev),
            Err(SfcError::ZeroRadius)
        );
        // A machine smaller than the assignment's rank space is an error,
        // not a mid-scan panic that would abort a whole sweep.
        let asg64 = Assignment::new(&particles, 2, CurveKind::Hilbert, 64);
        match nfi_acd(&asg64, &machine, 1, Norm::Chebyshev) {
            Err(SfcError::MachineTooSmall {
                machine_ranks: 16,
                assignment_ranks: 64,
            }) => {}
            other => panic!("expected MachineTooSmall, got {other:?}"),
        }
    }

    /// The half scan's row loop is bounded by the grid, not the radius: a
    /// radius past the grid's side sees the whole grid and returns at once.
    #[test]
    fn radius_beyond_the_grid_is_the_whole_grid() {
        let coords: Vec<_> = (0..20u32).map(|i| (i % 8, i / 8 * 2 + i % 2)).collect();
        let particles = pts(&coords);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 4);
        let machine = Machine::closed_form(TopologyKind::Torus, 4, CurveKind::Hilbert);
        let side = 8;
        let want = nfi_acd(&asg, &machine, side - 1, Norm::Chebyshev).unwrap();
        let n = asg.particles().len() as u64;
        assert_eq!(want.num_comms, n * (n - 1));
        let start = std::time::Instant::now();
        let got = nfi_acd(&asg, &machine, u32::MAX, Norm::Chebyshev).unwrap();
        assert_eq!(got, want);
        assert_eq!(
            nfi_acd(&asg, &machine, u32::MAX, Norm::Manhattan).unwrap(),
            want
        );
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
    }

    /// The dense row-segment scan and the sparse index's per-cell probes
    /// produce bit-identical results, on oracle and closed-form machines.
    #[test]
    fn dense_grid_on_and_off_agree() {
        let mut coords = Vec::new();
        // An irregular blob so boundary clipping, empty cells and both
        // scan paths are all exercised.
        for x in 0..8u32 {
            for y in 0..8u32 {
                if (x * 7 + y * 3) % 5 != 0 {
                    coords.push((x, y));
                }
            }
        }
        let particles = pts(&coords);
        for curve in [CurveKind::Hilbert, CurveKind::ZCurve, CurveKind::RowMajor] {
            let dense = Assignment::new(&particles, 3, curve, 16);
            let sparse = Assignment::with_dense_grid(&particles, 3, curve, 16, false);
            assert!(dense.has_dense_grid() && !sparse.has_dense_grid());
            for topo in [TopologyKind::Mesh, TopologyKind::Torus] {
                let cached = Machine::new(topo, 16, curve);
                let plain = Machine::closed_form(topo, 16, curve);
                for norm in [Norm::Chebyshev, Norm::Manhattan] {
                    for radius in 1..=4 {
                        let want = nfi_acd(&dense, &cached, radius, norm);
                        assert_eq!(want, nfi_acd(&sparse, &cached, radius, norm));
                        assert_eq!(want, nfi_acd(&dense, &plain, radius, norm));
                        assert_eq!(want, nfi_acd(&sparse, &plain, radius, norm));
                    }
                }
            }
        }
    }
}
