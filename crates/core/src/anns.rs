//! Average Nearest Neighbor Stretch (ANNS) and its radius-`r`
//! generalization — Section V of the paper.
//!
//! Xu & Tirthapura (IPDPS 2012) define the ANNS of a curve as the average,
//! over all pairs of points at Manhattan distance 1, of the distance between
//! their images in the curve's linear ordering. The paper reproduces their
//! analytical results empirically and generalizes the metric to arbitrary
//! Manhattan radii: for every pair within radius `r`, the *stretch* is the
//! linear distance divided by the spatial distance, and the generalized
//! metric is the mean stretch.
//!
//! As Section V notes, this is the ACD model run with every grid cell
//! occupied, one cell per processor, and the linear ordering itself as the
//! "network" — so the implementation below is also a differential oracle for
//! the near-field ACD code (see the crate's integration tests).
//!
//! The maximum nearest-neighbor stretch and the all-pairs stretch (the other
//! two metrics of Xu & Tirthapura) are provided as well.

use crate::error::SfcError;
use rayon::prelude::*;
use sfc_curves::point::Norm;
use sfc_curves::{Curve2d, CurveKind, CurveTable, Point2};

/// Largest grid order the full-grid stretch sweeps accept (`O(4^order)`
/// cells, each scanning an `O(radius²)` neighborhood).
pub const MAX_STRETCH_ORDER: u32 = 14;

/// Largest grid order [`all_pairs_stretch`] accepts (`O(16^order)` pairs).
pub const MAX_ALL_PAIRS_ORDER: u32 = 5;

/// Enumerate each unordered pair offset once: for every cell, only the
/// offsets that are lexicographically "forward" (dy > 0, or dy == 0 and
/// dx > 0), tagged with the spatial distance under `norm`. Shared by the
/// linear and cyclic stretch scans.
fn forward_offsets(radius: u32, norm: Norm) -> Vec<(i64, i64, u64)> {
    let r = radius as i64;
    let mut offsets = Vec::new();
    for dy in 0..=r {
        for dx in -r..=r {
            if dy == 0 && dx <= 0 {
                continue;
            }
            let dist = match norm {
                Norm::Manhattan => dx.abs() + dy.abs(),
                Norm::Chebyshev => dx.abs().max(dy.abs()),
            };
            if dist <= r {
                offsets.push((dx, dy, dist as u64));
            }
        }
    }
    offsets
}

/// Shared kernel for the linear and cyclic generalized-stretch sweeps.
///
/// Instead of probing `table.index` once per `(cell, offset)` pair, the scan
/// walks each row of the grid and visits every dy-group of
/// [`forward_offsets`] as one *clipped contiguous slice* over the
/// precomputed index rows ([`CurveTable::index_row`]) — the same
/// row-segment shape the NFI kernel uses over the dense occupancy grid.
///
/// Stretch sums are floating point, so the accumulation order is part of
/// the observable result: the scan visits pairs in exactly the per-cell
/// offset order of the naive loop (x ascending outer, offsets in
/// `forward_offsets` order inner), which keeps artifacts byte-identical.
fn stretch_scan<const CYCLIC: bool>(table: &CurveTable, radius: u32, norm: Norm) -> StretchResult {
    let side = table.side() as i64;
    let n = table.len();
    let offsets = forward_offsets(radius, norm);
    // Contiguous runs of `offsets`: each run is one dy with consecutive
    // ascending dx values, recorded as (dy, first dx, start index, len).
    let mut groups: Vec<(i64, i64, usize, usize)> = Vec::new();
    for (i, &(dx, dy, _)) in offsets.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if g.0 == dy && g.1 + g.3 as i64 == dx => g.3 += 1,
            _ => groups.push((dy, dx, i, 1)),
        }
    }

    (0..side)
        .into_par_iter()
        .fold(StretchResult::empty, |mut acc, y| {
            let row = table.index_row(y as u32);
            // Bind the target row for every group that stays on the grid at
            // this y (dy >= 0 always, so only the top edge clips).
            let active: Vec<(&[u64], i64, usize, usize)> = groups
                .iter()
                .filter(|&&(dy, ..)| y + dy < side)
                .map(|&(dy, dx_first, start, len)| {
                    (table.index_row((y + dy) as u32), dx_first, start, len)
                })
                .collect();
            for x in 0..side {
                let here = row[x as usize];
                for &(nrow, dx_first, start, len) in &active {
                    let dx_last = dx_first + len as i64 - 1;
                    let lo = dx_first.max(-x);
                    let hi = dx_last.min(side - 1 - x);
                    if lo > hi {
                        continue;
                    }
                    let s = start + (lo - dx_first) as usize;
                    let e = start + (hi - dx_first) as usize;
                    for &(dx, _, dist) in &offsets[s..=e] {
                        let there = nrow[(x + dx) as usize];
                        let linear = here.abs_diff(there);
                        let measured = if CYCLIC {
                            linear.min(n - linear)
                        } else {
                            linear
                        };
                        let stretch = measured as f64 / dist as f64;
                        acc.total_stretch += stretch;
                        acc.num_pairs += 1;
                        if stretch > acc.max_stretch {
                            acc.max_stretch = stretch;
                        }
                    }
                }
            }
            acc
        })
        .reduce(StretchResult::empty, StretchResult::merge)
}

/// Validate the shared stretch-sweep preconditions.
fn check_stretch_params(order: u32, radius: u32, max_order: u32) -> Result<(), SfcError> {
    if radius < 1 {
        return Err(SfcError::ZeroRadius);
    }
    if order > max_order {
        return Err(SfcError::OrderTooLarge { order, max_order });
    }
    Ok(())
}

/// Outcome of a stretch computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchResult {
    /// Sum of per-pair stretches (linear distance / spatial distance).
    pub total_stretch: f64,
    /// Number of (unordered) pairs measured.
    pub num_pairs: u64,
    /// Largest per-pair stretch observed.
    pub max_stretch: f64,
}

impl StretchResult {
    /// The average stretch.
    pub fn average(&self) -> f64 {
        if self.num_pairs == 0 {
            0.0
        } else {
            self.total_stretch / self.num_pairs as f64
        }
    }

    fn merge(self, other: StretchResult) -> StretchResult {
        StretchResult {
            total_stretch: self.total_stretch + other.total_stretch,
            num_pairs: self.num_pairs + other.num_pairs,
            max_stretch: self.max_stretch.max(other.max_stretch),
        }
    }

    fn empty() -> StretchResult {
        StretchResult {
            total_stretch: 0.0,
            num_pairs: 0,
            max_stretch: 0.0,
        }
    }
}

/// The classic ANNS: average linear distance between Manhattan-1 neighbors,
/// over the full `2^order`-sided grid. An order above [`MAX_STRETCH_ORDER`]
/// is a typed [`SfcError`].
pub fn anns(curve: CurveKind, order: u32) -> Result<StretchResult, SfcError> {
    anns_radius(curve, order, 1, Norm::Manhattan)
}

/// Generalized stretch: all pairs within `radius` under `norm`, stretch =
/// linear distance / spatial distance. `radius = 1, Manhattan` recovers the
/// ANNS.
///
/// A zero radius or an order above [`MAX_STRETCH_ORDER`] is a typed
/// [`SfcError`] instead of an abort.
pub fn anns_radius(
    curve: CurveKind,
    order: u32,
    radius: u32,
    norm: Norm,
) -> Result<StretchResult, SfcError> {
    check_stretch_params(order, radius, MAX_STRETCH_ORDER)?;
    let table = CurveTable::new(curve, order);
    Ok(stretch_scan::<false>(&table, radius, norm))
}

/// The all-pairs stretch of Xu & Tirthapura: mean of
/// `linear distance / Manhattan distance` over *every* pair of distinct
/// cells. `O(16^order)` — restricted to tiny grids
/// ([`MAX_ALL_PAIRS_ORDER`]) and used for cross-metric comparisons and
/// tests.
///
/// An order above [`MAX_ALL_PAIRS_ORDER`] is a typed [`SfcError`] instead of
/// an abort.
pub fn all_pairs_stretch(curve: CurveKind, order: u32) -> Result<StretchResult, SfcError> {
    if order > MAX_ALL_PAIRS_ORDER {
        return Err(SfcError::OrderTooLarge {
            order,
            max_order: MAX_ALL_PAIRS_ORDER,
        });
    }
    let table = CurveTable::new(curve, order);
    let side = table.side() as u32;
    let cells: Vec<Point2> = (0..side)
        .flat_map(|y| (0..side).map(move |x| Point2::new(x, y)))
        .collect();
    let result = cells
        .par_iter()
        .enumerate()
        .fold(StretchResult::empty, |mut acc, (i, &a)| {
            let ia = table.index(a);
            for &b in &cells[i + 1..] {
                let d = a.manhattan(b);
                let stretch = ia.abs_diff(table.index(b)) as f64 / d as f64;
                acc.total_stretch += stretch;
                acc.num_pairs += 1;
                if stretch > acc.max_stretch {
                    acc.max_stretch = stretch;
                }
            }
            acc
        })
        .reduce(StretchResult::empty, StretchResult::merge);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed form for the row-major ANNS on a `s×s` grid: horizontal
    /// neighbor pairs have stretch 1, vertical pairs have stretch `s`.
    fn row_major_anns_exact(order: u32) -> f64 {
        let s = (1u64 << order) as f64;
        let horizontal = s * (s - 1.0); // pairs
        let vertical = s * (s - 1.0);
        (horizontal * 1.0 + vertical * s) / (horizontal + vertical)
    }

    #[test]
    fn row_major_matches_closed_form() {
        for order in 2..=7 {
            let res = anns(CurveKind::RowMajor, order).unwrap();
            let exact = row_major_anns_exact(order);
            assert!(
                (res.average() - exact).abs() < 1e-9,
                "order {order}: {} vs {exact}",
                res.average()
            );
        }
    }

    #[test]
    fn pair_counts_match_grid_combinatorics() {
        // On an s×s grid there are 2·s·(s−1) Manhattan-1 pairs.
        let order = 4;
        let s = 1u64 << order;
        let res = anns(CurveKind::Hilbert, order).unwrap();
        assert_eq!(res.num_pairs, 2 * s * (s - 1));
    }

    #[test]
    fn boustrophedon_beats_row_major_max_stretch() {
        // Snake scan has the same average but bounded... actually its max
        // stretch is the same order; what differs is that *horizontal*
        // neighbors at row ends stay adjacent. Verify max stretch is
        // attained by row-major at side·1 and that snake's average is no
        // worse.
        let order = 5;
        let row = anns(CurveKind::RowMajor, order).unwrap();
        let snake = anns(CurveKind::Boustrophedon, order).unwrap();
        assert!(snake.average() <= row.average() + 1e-9);
    }

    #[test]
    fn paper_figure5a_ordering_z_and_row_beat_hilbert_and_gray() {
        // The headline surprise of Section V: under ANNS, the Z-curve and
        // row-major order significantly outperform Gray and Hilbert.
        for order in 4..=7 {
            let hilbert = anns(CurveKind::Hilbert, order).unwrap().average();
            let z = anns(CurveKind::ZCurve, order).unwrap().average();
            let gray = anns(CurveKind::Gray, order).unwrap().average();
            let row = anns(CurveKind::RowMajor, order).unwrap().average();
            assert!(
                z < gray && z < hilbert,
                "order {order}: z={z} gray={gray} hilbert={hilbert}"
            );
            assert!(row < gray && row < hilbert, "order {order}: row={row}");
        }
    }

    #[test]
    fn generalized_radius_preserves_ordering() {
        // Section V: "irregardless the radius used, the relative ordering of
        // the curves was the same".
        let order = 6;
        for radius in [2, 4, 6] {
            let z = anns_radius(CurveKind::ZCurve, order, radius, Norm::Manhattan)
                .unwrap()
                .average();
            let hilbert = anns_radius(CurveKind::Hilbert, order, radius, Norm::Manhattan)
                .unwrap()
                .average();
            let gray = anns_radius(CurveKind::Gray, order, radius, Norm::Manhattan)
                .unwrap()
                .average();
            let row = anns_radius(CurveKind::RowMajor, order, radius, Norm::Manhattan)
                .unwrap()
                .average();
            assert!(z < gray && z < hilbert, "radius {radius}");
            assert!(row < gray && row < hilbert, "radius {radius}");
        }
    }

    #[test]
    fn max_stretch_at_least_average() {
        for kind in CurveKind::PAPER {
            let res = anns(kind, 5).unwrap();
            assert!(res.max_stretch >= res.average());
        }
    }

    #[test]
    fn hilbert_unit_steps_bound_reverse_stretch() {
        // For the Hilbert curve, consecutive linear indices are spatial
        // neighbors, so the *minimum* stretch over M1 pairs is 1 and every
        // index step of 1 contributes stretch exactly 1. Check that some
        // pair achieves stretch 1.
        let res = anns(CurveKind::Hilbert, 4).unwrap();
        // 4^4 - 1 = 255 consecutive index pairs contribute stretch 1 each;
        // with 480 total pairs the average is bounded below by ~1.
        assert!(res.average() >= 1.0);
        assert!(res.num_pairs >= 255);
    }

    #[test]
    fn chebyshev_radius_counts() {
        let order = 3;
        let s = 1i64 << order;
        let res = anns_radius(CurveKind::ZCurve, order, 1, Norm::Chebyshev).unwrap();
        // Chebyshev-1 unordered pairs: horizontal s(s-1) + vertical s(s-1)
        // + 2 diagonals (s-1)^2 each.
        let expected = 2 * s * (s - 1) + 2 * (s - 1) * (s - 1);
        assert_eq!(res.num_pairs, expected as u64);
    }

    #[test]
    fn all_pairs_stretch_small_grid() {
        let res = all_pairs_stretch(CurveKind::Hilbert, 2).unwrap();
        // C(16, 2) pairs.
        assert_eq!(res.num_pairs, 120);
        assert!(res.average() > 0.0);
        assert!(res.max_stretch >= res.average());
    }

    /// The naive per-offset probe loop the row-segment scan replaced,
    /// kept as a reference oracle. Stretch sums are floating point, so the
    /// scans must agree *bitwise*, not just approximately.
    fn naive_scan(table: &CurveTable, radius: u32, norm: Norm, cyclic: bool) -> StretchResult {
        let side = table.side() as i64;
        let n = table.len();
        let offsets = forward_offsets(radius, norm);
        (0..side)
            .into_par_iter()
            .fold(StretchResult::empty, |mut acc, y| {
                for x in 0..side {
                    let here = table.index(Point2::new(x as u32, y as u32));
                    for &(dx, dy, dist) in &offsets {
                        let (nx, ny) = (x + dx, y + dy);
                        if nx < 0 || ny < 0 || nx >= side || ny >= side {
                            continue;
                        }
                        let there = table.index(Point2::new(nx as u32, ny as u32));
                        let linear = here.abs_diff(there);
                        let measured = if cyclic {
                            linear.min(n - linear)
                        } else {
                            linear
                        };
                        let stretch = measured as f64 / dist as f64;
                        acc.total_stretch += stretch;
                        acc.num_pairs += 1;
                        if stretch > acc.max_stretch {
                            acc.max_stretch = stretch;
                        }
                    }
                }
                acc
            })
            .reduce(StretchResult::empty, StretchResult::merge)
    }

    #[test]
    fn row_segment_scan_is_bit_identical_to_naive_probes() {
        for curve in [CurveKind::Hilbert, CurveKind::ZCurve, CurveKind::RowMajor] {
            let table = CurveTable::new(curve, 4);
            for norm in [Norm::Manhattan, Norm::Chebyshev] {
                for radius in [1, 3, 7] {
                    for cyclic in [false, true] {
                        let want = naive_scan(&table, radius, norm, cyclic);
                        let got = if cyclic {
                            stretch_scan::<true>(&table, radius, norm)
                        } else {
                            stretch_scan::<false>(&table, radius, norm)
                        };
                        assert_eq!(want.num_pairs, got.num_pairs, "{curve} r={radius}");
                        assert_eq!(
                            want.total_stretch.to_bits(),
                            got.total_stretch.to_bits(),
                            "{curve} r={radius} {norm:?} cyclic={cyclic}"
                        );
                        assert_eq!(want.max_stretch.to_bits(), got.max_stretch.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn anns_is_deterministic_and_parallel_safe() {
        let a = anns(CurveKind::Gray, 6).unwrap();
        let b = anns(CurveKind::Gray, 6).unwrap();
        assert_eq!(a.num_pairs, b.num_pairs);
        assert!((a.total_stretch - b.total_stretch).abs() < 1e-6);
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert_eq!(
            anns_radius(CurveKind::Hilbert, 4, 0, Norm::Manhattan),
            Err(SfcError::ZeroRadius)
        );
        assert_eq!(
            anns_radius(CurveKind::Hilbert, 15, 1, Norm::Manhattan),
            Err(SfcError::OrderTooLarge {
                order: 15,
                max_order: MAX_STRETCH_ORDER
            })
        );
        assert_eq!(
            all_pairs_stretch(CurveKind::ZCurve, 6),
            Err(SfcError::OrderTooLarge {
                order: 6,
                max_order: MAX_ALL_PAIRS_ORDER
            })
        );
        assert_eq!(
            anns_cyclic(CurveKind::Moore, 4, 0, Norm::Manhattan),
            Err(SfcError::ZeroRadius)
        );
        // The typed error still renders a human-readable message.
        let err = anns_radius(CurveKind::Hilbert, 4, 0, Norm::Manhattan).unwrap_err();
        assert!(err.to_string().contains("at least 1"));
    }
}

/// Cyclic variant of the generalized stretch: linear distance measured
/// around the curve treated as a ring, `min(|Δ|, 4^k − |Δ|)`.
///
/// Motivated by the closed Moore curve extension: on ring-like layouts
/// (torus ranks, pipelined schedules) the ordering wraps, and a closed curve
/// should — and does — shed the huge start-to-end stretch an open curve pays
/// at its seam.
///
/// A zero radius or an order above [`MAX_STRETCH_ORDER`] is a typed
/// [`SfcError`] instead of an abort.
pub fn anns_cyclic(
    curve: CurveKind,
    order: u32,
    radius: u32,
    norm: Norm,
) -> Result<StretchResult, SfcError> {
    check_stretch_params(order, radius, MAX_STRETCH_ORDER)?;
    let table = CurveTable::new(curve, order);
    Ok(stretch_scan::<true>(&table, radius, norm))
}

#[cfg(test)]
mod cyclic_tests {
    use super::*;

    #[test]
    fn cyclic_never_exceeds_linear() {
        for kind in [CurveKind::Hilbert, CurveKind::Moore, CurveKind::ZCurve] {
            let linear = anns_radius(kind, 5, 1, Norm::Manhattan).unwrap();
            let cyclic = anns_cyclic(kind, 5, 1, Norm::Manhattan).unwrap();
            assert_eq!(linear.num_pairs, cyclic.num_pairs);
            assert!(cyclic.average() <= linear.average() + 1e-12, "{kind}");
            assert!(cyclic.max_stretch <= linear.max_stretch + 1e-12);
        }
    }

    #[test]
    fn closing_the_curve_does_not_fix_the_worst_pair() {
        // A counterintuitive empirical fact this metric surfaces: closing
        // the Hilbert curve (Moore) does NOT reduce the worst-case cyclic
        // stretch. The Moore curve's left and right halves are each one
        // contiguous half of the cycle, so spatially adjacent cells across
        // the vertical midline sit ~N/2 apart even cyclically — while the
        // Hilbert curve's recursive structure caps its worst pair at ~N/3.
        let order = 6;
        let n = 1u64 << (2 * order);
        let hilbert = anns_cyclic(CurveKind::Hilbert, order, 1, Norm::Manhattan).unwrap();
        let moore = anns_cyclic(CurveKind::Moore, order, 1, Norm::Manhattan).unwrap();
        assert!(
            moore.max_stretch > hilbert.max_stretch,
            "moore {} vs hilbert {}",
            moore.max_stretch,
            hilbert.max_stretch
        );
        assert!((moore.max_stretch - (n / 2 - 1) as f64).abs() < 2.0);
        assert!(hilbert.max_stretch < 0.34 * n as f64);
    }

    #[test]
    fn moore_and_hilbert_comparable_on_average() {
        let order = 6;
        let hilbert = anns(CurveKind::Hilbert, order).unwrap().average();
        let moore = anns(CurveKind::Moore, order).unwrap().average();
        let gap = (moore - hilbert).abs() / hilbert;
        assert!(gap < 0.25, "moore {moore} vs hilbert {hilbert}");
    }
}
