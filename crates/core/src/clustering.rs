//! The clustering metric — the database-style metric the paper contrasts
//! ACD against (Section I and Related Work).
//!
//! For a rectilinear range query, the *cluster number* of an SFC is the
//! number of maximal runs of consecutive linear indices that the query
//! region decomposes into: each run is one contiguous read (one "cluster"
//! accessed). Jagadish (1990) showed the Hilbert curve beats Gray and Z
//! empirically; Moon et al. (2001) derived closed forms for Hilbert; Xu &
//! Tirthapura (PODS 2012) proved all *continuous* curves are asymptotically
//! optimal. This module lets the workspace reproduce those background
//! comparisons alongside the paper's own metrics.
//!
//! The exact expected cluster number of a curve over all `s × s` queries on
//! a `2^k` grid has a classical identity: a query region `R` decomposes into
//! exactly `|{i ∈ R : i+1 ∉ R}|` runs (counting the run that ends at the
//! global maximum), i.e. the number of "exits" of the curve from `R`.

use rayon::prelude::*;
use sfc_curves::{Curve2d, CurveKind, CurveTable, Point2};

/// Number of clusters (maximal consecutive index runs) the query rectangle
/// `[x0, x0+w) × [y0, y0+h)` decomposes into under `curve` at `order`.
pub fn clusters_in_query(curve: &CurveTable, x0: u32, y0: u32, w: u32, h: u32) -> u64 {
    assert!(w >= 1 && h >= 1);
    let side = Curve2d::side(curve) as u32;
    assert!(x0 + w <= side && y0 + h <= side, "query outside grid");
    // Collect the linear indices of the region and count runs.
    let mut indices: Vec<u64> = Vec::with_capacity((w as usize) * (h as usize));
    for y in y0..y0 + h {
        for x in x0..x0 + w {
            indices.push(curve.index(Point2::new(x, y)));
        }
    }
    indices.sort_unstable();
    let mut clusters = 1u64;
    for pair in indices.windows(2) {
        if pair[1] != pair[0] + 1 {
            clusters += 1;
        }
    }
    clusters
}

/// Mean cluster number of `curve` over **all** axis-aligned `q × q` queries
/// on a `2^order` grid (exhaustive, exact — Moon et al.'s experimental
/// design).
pub fn average_clusters(kind: CurveKind, order: u32, q: u32) -> f64 {
    assert!(q >= 1);
    let table = CurveTable::new(kind, order);
    let side = 1u32 << order;
    assert!(q <= side, "query larger than grid");
    let positions = (side - q + 1) as u64;
    let total: u64 = (0..positions)
        .into_par_iter()
        .map(|y0| {
            let mut sum = 0u64;
            for x0 in 0..positions {
                sum += clusters_in_query(&table, x0 as u32, y0 as u32, q, q);
            }
            sum
        })
        .sum();
    total as f64 / (positions * positions) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_queries_are_one_cluster() {
        for kind in CurveKind::PAPER {
            assert!((average_clusters(kind, 3, 1) - 1.0).abs() < 1e-12, "{kind}");
        }
    }

    #[test]
    fn full_grid_query_is_one_cluster() {
        for kind in CurveKind::PAPER {
            let table = CurveTable::new(kind, 3);
            assert_eq!(clusters_in_query(&table, 0, 0, 8, 8), 1, "{kind}");
        }
    }

    #[test]
    fn row_major_full_width_queries() {
        // A full-width row-major query of height h is exactly 1 cluster;
        // a width-w query (w < side) at height h is h clusters.
        let table = CurveTable::new(CurveKind::RowMajor, 4);
        assert_eq!(clusters_in_query(&table, 0, 3, 16, 5), 1);
        assert_eq!(clusters_in_query(&table, 2, 3, 7, 5), 5);
    }

    #[test]
    fn hilbert_beats_z_and_gray_on_clustering() {
        // Jagadish's classic empirical result — the opposite ranking to the
        // ANNS metric, which is exactly the tension the paper highlights.
        for (order, q) in [(5u32, 4u32), (6, 8)] {
            let hilbert = average_clusters(CurveKind::Hilbert, order, q);
            let z = average_clusters(CurveKind::ZCurve, order, q);
            let gray = average_clusters(CurveKind::Gray, order, q);
            assert!(
                hilbert < z && hilbert < gray,
                "order {order} q {q}: hilbert={hilbert:.3} z={z:.3} gray={gray:.3}"
            );
        }
    }

    #[test]
    fn hilbert_matches_moon_et_al_asymptotics() {
        // Moon et al.: expected Hilbert clusters for a q×q query tends to
        // ~ q²/3 ... more precisely the boundary/4 ≈ q for large grids
        // (the number of entries ≈ perimeter/4 = q). Check the q×q Hilbert
        // average is close to q for a grid much larger than q.
        let q = 4u32;
        let clusters = average_clusters(CurveKind::Hilbert, 7, q);
        assert!(
            (clusters - q as f64).abs() < 0.75,
            "Hilbert q={q}: {clusters:.3} not near {q}"
        );
    }

    #[test]
    fn snake_scan_is_continuous_hence_competitive() {
        // Xu & Tirthapura: all continuous curves are asymptotically optimal
        // for clustering. The boustrophedon ("snake scan") should not be
        // dramatically worse than Hilbert, unlike the discontinuous Z.
        let q = 4u32;
        let hilbert = average_clusters(CurveKind::Hilbert, 6, q);
        let snake = average_clusters(CurveKind::Boustrophedon, 6, q);
        let z = average_clusters(CurveKind::ZCurve, 6, q);
        assert!(snake < z, "snake {snake:.3} should beat Z {z:.3}");
        assert!(
            snake < 1.5 * hilbert,
            "snake {snake:.3} vs hilbert {hilbert:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "query outside grid")]
    fn out_of_grid_query_rejected() {
        let table = CurveTable::new(CurveKind::Hilbert, 3);
        let _ = clusters_in_query(&table, 6, 6, 4, 4);
    }
}
