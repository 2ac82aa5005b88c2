//! 3-D nearest-neighbor stretch — the paper's future-work item (ii)
//! ("validation ... using 3D").
//!
//! The generalized stretch of [`crate::anns`] carried to three dimensions:
//! for every pair of cells of a `2^k` cube within Manhattan radius `r`, the
//! stretch is the distance between their images in the curve's linear
//! ordering divided by their spatial distance.

use crate::anns::StretchResult;
use rayon::prelude::*;
use sfc_curves::curve3d::{Curve3dKind, Point3};

/// The classic ANNS in 3-D: radius-1 Manhattan neighbors.
pub fn anns3d(kind: Curve3dKind, order: u32) -> StretchResult {
    anns3d_radius(kind, order, 1)
}

/// Generalized 3-D stretch over all pairs within Manhattan `radius`.
pub fn anns3d_radius(kind: Curve3dKind, order: u32, radius: u32) -> StretchResult {
    assert!(radius >= 1);
    assert!(order <= 8, "3-D full-grid sweeps limited to order <= 8");
    let curve = kind.curve(order);
    let side = curve.side() as i64;
    let r = radius as i64;

    // Forward offsets only — lexicographically positive (dz, dy, dx) — so
    // each unordered pair is visited exactly once.
    let mut offsets: Vec<(i64, i64, i64, u64)> = Vec::new();
    for dz in 0..=r {
        for dy in -r..=r {
            for dx in -r..=r {
                let forward = dz > 0 || (dz == 0 && dy > 0) || (dz == 0 && dy == 0 && dx > 0);
                if !forward {
                    continue;
                }
                let dist = dx.abs() + dy.abs() + dz.abs();
                if dist <= r {
                    offsets.push((dx, dy, dz, dist as u64));
                }
            }
        }
    }

    (0..side)
        .into_par_iter()
        .map(|z| {
            let mut total = 0.0f64;
            let mut pairs = 0u64;
            let mut max = 0.0f64;
            for y in 0..side {
                for x in 0..side {
                    let here = curve.index(Point3::new(x as u32, y as u32, z as u32));
                    for &(dx, dy, dz, dist) in &offsets {
                        let (nx, ny, nz) = (x + dx, y + dy, z + dz);
                        if nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side {
                            continue;
                        }
                        let there = curve.index(Point3::new(nx as u32, ny as u32, nz as u32));
                        let stretch = here.abs_diff(there) as f64 / dist as f64;
                        total += stretch;
                        pairs += 1;
                        if stretch > max {
                            max = stretch;
                        }
                    }
                }
            }
            (total, pairs, max)
        })
        .reduce(
            || (0.0, 0, 0.0),
            |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)),
        )
        .into()
}

impl From<(f64, u64, f64)> for StretchResult {
    fn from((total_stretch, num_pairs, max_stretch): (f64, u64, f64)) -> Self {
        StretchResult {
            total_stretch,
            num_pairs,
            max_stretch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_counts_match_cube_combinatorics() {
        // On an s³ cube there are 3·s²·(s−1) Manhattan-1 pairs.
        let order = 3u32;
        let s = 1u64 << order;
        let res = anns3d(Curve3dKind::Hilbert, order);
        assert_eq!(res.num_pairs, 3 * s * s * (s - 1));
    }

    #[test]
    fn row_major_3d_closed_form() {
        // Pairs along x stretch 1, along y stretch s, along z stretch s².
        let order = 3u32;
        let s = (1u64 << order) as f64;
        let res = anns3d(Curve3dKind::RowMajor, order);
        let expected = (1.0 + s + s * s) / 3.0;
        assert!(
            (res.average() - expected).abs() < 1e-9,
            "{} vs {expected}",
            res.average()
        );
    }

    #[test]
    fn paper_inversion_persists_in_3d() {
        // The 2-D finding (Z and row-major beat Hilbert and Gray on ANNS)
        // carries to 3-D — the validation the paper's future work asks for.
        let order = 4u32;
        let h = anns3d(Curve3dKind::Hilbert, order).average();
        let z = anns3d(Curve3dKind::ZCurve, order).average();
        let g = anns3d(Curve3dKind::Gray, order).average();
        let r = anns3d(Curve3dKind::RowMajor, order).average();
        assert!(z < h && z < g, "z={z:.2} h={h:.2} g={g:.2}");
        assert!(r < h && r < g, "r={r:.2}");
    }

    #[test]
    fn radius_generalization_keeps_ordering() {
        let order = 3u32;
        let h = anns3d_radius(Curve3dKind::Hilbert, order, 3).average();
        let z = anns3d_radius(Curve3dKind::ZCurve, order, 3).average();
        assert!(z < h);
    }

    #[test]
    fn max_at_least_average() {
        let res = anns3d(Curve3dKind::Gray, 3);
        assert!(res.max_stretch >= res.average());
        assert!(res.average() > 0.0);
    }
}
