//! 3-D input sampling — the counterpart of [`crate::sampler`] for the 3-D
//! model extension (paper Section VIII, item ii).
//!
//! The same three distribution families over a `2^k`-sided cube: uniform,
//! centered trivariate normal (symmetric axes), and exponential skewed into
//! one octant. At most one particle per finest-resolution cell.

use crate::cellmap::CellMap;
use crate::distributions::{Distribution, DistributionKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_curves::curve3d::Point3;

/// Draw `n` distinct cells of a `2^order`-sided cube from `dist`,
/// deterministically for a given `seed`. The distribution's shape parameter
/// has the same meaning as in 2-D (fraction of the cube side).
pub fn sample3d(dist: Distribution, order: u32, n: usize, seed: u64) -> Vec<Point3> {
    assert!(
        (1..=20).contains(&order),
        "cube order out of range: {order}"
    );
    let side = 1u64 << order;
    let cells = (side * side * side) as f64;
    assert!(
        (n as f64) <= cells * 0.9,
        "cannot place {n} distinct particles in a {side}^3 cube"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = CellMap::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let budget = (n as u64).saturating_mul(200).max(10_000);
    let mut attempts = 0u64;
    while out.len() < n {
        attempts += 1;
        assert!(
            attempts <= budget,
            "distribution too concentrated for {n} distinct cells"
        );
        let p = draw3(&dist, &mut rng, side);
        // Coordinates are below 2^20, so the packed key stays below 2^60
        // and never hits the map's reserved `u64::MAX`.
        let key = (p.z as u64) << 40 | (p.y as u64) << 20 | p.x as u64;
        if seen.insert_first(key, 0).is_none() {
            out.push(p);
        }
    }
    out
}

/// One candidate cell, guaranteed in-cube.
fn draw3(dist: &Distribution, rng: &mut StdRng, side: u64) -> Point3 {
    match dist.kind {
        DistributionKind::Uniform => Point3::new(
            rng.gen_range(0..side) as u32,
            rng.gen_range(0..side) as u32,
            rng.gen_range(0..side) as u32,
        ),
        DistributionKind::Normal => {
            let center = side as f64 / 2.0;
            let sigma = dist.shape * side as f64;
            loop {
                let (gx, gy) = gaussian_pair(rng);
                let (gz, _) = gaussian_pair(rng);
                let x = center + sigma * gx;
                let y = center + sigma * gy;
                let z = center + sigma * gz;
                if [x, y, z].iter().all(|v| *v >= 0.0 && *v < side as f64) {
                    return Point3::new(x as u32, y as u32, z as u32);
                }
            }
        }
        DistributionKind::Exponential => {
            let scale = dist.shape * side as f64;
            loop {
                let x = exp_draw(rng, scale);
                let y = exp_draw(rng, scale);
                let z = exp_draw(rng, scale);
                if [x, y, z].iter().all(|v| *v < side as f64) {
                    return Point3::new(x as u32, y as u32, z as u32);
                }
            }
        }
    }
}

fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

fn exp_draw(rng: &mut StdRng, scale: f64) -> f64 {
    -scale * (1.0 - rng.gen::<f64>()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_distinct_and_in_cube() {
        for kind in DistributionKind::ALL {
            let pts = sample3d(kind.default_params(), 5, 800, 3);
            assert_eq!(pts.len(), 800, "{kind}");
            let mut dedup: Vec<_> = pts.iter().map(|p| (p.x, p.y, p.z)).collect();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 800, "{kind}");
            assert!(pts.iter().all(|p| p.x < 32 && p.y < 32 && p.z < 32));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sample3d(Distribution::uniform(), 6, 500, 9);
        let b = sample3d(Distribution::uniform(), 6, 500, 9);
        assert_eq!(a, b);
        let c = sample3d(Distribution::uniform(), 6, 500, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn exponential_skews_to_low_octant() {
        let pts = sample3d(DistributionKind::Exponential.default_params(), 6, 2000, 4);
        let low = pts
            .iter()
            .filter(|p| p.x < 32 && p.y < 32 && p.z < 32)
            .count();
        assert!(low as f64 > 0.85 * pts.len() as f64, "{low}");
    }

    #[test]
    fn normal_centers_in_cube() {
        let pts = sample3d(DistributionKind::Normal.default_params(), 6, 2000, 5);
        let mean_x: f64 = pts.iter().map(|p| p.x as f64).sum::<f64>() / pts.len() as f64;
        assert!((mean_x - 32.0).abs() < 2.0, "mean x {mean_x}");
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn overfull_cube_rejected() {
        let _ = sample3d(Distribution::uniform(), 1, 8, 0);
    }
}
