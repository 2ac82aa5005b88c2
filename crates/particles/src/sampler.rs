//! Sampling distinct particle cells.
//!
//! The ACD/FMM model assumes at most one particle per finest-resolution cell
//! (Section III of the paper), so a "problem instance" of size `n` is a set
//! of `n` distinct cells drawn from the chosen distribution. [`sample`]
//! draws with rejection of duplicates, found through a [`CellMap`] sized
//! from `n`; the returned order is the draw order
//! (callers sort by an SFC afterwards, which is exactly step 1 of the
//! paper's algorithm).

use crate::cellmap::{pack_cell, CellMap};
use crate::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc_curves::Point2;

/// Fraction of the grid that a sample may occupy before we refuse to
/// rejection-sample (beyond this, collision rates make rejection sampling
/// pathological and the experiment design is questionable anyway).
pub const MAX_FILL: f64 = 0.9;

/// Hard cap on rejected draws, as a multiple of `n`, before giving up. With
/// `MAX_FILL = 0.9` the expected number of draws is well below this for the
/// uniform distribution; concentrated distributions hit the cap only when
/// the requested `n` exceeds the distribution's effective support.
const MAX_ATTEMPT_FACTOR: u64 = 200;

/// Draw `n` distinct cells on a `2^order`-sided grid from `dist`,
/// deterministically for a given `seed`.
///
/// # Panics
///
/// Panics if `n` exceeds 90% of the grid, or if the distribution is too
/// concentrated to yield `n` distinct cells within a generous rejection
/// budget (e.g. a normal with a tiny sigma on a huge sample).
pub fn sample(dist: Distribution, order: u32, n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_with(dist, order, n, &mut rng)
}

/// Like [`sample`] but drawing from a caller-provided RNG, so multiple
/// samples can share one stream.
pub fn sample_with(dist: Distribution, order: u32, n: usize, rng: &mut StdRng) -> Vec<Point2> {
    assert!(
        (1..=31).contains(&order),
        "grid order out of range: {order}"
    );
    let side = 1u64 << order;
    let cells = (side * side) as f64;
    assert!(
        (n as f64) <= cells * MAX_FILL,
        "cannot place {n} distinct particles on a {side}x{side} grid \
         (limit is {:.0})",
        cells * MAX_FILL
    );

    let mut seen = CellMap::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let budget = (n as u64).saturating_mul(MAX_ATTEMPT_FACTOR).max(10_000);
    let mut attempts = 0u64;
    while out.len() < n {
        attempts += 1;
        assert!(
            attempts <= budget,
            "distribution too concentrated: produced only {} of {n} distinct \
             cells after {attempts} draws",
            out.len()
        );
        let (x, y) = dist.draw(rng, side);
        if seen.insert_first(pack_cell(x, y), 0).is_none() {
            out.push(Point2::new(x, y));
        }
    }
    out
}

/// A reusable sampler bundling distribution, grid order and base seed:
/// `trial(t)` yields the deterministic sample for trial number `t`.
/// Experiments average over independent trials (Section VI of the paper:
/// "averages over multiple independent trials for each set of parameters"),
/// and this type pins down how trial seeds are derived.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Distribution to draw from.
    pub dist: Distribution,
    /// Grid order `k` (side `2^k`).
    pub order: u32,
    /// Number of particles per trial.
    pub n: usize,
    /// Base seed; trial `t` uses `base_seed + t`.
    pub base_seed: u64,
}

impl Sampler {
    /// Create a sampler.
    pub fn new(dist: Distribution, order: u32, n: usize, base_seed: u64) -> Self {
        Sampler {
            dist,
            order,
            n,
            base_seed,
        }
    }

    /// The deterministic sample for trial `t`.
    pub fn trial(&self, t: u64) -> Vec<Point2> {
        sample(
            self.dist,
            self.order,
            self.n,
            self.base_seed.wrapping_add(t),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::DistributionKind;

    #[test]
    fn samples_are_distinct_and_sized() {
        for kind in DistributionKind::ALL {
            let pts = sample(kind.default_params(), 6, 500, 11);
            assert_eq!(pts.len(), 500);
            let mut dedup: Vec<_> = pts.iter().map(|p| (p.x, p.y)).collect();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 500, "{kind}: duplicate cells");
            assert!(pts.iter().all(|p| p.x < 64 && p.y < 64));
        }
    }

    #[test]
    fn same_seed_same_sample() {
        let a = sample(Distribution::uniform(), 8, 1000, 99);
        let b = sample(Distribution::uniform(), 8, 1000, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = sample(Distribution::uniform(), 8, 1000, 1);
        let b = sample(Distribution::uniform(), 8, 1000, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn sampler_trials_are_independent_and_reproducible() {
        let s = Sampler::new(Distribution::uniform(), 7, 200, 1234);
        let t0 = s.trial(0);
        let t1 = s.trial(1);
        assert_ne!(t0, t1);
        assert_eq!(t0, s.trial(0));
    }

    #[test]
    fn can_fill_most_of_a_small_grid() {
        // 4x4 grid, 14 of 16 cells (below the 90% limit of 14.4).
        let pts = sample(Distribution::uniform(), 2, 14, 5);
        assert_eq!(pts.len(), 14);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn overfull_request_rejected() {
        let _ = sample(Distribution::uniform(), 2, 16, 5);
    }

    #[test]
    #[should_panic(expected = "too concentrated")]
    fn pathological_concentration_detected() {
        // A normal with sigma ~0.2 cells on a big grid cannot produce 10k
        // distinct cells.
        let _ = sample(Distribution::normal(1e-5), 10, 10_000, 5);
    }
}
