//! Workload descriptions: a named, reproducible problem instance.
//!
//! A [`Workload`] bundles everything that defines one experimental input —
//! grid order, particle count, distribution, seed — so experiment configs,
//! serialized results, and regeneration binaries all reference the same
//! description. The paper's three experiment families (Tables I/II, Figure
//! 6, Figure 7) are provided as constructors.

use crate::distributions::{Distribution, DistributionKind};
use crate::sampler::{Sampler, MAX_FILL};
use sfc_curves::Point2;

/// Ways a [`Workload`] description can be unsatisfiable. Construction stays
/// infallible (the plain-old-data struct is convenient to write down);
/// [`Workload::validate`] reports these before any sampling begins, so sweep
/// harnesses can record a structured error instead of panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// The grid order is outside the supported `1..=31` range.
    GridOrderOutOfRange {
        /// The offending order.
        order: u32,
    },
    /// Zero particles were requested; there is nothing to measure.
    NoParticles,
    /// More particles were requested than distinct grid cells can hold
    /// (the sampler refuses beyond 90% fill; see [`crate::sampler`]).
    TooManyParticles {
        /// Requested particle count.
        n: usize,
        /// Largest admissible count for the grid.
        limit: u64,
        /// Grid side `2^order`.
        side: u64,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WorkloadError::GridOrderOutOfRange { order } => {
                write!(f, "grid order out of range: {order} (supported: 1..=31)")
            }
            WorkloadError::NoParticles => write!(f, "a workload needs at least one particle"),
            WorkloadError::TooManyParticles { n, limit, side } => write!(
                f,
                "cannot place {n} distinct particles on a {side}x{side} grid \
                 (limit is {limit})"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A reproducible problem instance description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Grid order `k`: the spatial resolution is `2^k × 2^k`.
    pub grid_order: u32,
    /// Number of particles.
    pub n: usize,
    /// Input distribution.
    pub dist: Distribution,
    /// Base RNG seed (trial `t` adds `t`).
    pub seed: u64,
}

impl Workload {
    /// Construct an arbitrary workload.
    pub fn new(grid_order: u32, n: usize, dist: Distribution, seed: u64) -> Self {
        Workload {
            grid_order,
            n,
            dist,
            seed,
        }
    }

    /// The workload of the paper's Tables I and II: 250,000 particles on a
    /// 1024 × 1024 resolution (grid order 10).
    pub fn tables_1_2(kind: DistributionKind, seed: u64) -> Self {
        Workload::new(10, 250_000, kind.default_params(), seed)
    }

    /// The workload of the paper's Figure 6: 1,000,000 uniformly distributed
    /// particles on a 4096 × 4096 resolution (grid order 12).
    pub fn figure6(seed: u64) -> Self {
        Workload::new(12, 1_000_000, Distribution::uniform(), seed)
    }

    /// The workload of the paper's Figure 7: 1,000,000 uniformly distributed
    /// particles (processor count varies per data point, not per workload).
    pub fn figure7(seed: u64) -> Self {
        Workload::figure6(seed)
    }

    /// Scale the workload down by a power of two in both particle count and
    /// grid area, preserving density. `scale = 0` is the paper-size
    /// workload; each increment halves the grid side and quarters `n`.
    /// Used by the regeneration binaries' `--scale` flag for smoke runs.
    pub fn scaled_down(&self, scale: u32) -> Self {
        assert!(
            scale < self.grid_order,
            "scale {scale} would collapse a grid of order {}",
            self.grid_order
        );
        Workload {
            grid_order: self.grid_order - scale,
            n: (self.n >> (2 * scale)).max(1),
            dist: self.dist,
            seed: self.seed,
        }
    }

    /// Check that this workload can actually be sampled: the grid order is
    /// in range and the particle count is between one and
    /// [`Workload::capacity`].
    /// The sampler enforces the same constraints by panicking; validating up
    /// front lets harnesses reject a configuration before work starts.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !(1..=31).contains(&self.grid_order) {
            return Err(WorkloadError::GridOrderOutOfRange {
                order: self.grid_order,
            });
        }
        if self.n == 0 {
            return Err(WorkloadError::NoParticles);
        }
        let limit = self.capacity();
        if self.n as u64 > limit {
            return Err(WorkloadError::TooManyParticles {
                n: self.n,
                limit,
                side: self.side(),
            });
        }
        Ok(())
    }

    /// The most distinct particles the sampler places on this grid:
    /// `floor(4^grid_order · MAX_FILL)`.
    pub fn capacity(&self) -> u64 {
        let side = self.side();
        ((side * side) as f64 * MAX_FILL) as u64
    }

    /// Side of the grid, `2^grid_order`.
    pub fn side(&self) -> u64 {
        1u64 << self.grid_order
    }

    /// The sampler for this workload.
    pub fn sampler(&self) -> Sampler {
        Sampler::new(self.dist, self.grid_order, self.n, self.seed)
    }

    /// Generate the particle set for trial `t`.
    pub fn particles(&self, trial: u64) -> Vec<Point2> {
        self.sampler().trial(trial)
    }

    /// Particle density: fraction of grid cells occupied.
    pub fn density(&self) -> f64 {
        self.n as f64 / (self.side() * self.side()) as f64
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} n={} on {}x{} (seed {})",
            self.dist.kind,
            self.n,
            self.side(),
            self.side(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_match_stated_parameters() {
        let t = Workload::tables_1_2(DistributionKind::Uniform, 0);
        assert_eq!(t.side(), 1024);
        assert_eq!(t.n, 250_000);

        let f6 = Workload::figure6(0);
        assert_eq!(f6.side(), 4096);
        assert_eq!(f6.n, 1_000_000);
        assert_eq!(f6.dist.kind, DistributionKind::Uniform);
    }

    #[test]
    fn scaling_preserves_density() {
        let w = Workload::figure6(0);
        let s = w.scaled_down(3);
        assert_eq!(s.side(), 512);
        assert!((s.density() - w.density()).abs() < 1e-9);
    }

    #[test]
    fn validate_bounds_the_particle_count() {
        let w = Workload::new(3, 57, Distribution::uniform(), 0);
        assert_eq!(w.capacity(), 57); // floor(64 * 0.9)
        assert_eq!(w.validate(), Ok(()));
        let over = Workload { n: 58, ..w };
        assert_eq!(
            over.validate(),
            Err(WorkloadError::TooManyParticles {
                n: 58,
                limit: 57,
                side: 8
            })
        );
        let empty = Workload { n: 0, ..w };
        assert_eq!(empty.validate(), Err(WorkloadError::NoParticles));
    }

    #[test]
    fn particles_are_reproducible() {
        let w = Workload::tables_1_2(DistributionKind::Exponential, 42).scaled_down(4);
        assert_eq!(w.particles(3), w.particles(3));
        assert_ne!(w.particles(3), w.particles(4));
        assert_eq!(w.particles(0).len(), w.n);
    }

    #[test]
    #[should_panic(expected = "would collapse")]
    fn excessive_scaling_rejected() {
        let _ = Workload::figure6(0).scaled_down(12);
    }

    #[test]
    fn display_is_informative() {
        let w = Workload::tables_1_2(DistributionKind::Normal, 7);
        let s = format!("{w}");
        assert!(s.contains("Normal") && s.contains("250000") && s.contains("1024"));
    }
}
