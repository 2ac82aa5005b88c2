//! # sfc-fmm
//!
//! A reference two-dimensional Fast Multipole Method for the logarithmic
//! potential — the algorithm whose communication structure the ACD model of
//! *DeFord & Kalyanaraman (ICPP 2013)* abstracts (Greengard & Rokhlin 1987;
//! the paper's Section I points to Beatson & Greengard's short course for
//! the details implemented here).
//!
//! Given `n` charges `q_i` at positions `z_i ∈ ℂ`, the solver evaluates
//!
//! ```text
//! φ(z_t) = Σ_{i ≠ t} q_i · ln|z_t − z_i|
//! ```
//!
//! at every charge location in `O(n · p²)` work for `p` expansion terms,
//! against the `O(n²)` [`direct`] baseline. The implementation follows the
//! textbook pipeline: P2M at the leaves, M2M up the quadtree, M2L across
//! each cell's interaction list (the same lists the ACD far-field model
//! walks — see [`sfc_quadtree::interaction`]), L2L down, and L2P plus direct
//! P2P in the Chebyshev-1 near field. The tree enumerates the cell pairs
//! of each translation ([`tree::FmmTree::interaction_partners`],
//! [`tree::FmmTree::near_leaves`], [`tree::Level::parent`]), and the
//! workspace's cross-validation tests check that, mapped to owning ranks,
//! they are exactly the messages the ACD model counts.
//!
//! ```
//! use sfc_fmm::{Fmm, Source, direct};
//!
//! let sources: Vec<Source> = (0..200)
//!     .map(|i| {
//!         let t = i as f64 / 200.0;
//!         Source::new(0.5 + 0.4 * (6.28 * t).cos(), 0.5 + 0.4 * (6.28 * t).sin(), 1.0)
//!     })
//!     .collect();
//! let fast = Fmm::new(12).potentials(&sources);
//! let exact = direct::potentials(&sources);
//! for (f, e) in fast.iter().zip(&exact) {
//!     assert!((f - e).abs() < 1e-6 * exact.iter().map(|v| v.abs()).fold(0.0, f64::max));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod complex;
pub mod direct;
pub mod operators;
pub mod solver;
pub mod tree;

pub use complex::Complex;
pub use solver::Fmm;

/// A point charge in the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Source {
    /// Position (both coordinates in `[0, 1)`).
    pub pos: Complex,
    /// Charge (mass) of the particle.
    pub charge: f64,
}

impl Source {
    /// Create a source at `(x, y)` with the given charge.
    pub fn new(x: f64, y: f64, charge: f64) -> Self {
        Source {
            pos: Complex::new(x, y),
            charge,
        }
    }
}
