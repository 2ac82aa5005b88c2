//! # sfc-particles
//!
//! Input generation for the SFC experiments: random particle placements on a
//! `2^k × 2^k` grid drawn from the three probability distributions the paper
//! studies (Section II-C) — **uniform**, **bivariate normal** (centrally
//! clustered), and **exponential** (skewed into one quadrant).
//!
//! Following the paper's FMM model (Section III), a cell at the finest
//! resolution holds at most one particle, so a sample of size `n` is a set
//! of `n` *distinct* grid cells. Samplers are deterministic given a seed.
//!
//! The crate also provides the occupancy structures the metric kernels
//! read: [`GridIndex`], the rank table of one grid level (dense up to
//! [`MAX_GRID_CELLS`] cells, sparse above), and [`CellMap`], the
//! open-addressing hash table keyed by packed cell coordinates behind the
//! sparse form and the samplers' duplicate check. A `CellMap` probe is one
//! multiply and usually one cache line, with no hasher state.
//!
//! ```
//! use sfc_particles::{Distribution, sample};
//!
//! let pts = sample(Distribution::uniform(), 8, 1000, 42);
//! assert_eq!(pts.len(), 1000);
//! // Distinct cells:
//! let mut dedup = pts.clone();
//! dedup.sort();
//! dedup.dedup();
//! assert_eq!(dedup.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellmap;
pub mod distributions;
pub mod grid_index;
pub mod sampler;
pub mod sampler3d;
pub mod workload;

pub use cellmap::CellMap;
pub use distributions::{Distribution, DistributionKind};
pub use grid_index::{GridIndex, MAX_GRID_CELLS};
pub use sampler::{sample, sample_with, Sampler};
pub use workload::{Workload, WorkloadError};
