//! # sfc-core
//!
//! The metric engine of the workspace: an implementation of the **Average
//! Communicated Distance (ACD)** metric and the FMM communication model of
//! *DeFord & Kalyanaraman, "Empirical Analysis of Space-Filling Curves for
//! Scientific Computing Applications" (ICPP 2013)*, together with Xu &
//! Tirthapura's **Average Nearest Neighbor Stretch (ANNS)** and the paper's
//! radius-`r` generalization of it.
//!
//! ## The model (paper Sections III–IV)
//!
//! Given `n` particles on a `2^k × 2^k` grid and `p` processors on a
//! network:
//!
//! 1. order the particles by the *particle-order* SFC ([`Assignment`]);
//! 2. split them into `p` consecutive chunks of `⌈n/p⌉` and give chunk `i`
//!    to rank `i`;
//! 3. place ranks onto the physical network with the *processor-order* SFC
//!    ([`Machine`]; grid topologies only);
//! 4. replay the communication pattern of one FMM time step and record the
//!    hop distance of every pairwise communication:
//!    - near-field interactions ([`nfi::nfi_acd`]): every particle exchanges
//!      with all particles within radius `r`;
//!    - far-field interactions ([`ffi::ffi_acd`]): interpolation and
//!      anterpolation up/down the spatial quadtree plus the interaction-list
//!      exchanges at every level.
//!
//! The ACD is the mean hop distance over all communications. Everything is
//! deterministic given the workload seed, and the heavy loops are
//! parallelized with rayon (sums are order-independent, so parallel runs are
//! bit-identical to sequential ones).
//!
//! ## Quick example
//!
//! ```
//! use sfc_core::{Assignment, Machine, nfi::nfi_acd};
//! use sfc_curves::{CurveKind, point::Norm};
//! use sfc_particles::{Distribution, sample};
//! use sfc_topology::TopologyKind;
//!
//! let particles = sample(Distribution::uniform(), 6, 500, 7);
//! let asg = Assignment::new(&particles, 6, CurveKind::Hilbert, 64);
//! let machine = Machine::new(TopologyKind::Torus, 64, CurveKind::Hilbert);
//! let result = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
//! assert!(result.acd() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anns;
pub mod anns3d;
pub mod assignment;
pub mod cache;
pub mod clustering;
pub mod error;
pub mod ffi;
pub mod journal;
pub mod load;
pub mod machine;
pub mod model3d;
pub mod nfi;
pub mod obs;
pub mod oracle;
pub mod report;
pub mod runner;
mod scan;
pub mod sha256;
pub mod spec;
pub mod stats;
pub mod timing;

pub use anns::{anns_radius, StretchResult};
pub use assignment::Assignment;
pub use cache::{CacheCounters, CachedArtifact, MemTierStats, ResultCache, TierHit, KERNEL_VERSION};
pub use error::SfcError;
pub use machine::Machine;
pub use obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceSink};
pub use oracle::DistanceOracle;
pub use runner::{BatchCell, CellResult, ChaosInjector, RunnerOptions, SweepRunner, SweepSummary};
pub use spec::{ArtifactKind, ExperimentSpec};
pub use stats::Stats;
pub use timing::{CellTiming, LatencyHistogram};
