//! Typed errors for experiment configuration and sweep execution.
//!
//! Everything a *user* can get wrong — experiment parameters, journal
//! files, cells that keep failing, kernel entry-point preconditions like an
//! undersized machine or a zero near-field radius — surfaces as an
//! [`SfcError`] so the sweep harness can record it and carry on instead of
//! aborting a multi-hour regeneration run. The metric kernels expose
//! `try_*` entry points returning these errors; their panicking wrappers
//! remain for infallible call sites. Only genuinely-impossible states (an
//! out-of-range index *inside* a validated hot loop) stay panic-based.

use sfc_particles::WorkloadError;
use sfc_topology::TopologyKind;

/// Errors raised by experiment validation and the fault-tolerant sweep
/// runner.
#[derive(Debug, Clone, PartialEq)]
pub enum SfcError {
    /// The processor count is not a power of four (every topology in a
    /// sweep must be constructible: square grids and quadtrees need a
    /// power of four).
    NonPowerOfFourProcessors {
        /// The offending count.
        num_processors: u64,
    },
    /// The near-field radius is at least the grid side, so every cell's
    /// neighborhood would wrap the whole domain.
    RadiusExceedsGrid {
        /// Requested neighborhood radius.
        radius: u32,
        /// Grid side `2^order`.
        side: u64,
    },
    /// The experiment asks for zero trials, which can only produce empty
    /// sample sets.
    NoTrials,
    /// The workload description is unsatisfiable (grid order out of range,
    /// particle count exceeding the grid's capacity).
    Workload(WorkloadError),
    /// A 3-D network where only the 2-D model's topologies fit: in a sweep
    /// spec or for link-load routing.
    Topology3d {
        /// The 3-D topology.
        topology: TopologyKind,
    },
    /// A statistics summary was requested over an empty sample set — after
    /// a partial sweep, a configuration may have no completed trials.
    EmptySamples,
    /// A 2D mesh/torus route was requested on a node count that is not a
    /// perfect square, so no `side × side` grid exists to route on.
    NonSquareMesh {
        /// The offending node count.
        nodes: u64,
    },
    /// A sweep cell returned a typed error, or kept panicking after the
    /// bounded retries.
    CellFailed {
        /// Cell name.
        cell: String,
        /// The cell's typed error, or the captured panic message of its
        /// final attempt.
        error: String,
        /// How many attempts were made.
        attempts: u32,
    },
    /// A journal file exists but does not belong to this sweep
    /// configuration (different sweep name or fingerprint).
    JournalMismatch {
        /// Journal path.
        path: String,
        /// What differed.
        reason: String,
    },
    /// A journal file could not be read or written.
    JournalIo {
        /// Journal path.
        path: String,
        /// The underlying I/O error, stringified.
        reason: String,
    },
    /// An assignment addresses more ranks than the machine has processors,
    /// so some particles would map to nonexistent nodes.
    MachineTooSmall {
        /// Processors in the machine.
        machine_ranks: u64,
        /// Ranks the assignment partitions particles into.
        assignment_ranks: u64,
    },
    /// A near-field/stretch radius of zero was requested; every neighborhood
    /// would be empty and the metric undefined.
    ZeroRadius,
    /// A grid order larger than an entry point's documented ceiling was
    /// requested (full-grid stretch sweeps and all-pairs stretch are
    /// super-linear in the cell count).
    OrderTooLarge {
        /// Requested grid order.
        order: u32,
        /// The entry point's maximum supported order.
        max_order: u32,
    },
    /// The topology's diameter does not fit the distance oracle's `u16`
    /// cells, so a cached distance would saturate.
    OracleDistanceOverflow {
        /// The topology diameter that overflowed.
        diameter: u64,
    },
    /// An axis the artifact's driver reads its first entry from is empty.
    EmptyAxis {
        /// The artifact the spec regenerates.
        artifact: &'static str,
        /// The empty axis.
        axis: &'static str,
    },
    /// A curve list the artifact's renderer cannot label: its columns are
    /// a fixed curve order, and a processor order tied to the particle
    /// order has no column at all.
    UnlabelledCurves {
        /// The artifact the spec regenerates.
        artifact: &'static str,
        /// The offending curve axis.
        axis: &'static str,
        /// What the renderer can label on that axis.
        expected: &'static str,
    },
    /// An axis the artifact's driver does not sweep holds something other
    /// than the one value the driver measures. Computing it anyway would
    /// store that value's data under another spec's cache key.
    UnsweptAxis {
        /// The artifact the spec regenerates.
        artifact: &'static str,
        /// The offending axis.
        axis: &'static str,
        /// The one value the driver measures on that axis.
        expected: &'static str,
    },
    /// A whole-artifact computation panicked (outside the per-cell retry
    /// machinery — e.g. in a daemon's `compute_artifact` leader). The panic
    /// was contained with `catch_unwind`; the computation produced nothing
    /// and must be reported as a typed failure, never a hang.
    ComputePanicked {
        /// The captured panic message.
        message: String,
    },
}

impl std::fmt::Display for SfcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SfcError::NonPowerOfFourProcessors { num_processors } => write!(
                f,
                "processor count must be a power of four, got {num_processors}"
            ),
            SfcError::RadiusExceedsGrid { radius, side } => write!(
                f,
                "near-field radius {radius} does not fit a {side}x{side} grid"
            ),
            SfcError::NoTrials => write!(f, "experiment requires at least one trial"),
            SfcError::Workload(e) => write!(f, "{e}"),
            SfcError::Topology3d { topology } => {
                write!(f, "{topology} is a 3-D network, not a sweep or routing one")
            }
            SfcError::EmptySamples => write!(f, "no samples to summarize"),
            SfcError::NonSquareMesh { nodes } => write!(
                f,
                "mesh/torus routing requires a square node count, got {nodes}"
            ),
            SfcError::CellFailed {
                cell,
                error,
                attempts,
            } => write!(f, "cell `{cell}` failed after {attempts} attempts: {error}"),
            SfcError::JournalMismatch { path, reason } => {
                write!(f, "journal {path} belongs to a different sweep: {reason}")
            }
            SfcError::JournalIo { path, reason } => {
                write!(f, "journal {path}: {reason}")
            }
            SfcError::MachineTooSmall {
                machine_ranks,
                assignment_ranks,
            } => write!(
                f,
                "machine has {machine_ranks} ranks but the assignment \
                 addresses {assignment_ranks}"
            ),
            SfcError::ZeroRadius => {
                write!(f, "neighborhood radius must be at least 1")
            }
            SfcError::OrderTooLarge { order, max_order } => write!(
                f,
                "grid order {order} exceeds this entry point's maximum of {max_order}"
            ),
            SfcError::OracleDistanceOverflow { diameter } => write!(
                f,
                "topology diameter {diameter} exceeds the distance oracle's \
                 u16 range"
            ),
            SfcError::EmptyAxis { artifact, axis } => {
                write!(f, "{artifact} needs at least one entry in `{axis}`")
            }
            SfcError::UnlabelledCurves {
                artifact,
                axis,
                expected,
            } => write!(f, "{artifact} cannot label `{axis}`: it must be {expected}"),
            SfcError::UnsweptAxis {
                artifact,
                axis,
                expected,
            } => write!(
                f,
                "{artifact} does not sweep `{axis}`: it must be {expected}"
            ),
            SfcError::ComputePanicked { message } => {
                write!(f, "artifact computation panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SfcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SfcError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WorkloadError> for SfcError {
    fn from(e: WorkloadError) -> Self {
        SfcError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_problem() {
        let e = SfcError::NonPowerOfFourProcessors { num_processors: 48 };
        assert!(e.to_string().contains("power of four"));
        assert!(e.to_string().contains("48"));

        let e = SfcError::RadiusExceedsGrid {
            radius: 70,
            side: 64,
        };
        assert!(e.to_string().contains("radius 70"));

        assert!(SfcError::EmptySamples.to_string().contains("no samples"));

        let e = SfcError::Topology3d {
            topology: TopologyKind::Torus3d,
        };
        assert!(e.to_string().contains("Torus3D is a 3-D network"));

        let e = SfcError::NonSquareMesh { nodes: 32 };
        assert!(e.to_string().contains("square") && e.to_string().contains("32"));

        let e = SfcError::CellFailed {
            cell: "uniform/t0/Hilbert".into(),
            error: "boom".into(),
            attempts: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("uniform/t0/Hilbert") && msg.contains("boom"));

        let e = SfcError::MachineTooSmall {
            machine_ranks: 16,
            assignment_ranks: 64,
        };
        let msg = e.to_string();
        assert!(msg.contains("16") && msg.contains("64"));

        assert!(SfcError::ZeroRadius.to_string().contains("at least 1"));

        let e = SfcError::OrderTooLarge {
            order: 20,
            max_order: 14,
        };
        let msg = e.to_string();
        assert!(msg.contains("20") && msg.contains("14"));

        let e = SfcError::OracleDistanceOverflow { diameter: 70_000 };
        assert!(e.to_string().contains("70000"));

        let e = SfcError::EmptyAxis {
            artifact: "figure7",
            axis: "radii",
        };
        assert!(e.to_string().contains("figure7") && e.to_string().contains("`radii`"));

        let e = SfcError::UnlabelledCurves {
            artifact: "table1",
            axis: "particle_curves",
            expected: "[Hilbert, Z, Gray, RowMajor]",
        };
        let msg = e.to_string();
        assert!(msg.contains("table1") && msg.contains("`particle_curves`"));

        let e = SfcError::ComputePanicked {
            message: "index out of bounds".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("panicked") && msg.contains("index out of bounds"));
    }

    #[test]
    fn workload_errors_convert() {
        let w = WorkloadError::GridOrderOutOfRange { order: 99 };
        let e: SfcError = w.into();
        assert!(e.to_string().contains("grid order out of range"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
