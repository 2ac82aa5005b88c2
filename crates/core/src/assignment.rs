//! Particle ordering and distribution — steps 1–2 and 4 of the paper's
//! algorithm (Section IV).
//!
//! An [`Assignment`] captures the result of ordering the input particles by
//! a particle-order SFC, partitioning the ordered sequence into `p`
//! consecutive chunks of `⌈n/p⌉`, and handing chunk `i` to processor rank
//! `i`. It also holds the finest level's rank table, one [`GridIndex`], for
//! the "which rank owns cell `(x, y)`?" queries both interaction models
//! issue in their inner loops. The index is dense up to
//! [`MAX_GRID_CELLS`](sfc_particles::MAX_GRID_CELLS) cells and sparse
//! above; the far-field owner tree shares it as its finest level.

use sfc_curves::{CurveKind, Point2};
use sfc_particles::GridIndex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of assignments whose index is dense (see
/// [`dense_grid_builds`]).
static DENSE_GRID_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of assignments whose index is sparse (see
/// [`cellmap_fallbacks`]).
static CELLMAP_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many assignments built a dense rank table since process start.
/// Together with [`cellmap_fallbacks`] this feeds the `sfc_bench`
/// observability gauges and the `--timing` envelope.
pub fn dense_grid_builds() -> u64 {
    DENSE_GRID_BUILDS.load(Ordering::Relaxed)
}

/// How many assignments built a sparse rank table instead: grids above
/// the [`sfc_particles::MAX_GRID_CELLS`] cap, or
/// `with_dense_grid(.., false)`.
pub fn cellmap_fallbacks() -> u64 {
    CELLMAP_FALLBACKS.load(Ordering::Relaxed)
}

/// Particles ordered by an SFC and distributed to processor ranks.
#[derive(Debug, Clone)]
pub struct Assignment {
    grid_order: u32,
    curve: CurveKind,
    num_ranks: u64,
    chunk: usize,
    /// Particles sorted by their particle-order SFC index.
    particles: Vec<Point2>,
    /// Rank of every occupied cell. Shared with the far-field owner tree,
    /// whose finest level it is.
    grid: Arc<GridIndex>,
}

impl Assignment {
    /// Order `particles` (distinct cells on a `2^grid_order`-sided grid) by
    /// `curve` and distribute them to `num_ranks` processors in consecutive
    /// chunks of `⌈n/p⌉`.
    pub fn new(particles: &[Point2], grid_order: u32, curve: CurveKind, num_ranks: u64) -> Self {
        Self::with_dense_grid(particles, grid_order, curve, num_ranks, true)
    }

    /// [`Assignment::new`] with explicit control over the rank table:
    /// `dense = false` builds the sparse form even where the dense one
    /// fits (the dense-grid ablation). Results are bit-identical either
    /// way.
    pub fn with_dense_grid(
        particles: &[Point2],
        grid_order: u32,
        curve: CurveKind,
        num_ranks: u64,
        dense: bool,
    ) -> Self {
        assert!(num_ranks >= 1, "at least one processor required");
        assert!(!particles.is_empty(), "at least one particle required");
        let side = 1u64 << grid_order;
        let mut sorted: Vec<(u64, Point2)> = particles
            .iter()
            .map(|&p| {
                assert!(p.in_grid(side), "{p} outside grid of order {grid_order}");
                (curve.index_of(grid_order, p), p)
            })
            .collect();
        sorted.sort_unstable_by_key(|&(idx, _)| idx);
        let n = sorted.len();
        let chunk = n.div_ceil(num_ranks as usize);
        let mut grid = if dense {
            GridIndex::new(grid_order, n)
        } else {
            GridIndex::sparse(grid_order, n)
        };
        let mut ordered = Vec::with_capacity(n);
        for (i, &(_, p)) in sorted.iter().enumerate() {
            let prev = grid.insert_first(p.x, p.y, (i / chunk) as u32);
            assert!(prev.is_none(), "duplicate particle cell {p}");
            ordered.push(p);
        }
        if grid.is_dense() {
            DENSE_GRID_BUILDS.fetch_add(1, Ordering::Relaxed);
        } else {
            CELLMAP_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        }
        Assignment {
            grid_order,
            curve,
            num_ranks,
            chunk,
            particles: ordered,
            grid: Arc::new(grid),
        }
    }

    /// True if this assignment's rank table is dense.
    pub fn has_dense_grid(&self) -> bool {
        self.grid.is_dense()
    }

    /// Bytes held by the dense rank table, or 0 when it is sparse — the
    /// memory-envelope number the `MAX_GRID_CELLS` cap bounds.
    pub fn dense_grid_bytes(&self) -> usize {
        if self.grid.is_dense() {
            self.grid.table_bytes()
        } else {
            0
        }
    }

    /// Grid order `k` of the spatial resolution.
    pub fn grid_order(&self) -> u32 {
        self.grid_order
    }

    /// The particle-order curve used.
    pub fn curve(&self) -> CurveKind {
        self.curve
    }

    /// Number of processor ranks the particles are distributed over.
    pub fn num_ranks(&self) -> u64 {
        self.num_ranks
    }

    /// Number of ranks that actually hold at least one particle
    /// (`⌈n / ⌈n/p⌉⌉`; can be less than `num_ranks`).
    pub fn ranks_used(&self) -> u64 {
        self.particles.len().div_ceil(self.chunk) as u64
    }

    /// Chunk size `⌈n/p⌉`.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// The particles in particle-order SFC order.
    pub fn particles(&self) -> &[Point2] {
        &self.particles
    }

    /// Rank of the `i`-th particle in SFC order.
    #[inline]
    pub fn rank_of_index(&self, i: usize) -> u32 {
        debug_assert!(i < self.particles.len());
        (i / self.chunk) as u32
    }

    /// Rank owning the particle in cell `(x, y)`, or `None` if the cell is
    /// empty.
    #[inline]
    pub fn rank_of_cell(&self, x: u32, y: u32) -> Option<u32> {
        self.grid.rank_of(x, y)
    }

    /// The rank table behind [`Assignment::rank_of_cell`], shared rather
    /// than copied.
    pub(crate) fn grid(&self) -> &Arc<GridIndex> {
        &self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(u32, u32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn particles_are_sorted_by_curve_index() {
        let particles = pts(&[(3, 3), (0, 0), (1, 2), (2, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
        let indices: Vec<u64> = asg
            .particles()
            .iter()
            .map(|&p| CurveKind::Hilbert.index_of(2, p))
            .collect();
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunking_matches_ceiling_division() {
        let particles = pts(&[(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 2);
        // n=5, p=2 -> chunk 3: ranks 0,0,0,1,1.
        assert_eq!(asg.chunk_size(), 3);
        assert_eq!(asg.rank_of_index(0), 0);
        assert_eq!(asg.rank_of_index(2), 0);
        assert_eq!(asg.rank_of_index(3), 1);
        assert_eq!(asg.ranks_used(), 2);
    }

    #[test]
    fn more_ranks_than_particles() {
        let particles = pts(&[(0, 0), (3, 3)]);
        let asg = Assignment::new(&particles, 2, CurveKind::ZCurve, 16);
        assert_eq!(asg.chunk_size(), 1);
        assert_eq!(asg.ranks_used(), 2);
        assert_eq!(asg.rank_of_cell(0, 0), Some(0));
        assert_eq!(asg.rank_of_cell(3, 3), Some(1));
    }

    #[test]
    fn cell_lookup_agrees_with_index_ranks() {
        let particles = pts(&[(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Gray, 3);
        for (i, p) in asg.particles().iter().enumerate() {
            assert_eq!(asg.rank_of_cell(p.x, p.y), Some(asg.rank_of_index(i)));
        }
        assert_eq!(asg.rank_of_cell(3, 3), None);
    }

    #[test]
    fn curve_changes_the_distribution() {
        // The same particles split differently under Hilbert vs row-major.
        let particles = pts(&[(0, 0), (0, 1), (3, 0), (3, 1)]);
        let hil = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
        let row = Assignment::new(&particles, 2, CurveKind::RowMajor, 2);
        // Hilbert: (0,0),(0,1) first (indices 0,1); row-major: (0,0),(3,0).
        assert_eq!(hil.rank_of_cell(0, 1), Some(0));
        assert_eq!(row.rank_of_cell(0, 1), Some(1));
    }

    #[test]
    fn dense_and_sparse_tables_agree() {
        let particles = pts(&[(0, 0), (5, 2), (7, 7), (3, 4), (1, 6)]);
        let dense = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let sparse = Assignment::with_dense_grid(&particles, 3, CurveKind::ZCurve, 4, false);
        assert!(dense.has_dense_grid() && !sparse.has_dense_grid());
        assert_eq!(dense.dense_grid_bytes(), 8 * 8 * 4);
        assert_eq!(sparse.dense_grid_bytes(), 0);
        assert_eq!(dense.particles(), sparse.particles());
        for x in 0..8 {
            for y in 0..8 {
                assert_eq!(dense.rank_of_cell(x, y), sparse.rank_of_cell(x, y));
            }
        }
    }

    #[test]
    fn above_the_cell_cap_the_table_is_sparse_and_identical() {
        // Order 13 is one past the 1 << 24 cell cap: the dense table would
        // be 256 MiB, so the assignment builds the sparse one.
        let particles = pts(&[(0, 0), (8191, 8191), (4096, 17)]);
        let asg = Assignment::new(&particles, 13, CurveKind::Hilbert, 3);
        assert!(!asg.has_dense_grid());
        assert_eq!(asg.dense_grid_bytes(), 0);
        for (i, p) in asg.particles().iter().enumerate() {
            assert_eq!(asg.rank_of_cell(p.x, p.y), Some(asg.rank_of_index(i)));
        }
        assert_eq!(asg.rank_of_cell(123, 456), None);
        // Just below is order 12, which builds the dense table.
        let small = Assignment::new(&pts(&[(0, 0)]), 12, CurveKind::Hilbert, 1);
        assert!(small.has_dense_grid());
        assert_eq!(small.dense_grid_bytes(), 64 << 20);
    }

    #[test]
    fn build_counters_track_dense_and_fallback_paths() {
        let particles = pts(&[(0, 0), (1, 1)]);
        let b0 = dense_grid_builds();
        let f0 = cellmap_fallbacks();
        let _dense = Assignment::new(&particles, 2, CurveKind::Hilbert, 1);
        let _ablated = Assignment::with_dense_grid(&particles, 2, CurveKind::Hilbert, 1, false);
        // Counters are process-wide and tests run concurrently, so assert
        // monotone growth rather than exact values.
        assert!(dense_grid_builds() > b0);
        assert!(cellmap_fallbacks() > f0);
    }

    #[test]
    #[should_panic(expected = "duplicate particle cell")]
    fn duplicate_cells_rejected() {
        let particles = pts(&[(1, 1), (1, 1)]);
        let _ = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_grid_rejected() {
        let particles = pts(&[(4, 0)]);
        let _ = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
    }
}
