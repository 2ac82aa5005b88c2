//! # sfc-curves
//!
//! Discrete space-filling curves (SFCs) on `2^k × 2^k` grids (and `2^k`-sided
//! cubes in 3-D), as studied in *DeFord & Kalyanaraman, "Empirical Analysis of
//! Space-Filling Curves for Scientific Computing Applications", ICPP 2013*.
//!
//! An SFC of order `k` is a bijection between the `4^k` cells of a
//! `2^k × 2^k` grid and the linear index range `0 .. 4^k`. The paper studies
//! four curves — the Hilbert curve, the Z-curve (Morton order), the Gray
//! order, and the row-major order — used both for *particle ordering* (laying
//! out input points in memory / across processors) and *processor ordering*
//! (assigning ranks to nodes of a mesh or torus network).
//!
//! ## Contents
//!
//! - [`Curve2d`]: the core trait — `index(point) -> u64` and its inverse
//!   `point(index)`.
//! - [`hilbert`], [`morton`], [`gray`], [`rowmajor`]: the paper's four
//!   curves, plus column-major and boustrophedon ("snake scan") variants.
//! - [`skilling`]: Skilling's n-dimensional Hilbert transform, used both as
//!   an independent cross-check of the 2-D Hilbert implementation and as the
//!   3-D Hilbert curve for the paper's future-work extension.
//! - [`curve3d`]: 3-D curves (Morton, Gray, row-major, Hilbert via
//!   Skilling).
//! - [`recursive`]: reference constructions that build each curve by literal
//!   recursion, exactly as defined in Section II of the paper. These are
//!   slower but serve as executable specifications for the bit-twiddled
//!   versions.
//! - [`table`]: precomputed permutation tables (index→point and point→index)
//!   for hot loops that sweep entire grids.
//!
//! ## Example
//!
//! ```
//! use sfc_curves::{Curve2d, CurveKind, Point2};
//!
//! let hilbert = CurveKind::Hilbert.curve(4); // order 4 => 16×16 grid
//! let idx = hilbert.index(Point2::new(3, 7));
//! assert_eq!(hilbert.point(idx), Point2::new(3, 7));
//! // The Hilbert curve takes unit steps:
//! let a = hilbert.point(100);
//! let b = hilbert.point(101);
//! assert_eq!(a.manhattan(b), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod any;
pub mod curve3d;
pub mod gray;
pub mod hilbert;
pub mod moore;
pub mod morton;
pub mod point;
pub mod recursive;
pub mod rowmajor;
pub mod skilling;
pub mod table;

pub use any::AnyCurve2d;
pub use gray::GrayCurve;
pub use hilbert::HilbertCurve;
pub use moore::MooreCurve;
pub use morton::ZCurve;
pub use point::Point2;
pub use rowmajor::{Boustrophedon, ColumnMajor, RowMajor};
pub use table::CurveTable;

/// Maximum supported order for 2-D curves. `4^31` indices fit comfortably in
/// a `u64` and coordinates fit in a `u32`.
pub const MAX_ORDER_2D: u32 = 31;

/// A discrete two-dimensional space-filling curve of a fixed order `k`,
/// i.e. a bijection between the cells of a `2^k × 2^k` grid and
/// `0 .. 4^k`.
pub trait Curve2d {
    /// The order `k` of the curve. The grid has side `2^k`.
    fn order(&self) -> u32;

    /// Linear index of the grid cell `p`. Both coordinates must be
    /// `< self.side()`.
    fn index(&self, p: Point2) -> u64;

    /// Inverse of [`Curve2d::index`]: the grid cell at linear position
    /// `idx`, which must be `< self.len()`.
    fn point(&self, idx: u64) -> Point2;

    /// Side length of the grid, `2^k`.
    fn side(&self) -> u64 {
        1u64 << self.order()
    }

    /// Total number of cells, `4^k`.
    fn len(&self) -> u64 {
        1u64 << (2 * self.order())
    }

    /// Whether the curve covers no cells (never true for valid orders; kept
    /// for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A human-readable name for reports and tables.
    fn name(&self) -> &'static str {
        "curve"
    }
}

/// Iterator over the cells of a grid in curve order. Created by
/// [`traverse`].
#[derive(Debug, Clone)]
pub struct CurveIter<'a, C: Curve2d + ?Sized> {
    curve: &'a C,
    next: u64,
    len: u64,
}

/// Iterate the cells of `curve`'s grid in curve order.
pub fn traverse<C: Curve2d + ?Sized>(curve: &C) -> CurveIter<'_, C> {
    CurveIter {
        curve,
        next: 0,
        len: curve.len(),
    }
}

impl<C: Curve2d + ?Sized> Iterator for CurveIter<'_, C> {
    type Item = Point2;

    fn next(&mut self) -> Option<Point2> {
        if self.next >= self.len {
            return None;
        }
        let p = self.curve.point(self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.len - self.next) as usize;
        (rem, Some(rem))
    }
}

impl<C: Curve2d + ?Sized> ExactSizeIterator for CurveIter<'_, C> {}

/// Identifies one of the supported 2-D curves; the dynamic counterpart of the
/// concrete curve types, used wherever experiments sweep over curve families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CurveKind {
    /// The Hilbert curve ([`HilbertCurve`]).
    Hilbert,
    /// The Z-curve / Morton order ([`ZCurve`]).
    ZCurve,
    /// The Gray order ([`GrayCurve`]).
    Gray,
    /// Row-major order ([`RowMajor`]).
    RowMajor,
    /// Column-major order ([`ColumnMajor`]); transpose of row-major.
    ColumnMajor,
    /// Boustrophedon ("snake scan") order ([`Boustrophedon`]), the discrete
    /// analog of the continuous snake curve discussed by Xu & Tirthapura.
    Boustrophedon,
    /// Moore curve ([`MooreCurve`]): the closed Hilbert variant, whose last
    /// cell is adjacent to its first.
    Moore,
}

impl CurveKind {
    /// The four curves evaluated in the paper, in the paper's column order.
    pub const PAPER: [CurveKind; 4] = [
        CurveKind::Hilbert,
        CurveKind::ZCurve,
        CurveKind::Gray,
        CurveKind::RowMajor,
    ];

    /// All supported curves, the paper's four plus the extensions.
    pub const ALL: [CurveKind; 7] = [
        CurveKind::Hilbert,
        CurveKind::ZCurve,
        CurveKind::Gray,
        CurveKind::RowMajor,
        CurveKind::ColumnMajor,
        CurveKind::Boustrophedon,
        CurveKind::Moore,
    ];

    /// Instantiate the curve at order `k` by value: a `Copy`, allocation-free
    /// handle for hot loops and serializable experiment specs.
    #[inline]
    pub fn any(self, order: u32) -> AnyCurve2d {
        AnyCurve2d::new(self, order)
    }

    /// Instantiate the curve at order `k` behind a trait object.
    ///
    /// Compatibility path for heterogeneous collections; delegates to
    /// [`CurveKind::any`], so both APIs always agree. Prefer `any` where a
    /// concrete handle suffices — it avoids the allocation and vtable.
    pub fn curve(self, order: u32) -> Box<dyn Curve2d + Send + Sync> {
        Box::new(self.any(order))
    }

    /// Display name used in tables and plots.
    pub fn name(self) -> &'static str {
        match self {
            CurveKind::Hilbert => "Hilbert Curve",
            CurveKind::ZCurve => "Z-Curve",
            CurveKind::Gray => "Gray Code",
            CurveKind::RowMajor => "Row Major",
            CurveKind::ColumnMajor => "Column Major",
            CurveKind::Boustrophedon => "Snake Scan",
            CurveKind::Moore => "Moore Curve",
        }
    }

    /// Short name for compact tables.
    pub fn short_name(self) -> &'static str {
        match self {
            CurveKind::Hilbert => "Hilbert",
            CurveKind::ZCurve => "Z",
            CurveKind::Gray => "Gray",
            CurveKind::RowMajor => "RowMajor",
            CurveKind::ColumnMajor => "ColMajor",
            CurveKind::Boustrophedon => "Snake",
            CurveKind::Moore => "Moore",
        }
    }

    /// Compute the linear index of `p` without constructing a curve object.
    #[inline]
    pub fn index_of(self, order: u32, p: Point2) -> u64 {
        match self {
            CurveKind::Hilbert => hilbert::hilbert_index(order, p),
            CurveKind::ZCurve => morton::morton_index(order, p),
            CurveKind::Gray => gray::gray_index(order, p),
            CurveKind::RowMajor => rowmajor::row_major_index(order, p),
            CurveKind::ColumnMajor => rowmajor::column_major_index(order, p),
            CurveKind::Boustrophedon => rowmajor::boustrophedon_index(order, p),
            CurveKind::Moore => moore::moore_index(order, p),
        }
    }

    /// Compute the grid cell at linear position `idx` without constructing a
    /// curve object.
    #[inline]
    pub fn point_of(self, order: u32, idx: u64) -> Point2 {
        match self {
            CurveKind::Hilbert => hilbert::hilbert_point(order, idx),
            CurveKind::ZCurve => morton::morton_point(order, idx),
            CurveKind::Gray => gray::gray_point(order, idx),
            CurveKind::RowMajor => rowmajor::row_major_point(order, idx),
            CurveKind::ColumnMajor => rowmajor::column_major_point(order, idx),
            CurveKind::Boustrophedon => rowmajor::boustrophedon_point(order, idx),
            CurveKind::Moore => moore::moore_point(order, idx),
        }
    }

    /// Parse a curve name as used on the bench binaries' command lines.
    pub fn parse(s: &str) -> Option<CurveKind> {
        match s.to_ascii_lowercase().as_str() {
            "hilbert" | "h" => Some(CurveKind::Hilbert),
            "z" | "zcurve" | "z-curve" | "morton" => Some(CurveKind::ZCurve),
            "gray" | "g" | "graycode" => Some(CurveKind::Gray),
            "rowmajor" | "row" | "row-major" | "r" => Some(CurveKind::RowMajor),
            "colmajor" | "column" | "column-major" | "c" => Some(CurveKind::ColumnMajor),
            "snake" | "boustrophedon" | "s" => Some(CurveKind::Boustrophedon),
            "moore" | "m" => Some(CurveKind::Moore),
            _ => None,
        }
    }
}

impl std::fmt::Display for CurveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Validates that `order` is within the supported range and panics with a
/// clear message otherwise. All curve constructors call this.
pub(crate) fn check_order(order: u32) {
    assert!(
        (1..=MAX_ORDER_2D).contains(&order),
        "curve order must be in 1..={MAX_ORDER_2D}, got {order}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_kind_parse_round_trips() {
        for kind in CurveKind::ALL {
            assert_eq!(CurveKind::parse(kind.short_name()), Some(kind));
        }
        assert_eq!(CurveKind::parse("no-such-curve"), None);
    }

    #[test]
    fn boxed_curves_agree_with_direct_functions() {
        for kind in CurveKind::ALL {
            let c = kind.curve(3);
            for idx in 0..c.len() {
                let p = c.point(idx);
                assert_eq!(kind.point_of(3, idx), p);
                assert_eq!(kind.index_of(3, p), idx);
                assert_eq!(c.index(p), idx);
            }
        }
    }

    #[test]
    fn traverse_visits_every_cell_once() {
        for kind in CurveKind::ALL {
            let c = kind.curve(3);
            let mut seen = vec![false; c.len() as usize];
            let mut count = 0usize;
            for p in traverse(c.as_ref()) {
                let flat = (p.y as usize) * c.side() as usize + p.x as usize;
                assert!(!seen[flat], "{kind}: cell {p:?} visited twice");
                seen[flat] = true;
                count += 1;
            }
            assert_eq!(count, c.len() as usize);
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn traverse_size_hint_is_exact() {
        let c = HilbertCurve::new(2);
        let it = traverse(&c);
        assert_eq!(it.len(), 16);
        assert_eq!(it.count(), 16);
    }

    #[test]
    fn paper_set_is_subset_of_all() {
        for kind in CurveKind::PAPER {
            assert!(CurveKind::ALL.contains(&kind));
        }
    }

    #[test]
    #[should_panic(expected = "curve order must be")]
    fn order_zero_rejected() {
        let _ = HilbertCurve::new(0);
    }
}
