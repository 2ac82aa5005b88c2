//! The Hilbert curve.
//!
//! The Hilbert curve (Hilbert, 1891) is the classic recursively-constructed
//! proximity-preserving SFC: `H_{k+1}` consists of four copies of `H_k`
//! arranged in a 2 × 2 grid, with the lower two copies rotated so that the
//! entry and exit points of adjacent copies align. The result is the unique
//! (up to symmetry) order-`k` curve whose consecutive cells are always
//! *edge-adjacent* — the "unit step" property the proximity-preservation
//! experiments in the paper rely on.
//!
//! [`hilbert_index`] / [`hilbert_point`] are the standard bit-twiddled
//! transform (Lam & Shapiro style), processing one bit of each coordinate
//! per iteration: `O(k)` time, no memory. They are cross-validated against
//! the literal recursive construction in [`crate::recursive`] and against
//! Skilling's general n-dimensional transform in [`crate::skilling`].

use crate::{check_order, Curve2d, Point2};

/// Hilbert index of the cell `p` on a grid of the given `order`.
#[inline]
pub fn hilbert_index(order: u32, p: Point2) -> u64 {
    let mut x = p.x as u64;
    let mut y = p.y as u64;
    let mut d: u64 = 0;
    let mut s: u64 = 1u64 << (order - 1);
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant so lower-order bits are interpreted in the
        // sub-curve's local frame. Only bits below `s` matter from here on,
        // so reflecting modulo `s` is sufficient.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x) & (s - 1);
                y = s.wrapping_sub(1).wrapping_sub(y) & (s - 1);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s >>= 1;
    }
    d
}

/// The grid cell at Hilbert position `idx` on a grid of the given `order`.
#[inline]
pub fn hilbert_point(order: u32, idx: u64) -> Point2 {
    let mut t = idx;
    let mut x: u64 = 0;
    let mut y: u64 = 0;
    let mut s: u64 = 1;
    let side = 1u64 << order;
    while s < side {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        // Rotate the partial result into this level's frame.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s <<= 1;
    }
    Point2::new(x as u32, y as u32)
}

/// The Hilbert curve of a given order.
///
/// ```
/// use sfc_curves::{Curve2d, HilbertCurve, Point2};
/// let h = HilbertCurve::new(1);
/// // The order-1 curve is the "U" shape: LL, UL, UR, LR.
/// assert_eq!(h.point(0), Point2::new(0, 0));
/// assert_eq!(h.point(1), Point2::new(0, 1));
/// assert_eq!(h.point(2), Point2::new(1, 1));
/// assert_eq!(h.point(3), Point2::new(1, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    order: u32,
}

impl HilbertCurve {
    /// Create a Hilbert curve over a `2^order × 2^order` grid.
    pub fn new(order: u32) -> Self {
        check_order(order);
        HilbertCurve { order }
    }
}

impl Curve2d for HilbertCurve {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point2) -> u64 {
        debug_assert!(p.in_grid(self.side()));
        hilbert_index(self.order, p)
    }

    #[inline]
    fn point(&self, idx: u64) -> Point2 {
        debug_assert!(idx < self.len());
        hilbert_point(self.order, idx)
    }

    fn name(&self) -> &'static str {
        "Hilbert Curve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_one_u_shape() {
        let h = HilbertCurve::new(1);
        let pts: Vec<_> = (0..4).map(|i| h.point(i)).collect();
        assert_eq!(
            pts,
            vec![
                Point2::new(0, 0),
                Point2::new(0, 1),
                Point2::new(1, 1),
                Point2::new(1, 0)
            ]
        );
    }

    #[test]
    fn round_trip_exhaustive_small_orders() {
        for order in 1..=5 {
            let h = HilbertCurve::new(order);
            for idx in 0..h.len() {
                let p = h.point(idx);
                assert_eq!(h.index(p), idx, "order {order}, idx {idx}");
            }
        }
    }

    #[test]
    fn consecutive_cells_are_edge_adjacent() {
        // The defining property of the Hilbert curve: unit Manhattan steps.
        for order in 1..=6 {
            let h = HilbertCurve::new(order);
            let mut prev = h.point(0);
            for idx in 1..h.len() {
                let p = h.point(idx);
                assert_eq!(
                    prev.manhattan(p),
                    1,
                    "order {order}: step {idx} jumps from {prev} to {p}"
                );
                prev = p;
            }
        }
    }

    #[test]
    fn large_order_round_trip_spot_checks() {
        let h = HilbertCurve::new(20);
        for &(x, y) in &[
            (0u32, 0u32),
            (1 << 19, 1 << 19),
            ((1 << 20) - 1, 0),
            (0, (1 << 20) - 1),
            ((1 << 20) - 1, (1 << 20) - 1),
            (123_456, 654_321),
        ] {
            let p = Point2::new(x, y);
            assert_eq!(h.point(h.index(p)), p);
        }
    }

    #[test]
    fn curve_starts_at_origin() {
        for order in 1..=8 {
            let h = HilbertCurve::new(order);
            assert_eq!(h.point(0), Point2::new(0, 0));
        }
    }

    #[test]
    fn curve_ends_at_lower_right_corner() {
        // With the U-shaped order-1 motif, H_k enters at (0,0) and exits at
        // (2^k - 1, 0) for every k.
        for order in 1..=8 {
            let h = HilbertCurve::new(order);
            let last = h.point(h.len() - 1);
            assert_eq!(last, Point2::new((h.side() - 1) as u32, 0));
        }
    }
}
