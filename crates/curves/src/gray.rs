//! The Gray order.
//!
//! The Gray order (Section II-A.2 of the paper) takes the Z-curve (Morton)
//! code of each point and orders the points by the position of that code in
//! the reflected binary Gray code sequence, rather than by its numeric
//! value. Concretely, the cell with Morton code `z` receives linear index
//! `gray_decode(z)` — the unique `i` with `gray_encode(i) = z`.
//!
//! Consecutive cells of the Gray order therefore have Morton codes that
//! differ in exactly one bit. As a recursive construction it places four
//! copies of `G_k` in a 2 × 2 grid where the lower two copies are unrotated
//! and the upper two copies are rotated 180°.

use crate::{check_order, morton, Curve2d, Point2};

/// Reflected binary Gray code of `i`: `i ^ (i >> 1)`.
#[inline]
pub fn gray_encode(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Inverse of [`gray_encode`]: the rank of `g` in the Gray code sequence.
///
/// Computed by the logarithmic prefix-XOR fold.
#[inline]
pub fn gray_decode(g: u64) -> u64 {
    let mut i = g;
    i ^= i >> 1;
    i ^= i >> 2;
    i ^= i >> 4;
    i ^= i >> 8;
    i ^= i >> 16;
    i ^= i >> 32;
    i
}

/// Gray-order index of `p`: the Gray rank of the point's Morton code.
#[inline]
pub fn gray_index(order: u32, p: Point2) -> u64 {
    gray_decode(morton::morton_index(order, p))
}

/// The grid cell at Gray-order position `idx`.
#[inline]
pub fn gray_point(order: u32, idx: u64) -> Point2 {
    morton::morton_point(order, gray_encode(idx))
}

/// The Gray order of a given order (grid exponent).
///
/// ```
/// use sfc_curves::{Curve2d, GrayCurve, Point2};
/// let g = GrayCurve::new(1);
/// // Visit order: LL, LR, UR, UL — the reflected "U".
/// assert_eq!(g.point(0), Point2::new(0, 0));
/// assert_eq!(g.point(1), Point2::new(1, 0));
/// assert_eq!(g.point(2), Point2::new(1, 1));
/// assert_eq!(g.point(3), Point2::new(0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrayCurve {
    order: u32,
}

impl GrayCurve {
    /// Create a Gray-order curve over a `2^order × 2^order` grid.
    pub fn new(order: u32) -> Self {
        check_order(order);
        GrayCurve { order }
    }
}

impl Curve2d for GrayCurve {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point2) -> u64 {
        debug_assert!(p.in_grid(self.side()));
        gray_index(self.order, p)
    }

    #[inline]
    fn point(&self, idx: u64) -> Point2 {
        debug_assert!(idx < self.len());
        gray_point(self.order, idx)
    }

    fn name(&self) -> &'static str {
        "Gray Code"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_encode_first_values() {
        let expected = [0u64, 1, 3, 2, 6, 7, 5, 4];
        for (i, &g) in expected.iter().enumerate() {
            assert_eq!(gray_encode(i as u64), g);
        }
    }

    #[test]
    fn gray_encode_decode_round_trip() {
        for i in 0..4096u64 {
            assert_eq!(gray_decode(gray_encode(i)), i);
        }
        for i in [u64::MAX, u64::MAX / 3, 1 << 63] {
            assert_eq!(gray_decode(gray_encode(i)), i);
        }
    }

    #[test]
    fn consecutive_gray_codes_differ_in_one_bit() {
        for i in 0..4096u64 {
            let diff = gray_encode(i) ^ gray_encode(i + 1);
            assert_eq!(
                diff.count_ones(),
                1,
                "codes {i} and {} differ in more than one bit",
                i + 1
            );
        }
    }

    #[test]
    fn consecutive_cells_have_single_bit_morton_difference() {
        // The defining property of the Gray order as a curve: successive
        // cells' Z-codes are Gray-adjacent.
        let g = GrayCurve::new(4);
        for idx in 0..g.len() - 1 {
            let za = morton::morton_index(4, g.point(idx));
            let zb = morton::morton_index(4, g.point(idx + 1));
            assert_eq!((za ^ zb).count_ones(), 1);
        }
    }

    #[test]
    fn consecutive_cells_move_along_one_axis() {
        // A single flipped Morton bit changes exactly one coordinate (by a
        // power of two), so Gray steps are always axis-aligned.
        let g = GrayCurve::new(5);
        for idx in 0..g.len() - 1 {
            let a = g.point(idx);
            let b = g.point(idx + 1);
            assert!(a.x == b.x || a.y == b.y);
            let (da, db) = (a.x.abs_diff(b.x), a.y.abs_diff(b.y));
            let step = da.max(db);
            assert!(step.is_power_of_two());
        }
    }

    #[test]
    fn round_trip_exhaustive_order_4() {
        let g = GrayCurve::new(4);
        for idx in 0..g.len() {
            assert_eq!(g.index(g.point(idx)), idx);
        }
    }

    #[test]
    fn recursive_structure_lower_quadrants_unrotated() {
        // First quarter of the order-2 curve is the order-1 curve embedded
        // in the lower-left quadrant (unrotated).
        let g1 = GrayCurve::new(1);
        let g2 = GrayCurve::new(2);
        for idx in 0..4 {
            let p1 = g1.point(idx);
            let p2 = g2.point(idx);
            assert_eq!((p2.x, p2.y), (p1.x, p1.y));
        }
    }

    #[test]
    fn recursive_structure_alternate_quadrants_reflected() {
        // With this crate's Morton bit convention the order-2 Gray curve
        // visits the quadrants in the order LL, LR, UR, UL; the 1st and 3rd
        // visited quadrants embed G_1 untouched while the 2nd and 4th embed
        // its mirror image (the same recursive structure as the paper's
        // description, up to a grid symmetry fixed by the bit convention).
        let g1 = GrayCurve::new(1);
        let g2 = GrayCurve::new(2);
        for idx in 0..4u64 {
            let p1 = g1.point(idx);
            // 2nd visited quadrant: lower-right, reflected vertically.
            let p2 = g2.point(4 + idx);
            assert_eq!((p2.x, p2.y), (p1.x + 2, 1 - p1.y));
            // 3rd visited quadrant: upper-right, untouched.
            let p3 = g2.point(8 + idx);
            assert_eq!((p3.x, p3.y), (p1.x + 2, p1.y + 2));
            // 4th visited quadrant: upper-left, reflected vertically.
            let p4 = g2.point(12 + idx);
            assert_eq!((p4.x, p4.y), (p1.x, 2 + (1 - p1.y)));
        }
    }
}
