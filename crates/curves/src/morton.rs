//! The Z-curve (Morton order).
//!
//! The Z-curve is obtained by interleaving the binary representations of the
//! two coordinates: bit `j` of `x` lands at bit `2j` of the index and bit
//! `j` of `y` at bit `2j + 1`. Equivalently it is the recursive curve that
//! visits the four quadrants in the fixed order lower-left, lower-right,
//! upper-left, upper-right, without any rotation (Section II-A.2 of the
//! paper).
//!
//! The interleave is implemented with the classic parallel-prefix
//! ("magic number") bit spreading, which runs in a handful of cycles and is
//! branch-free — exactly the "compute the order of each point directly with
//! bit operations" approach the paper notes is more efficient than recursion.

use crate::{check_order, Curve2d, Point2};

/// Spread the low 32 bits of `v` so that bit `j` moves to bit `2j`.
#[inline]
pub fn spread_bits(v: u32) -> u64 {
    let mut v = v as u64;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Inverse of [`spread_bits`]: gather the even-position bits of `v` into the
/// low 32 bits of the result.
#[inline]
pub fn gather_bits(v: u64) -> u32 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v as u32
}

/// Morton (Z-curve) index of `p`. The `order` parameter is accepted for
/// interface symmetry with the other curves; the Morton code of a point does
/// not depend on the grid order.
#[inline]
pub fn morton_index(_order: u32, p: Point2) -> u64 {
    spread_bits(p.x) | (spread_bits(p.y) << 1)
}

/// The grid cell at Morton position `idx`.
#[inline]
pub fn morton_point(_order: u32, idx: u64) -> Point2 {
    Point2::new(gather_bits(idx), gather_bits(idx >> 1))
}

/// Encode a raw coordinate pair as a Morton code (convenience alias used by
/// the quadtree crate, where Morton codes double as cell identifiers).
#[inline]
pub fn encode(x: u32, y: u32) -> u64 {
    morton_index(0, Point2::new(x, y))
}

/// Decode a Morton code back to the coordinate pair.
#[inline]
pub fn decode(code: u64) -> (u32, u32) {
    let p = morton_point(0, code);
    (p.x, p.y)
}

/// The Z-curve (Morton order) of a given order.
///
/// ```
/// use sfc_curves::{Curve2d, ZCurve, Point2};
/// let z = ZCurve::new(1);
/// // Quadrant visit order: LL, LR, UL, UR.
/// assert_eq!(z.point(0), Point2::new(0, 0));
/// assert_eq!(z.point(1), Point2::new(1, 0));
/// assert_eq!(z.point(2), Point2::new(0, 1));
/// assert_eq!(z.point(3), Point2::new(1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZCurve {
    order: u32,
}

impl ZCurve {
    /// Create a Z-curve over a `2^order × 2^order` grid.
    pub fn new(order: u32) -> Self {
        check_order(order);
        ZCurve { order }
    }
}

impl Curve2d for ZCurve {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point2) -> u64 {
        debug_assert!(
            p.in_grid(self.side()),
            "{p} outside grid of order {}",
            self.order
        );
        morton_index(self.order, p)
    }

    #[inline]
    fn point(&self, idx: u64) -> Point2 {
        debug_assert!(idx < self.len());
        morton_point(self.order, idx)
    }

    fn name(&self) -> &'static str {
        "Z-Curve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_gather_round_trip() {
        for v in [0u32, 1, 2, 0xFF, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(gather_bits(spread_bits(v)), v);
        }
    }

    #[test]
    fn spread_produces_even_bits_only() {
        for v in [1u32, 3, 0xFFFF_FFFF] {
            assert_eq!(spread_bits(v) & 0xAAAA_AAAA_AAAA_AAAA, 0);
        }
    }

    #[test]
    fn order_one_z_shape() {
        let z = ZCurve::new(1);
        let pts: Vec<_> = (0..4).map(|i| z.point(i)).collect();
        assert_eq!(
            pts,
            vec![
                Point2::new(0, 0),
                Point2::new(1, 0),
                Point2::new(0, 1),
                Point2::new(1, 1)
            ]
        );
    }

    #[test]
    fn round_trip_exhaustive_order_4() {
        let z = ZCurve::new(4);
        for idx in 0..z.len() {
            assert_eq!(z.index(z.point(idx)), idx);
        }
    }

    #[test]
    fn quadrant_structure_is_preserved() {
        // The first quarter of the indices covers exactly the lower-left
        // quadrant, i.e. the recursion copies Z_{k} into each quadrant
        // untouched.
        let z = ZCurve::new(3);
        let quarter = z.len() / 4;
        for idx in 0..quarter {
            let p = z.point(idx);
            assert!(p.x < 4 && p.y < 4, "index {idx} -> {p} not in LL quadrant");
        }
        for idx in quarter..2 * quarter {
            let p = z.point(idx);
            assert!(p.x >= 4 && p.y < 4, "index {idx} -> {p} not in LR quadrant");
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for (x, y) in [(0, 0), (5, 9), (1023, 4095), (u32::MAX, 0)] {
            assert_eq!(decode(encode(x, y)), (x, y));
        }
    }

    #[test]
    fn morton_code_monotone_in_each_coordinate_block() {
        // Sorting cells of a row of a 2x2 block by Morton code keeps x order.
        assert!(encode(0, 0) < encode(1, 0));
        assert!(encode(1, 0) < encode(0, 1));
        assert!(encode(0, 1) < encode(1, 1));
    }
}
