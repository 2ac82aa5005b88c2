//! Three-dimensional space-filling curves.
//!
//! The paper's experiments are all in 2-D; its future-work list (Section
//! VIII, item ii) calls for validating the trends in 3-D. This module
//! provides the 3-D counterparts of the paper's four curves so the ANNS and
//! ACD machinery can be exercised in three dimensions: Morton, Gray and
//! row-major by direct bit manipulation, and Hilbert through Skilling's
//! transform ([`crate::skilling`]).

use crate::gray::{gray_decode, gray_encode};
use crate::skilling;

/// A cell of a 3-D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point3 {
    /// First coordinate.
    pub x: u32,
    /// Second coordinate.
    pub y: u32,
    /// Third coordinate.
    pub z: u32,
}

impl Point3 {
    /// Construct a point from its coordinates.
    #[inline]
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Point3 { x, y, z }
    }

    /// Manhattan (L1) distance to `other`.
    #[inline]
    pub fn manhattan(self, other: Point3) -> u64 {
        self.x.abs_diff(other.x) as u64
            + self.y.abs_diff(other.y) as u64
            + self.z.abs_diff(other.z) as u64
    }

    /// Chebyshev (L∞) distance to `other`.
    #[inline]
    pub fn chebyshev(self, other: Point3) -> u64 {
        (self.x.abs_diff(other.x))
            .max(self.y.abs_diff(other.y))
            .max(self.z.abs_diff(other.z)) as u64
    }
}

/// Maximum supported order for 3-D curves (indices must fit in 63 bits).
pub const MAX_ORDER_3D: u32 = 20;

/// A discrete three-dimensional space-filling curve of order `k`: a
/// bijection between the `8^k` cells of a `2^k`-sided cube and `0 .. 8^k`.
pub trait Curve3d {
    /// The order `k` of the curve.
    fn order(&self) -> u32;

    /// Linear index of the cell `p`.
    fn index(&self, p: Point3) -> u64;

    /// Inverse of [`Curve3d::index`].
    fn point(&self, idx: u64) -> Point3;

    /// Side length of the cube, `2^k`.
    fn side(&self) -> u64 {
        1u64 << self.order()
    }

    /// Total number of cells, `8^k`.
    fn len(&self) -> u64 {
        1u64 << (3 * self.order())
    }

    /// Whether the curve covers no cells (never true for valid orders).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable name.
    fn name(&self) -> &'static str {
        "curve3d"
    }
}

fn check_order_3d(order: u32) {
    assert!(
        (1..=MAX_ORDER_3D).contains(&order),
        "3-D curve order must be in 1..={MAX_ORDER_3D}, got {order}"
    );
}

/// Spread the low 21 bits of `v` so bit `j` lands at bit `3j`.
#[inline]
pub fn spread3(v: u32) -> u64 {
    let mut v = (v as u64) & 0x1F_FFFF;
    v = (v | (v << 32)) & 0x001F_0000_0000_FFFF;
    v = (v | (v << 16)) & 0x001F_0000_FF00_00FF;
    v = (v | (v << 8)) & 0x100F_00F0_0F00_F00F;
    v = (v | (v << 4)) & 0x10C3_0C30_C30C_30C3;
    v = (v | (v << 2)) & 0x1249_2492_4924_9249;
    v
}

/// Inverse of [`spread3`].
#[inline]
pub fn gather3(v: u64) -> u32 {
    let mut v = v & 0x1249_2492_4924_9249;
    v = (v | (v >> 2)) & 0x10C3_0C30_C30C_30C3;
    v = (v | (v >> 4)) & 0x100F_00F0_0F00_F00F;
    v = (v | (v >> 8)) & 0x001F_0000_FF00_00FF;
    v = (v | (v >> 16)) & 0x001F_0000_0000_FFFF;
    v = (v | (v >> 32)) & 0x0000_0000_001F_FFFF;
    v as u32
}

/// 3-D Morton code of `(x, y, z)`.
#[inline]
pub fn morton3_encode(x: u32, y: u32, z: u32) -> u64 {
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Inverse of [`morton3_encode`].
#[inline]
pub fn morton3_decode(code: u64) -> (u32, u32, u32) {
    (gather3(code), gather3(code >> 1), gather3(code >> 2))
}

macro_rules! curve3d_struct {
    ($(#[$doc:meta])* $name:ident, $display:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            order: u32,
        }

        impl $name {
            /// Create the curve over a `2^order`-sided cube.
            pub fn new(order: u32) -> Self {
                check_order_3d(order);
                $name { order }
            }
        }
    };
}

curve3d_struct!(
    /// 3-D Z-curve (Morton order).
    ZCurve3d,
    "Z-Curve 3D"
);

impl Curve3d for ZCurve3d {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point3) -> u64 {
        morton3_encode(p.x, p.y, p.z)
    }

    #[inline]
    fn point(&self, idx: u64) -> Point3 {
        let (x, y, z) = morton3_decode(idx);
        Point3::new(x, y, z)
    }

    fn name(&self) -> &'static str {
        "Z-Curve 3D"
    }
}

curve3d_struct!(
    /// 3-D Gray order: points ordered by the Gray rank of their Morton code.
    GrayCurve3d,
    "Gray Code 3D"
);

impl Curve3d for GrayCurve3d {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point3) -> u64 {
        gray_decode(morton3_encode(p.x, p.y, p.z))
    }

    #[inline]
    fn point(&self, idx: u64) -> Point3 {
        let (x, y, z) = morton3_decode(gray_encode(idx));
        Point3::new(x, y, z)
    }

    fn name(&self) -> &'static str {
        "Gray Code 3D"
    }
}

curve3d_struct!(
    /// 3-D row-major order: `z`-major, then `y`, then `x`.
    RowMajor3d,
    "Row Major 3D"
);

impl Curve3d for RowMajor3d {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point3) -> u64 {
        let k = self.order;
        ((p.z as u64) << (2 * k)) | ((p.y as u64) << k) | p.x as u64
    }

    #[inline]
    fn point(&self, idx: u64) -> Point3 {
        let k = self.order;
        let mask = (1u64 << k) - 1;
        Point3::new(
            (idx & mask) as u32,
            ((idx >> k) & mask) as u32,
            (idx >> (2 * k)) as u32,
        )
    }

    fn name(&self) -> &'static str {
        "Row Major 3D"
    }
}

curve3d_struct!(
    /// 3-D Hilbert curve via Skilling's transform.
    Hilbert3d,
    "Hilbert Curve 3D"
);

impl Curve3d for Hilbert3d {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point3) -> u64 {
        skilling::axes_to_index(&[p.x, p.y, p.z], self.order)
    }

    #[inline]
    fn point(&self, idx: u64) -> Point3 {
        let c = skilling::index_to_axes(idx, self.order, 3);
        Point3::new(c[0], c[1], c[2])
    }

    fn name(&self) -> &'static str {
        "Hilbert Curve 3D"
    }
}

/// Identifies one of the supported 3-D curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Curve3dKind {
    /// 3-D Hilbert curve.
    Hilbert,
    /// 3-D Z-curve.
    ZCurve,
    /// 3-D Gray order.
    Gray,
    /// 3-D row-major order.
    RowMajor,
}

impl Curve3dKind {
    /// The four 3-D curves, mirroring the paper's 2-D set.
    pub const ALL: [Curve3dKind; 4] = [
        Curve3dKind::Hilbert,
        Curve3dKind::ZCurve,
        Curve3dKind::Gray,
        Curve3dKind::RowMajor,
    ];

    /// Instantiate the curve at order `k` behind a trait object.
    pub fn curve(self, order: u32) -> Box<dyn Curve3d + Send + Sync> {
        match self {
            Curve3dKind::Hilbert => Box::new(Hilbert3d::new(order)),
            Curve3dKind::ZCurve => Box::new(ZCurve3d::new(order)),
            Curve3dKind::Gray => Box::new(GrayCurve3d::new(order)),
            Curve3dKind::RowMajor => Box::new(RowMajor3d::new(order)),
        }
    }

    /// Short display name.
    pub fn short_name(self) -> &'static str {
        match self {
            Curve3dKind::Hilbert => "Hilbert",
            Curve3dKind::ZCurve => "Z",
            Curve3dKind::Gray => "Gray",
            Curve3dKind::RowMajor => "RowMajor",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread3_gather3_round_trip() {
        for v in [0u32, 1, 2, 0xFF, 0x1F_FFFF] {
            assert_eq!(gather3(spread3(v)), v);
        }
    }

    #[test]
    fn morton3_round_trip() {
        for (x, y, z) in [(0, 0, 0), (1, 2, 3), (100, 200, 300), (0x1F_FFFF, 0, 7)] {
            assert_eq!(morton3_decode(morton3_encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn all_3d_curves_are_bijections() {
        let order = 2u32;
        for kind in Curve3dKind::ALL {
            let c = kind.curve(order);
            let mut seen = vec![false; c.len() as usize];
            for idx in 0..c.len() {
                let p = c.point(idx);
                assert_eq!(c.index(p), idx, "{}", c.name());
                let flat = ((p.z as usize * 4) + p.y as usize) * 4 + p.x as usize;
                assert!(!seen[flat]);
                seen[flat] = true;
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn hilbert3d_unit_steps() {
        let h = Hilbert3d::new(3);
        let mut prev = h.point(0);
        for idx in 1..h.len() {
            let cur = h.point(idx);
            assert_eq!(prev.manhattan(cur), 1, "step at {idx}");
            prev = cur;
        }
    }

    #[test]
    fn gray3d_single_axis_steps() {
        let g = GrayCurve3d::new(2);
        for idx in 0..g.len() - 1 {
            let a = g.point(idx);
            let b = g.point(idx + 1);
            let axes_changed = [a.x != b.x, a.y != b.y, a.z != b.z]
                .iter()
                .filter(|&&c| c)
                .count();
            assert_eq!(axes_changed, 1);
        }
    }

    #[test]
    fn point3_distances() {
        let a = Point3::new(1, 2, 3);
        let b = Point3::new(4, 0, 3);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(a.chebyshev(b), 3);
    }
}
