//! The Moore curve — the *closed* variant of the Hilbert curve.
//!
//! An extension beyond the paper's four curves: the Moore curve visits every
//! cell of the grid in unit steps like the Hilbert curve, but its last cell
//! is adjacent to its first, forming a closed tour. On a **torus** — whose
//! wrap-around links reward cyclic layouts — a closed curve is the natural
//! candidate for processor ranking, so the extension study can ask whether
//! closing the loop buys anything under the ACD metric.
//!
//! Construction: four copies of `H_{k−1}`, the left pair rotated 90° CCW and
//! stacked, the right pair rotated 90° CW, so the exits chain LL → UL → UR →
//! LR → LL.

use crate::hilbert::{hilbert_index, hilbert_point};
use crate::{check_order, Curve2d, Point2};

/// Moore-curve index of `p` on a grid of the given `order`.
pub fn moore_index(order: u32, p: Point2) -> u64 {
    if order == 1 {
        // Base cycle: (0,0) -> (0,1) -> (1,1) -> (1,0).
        return match (p.x, p.y) {
            (0, 0) => 0,
            (0, 1) => 1,
            (1, 1) => 2,
            _ => 3,
        };
    }
    let h = 1u32 << (order - 1);
    let (x, y) = (p.x, p.y);
    let (rank, lx, ly) = match ((x >= h) as u8, (y >= h) as u8) {
        (0, 0) => (0u64, x, y),      // LL, CCW copy
        (0, 1) => (1, x, y - h),     // UL, CCW copy
        (1, 1) => (2, x - h, y - h), // UR, CW copy
        _ => (3, x - h, y),          // LR, CW copy
    };
    // Invert the quadrant transform to recover Hilbert-space coordinates.
    let (hx, hy) = if rank < 2 {
        // T(x, y) = (h−1−y, x)  ⇒  T⁻¹(X, Y) = (Y, h−1−X)
        (ly, h - 1 - lx)
    } else {
        // T(x, y) = (y, h−1−x)  ⇒  T⁻¹(X, Y) = (h−1−Y, X)
        (h - 1 - ly, lx)
    };
    let quarter = 1u64 << (2 * (order - 1));
    rank * quarter + hilbert_index(order - 1, Point2::new(hx, hy))
}

/// The grid cell at Moore position `idx`.
pub fn moore_point(order: u32, idx: u64) -> Point2 {
    if order == 1 {
        return match idx {
            0 => Point2::new(0, 0),
            1 => Point2::new(0, 1),
            2 => Point2::new(1, 1),
            _ => Point2::new(1, 0),
        };
    }
    let h = 1u32 << (order - 1);
    let quarter = 1u64 << (2 * (order - 1));
    let rank = idx / quarter;
    let sub = hilbert_point(order - 1, idx % quarter);
    let (lx, ly) = if rank < 2 {
        (h - 1 - sub.y, sub.x)
    } else {
        (sub.y, h - 1 - sub.x)
    };
    match rank {
        0 => Point2::new(lx, ly),
        1 => Point2::new(lx, ly + h),
        2 => Point2::new(lx + h, ly + h),
        _ => Point2::new(lx + h, ly),
    }
}

/// The Moore curve of a given order.
///
/// ```
/// use sfc_curves::{Curve2d, moore::MooreCurve};
/// let m = MooreCurve::new(4);
/// // Closed tour: the last cell neighbors the first.
/// let first = m.point(0);
/// let last = m.point(m.len() - 1);
/// assert_eq!(first.manhattan(last), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MooreCurve {
    order: u32,
}

impl MooreCurve {
    /// Create a Moore curve over a `2^order × 2^order` grid.
    pub fn new(order: u32) -> Self {
        check_order(order);
        MooreCurve { order }
    }
}

impl Curve2d for MooreCurve {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point2) -> u64 {
        debug_assert!(p.in_grid(self.side()));
        moore_index(self.order, p)
    }

    #[inline]
    fn point(&self, idx: u64) -> Point2 {
        debug_assert!(idx < self.len());
        moore_point(self.order, idx)
    }

    fn name(&self) -> &'static str {
        "Moore Curve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exhaustive_small_orders() {
        for order in 1..=6 {
            let m = MooreCurve::new(order);
            let mut seen = vec![false; m.len() as usize];
            for idx in 0..m.len() {
                let p = m.point(idx);
                assert_eq!(m.index(p), idx, "order {order} idx {idx}");
                let flat = (p.y as u64 * m.side() + p.x as u64) as usize;
                assert!(!seen[flat], "cell {p} visited twice");
                seen[flat] = true;
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn unit_steps_everywhere() {
        for order in 1..=6 {
            let m = MooreCurve::new(order);
            for idx in 0..m.len() - 1 {
                assert_eq!(
                    m.point(idx).manhattan(m.point(idx + 1)),
                    1,
                    "order {order} step {idx}"
                );
            }
        }
    }

    #[test]
    fn curve_is_closed() {
        for order in 1..=7 {
            let m = MooreCurve::new(order);
            assert_eq!(
                m.point(0).manhattan(m.point(m.len() - 1)),
                1,
                "order {order} not closed"
            );
        }
    }

    #[test]
    fn quadrant_visit_order() {
        let m = MooreCurve::new(3);
        let quarter = m.len() / 4;
        // First quarter in LL, second in UL, third in UR, fourth in LR.
        for i in 0..quarter {
            let p = m.point(i);
            assert!(p.x < 4 && p.y < 4, "idx {i} -> {p}");
            let p = m.point(i + quarter);
            assert!(p.x < 4 && p.y >= 4);
            let p = m.point(i + 2 * quarter);
            assert!(p.x >= 4 && p.y >= 4);
            let p = m.point(i + 3 * quarter);
            assert!(p.x >= 4 && p.y < 4);
        }
    }

    #[test]
    fn wraparound_distance_on_torus_is_one_everywhere() {
        // The closed property in the form the ACD study uses: consecutive
        // ranks (cyclically) are adjacent, so a ring pattern mapped onto a
        // torus via the Moore curve pays exactly 1 hop per message.
        let order = 4;
        let m = MooreCurve::new(order);
        let len = m.len();
        for idx in 0..len {
            let a = m.point(idx);
            let b = m.point((idx + 1) % len);
            assert_eq!(a.manhattan(b), 1);
        }
    }
}
