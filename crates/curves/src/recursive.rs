//! Literal recursive constructions of the paper's curves.
//!
//! Section II-A of the paper defines each curve by recursion: `H_{k+1}`
//! (resp. `Z_{k+1}`, `G_{k+1}`) consists of four transformed copies of the
//! order-`k` curve arranged in a 2 × 2 grid. The paper notes that direct bit
//! manipulation is more efficient computationally, but the recursive
//! constructions are the *definitions*; this module implements them verbatim
//! and the test suite uses them as executable specifications for the
//! bit-twiddled implementations in the sibling modules.
//!
//! All functions return the full visit sequence (`Vec<Point2>` of length
//! `4^k`), so they are only usable at small orders — exactly their role as
//! reference oracles.

use crate::{CurveKind, Point2};

/// The order-`k` Hilbert curve as an explicit visit sequence, built by the
/// paper's recursion: four copies of `H_{k-1}` with the lower-left copy
/// transposed and the lower-right copy anti-transposed so entry and exit
/// points align.
pub fn hilbert_sequence(order: u32) -> Vec<Point2> {
    assert!(
        (1..=12).contains(&order),
        "recursive oracle limited to order <= 12"
    );
    fn go(k: u32) -> Vec<Point2> {
        if k == 0 {
            return vec![Point2::new(0, 0)];
        }
        let sub = go(k - 1);
        let h = 1u32 << (k - 1);
        let mut out = Vec::with_capacity(sub.len() * 4);
        // Quadrant 1 (lower-left): transpose.
        out.extend(sub.iter().map(|p| Point2::new(p.y, p.x)));
        // Quadrant 2 (upper-left): identity, shifted up.
        out.extend(sub.iter().map(|p| Point2::new(p.x, p.y + h)));
        // Quadrant 3 (upper-right): identity, shifted up and right.
        out.extend(sub.iter().map(|p| Point2::new(p.x + h, p.y + h)));
        // Quadrant 4 (lower-right): anti-transpose, shifted right.
        out.extend(
            sub.iter()
                .map(|p| Point2::new(h - 1 - p.y + h, h - 1 - p.x)),
        );
        out
    }
    go(order)
}

/// The order-`k` Z-curve as an explicit visit sequence: four untransformed
/// copies of `Z_{k-1}` visited lower-left, lower-right, upper-left,
/// upper-right.
pub fn z_sequence(order: u32) -> Vec<Point2> {
    assert!(
        (1..=12).contains(&order),
        "recursive oracle limited to order <= 12"
    );
    fn go(k: u32) -> Vec<Point2> {
        if k == 0 {
            return vec![Point2::new(0, 0)];
        }
        let sub = go(k - 1);
        let h = 1u32 << (k - 1);
        let mut out = Vec::with_capacity(sub.len() * 4);
        out.extend(sub.iter().copied());
        out.extend(sub.iter().map(|p| Point2::new(p.x + h, p.y)));
        out.extend(sub.iter().map(|p| Point2::new(p.x, p.y + h)));
        out.extend(sub.iter().map(|p| Point2::new(p.x + h, p.y + h)));
        out
    }
    go(order)
}

/// The order-`k` Gray order as an explicit visit sequence: quadrants visited
/// lower-left, lower-right, upper-right, upper-left (the Gray sequence of
/// the quadrant bits), with the 2nd and 4th copies traversed *in reverse* —
/// the reflection property of the binary reflected Gray code,
/// `gray(M-1-j) = gray(j) ⊕ M/2`. This reversal is what the paper describes
/// as the 180° rotation of the upper copies.
pub fn gray_sequence(order: u32) -> Vec<Point2> {
    assert!(
        (1..=12).contains(&order),
        "recursive oracle limited to order <= 12"
    );
    fn go(k: u32) -> Vec<Point2> {
        if k == 0 {
            return vec![Point2::new(0, 0)];
        }
        let sub = go(k - 1);
        let h = 1u32 << (k - 1);
        let mut out = Vec::with_capacity(sub.len() * 4);
        // LL: untouched.
        out.extend(sub.iter().copied());
        // LR: reversed.
        out.extend(sub.iter().rev().map(|p| Point2::new(p.x + h, p.y)));
        // UR: untouched.
        out.extend(sub.iter().map(|p| Point2::new(p.x + h, p.y + h)));
        // UL: reversed.
        out.extend(sub.iter().rev().map(|p| Point2::new(p.x, p.y + h)));
        out
    }
    go(order)
}

/// The order-`k` row-major order as an explicit visit sequence.
pub fn row_major_sequence(order: u32) -> Vec<Point2> {
    assert!((1..=12).contains(&order));
    let side = 1u32 << order;
    let mut out = Vec::with_capacity((side as usize) * (side as usize));
    for y in 0..side {
        for x in 0..side {
            out.push(Point2::new(x, y));
        }
    }
    out
}

/// The reference sequence for any of the paper's four curves.
pub fn reference_sequence(kind: CurveKind, order: u32) -> Option<Vec<Point2>> {
    match kind {
        CurveKind::Hilbert => Some(hilbert_sequence(order)),
        CurveKind::ZCurve => Some(z_sequence(order)),
        CurveKind::Gray => Some(gray_sequence(order)),
        CurveKind::RowMajor => Some(row_major_sequence(order)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_against_bit_twiddled(kind: CurveKind, max_order: u32) {
        for order in 1..=max_order {
            let seq = reference_sequence(kind, order).unwrap();
            let curve = kind.curve(order);
            assert_eq!(seq.len() as u64, curve.len());
            for (idx, &p) in seq.iter().enumerate() {
                assert_eq!(
                    curve.point(idx as u64),
                    p,
                    "{kind} order {order}: index {idx}"
                );
                assert_eq!(curve.index(p), idx as u64);
            }
        }
    }

    #[test]
    fn hilbert_recursion_matches_bit_twiddled() {
        check_against_bit_twiddled(CurveKind::Hilbert, 7);
    }

    #[test]
    fn z_recursion_matches_bit_twiddled() {
        check_against_bit_twiddled(CurveKind::ZCurve, 7);
    }

    #[test]
    fn gray_recursion_matches_bit_twiddled() {
        check_against_bit_twiddled(CurveKind::Gray, 7);
    }

    #[test]
    fn row_major_matches_bit_twiddled() {
        check_against_bit_twiddled(CurveKind::RowMajor, 7);
    }

    #[test]
    fn extension_curves_have_no_recursive_oracle() {
        assert!(reference_sequence(CurveKind::Boustrophedon, 2).is_none());
        assert!(reference_sequence(CurveKind::ColumnMajor, 2).is_none());
    }

    #[test]
    fn hilbert_sequence_entry_and_exit() {
        // H_k enters at the origin and exits at the lower-right corner; the
        // recursion preserves this at every order.
        for order in 1..=6 {
            let seq = hilbert_sequence(order);
            let side = 1u32 << order;
            assert_eq!(seq[0], Point2::new(0, 0));
            assert_eq!(*seq.last().unwrap(), Point2::new(side - 1, 0));
        }
    }
}
