//! Skilling's n-dimensional Hilbert transform.
//!
//! John Skilling's algorithm (*Programming the Hilbert curve*, AIP Conf.
//! Proc. 707, 2004) maps between axis coordinates and the "transpose" form
//! of the Hilbert index in any number of dimensions, in `O(n · b)` bit
//! operations for `n` dimensions of `b` bits each.
//!
//! In this workspace it serves two purposes:
//!
//! 1. An *independent* implementation of a Hilbert-style curve used by the
//!    test suite to sanity-check structural properties (bijectivity, unit
//!    steps) of the hand-rolled 2-D Hilbert code in [`crate::hilbert`].
//!    Note that Skilling's curve is a different *orientation* of the Hilbert
//!    curve, so indices are not expected to agree bit-for-bit — only the
//!    geometric structure matches.
//! 2. The 3-D Hilbert curve backing [`crate::curve3d::Hilbert3d`], for the
//!    paper's future-work item (ii) on extending the analysis to 3-D.

/// Convert axis coordinates (each `bits` wide) into the Hilbert index.
///
/// Supports any dimension `n ≥ 1` with `n * bits ≤ 63` so the result fits a
/// `u64`.
pub fn axes_to_index(coords: &[u32], bits: u32) -> u64 {
    let n = coords.len();
    assert!(n >= 1, "at least one dimension required");
    assert!(
        (n as u32) * bits <= 63,
        "n * bits = {} exceeds the 63-bit index budget",
        n as u32 * bits
    );
    let mut x: Vec<u32> = coords.to_vec();
    axes_to_transpose(&mut x, bits);
    transpose_to_index(&x, bits)
}

/// Convert a Hilbert index back into axis coordinates.
pub fn index_to_axes(index: u64, bits: u32, dims: usize) -> Vec<u32> {
    assert!(dims >= 1);
    assert!((dims as u32) * bits <= 63);
    let mut x = index_to_transpose(index, bits, dims);
    transpose_to_axes(&mut x, bits);
    x
}

/// In-place conversion from axis coordinates to Skilling's transpose form.
pub fn axes_to_transpose(x: &mut [u32], bits: u32) {
    let n = x.len();
    if bits == 0 {
        return;
    }
    let m: u32 = 1 << (bits - 1);
    // Inverse undo: peel off the rotations level by level, top-down.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of the first axis
            } else {
                let t = (x[0] ^ x[i]) & p; // exchange low bits of axes 0 and i
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

/// In-place conversion from Skilling's transpose form to axis coordinates.
pub fn transpose_to_axes(x: &mut [u32], bits: u32) {
    let n = x.len();
    if bits == 0 {
        return;
    }
    let big_n: u32 = 2 << (bits - 1);
    // Gray decode by H ^ (H/2).
    let t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work, bottom-up.
    let mut q: u32 = 2;
    while q != big_n {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Pack the transpose form into a single linear index: the transpose stores
/// bit `j` of the index (counted from the top) in word `j mod n`, bit
/// `bits - 1 - j / n`.
pub fn transpose_to_index(x: &[u32], bits: u32) -> u64 {
    let n = x.len();
    let mut index: u64 = 0;
    for level in (0..bits).rev() {
        for word in x.iter().take(n) {
            index = (index << 1) | u64::from((word >> level) & 1);
        }
    }
    index
}

/// Inverse of [`transpose_to_index`].
pub fn index_to_transpose(index: u64, bits: u32, dims: usize) -> Vec<u32> {
    let mut x = vec![0u32; dims];
    let total = bits as usize * dims;
    for j in 0..total {
        let bit = (index >> (total - 1 - j)) & 1;
        let word = j % dims;
        let level = bits - 1 - (j / dims) as u32;
        x[word] |= (bit as u32) << level;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_packing_round_trip() {
        for idx in 0..4096u64 {
            let t = index_to_transpose(idx, 4, 3);
            assert_eq!(transpose_to_index(&t, 4), idx);
        }
    }

    #[test]
    fn round_trip_2d() {
        for bits in 1..=5u32 {
            let side = 1u32 << bits;
            for x in 0..side {
                for y in 0..side {
                    let idx = axes_to_index(&[x, y], bits);
                    assert_eq!(index_to_axes(idx, bits, 2), vec![x, y]);
                }
            }
        }
    }

    #[test]
    fn round_trip_3d() {
        let bits = 3u32;
        let side = 1u32 << bits;
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let idx = axes_to_index(&[x, y, z], bits);
                    assert_eq!(index_to_axes(idx, bits, 3), vec![x, y, z]);
                }
            }
        }
    }

    #[test]
    fn bijective_2d() {
        let bits = 4u32;
        let len = 1u64 << (2 * bits);
        let mut seen = vec![false; len as usize];
        for idx in 0..len {
            let c = index_to_axes(idx, bits, 2);
            let flat = (c[1] as usize) * (1 << bits) + c[0] as usize;
            assert!(!seen[flat]);
            seen[flat] = true;
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn unit_steps_2d() {
        // Consecutive indices differ by exactly one unit in exactly one axis
        // — the Hilbert property, independent of orientation.
        let bits = 5u32;
        let len = 1u64 << (2 * bits);
        let mut prev = index_to_axes(0, bits, 2);
        for idx in 1..len {
            let cur = index_to_axes(idx, bits, 2);
            let d: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(d, 1, "index {idx}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn unit_steps_3d() {
        let bits = 3u32;
        let len = 1u64 << (3 * bits);
        let mut prev = index_to_axes(0, bits, 3);
        for idx in 1..len {
            let cur = index_to_axes(idx, bits, 3);
            let d: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(d, 1, "index {idx}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn unit_steps_4d() {
        let bits = 2u32;
        let len = 1u64 << (4 * bits);
        let mut prev = index_to_axes(0, bits, 4);
        for idx in 1..len {
            let cur = index_to_axes(idx, bits, 4);
            let d: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(d, 1);
            prev = cur;
        }
    }

    #[test]
    fn one_dimension_is_identity() {
        for idx in 0..32u64 {
            assert_eq!(index_to_axes(idx, 5, 1), vec![idx as u32]);
            assert_eq!(axes_to_index(&[idx as u32], 5), idx);
        }
    }
}
