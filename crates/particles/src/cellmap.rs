//! A flat open-addressing hash map for grid cells.
//!
//! The inner loops of the ACD model look up "is there a particle in cell
//! `(x, y)`, and which processor owns it?" tens of millions of times per
//! trial. A general-purpose `HashMap` pays for SipHash and bucket
//! indirection on every probe; [`CellMap`] instead uses Fibonacci hashing
//! over a power-of-two table of `(key, value)` pairs with linear probing —
//! one multiply and (usually) one cache line per hit.
//!
//! Keys are arbitrary `u64`s except the reserved sentinel `u64::MAX`;
//! callers pack cell coordinates as `(y << 32) | x` or use Morton codes.
//! The map is insert-only — exactly the lifecycle of a per-trial index —
//! which keeps probing correct without tombstones.

/// Reserved key marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// Multiplicative (Fibonacci) hashing constant: `2^64 / φ` rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// An insert-only open-addressing map from `u64` keys to `u32` values.
#[derive(Debug, Clone)]
pub struct CellMap {
    keys: Vec<u64>,
    values: Vec<u32>,
    mask: usize,
    shift: u32,
    len: usize,
}

impl CellMap {
    /// Create a map that can hold at least `capacity` entries without
    /// exceeding ~50% load.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        CellMap {
            keys: vec![EMPTY; slots],
            values: vec![0; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the slot arrays: 12 per slot.
    pub fn table_bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize & self.mask
    }

    /// Insert `key -> value`. Returns the previous value if the key was
    /// already present (and leaves the stored value unchanged in that case —
    /// the ACD model's "lowest rank owns the cell" convention inserts in
    /// rank order and keeps the first write).
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX` (reserved) or if the map would exceed
    /// ~90% load — callers size maps up front from the particle count.
    pub fn insert_first(&mut self, key: u64, value: u32) -> Option<u32> {
        assert_ne!(key, EMPTY, "u64::MAX is a reserved key");
        assert!(
            (self.len + 1) * 10 <= self.keys.len() * 9,
            "CellMap over capacity: size it from the particle count up front"
        );
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == EMPTY {
                self.keys[slot] = key;
                self.values[slot] = value;
                self.len += 1;
                return None;
            }
            if k == key {
                return Some(self.values[slot]);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Insert `key -> value`, keeping the *minimum* value on collision.
    /// Returns the value now stored for the key.
    pub fn insert_min(&mut self, key: u64, value: u32) -> u32 {
        assert_ne!(key, EMPTY, "u64::MAX is a reserved key");
        assert!(
            (self.len + 1) * 10 <= self.keys.len() * 9,
            "CellMap over capacity: size it from the particle count up front"
        );
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == EMPTY {
                self.keys[slot] = key;
                self.values[slot] = value;
                self.len += 1;
                return value;
            }
            if k == key {
                if value < self.values[slot] {
                    self.values[slot] = value;
                }
                return self.values[slot];
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(self.values[slot]);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.values)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }
}

/// Pack cell coordinates into a `CellMap` key.
#[inline]
pub fn pack_cell(x: u32, y: u32) -> u64 {
    ((y as u64) << 32) | x as u64
}

/// Unpack a `CellMap` key into cell coordinates.
#[inline]
pub fn unpack_cell(key: u64) -> (u32, u32) {
    (key as u32, (key >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut m = CellMap::with_capacity(8);
        assert!(m.is_empty());
        assert_eq!(m.insert_first(10, 1), None);
        assert_eq!(m.insert_first(20, 2), None);
        assert_eq!(m.get(10), Some(1));
        assert_eq!(m.get(20), Some(2));
        assert_eq!(m.get(30), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_first_keeps_original() {
        let mut m = CellMap::with_capacity(8);
        m.insert_first(5, 7);
        assert_eq!(m.insert_first(5, 9), Some(7));
        assert_eq!(m.get(5), Some(7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_min_keeps_minimum() {
        let mut m = CellMap::with_capacity(8);
        assert_eq!(m.insert_min(5, 7), 7);
        assert_eq!(m.insert_min(5, 3), 3);
        assert_eq!(m.insert_min(5, 9), 3);
        assert_eq!(m.get(5), Some(3));
    }

    #[test]
    fn survives_heavy_collisions() {
        // Keys in arithmetic progression stress linear probing.
        let n = 10_000u64;
        let mut m = CellMap::with_capacity(n as usize);
        for i in 0..n {
            m.insert_first(i * 64, i as u32);
        }
        for i in 0..n {
            assert_eq!(m.get(i * 64), Some(i as u32));
            assert_eq!(m.get(i * 64 + 1), None);
        }
        assert_eq!(m.len(), n as usize);
    }

    #[test]
    fn matches_std_hashmap_on_random_workload() {
        use std::collections::HashMap;
        let mut m = CellMap::with_capacity(2000);
        let mut reference = HashMap::new();
        // Deterministic pseudo-random keys.
        let mut state = 0x1234_5678_u64;
        for i in 0..2000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state % 1500; // force some duplicates
            m.insert_min(key, i);
            let e = reference.entry(key).or_insert(i);
            *e = (*e).min(i);
        }
        for (k, v) in &reference {
            assert_eq!(m.get(*k), Some(*v));
        }
        assert_eq!(m.len(), reference.len());
        let mut collected: Vec<_> = m.iter().collect();
        collected.sort_unstable();
        let mut expected: Vec<_> = reference.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(collected, expected);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (x, y) in [(0u32, 0u32), (5, 9), (u32::MAX - 1, 7), (4095, 4095)] {
            assert_eq!(unpack_cell(pack_cell(x, y)), (x, y));
        }
    }

    #[test]
    #[should_panic(expected = "reserved key")]
    fn sentinel_key_rejected() {
        let mut m = CellMap::with_capacity(4);
        m.insert_first(u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn overload_rejected() {
        let mut m = CellMap::with_capacity(4);
        for i in 0..32 {
            m.insert_first(i, 0);
        }
    }
}
