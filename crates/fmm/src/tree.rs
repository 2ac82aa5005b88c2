//! The uniform quadtree the solver runs on.
//!
//! Sources live in the unit square; the tree refines it uniformly to a leaf
//! level `L` (so the leaves are the `4^L` cells of a `2^L × 2^L` grid, of
//! which only occupied ones are stored). Sources are sorted by the Morton
//! code of their leaf — i.e. ordered by the Z-curve, the same particle
//! ordering the ACD model studies — so every tree node owns one contiguous
//! slice of the source array.
//!
//! The tree also names the cell pairs the solver's translations run over:
//! [`Level::parent`] for M2M and L2L, [`FmmTree::interaction_partners`] for
//! M2L and [`FmmTree::near_leaves`] for the P2P near field. These are the
//! pairs the ACD far- and near-field models count.

use crate::{Complex, Source};
use sfc_curves::morton;
use sfc_quadtree::{interaction_list, Cell};
use std::collections::HashMap;
use std::ops::Range;

/// One resolution level of the tree: the occupied cells and their links.
#[derive(Debug, Clone)]
pub struct Level {
    /// Resolution level (0 = root).
    pub level: u32,
    /// Morton codes of the occupied cells, ascending.
    pub codes: Vec<u64>,
    /// Code → index in `codes`.
    pub index: HashMap<u64, usize>,
    /// For each cell, its parent's index in the coarser level (unused at
    /// the root).
    pub parent: Vec<usize>,
    /// For each cell, the source range it owns.
    pub range: Vec<Range<usize>>,
    /// Geometric center of each cell.
    pub center: Vec<Complex>,
}

impl Level {
    /// Number of occupied cells at this level.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the level holds no cells.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The [`Cell`] geometry of the `i`-th occupied cell.
    pub fn cell(&self, i: usize) -> Cell {
        Cell::from_code(self.level, self.codes[i])
    }
}

/// A uniform FMM quadtree with sources sorted into its leaves.
#[derive(Debug, Clone)]
pub struct FmmTree {
    /// Leaf level `L`.
    pub depth: u32,
    /// Sources, sorted by leaf Morton code.
    pub sources: Vec<Source>,
    /// `input_index[i]`: the position of `sources[i]` in the slice the
    /// tree was built from. Sources sharing a leaf keep their input order.
    pub input_index: Vec<usize>,
    /// Levels `0 ..= depth`.
    pub levels: Vec<Level>,
}

/// Center of cell `(cx, cy)` at `level` in the unit square.
fn cell_center(level: u32, cx: u32, cy: u32) -> Complex {
    let w = 1.0 / (1u64 << level) as f64;
    Complex::new((cx as f64 + 0.5) * w, (cy as f64 + 0.5) * w)
}

impl FmmTree {
    /// Build the tree at leaf level `depth` (1 ..= 26).
    ///
    /// # Panics
    ///
    /// Panics if any source lies outside `[0, 1)²`.
    pub fn build(sources: &[Source], depth: u32) -> Self {
        assert!((1..=26).contains(&depth), "depth out of range: {depth}");
        assert!(!sources.is_empty(), "at least one source required");
        let side = (1u64 << depth) as f64;
        let mut keyed: Vec<(u64, usize)> = sources
            .iter()
            .enumerate()
            .map(|(i, s)| {
                assert!(
                    s.pos.re >= 0.0 && s.pos.re < 1.0 && s.pos.im >= 0.0 && s.pos.im < 1.0,
                    "source at {} outside the unit square",
                    s.pos
                );
                let cx = (s.pos.re * side) as u32;
                let cy = (s.pos.im * side) as u32;
                (morton::encode(cx, cy), i)
            })
            .collect();
        keyed.sort_by_key(|&(code, _)| code);
        let input_index: Vec<usize> = keyed.iter().map(|&(_, i)| i).collect();
        let sorted: Vec<Source> = input_index.iter().map(|&i| sources[i]).collect();

        // Leaf level: unique codes and ranges.
        let mut levels_rev: Vec<Level> = Vec::with_capacity(depth as usize + 1);
        let mut codes = Vec::new();
        let mut range = Vec::new();
        let mut start = 0usize;
        for i in 0..keyed.len() {
            if i + 1 == keyed.len() || keyed[i + 1].0 != keyed[i].0 {
                codes.push(keyed[i].0);
                range.push(start..i + 1);
                start = i + 1;
            }
        }
        levels_rev.push(Self::make_level(depth, codes, range));

        // Coarser levels by reduction.
        for level in (0..depth).rev() {
            let finer = levels_rev.last().unwrap();
            let mut codes = Vec::new();
            let mut range: Vec<Range<usize>> = Vec::new();
            for (i, &code) in finer.codes.iter().enumerate() {
                let pcode = code >> 2;
                if codes.last() == Some(&pcode) {
                    let last = range.last_mut().unwrap();
                    last.end = finer.range[i].end;
                } else {
                    codes.push(pcode);
                    range.push(finer.range[i].clone());
                }
            }
            levels_rev.push(Self::make_level(level, codes, range));
        }
        levels_rev.reverse();
        let mut tree = FmmTree {
            depth,
            sources: sorted,
            input_index,
            levels: levels_rev,
        };
        // Parent links.
        for l in 1..=depth as usize {
            let (coarse, fine) = {
                let (a, b) = tree.levels.split_at_mut(l);
                (&a[l - 1], &mut b[0])
            };
            for (i, &code) in fine.codes.iter().enumerate() {
                fine.parent[i] = coarse.index[&(code >> 2)];
            }
        }
        tree
    }

    fn make_level(level: u32, codes: Vec<u64>, range: Vec<Range<usize>>) -> Level {
        let index: HashMap<u64, usize> = codes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let center = codes
            .iter()
            .map(|&c| {
                let (cx, cy) = morton::decode(c);
                cell_center(level, cx, cy)
            })
            .collect();
        let parent = vec![0; codes.len()];
        Level {
            level,
            codes,
            index,
            parent,
            range,
            center,
        }
    }

    /// Pick a leaf depth so the average occupied leaf holds roughly
    /// `per_leaf` sources (clamped to `1..=12`).
    pub fn auto_depth(n: usize, per_leaf: usize) -> u32 {
        let per_leaf = per_leaf.max(1);
        let mut depth = 1u32;
        while (1usize << (2 * depth)) * per_leaf < n && depth < 12 {
            depth += 1;
        }
        depth
    }

    /// The leaf level.
    pub fn leaves(&self) -> &Level {
        &self.levels[self.depth as usize]
    }

    /// Indices of the occupied cells of `i`'s interaction list at `level`,
    /// in list order: the cells whose multipoles M2L translates into `i`'s
    /// local expansion.
    pub fn interaction_partners(&self, level: u32, i: usize) -> impl Iterator<Item = usize> + '_ {
        let level = &self.levels[level as usize];
        let cells = interaction_list(level.cell(i)).into_iter();
        cells.filter_map(move |c| level.index.get(&c.code()).copied())
    }

    /// Indices of the occupied Chebyshev-1 neighbors of leaf `i`, in
    /// [`Cell::neighbors`] order: the leaves whose sources P2P sums
    /// directly at `i`'s sources, besides `i`'s own.
    pub fn near_leaves(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let leaves = self.leaves();
        let cells = leaves.cell(i).neighbors().into_iter();
        cells.filter_map(move |c| leaves.index.get(&c.code()).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_sources(side: usize) -> Vec<Source> {
        // One source per cell center of a side×side grid.
        let mut v = Vec::new();
        for y in 0..side {
            for x in 0..side {
                v.push(Source::new(
                    (x as f64 + 0.5) / side as f64,
                    (y as f64 + 0.5) / side as f64,
                    1.0,
                ));
            }
        }
        v
    }

    #[test]
    fn full_grid_fills_every_leaf() {
        let tree = FmmTree::build(&grid_sources(8), 3);
        assert_eq!(tree.leaves().len(), 64);
        for l in 0..=3u32 {
            assert_eq!(tree.levels[l as usize].len(), 1usize << (2 * l));
        }
    }

    #[test]
    fn ranges_partition_the_sources() {
        let tree = FmmTree::build(&grid_sources(8), 3);
        for level in &tree.levels {
            let total: usize = level.range.iter().map(|r| r.len()).sum();
            assert_eq!(total, tree.sources.len());
            // Ranges are consecutive and disjoint.
            for w in level.range.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert_eq!(level.range.first().unwrap().start, 0);
            assert_eq!(level.range.last().unwrap().end, tree.sources.len());
        }
    }

    #[test]
    fn parents_contain_children() {
        let tree = FmmTree::build(&grid_sources(8), 3);
        for l in 1..=3usize {
            let fine = &tree.levels[l];
            let coarse = &tree.levels[l - 1];
            for i in 0..fine.len() {
                let p = fine.parent[i];
                assert!(coarse.cell(p).contains(fine.cell(i)));
                // Source range nesting.
                let pr = &coarse.range[p];
                let fr = &fine.range[i];
                assert!(pr.start <= fr.start && fr.end <= pr.end);
            }
        }
    }

    #[test]
    fn sources_sorted_into_their_leaf() {
        let sources = vec![
            Source::new(0.9, 0.9, 1.0),
            Source::new(0.1, 0.1, 1.0),
            Source::new(0.12, 0.08, 1.0),
        ];
        let tree = FmmTree::build(&sources, 2);
        assert_eq!(tree.input_index, [1, 2, 0]);
        for (sorted, &input) in tree.sources.iter().zip(&tree.input_index) {
            assert_eq!(*sorted, sources[input]);
        }
        let leaves = tree.leaves();
        assert_eq!(leaves.len(), 2);
        // The two nearby sources share the leaf holding range of length 2.
        let sizes: Vec<usize> = leaves.range.iter().map(|r| r.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
        // Every source is inside its leaf cell's box.
        for (i, r) in leaves.range.iter().enumerate() {
            let cell = leaves.cell(i);
            let w = 1.0 / cell.level_side() as f64;
            for s in &tree.sources[r.clone()] {
                assert!(s.pos.re >= cell.x as f64 * w && s.pos.re < (cell.x + 1) as f64 * w);
                assert!(s.pos.im >= cell.y as f64 * w && s.pos.im < (cell.y + 1) as f64 * w);
            }
        }
    }

    #[test]
    fn centers_are_in_cells() {
        let tree = FmmTree::build(&grid_sources(4), 2);
        for level in &tree.levels {
            for i in 0..level.len() {
                let cell = level.cell(i);
                let w = 1.0 / cell.level_side() as f64;
                let c = level.center[i];
                assert!((c.re - (cell.x as f64 + 0.5) * w).abs() < 1e-15);
                assert!((c.im - (cell.y as f64 + 0.5) * w).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn auto_depth_scales_with_n() {
        assert_eq!(FmmTree::auto_depth(10, 20), 1);
        let d = FmmTree::auto_depth(100_000, 20);
        assert!((5..=12).contains(&d));
        assert!(FmmTree::auto_depth(4_000_000, 1) <= 12);
    }

    #[test]
    #[should_panic(expected = "outside the unit square")]
    fn out_of_square_rejected() {
        let _ = FmmTree::build(&[Source::new(1.0, 0.5, 1.0)], 2);
    }
}
