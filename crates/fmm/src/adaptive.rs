//! Adaptive FMM on a 2:1-balanced quadtree.
//!
//! The uniform solver in [`crate::solver`] refines every region to the same
//! depth, which wastes an `O(4^L)` tree on clustered inputs. This module
//! implements the classic *adaptive* algorithm (Greengard & Rokhlin;
//! Carrier, Greengard & Rokhlin 1988): leaves subdivide only while they hold
//! more than `max_per_leaf` sources, the resulting linear quadtree is 2:1
//! balanced ([`sfc_quadtree::balance`] — the Sundar-Sampath-Biros refinement
//! the paper cites), and each box interacts through the four classical
//! lists:
//!
//! - **U** (leaf ↔ adjacent leaves, any level): direct P2P;
//! - **V** (same-level well-separated cousins): M2L, exactly the
//!   interaction lists of the uniform algorithm and of the paper's ACD
//!   far-field model;
//! - **W** (leaf ↔ smaller non-adjacent descendants of its colleagues):
//!   the small box's multipole evaluated at the leaf's points (M2P);
//! - **X** (dual of W): the small box receives the leaf's points directly
//!   into its local expansion (P2L).
//!
//! With 2:1 balance the U/W/X lists are O(1) per box, giving the usual
//! `O(n p²)` total. Accuracy is validated against direct summation on
//! heavily clustered inputs where the uniform tree would degenerate.

use crate::binomial::Binomials;
use crate::complex::{Complex, ONE};
use crate::operators::{eval_local, eval_multipole, l2l, m2l, m2m, p2m, p2p, Local, Multipole};
use crate::Source;
use sfc_quadtree::balance::LinearQuadtree;
use sfc_quadtree::{interaction_list, regions_touch, Cell};
use std::collections::HashMap;
use std::ops::Range;

/// Adaptive fast multipole solver.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveFmm {
    /// Expansion terms `p`.
    pub terms: usize,
    /// Split a leaf while it holds more than this many sources.
    pub max_per_leaf: usize,
    /// Hard refinement floor (maximum leaf level).
    pub max_level: u32,
}

impl AdaptiveFmm {
    /// A solver with `terms` expansion terms and default refinement policy.
    pub fn new(terms: usize) -> Self {
        assert!((1..=60).contains(&terms));
        AdaptiveFmm {
            terms,
            max_per_leaf: 30,
            max_level: 12,
        }
    }

    /// Evaluate `φ(zᵢ) = Σ_{j≠i} q_j ln|zᵢ − z_j|` at every source, in input
    /// order.
    pub fn potentials(&self, sources: &[Source]) -> Vec<f64> {
        let tree = AdaptiveTree::build(sources, self.max_per_leaf, self.max_level);
        let sorted_phi = self.run(&tree);
        let mut out = vec![0.0; sources.len()];
        for (sorted_pos, &orig) in tree.input_index.iter().enumerate() {
            out[orig] = sorted_phi[sorted_pos];
        }
        out
    }

    /// Run the pipeline on a prebuilt tree; results in the tree's source
    /// order.
    pub fn run(&self, tree: &AdaptiveTree) -> Vec<f64> {
        let p = self.terms;
        let bin = Binomials::new(2 * p + 2);
        let n_nodes = tree.nodes.len();

        // Upward: P2M at leaves, M2M into ancestors (nodes are sorted by
        // level; walk finest-to-coarsest).
        let mut multipoles: Vec<Multipole> =
            tree.center.iter().map(|&c| Multipole::zero(c, p)).collect();
        for idx in (0..n_nodes).rev() {
            let cell = tree.nodes[idx];
            if let Some(&leaf) = tree.leaf_of_cell.get(&cell) {
                multipoles[idx] = p2m(
                    &tree.sources[tree.leaf_range[leaf].clone()],
                    tree.center[idx],
                    p,
                );
            }
            if let Some(parent) = tree.parent[idx] {
                let shifted = m2m(&multipoles[idx], tree.center[parent], &bin);
                for k in 0..=p {
                    multipoles[parent].a[k] += shifted.a[k];
                }
            }
        }

        // Downward: locals in coarse-to-fine order.
        let mut locals: Vec<Local> = tree.center.iter().map(|&c| Local::zero(c, p)).collect();
        for idx in 0..n_nodes {
            let cell = tree.nodes[idx];
            // L2L from the parent.
            if let Some(parent) = tree.parent[idx] {
                let shifted = l2l(&locals[parent], tree.center[idx], &bin);
                for k in 0..=p {
                    locals[idx].b[k] += shifted.b[k];
                }
            }
            // V list: M2L from well-separated same-level nodes.
            for v in interaction_list(cell) {
                if let Some(&vi) = tree.node_of_cell.get(&v) {
                    let m = multipoles[vi].clone();
                    m2l(&m, &mut locals[idx], &bin);
                }
            }
            // X list: P2L from the sources of leaves that see this box in
            // their W list.
            for &leaf in &tree.x_list[idx] {
                p2l(
                    &tree.sources[tree.leaf_range[leaf].clone()],
                    &mut locals[idx],
                );
            }
        }

        // Leaf evaluation: local + U (P2P) + W (M2P).
        let mut phi = vec![0.0; tree.sources.len()];
        for (leaf, &cell) in tree.leaves.iter().enumerate() {
            let node = tree.node_of_cell[&cell];
            let range = tree.leaf_range[leaf].clone();
            if range.is_empty() {
                continue;
            }
            let u_ranges: Vec<Range<usize>> = tree.u_list[leaf]
                .iter()
                .map(|&l| tree.leaf_range[l].clone())
                .collect();
            for i in range.clone() {
                let z = tree.sources[i].pos;
                let mut v = eval_local(&locals[node], z);
                for r in &u_ranges {
                    v += p2p(&tree.sources[r.clone()], z);
                }
                for &w in &tree.w_list[leaf] {
                    v += eval_multipole(&multipoles[w], z);
                }
                phi[i] = v;
            }
        }
        phi
    }
}

/// P2L: accumulate the Taylor expansion of each source's potential about the
/// local center — `b_l += −(q/l)(−1/t)^l` with `t = center − z_src`,
/// `b_0 += q ln(t)`.
fn p2l(sources: &[Source], out: &mut Local) {
    let p = out.order();
    for s in sources {
        let t = out.center - s.pos;
        out.b[0] += t.ln().scale(s.charge);
        let f = t.recip().scale(-1.0);
        let mut pow = ONE;
        for l in 1..=p {
            pow *= f;
            out.b[l] += pow.scale(-s.charge / l as f64);
        }
    }
}

/// The adaptive tree plus all interaction lists.
pub struct AdaptiveTree {
    /// Complete, 2:1-balanced leaf partition.
    pub leaves: Vec<Cell>,
    /// All tree boxes (leaves and ancestors), sorted by (level, Morton).
    pub nodes: Vec<Cell>,
    /// Cell → node index.
    pub node_of_cell: HashMap<Cell, usize>,
    /// Cell → leaf index (leaves only).
    pub leaf_of_cell: HashMap<Cell, usize>,
    /// Parent node index per node (None for the root).
    pub parent: Vec<Option<usize>>,
    /// Geometric center per node.
    pub center: Vec<Complex>,
    /// Sources sorted by leaf order.
    pub sources: Vec<Source>,
    /// For result scatter: `input_index[i]` = original position of sorted
    /// source `i`.
    pub input_index: Vec<usize>,
    /// Source range per leaf.
    pub leaf_range: Vec<Range<usize>>,
    /// U list per leaf: adjacent leaves (including itself).
    pub u_list: Vec<Vec<usize>>,
    /// W list per leaf: node indices whose multipoles are evaluated at the
    /// leaf's points.
    pub w_list: Vec<Vec<usize>>,
    /// X list per node: leaf indices whose sources enter the node's local
    /// expansion directly.
    pub x_list: Vec<Vec<usize>>,
}

impl AdaptiveTree {
    /// Build the balanced adaptive tree and all lists.
    pub fn build(sources: &[Source], max_per_leaf: usize, max_level: u32) -> Self {
        assert!(!sources.is_empty());
        assert!(max_per_leaf >= 1);
        assert!((1..=20).contains(&max_level));
        // 1. Adaptive refinement: seed cells = occupied leaves of the
        // unbalanced point tree.
        let side = (1u64 << max_level) as f64;
        let cells: Vec<Cell> = sources
            .iter()
            .map(|s| {
                assert!(
                    s.pos.re >= 0.0 && s.pos.re < 1.0 && s.pos.im >= 0.0 && s.pos.im < 1.0,
                    "source at {} outside the unit square",
                    s.pos
                );
                Cell::new(
                    max_level,
                    (s.pos.re * side) as u32,
                    (s.pos.im * side) as u32,
                )
            })
            .collect();
        let mut seeds = Vec::new();
        split(
            Cell::ROOT,
            &(0..sources.len()).collect::<Vec<_>>(),
            &cells,
            max_per_leaf,
            max_level,
            &mut seeds,
        );

        // 2. Complete + balance.
        let mut linear = LinearQuadtree::from_seeds(max_level, &seeds);
        linear.balance();
        let leaves: Vec<Cell> = linear.leaves().to_vec();
        let leaf_of_cell: HashMap<Cell, usize> =
            leaves.iter().enumerate().map(|(i, &c)| (c, i)).collect();

        // 3. Assign sources to leaves and sort by leaf order.
        let mut keyed: Vec<(usize, usize)> = sources
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut cur = cells[i];
                let leaf = loop {
                    if let Some(&l) = leaf_of_cell.get(&cur) {
                        break l;
                    }
                    cur = cur.parent().expect("complete tree covers every cell");
                };
                (leaf, i)
            })
            .collect();
        keyed.sort_unstable();
        let sorted: Vec<Source> = keyed.iter().map(|&(_, i)| sources[i]).collect();
        let input_index: Vec<usize> = keyed.iter().map(|&(_, i)| i).collect();
        let mut leaf_range: Vec<Range<usize>> = Vec::with_capacity(leaves.len());
        {
            let mut start = 0usize;
            for leaf in 0..leaves.len() {
                let mut end = start;
                while end < keyed.len() && keyed[end].0 == leaf {
                    end += 1;
                }
                leaf_range.push(start..end);
                start = end;
            }
            assert_eq!(start, keyed.len());
        }

        // 4. Node set: leaves plus all ancestors.
        let mut node_set: std::collections::HashSet<Cell> = leaves.iter().copied().collect();
        for &leaf in &leaves {
            let mut cur = leaf;
            while let Some(p) = cur.parent() {
                if !node_set.insert(p) {
                    break;
                }
                cur = p;
            }
        }
        let mut nodes: Vec<Cell> = node_set.into_iter().collect();
        nodes.sort_unstable_by_key(|c| (c.level, c.code()));
        let node_of_cell: HashMap<Cell, usize> =
            nodes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let parent: Vec<Option<usize>> = nodes
            .iter()
            .map(|c| c.parent().map(|p| node_of_cell[&p]))
            .collect();
        let center: Vec<Complex> = nodes
            .iter()
            .map(|c| {
                let w = 1.0 / c.level_side() as f64;
                Complex::new((c.x as f64 + 0.5) * w, (c.y as f64 + 0.5) * w)
            })
            .collect();

        let mut tree = AdaptiveTree {
            leaves,
            nodes,
            node_of_cell,
            leaf_of_cell,
            parent,
            center,
            sources: sorted,
            input_index,
            leaf_range,
            u_list: Vec::new(),
            w_list: Vec::new(),
            x_list: Vec::new(),
        };

        // 5. Lists.
        tree.u_list = (0..tree.leaves.len())
            .map(|l| tree.adjacent_leaves(tree.leaves[l]))
            .collect();
        tree.w_list = (0..tree.leaves.len())
            .map(|l| tree.w_of(tree.leaves[l]))
            .collect();
        let mut x_list: Vec<Vec<usize>> = vec![Vec::new(); tree.nodes.len()];
        for (leaf, ws) in tree.w_list.iter().enumerate() {
            for &w in ws {
                x_list[w].push(leaf);
            }
        }
        tree.x_list = x_list;
        tree
    }

    /// True if the cell is an internal node (has children in the tree).
    fn is_internal(&self, c: Cell) -> bool {
        self.node_of_cell.contains_key(&c) && !self.leaf_of_cell.contains_key(&c)
    }

    /// All leaves whose regions touch `b` (including `b` itself).
    fn adjacent_leaves(&self, b: Cell) -> Vec<usize> {
        let mut out = vec![self.leaf_of_cell[&b]];
        for n in b.neighbors() {
            if let Some(&l) = self.leaf_of_cell.get(&n) {
                out.push(l);
            } else if self.is_internal(n) {
                self.descend_touching(n, b, &mut out);
            } else {
                // Covered by a coarser leaf.
                let mut cur = n;
                while let Some(p) = cur.parent() {
                    if let Some(&l) = self.leaf_of_cell.get(&p) {
                        out.push(l);
                        break;
                    }
                    cur = p;
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn descend_touching(&self, n: Cell, b: Cell, out: &mut Vec<usize>) {
        for child in n.children() {
            if !regions_touch(child, b) {
                continue;
            }
            if let Some(&l) = self.leaf_of_cell.get(&child) {
                out.push(l);
            } else {
                debug_assert!(self.is_internal(child), "complete tree");
                self.descend_touching(child, b, out);
            }
        }
    }

    /// W list of a leaf: node indices of non-touching descendants of the
    /// leaf's internal colleagues whose parents touch the leaf.
    fn w_of(&self, b: Cell) -> Vec<usize> {
        let mut out = Vec::new();
        for n in b.neighbors() {
            if self.is_internal(n) {
                self.w_descend(n, b, &mut out);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn w_descend(&self, n: Cell, b: Cell, out: &mut Vec<usize>) {
        for child in n.children() {
            if regions_touch(child, b) {
                if self.is_internal(child) {
                    self.w_descend(child, b, out);
                }
                // Touching leaves are U-list members, not W.
            } else {
                out.push(self.node_of_cell[&child]);
            }
        }
    }
}

/// Recursive adaptive split: emit occupied leaf seed cells.
fn split(
    cell: Cell,
    indices: &[usize],
    cells: &[Cell],
    max_per_leaf: usize,
    max_level: u32,
    seeds: &mut Vec<Cell>,
) {
    if indices.is_empty() {
        return;
    }
    if indices.len() <= max_per_leaf || cell.level == max_level {
        seeds.push(cell);
        return;
    }
    for child in cell.children() {
        let sub: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| child.contains(cells[i]))
            .collect();
        split(child, &sub, cells, max_per_leaf, max_level, seeds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn max_rel_error(fast: &[f64], exact: &[f64]) -> f64 {
        let scale = exact.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        fast.iter()
            .zip(exact)
            .map(|(f, e)| (f - e).abs() / scale)
            .fold(0.0, f64::max)
    }

    fn clustered_sources(n: usize, seed: u64) -> Vec<Source> {
        // Three tight clusters plus sparse background: the adaptive case.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (cx, cy, s) = match i % 8 {
                    0..=3 => (0.101, 0.103, 0.004),
                    4..=5 => (0.87, 0.88, 0.01),
                    6 => (0.52, 0.13, 0.002),
                    _ => (0.5, 0.5, 0.45),
                };
                loop {
                    let x = cx + rng.gen_range(-1.0..1.0) * s;
                    let y = cy + rng.gen_range(-1.0..1.0) * s;
                    if (0.0..1.0).contains(&x) && (0.0..1.0).contains(&y) {
                        return Source::new(x, y, rng.gen_range(-1.0..1.0));
                    }
                }
            })
            .collect()
    }

    #[test]
    fn tree_structure_invariants() {
        let sources = clustered_sources(2000, 3);
        let tree = AdaptiveTree::build(&sources, 25, 10);
        // Every source in exactly one leaf range, ranges partition sources.
        let total: usize = tree.leaf_range.iter().map(|r| r.len()).sum();
        assert_eq!(total, sources.len());
        // Leaf levels vary (that's the point of adaptivity).
        let min = tree.leaves.iter().map(|c| c.level).min().unwrap();
        let max = tree.leaves.iter().map(|c| c.level).max().unwrap();
        assert!(max > min, "tree did not adapt: all leaves at level {min}");
        // U lists contain self; W/X duality.
        for (leaf, u) in tree.u_list.iter().enumerate() {
            assert!(u.contains(&leaf));
        }
        let w_total: usize = tree.w_list.iter().map(|w| w.len()).sum();
        let x_total: usize = tree.x_list.iter().map(|x| x.len()).sum();
        assert_eq!(w_total, x_total);
    }

    #[test]
    fn matches_direct_on_clustered_input() {
        let sources = clustered_sources(1500, 7);
        let exact = direct::potentials(&sources);
        let fast = AdaptiveFmm::new(22).potentials(&sources);
        let err = max_rel_error(&fast, &exact);
        assert!(err < 1e-6, "relative error {err}");
    }

    #[test]
    fn matches_direct_on_uniform_input() {
        let mut rng = StdRng::seed_from_u64(11);
        let sources: Vec<Source> = (0..1000)
            .map(|_| Source::new(rng.gen(), rng.gen(), rng.gen_range(-1.0..1.0)))
            .collect();
        let exact = direct::potentials(&sources);
        let fast = AdaptiveFmm::new(20).potentials(&sources);
        assert!(max_rel_error(&fast, &exact) < 1e-6);
    }

    #[test]
    fn agrees_with_uniform_solver() {
        let sources = clustered_sources(800, 19);
        let adaptive = AdaptiveFmm::new(18).potentials(&sources);
        let uniform = crate::Fmm::new(18).potentials(&sources);
        let scale = uniform.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for (a, u) in adaptive.iter().zip(&uniform) {
            assert!((a - u).abs() / scale < 1e-5);
        }
    }

    #[test]
    fn tiny_input_single_leaf() {
        let sources = vec![
            Source::new(0.3, 0.3, 1.0),
            Source::new(0.31, 0.32, -1.0),
            Source::new(0.7, 0.1, 0.5),
        ];
        let exact = direct::potentials(&sources);
        let fast = AdaptiveFmm::new(15).potentials(&sources);
        assert!(max_rel_error(&fast, &exact) < 1e-10);
    }

    #[test]
    fn accuracy_improves_with_order() {
        let sources = clustered_sources(600, 23);
        let exact = direct::potentials(&sources);
        let coarse = max_rel_error(&AdaptiveFmm::new(6).potentials(&sources), &exact);
        let fine = max_rel_error(&AdaptiveFmm::new(24).potentials(&sources), &exact);
        assert!(fine < coarse);
        assert!(fine < 1e-7, "order-24 error {fine}");
    }

    #[test]
    fn adaptive_tree_is_much_smaller_than_uniform() {
        // All mass in one tiny cluster: the uniform tree at the depth needed
        // to separate the points would have millions of cells; the adaptive
        // tree stays tiny.
        let mut rng = StdRng::seed_from_u64(31);
        let sources: Vec<Source> = (0..500)
            .map(|_| {
                Source::new(
                    0.4 + rng.gen_range(0.0..0.002),
                    0.4 + rng.gen_range(0.0..0.002),
                    1.0,
                )
            })
            .collect();
        let tree = AdaptiveTree::build(&sources, 25, 12);
        assert!(
            tree.leaves.len() < 3000,
            "{} leaves for a point cluster",
            tree.leaves.len()
        );
        let exact = direct::potentials(&sources);
        let fast = AdaptiveFmm::new(20).potentials(&sources);
        assert!(max_rel_error(&fast, &exact) < 1e-6);
    }
}
