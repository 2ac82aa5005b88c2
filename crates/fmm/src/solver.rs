//! The full FMM pipeline.
//!
//! One evaluation runs the textbook five phases over the
//! [`crate::tree::FmmTree`]:
//!
//! 1. **P2M** — multipole expansions at the occupied leaves;
//! 2. **M2M** — upward pass, translating children into parents
//!    (*interpolation* in the vocabulary of the ACD paper);
//! 3. **M2L** — at every level, each cell gathers the multipoles of its
//!    interaction list into its local expansion (*interaction list*);
//! 4. **L2L** — downward pass, pushing parent locals to children
//!    (*anterpolation*);
//! 5. **L2P + P2P** — evaluate the local expansion at each source and add
//!    the direct near field (Chebyshev-1 neighbor leaves).
//!
//! Phases 1, 3 and 5 are data-parallel over cells/leaves and run under
//! rayon.

use crate::binomial::Binomials;
use crate::operators::{
    eval_local, eval_local_grad, l2l, m2l, m2m, p2m, p2p, p2p_grad, Local, Multipole,
};
use crate::tree::FmmTree;
use crate::Complex;
use crate::Source;
use rayon::prelude::*;
use sfc_quadtree::interaction_list;

/// The solver configuration: expansion order and leaf population target.
#[derive(Debug, Clone, Copy)]
pub struct Fmm {
    /// Number of expansion terms `p`. The truncation error decays roughly
    /// as `0.55^p`; `p = 12` gives ~1e-3 relative error, `p = 25` ~1e-7.
    pub terms: usize,
    /// Target average number of sources per occupied leaf when choosing the
    /// tree depth automatically.
    pub per_leaf: usize,
}

impl Fmm {
    /// A solver with `terms` expansion terms and the default leaf target.
    pub fn new(terms: usize) -> Self {
        assert!((1..=60).contains(&terms), "terms out of range: {terms}");
        Fmm {
            terms,
            per_leaf: 20,
        }
    }

    /// Evaluate `φ(zᵢ) = Σ_{j≠i} q_j ln|zᵢ − z_j|` at every source,
    /// returning values in the *input* order of `sources`.
    pub fn potentials(&self, sources: &[Source]) -> Vec<f64> {
        let depth = FmmTree::auto_depth(sources.len(), self.per_leaf);
        self.potentials_with_depth(sources, depth)
    }

    /// As [`Fmm::potentials`], with an explicit tree depth.
    pub fn potentials_with_depth(&self, sources: &[Source], depth: u32) -> Vec<f64> {
        let tree = FmmTree::build(sources, depth);
        let phi_sorted = self.run(&tree);
        // Map back to input order. The tree sorted sources by Morton code;
        // we rebuild the permutation by sorting indices the same way.
        let side = (1u64 << depth) as f64;
        let mut order: Vec<usize> = (0..sources.len()).collect();
        order.sort_by_key(|&i| {
            let s = &sources[i];
            sfc_curves::morton::encode((s.pos.re * side) as u32, (s.pos.im * side) as u32)
        });
        let mut out = vec![0.0; sources.len()];
        for (sorted_pos, &orig) in order.iter().enumerate() {
            out[orig] = phi_sorted[sorted_pos];
        }
        out
    }

    /// Evaluate both the potential and the force field
    /// `Φ'(zᵢ) = Σ_{j≠i} q_j / (zᵢ − z_j)` at every source, in input order.
    /// The physical gradient of the potential is `(Re Φ', −Im Φ')`.
    pub fn potentials_and_fields(&self, sources: &[Source]) -> Vec<(f64, Complex)> {
        let depth = FmmTree::auto_depth(sources.len(), self.per_leaf);
        let tree = FmmTree::build(sources, depth);
        let sorted = self.run_fields(&tree);
        let side = (1u64 << depth) as f64;
        let mut order: Vec<usize> = (0..sources.len()).collect();
        order.sort_by_key(|&i| {
            let s = &sources[i];
            sfc_curves::morton::encode((s.pos.re * side) as u32, (s.pos.im * side) as u32)
        });
        let mut out = vec![(0.0, Complex::default()); sources.len()];
        for (sorted_pos, &orig) in order.iter().enumerate() {
            out[orig] = sorted[sorted_pos];
        }
        out
    }

    /// Phases 1–4 of the pipeline: the converged local expansion of every
    /// leaf, in leaf order.
    #[allow(clippy::needless_range_loop)] // level indices mirror the pipeline
    fn downward_locals(&self, tree: &FmmTree) -> Vec<Local> {
        let p = self.terms;
        let bin = Binomials::new(2 * p + 2);
        let depth = tree.depth as usize;

        // Phase 1: P2M at the leaves.
        let leaves = tree.leaves();
        let leaf_multipoles: Vec<Multipole> = (0..leaves.len())
            .into_par_iter()
            .map(|i| p2m(&tree.sources[leaves.range[i].clone()], leaves.center[i], p))
            .collect();

        // Phase 2: M2M upward. multipoles[l][i] for level l cell i.
        let mut multipoles: Vec<Vec<Multipole>> = vec![Vec::new(); depth + 1];
        multipoles[depth] = leaf_multipoles;
        for l in (0..depth).rev() {
            let fine = &tree.levels[l + 1];
            let coarse = &tree.levels[l];
            let fine_m = &multipoles[l + 1];
            let mut agg: Vec<Multipole> = coarse
                .center
                .iter()
                .map(|&c| Multipole::zero(c, p))
                .collect();
            // Children are contiguous in the fine level (both sorted by
            // Morton code), so accumulate serially per parent.
            for (i, m) in fine_m.iter().enumerate() {
                let parent = fine.parent[i];
                let shifted = m2m(m, coarse.center[parent], &bin);
                for k in 0..=p {
                    agg[parent].a[k] += shifted.a[k];
                }
            }
            multipoles[l] = agg;
        }

        // Phases 3 + 4: downward with M2L per level.
        let mut locals: Vec<Local> = tree.levels[0]
            .center
            .iter()
            .map(|&c| Local::zero(c, p))
            .collect();
        for l in 1..=depth {
            let level = &tree.levels[l];
            let coarse_locals = locals;
            let ms = &multipoles[l];
            locals = (0..level.len())
                .into_par_iter()
                .map(|i| {
                    // L2L from the parent...
                    let parent_local = &coarse_locals[level.parent[i]];
                    let mut local = l2l(parent_local, level.center[i], &bin);
                    // ...plus M2L from every occupied interaction-list cell.
                    for other in interaction_list(level.cell(i)) {
                        if let Some(&j) = level.index.get(&other.code()) {
                            m2l(&ms[j], &mut local, &bin);
                        }
                    }
                    local
                })
                .collect();
        }

        locals
    }

    /// Run the pipeline over a prebuilt tree; results follow the tree's
    /// (Morton-sorted) source order.
    pub fn run(&self, tree: &FmmTree) -> Vec<f64> {
        let locals = self.downward_locals(tree);
        // Phase 5: L2P + P2P at the leaves.
        let leaves = tree.leaves();
        let mut phi = vec![0.0; tree.sources.len()];
        let chunks: Vec<(usize, Vec<f64>)> = (0..leaves.len())
            .into_par_iter()
            .map(|i| {
                let range = leaves.range[i].clone();
                let near = near_field_ranges(tree, i);
                let values: Vec<f64> = tree.sources[range.clone()]
                    .iter()
                    .map(|s| {
                        let mut v = eval_local(&locals[i], s.pos);
                        for r in &near {
                            v += p2p(&tree.sources[r.clone()], s.pos);
                        }
                        v
                    })
                    .collect();
                (range.start, values)
            })
            .collect();
        for (start, values) in chunks {
            phi[start..start + values.len()].copy_from_slice(&values);
        }
        phi
    }

    /// Like [`Fmm::run`], additionally evaluating the complex force field.
    pub fn run_fields(&self, tree: &FmmTree) -> Vec<(f64, Complex)> {
        let locals = self.downward_locals(tree);
        let leaves = tree.leaves();
        let mut out = vec![(0.0, Complex::default()); tree.sources.len()];
        let chunks: Vec<(usize, Vec<(f64, Complex)>)> = (0..leaves.len())
            .into_par_iter()
            .map(|i| {
                let range = leaves.range[i].clone();
                let near = near_field_ranges(tree, i);
                let values: Vec<(f64, Complex)> = tree.sources[range.clone()]
                    .iter()
                    .map(|s| {
                        let mut v = eval_local(&locals[i], s.pos);
                        let mut g = eval_local_grad(&locals[i], s.pos);
                        for r in &near {
                            v += p2p(&tree.sources[r.clone()], s.pos);
                            g += p2p_grad(&tree.sources[r.clone()], s.pos);
                        }
                        (v, g)
                    })
                    .collect();
                (range.start, values)
            })
            .collect();
        for (start, values) in chunks {
            out[start..start + values.len()].copy_from_slice(&values);
        }
        out
    }
}

/// Source ranges of a leaf's near field: the leaf itself plus its occupied
/// Chebyshev-1 neighbors.
fn near_field_ranges(tree: &FmmTree, leaf: usize) -> Vec<std::ops::Range<usize>> {
    let leaves = tree.leaves();
    let cell = leaves.cell(leaf);
    let mut near = vec![leaves.range[leaf].clone()];
    for nb in cell.neighbors() {
        if let Some(&j) = leaves.index.get(&nb.code()) {
            near.push(leaves.range[j].clone());
        }
    }
    near
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sources(n: usize, seed: u64) -> Vec<Source> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Source::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect()
    }

    fn max_rel_error(fast: &[f64], exact: &[f64]) -> f64 {
        let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        fast.iter()
            .zip(exact)
            .map(|(f, e)| (f - e).abs() / scale)
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_direct_on_random_input() {
        let sources = random_sources(800, 17);
        let exact = direct::potentials(&sources);
        let fast = Fmm::new(22).potentials(&sources);
        let err = max_rel_error(&fast, &exact);
        assert!(err < 1e-6, "relative error {err}");
    }

    #[test]
    fn accuracy_improves_with_expansion_order() {
        let sources = random_sources(300, 5);
        let exact = direct::potentials(&sources);
        let mut last = f64::INFINITY;
        for p in [4usize, 10, 18, 28] {
            let fast = Fmm::new(p).potentials(&sources);
            let err = max_rel_error(&fast, &exact);
            assert!(
                err < last * 1.5 + 1e-13,
                "order {p}: error {err} vs previous {last}"
            );
            last = err;
        }
        assert!(last < 1e-8, "final error {last}");
    }

    #[test]
    fn explicit_depths_agree() {
        let sources = random_sources(400, 9);
        let exact = direct::potentials(&sources);
        for depth in [2u32, 3, 4] {
            let fast = Fmm::new(20).potentials_with_depth(&sources, depth);
            let err = max_rel_error(&fast, &exact);
            assert!(err < 1e-5, "depth {depth}: error {err}");
        }
    }

    #[test]
    fn clustered_input() {
        // All mass in one corner exercises empty interaction lists and
        // shallow effective trees.
        let mut rng = StdRng::seed_from_u64(23);
        let sources: Vec<Source> = (0..500)
            .map(|_| {
                Source::new(
                    rng.gen_range(0.0..0.12),
                    rng.gen_range(0.0..0.12),
                    rng.gen_range(0.5..1.5),
                )
            })
            .collect();
        let exact = direct::potentials(&sources);
        let fast = Fmm::new(20).potentials(&sources);
        assert!(max_rel_error(&fast, &exact) < 1e-6);
    }

    #[test]
    fn tiny_inputs_fall_back_gracefully() {
        let sources = vec![
            Source::new(0.2, 0.2, 1.0),
            Source::new(0.8, 0.8, -1.0),
            Source::new(0.2, 0.8, 0.5),
        ];
        let exact = direct::potentials(&sources);
        let fast = Fmm::new(15).potentials(&sources);
        assert!(max_rel_error(&fast, &exact) < 1e-9);
    }

    #[test]
    fn results_follow_input_order() {
        let sources = random_sources(200, 31);
        let exact = direct::potentials(&sources);
        let fast = Fmm::new(20).potentials(&sources);
        // Spot-check alignment at specific indices (not just the max norm):
        for i in [0usize, 57, 123, 199] {
            assert!(
                (fast[i] - exact[i]).abs() < 1e-5 * (1.0 + exact[i].abs()),
                "index {i}: {} vs {}",
                fast[i],
                exact[i]
            );
        }
    }
}

#[cfg(test)]
mod field_tests {
    use super::*;
    use crate::direct;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fields_match_direct() {
        let mut rng = StdRng::seed_from_u64(41);
        let sources: Vec<Source> = (0..700)
            .map(|_| {
                Source::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let fast = Fmm::new(22).potentials_and_fields(&sources);
        let exact_phi = direct::potentials(&sources);
        let exact_grad = direct::fields(&sources);
        let phi_scale = exact_phi.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let grad_scale = exact_grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for ((f, g), (e_phi, e_grad)) in fast.iter().zip(exact_phi.iter().zip(&exact_grad)) {
            assert!((f - e_phi).abs() / phi_scale < 1e-6);
            assert!((*g - *e_grad).abs() / grad_scale < 1e-6);
        }
    }

    #[test]
    fn potentials_agree_between_apis() {
        let mut rng = StdRng::seed_from_u64(42);
        let sources: Vec<Source> = (0..300)
            .map(|_| Source::new(rng.gen(), rng.gen(), 1.0))
            .collect();
        let solver = Fmm::new(16);
        let phi_only = solver.potentials(&sources);
        let both = solver.potentials_and_fields(&sources);
        for (a, (b, _)) in phi_only.iter().zip(&both) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
