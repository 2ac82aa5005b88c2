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
//! M2L and P2P read their cell pairs from
//! [`FmmTree::interaction_partners`] and [`FmmTree::near_leaves`], and
//! M2M/L2L from [`crate::tree::Level::parent`], so a caller can enumerate
//! exactly the pairs a solve translates between.
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
    /// returning values in the *input* order of `sources` (none for no
    /// sources, as [`crate::direct::potentials`]).
    pub fn potentials(&self, sources: &[Source]) -> Vec<f64> {
        let depth = FmmTree::auto_depth(sources.len(), self.per_leaf);
        self.potentials_with_depth(sources, depth)
    }

    /// As [`Fmm::potentials`], with an explicit tree depth.
    pub fn potentials_with_depth(&self, sources: &[Source], depth: u32) -> Vec<f64> {
        self.solve(sources, depth, |local, z, near| {
            let mut v = eval_local(local, z);
            for s in near {
                v += p2p(s, z);
            }
            v
        })
    }

    /// Evaluate both the potential and the force field
    /// `Φ'(zᵢ) = Σ_{j≠i} q_j / (zᵢ − z_j)` at every source, in input order.
    /// The physical gradient of the potential is `(Re Φ', −Im Φ')`. No
    /// sources give an empty result.
    pub fn potentials_and_fields(&self, sources: &[Source]) -> Vec<(f64, Complex)> {
        let depth = FmmTree::auto_depth(sources.len(), self.per_leaf);
        self.solve(sources, depth, |local, z, near| {
            let mut v = eval_local(local, z);
            let mut g = eval_local_grad(local, z);
            for s in near {
                v += p2p(s, z);
                g += p2p_grad(s, z);
            }
            (v, g)
        })
    }

    /// Run the pipeline at leaf level `depth` and return `eval(local, z,
    /// near)` for every source, in input order. `local` is the source's
    /// leaf's local expansion and `near` holds the source slices of the
    /// leaf and of its [`FmmTree::near_leaves`], in that order.
    fn solve<T: Copy + Default + Send>(
        &self,
        sources: &[Source],
        depth: u32,
        eval: impl Fn(&Local, Complex, &[&[Source]]) -> T + Sync,
    ) -> Vec<T> {
        if sources.is_empty() {
            return Vec::new();
        }
        let tree = FmmTree::build(sources, depth);
        let locals = self.downward_locals(&tree);
        // Phase 5: L2P + P2P at the leaves.
        let leaves = tree.leaves();
        let chunks: Vec<Vec<T>> = (0..leaves.len())
            .into_par_iter()
            .map(|i| {
                let near: Vec<&[Source]> = std::iter::once(i)
                    .chain(tree.near_leaves(i))
                    .map(|j| &tree.sources[leaves.range[j].clone()])
                    .collect();
                tree.sources[leaves.range[i].clone()]
                    .iter()
                    .map(|s| eval(&locals[i], s.pos, &near))
                    .collect()
            })
            .collect();
        // Leaves own consecutive slices of the sorted sources, so the
        // chunks concatenate in sorted order.
        let mut out = vec![T::default(); sources.len()];
        for (&input, value) in tree.input_index.iter().zip(chunks.into_iter().flatten()) {
            out[input] = value;
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
                    for j in tree.interaction_partners(l as u32, i) {
                        m2l(&ms[j], &mut local, &bin);
                    }
                    local
                })
                .collect();
        }

        locals
    }
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
    fn empty_input_gives_empty_output() {
        let solver = Fmm::new(10);
        assert!(direct::potentials(&[]).is_empty());
        assert!(solver.potentials(&[]).is_empty());
        assert!(solver.potentials_with_depth(&[], 3).is_empty());
        assert!(solver.potentials_and_fields(&[]).is_empty());
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
