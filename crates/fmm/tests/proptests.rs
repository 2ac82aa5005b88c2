//! Property-based tests for the FMM: physical invariants that must hold for
//! arbitrary charge configurations.

use proptest::prelude::*;
use sfc_fmm::{direct, Complex, Fmm, Source};

fn sources_strategy(max_n: usize) -> impl Strategy<Value = Vec<Source>> {
    prop::collection::vec((0.001f64..0.999, 0.001f64..0.999, -2.0f64..2.0), 2..max_n)
        .prop_map(|raw| {
            // Deduplicate near-coincident points to keep the direct sum finite.
            let mut out: Vec<Source> = Vec::new();
            'outer: for (x, y, q) in raw {
                for s in &out {
                    if (s.pos - Complex::new(x, y)).abs() < 1e-9 {
                        continue 'outer;
                    }
                }
                out.push(Source::new(x, y, q));
            }
            out
        })
        .prop_filter("need at least 2 distinct sources", |v| v.len() >= 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FMM potentials match direct summation within the truncation bound.
    #[test]
    fn fmm_matches_direct(sources in sources_strategy(60)) {
        let exact = direct::potentials(&sources);
        let fast = Fmm::new(20).potentials(&sources);
        let scale = exact.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        for (f, e) in fast.iter().zip(&exact) {
            prop_assert!((f - e).abs() / scale < 1e-5, "{f} vs {e}");
        }
    }

    /// Potentials are linear in the charges: doubling every charge doubles
    /// every potential.
    #[test]
    fn linearity_in_charge(sources in sources_strategy(40)) {
        let doubled: Vec<Source> = sources
            .iter()
            .map(|s| Source { pos: s.pos, charge: 2.0 * s.charge })
            .collect();
        let solver = Fmm::new(16);
        let base = solver.potentials(&sources);
        let twice = solver.potentials(&doubled);
        let scale = base.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        for (b, t) in base.iter().zip(&twice) {
            prop_assert!((2.0 * b - t).abs() / scale < 1e-9);
        }
    }

    /// Newton's third law at the field level: for equal charges, the total
    /// "force" Σ qᵢ Φ'(zᵢ) vanishes (momentum conservation).
    #[test]
    fn total_force_vanishes(sources in sources_strategy(40)) {
        let fields = direct::fields(&sources);
        let mut total = Complex::default();
        for (s, f) in sources.iter().zip(&fields) {
            total += f.scale(s.charge);
        }
        let magnitude: f64 = fields.iter().map(|f| f.abs()).sum::<f64>().max(1e-12);
        prop_assert!(total.abs() / magnitude < 1e-9, "net force {total}");
    }

    /// The FMM field matches the direct field.
    #[test]
    fn fmm_fields_match_direct(sources in sources_strategy(50)) {
        let exact = direct::fields(&sources);
        let fast = Fmm::new(20).potentials_and_fields(&sources);
        let scale = exact.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        for ((_, g), e) in fast.iter().zip(&exact) {
            prop_assert!((*g - *e).abs() / scale < 1e-4);
        }
    }

    /// Interaction energy is invariant under relabeling (permutation) of the
    /// sources.
    #[test]
    fn energy_permutation_invariant(sources in sources_strategy(30)) {
        let e1 = direct::energy(&sources);
        let mut reversed = sources.clone();
        reversed.reverse();
        let e2 = direct::energy(&reversed);
        prop_assert!((e1 - e2).abs() < 1e-9 * (1.0 + e1.abs()));
    }
}
