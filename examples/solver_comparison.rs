//! Solver shoot-out: direct summation vs Barnes–Hut vs uniform FMM vs
//! adaptive FMM on a clustered n-body problem — accuracy and wall time side
//! by side.
//!
//! Run with: `cargo run --release --example solver_comparison`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_analysis::fmm::{direct, AdaptiveFmm, BarnesHut, Fmm, Source};
use std::time::Instant;

fn clustered(n: usize, seed: u64) -> Vec<Source> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (cx, cy, s) = match i % 5 {
                0 | 1 => (0.15, 0.2, 0.01),
                2 | 3 => (0.8, 0.75, 0.02),
                _ => (0.5, 0.5, 0.45),
            };
            loop {
                let x = cx + rng.gen_range(-1.0..1.0) * s;
                let y = cy + rng.gen_range(-1.0..1.0) * s;
                if (0.0..1.0).contains(&x) && (0.0..1.0).contains(&y) {
                    return Source::new(x, y, rng.gen_range(0.5..1.5));
                }
            }
        })
        .collect()
}

fn main() {
    let n = 30_000;
    let sources = clustered(n, 2026);
    println!("clustered system, {n} bodies (two tight clusters + background)\n");

    let t0 = Instant::now();
    let exact = direct::potentials(&sources);
    let t_direct = t0.elapsed();
    let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));

    let report = |name: &str, phi: Vec<f64>, elapsed: std::time::Duration| {
        let err = phi
            .iter()
            .zip(&exact)
            .map(|(f, e)| (f - e).abs())
            .fold(0.0f64, f64::max)
            / scale;
        println!("{name:<22} {elapsed:>12.1?}   max rel err {err:.2e}");
    };

    println!("{:<22} {:>12}   accuracy", "solver", "time");
    println!("{:<22} {t_direct:>12.1?}   (reference)", "direct O(n^2)");

    let t0 = Instant::now();
    let phi = BarnesHut::new(0.6).potentials(&sources);
    report("Barnes-Hut theta=0.6", phi, t0.elapsed());

    let t0 = Instant::now();
    let phi = BarnesHut::new(0.3).potentials(&sources);
    report("Barnes-Hut theta=0.3", phi, t0.elapsed());

    let t0 = Instant::now();
    let phi = Fmm::new(12).potentials(&sources);
    report("uniform FMM p=12", phi, t0.elapsed());

    let t0 = Instant::now();
    let phi = AdaptiveFmm::new(12).potentials(&sources);
    report("adaptive FMM p=12", phi, t0.elapsed());

    println!(
        "\nThe treecode trades accuracy for simplicity; the FMM's local\n\
         expansions amortize far-field work across whole leaves; the adaptive\n\
         tree keeps that advantage when the mass is concentrated."
    );
}
