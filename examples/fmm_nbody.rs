//! N-body demo: solve a 2-D gravitational-style potential problem with the
//! fast multipole method, verify it against direct summation, and then ask
//! the ACD model what the same computation would cost in communication on a
//! parallel machine under each space-filling curve.
//!
//! Run with: `cargo run --release --example fmm_nbody`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_analysis::core::ffi::ffi_acd;
use sfc_analysis::core::nfi::nfi_acd;
use sfc_analysis::core::{Assignment, Machine};
use sfc_analysis::curves::{point::Norm, CurveKind, Point2};
use sfc_analysis::fmm::{direct, Fmm, Source};
use sfc_analysis::topology::TopologyKind;
use std::time::Instant;

/// Two Gaussian "galaxies" plus a uniform background.
fn make_galaxies(n: usize, seed: u64) -> Vec<Source> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gaussian = |cx: f64, cy: f64, sigma: f64, rng: &mut StdRng| loop {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let x = cx + sigma * r * (std::f64::consts::TAU * u2).cos();
        let y = cy + sigma * r * (std::f64::consts::TAU * u2).sin();
        if (0.0..1.0).contains(&x) && (0.0..1.0).contains(&y) {
            return (x, y);
        }
    };
    (0..n)
        .map(|i| {
            let (x, y) = match i % 10 {
                0..=4 => gaussian(0.3, 0.35, 0.05, &mut rng),
                5..=8 => gaussian(0.72, 0.68, 0.04, &mut rng),
                _ => (rng.gen(), rng.gen()),
            };
            Source::new(x, y, rng.gen_range(0.5..1.5))
        })
        .collect()
}

fn main() {
    let n = 20_000;
    let sources = make_galaxies(n, 7);
    println!("two-galaxy system, {n} bodies, log potential\n");

    let t0 = Instant::now();
    let fast = Fmm::new(14).potentials(&sources);
    let t_fmm = t0.elapsed();

    let t0 = Instant::now();
    let exact = direct::potentials(&sources);
    let t_direct = t0.elapsed();

    let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let max_err = fast
        .iter()
        .zip(&exact)
        .map(|(f, e)| (f - e).abs())
        .fold(0.0f64, f64::max)
        / scale;
    println!("FMM (p=14):   {t_fmm:?}");
    println!("direct O(n²): {t_direct:?}");
    println!("max relative error: {max_err:.2e}\n");

    // Now the paper's question: if these bodies were distributed over a
    // parallel machine, which curve minimizes the communication? Snap the
    // positions to a 512x512 grid (one particle per cell, first wins).
    let grid_order = 9;
    let side = (1u64 << grid_order) as f64;
    let mut seen = std::collections::HashSet::new();
    let cells: Vec<Point2> = sources
        .iter()
        .filter_map(|s| {
            let p = Point2::new((s.pos.re * side) as u32, (s.pos.im * side) as u32);
            seen.insert((p.x, p.y)).then_some(p)
        })
        .collect();
    let procs = 4096;
    println!(
        "communication model: {} occupied cells on a {side}x{side} grid, {procs} processors (torus)",
        cells.len()
    );
    println!("{:<12} {:>10} {:>10}", "curve", "NFI ACD", "FFI ACD");
    let mut best = (f64::INFINITY, CurveKind::Hilbert);
    for curve in CurveKind::PAPER {
        let asg = Assignment::new(&cells, grid_order, curve, procs);
        let machine = Machine::new(TopologyKind::Torus, procs, curve);
        let nfi = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        let ffi = ffi_acd(&asg, &machine).unwrap();
        let total = nfi.acd() + ffi.acd();
        if total < best.0 {
            best = (total, curve);
        }
        println!(
            "{:<12} {:>10.3} {:>10.3}",
            curve.short_name(),
            nfi.acd(),
            ffi.acd()
        );
    }
    println!(
        "\nrecommended ordering for this input: {} curve",
        best.1.short_name()
    );
}
