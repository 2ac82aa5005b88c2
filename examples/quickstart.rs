//! Quickstart: measure how much communication a space-filling curve saves.
//!
//! Samples a particle set, distributes it over a torus of processors under
//! two different particle/processor orderings, and compares the Average
//! Communicated Distance of the near- and far-field FMM communication
//! phases.
//!
//! Run with: `cargo run --release --example quickstart`

use sfc_analysis::core::ffi::ffi_acd;
use sfc_analysis::core::nfi::nfi_acd;
use sfc_analysis::core::{Assignment, Machine};
use sfc_analysis::curves::{point::Norm, CurveKind};
use sfc_analysis::particles::{sample, Distribution};
use sfc_analysis::topology::TopologyKind;

fn main() {
    // A 256x256 spatial resolution with 10,000 particles, on 1,024
    // processors connected as a 32x32 torus.
    let grid_order = 8;
    let num_processors = 1024;
    let particles = sample(Distribution::uniform(), grid_order, 10_000, 42);
    let side = 1u64 << grid_order;
    println!(
        "{} particles on a {side}x{side} grid, {num_processors} processors (torus)\n",
        particles.len(),
    );

    println!(
        "{:<12} {:>10} {:>10} {:>12}",
        "curve", "NFI ACD", "FFI ACD", "NFI local %"
    );
    for curve in CurveKind::PAPER {
        // Step 1-2: order the particles by the curve and chunk them.
        let asg = Assignment::new(&particles, grid_order, curve, num_processors);
        // Step 3: rank the processors with the same curve.
        let machine = Machine::new(TopologyKind::Torus, num_processors, curve);
        // Step 4: replay one FMM time step's communication.
        let nfi = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        let ffi = ffi_acd(&asg, &machine).unwrap();
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>11.1}%",
            curve.short_name(),
            nfi.acd(),
            ffi.acd(),
            100.0 * nfi.locality(),
        );
    }
    println!(
        "\nLower is better: every unit of ACD is one network hop paid on every\n\
         pairwise exchange. The Hilbert curve keeps neighboring particles on\n\
         nearby processors; the row-major order scatters them."
    );
}
