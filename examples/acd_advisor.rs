//! ACD advisor: the "design guide" use of the metric (paper Section VII).
//!
//! Given a machine description and an input profile on the command line,
//! evaluates every particle/processor curve combination under the ACD model
//! and prints a ranked recommendation.
//!
//! ```text
//! cargo run --release --example acd_advisor -- \
//!     [topology] [processors] [particles] [distribution] [radius]
//! e.g.  cargo run --release --example acd_advisor -- torus 4096 50000 normal 2
//! ```
//!
//! Defaults: torus, 4096 processors, 50,000 particles, uniform, radius 1.

use sfc_analysis::core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_analysis::core::nfi::nfi_acd;
use sfc_analysis::core::{Assignment, Machine};
use sfc_analysis::curves::{point::Norm, CurveKind};
use sfc_analysis::particles::{sample, DistributionKind};
use sfc_analysis::topology::TopologyKind;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let topology = argv
        .first()
        .map(|s| TopologyKind::parse(s).expect("unknown topology"))
        .unwrap_or(TopologyKind::Torus);
    let processors: u64 = argv.get(1).map_or(4096, |s| s.parse().expect("processors"));
    let n: usize = argv
        .get(2)
        .map_or(50_000, |s| s.parse().expect("particles"));
    let dist = argv
        .get(3)
        .map(|s| DistributionKind::parse(s).expect("unknown distribution"))
        .unwrap_or(DistributionKind::Uniform);
    let radius: u32 = argv.get(4).map_or(1, |s| s.parse().expect("radius"));

    // Pick a resolution ~4x denser in cells than particles.
    let mut grid_order = 4u32;
    while (1u64 << (2 * grid_order)) < 4 * n as u64 {
        grid_order += 1;
    }
    println!(
        "advisor: {n} {dist} particles on a {s}x{s} grid; {processors} processors ({topology}); \
         near-field radius {radius}\n",
        s = 1u64 << grid_order
    );

    let particles = sample(dist.default_params(), grid_order, n, 20130701);
    let grid_topology = matches!(topology, TopologyKind::Mesh | TopologyKind::Torus);
    let processor_curves: &[CurveKind] = if grid_topology {
        &CurveKind::PAPER
    } else {
        &[CurveKind::Hilbert] // placement fixed by the topology's numbering
    };

    let mut results: Vec<(f64, f64, CurveKind, CurveKind)> = Vec::new();
    for &particle_curve in &CurveKind::PAPER {
        let asg = Assignment::new(&particles, grid_order, particle_curve, processors);
        let tree = OwnerTree::build(&asg);
        for &processor_curve in processor_curves {
            let machine = Machine::new(topology, processors, processor_curve);
            let nfi = nfi_acd(&asg, &machine, radius, Norm::Chebyshev)
                .unwrap()
                .acd();
            let ffi = ffi_acd_with_tree(&asg, &machine, &tree).unwrap().acd();
            results.push((nfi, ffi, particle_curve, processor_curve));
        }
    }
    // Rank by combined ACD (equal weight to both phases).
    results.sort_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));

    println!(
        "{:<6} {:<12} {:<12} {:>10} {:>10} {:>10}",
        "rank", "particle", "processor", "NFI ACD", "FFI ACD", "combined"
    );
    for (i, (nfi, ffi, pc, rc)) in results.iter().enumerate() {
        let proc_name = if grid_topology {
            rc.short_name()
        } else {
            "(fixed)"
        };
        println!(
            "{:<6} {:<12} {:<12} {:>10.3} {:>10.3} {:>10.3}",
            i + 1,
            pc.short_name(),
            proc_name,
            nfi,
            ffi,
            nfi + ffi
        );
    }
    let best = results[0];
    println!(
        "\nrecommendation: order particles with the {} curve{}",
        best.2.short_name(),
        if grid_topology {
            format!(
                " and rank processors with the {} curve",
                best.3.short_name()
            )
        } else {
            String::new()
        }
    );
}
