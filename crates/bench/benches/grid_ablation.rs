//! Ablation bench (BENCH_PR10.json): the dense rank table against the
//! sparse one (`Assignment::with_dense_grid(.., false)`).
//!
//! Two views, both over one scaled-down Figure-6 workload:
//!
//! 1. **NFI scan kernel** — the radius-4 Chebyshev `nfi_acd` call, which
//!    is exactly the code the dense grid rewrites: with the index, each
//!    per-`dy` neighborhood row is one clipped contiguous `u32` slice; the
//!    sparse table probes its open-addressed cell map once per candidate
//!    cell.
//!    The BENCH_PR10 ≥1.2× claim is measured here.
//! 2. **End to end** — `nfi_acd` + `ffi_acd_with_tree` together, each on
//!    its own owner tree, whose levels take the form of its finest table.
//!    Reported for honesty.
//!
//! Both configurations produce bit-identical results — asserted before
//! timing. The harness hand-rolls its timing loop and prints one JSON
//! object as the final stdout line so CI can `grep '^{'` and assert the
//! speedup floor.

use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::nfi::nfi_acd;
use sfc_core::{Assignment, Machine};
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;
use sfc_particles::Workload;
use sfc_topology::TopologyKind;
use std::time::Instant;

const RADIUS: u32 = 4;
const WARMUP: usize = 3;
const SAMPLES: usize = 15;

/// Median wall time of `SAMPLES` runs of `f`, in microseconds.
fn median_us<R>(mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..WARMUP {
        std::hint::black_box(f());
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let workload = Workload::figure6(1).scaled_down(4);
    let procs = 1024u64;
    let particles = workload.particles(0);
    let dense = Assignment::new(&particles, workload.grid_order, CurveKind::Hilbert, procs);
    let sparse = Assignment::with_dense_grid(
        &particles,
        workload.grid_order,
        CurveKind::Hilbert,
        procs,
        false,
    );
    assert!(dense.has_dense_grid() && !sparse.has_dense_grid());
    let machine = Machine::new(TopologyKind::Torus, procs, CurveKind::Hilbert);
    let (dense_tree, sparse_tree) = (OwnerTree::build(&dense), OwnerTree::build(&sparse));

    // The guarantee BENCH_PR10.json cites: identical results either way.
    let nfi_dense = nfi_acd(&dense, &machine, RADIUS, Norm::Chebyshev).unwrap();
    let nfi_sparse = nfi_acd(&sparse, &machine, RADIUS, Norm::Chebyshev).unwrap();
    assert_eq!(nfi_dense, nfi_sparse, "NFI results diverge");
    assert_eq!(
        ffi_acd_with_tree(&dense, &machine, &dense_tree).unwrap(),
        ffi_acd_with_tree(&sparse, &machine, &sparse_tree).unwrap(),
        "FFI results diverge",
    );
    eprintln!(
        "workload: {} particles, {}x{} grid, {procs} procs, radius {RADIUS} (bit-identity ok)",
        particles.len(),
        1u64 << workload.grid_order,
        1u64 << workload.grid_order,
    );

    let scan_dense = median_us(|| nfi_acd(&dense, &machine, RADIUS, Norm::Chebyshev).unwrap());
    let scan_sparse = median_us(|| nfi_acd(&sparse, &machine, RADIUS, Norm::Chebyshev).unwrap());
    let scan_speedup = scan_sparse / scan_dense;
    eprintln!("nfi_scan: dense {scan_dense:.1}us, cellmap {scan_sparse:.1}us, {scan_speedup:.2}x");

    let e2e = |asg: &Assignment, tree: &OwnerTree| {
        let nfi = nfi_acd(asg, &machine, RADIUS, Norm::Chebyshev).unwrap();
        let ffi = ffi_acd_with_tree(asg, &machine, tree).unwrap();
        nfi.acd() + ffi.acd()
    };
    let e2e_dense = median_us(|| e2e(&dense, &dense_tree));
    let e2e_sparse = median_us(|| e2e(&sparse, &sparse_tree));
    let e2e_speedup = e2e_sparse / e2e_dense;
    eprintln!("end_to_end: dense {e2e_dense:.1}us, cellmap {e2e_sparse:.1}us, {e2e_speedup:.2}x");

    // Final stdout line: the machine-readable summary CI parses.
    println!(
        "{}",
        serde_json::json!({
            "bench": "grid_ablation",
            "nfi_scan": serde_json::json!({
                "dense_us": scan_dense,
                "cellmap_us": scan_sparse,
                "speedup": scan_speedup,
            }),
            "end_to_end": serde_json::json!({
                "dense_us": e2e_dense,
                "cellmap_us": e2e_sparse,
                "speedup": e2e_speedup,
            }),
        })
    );
}
