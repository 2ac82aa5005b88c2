//! Integration tests asserting the paper's qualitative findings hold in this
//! implementation at moderate (laptop-friendly) scale. Each test names the
//! claim and where the paper states it.

use sfc_analysis::core::anns::anns;
use sfc_analysis::core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_analysis::core::nfi::nfi_acd;
use sfc_analysis::core::{Assignment, Machine};
use sfc_analysis::curves::{point::Norm, CurveKind};
use sfc_analysis::particles::{DistributionKind, Workload};
use sfc_analysis::topology::TopologyKind;

const SCALE: u32 = 2; // 256x256 grid, ~15.6k particles, 4096 processors
const TRIALS: u64 = 3;

/// Mean NFI/FFI ACD over trials for a (particle curve, processor curve,
/// topology, distribution) setting at the scaled Table I/II configuration.
fn acd(
    particle: CurveKind,
    processor: CurveKind,
    topology: TopologyKind,
    dist: DistributionKind,
) -> (f64, f64) {
    let workload = Workload::tables_1_2(dist, 77).scaled_down(SCALE);
    let procs = 65_536u64 >> (2 * SCALE);
    let machine = Machine::new(topology, procs, processor);
    let (mut nfi_sum, mut ffi_sum) = (0.0, 0.0);
    for t in 0..TRIALS {
        let particles = workload.particles(t);
        let asg = Assignment::new(&particles, workload.grid_order, particle, procs);
        let tree = OwnerTree::build(&asg);
        nfi_sum += nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap().acd();
        ffi_sum += ffi_acd_with_tree(&asg, &machine, &tree).unwrap().acd();
    }
    (nfi_sum / TRIALS as f64, ffi_sum / TRIALS as f64)
}

/// Section VI-A / Table I: "the results are unanimously in favor of the
/// Hilbert ordering for every particle distribution" (NFI), and the overall
/// ordering {Hilbert ≈ Z} < Gray << Row-major.
#[test]
fn table1_nfi_curve_ordering() {
    for dist in DistributionKind::ALL {
        let (hilbert, _) = acd(
            CurveKind::Hilbert,
            CurveKind::Hilbert,
            TopologyKind::Torus,
            dist,
        );
        let (z, _) = acd(
            CurveKind::ZCurve,
            CurveKind::ZCurve,
            TopologyKind::Torus,
            dist,
        );
        let (gray, _) = acd(CurveKind::Gray, CurveKind::Gray, TopologyKind::Torus, dist);
        let (row, _) = acd(
            CurveKind::RowMajor,
            CurveKind::RowMajor,
            TopologyKind::Torus,
            dist,
        );
        assert!(
            hilbert < gray && z <= gray * 1.02,
            "{dist}: hilbert={hilbert:.3} z={z:.3} gray={gray:.3}"
        );
        assert!(
            row > 2.0 * hilbert,
            "{dist}: row-major ({row:.3}) should be far above Hilbert ({hilbert:.3})"
        );
    }
}

/// Section VI-A: with a Hilbert processor order, the Hilbert particle order
/// is the most communication-effective choice (first row of each Table I
/// block increases left to right).
#[test]
fn table1_first_row_increases() {
    let values: Vec<f64> = CurveKind::PAPER
        .iter()
        .map(|&pc| {
            acd(
                pc,
                CurveKind::Hilbert,
                TopologyKind::Torus,
                DistributionKind::Uniform,
            )
            .0
        })
        .collect();
    for w in values.windows(2) {
        assert!(w[0] < w[1], "row not increasing: {values:?}");
    }
}

/// Section VI-A: recursive curves pay roughly a factor of two under the
/// normal distribution relative to uniform, because the central mass sits on
/// the curves' largest discontinuities.
#[test]
fn normal_distribution_penalty_for_recursive_curves() {
    let (uniform, _) = acd(
        CurveKind::Hilbert,
        CurveKind::Hilbert,
        TopologyKind::Torus,
        DistributionKind::Uniform,
    );
    let (normal, _) = acd(
        CurveKind::Hilbert,
        CurveKind::Hilbert,
        TopologyKind::Torus,
        DistributionKind::Normal,
    );
    let ratio = normal / uniform;
    assert!(
        ratio > 1.2 && ratio < 3.5,
        "normal/uniform NFI ratio {ratio:.2} outside the paper's ~2x band"
    );
}

/// Section VI-B / Figure 6: the hypercube gives the lowest near-field ACD of
/// the paper's topologies; bus and ring are far worse than every
/// 2-D-structured network; mesh and torus are comparable for the recursive
/// curves.
#[test]
fn figure6_topology_ordering() {
    let dist = DistributionKind::Uniform;
    let nfi = |topo| acd(CurveKind::Hilbert, CurveKind::Hilbert, topo, dist).0;
    let cube = nfi(TopologyKind::Hypercube);
    let mesh = nfi(TopologyKind::Mesh);
    let torus = nfi(TopologyKind::Torus);
    let quadtree = nfi(TopologyKind::Quadtree);
    let bus = nfi(TopologyKind::Bus);
    let ring = nfi(TopologyKind::Ring);
    assert!(
        cube <= torus && cube <= mesh && cube <= quadtree,
        "hypercube should win NFI: cube={cube:.3} torus={torus:.3} mesh={mesh:.3} quadtree={quadtree:.3}"
    );
    assert!(
        bus > 3.0 * torus,
        "bus ({bus:.2}) should dwarf torus ({torus:.2})"
    );
    assert!(ring > 2.0 * torus);
    let mesh_torus_gap = (mesh - torus).abs() / torus;
    assert!(
        mesh_torus_gap < 0.25,
        "mesh and torus should be comparable for Hilbert (gap {mesh_torus_gap:.2})"
    );
}

/// Section VI-B: the row-major ordering benefits from the torus's wrapped
/// links far more than the recursive curves do (its mesh ACD is markedly
/// higher than its torus ACD).
#[test]
fn row_major_gains_from_torus_wraparound() {
    let dist = DistributionKind::Uniform;
    let (_, mesh_ffi) = acd(
        CurveKind::RowMajor,
        CurveKind::RowMajor,
        TopologyKind::Mesh,
        dist,
    );
    let (_, torus_ffi) = acd(
        CurveKind::RowMajor,
        CurveKind::RowMajor,
        TopologyKind::Torus,
        dist,
    );
    assert!(
        mesh_ffi > 1.15 * torus_ffi,
        "row-major FFI: mesh {mesh_ffi:.3} should clearly exceed torus {torus_ffi:.3}"
    );
    let (_, h_mesh) = acd(
        CurveKind::Hilbert,
        CurveKind::Hilbert,
        TopologyKind::Mesh,
        dist,
    );
    let (_, h_torus) = acd(
        CurveKind::Hilbert,
        CurveKind::Hilbert,
        TopologyKind::Torus,
        dist,
    );
    let hilbert_gap = (h_mesh - h_torus) / h_torus;
    assert!(
        hilbert_gap < 0.15,
        "Hilbert should barely benefit from wraparound (gap {hilbert_gap:.2})"
    );
}

/// Section V / Figure 5: under ANNS, Z and row-major beat Hilbert and Gray,
/// and Z and row-major are asymptotically equivalent (Xu & Tirthapura).
#[test]
fn figure5_anns_inversion() {
    for order in [6u32, 8] {
        let h = anns(CurveKind::Hilbert, order).unwrap().average();
        let z = anns(CurveKind::ZCurve, order).unwrap().average();
        let g = anns(CurveKind::Gray, order).unwrap().average();
        let r = anns(CurveKind::RowMajor, order).unwrap().average();
        assert!(z < h && z < g, "order {order}");
        assert!(r < h && r < g, "order {order}");
        assert!(
            (z - r).abs() / r < 0.01,
            "Z ({z:.2}) and row-major ({r:.2}) should be near-identical"
        );
    }
}

/// Section VI-C: NFI distribution ordering is uniform best, then
/// exponential, then normal.
#[test]
fn nfi_distribution_ordering() {
    let nfi = |d| {
        acd(
            CurveKind::Hilbert,
            CurveKind::Hilbert,
            TopologyKind::Torus,
            d,
        )
        .0
    };
    let uniform = nfi(DistributionKind::Uniform);
    let normal = nfi(DistributionKind::Normal);
    let exponential = nfi(DistributionKind::Exponential);
    assert!(uniform < exponential, "{uniform:.3} !< {exponential:.3}");
    assert!(exponential < normal, "{exponential:.3} !< {normal:.3}");
}

/// Definition 1: the ACD is an average of hop distances, so it is bounded by
/// the network diameter, for every curve and topology.
#[test]
fn acd_bounded_by_diameter() {
    let procs = 65_536u64 >> (2 * SCALE);
    for topo in TopologyKind::PAPER {
        let diameter = topo.build(procs).diameter() as f64;
        for curve in CurveKind::PAPER {
            let (nfi, ffi) = acd(curve, curve, topo, DistributionKind::Uniform);
            assert!(
                nfi <= diameter,
                "{topo}/{curve}: NFI {nfi} > diameter {diameter}"
            );
            assert!(
                ffi <= diameter,
                "{topo}/{curve}: FFI {ffi} > diameter {diameter}"
            );
        }
    }
}
