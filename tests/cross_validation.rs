//! Cross-validation tests: independent components of the workspace must
//! agree where their semantics overlap.

use sfc_analysis::core::anns::{anns, anns_radius};
use sfc_analysis::core::ffi::OwnerTree;
use sfc_analysis::core::nfi::nfi_acd;
use sfc_analysis::core::{Assignment, Machine};
use sfc_analysis::curves::{point::Norm, CurveKind, Point2};
use sfc_analysis::fmm::{direct, Fmm, Source};
use sfc_analysis::particles::{sample, Distribution};
use sfc_analysis::quadtree::CompressedQuadtree;
use sfc_analysis::topology::TopologyKind;

/// Section V of the paper: the ANNS *is* the ACD model run with every cell
/// occupied, one cell per processor, and linear-order distance. Encode that
/// equivalence directly: NFI ACD on a bus whose ranks are the curve order
/// equals the ANNS.
#[test]
fn anns_equals_nfi_on_bus_with_full_grid() {
    for curve in CurveKind::PAPER {
        let order = 5u32;
        let side = 1u32 << order;
        let cells: Vec<Point2> = (0..side)
            .flat_map(|y| (0..side).map(move |x| Point2::new(x, y)))
            .collect();
        let p = (side as u64) * (side as u64);
        // One particle per processor: rank r holds the r-th cell in curve
        // order. The bus distance |rank_a - rank_b| is the linear-ordering
        // distance — exactly the stretch for radius-1 Manhattan pairs.
        let asg = Assignment::new(&cells, order, curve, p);
        let machine = Machine::new(TopologyKind::Bus, p, curve);
        let nfi = nfi_acd(&asg, &machine, 1, Norm::Manhattan).unwrap();
        let stretch = anns(curve, order).unwrap();
        assert_eq!(nfi.num_comms, 2 * stretch.num_pairs, "{curve}");
        assert!(
            (nfi.acd() - stretch.average()).abs() < 1e-9,
            "{curve}: NFI-on-bus {} vs ANNS {}",
            nfi.acd(),
            stretch.average()
        );
    }
}

/// The same equivalence holds for the generalized radius under Chebyshev...
/// with the caveat that the ANNS divides by spatial distance while NFI does
/// not — so compare at radius 1 where the divisor is 1, under Chebyshev.
#[test]
fn chebyshev_radius1_equivalence() {
    let curve = CurveKind::Gray;
    let order = 4u32;
    let side = 1u32 << order;
    let cells: Vec<Point2> = (0..side)
        .flat_map(|y| (0..side).map(move |x| Point2::new(x, y)))
        .collect();
    let p = (side as u64) * (side as u64);
    let asg = Assignment::new(&cells, order, curve, p);
    let machine = Machine::new(TopologyKind::Bus, p, curve);
    let nfi = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
    let stretch = anns_radius(curve, order, 1, Norm::Chebyshev).unwrap();
    assert!((nfi.acd() - stretch.average()).abs() < 1e-9);
}

/// The OwnerTree of the ACD model and the CompressedQuadtree must agree on
/// structure: the compressed tree's node cells are exactly the occupied
/// cells of the owner tree that are "branching or leaf" — in particular
/// every compressed-tree cell is occupied in the owner tree.
#[test]
fn owner_tree_agrees_with_compressed_quadtree() {
    let order = 6u32;
    let particles = sample(Distribution::uniform(), order, 300, 5);
    let asg = Assignment::new(&particles, order, CurveKind::ZCurve, 16);
    let owner = OwnerTree::build(&asg);
    let compressed = CompressedQuadtree::build(order, &particles);
    for node in compressed.nodes() {
        assert!(
            owner.owner(node.cell).is_some(),
            "compressed node {} not occupied in owner tree",
            node.cell
        );
    }
    // Occupied-cell counts per level: the owner tree's finest level matches
    // the particle count exactly (one particle per cell).
    assert_eq!(owner.level_len(order), particles.len());
    assert_eq!(compressed.num_leaves(), particles.len());
}

/// The FMM solver's tree sorts sources in Z-curve order — the *same* order
/// `Assignment` produces with `CurveKind::ZCurve` — and its answers match
/// direct summation. This ties the solver substrate to the ordering library
/// it shares with the metric engine.
#[test]
fn fmm_solver_and_assignment_share_the_z_order() {
    let n = 500;
    let sources: Vec<Source> = sample(Distribution::uniform(), 10, n, 9)
        .into_iter()
        .map(|p| Source::new(
            (p.x as f64 + 0.5) / 1024.0,
            (p.y as f64 + 0.5) / 1024.0,
            1.0,
        ))
        .collect();
    let tree = sfc_analysis::fmm::tree::FmmTree::build(&sources, 10);
    // Extract cell coords of the sorted sources; they must be in ascending
    // Morton order (ties impossible: distinct cells).
    let codes: Vec<u64> = tree
        .sources
        .iter()
        .map(|s| {
            let x = (s.pos.re * 1024.0) as u32;
            let y = (s.pos.im * 1024.0) as u32;
            CurveKind::ZCurve.index_of(10, Point2::new(x, y))
        })
        .collect();
    assert!(codes.windows(2).all(|w| w[0] < w[1]));

    // And the solver agrees with the baseline.
    let fast = Fmm::new(18).potentials(&sources);
    let exact = direct::potentials(&sources);
    let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (f, e) in fast.iter().zip(&exact) {
        assert!((f - e).abs() / scale < 1e-6);
    }
}

/// Grid topologies under an SFC rank map must report the same distances as
/// the generic RankedNetwork built from the same pieces.
#[test]
fn machine_matches_ranked_network() {
    use sfc_analysis::topology::{RankedNetwork, Torus2d};
    let machine = Machine::new(TopologyKind::Torus, 256, CurveKind::Gray);
    let net = RankedNetwork::with_sfc_ranks(Torus2d::square(4), CurveKind::Gray);
    for a in (0..256u32).step_by(17) {
        for b in (0..256u32).step_by(13) {
            assert_eq!(machine.distance(a, b), net.rank_distance(a as u64, b as u64));
        }
    }
}

/// Topology closed forms agree with their own diameters over random pairs
/// (metric sanity at sweep scale).
#[test]
fn distances_never_exceed_diameter_at_scale() {
    for kind in TopologyKind::PAPER {
        let topo = kind.build(4096);
        let d = topo.diameter();
        let mut state = 1u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state % 4096;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = state % 4096;
            let dist = topo.distance(a, b);
            assert!(dist <= d, "{kind}: d({a},{b})={dist} > diameter {d}");
            assert_eq!(dist, topo.distance(b, a));
        }
    }
}
