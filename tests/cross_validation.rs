//! Cross-validation tests: independent components of the workspace must
//! agree where their semantics overlap.

use sfc_analysis::core::anns::{anns, anns_radius};
use sfc_analysis::core::ffi::{ffi_traffic, OwnerTree};
use sfc_analysis::core::nfi::{nfi_acd, nfi_traffic};
use sfc_analysis::core::{Assignment, Machine, PairSink};
use sfc_analysis::curves::{point::Norm, CurveKind, Point2};
use sfc_analysis::fmm::tree::FmmTree;
use sfc_analysis::fmm::{direct, Fmm, Source};
use sfc_analysis::particles::{sample, Distribution, DistributionKind};
use sfc_analysis::quadtree::{Cell, CompressedQuadtree};
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
        .map(|p| {
            Source::new(
                (p.x as f64 + 0.5) / 1024.0,
                (p.y as f64 + 0.5) / 1024.0,
                1.0,
            )
        })
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

/// Message counts per `(sender, receiver)` rank pair, row-major in a
/// `p × p` table.
#[derive(Debug, PartialEq)]
struct Pairs {
    ranks: usize,
    counts: Vec<u64>,
}

impl Pairs {
    fn new(ranks: u64) -> Self {
        let ranks = ranks as usize;
        Pairs {
            ranks,
            counts: vec![0; ranks * ranks],
        }
    }

    fn add(&mut self, sender: u32, receiver: u32, count: u64) {
        self.counts[sender as usize * self.ranks + receiver as usize] += count;
    }

    fn transpose(&self) -> Pairs {
        let mut t = Pairs::new(self.ranks as u64);
        for s in 0..self.ranks {
            for r in 0..self.ranks {
                t.counts[r * self.ranks + s] = self.counts[s * self.ranks + r];
            }
        }
        t
    }
}

/// A [`PairSink`] that expands an undirected family both ways.
struct Collect {
    pairs: Pairs,
    undirected: bool,
}

impl Collect {
    fn new(ranks: u64, undirected: bool) -> Self {
        Collect {
            pairs: Pairs::new(ranks),
            undirected,
        }
    }
}

impl PairSink for Collect {
    fn take(&mut self, sender: u32, pairs: impl Iterator<Item = (u32, u64)> + Clone) {
        for (receiver, count) in pairs {
            self.pairs.add(sender, receiver, count);
            if self.undirected {
                self.pairs.add(receiver, sender, count);
            }
        }
    }
}

/// The cell pairs one FMM solve translates between, read from the solver's
/// own enumerations, each as `(source cell, target cell)`.
struct SolverPairs {
    /// M2M: child → parent.
    m2m: Vec<(Cell, Cell)>,
    /// L2L: parent → child.
    l2l: Vec<(Cell, Cell)>,
    /// M2L: interaction-list partner → cell.
    m2l: Vec<(Cell, Cell)>,
    /// P2P: neighbor leaf → leaf.
    p2p: Vec<(Cell, Cell)>,
}

impl SolverPairs {
    fn of(tree: &FmmTree) -> Self {
        let mut pairs = SolverPairs {
            m2m: Vec::new(),
            l2l: Vec::new(),
            m2l: Vec::new(),
            p2p: Vec::new(),
        };
        for l in 1..=tree.depth {
            let (coarse, level) = (&tree.levels[l as usize - 1], &tree.levels[l as usize]);
            for i in 0..level.len() {
                let (cell, parent) = (level.cell(i), coarse.cell(level.parent[i]));
                pairs.m2m.push((cell, parent));
                pairs.l2l.push((parent, cell));
                for j in tree.interaction_partners(l, i) {
                    pairs.m2l.push((level.cell(j), cell));
                }
            }
        }
        let leaves = tree.leaves();
        for i in 0..leaves.len() {
            for j in tree.near_leaves(i) {
                pairs.p2p.push((leaves.cell(j), leaves.cell(i)));
            }
        }
        pairs
    }

    /// Count `cells` as messages between the owners of their cells.
    fn count(cells: &[(Cell, Cell)], owners: &OwnerTree, ranks: u64) -> Pairs {
        let owner = |c: Cell| owners.owner(c).expect("every solver cell is occupied");
        let mut pairs = Pairs::new(ranks);
        for &(from, to) in cells {
            pairs.add(owner(from), owner(to), 1);
        }
        pairs
    }
}

/// DESIGN.md §1's cross-check: the uniform FMM solver does exactly the
/// communication the ACD model counts. With one source at the centre of
/// each occupied cell and the solver's tree at the grid order, map every
/// solver cell to its owner under an `Assignment`. Then, pair for pair,
/// M2M is the model's interpolation, L2L its transpose (anterpolation),
/// M2L the interaction lists and leaf P2P the radius-1 Chebyshev near
/// field, the last two counted both ways.
#[test]
fn fmm_solver_does_the_modelled_communication() {
    let sizes = [(3u32, 24usize), (5, 300), (7, 2000)];
    for ((order, n), kind) in sizes
        .into_iter()
        .flat_map(|s| DistributionKind::ALL.map(|k| (s, k)))
    {
        let particles = sample(kind.default_params(), order, n, 11);
        let side = (1u32 << order) as f64;
        let sources: Vec<Source> = particles
            .iter()
            .map(|p| Source::new((p.x as f64 + 0.5) / side, (p.y as f64 + 0.5) / side, 1.0))
            .collect();
        let tree = FmmTree::build(&sources, order);
        assert_eq!(tree.leaves().len(), particles.len(), "one source per leaf");
        let solver = SolverPairs::of(&tree);
        assert!(!solver.m2l.is_empty() && !solver.p2p.is_empty());
        for curve in CurveKind::PAPER {
            for p in [1u64, 4, 16, 64] {
                let asg = Assignment::new(&particles, order, curve, p);
                let owners = OwnerTree::build(&asg);
                let (mut interp, mut ilist) = (Collect::new(p, false), Collect::new(p, true));
                ffi_traffic(&asg, &owners, &mut interp, &mut ilist);
                let mut near = Collect::new(p, true);
                nfi_traffic(&asg, 1, Norm::Chebyshev, &mut near);
                let case = format!("{kind} order {order}, {curve}, p = {p}");
                let count = |cells: &[(Cell, Cell)]| SolverPairs::count(cells, &owners, p);
                assert_eq!(count(&solver.m2m), interp.pairs, "M2M, {case}");
                assert_eq!(count(&solver.l2l), interp.pairs.transpose(), "L2L, {case}");
                assert_eq!(count(&solver.m2l), ilist.pairs, "M2L, {case}");
                assert_eq!(count(&solver.p2p), near.pairs, "P2P, {case}");
            }
        }
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
            assert_eq!(
                machine.distance(a, b),
                net.rank_distance(a as u64, b as u64)
            );
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
