//! Property-based tests for the metric engine: invariants of the ACD model
//! that must hold for arbitrary inputs, curves and machines.

use proptest::prelude::*;
use sfc_core::ffi::{ffi_acd, ffi_acd_on, ffi_acd_with_tree, ffi_traffic, FfiResult, OwnerTree};
use sfc_core::load::{nfi_link_load, route, LinkLoad};
use sfc_core::model3d::{ffi_acd_3d, ffi_traffic_3d, nfi_acd_3d, nfi_traffic_3d, Assignment3};
use sfc_core::nfi::{nfi_acd, nfi_acd_on, nfi_traffic, NfiResult};
use sfc_core::{Assignment, Machine, PairSink};
use sfc_curves::curve3d::{Curve3dKind, Point3};
use sfc_curves::point::Norm;
use sfc_curves::{CurveKind, Point2};
use sfc_quadtree::cell3d::{interaction_list_3d, Cell3};
use sfc_quadtree::{interaction_list, Cell};
use sfc_topology::bfs::bfs_distances;
use sfc_topology::{Bus, Hypercube, Mesh2d, Ring, TopologyKind, Torus2d};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Generate a set of distinct cells on a `2^order` grid.
fn distinct_cells(order: u32, raws: &[(u32, u32)]) -> Vec<Point2> {
    let side = 1u32 << order;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &(rx, ry) in raws {
        let p = Point2::new(rx % side, ry % side);
        if seen.insert((p.x, p.y)) {
            out.push(p);
        }
    }
    out
}

/// Per-level owners computed the slow way: the minimum rank over each
/// cell's particles, keyed by cell coordinates.
fn reference_owners(asg: &Assignment) -> Vec<HashMap<(u32, u32), u32>> {
    let k = asg.grid_order();
    let mut owners = vec![HashMap::new(); k as usize + 1];
    for (i, p) in asg.particles().iter().enumerate() {
        let rank = asg.rank_of_index(i);
        for level in 0..=k {
            let shift = k - level;
            let owner = owners[level as usize]
                .entry((p.x >> shift, p.y >> shift))
                .or_insert(rank);
            *owner = (*owner).min(rank);
        }
    }
    owners
}

/// Brute-force far field: the reference owners, interaction lists from
/// `sfc_quadtree::interaction_list`, one explicit probe per list entry,
/// and hop distances straight from the topology (no oracle).
fn reference_ffi(asg: &Assignment, machine: &Machine) -> FfiResult {
    let owners = reference_owners(asg);
    let node = |rank: u32| machine.node_of(rank);
    let hops = |a: u32, b: u32| machine.topology().distance(node(a), node(b));
    let mut r = FfiResult::default();
    for level in 1..=asg.grid_order() {
        let cells = &owners[level as usize];
        for (&(x, y), &rank) in cells {
            r.interp_distance += hops(rank, owners[level as usize - 1][&(x >> 1, y >> 1)]);
            r.interp_comms += 1;
            for other in interaction_list(Cell::new(level, x, y)) {
                if let Some(&o) = cells.get(&(other.x, other.y)) {
                    r.ilist_distance += hops(rank, o);
                    r.ilist_comms += 1;
                }
            }
        }
    }
    r.anterp_distance = r.interp_distance;
    r.anterp_comms = r.interp_comms;
    r
}

/// Brute-force near field: every ordered pair of distinct particles within
/// `radius` under `norm`, with hop distances straight from the topology.
fn reference_nfi(asg: &Assignment, machine: &Machine, radius: u32, norm: Norm) -> NfiResult {
    let hops = |a: u32, b: u32| {
        let topo = machine.topology();
        topo.distance(machine.node_of(a), machine.node_of(b))
    };
    let particles = asg.particles();
    let mut r = NfiResult::default();
    for (i, p) in particles.iter().enumerate() {
        for (j, q) in particles.iter().enumerate() {
            let (dx, dy) = (p.x.abs_diff(q.x), p.y.abs_diff(q.y));
            let d = match norm {
                Norm::Chebyshev => dx.max(dy),
                Norm::Manhattan => dx + dy,
            };
            if i == j || d > radius {
                continue;
            }
            let (a, b) = (asg.rank_of_index(i), asg.rank_of_index(j));
            r.num_comms += 1;
            r.local_comms += u64::from(a == b);
            r.total_distance += hops(a, b);
        }
    }
    r
}

/// Directed message counts per `(sender, receiver)` rank pair.
type PairMap = BTreeMap<(u32, u32), u64>;

/// A [`PairSink`] that merges what a kernel delivers into a [`PairMap`],
/// counting each pair of an undirected family both ways.
struct Collect {
    pairs: PairMap,
    undirected: bool,
}

impl Collect {
    fn new(undirected: bool) -> Self {
        Collect {
            pairs: PairMap::new(),
            undirected,
        }
    }
}

impl PairSink for Collect {
    fn take(&mut self, sender: u32, pairs: impl Iterator<Item = (u32, u64)> + Clone) {
        for (receiver, count) in pairs {
            assert!(count > 0, "a delivered count is positive");
            *self.pairs.entry((sender, receiver)).or_default() += count;
            if self.undirected {
                *self.pairs.entry((receiver, sender)).or_default() += count;
            }
        }
    }
}

/// Brute-force near-field pairs: one message per ordered pair of distinct
/// particles within `radius` under `norm`.
fn reference_nfi_pairs(asg: &Assignment, radius: u32, norm: Norm) -> PairMap {
    let particles = asg.particles();
    let mut pairs = PairMap::new();
    for (i, p) in particles.iter().enumerate() {
        for (j, q) in particles.iter().enumerate() {
            let (dx, dy) = (p.x.abs_diff(q.x), p.y.abs_diff(q.y));
            let d = match norm {
                Norm::Chebyshev => dx.max(dy),
                Norm::Manhattan => dx + dy,
            };
            if i != j && d <= radius {
                let key = (asg.rank_of_index(i), asg.rank_of_index(j));
                *pairs.entry(key).or_default() += 1;
            }
        }
    }
    pairs
}

/// Brute-force far-field pairs, `(interpolation, interaction lists)`, from
/// the reference owners and `sfc_quadtree::interaction_list`.
fn reference_ffi_pairs(asg: &Assignment) -> (PairMap, PairMap) {
    let owners = reference_owners(asg);
    let (mut up, mut across) = (PairMap::new(), PairMap::new());
    for level in 1..=asg.grid_order() {
        let cells = &owners[level as usize];
        for (&(x, y), &rank) in cells {
            let parent = owners[level as usize - 1][&(x >> 1, y >> 1)];
            *up.entry((rank, parent)).or_default() += 1;
            for other in interaction_list(Cell::new(level, x, y)) {
                if let Some(&o) = cells.get(&(other.x, other.y)) {
                    *across.entry((rank, o)).or_default() += 1;
                }
            }
        }
    }
    (up, across)
}

/// Link loads of routing every message of `pairs` on its own route.
fn reference_link_load(machine: &Machine, pairs: &PairMap) -> LinkLoad {
    let topo = machine.topology();
    let mut load = LinkLoad {
        total_links: machine.num_links(),
        ..LinkLoad::default()
    };
    for (&(a, b), &count) in pairs {
        load.messages += count;
        let (from, to) = (machine.node_of(a), machine.node_of(b));
        let path = route(topo.kind(), topo.num_nodes(), from, to).unwrap();
        for hop in path.windows(2) {
            *load.links.entry((hop[0], hop[1])).or_default() += count;
            load.crossings += count;
        }
    }
    load
}

/// The pairs `asg`'s kernels deliver equal the brute-force directed
/// counts: near field under both norms at radii 1–4, and interpolation and
/// interaction lists, with each undirected family expanded both ways.
/// Routing the near field for link loads matches routing every message on
/// its own.
fn assert_brute_force_pairs(asg: &Assignment, machine: &Machine) {
    for norm in [Norm::Chebyshev, Norm::Manhattan] {
        for radius in 1..=4 {
            let want = reference_nfi_pairs(asg, radius, norm);
            let mut got = Collect::new(true);
            nfi_traffic(asg, radius, norm, &mut got);
            assert_eq!(&got.pairs, &want, "{:?} r={}", norm, radius);
            assert_eq!(
                nfi_link_load(asg, machine, radius, norm).unwrap(),
                reference_link_load(machine, &want),
                "{:?} r={}",
                norm,
                radius
            );
        }
    }
    let (want_up, want_across) = reference_ffi_pairs(asg);
    let (mut up, mut across) = (Collect::new(false), Collect::new(true));
    ffi_traffic(asg, &OwnerTree::build(asg), &mut up, &mut across);
    assert_eq!(&up.pairs, &want_up);
    assert_eq!(&across.pairs, &want_across);
}

/// Distinct cells of a `2^order`-sided cube.
fn distinct_cells_3d(order: u32, raws: &[(u32, u32, u32)]) -> Vec<Point3> {
    let side = 1u32 << order;
    let mut seen = std::collections::HashSet::new();
    raws.iter()
        .map(|&(x, y, z)| Point3::new(x % side, y % side, z % side))
        .filter(|&p| seen.insert(p))
        .collect()
}

/// The 3-D kernels deliver exactly the brute-force traffic pair by pair:
/// the Chebyshev near field at radii 1 and 2 against every ordered pair of
/// particles, interpolation against the minimum rank of each cell's and
/// its parent's particles, and interaction lists against
/// `sfc_quadtree::cell3d::interaction_list_3d` over those owners. Each
/// machine of the set then sees the brute-force pairs' hop distances.
fn assert_brute_force_pairs_3d(asg: &Assignment3, curve: Curve3dKind) {
    let hops = |m: &Machine, pairs: &PairMap| -> u64 {
        pairs.iter().map(|(&(a, b), &n)| n * m.distance(a, b)).sum()
    };
    let machines: Vec<Machine> = [
        TopologyKind::Mesh3d,
        TopologyKind::Torus3d,
        TopologyKind::Hypercube,
    ]
    .map(|kind| Machine::cube(kind, asg.num_ranks(), curve))
    .into();
    let set: Vec<&Machine> = machines.iter().collect();
    let particles = asg.particles();
    for radius in 1..=2 {
        let mut want = PairMap::new();
        for (i, p) in particles.iter().enumerate() {
            for (j, q) in particles.iter().enumerate() {
                if i != j && p.chebyshev(*q) <= u64::from(radius) {
                    let key = (asg.rank_of_index(i), asg.rank_of_index(j));
                    *want.entry(key).or_default() += 1;
                }
            }
        }
        let mut got = Collect::new(true);
        nfi_traffic_3d(asg, radius, &mut got);
        assert_eq!(&got.pairs, &want, "r={radius}");
        let results = nfi_acd_3d(asg, &set, radius).unwrap();
        for (m, result) in machines.iter().zip(results) {
            assert_eq!(result.num_comms, want.values().sum::<u64>());
            assert_eq!(result.total_distance, hops(m, &want), "r={radius}");
        }
    }
    // Owners, level by level: the minimum rank over each cell's particles.
    let k = asg.grid_order();
    let mut owners = vec![HashMap::new(); k as usize + 1];
    for (i, p) in particles.iter().enumerate() {
        for level in 0..=k {
            let shift = k - level;
            let cell = (p.x >> shift, p.y >> shift, p.z >> shift);
            let owner = owners[level as usize]
                .entry(cell)
                .or_insert(asg.rank_of_index(i));
            *owner = (*owner).min(asg.rank_of_index(i));
        }
    }
    let (mut want_up, mut want_across) = (PairMap::new(), PairMap::new());
    for level in 1..=k {
        let cells = &owners[level as usize];
        for (&(x, y, z), &rank) in cells {
            let parent = owners[level as usize - 1][&(x >> 1, y >> 1, z >> 1)];
            *want_up.entry((rank, parent)).or_default() += 1;
            for other in interaction_list_3d(Cell3::new(level, x, y, z)) {
                if let Some(&o) = cells.get(&(other.x, other.y, other.z)) {
                    *want_across.entry((rank, o)).or_default() += 1;
                }
            }
        }
    }
    let (mut up, mut across) = (Collect::new(false), Collect::new(true));
    ffi_traffic_3d(asg, &mut up, &mut across);
    assert_eq!(&up.pairs, &want_up);
    assert_eq!(&across.pairs, &want_across);
    let results = ffi_acd_3d(asg, &set).unwrap();
    for (m, result) in machines.iter().zip(results) {
        assert_eq!(result.interp_comms, want_up.values().sum::<u64>());
        assert_eq!(result.ilist_comms, want_across.values().sum::<u64>());
        assert_eq!(result.interp_distance, hops(m, &want_up));
        assert_eq!(result.ilist_distance, hops(m, &want_across));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 3-D kernels deliver the brute-force pairs (see
    /// [`assert_brute_force_pairs_3d`]) at orders 2–4, on dense cubes, with
    /// 1 to 512 ranks.
    #[test]
    fn kernels_3d_deliver_the_brute_force_pairs(
        raws in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..120),
        order in 2u32..5,
        curve_idx in 0usize..4,
        procs_idx in 0usize..4,
    ) {
        let cells = distinct_cells_3d(order, &raws);
        let curve = Curve3dKind::ALL[curve_idx];
        let procs = [1u64, 8, 64, 512][procs_idx];
        let asg = Assignment3::new(&cells, order, curve, procs);
        prop_assert!(asg.has_dense_grid());
        assert_brute_force_pairs_3d(&asg, curve);
    }

    /// Above the cell cap the cube's table is sparse, and the 3-D kernels
    /// still deliver the brute-force pairs. The cells come from the 8×8×8
    /// corner of the order-9 cube (2^27 cells), so the near field and the
    /// interaction lists are populated.
    #[test]
    fn kernels_3d_deliver_the_brute_force_pairs_above_the_cell_cap(
        raws in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..120),
        curve_idx in 0usize..4,
        procs_idx in 0usize..4,
    ) {
        let cells = distinct_cells_3d(3, &raws);
        let curve = Curve3dKind::ALL[curve_idx];
        let procs = [1u64, 8, 64, 512][procs_idx];
        let asg = Assignment3::new(&cells, 9, curve, procs);
        prop_assert!(!asg.has_dense_grid());
        assert_brute_force_pairs_3d(&asg, curve);
    }

    /// One scan evaluated on a whole machine set gives, machine by machine,
    /// what the single-machine kernels give, and both equal the brute-force
    /// references. The set holds all six topologies, each with or without
    /// the oracle, sized up to 16× the assignment's ranks; the particle
    /// curves include Row-major and Gray, whose coarse-level owners are not
    /// in rank order.
    #[test]
    fn machine_sets_match_single_machines_and_brute_force(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..100),
        order in 2u32..6,
        curve_idx in 0usize..4,
        procs_idx in 0usize..3,
        spare in 0u32..3,
        radius in 1u32..5,
        manhattan in any::<bool>(),
        oracles in 0u32..64,
    ) {
        let cells = distinct_cells(order, &raws);
        let curve = [CurveKind::RowMajor, CurveKind::Gray, CurveKind::Hilbert, CurveKind::ZCurve][curve_idx];
        let norm = if manhattan { Norm::Manhattan } else { Norm::Chebyshev };
        let procs = [4u64, 16, 64][procs_idx];
        let dense = Assignment::new(&cells, order, curve, procs);
        let sparse = Assignment::with_dense_grid(&cells, order, curve, procs, false);
        let machine_ranks = procs << (2 * spare);
        let machines: Vec<Machine> = TopologyKind::PAPER
            .iter()
            .enumerate()
            .map(|(i, &kind)| match oracles >> i & 1 {
                1 => Machine::new(kind, machine_ranks, curve),
                _ => Machine::closed_form(kind, machine_ranks, curve),
            })
            .collect();
        let set: Vec<&Machine> = machines.iter().collect();
        let want: Vec<(NfiResult, FfiResult)> = machines
            .iter()
            .map(|m| (reference_nfi(&dense, m, radius, norm), reference_ffi(&dense, m)))
            .collect();
        for asg in [&dense, &sparse] {
            let tree = OwnerTree::build(asg);
            let near = nfi_acd_on(asg, &set, radius, norm).unwrap();
            let far = ffi_acd_on(asg, &set, &tree).unwrap();
            prop_assert_eq!(near.len(), set.len());
            prop_assert_eq!(far.len(), set.len());
            for (i, m) in machines.iter().enumerate() {
                let (want_near, want_far) = want[i];
                prop_assert_eq!(nfi_acd(asg, m, radius, norm).unwrap(), want_near);
                prop_assert_eq!(near[i], want_near);
                prop_assert_eq!(ffi_acd_with_tree(asg, m, &tree).unwrap(), want_far);
                prop_assert_eq!(far[i], want_far);
            }
        }
    }

    /// The kernels deliver exactly the brute-force traffic pair by pair,
    /// not only in sum (see [`assert_brute_force_pairs`]), on dense
    /// and sparse assignments.
    #[test]
    fn kernels_deliver_the_brute_force_pairs(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..100),
        order in 2u32..6,
        curve_idx in 0usize..4,
        procs_idx in 0usize..3,
        topo_idx in 0usize..6,
    ) {
        let cells = distinct_cells(order, &raws);
        let curve = CurveKind::PAPER[curve_idx];
        let procs = [4u64, 16, 64][procs_idx];
        let dense = Assignment::new(&cells, order, curve, procs);
        let sparse = Assignment::with_dense_grid(&cells, order, curve, procs, false);
        let machine = Machine::closed_form(TopologyKind::PAPER[topo_idx], procs, curve);
        for asg in [&dense, &sparse] {
            assert_brute_force_pairs(asg, &machine);
        }
    }

    /// Above the cell cap `Assignment::new` itself picks the sparse table,
    /// and the kernels still deliver the brute-force pairs. The cells come
    /// from the 32×32 corner of the order-13 grid, so the near field and
    /// the interaction lists are populated.
    #[test]
    fn kernels_deliver_the_brute_force_pairs_above_the_cell_cap(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..100),
        curve_idx in 0usize..4,
        procs_idx in 0usize..3,
        topo_idx in 0usize..6,
    ) {
        let cells = distinct_cells(5, &raws);
        let curve = CurveKind::PAPER[curve_idx];
        let procs = [4u64, 16, 64][procs_idx];
        let asg = Assignment::new(&cells, 13, curve, procs);
        prop_assert!(!asg.has_dense_grid());
        let machine = Machine::closed_form(TopologyKind::PAPER[topo_idx], procs, curve);
        assert_brute_force_pairs(&asg, &machine);
    }

    /// The owner pyramid and the far-field kernel agree with the
    /// brute-force reference at every order, on every topology, with the
    /// oracle on and off and with dense and fallback assignments.
    #[test]
    fn ffi_matches_brute_force_reference(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..120),
        order in 2u32..7,
        curve_idx in 0usize..4,
        topo_idx in 0usize..6,
        procs_idx in 0usize..3,
    ) {
        let cells = distinct_cells(order, &raws);
        let curve = CurveKind::PAPER[curve_idx];
        let procs = [4u64, 16, 64][procs_idx];
        let dense = Assignment::new(&cells, order, curve, procs);
        let sparse = Assignment::with_dense_grid(&cells, order, curve, procs, false);
        prop_assert!(dense.has_dense_grid() && !sparse.has_dense_grid());
        let cached = Machine::new(TopologyKind::PAPER[topo_idx], procs, curve);
        let plain = Machine::closed_form(TopologyKind::PAPER[topo_idx], procs, curve);
        let want = reference_ffi(&dense, &plain);
        let owners = reference_owners(&dense);
        // One tree, rebuilt in place from another grid order, so table
        // reuse, growth and truncation are checked too.
        let other_order = Assignment::new(&[Point2::new(0, 0)], 8 - order, curve, 1);
        let mut tree = OwnerTree::build(&other_order);
        for asg in [&dense, &sparse] {
            tree.rebuild(asg);
            prop_assert_eq!(tree.num_levels(), order as usize + 1);
            for level in 0..=order {
                let side = 1u32 << level;
                let lookup = &owners[level as usize];
                prop_assert_eq!(tree.level_len(level), lookup.len());
                for x in 0..side {
                    for y in 0..side {
                        let cell = Cell::new(level, x, y);
                        prop_assert_eq!(tree.owner(cell), lookup.get(&(x, y)).copied());
                    }
                }
            }
            for machine in [&cached, &plain] {
                prop_assert_eq!(ffi_acd_with_tree(asg, machine, &tree).unwrap(), want);
                prop_assert_eq!(ffi_acd(asg, machine).unwrap(), want);
            }
        }
    }

    /// The ACD is bounded by the network diameter for arbitrary inputs.
    #[test]
    fn acd_within_diameter(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..80),
        curve_idx in 0usize..4,
        topo_idx in 0usize..6,
        radius in 1u32..4,
    ) {
        let order = 5u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(!cells.is_empty());
        let curve = CurveKind::PAPER[curve_idx];
        let topo = TopologyKind::PAPER[topo_idx];
        let procs = 64u64;
        let asg = Assignment::new(&cells, order, curve, procs);
        let machine = Machine::new(topo, procs, curve);
        let diameter = machine.topology().diameter() as f64;
        let nfi = nfi_acd(&asg, &machine, radius, Norm::Chebyshev).unwrap();
        prop_assert!(nfi.acd() <= diameter);
        prop_assert!(nfi.total_distance <= nfi.num_comms * machine.topology().diameter());
        let ffi = ffi_acd(&asg, &machine).unwrap();
        prop_assert!(ffi.acd() <= diameter);
    }

    /// NFI communication counts are independent of the curves and topology:
    /// the same particle set always produces the same number of exchanges
    /// (only the distances change). This is the "fixed communication
    /// structure" premise of the paper's model.
    #[test]
    fn nfi_comm_count_is_curve_invariant(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 2..60),
        radius in 1u32..3,
    ) {
        let order = 5u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(cells.len() >= 2);
        let mut counts = std::collections::HashSet::new();
        for curve in CurveKind::PAPER {
            let asg = Assignment::new(&cells, order, curve, 16);
            let machine = Machine::new(TopologyKind::Torus, 16, curve);
            counts.insert(nfi_acd(&asg, &machine, radius, Norm::Chebyshev).unwrap().num_comms);
        }
        prop_assert_eq!(counts.len(), 1);
    }

    /// FFI interpolation counts likewise depend only on the particle set
    /// (the occupied cells per level), not on the curves.
    #[test]
    fn ffi_tree_comm_count_is_curve_invariant(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 2..60),
    ) {
        let order = 5u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(cells.len() >= 2);
        let mut counts = std::collections::HashSet::new();
        for curve in CurveKind::PAPER {
            let asg = Assignment::new(&cells, order, curve, 16);
            let machine = Machine::new(TopologyKind::Torus, 16, curve);
            counts.insert(ffi_acd(&asg, &machine).unwrap().interp_comms);
        }
        prop_assert_eq!(counts.len(), 1);
    }

    /// With a single processor, every ACD is exactly zero.
    #[test]
    fn single_processor_means_zero_acd(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..50),
        curve_idx in 0usize..4,
    ) {
        let order = 4u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(!cells.is_empty());
        let curve = CurveKind::PAPER[curve_idx];
        let asg = Assignment::new(&cells, order, curve, 1);
        let machine = Machine::new(TopologyKind::Torus, 1, curve);
        prop_assert_eq!(nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap().acd(), 0.0);
        prop_assert_eq!(ffi_acd(&asg, &machine).unwrap().acd(), 0.0);
    }

    /// The owner tree's per-level occupancy shrinks monotonically toward the
    /// root, and the root is always owned by rank 0's... lowest rank present.
    #[test]
    fn owner_tree_monotone_occupancy(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 1..80),
    ) {
        let order = 5u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(!cells.is_empty());
        let asg = Assignment::new(&cells, order, CurveKind::Hilbert, 8);
        let tree = OwnerTree::build(&asg);
        for level in 1..=order {
            prop_assert!(tree.level_len(level) >= tree.level_len(level - 1));
        }
        prop_assert_eq!(tree.level_len(0), 1);
        prop_assert_eq!(
            tree.owner(sfc_quadtree::Cell::ROOT),
            Some(0),
            "rank 0 always holds the lowest-indexed particle"
        );
        prop_assert_eq!(tree.level_len(order), cells.len());
    }

    /// Doubling the radius can only add communications, never remove them,
    /// and the total distance is monotone too.
    #[test]
    fn nfi_monotone_in_radius(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 2..60),
    ) {
        let order = 5u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(cells.len() >= 2);
        let asg = Assignment::new(&cells, order, CurveKind::ZCurve, 16);
        let machine = Machine::new(TopologyKind::Mesh, 16, CurveKind::ZCurve);
        let r1 = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        let r2 = nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap();
        prop_assert!(r2.num_comms >= r1.num_comms);
        prop_assert!(r2.total_distance >= r1.total_distance);
    }

    /// Deterministic routing is truly shortest-path: for every topology and
    /// arbitrary endpoints, the routed path length equals the BFS hop
    /// distance over the explicit link graph, and every step is a physical
    /// link. (Regression guard for the mesh/torus side-length derivation,
    /// which used to truncate a floating-point sqrt.)
    #[test]
    fn route_length_matches_bfs_for_every_topology(a in 0u64..64, b in 0u64..64) {
        let nodes = 64u64;
        type Neighbors = Box<dyn Fn(u64) -> Vec<u64>>;
        let direct: [(TopologyKind, Neighbors); 5] = [
            (TopologyKind::Bus, {
                let t = Bus::new(nodes);
                Box::new(move |n| t.neighbors(n))
            }),
            (TopologyKind::Ring, {
                let t = Ring::new(nodes);
                Box::new(move |n| t.neighbors(n))
            }),
            (TopologyKind::Mesh, {
                let t = Mesh2d::square(3);
                Box::new(move |n| t.neighbors(n))
            }),
            (TopologyKind::Torus, {
                let t = Torus2d::square(3);
                Box::new(move |n| t.neighbors(n))
            }),
            (TopologyKind::Hypercube, {
                let t = Hypercube::new(6);
                Box::new(move |n| t.neighbors(n))
            }),
        ];
        for (kind, neighbors) in &direct {
            let path = route(*kind, nodes, a, b).unwrap();
            prop_assert_eq!(path[0], a, "{}", kind);
            prop_assert_eq!(*path.last().unwrap(), b, "{}", kind);
            let dist = bfs_distances(nodes, a, &**neighbors);
            prop_assert_eq!((path.len() - 1) as u64, dist[b as usize], "{}", kind);
            for hop in path.windows(2) {
                prop_assert!(
                    neighbors(hop[0]).contains(&hop[1]),
                    "{}: {} -> {} is not a physical link",
                    kind, hop[0], hop[1]
                );
            }
        }

        // The quadtree is indirect: BFS over the explicit leaf/switch graph,
        // using the same switch-node encoding as `route`.
        let levels = 3u32; // 64 leaves
        let encode = |level: u32, idx: u64| -> u64 {
            if level == levels {
                idx
            } else {
                ((level as u64 + 1) << 56) | idx
            }
        };
        let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
        for level in 0..levels {
            for idx in 0..(1u64 << (2 * level)) {
                let parent = encode(level, idx);
                for k in 0..4 {
                    let child = encode(level + 1, 4 * idx + k);
                    adj.entry(parent).or_default().push(child);
                    adj.entry(child).or_default().push(parent);
                }
            }
        }
        let mut dist: HashMap<u64, u64> = HashMap::from([(a, 0)]);
        let mut queue = VecDeque::from([a]);
        while let Some(n) = queue.pop_front() {
            let d = dist[&n];
            for &nb in &adj[&n] {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(nb) {
                    e.insert(d + 1);
                    queue.push_back(nb);
                }
            }
        }
        let path = route(TopologyKind::Quadtree, nodes, a, b).unwrap();
        prop_assert_eq!(path[0], a);
        prop_assert_eq!(*path.last().unwrap(), b);
        prop_assert_eq!((path.len() - 1) as u64, dist[&b], "quadtree");
        for hop in path.windows(2) {
            prop_assert!(
                adj[&hop[0]].contains(&hop[1]),
                "quadtree: {} -> {} is not a physical link",
                hop[0], hop[1]
            );
        }
    }

    /// The Chebyshev ball contains the Manhattan ball: comm counts dominate.
    #[test]
    fn chebyshev_dominates_manhattan(
        raws in prop::collection::vec((any::<u32>(), any::<u32>()), 2..60),
        radius in 1u32..4,
    ) {
        let order = 5u32;
        let cells = distinct_cells(order, &raws);
        prop_assume!(cells.len() >= 2);
        let asg = Assignment::new(&cells, order, CurveKind::Gray, 16);
        let machine = Machine::new(TopologyKind::Torus, 16, CurveKind::Gray);
        let cheb = nfi_acd(&asg, &machine, radius, Norm::Chebyshev).unwrap();
        let manh = nfi_acd(&asg, &machine, radius, Norm::Manhattan).unwrap();
        prop_assert!(cheb.num_comms >= manh.num_comms);
    }
}
