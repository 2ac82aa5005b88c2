//! Link-load accounting — a first step toward the paper's future-work item
//! (i): "study the impact of data volume and network contention on
//! communication efficiency".
//!
//! The ACD metric is contention-unaware by design (Section IV: distances are
//! shortest paths, every message assumed independent). This module routes
//! every near-field message along a *deterministic* shortest path and counts
//! how many messages cross each physical link. The maximum link load is the
//! classic congestion lower bound on communication time; comparing it across
//! SFCs shows whether a curve that wins on ACD also spreads traffic evenly.
//!
//! Routing disciplines per topology:
//!
//! - bus: the unique path;
//! - ring: the shorter arc (ties toward increasing ids);
//! - mesh: dimension-order (X then Y);
//! - torus: dimension-order with the shorter wrap per axis (ties toward
//!   increasing coordinates);
//! - hypercube: e-cube (fix differing address bits from LSB to MSB);
//! - quadtree: up to the lowest common ancestor, then down.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::machine::Machine;
use crate::nfi::{check, nfi_traffic};
use crate::scan::PairSink;
use sfc_curves::point::Norm;
use sfc_topology::TopologyKind;
use std::collections::HashMap;

/// A directed physical link. For the quadtree, switch nodes are encoded as
/// `(level << 56) | index-within-level` with leaves at their plain ids.
pub type Link = (u64, u64);

/// Per-link message counts for one communication phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Messages crossing each directed link.
    pub links: HashMap<Link, u64>,
    /// Total messages routed (including rank-local ones, which cross no
    /// link).
    pub messages: u64,
    /// Total link crossings (= sum of all loads = total distance).
    pub crossings: u64,
    /// Total directed links in the topology, *including* idle ones
    /// ([`sfc_topology::Topology::num_links`]). Averages are taken over
    /// this: a workload that concentrates all traffic on 2 of 1000 links
    /// must report a large imbalance, not a perfect 1.0.
    pub total_links: u64,
}

impl LinkLoad {
    /// The largest load on any single link — the congestion bound.
    pub fn max_load(&self) -> u64 {
        self.links.values().copied().max().unwrap_or(0)
    }

    /// Mean load over *all* links of the topology, idle ones included.
    pub fn mean_load(&self) -> f64 {
        if self.total_links == 0 {
            0.0
        } else {
            self.crossings as f64 / self.total_links as f64
        }
    }

    /// Mean load over only the links that carried at least one message —
    /// the quantity [`mean_load`](LinkLoad::mean_load) reported before it
    /// was fixed to count idle links.
    pub fn mean_active_load(&self) -> f64 {
        if self.links.is_empty() {
            0.0
        } else {
            self.crossings as f64 / self.links.len() as f64
        }
    }

    /// Ratio of max to [`mean_load`](LinkLoad::mean_load): 1.0 means
    /// traffic spread perfectly over the whole network.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_load();
        if mean == 0.0 {
            0.0
        } else {
            self.max_load() as f64 / mean
        }
    }

    /// Send `count` messages along `path`.
    fn record_path(&mut self, path: &[u64], count: u64) {
        for hop in path.windows(2) {
            *self.links.entry((hop[0], hop[1])).or_insert(0) += count;
            self.crossings += count;
        }
    }
}

/// Compute the shortest route between two physical nodes under the
/// deterministic discipline for `kind`. The returned path includes both
/// endpoints; its length minus one equals the topology's hop distance.
///
/// Mesh/torus routing requires `nodes` to be a perfect square — a
/// non-square count has no `side × side` grid and is rejected as
/// [`SfcError::NonSquareMesh`] rather than silently mis-routing on a
/// rounded side length. The 3-D mesh and torus have no routing
/// discipline here: [`SfcError::Topology3d`].
pub fn route(kind: TopologyKind, nodes: u64, a: u64, b: u64) -> Result<Vec<u64>, SfcError> {
    Ok(match kind {
        TopologyKind::Bus => {
            let mut path = vec![a];
            let mut cur = a;
            while cur != b {
                cur = if b > cur { cur + 1 } else { cur - 1 };
                path.push(cur);
            }
            path
        }
        TopologyKind::Ring => {
            let mut path = vec![a];
            let mut cur = a;
            let forward = (b + nodes - a) % nodes;
            let step_forward = forward <= nodes - forward;
            while cur != b {
                cur = if step_forward {
                    (cur + 1) % nodes
                } else {
                    (cur + nodes - 1) % nodes
                };
                path.push(cur);
            }
            path
        }
        TopologyKind::Mesh | TopologyKind::Torus => {
            let side = nodes.isqrt();
            if side * side != nodes {
                return Err(SfcError::NonSquareMesh { nodes });
            }
            let (ax, ay) = (a % side, a / side);
            let (bx, by) = (b % side, b / side);
            let torus = kind == TopologyKind::Torus;
            let mut path = vec![a];
            let (mut x, mut y) = (ax, ay);
            // X dimension first.
            while x != bx {
                x = axis_step(x, bx, side, torus);
                path.push(y * side + x);
            }
            while y != by {
                y = axis_step(y, by, side, torus);
                path.push(y * side + x);
            }
            path
        }
        TopologyKind::Hypercube => {
            let mut path = vec![a];
            let mut cur = a;
            let mut diff = a ^ b;
            while diff != 0 {
                let bit = diff & diff.wrapping_neg();
                cur ^= bit;
                diff ^= bit;
                path.push(cur);
            }
            path
        }
        TopologyKind::Quadtree => {
            let levels = nodes.trailing_zeros() / 2;
            let encode = |level: u32, idx: u64| -> u64 {
                if level == levels {
                    idx // leaf: plain id
                } else {
                    ((level as u64 + 1) << 56) | idx
                }
            };
            if a == b {
                return Ok(vec![a]);
            }
            // Climb to the LCA, then descend.
            let net = sfc_topology::QuadtreeNet::new(levels);
            let lca = net.lca_level(a, b);
            let mut path = vec![a];
            // Up from a.
            let mut idx = a;
            for level in (lca..levels).rev() {
                idx >>= 2;
                path.push(encode(level, idx));
            }
            // Down to b: collect then reverse.
            let mut down = Vec::new();
            let mut idx = b;
            for level in (lca + 1..=levels).rev() {
                down.push(encode(level, idx));
                idx >>= 2;
            }
            path.extend(down.into_iter().rev());
            path
        }
        TopologyKind::Mesh3d | TopologyKind::Torus3d => {
            return Err(SfcError::Topology3d { topology: kind });
        }
    })
}

fn axis_step(cur: u64, target: u64, side: u64, torus: bool) -> u64 {
    if !torus {
        return if target > cur { cur + 1 } else { cur - 1 };
    }
    let forward = (target + side - cur) % side;
    if forward <= side - forward {
        (cur + 1) % side
    } else {
        (cur + side - 1) % side
    }
}

/// Route every near-field message of the assignment and accumulate link
/// loads. The near-field scan delivers each `(sender, receiver)` pair once
/// with its count, for both directions, so each distinct pair is routed
/// once each way and its count added to every link on both paths.
///
/// A zero radius or a machine with fewer ranks than the assignment
/// addresses is a typed [`SfcError`], as in [`nfi_acd`](crate::nfi::nfi_acd),
/// and so is a machine whose topology [`route`] cannot serve.
pub fn nfi_link_load(
    asg: &Assignment,
    machine: &Machine,
    radius: u32,
    norm: Norm,
) -> Result<LinkLoad, SfcError> {
    check(asg.num_ranks(), &[machine], radius)?;
    // Fail here, once, rather than on the first routed pair.
    let topo = machine.topology();
    route(topo.kind(), topo.num_nodes(), 0, 0)?;
    let mut router = Router {
        machine,
        load: LinkLoad {
            total_links: machine.num_links(),
            ..LinkLoad::default()
        },
    };
    nfi_traffic(asg, radius, norm, &mut router);
    Ok(router.load)
}

/// A [`PairSink`] that routes each undirected pair on one machine.
struct Router<'a> {
    machine: &'a Machine,
    load: LinkLoad,
}

impl PairSink for Router<'_> {
    fn take(&mut self, sender: u32, pairs: impl Iterator<Item = (u32, u64)> + Clone) {
        let topo = self.machine.topology();
        let (kind, nodes) = (topo.kind(), topo.num_nodes());
        let from = self.machine.node_of(sender);
        for (receiver, count) in pairs {
            self.load.messages += 2 * count;
            if receiver != sender {
                let to = self.machine.node_of(receiver);
                // Each way on its own route: ring and torus ties break
                // toward increasing ids, so the way back is not the way
                // there reversed.
                for (a, b) in [(from, to), (to, from)] {
                    let path = route(kind, nodes, a, b)
                        .expect("nfi_link_load checked the topology routes");
                    self.load.record_path(&path, count);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::CurveKind;
    use sfc_particles::{sample, Distribution};
    use sfc_topology::Topology;

    /// Route lengths must equal closed-form distances, for every topology.
    #[test]
    fn route_lengths_match_distances() {
        for kind in TopologyKind::PAPER {
            let topo = kind.build(256);
            for a in (0..256u64).step_by(23) {
                for b in (0..256u64).step_by(17) {
                    let path = route(kind, 256, a, b).unwrap();
                    assert_eq!(
                        (path.len() - 1) as u64,
                        topo.distance(a, b),
                        "{kind}: route {a}->{b}"
                    );
                    assert_eq!(path[0], a);
                    assert_eq!(*path.last().unwrap(), b);
                }
            }
        }
    }

    /// Every consecutive pair along a routed path is one physical hop.
    #[test]
    fn route_steps_are_links() {
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::Hypercube,
        ] {
            let topo = kind.build(64);
            for (a, b) in [(0u64, 63u64), (5, 40), (62, 1)] {
                for hop in route(kind, 64, a, b).unwrap().windows(2) {
                    assert_eq!(topo.distance(hop[0], hop[1]), 1, "{kind} hop {hop:?}");
                }
            }
        }
    }

    /// Self-routes are trivial.
    #[test]
    fn self_route_is_single_node() {
        for kind in TopologyKind::PAPER {
            assert_eq!(route(kind, 64, 7, 7).unwrap(), vec![7]);
        }
    }

    /// Reference link loads: every neighbor offset tested against the
    /// norm, every message routed on its own.
    fn reference_link_load(
        asg: &Assignment,
        machine: &Machine,
        radius: u32,
        norm: Norm,
    ) -> LinkLoad {
        let kind = machine.topology().kind();
        let nodes = machine.topology().num_nodes();
        let side = 1i64 << asg.grid_order();
        let r = radius as i64;
        let mut load = LinkLoad {
            total_links: machine.num_links(),
            ..LinkLoad::default()
        };
        for (i, p) in asg.particles().iter().enumerate() {
            let rank = asg.rank_of_index(i);
            for dy in -r..=r {
                for dx in -r..=r {
                    let inside = match norm {
                        Norm::Manhattan => dx.abs() + dy.abs() <= r,
                        Norm::Chebyshev => dx.abs().max(dy.abs()) <= r,
                    };
                    let (nx, ny) = (p.x as i64 + dx, p.y as i64 + dy);
                    let outside = nx < 0 || ny < 0 || nx >= side || ny >= side;
                    if (dx, dy) == (0, 0) || !inside || outside {
                        continue;
                    }
                    if let Some(other) = asg.rank_of_cell(nx as u32, ny as u32) {
                        load.messages += 1;
                        if other != rank {
                            let (a, b) = (machine.node_of(rank), machine.node_of(other));
                            load.record_path(&route(kind, nodes, a, b).unwrap(), 1);
                        }
                    }
                }
            }
        }
        load
    }

    /// Routing each distinct pair once with its count gives exactly the
    /// loads of routing every message, on every topology under both norms.
    #[test]
    fn pair_routing_matches_per_message_routing() {
        let particles = sample(Distribution::normal(0.15), 5, 300, 7);
        for curve in [CurveKind::Hilbert, CurveKind::RowMajor] {
            let asg = Assignment::new(&particles, 5, curve, 16);
            for kind in TopologyKind::PAPER {
                let machine = Machine::closed_form(kind, 16, curve);
                for norm in [Norm::Chebyshev, Norm::Manhattan] {
                    for radius in [1, 3] {
                        let want = reference_link_load(&asg, &machine, radius, norm);
                        assert!(want.messages > 0);
                        let got = nfi_link_load(&asg, &machine, radius, norm).unwrap();
                        assert_eq!(got, want, "{kind} {curve:?} {norm:?} r={radius}");
                    }
                }
            }
        }
    }

    /// A zero radius is a typed error, as in `nfi_acd`.
    #[test]
    fn zero_radius_link_load_is_a_typed_error() {
        let particles = sample(Distribution::uniform(), 3, 20, 5);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 16);
        let machine = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert);
        assert_eq!(
            nfi_link_load(&asg, &machine, 0, Norm::Chebyshev),
            Err(SfcError::ZeroRadius)
        );
    }

    /// A machine with fewer ranks than the assignment is a typed error,
    /// not a panic in the router.
    #[test]
    fn undersized_machine_link_load_is_a_typed_error() {
        let particles = sample(Distribution::uniform(), 3, 20, 5);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 64);
        let small = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert);
        assert_eq!(
            nfi_link_load(&asg, &small, 1, Norm::Chebyshev),
            Err(SfcError::MachineTooSmall {
                machine_ranks: 16,
                assignment_ranks: 64,
            })
        );
    }

    /// The 3-D mesh and torus have no routing discipline: `route` says so
    /// with a typed error, and `nfi_link_load` rejects a 3-D machine before
    /// scanning instead of panicking on its first pair.
    #[test]
    fn three_dimensional_topologies_are_typed_errors() {
        use sfc_curves::curve3d::Curve3dKind;
        let particles = sample(Distribution::uniform(), 3, 20, 5);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 64);
        for topology in [TopologyKind::Mesh3d, TopologyKind::Torus3d] {
            let want = SfcError::Topology3d { topology };
            assert_eq!(route(topology, 64, 0, 1).unwrap_err(), want);
            let machine = Machine::cube(topology, 64, Curve3dKind::Hilbert);
            let got = nfi_link_load(&asg, &machine, 1, Norm::Chebyshev);
            assert_eq!(got.unwrap_err(), want);
        }
    }

    /// Total crossings equal the total NFI distance: the link-load view is
    /// an exact refinement of the ACD view.
    #[test]
    fn crossings_equal_total_distance() {
        let particles = sample(Distribution::uniform(), 6, 500, 11);
        for topo in [
            TopologyKind::Torus,
            TopologyKind::Hypercube,
            TopologyKind::Quadtree,
        ] {
            let asg = Assignment::new(&particles, 6, CurveKind::Hilbert, 64);
            let machine = Machine::new(topo, 64, CurveKind::Hilbert);
            let load = nfi_link_load(&asg, &machine, 1, Norm::Chebyshev).unwrap();
            let nfi = crate::nfi::nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
            assert_eq!(load.crossings, nfi.total_distance, "{topo}");
            assert_eq!(load.messages, nfi.num_comms, "{topo}");
        }
    }

    /// The Hilbert curve should not only reduce total distance but also keep
    /// the worst link no more loaded than row-major's worst link.
    #[test]
    fn hilbert_congestion_no_worse_than_row_major() {
        let particles = sample(Distribution::uniform(), 7, 2000, 3);
        let machine_of = |c| Machine::new(TopologyKind::Torus, 256, c);
        let load_of = |c| {
            let asg = Assignment::new(&particles, 7, c, 256);
            nfi_link_load(&asg, &machine_of(c), 1, Norm::Chebyshev).unwrap()
        };
        let hilbert = load_of(CurveKind::Hilbert);
        let row = load_of(CurveKind::RowMajor);
        assert!(
            hilbert.max_load() <= row.max_load(),
            "hilbert max {} vs row-major max {}",
            hilbert.max_load(),
            row.max_load()
        );
    }

    /// Quadtree routes pass through encoded switch nodes, never through
    /// other leaves.
    #[test]
    fn quadtree_routes_use_switches() {
        let path = route(TopologyKind::Quadtree, 64, 0, 63).unwrap();
        // 0 and 63 are in different top quadrants: path length = diameter.
        assert_eq!(path.len() - 1, 6);
        for &node in &path[1..path.len() - 1] {
            assert!(node >> 56 != 0, "intermediate {node} is not a switch");
        }
    }

    /// Imbalance statistics behave sensibly.
    #[test]
    fn load_statistics() {
        let mut load = LinkLoad {
            total_links: 4,
            ..LinkLoad::default()
        };
        load.record_path(&[0, 1, 2], 1);
        load.record_path(&[0, 1], 1);
        assert_eq!(load.crossings, 3);
        assert_eq!(load.max_load(), 2);
        // Two of four links are active: the all-links mean counts the idle
        // pair, the active mean does not.
        assert!((load.mean_load() - 0.75).abs() < 1e-12);
        assert!((load.mean_active_load() - 1.5).abs() < 1e-12);
        assert!((load.imbalance() - 2.0 / 0.75).abs() < 1e-12);
        let empty = LinkLoad::default();
        assert_eq!(empty.max_load(), 0);
        assert_eq!(empty.mean_load(), 0.0);
        assert_eq!(empty.mean_active_load(), 0.0);
        assert_eq!(empty.imbalance(), 0.0);
    }

    /// Regression: a workload that concentrates all traffic on 2 of 1000
    /// links used to report imbalance ≈ 1.0 ("perfectly balanced") because
    /// idle links were left out of the mean. It must report ≫ 1.
    #[test]
    fn concentrated_traffic_reports_large_imbalance() {
        let mut load = LinkLoad {
            total_links: 1000,
            ..LinkLoad::default()
        };
        load.record_path(&[0, 1, 2], 50); // the same 2 links, every message
        assert_eq!(load.max_load(), 50);
        // The buggy active-links mean still says "balanced"...
        assert!((load.mean_active_load() - 50.0).abs() < 1e-12);
        // ...while the fixed mean exposes the concentration.
        assert!((load.mean_load() - 0.1).abs() < 1e-12);
        assert!(load.imbalance() > 100.0, "imbalance {}", load.imbalance());
    }

    /// Regression: mesh/torus routing used to derive the grid side from a
    /// truncated f64 sqrt, silently mis-routing non-square node counts in
    /// release builds. They are now a typed error.
    #[test]
    fn non_square_mesh_routing_rejected() {
        for nodes in [2u64, 32, 48, 1000] {
            for kind in [TopologyKind::Mesh, TopologyKind::Torus] {
                match route(kind, nodes, 0, 1) {
                    Err(SfcError::NonSquareMesh { nodes: got }) => assert_eq!(got, nodes),
                    other => panic!("{kind} with {nodes} nodes: expected error, got {other:?}"),
                }
            }
        }
        // Square-but-not-power-of-four counts are legitimately routable.
        let path = route(TopologyKind::Mesh, 25, 0, 24).unwrap();
        assert_eq!(path.len() - 1, 8); // (0,0) -> (4,4) on a 5×5 mesh
    }
}
