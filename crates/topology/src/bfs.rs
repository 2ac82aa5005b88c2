//! Breadth-first-search utilities for validating closed-form distances.
//!
//! Every topology in this crate computes hop distances in closed form. These
//! helpers compute the same distances by BFS over the explicit link graph so
//! the test suites can cross-validate the arithmetic, and so ablation
//! benches can quantify what the closed forms buy.

use crate::{NodeId, Topology};
use std::collections::VecDeque;

/// Single-source shortest hop counts over an adjacency closure.
///
/// Returns a vector of length `num_nodes` where entry `i` is the hop count
/// from `source` to node `i`, or `u64::MAX` if unreachable.
pub fn bfs_distances<F>(num_nodes: u64, source: NodeId, mut neighbors: F) -> Vec<u64>
where
    F: FnMut(NodeId) -> Vec<NodeId>,
{
    assert!(source < num_nodes);
    let mut dist = vec![u64::MAX; num_nodes as usize];
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(node) = queue.pop_front() {
        let d = dist[node as usize];
        for nb in neighbors(node) {
            debug_assert!(nb < num_nodes, "neighbor {nb} out of range");
            if dist[nb as usize] == u64::MAX {
                dist[nb as usize] = d + 1;
                queue.push_back(nb);
            }
        }
    }
    dist
}

/// Assert that a topology's closed-form `distance` matches BFS over the link
/// graph given by `neighbors`, for every source node. Intended for tests on
/// small networks.
pub fn check_against_bfs<T, F>(topo: &T, mut neighbors: F)
where
    T: Topology,
    F: FnMut(NodeId) -> Vec<NodeId>,
{
    let n = topo.num_nodes();
    assert!(n <= 4096, "check_against_bfs is for small test networks");
    let mut max_seen = 0u64;
    for src in 0..n {
        let dist = bfs_distances(n, src, &mut neighbors);
        for (dst, &d) in dist.iter().enumerate() {
            assert_ne!(
                d,
                u64::MAX,
                "{}: node {dst} unreachable from {src}",
                topo.name()
            );
            assert_eq!(
                topo.distance(src, dst as u64),
                d,
                "{}: distance({src}, {dst})",
                topo.name()
            );
            max_seen = max_seen.max(d);
        }
    }
    assert_eq!(
        topo.diameter(),
        max_seen,
        "{}: diameter mismatch",
        topo.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_path_graph() {
        // 0 - 1 - 2 - 3
        let dist = bfs_distances(4, 0, |n| {
            let mut v = Vec::new();
            if n > 0 {
                v.push(n - 1);
            }
            if n < 3 {
                v.push(n + 1);
            }
            v
        });
        assert_eq!(dist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        // Two disconnected nodes.
        let dist = bfs_distances(2, 0, |_| Vec::new());
        assert_eq!(dist, vec![0, u64::MAX]);
    }

    #[test]
    fn bfs_handles_cycles() {
        // Triangle: all pairwise distance 1.
        let dist = bfs_distances(3, 1, |n| vec![(n + 1) % 3, (n + 2) % 3]);
        assert_eq!(dist, vec![1, 0, 1]);
    }
}
