//! Graph processing and streaming on PaC-trees (Section 9 / 10.5 of the
//! paper), with the two baselines the paper evaluates against.
//!
//! * [`PacGraph`] — CPAM's representation: an augmented, key-compressed
//!   PaC-tree of vertices over difference-encoded PaC-tree edge sets,
//!   with functional batch updates and flat snapshots;
//! * [`AspenGraph`] — the Aspen baseline: uncompressed P-tree vertex
//!   tree over randomized C-tree edge lists ([`ctree`]);
//! * [`CompressedCsr`] — the GBBS static baseline: difference-encoded
//!   CSR arrays (no updates);
//! * [`snapshot`] — BFS, MIS, and betweenness centrality written once
//!   against the [`GraphSnapshot`] trait and shared by all three;
//! * [`rmat`] — rMAT and grid workload generators (the substitution for
//!   the paper's SNAP graphs; see `DESIGN.md`).
//!
//! ```
//! use graphs::{snapshot::bfs, PacGraph};
//!
//! let edges = graphs::rmat::symmetrize(&graphs::rmat::rmat_edges(10, 5000, 1));
//! let n = graphs::rmat::vertex_count(&edges);
//! let g = PacGraph::from_edges(n, &edges);
//!
//! // A consistent snapshot survives concurrent (functional) updates.
//! let snap = g.flat_snapshot();
//! let g2 = g.insert_edges(vec![(0, 1), (1, 0)]);
//! let parents = bfs(&snap, 0);
//! assert_eq!(parents[0], 0);
//! assert!(g2.num_edges() >= g.num_edges());
//! ```

pub mod aspen_graph;
pub mod csr;
pub mod ctree;
pub mod pac_graph;
pub mod rmat;
pub mod snapshot;

pub use aspen_graph::AspenGraph;
pub use csr::CompressedCsr;
pub use pac_graph::{EdgeSet, PacGraph};
pub use snapshot::GraphSnapshot;

#[cfg(test)]
mod tests {
    use crate::snapshot::{bc, bfs, mis, verify_mis, GraphSnapshot};
    use crate::{AspenGraph, CompressedCsr, PacGraph};

    fn test_graph() -> (usize, Vec<(u32, u32)>) {
        let edges = crate::rmat::symmetrize(&crate::rmat::rmat_edges(9, 4000, 17));
        let n = crate::rmat::vertex_count(&edges);
        (n, edges)
    }

    #[test]
    fn bfs_agrees_across_representations() {
        let (n, edges) = test_graph();
        let pac = PacGraph::from_edges(n, &edges);
        let aspen = AspenGraph::from_edges(n, &edges);
        let csr = CompressedCsr::from_edges(n, &edges);

        let p1 = bfs(&pac.flat_snapshot(), 0);
        let p2 = bfs(&aspen.flat_snapshot(), 0);
        let p3 = bfs(&csr, 0);
        let p4 = bfs(&pac.snapshot(), 0);

        // Parents may differ (ties), but reachability and distances agree.
        let dist = |parents: &[u32]| -> Vec<bool> {
            parents.iter().map(|&p| p != u32::MAX).collect()
        };
        assert_eq!(dist(&p1), dist(&p2));
        assert_eq!(dist(&p1), dist(&p3));
        assert_eq!(dist(&p1), dist(&p4));
    }

    #[test]
    fn bfs_distances_match_sequential_oracle() {
        let (n, edges) = test_graph();
        let csr = CompressedCsr::from_edges(n, &edges);
        let parents = bfs(&csr, 1);

        // Sequential BFS oracle.
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[1] = 0;
        queue.push_back(1u32);
        while let Some(v) = queue.pop_front() {
            csr.for_each_neighbor(v, &mut |u| {
                if dist[u as usize] == usize::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push_back(u);
                }
            });
        }
        for v in 0..n {
            assert_eq!(
                parents[v] != u32::MAX,
                dist[v] != usize::MAX,
                "reachability of {v}"
            );
        }
        // Parent edges decrease distance by exactly one.
        for v in 0..n {
            if parents[v] != u32::MAX && v != 1 {
                assert_eq!(dist[v], dist[parents[v] as usize] + 1, "parent of {v}");
            }
        }
    }

    #[test]
    fn mis_is_maximal_and_independent() {
        let (n, edges) = test_graph();
        let pac = PacGraph::from_edges(n, &edges);
        let fs = pac.flat_snapshot();
        let flags = mis(&fs);
        assert!(verify_mis(&fs, &flags));
        assert!(flags.iter().any(|&x| x), "nonempty MIS");
    }

    #[test]
    fn bc_scores_on_path_graph() {
        // Path 0 - 1 - 2 - 3 (undirected): from source 0, the dependency
        // of 1 is 2 (paths to 2 and 3 pass through it), of 2 is 1.
        let edges = vec![(0u32, 1u32), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];
        let csr = CompressedCsr::from_edges(4, &edges);
        let delta = bc(&csr, 0);
        assert_eq!(delta[1], 2.0);
        assert_eq!(delta[2], 1.0);
        assert_eq!(delta[3], 0.0);
    }

    #[test]
    fn bc_agrees_between_pac_and_aspen() {
        let (n, edges) = test_graph();
        let pac = PacGraph::from_edges(n, &edges);
        let aspen = AspenGraph::from_edges(n, &edges);
        let d1 = bc(&pac.flat_snapshot(), 0);
        let d2 = bc(&aspen.flat_snapshot(), 0);
        for v in 0..n {
            assert!((d1[v] - d2[v]).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn space_ordering_matches_paper_fig11() {
        // Fig. 11 shape: CSR (static, diff) < PacGraph < Aspen.
        let (n, edges) = test_graph();
        let csr = CompressedCsr::from_edges(n, &edges);
        let pac = PacGraph::from_edges(n, &edges);
        let aspen = AspenGraph::from_edges(n, &edges);
        assert!(
            csr.space_bytes() < pac.space_bytes(),
            "csr {} < pac {}",
            csr.space_bytes(),
            pac.space_bytes()
        );
        assert!(
            pac.space_bytes() < aspen.space_bytes(),
            "pac {} < aspen {}",
            pac.space_bytes(),
            aspen.space_bytes()
        );
    }

    #[test]
    fn snapshot_isolated_from_updates() {
        let (n, edges) = test_graph();
        let g = PacGraph::from_edges(n, &edges);
        let snap = g.flat_snapshot();
        let before = snap.degree(0);
        let g2 = g.insert_edges(vec![(0, 499), (0, 498), (0, 497)]);
        assert_eq!(snap.degree(0), before, "snapshot unaffected");
        assert!(g2.degree(0) >= before);
    }
}
