//! The Aspen baseline graph: an *uncompressed* P-tree of vertices over
//! C-tree edge lists (Dhulipala et al., PLDI 2019), as compared against
//! in Figs. 11, 14, 15 and Table 5 of the PaC-tree paper.

use pam::PamMap;

use crate::ctree::CTree;
use crate::snapshot::GraphSnapshot;

/// Aspen's expected edge-block size.
pub const ASPEN_B: usize = 64;

type EdgeList = CTree<u32>;

/// The Aspen graph representation: P-tree vertex tree, C-tree edge lists.
pub struct AspenGraph {
    vertices: PamMap<u32, EdgeList>,
    num_edges: u64,
}

impl Clone for AspenGraph {
    fn clone(&self) -> Self {
        AspenGraph {
            vertices: self.vertices.clone(),
            num_edges: self.num_edges,
        }
    }
}

impl std::fmt::Debug for AspenGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AspenGraph")
            .field("vertices", &self.vertices.len())
            .field("edges", &self.num_edges)
            .finish()
    }
}

impl Default for AspenGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl AspenGraph {
    /// An empty graph.
    pub fn new() -> Self {
        AspenGraph {
            vertices: PamMap::new(),
            num_edges: 0,
        }
    }

    /// Builds from a directed edge list over vertices `0..n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut sorted = edges.to_vec();
        parlay::par_sort(&mut sorted);
        sorted.dedup();
        let mut pairs: Vec<(u32, EdgeList)> = Vec::with_capacity(n);
        let mut at = 0usize;
        for v in 0..n as u32 {
            let start = at;
            while at < sorted.len() && sorted[at].0 == v {
                at += 1;
            }
            let ns: Vec<u32> = sorted[start..at].iter().map(|&(_, d)| d).collect();
            pairs.push((v, CTree::from_sorted_keys(ASPEN_B, &ns)));
        }
        AspenGraph {
            vertices: PamMap::from_sorted_pairs(&pairs),
            num_edges: sorted.len() as u64,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Inserts a batch of directed edges (functional).
    pub fn insert_edges(&self, mut batch: Vec<(u32, u32)>) -> Self {
        parlay::par_sort(&mut batch);
        batch.dedup();
        let mut grouped: Vec<(u32, Vec<u32>)> = Vec::new();
        for (u, v) in batch {
            match grouped.last_mut() {
                Some((src, ns)) if *src == u => ns.push(v),
                _ => grouped.push((u, vec![v])),
            }
        }
        let mut added = 0u64;
        let updates: Vec<(u32, EdgeList)> = grouped
            .into_iter()
            .map(|(src, ns)| {
                let merged = match self.vertices.find(&src) {
                    Some(old) => {
                        let new = old.insert_batch(ns);
                        added += new.len() as u64 - old.len() as u64;
                        new
                    }
                    None => {
                        added += ns.len() as u64;
                        CTree::from_keys(ASPEN_B, ns)
                    }
                };
                (src, merged)
            })
            .collect();
        AspenGraph {
            vertices: self.vertices.multi_insert(updates),
            num_edges: self.num_edges + added,
        }
    }

    /// A tree-walking snapshot.
    pub fn snapshot(&self) -> AspenSnapshot<'_> {
        AspenSnapshot { graph: self }
    }

    /// A flat snapshot: edge-list handles copied into an array.
    pub fn flat_snapshot(&self) -> AspenFlatSnapshot {
        let entries = self.vertices.to_vec();
        let n = entries
            .iter()
            .map(|(v, _)| *v as usize + 1)
            .max()
            .unwrap_or(0);
        let mut edges: Vec<Option<EdgeList>> = vec![None; n];
        for (v, es) in entries {
            edges[v as usize] = Some(es);
        }
        AspenFlatSnapshot { edges }
    }

    /// Heap bytes: vertex P-tree plus all C-tree edge lists.
    pub fn space_bytes(&self) -> usize {
        self.vertices.space_bytes()
            + self
                .vertices
                .map_reduce(|_, es| es.space_bytes(), |a, b| a + b, 0usize)
    }
}

/// Tree-walking Aspen snapshot.
pub struct AspenSnapshot<'a> {
    graph: &'a AspenGraph,
}

impl GraphSnapshot for AspenSnapshot<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn degree(&self, v: u32) -> usize {
        self.graph.vertices.find(&v).map_or(0, |es| es.len())
    }

    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        if let Some(es) = self.graph.vertices.find(&v) {
            es.for_each(|u| f(*u));
        }
    }
}

/// Array-indexed Aspen snapshot.
pub struct AspenFlatSnapshot {
    edges: Vec<Option<EdgeList>>,
}

impl GraphSnapshot for AspenFlatSnapshot {
    fn num_vertices(&self) -> usize {
        self.edges.len()
    }

    fn degree(&self, v: u32) -> usize {
        self.edges[v as usize].as_ref().map_or(0, |es| es.len())
    }

    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        if let Some(es) = &self.edges[v as usize] {
            es.for_each(|u| f(*u));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = AspenGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        let s = g.snapshot();
        let mut ns = Vec::new();
        s.for_each_neighbor(0, &mut |u| ns.push(u));
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn insert_edges_matches_pac_graph() {
        let edges = crate::rmat::symmetrize(&crate::rmat::rmat_edges(8, 1500, 11));
        let n = crate::rmat::vertex_count(&edges);
        let (half1, half2) = edges.split_at(edges.len() / 2);

        let aspen = AspenGraph::from_edges(n, half1).insert_edges(half2.to_vec());
        let pac = crate::pac_graph::PacGraph::from_edges(n, half1).insert_edges(half2.to_vec());

        assert_eq!(aspen.num_edges(), pac.num_edges());
        let (s1, s2) = (aspen.snapshot(), pac.snapshot());
        for v in 0..n as u32 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            s1.for_each_neighbor(v, &mut |u| a.push(u));
            s2.for_each_neighbor(v, &mut |u| b.push(u));
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn persistence_across_batches() {
        let g0 = AspenGraph::from_edges(10, &[(0, 1)]);
        let g1 = g0.insert_edges(vec![(1, 2), (2, 3)]);
        assert_eq!(g0.num_edges(), 1);
        assert_eq!(g1.num_edges(), 3);
    }
}
