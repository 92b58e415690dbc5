//! GBBS-style static compressed graphs: difference-encoded CSR.
//!
//! This is the paper's space baseline ("GBBS (Diff)" in Figs. 1 and 11):
//! a flat, immutable representation with one difference-encoded byte run
//! per adjacency list. It supports no updates — its role is to show how
//! close the tree-based representations get to a static array.

use codecs::bytecode;

use crate::snapshot::GraphSnapshot;

/// An immutable compressed sparse-row graph with byte-coded deltas.
#[derive(Debug, Clone)]
pub struct CompressedCsr {
    /// Byte offset of each vertex's encoded adjacency run.
    offsets: Vec<u64>,
    /// Degree of each vertex.
    degrees: Vec<u32>,
    /// All adjacency lists, difference-encoded.
    bytes: Vec<u8>,
}

impl CompressedCsr {
    /// Builds from a directed edge list (sorted + deduplicated inside).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut sorted = edges.to_vec();
        parlay::par_sort(&mut sorted);
        sorted.dedup();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut degrees = vec![0u32; n];
        let mut bytes = Vec::with_capacity(sorted.len() * 2);
        let mut at = 0usize;
        for v in 0..n as u32 {
            offsets.push(bytes.len() as u64);
            let start = at;
            let mut prev = 0u32;
            while at < sorted.len() && sorted[at].0 == v {
                let ngh = sorted[at].1;
                if at == start {
                    // First neighbor: signed delta from the vertex id, as
                    // in GBBS/Ligra+.
                    bytecode::write_signed(i64::from(ngh) - i64::from(v), &mut bytes);
                } else {
                    bytecode::write_varint(u64::from(ngh - prev), &mut bytes);
                }
                prev = ngh;
                at += 1;
            }
            degrees[v as usize] = (at - start) as u32;
        }
        offsets.push(bytes.len() as u64);
        CompressedCsr {
            offsets,
            degrees,
            bytes,
        }
    }

    /// Total heap bytes (offsets + degrees + encoded edges).
    pub fn space_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.degrees.len() * 4 + self.bytes.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.degrees.iter().map(|&d| u64::from(d)).sum()
    }
}

impl GraphSnapshot for CompressedCsr {
    fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    fn degree(&self, v: u32) -> usize {
        self.degrees[v as usize] as usize
    }

    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        let deg = self.degrees[v as usize];
        if deg == 0 {
            return;
        }
        let mut pos = self.offsets[v as usize] as usize;
        let mut next = || {
            bytecode::try_read_varint(&self.bytes, &mut pos)
                .expect("from_edges writes one varint per neighbour")
        };
        let mut prev = (i64::from(v) + bytecode::unzigzag(next())) as u32;
        f(prev);
        for _ in 1..deg {
            prev += next() as u32;
            f(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbors(g: &CompressedCsr, v: u32) -> Vec<u32> {
        let mut out = Vec::new();
        g.for_each_neighbor(v, &mut |u| out.push(u));
        out
    }

    #[test]
    fn roundtrip_adjacency() {
        let edges = vec![(0u32, 5u32), (0, 2), (0, 9), (2, 0), (3, 3)];
        let g = CompressedCsr::from_edges(4, &edges);
        assert_eq!(neighbors(&g, 0), vec![2, 5, 9]);
        assert_eq!(neighbors(&g, 1), Vec::<u32>::new());
        assert_eq!(neighbors(&g, 2), vec![0]);
        assert_eq!(neighbors(&g, 3), vec![3]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn dense_graph_compresses_well() {
        // Grid-like local neighbors: ~1-2 bytes per edge.
        let edges: Vec<(u32, u32)> = (0..10_000u32)
            .flat_map(|v| [(v, v.saturating_sub(1)), (v, (v + 1).min(9_999))])
            .filter(|(u, v)| u != v)
            .collect();
        let g = CompressedCsr::from_edges(10_000, &edges);
        let per_edge = g.space_bytes() as f64 / g.num_edges() as f64;
        // Offsets dominate here (12 bytes/vertex, degree ~2); the *edge
        // payload* itself is ~1 byte.
        assert!(per_edge < 16.0, "per-edge {per_edge}");
    }

    #[test]
    fn first_neighbor_below_vertex_id() {
        let edges = vec![(100u32, 3u32), (100, 4)];
        let g = CompressedCsr::from_edges(101, &edges);
        assert_eq!(neighbors(&g, 100), vec![3, 4]);
    }
}
