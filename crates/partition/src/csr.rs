//! Weighted undirected graph in CSR form — the partitioner's working
//! representation (mirrors the METIS input format the paper used).

/// An undirected graph with vertex and edge weights.
///
/// Edges are stored twice (once per endpoint). `ewgt[e]` is the weight of
/// the adjacency entry `adjncy[e]`.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Offsets: neighbours of `v` are `adjncy[xadj[v]..xadj[v+1]]`.
    pub xadj: Vec<u32>,
    /// Flattened adjacency lists.
    pub adjncy: Vec<u32>,
    /// Vertex weights.
    pub vwgt: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub ewgt: Vec<u32>,
}

impl CsrGraph {
    /// Builds a unit-weight graph from an undirected edge list (each pair
    /// listed once). Duplicate pairs accumulate edge weight.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut weighted: Vec<(u32, u32, u32)> = edges.iter().map(|&(a, b)| (a, b, 1)).collect();
        weighted.retain(|&(a, b, _)| a != b);
        Self::from_weighted_edges(n, &weighted)
    }

    /// Builds from `(u, v, w)` undirected weighted edges (each pair listed
    /// once); parallel edges are merged by summing weights.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or parallel edges
    /// whose weights sum past `u32::MAX`.
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, u32)]) -> CsrGraph {
        let mut sym: Vec<(u32, u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b, w) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop at {a}");
            sym.push((a, b, w));
            sym.push((b, a, w));
        }
        sym.sort_unstable_by_key(|&(a, b, _)| (a, b));
        // Merge parallel edges.
        let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(sym.len());
        for (a, b, w) in sym {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => {
                    last.2 = last.2.checked_add(w).unwrap_or_else(|| {
                        panic!("edge ({a},{b}) weight overflows u32");
                    });
                }
                _ => merged.push((a, b, w)),
            }
        }
        let mut xadj = vec![0u32; n + 1];
        for &(a, _, _) in &merged {
            xadj[a as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let adjncy: Vec<u32> = merged.iter().map(|&(_, b, _)| b).collect();
        let ewgt: Vec<u32> = merged.iter().map(|&(_, _, w)| w).collect();
        CsrGraph {
            xadj,
            adjncy,
            vwgt: vec![1; n],
            ewgt,
        }
    }

    /// Builds from a CSR adjacency produced by
    /// `sweep_mesh::SweepMesh::adjacency_csr` (unit weights).
    pub fn from_csr_parts(xadj: Vec<u32>, adjncy: Vec<u32>) -> CsrGraph {
        let n = xadj.len() - 1;
        let m = adjncy.len();
        CsrGraph {
            xadj,
            adjncy,
            vwgt: vec![1; n],
            ewgt: vec![1; m],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v` with their edge weights.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (s, e) = (
            self.xadj[v as usize] as usize,
            self.xadj[v as usize + 1] as usize,
        );
        self.adjncy[s..e]
            .iter()
            .copied()
            .zip(self.ewgt[s..e].iter().copied())
    }

    /// Total vertex weight.
    #[inline]
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().map(|&w| w as u64).sum()
    }

    /// Degree of `v` (number of adjacency entries).
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_graph() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        let nbrs: Vec<_> = g.neighbors(1).collect();
        assert_eq!(nbrs, vec![(0, 1), (2, 1)]);
        assert_eq!(g.total_vwgt(), 3);
    }

    #[test]
    fn parallel_edges_merge() {
        let g = CsrGraph::from_weighted_edges(2, &[(0, 1, 2), (0, 1, 3)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 5)));
    }

    #[test]
    fn self_loops_dropped_by_from_edges() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "edge (0,1) weight overflows u32")]
    fn parallel_edge_weight_overflow_panics() {
        CsrGraph::from_weighted_edges(2, &[(0, 1, 1 << 31), (0, 1, 1 << 31)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        CsrGraph::from_edges(2, &[(0, 7)]);
    }

    #[test]
    fn from_csr_parts_round_trip() {
        let a = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = CsrGraph::from_csr_parts(a.xadj.clone(), a.adjncy.clone());
        assert_eq!(b.num_edges(), 3);
        assert_eq!(b.vwgt, vec![1; 4]);
    }

    #[test]
    fn empty_graph_ok() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_vwgt(), 0);
    }
}
