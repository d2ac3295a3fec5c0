//! Level (layer) structure of a task DAG — the paper's §3 "Levels".
//!
//! Layer `L_{i,j}` is the set of vertices with no predecessors once layers
//! `1..j-1` are removed; equivalently, `level(v)` is the length (in nodes)
//! of the longest source-to-`v` path. Processing layers in order respects
//! every precedence constraint. The *b-level* (used by DFDS priorities) is
//! the symmetric bottom-up quantity: the number of nodes on the longest
//! path from `v` to a sink.
//!
//! Nothing here walks a graph to find an order: [`TaskDag`] stores
//! `level_of` and the depth from its constructor's peel, [`levels()`] is a
//! counting sort of that table and [`b_levels`] one pass over its layers.

use crate::graph::{Csr, TaskDag};

/// The level decomposition of one DAG.
#[derive(Debug, Clone)]
pub struct Levels {
    /// `level_of[v]` ∈ `0..depth` (0-based; the paper's `L_{i,1}` is level 0).
    pub level_of: Vec<u32>,
    /// CSR layout of the layers: nodes of layer `j` are
    /// `layer_nodes[layer_xadj[j]..layer_xadj[j+1]]`.
    pub layer_xadj: Vec<u32>,
    /// Concatenated layer members.
    pub layer_nodes: Vec<u32>,
}

impl Levels {
    /// Number of layers — the paper's `D` for this direction.
    #[inline]
    pub fn depth(&self) -> usize {
        self.layer_xadj.len() - 1
    }

    /// The nodes of layer `j`.
    #[inline]
    pub fn layer(&self, j: usize) -> &[u32] {
        let (s, e) = (self.layer_xadj[j] as usize, self.layer_xadj[j + 1] as usize);
        &self.layer_nodes[s..e]
    }

    /// Iterator over layers, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.depth()).map(move |j| self.layer(j))
    }

    /// Width of the widest layer.
    pub fn max_width(&self) -> usize {
        (0..self.depth())
            .map(|j| self.layer(j).len())
            .max()
            .unwrap_or(0)
    }
}

/// The nodes bucketed by their stored level, a layer in id order: one
/// counting pass, no graph walk — the constructor's peel already did it.
fn layers(dag: &TaskDag) -> Csr {
    Csr::bucket(dag.depth(), dag.level_of().iter().copied().zip(0u32..))
}

/// The level decomposition, read off what the DAG stores.
///
/// # Panics
/// Panics if the graph is cyclic (levels are undefined); induced mesh DAGs
/// must be passed through [`crate::induce::break_cycles`] first.
pub fn levels(dag: &TaskDag) -> Levels {
    let layers = layers(dag);
    Levels {
        level_of: dag.level_of().to_vec(),
        layer_xadj: layers.xadj,
        layer_nodes: layers.adj,
    }
}

/// The b-level of every node: the number of nodes on the longest path from
/// the node to a sink (sinks have b-level 1), as in Pautz's DFDS.
///
/// # Panics
/// Panics if the graph is cyclic.
pub fn b_levels(dag: &TaskDag) -> Vec<u32> {
    let mut b = vec![1u32; dag.num_nodes()];
    // Deepest layer first: a node's successors all sit in later layers.
    for &v in layers(dag).adj.iter().rev() {
        for &w in dag.successors(v) {
            b[v as usize] = b[v as usize].max(b[w as usize] + 1);
        }
    }
    b
}

/// Length (in nodes) of the longest path in the DAG — the critical path,
/// equal to the number of layers. `O(1)`: the DAG stores it.
///
/// # Panics
/// Panics if the graph is cyclic.
pub fn critical_path_len(dag: &TaskDag) -> usize {
    dag.depth()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-cell digraph in the style of the paper's Figure 1(a) (it
    /// contains the two dependencies the text calls out: 3 before 6, and 2
    /// before 5). Its levels are {1,2}, {3,5}, {4,6}, {7}, {8} (1-based).
    fn figure1() -> TaskDag {
        // Using 0-based ids.
        TaskDag::from_edges(
            8,
            &[
                (0, 2), // 1 -> 3
                (1, 2), // 2 -> 3
                (1, 4), // 2 -> 5
                (2, 3), // 3 -> 4
                (2, 5), // 3 -> 6
                (4, 5), // 5 -> 6
                (3, 6), // 4 -> 7
                (5, 6), // 6 -> 7
                (6, 7), // 7 -> 8
            ],
        )
    }

    #[test]
    fn figure1_levels_match_paper() {
        let l = levels(&figure1());
        assert_eq!(l.depth(), 5);
        let mut layers: Vec<Vec<u32>> = l.iter().map(|s| s.to_vec()).collect();
        for lay in &mut layers {
            lay.sort_unstable();
        }
        assert_eq!(layers[0], vec![0, 1]); // {1,2}
        assert_eq!(layers[1], vec![2, 4]); // {3,5}
        assert_eq!(layers[2], vec![3, 5]); // {4,6}
        assert_eq!(layers[3], vec![6]); // {7}
        assert_eq!(layers[4], vec![7]); // {8}
    }

    #[test]
    fn level_of_is_longest_path() {
        let l = levels(&figure1());
        assert_eq!(l.level_of[0], 0);
        assert_eq!(l.level_of[7], 4);
        assert_eq!(l.max_width(), 2);
    }

    #[test]
    fn edges_go_to_strictly_higher_levels() {
        let g = figure1();
        let l = levels(&g);
        for (u, v) in g.edges() {
            assert!(l.level_of[u as usize] < l.level_of[v as usize]);
        }
    }

    #[test]
    fn layers_partition_the_nodes() {
        let g = figure1();
        let l = levels(&g);
        let total: usize = l.iter().map(|s| s.len()).sum();
        assert_eq!(total, g.num_nodes());
        let mut all: Vec<u32> = l.layer_nodes.clone();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn b_levels_of_figure1() {
        let b = b_levels(&figure1());
        // Node 8 (idx 7) is a sink: b-level 1. Node 1 (idx 0): longest path
        // 1->3->4->7->8 or 1->3->6->7->8 = 5 nodes.
        assert_eq!(b[7], 1);
        assert_eq!(b[0], 5);
        assert_eq!(b[1], 5); // 2->3->6->7->8 … also 5 nodes
    }

    #[test]
    fn duality_level_plus_blevel_bounded_by_depth() {
        let g = figure1();
        let l = levels(&g);
        let b = b_levels(&g);
        for (lv, bv) in l.level_of.iter().zip(&b) {
            // level is 0-based, b-level counts nodes: any source-to-sink
            // path through v has level(v) + b(v) nodes ≤ depth.
            assert!(lv + bv <= l.depth() as u32);
        }
        assert_eq!(critical_path_len(&g), l.depth());
    }

    #[test]
    fn edgeless_graph_single_layer() {
        let g = TaskDag::edgeless(4);
        let l = levels(&g);
        assert_eq!(l.depth(), 1);
        assert_eq!(l.layer(0).len(), 4);
        assert_eq!(critical_path_len(&g), 1);
    }

    #[test]
    fn chain_has_n_layers() {
        let g = TaskDag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let l = levels(&g);
        assert_eq!(l.depth(), 5);
        assert_eq!(l.max_width(), 1);
        let b = b_levels(&g);
        assert_eq!(b, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = TaskDag::edgeless(0);
        assert_eq!(critical_path_len(&g), 0);
        let l = levels(&g);
        assert_eq!(l.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_graph_panics() {
        let g = TaskDag::from_edges(2, &[(0, 1), (1, 0)]);
        levels(&g);
    }
}
