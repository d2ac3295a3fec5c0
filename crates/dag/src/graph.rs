//! Compact CSR task-DAG representation.
//!
//! One [`TaskDag`] holds the precedence constraints of a single sweep
//! direction over the cells `0..n`. Both successor and predecessor
//! adjacency are materialized because the schedulers walk the DAG in both
//! directions (readiness tracking uses predecessors, priority computations
//! walk successors).
//!
//! The DAG also owns its topological structure: the one constructor walks
//! the graph once — a Kahn peel, level by level — and that walk both
//! decides acyclicity and fills the paper's levels `L_{i,j}` (§3) and the
//! depth `D`. [`crate::levels()`], the schedulers' base layering and the
//! `D` of the lower bound read what it stored; none of them walks again.

use sweep_telemetry as telemetry;

/// Compressed sparse rows: row `r` is `adj[xadj[r]..xadj[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr<T = u32> {
    pub xadj: Vec<u32>,
    pub adj: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Counting sort of `(row, item)` pairs; a row keeps input order.
    pub fn bucket(rows: usize, pairs: impl Iterator<Item = (u32, T)> + Clone) -> Csr<T> {
        let mut xadj = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            xadj[r as usize + 1] += 1;
        }
        for r in 0..rows {
            xadj[r + 1] += xadj[r];
        }
        let mut adj = vec![T::default(); xadj[rows] as usize];
        let mut cursor: Vec<u32> = xadj[..rows].to_vec();
        for (r, item) in pairs {
            adj[cursor[r as usize] as usize] = item;
            cursor[r as usize] += 1;
        }
        Csr { xadj, adj }
    }

    #[inline]
    pub fn row(&self, r: u32) -> &[T] {
        &self.adj[self.xadj[r as usize] as usize..self.xadj[r as usize + 1] as usize]
    }
}

/// A directed graph over the cells `0..n` in CSR form, with its levels.
///
/// Construction runs one topological peel, so acyclicity is known from
/// then on: [`TaskDag::is_acyclic`] is a field read, and an acyclic graph
/// carries [`TaskDag::level_of`] and [`TaskDag::depth`]. A cyclic graph is
/// representable (it is the analyzer's input, and what
/// [`crate::induce::break_cycles`] repairs) but stores no levels.
// Structural equality is well-defined because the CSR rows are canonical
// (sorted + de-duplicated) and the levels are a function of them — used
// by the parallel-determinism tests to diff whole induced instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDag {
    succ: Csr,
    pred: Csr,
    /// One level per node; empty when the graph is cyclic.
    level_of: Vec<u32>,
    /// Number of levels; 0 when the graph is cyclic or empty.
    depth: u32,
}

impl TaskDag {
    /// Builds from an edge list `(u, v)` meaning *u must precede v*.
    /// Duplicate edges are removed; self-loops are rejected. Input that is
    /// already strictly increasing (what [`TaskDag::edges`] yields) is
    /// used as it is, without a copy or a sort.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n` or a self-loop is present.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> TaskDag {
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
            assert_ne!(u, v, "self-loop at {u}");
        }
        let mut canonical = Vec::new();
        let mut sorted = edges;
        if !edges.windows(2).all(|w| w[0] < w[1]) {
            canonical.extend_from_slice(edges);
            canonical.sort_unstable();
            canonical.dedup();
            sorted = &canonical;
        }
        // Sorted by `(u, v)`: both bucketings come out ascending per row.
        let succ = Csr::bucket(n, sorted.iter().copied());
        let pred = Csr::bucket(n, sorted.iter().map(|&(u, v)| (v, u)));
        TaskDag::from_csr(succ, pred).0
    }

    /// The one constructor: takes the canonical adjacency (rows ascending,
    /// no duplicates) and peels the graph level by level — Kahn's
    /// algorithm with a FIFO queue, so nodes leave in level order and a
    /// node's level is one more than that of the predecessor that released
    /// it. Also returns the nodes the peel never reached: none exactly
    /// when the graph is acyclic, otherwise every cycle and whatever hangs
    /// below one.
    pub(crate) fn from_csr(succ: Csr, pred: Csr) -> (TaskDag, Vec<u32>) {
        telemetry::counter_add("dag.levels.computed", 1);
        let n = succ.xadj.len() - 1;
        // One array serves twice: a node's count of unpeeled predecessors
        // until that reaches zero, its level from then on.
        let mut level_of: Vec<u32> = pred.xadj.windows(2).map(|w| w[1] - w[0]).collect();
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        queue.extend((0..n as u32).filter(|&v| level_of[v as usize] == 0));
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let next = level_of[v as usize] + 1;
            for &w in succ.row(v) {
                level_of[w as usize] -= 1;
                if level_of[w as usize] == 0 {
                    level_of[w as usize] = next;
                    queue.push(w);
                }
            }
        }
        let mut depth = 0;
        let mut residue = Vec::new();
        if queue.len() == n {
            depth = queue.last().map_or(0, |&v| level_of[v as usize] + 1);
        } else {
            let mut peeled = vec![false; n];
            queue.iter().for_each(|&v| peeled[v as usize] = true);
            residue.extend((0..n as u32).filter(|&v| !peeled[v as usize]));
            level_of = Vec::new();
        }
        let dag = TaskDag {
            succ,
            pred,
            level_of,
            depth,
        };
        (dag, residue)
    }

    /// An edgeless DAG over `n` nodes (every task independent).
    pub fn edgeless(n: usize) -> TaskDag {
        TaskDag::from_edges(n, &[])
    }

    /// Number of nodes (cells).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.succ.xadj.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.succ.adj.len()
    }

    /// Successors of `v` (tasks that depend on `v`).
    #[inline]
    pub fn successors(&self, v: u32) -> &[u32] {
        self.succ.row(v)
    }

    /// Predecessors of `v` (tasks `v` depends on).
    #[inline]
    pub fn predecessors(&self, v: u32) -> &[u32] {
        self.pred.row(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: u32) -> u32 {
        self.pred.xadj[v as usize + 1] - self.pred.xadj[v as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> u32 {
        self.succ.xadj[v as usize + 1] - self.succ.xadj[v as usize]
    }

    /// The successor adjacency itself (what Tarjan walks).
    pub(crate) fn succ_csr(&self) -> &Csr {
        &self.succ
    }

    /// Iterates over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let nodes = 0..self.num_nodes() as u32;
        nodes.flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// A topological order via Kahn's algorithm, or `None` if cyclic.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.num_nodes();
        let mut indeg: Vec<u32> = (0..n as u32).map(|v| self.in_degree(v)).collect();
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        while let Some(v) = queue.pop() {
            order.push(v);
            for &w in self.successors(v) {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    queue.push(w);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// True when the graph has no directed cycle — the verdict of the
    /// constructor's peel, `O(1)`.
    #[inline]
    pub fn is_acyclic(&self) -> bool {
        self.level_of.len() == self.num_nodes()
    }

    /// `level_of()[v]` ∈ `0..depth`: the number of nodes before `v` on the
    /// longest source-to-`v` path (the paper's `L_{i,1}` is level 0), as
    /// the constructor stored it.
    ///
    /// # Panics
    /// Panics if the graph is cyclic (levels are undefined).
    #[inline]
    pub fn level_of(&self) -> &[u32] {
        assert!(self.is_acyclic(), "levels require an acyclic graph");
        &self.level_of
    }

    /// Number of levels — the paper's `D` for this direction, the length
    /// in nodes of the critical path; 0 for the empty graph.
    ///
    /// # Panics
    /// Panics if the graph is cyclic.
    #[inline]
    pub fn depth(&self) -> usize {
        assert!(self.is_acyclic(), "levels require an acyclic graph");
        self.depth as usize
    }

    /// Source nodes (in-degree 0) — the paper's *roots*.
    pub fn sources(&self) -> Vec<u32> {
        let nodes = 0..self.num_nodes() as u32;
        nodes.filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Sink nodes (out-degree 0) — the paper's *leaves*.
    pub fn sinks(&self) -> Vec<u32> {
        let nodes = 0..self.num_nodes() as u32;
        nodes.filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// The transpose DAG (every edge reversed).
    pub fn transpose(&self) -> TaskDag {
        TaskDag::from_csr(self.pred.clone(), self.succ.clone()).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskDag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        TaskDag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn counts_and_adjacency() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.predecessors(3), &[1, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn duplicate_edges_removed() {
        let g = TaskDag::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        TaskDag::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        TaskDag::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order().expect("diamond is acyclic");
        let pos: Vec<usize> = (0..4u32)
            .map(|v| order.iter().position(|&x| x == v).unwrap())
            .collect();
        for (u, v) in g.edges() {
            assert!(pos[u as usize] < pos[v as usize]);
        }
        assert!(g.is_acyclic());
    }

    #[test]
    fn cycle_detected() {
        let g = TaskDag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(!g.is_acyclic());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn edgeless_is_trivially_acyclic() {
        let g = TaskDag::edgeless(5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.sources().len(), 5);
        assert_eq!(g.sinks().len(), 5);
        assert!(g.is_acyclic());
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.successors(3), &[1, 2]);
        assert_eq!(t.predecessors(0).len(), 2);
        let mut e1: Vec<_> = g.edges().map(|(u, v)| (v, u)).collect();
        let mut e2: Vec<_> = t.edges().collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let g = diamond();
        assert_eq!(g.edges().count(), g.num_edges());
    }
}
