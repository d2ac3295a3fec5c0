//! Task-DAG representation: one shared neighbour graph, oriented per
//! direction.
//!
//! One [`TaskDag`] holds the precedence constraints of a single sweep
//! direction over the cells `0..n`. On a mesh every direction orients the
//! same undirected graph, the interior faces (paper §1: `u → v` exactly
//! when the shared face's normal points along the direction), so the
//! graph is stored once — per cell its neighbours in ascending id order,
//! the parallel faces of one cell pair merged into one entry — behind an
//! [`Arc`] that every direction of the instance shares. A direction owns
//! two bit planes over that graph's entries: *forward* (the entry is a
//! successor of its row's cell) and *backward* (a predecessor). The
//! schedulers walk the DAG both ways, so both are kept; an entry with
//! neither bit is a face that induces nothing in this direction (parallel
//! to it, or cut by cycle breaking).
//!
//! The DAG also owns its topological structure: the one constructor walks
//! the graph once — a Kahn peel, level by level — and that walk both
//! decides acyclicity and fills the paper's levels `L_{i,j}` (§3) and the
//! depth `D`. [`crate::levels()`], the schedulers' base layering and the
//! `D` of the lower bound read what it stored; none of them walks again.

use std::sync::Arc;

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

    /// Bytes the two vectors hold, by capacity.
    pub fn heap_bytes(&self) -> usize {
        4 * self.xadj.capacity() + std::mem::size_of::<T>() * self.adj.capacity()
    }
}

/// A neighbour graph built from undirected pairs — a mesh's interior
/// faces, or an edge list — plus where every pair landed in it, so that a
/// direction is one sign per pair ([`PairGraph::orient`]).
pub(crate) struct PairGraph {
    graph: Arc<Csr>,
    /// The entry of pair `p` in row `a` and in row `b`.
    at: Vec<[u32; 2]>,
}

impl PairGraph {
    /// The neighbour graph of the pairs `(a, b)`: per cell its neighbours
    /// ascending, the pairs of one cell pair merged into one entry.
    ///
    /// # Panics
    /// Panics on a pair with an endpoint `>= n` or with `a == b`.
    pub fn new(n: usize, pairs: impl ExactSizeIterator<Item = (u32, u32)> + Clone) -> PairGraph {
        let count = pairs.len();
        assert!(count <= i32::MAX as usize, "pair index overflows");
        for (a, b) in pairs.clone() {
            assert!(a.max(b) < n as u32, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop at {a}");
        }
        // Half-pairs `neighbour << 32 | pair << 1 | side` (`side` = 1 in
        // `b`'s row), sorted per row: the halves of one cell pair become
        // adjacent, whatever order the pairs came in.
        let halves = pairs.zip(0u64..).flat_map(|((a, b), p)| {
            let (wa, wb) = (u64::from(a), u64::from(b));
            [(a, wb << 32 | p << 1), (b, wa << 32 | p << 1 | 1)]
        });
        let mut halves = Csr::bucket(n, halves);
        let mut at = vec![[0u32; 2]; count];
        let mut adj = Vec::with_capacity(halves.adj.len());
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        for c in halves.xadj.windows(2) {
            let row = &mut halves.adj[c[0] as usize..c[1] as usize];
            row.sort_unstable();
            let first = adj.len();
            for &half in row.iter() {
                let neighbour = (half >> 32) as u32;
                if adj.len() == first || adj.last() != Some(&neighbour) {
                    adj.push(neighbour);
                }
                at[(half as u32 >> 1) as usize][half as usize & 1] = (adj.len() - 1) as u32;
            }
            xadj.push(adj.len() as u32);
        }
        adj.shrink_to_fit();
        PairGraph {
            graph: Arc::new(Csr { xadj, adj }),
            at,
        }
    }

    /// The digraph the pair signs describe (`+1`: `a → b`, `−1`: `b → a`,
    /// `0`: no edge) over the shared graph, with the nodes its peel left
    /// (see [`TaskDag::orient`]).
    pub fn orient(&self, sign: &[i8]) -> (TaskDag, Vec<u32>) {
        // One word past the last entry's, so that any 64 entries are two
        // whole words.
        let words = self.graph.adj.len().div_ceil(64) + 1;
        let (mut forward, mut backward) = (vec![0u64; words], vec![0u64; words]);
        for (&[ea, eb], &s) in self.at.iter().zip(sign) {
            let (out, inn) = match s {
                1 => (ea, eb),
                -1 => (eb, ea),
                _ => continue,
            };
            forward[out as usize >> 6] |= 1 << (out & 63);
            backward[inn as usize >> 6] |= 1 << (inn & 63);
        }
        TaskDag::orient(Arc::clone(&self.graph), forward, backward)
    }
}

/// The neighbours of one cell whose entries are set in one bit plane, in
/// ascending id order: [`TaskDag::successors`] and
/// [`TaskDag::predecessors`].
#[derive(Debug, Clone)]
pub struct Neighbours<'a> {
    /// The row: every neighbour of the cell.
    row: &'a [u32],
    plane: &'a [u64],
    /// The plane's entry of `row[0]`.
    start: usize,
    /// Row offset of bit 0 of `bits`; a multiple of 64.
    offset: usize,
    /// Set bits of `row[offset..offset + 64]` not yet visited.
    bits: u64,
}

impl<'a> Neighbours<'a> {
    #[inline]
    fn new(graph: &'a Csr, plane: &'a [u64], v: u32) -> Neighbours<'a> {
        let start = graph.xadj[v as usize] as usize;
        let end = graph.xadj[v as usize + 1] as usize;
        let bits = if start < end {
            window(plane, start, end)
        } else {
            0
        };
        Neighbours {
            row: &graph.adj[start..end],
            plane,
            start,
            offset: 0,
            bits,
        }
    }
}

impl Iterator for Neighbours<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.offset += 64;
            if self.offset >= self.row.len() {
                return None;
            }
            let end = self.start + self.row.len();
            self.bits = window(self.plane, self.start + self.offset, end);
        }
        let i = self.offset + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.row[i])
    }
}

/// Every edge `(u, v)` of a [`TaskDag`], by `u` then `v`:
/// [`TaskDag::edges`]. One walk over the forward plane's words, the row
/// found by a cursor that only moves forward.
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Csr,
    plane: &'a [u64],
    /// The word `bits` came from.
    word: usize,
    /// Set bits of that word not yet visited.
    bits: u64,
    /// The row of the last edge.
    row: usize,
}

impl Iterator for Edges<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.plane.get(self.word)?;
        }
        let e = self.word << 6 | self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        while self.graph.xadj[self.row + 1] as usize <= e {
            self.row += 1;
        }
        Some((self.row as u32, self.graph.adj[e]))
    }
}

/// The bits of `plane` for the entries `at..end` (`at < end`), at most 64
/// of them, entry `at` in bit 0.
#[inline]
fn window(plane: &[u64], at: usize, end: usize) -> u64 {
    let pair = &plane[at >> 6..(at >> 6) + 2];
    let pair = u128::from(pair[0]) | u128::from(pair[1]) << 64;
    let bits = (pair >> (at & 63)) as u64;
    bits & u64::MAX >> (64 - (end - at).min(64))
}

/// A directed graph over the cells `0..n`, an orientation of a shared
/// neighbour graph, with its levels.
///
/// Construction runs one topological peel, so acyclicity is known from
/// then on: [`TaskDag::is_acyclic`] is a field read, and an acyclic graph
/// carries [`TaskDag::level_of`] and [`TaskDag::depth`]. A cyclic graph is
/// representable (it is the analyzer's input, and what
/// [`crate::induce::break_cycles`] repairs) but stores no levels.
///
/// Equality is that of the digraphs: node count, edge set and levels. Two
/// DAGs with the same edges are equal although one came from a mesh's
/// face graph and the other from an edge list.
#[derive(Debug, Clone)]
pub struct TaskDag {
    /// Per cell its neighbours, ascending; one `Arc` for every direction
    /// induced from one mesh.
    graph: Arc<Csr>,
    /// Bit `e` set: `graph.adj[e]` is a successor of its row's cell.
    forward: Vec<u64>,
    /// Bit `e` set: `graph.adj[e]` is a predecessor of its row's cell.
    backward: Vec<u64>,
    /// One level per node; empty when the graph is cyclic.
    level_of: Vec<u32>,
    /// Number of levels; 0 when the graph is cyclic or empty.
    depth: u32,
}

impl PartialEq for TaskDag {
    fn eq(&self, other: &TaskDag) -> bool {
        let same_edges = if Arc::ptr_eq(&self.graph, &other.graph) {
            self.forward == other.forward
        } else {
            self.edges().eq(other.edges())
        };
        self.num_nodes() == other.num_nodes()
            && self.depth == other.depth
            && self.level_of == other.level_of
            && same_edges
    }
}

impl Eq for TaskDag {}

impl TaskDag {
    /// Builds from an edge list `(u, v)` meaning *u must precede v*, on a
    /// neighbour graph of its own. Duplicate edges are merged; self-loops
    /// are rejected.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n` or a self-loop is present.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> TaskDag {
        PairGraph::new(n, edges.iter().copied())
            .orient(&vec![1; edges.len()])
            .0
    }

    /// The one constructor: takes the shared graph and the direction's two
    /// planes and peels the graph level by level — Kahn's algorithm with a
    /// FIFO queue, so nodes leave in level order and a node's level is one
    /// more than that of the predecessor that released it. Also returns
    /// the nodes the peel never reached: none exactly when the graph is
    /// acyclic, otherwise every cycle and whatever hangs below one.
    fn orient(graph: Arc<Csr>, forward: Vec<u64>, backward: Vec<u64>) -> (TaskDag, Vec<u32>) {
        telemetry::counter_add("dag.levels.computed", 1);
        let mut dag = TaskDag {
            graph,
            forward,
            backward,
            level_of: Vec::new(),
            depth: 0,
        };
        let n = dag.num_nodes();
        // One array serves twice: a node's count of unpeeled predecessors
        // until that reaches zero, its level from then on.
        let mut level_of: Vec<u32> = dag.in_degrees().collect();
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        queue.extend((0..n as u32).filter(|&v| level_of[v as usize] == 0));
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let next = level_of[v as usize] + 1;
            for w in dag.successors(v) {
                level_of[w as usize] -= 1;
                if level_of[w as usize] == 0 {
                    level_of[w as usize] = next;
                    queue.push(w);
                }
            }
        }
        let mut residue = Vec::new();
        if queue.len() == n {
            dag.depth = queue.last().map_or(0, |&v| level_of[v as usize] + 1);
            dag.level_of = level_of;
        } else {
            let mut peeled = vec![false; n];
            queue.iter().for_each(|&v| peeled[v as usize] = true);
            residue.extend((0..n as u32).filter(|&v| !peeled[v as usize]));
        }
        (dag, residue)
    }

    /// An edgeless DAG over `n` nodes (every task independent).
    pub fn edgeless(n: usize) -> TaskDag {
        TaskDag::from_edges(n, &[])
    }

    /// Number of nodes (cells).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.xadj.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.forward.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Successors of `v` (tasks that depend on `v`), ascending.
    #[inline]
    pub fn successors(&self, v: u32) -> Neighbours<'_> {
        Neighbours::new(&self.graph, &self.forward, v)
    }

    /// Predecessors of `v` (tasks `v` depends on), ascending.
    #[inline]
    pub fn predecessors(&self, v: u32) -> Neighbours<'_> {
        Neighbours::new(&self.graph, &self.backward, v)
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: u32) -> u32 {
        self.predecessors(v).count() as u32
    }

    /// In-degree of every node, in id order: one pass over the backward
    /// plane, cheaper than [`TaskDag::in_degree`] node by node.
    pub fn in_degrees(&self) -> impl Iterator<Item = u32> + '_ {
        let plane = &self.backward;
        // Set bits before entry `xadj[v]`, and the words they were read from.
        let (mut before, mut words, mut done) = (0u32, 0usize, 0u32);
        self.graph.xadj[1..].iter().map(move |&end| {
            let end = end as usize;
            while words < end >> 6 {
                done += plane[words].count_ones();
                words += 1;
            }
            let upto = done + (plane[words] & !(u64::MAX << (end & 63))).count_ones();
            let degree = upto - before;
            before = upto;
            degree
        })
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> u32 {
        self.successors(v).count() as u32
    }

    /// Iterates over all edges `(u, v)`, by `u` then `v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: &self.graph,
            plane: &self.forward,
            word: 0,
            bits: self.forward[0],
            row: 0,
        }
    }

    /// The shared neighbour graph, to count it once per instance.
    pub(crate) fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    /// Bytes this direction owns by capacity — its planes and levels, not
    /// the shared graph ([`TaskDag::graph`]).
    pub(crate) fn own_heap_bytes(&self) -> usize {
        8 * (self.forward.capacity() + self.backward.capacity()) + 4 * self.level_of.capacity()
    }

    /// A topological order via Kahn's algorithm, or `None` if cyclic.
    ///
    /// The library walks the stored layers ([`crate::levels()`]) instead;
    /// this fresh walk stays as the independent reference the tests hold
    /// those walks to, `tests/induction_oracle.rs` first among them.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.num_nodes();
        let mut indeg: Vec<u32> = (0..n as u32).map(|v| self.in_degree(v)).collect();
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        while let Some(v) = queue.pop() {
            order.push(v);
            for w in self.successors(v) {
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

    /// The transpose DAG (every edge reversed): the planes swapped over
    /// the same shared graph.
    pub fn transpose(&self) -> TaskDag {
        let graph = Arc::clone(&self.graph);
        TaskDag::orient(graph, self.backward.clone(), self.forward.clone()).0
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
        assert!(g.successors(0).eq([1, 2]));
        assert!(g.predecessors(3).eq([1, 2]));
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
        assert!(t.successors(3).eq([1, 2]));
        assert_eq!(t.predecessors(0).count(), 2);
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

    /// The representation the bit planes replaced, kept as their oracle:
    /// a successor CSR and a predecessor CSR built from `edges()`.
    struct PlainCsr {
        succ: Csr,
        pred: Csr,
    }

    impl PlainCsr {
        fn new(dag: &TaskDag) -> PlainCsr {
            let (n, edges): (_, Vec<_>) = (dag.num_nodes(), dag.edges().collect());
            PlainCsr {
                succ: Csr::bucket(n, edges.iter().copied()),
                pred: Csr::bucket(n, edges.iter().map(|&(u, v)| (v, u))),
            }
        }

        fn transposed(self) -> PlainCsr {
            PlainCsr {
                succ: self.pred,
                pred: self.succ,
            }
        }

        fn row(csr: &Csr, v: u32) -> &[u32] {
            &csr.adj[csr.xadj[v as usize] as usize..csr.xadj[v as usize + 1] as usize]
        }

        /// Longest-path levels and depth by a FIFO Kahn pass over the
        /// rows; `None` when the rows hold a cycle.
        fn levels(&self) -> Option<(Vec<u32>, usize)> {
            let n = self.succ.xadj.len() - 1;
            let mut indeg: Vec<usize> = (0..n as u32)
                .map(|v| Self::row(&self.pred, v).len())
                .collect();
            let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
            let mut level = vec![0u32; n];
            let mut head = 0;
            while let Some(&v) = queue.get(head) {
                head += 1;
                for &w in Self::row(&self.succ, v) {
                    level[w as usize] = level[w as usize].max(level[v as usize] + 1);
                    indeg[w as usize] -= 1;
                    if indeg[w as usize] == 0 {
                        queue.push(w);
                    }
                }
            }
            let depth = level.iter().max().map_or(0, |&l| l as usize + 1);
            (queue.len() == n).then_some((level, depth))
        }
    }

    /// Every accessor of `dag`, and of its transpose, against the plain
    /// CSR of its edges.
    fn assert_matches_plain_csr(dag: &TaskDag, what: &str) {
        for (g, plain) in [
            (dag.clone(), PlainCsr::new(dag)),
            (dag.transpose(), PlainCsr::new(dag).transposed()),
        ] {
            let n = g.num_nodes() as u32;
            assert_eq!(g.num_edges(), plain.succ.adj.len(), "{what}");
            let rows =
                (0..n).flat_map(|u| PlainCsr::row(&plain.succ, u).iter().map(move |&v| (u, v)));
            assert!(g.edges().eq(rows), "{what}: edges");
            for v in 0..n {
                let (succ, pred) = (PlainCsr::row(&plain.succ, v), PlainCsr::row(&plain.pred, v));
                assert!(
                    g.successors(v).eq(succ.iter().copied()),
                    "{what}: successors({v})"
                );
                assert!(
                    g.predecessors(v).eq(pred.iter().copied()),
                    "{what}: predecessors({v})"
                );
                assert_eq!(
                    g.out_degree(v) as usize,
                    succ.len(),
                    "{what}: out_degree({v})"
                );
                assert_eq!(
                    g.in_degree(v) as usize,
                    pred.len(),
                    "{what}: in_degree({v})"
                );
            }
            let in_degrees = (0..n).map(|v| PlainCsr::row(&plain.pred, v).len() as u32);
            assert!(g.in_degrees().eq(in_degrees), "{what}: in_degrees");
            match plain.levels() {
                Some((level_of, depth)) => {
                    assert!(g.is_acyclic(), "{what}");
                    assert_eq!(g.level_of(), level_of, "{what}: level_of");
                    assert_eq!(g.depth(), depth, "{what}: depth");
                }
                None => assert!(!g.is_acyclic(), "{what}: cyclic"),
            }
        }
        assert!(
            dag.transpose().transpose() == *dag,
            "{what}: transpose twice"
        );
    }

    #[test]
    fn representation_matches_the_plain_csr_oracle() {
        use crate::induce::{break_cycles, induce_all, induce_raw};
        use crate::SweepInstance;
        use sweep_mesh::{CellId, MeshPreset, SweepMesh};
        use sweep_quadrature::QuadratureSet;

        // Induced DAGs share their mesh's graph, and equal the edge-list
        // route's DAGs, which each own one.
        fn check_induced(mesh: &(impl SweepMesh + Sync), sn: usize, what: &str) {
            let quad = QuadratureSet::level_symmetric(sn).unwrap();
            let (dags, _) = induce_all(mesh, &quad);
            let n = mesh.num_cells();
            for ((i, omega), dag) in quad.iter().zip(&dags) {
                let what = format!("{what} S{sn} direction {}", i.0);
                assert!(
                    Arc::ptr_eq(dag.graph(), dags[0].graph()),
                    "{what}: one graph"
                );
                assert_matches_plain_csr(dag, &what);
                let height: Vec<f64> = (0..n as u32)
                    .map(|c| mesh.centroid(CellId(c)).dot(omega))
                    .collect();
                let (kept, _, _) = break_cycles(n, induce_raw(mesh, omega), &height);
                let edge_list = TaskDag::from_edges(n, &kept);
                assert!(!Arc::ptr_eq(dag.graph(), edge_list.graph()), "{what}");
                assert!(*dag == edge_list, "{what}: edge-list route");
            }
        }
        for (preset, scale) in [
            (MeshPreset::Tetonly, 0.02),
            (MeshPreset::WellLogging, 0.02),
            (MeshPreset::Long, 0.02),
            (MeshPreset::Prismtet, 0.01),
        ] {
            let mesh = preset.build_scaled(scale).unwrap();
            for sn in [2, 4] {
                check_induced(&mesh, sn, preset.name());
            }
        }
        let bytes = include_bytes!("../../../examples/meshes/warped.msh");
        let warped = sweep_mesh::import_bytes(bytes, sweep_mesh::ImportFormat::Msh).unwrap();
        check_induced(&warped.mesh, 4, "warped.msh");
        let quad = QuadratureSet::level_symmetric(4).unwrap();
        let mut cyclic = 0;
        for (i, omega) in quad.iter() {
            let raw =
                TaskDag::from_edges(warped.mesh.num_cells(), &induce_raw(&warped.mesh, omega));
            cyclic += usize::from(!raw.is_acyclic());
            assert_matches_plain_csr(&raw, &format!("raw warped.msh direction {}", i.0));
        }
        assert!(cyclic > 0, "warped.msh induces cycles");

        // The generators, the bottleneck with rows over 64 entries wide.
        let edgeless = SweepInstance::new(7, vec![TaskDag::edgeless(7); 2], "edgeless");
        for inst in [
            SweepInstance::random_layered(200, 3, 7, 4, 1),
            SweepInstance::random_chains(150, 3, 2),
            SweepInstance::identical_chains(70, 2),
            SweepInstance::bottleneck(100, 3, 2),
            edgeless,
        ] {
            for (i, dag) in inst.dags().iter().enumerate() {
                assert_matches_plain_csr(dag, &format!("{} direction {i}", inst.name()));
            }
        }
    }
}
