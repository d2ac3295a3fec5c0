//! Graph bisection: greedy region growing followed by Fiduccia–Mattheyses
//! (FM) boundary refinement. Used on the coarsest graph and re-applied
//! during uncoarsening by the multilevel driver.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::csr::CsrGraph;
use crate::multilevel::{PartitionOptions, Workspace};

/// An exact max-priority queue of `(gain, vertex)`, a vertex held at most
/// once: `peek_max` is the argmax of `(gain, vertex id)` over what is
/// queued. Keys are distinct per vertex, so any queue with this contract
/// pops the one sequence FM and region growing are defined by.
///
/// A sorted directory of the *live* distinct gains, each owning a pooled
/// `⌈n/64⌉`-word bitset over vertex ids: `min(distinct gains, n) · n / 8`
/// bytes, whatever the edge weights are.
#[derive(Debug, Default)]
pub(crate) struct GainQueue {
    /// Words per bitset for the graph in hand.
    words: usize,
    /// `(gain, slot, top)` per live gain, ascending by gain; no word of the
    /// slot's bitset above index `top` is non-zero.
    dir: Vec<(i64, u32, u32)>,
    /// Slot `s` owns `bits[s * words..][..words]`; all zero unless live.
    bits: Vec<u64>,
    /// Vertices queued per slot.
    len: Vec<u32>,
    /// Slots handed back empty.
    free: Vec<u32>,
}

impl GainQueue {
    /// Empties the queue and sizes its bitsets for vertex ids `< n`.
    pub(crate) fn reset(&mut self, n: usize) {
        for &(_, s, _) in &self.dir {
            self.bits[s as usize * self.words..][..self.words].fill(0);
        }
        self.dir.clear();
        self.len.clear();
        self.free.clear();
        self.words = n.div_ceil(64);
    }

    /// Queues `v`, which must not be queued, at `gain`.
    pub(crate) fn insert(&mut self, gain: i64, v: u32) {
        let i = self.dir.partition_point(|e| e.0 < gain);
        if self.dir.get(i).is_none_or(|e| e.0 != gain) {
            let s = self.free.pop().unwrap_or_else(|| {
                self.len.push(0);
                let need = self.len.len() * self.words;
                self.bits.resize(need.max(self.bits.len()), 0);
                self.len.len() as u32 - 1
            });
            self.dir.insert(i, (gain, s, 0));
        }
        self.dir[i].2 = self.dir[i].2.max(v / 64);
        let s = self.dir[i].1 as usize;
        self.bits[s * self.words + v as usize / 64] |= 1 << (v % 64);
        self.len[s] += 1;
    }

    /// Removes `v`, which must be queued at `gain`.
    pub(crate) fn remove(&mut self, gain: i64, v: u32) {
        let i = self.dir.partition_point(|e| e.0 < gain);
        debug_assert_eq!(self.dir[i].0, gain);
        let s = self.dir[i].1 as usize;
        self.bits[s * self.words + v as usize / 64] &= !(1 << (v % 64));
        self.len[s] -= 1;
        if self.len[s] == 0 {
            self.dir.remove(i);
            self.free.push(s as u32);
        }
    }

    /// The queued `(gain, vertex)` that is largest in that order.
    pub(crate) fn peek_max(&mut self) -> Option<(i64, u32)> {
        let (gain, s, top) = self.dir.last_mut()?;
        let set = &self.bits[*s as usize * self.words..][..self.words];
        // A live bucket is never empty, so the scan stops at a set word.
        while set[*top as usize] == 0 {
            *top -= 1;
        }
        let id = *top * 64 + 63 - set[*top as usize].leading_zeros();
        Some((*gain, id))
    }
}

/// Sum of weights of edges whose endpoints carry different labels (sides
/// of a bisection, parts of a partition).
pub(crate) fn cut_weight<T: PartialEq>(g: &CsrGraph, label: &[T]) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.num_vertices() as u32 {
        for (u, w) in g.neighbors(v) {
            if v < u && label[v as usize] != label[u as usize] {
                cut += w as u64;
            }
        }
    }
    cut
}

/// Grows side 0 of `side` from a seed vertex by repeatedly absorbing the
/// boundary vertex with the highest gain until its weight reaches
/// `target0`.
fn grow_from(g: &CsrGraph, seed: u32, target0: u64, side: &mut Vec<u8>, ws: &mut Workspace) {
    let n = g.num_vertices();
    let q = &mut ws.queues[0];
    let queued = &mut ws.locked; // ever queued, not FM's lock
    side.clear();
    side.resize(n, 1);
    ws.gain.clear();
    ws.gain.resize(n, 0);
    queued.clear();
    queued.resize(n, false);
    q.reset(n);
    let mut w0 = 0u64;
    q.insert(0, seed);
    queued[seed as usize] = true;
    while w0 < target0 {
        let Some((gv, v)) = q.peek_max() else { break };
        q.remove(gv, v);
        side[v as usize] = 0;
        w0 += g.vwgt[v as usize] as u64;
        for (u, w) in g.neighbors(v) {
            if side[u as usize] == 1 {
                let new = ws.gain[u as usize] + 2 * w as i64;
                let old = std::mem::replace(&mut ws.gain[u as usize], new);
                if std::mem::replace(&mut queued[u as usize], true) {
                    q.remove(old, u);
                }
                q.insert(new, u);
            }
        }
    }
    // Disconnected graph: the queue may run dry early; absorb arbitrary
    // remaining vertices to respect the weight target.
    if w0 < target0 {
        for (v, s) in side.iter_mut().enumerate() {
            if *s == 1 {
                *s = 0;
                w0 += g.vwgt[v] as u64;
                if w0 >= target0 {
                    break;
                }
            }
        }
    }
}

/// Greedy-growing bisection: tries `opts.init_tries` random seeds and
/// keeps the best cut after FM refinement of each. Returns the side (0/1)
/// per vertex and the cut weight.
pub(crate) fn initial_bisection(
    g: &CsrGraph,
    (target0, tol): (u64, u64),
    opts: &PartitionOptions,
    ws: &mut Workspace,
) -> (Vec<u8>, u64) {
    let n = g.num_vertices();
    assert!(n > 0, "cannot bisect an empty graph");
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x9e37);
    let (mut best, mut best_cut) = (Vec::new(), u64::MAX);
    let mut side = Vec::new();
    for _ in 0..opts.init_tries.max(1) {
        let s = rng.random_range(0..n as u32);
        grow_from(g, s, target0, &mut side, ws);
        let cut = cut_weight(g, &side);
        let cut = fm_refine(g, &mut side, cut, (target0, tol), 4, ws);
        if cut < best_cut {
            std::mem::swap(&mut best, &mut side);
            best_cut = cut;
        }
    }
    (best, best_cut)
}

/// FM boundary refinement. Moves vertices between sides to reduce the cut
/// while keeping side 0's weight within `tol` of `target0` (moves that
/// strictly improve balance are always allowed). Runs up to `max_passes`
/// passes, each with rollback to its best prefix. Takes the cut of `side`
/// (coarsening preserves it, so the driver knows it) and returns the final
/// cut.
pub(crate) fn fm_refine(
    g: &CsrGraph,
    side: &mut [u8],
    mut cut: u64,
    (target0, tol): (u64, u64),
    max_passes: usize,
    ws: &mut Workspace,
) -> u64 {
    let n = g.num_vertices();
    debug_assert_eq!(cut, cut_weight(g, side));
    if n < 2 {
        return cut;
    }
    let (queues, gain) = (&mut ws.queues, &mut ws.gain);
    let (locked, moves) = (&mut ws.locked, &mut ws.moves);
    let imbalance = |w0: u64| -> u64 { w0.abs_diff(target0) };
    for _ in 0..max_passes {
        // w0: weight on side 0 (sides are 0/1). gain[v]: cut reduction if v
        // switches sides. One queue per source side, holding exactly its
        // unlocked vertices.
        let mut w0 = 0u64;
        queues.iter_mut().for_each(|q| q.reset(n));
        gain.clear();
        gain.resize(n, 0);
        for v in 0..n as u32 {
            for (u, w) in g.neighbors(v) {
                let crosses = side[v as usize] != side[u as usize];
                gain[v as usize] += if crosses { w as i64 } else { -(w as i64) };
            }
            queues[side[v as usize] as usize].insert(gain[v as usize], v);
            w0 += (1 - side[v as usize] as u64) * g.vwgt[v as usize] as u64;
        }
        locked.clear();
        locked.resize(n, false);
        moves.clear();
        let (mut cur_cut, mut best_cut, mut best_len) = (cut as i64, cut as i64, 0usize);

        loop {
            // Prefer moving from the side whose weight is too high;
            // otherwise take the higher-gain head of either queue (side 0
            // on a tie).
            let choice = if w0 > target0 + tol {
                queues[0].peek_max()
            } else if w0 + tol < target0 {
                queues[1].peek_max()
            } else {
                match (queues[0].peek_max(), queues[1].peek_max()) {
                    (Some(a), Some(b)) => Some(if a.0 >= b.0 { a } else { b }),
                    (a, b) => a.or(b),
                }
            };
            let Some((gv, v)) = choice else { break };
            // Chosen: `v` is moved or cannot move this pass; locked either way.
            let vs = side[v as usize];
            queues[vs as usize].remove(gv, v);
            locked[v as usize] = true;
            let vw = g.vwgt[v as usize] as u64;
            let new_w0 = if vs == 0 { w0 - vw } else { w0 + vw };
            // Feasible if within tolerance or strictly improving balance.
            if imbalance(new_w0) > tol && imbalance(new_w0) >= imbalance(w0) {
                continue;
            }
            // Apply the move.
            cur_cut -= gv;
            w0 = new_w0;
            side[v as usize] = 1 - vs;
            moves.push(v);
            for (u, w) in g.neighbors(v) {
                if locked[u as usize] {
                    continue;
                }
                // u's gain changes by ±2w depending on relative sides.
                let us = side[u as usize];
                let old = gain[u as usize];
                let delta = if us == vs { 2 } else { -2 } * w as i64;
                gain[u as usize] = old + delta;
                queues[us as usize].remove(old, u);
                queues[us as usize].insert(old + delta, u);
            }
            if cur_cut < best_cut || (cur_cut == best_cut && imbalance(w0) <= tol) {
                best_cut = cur_cut;
                best_len = moves.len();
            }
        }
        // Roll back moves after the best prefix.
        for &v in &moves[best_len..] {
            side[v as usize] = 1 - side[v as usize];
        }
        let before = std::mem::replace(&mut cut, best_cut.max(0) as u64);
        debug_assert_eq!(cut, cut_weight(g, side));
        if cut >= before {
            break;
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    struct Bisection {
        side: Vec<u8>,
        cut: u64,
    }

    /// Weight on side 0.
    fn side0_weight(g: &CsrGraph, side: &[u8]) -> u64 {
        (0..g.num_vertices())
            .filter(|&v| side[v] == 0)
            .map(|v| g.vwgt[v] as u64)
            .sum()
    }

    /// `initial_bisection` with `tries` tries drawn from `seed`.
    fn bisect(g: &CsrGraph, balance: (u64, u64), tries: usize, seed: u64) -> Bisection {
        let opts = PartitionOptions {
            init_tries: tries,
            seed: seed ^ 0x9e37,
            ..Default::default()
        };
        let (side, cut) = initial_bisection(g, balance, &opts, &mut Workspace::default());
        Bisection { side, cut }
    }

    impl GainQueue {
        /// Bytes of storage held (vectors never shrink: the high-water mark).
        pub(crate) fn bytes(&self) -> usize {
            8 * self.bits.capacity()
                + 16 * self.dir.capacity()
                + 4 * (self.len.capacity() + self.free.capacity())
        }
    }

    /// 10 000 random operations against the ordered-set model the queue's
    /// contract names: the same maximum after every one of them.
    #[test]
    fn queue_agrees_with_an_ordered_set() {
        const N: usize = 300;
        let mut rng = StdRng::seed_from_u64(0x9a1e);
        let mut queue = GainQueue::default();
        let mut model: BTreeSet<(i64, u32)> = BTreeSet::new();
        let mut gain = [None::<i64>; N];
        queue.reset(N);
        for step in 0..10_000 {
            let v = rng.random_range(0..N as u32);
            // A narrow band (shared buckets) with rare far outliers.
            let fresh = if rng.random_range(0..10u32) == 0 {
                rng.random_range(-(1i64 << 40)..1i64 << 40)
            } else {
                rng.random_range(-6i64..7)
            };
            match (gain[v as usize], rng.random_range(0..3u32)) {
                (None, _) => {
                    queue.insert(fresh, v);
                    model.insert((fresh, v));
                    gain[v as usize] = Some(fresh);
                }
                (Some(old), 0) => {
                    queue.remove(old, v);
                    model.remove(&(old, v));
                    gain[v as usize] = None;
                }
                (Some(old), _) => {
                    queue.remove(old, v);
                    queue.insert(fresh, v);
                    model.remove(&(old, v));
                    model.insert((fresh, v));
                    gain[v as usize] = Some(fresh);
                }
            }
            assert_eq!(queue.peek_max(), model.last().copied(), "step {step}");
            if step % 2500 == 2499 {
                // A reset empties it and re-sizes it; the pool is reused.
                queue.reset(N);
                model.clear();
                gain = [None; N];
                assert_eq!(queue.peek_max(), None);
            }
        }
    }

    /// Two 4-cliques joined by a single bridge edge: the optimal bisection
    /// cuts exactly that bridge.
    fn two_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((3, 4)); // bridge
        CsrGraph::from_edges(8, &edges)
    }

    #[test]
    fn bisection_finds_the_bridge() {
        let g = two_cliques();
        let b = bisect(&g, (4, 1), 8, 42);
        assert_eq!(b.cut, 1, "optimal cut is the single bridge edge");
        // Each side holds one clique.
        assert_eq!(side0_weight(&g, &b.side), 4);
        assert_eq!(cut_weight(&g, &b.side), b.cut);
    }

    #[test]
    fn cut_weight_counts_each_edge_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let side = vec![0u8, 1, 0, 1];
        assert_eq!(cut_weight(&g, &side), 3);
    }

    #[test]
    fn fm_improves_a_bad_start() {
        let g = two_cliques();
        // Deliberately terrible split: alternating.
        let mut side = vec![0u8, 1, 0, 1, 0, 1, 0, 1];
        let before = cut_weight(&g, &side);
        let after = fm_refine(&g, &mut side, before, (4, 1), 8, &mut Workspace::default());
        assert!(after < before, "{after} !< {before}");
        assert_eq!(after, cut_weight(&g, &side));
        // Balance respected.
        assert!(side0_weight(&g, &side).abs_diff(4) <= 1);
    }

    #[test]
    fn fm_respects_tolerance() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut side = vec![0u8, 0, 0, 1, 1, 1];
        fm_refine(&g, &mut side, 0, (3, 0), 4, &mut Workspace::default());
        assert_eq!(side0_weight(&g, &side), 3);
    }

    #[test]
    fn grow_handles_disconnected() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let b = bisect(&g, (2, 1), 4, 1);
        assert!(side0_weight(&g, &b.side) >= 1);
        assert!(b.cut <= 2);
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        let mut g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        g.vwgt = vec![3, 1, 1, 3];
        let b = bisect(&g, (4, 1), 8, 9);
        let w0 = side0_weight(&g, &b.side);
        assert!(w0.abs_diff(4) <= 1, "w0 = {w0}");
    }

    #[test]
    fn singleton_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let b = bisect(&g, (1, 0), 2, 0);
        assert_eq!(b.cut, 0);
    }
}
