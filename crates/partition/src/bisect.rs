//! Graph bisection: greedy region growing followed by Fiduccia–Mattheyses
//! (FM) boundary refinement. Used on the coarsest graph and re-applied
//! during uncoarsening by the multilevel driver.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::csr::CsrGraph;
use crate::multilevel::{PartitionOptions, Workspace};

/// Bitset words the window of a [`GainQueue`] may hold between all its
/// buckets: 64 KiB, whatever the graph.
const WINDOW_WORDS: usize = 8192;

/// An exact max-priority queue of `(gain, vertex)`, a vertex held at most
/// once: `peek_max` is the argmax of `(gain, vertex id)` over what is
/// queued. Keys are distinct per vertex, so any queue with this contract
/// pops the one sequence FM and region growing are defined by.
///
/// Every gain owns a bucket: a `⌈n/64⌉`-word bitset over vertex ids and a
/// hint below which its highest set word lies. Gains in the *window*
/// `lo..lo + span` index their bucket directly, slot `gain − lo`, so
/// insert and remove are one bit and peek finds the top live slot in a
/// bitset of slots. [`reset`](Self::reset) centres the window on zero and
/// sizes it to `2 · reach` slots, but never past [`WINDOW_WORDS`] words
/// of bitsets. Gains outside the window go to a sorted directory of the
/// live ones, each owning a pooled bitset: `min(distinct gains, n) · n / 8`
/// bytes, whatever the edge weights are. The window is only a fast path;
/// which gain lands where never changes what `peek_max` returns.
#[derive(Debug, Default)]
pub(crate) struct GainQueue {
    /// Words per bitset for the graph in hand.
    words: usize,
    /// The window's first gain and its slot count.
    lo: i64,
    span: usize,
    /// Slot `s` owns `win[s * words..][..words]`; all zero unless live.
    win: Vec<u64>,
    /// Vertices queued per slot, and the top-word hint per live slot.
    win_len: Vec<u32>,
    win_top: Vec<u32>,
    /// Bit `s` is set iff slot `s` is live; no word above `live_top` is
    /// non-zero.
    live: Vec<u64>,
    live_top: usize,
    /// `(gain, slot, top)` per live gain outside the window, ascending by
    /// gain; no word of the slot's bitset above index `top` is non-zero.
    dir: Vec<(i64, u32, u32)>,
    /// Slot `s` owns `bits[s * words..][..words]`; all zero unless live.
    bits: Vec<u64>,
    /// Vertices queued per slot.
    len: Vec<u32>,
    /// Slots handed back empty.
    free: Vec<u32>,
}

/// The highest vertex in a non-empty bitset, lowering its top-word hint to
/// the word that holds it.
fn highest(set: &[u64], top: &mut u32) -> u32 {
    while set[*top as usize] == 0 {
        *top -= 1;
    }
    *top * 64 + 63 - set[*top as usize].leading_zeros()
}

impl GainQueue {
    /// Empties the queue and sizes it for vertex ids `< n`, its window for
    /// gains in `−reach..reach` (narrower when that would pass
    /// [`WINDOW_WORDS`]).
    pub(crate) fn reset(&mut self, n: usize, reach: u64) {
        let live_words = self.live.len().min(self.live_top + 1);
        for w in 0..live_words {
            let mut word = std::mem::take(&mut self.live[w]);
            while word != 0 {
                let s = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let top = self.win_top[s] as usize;
                self.win[s * self.words..][..=top].fill(0);
                self.win_len[s] = 0;
            }
        }
        for &(_, s, _) in &self.dir {
            self.bits[s as usize * self.words..][..self.words].fill(0);
        }
        self.dir.clear();
        self.len.clear();
        self.free.clear();
        self.words = n.div_ceil(64);
        let cap = WINDOW_WORDS / self.words.max(1);
        self.span = reach.saturating_mul(2).min(cap as u64) as usize;
        self.lo = -(self.span as i64 / 2);
        let need = self.span * self.words;
        self.win.resize(need.max(self.win.len()), 0);
        self.win_len.resize(self.span.max(self.win_len.len()), 0);
        self.win_top.resize(self.span.max(self.win_top.len()), 0);
        self.live
            .resize(self.span.div_ceil(64).max(self.live.len()), 0);
        self.live_top = 0;
    }

    /// The window slot of `gain`, if it has one.
    fn slot(&self, gain: i64) -> Option<usize> {
        let s = gain.wrapping_sub(self.lo) as u64;
        (s < self.span as u64).then_some(s as usize)
    }

    /// Queues `v`, which must not be queued, at `gain`.
    pub(crate) fn insert(&mut self, gain: i64, v: u32) {
        let Some(s) = self.slot(gain) else {
            return self.insert_outside(gain, v);
        };
        let word = v / 64;
        if self.win_len[s] == 0 {
            self.live[s / 64] |= 1 << (s % 64);
            self.live_top = self.live_top.max(s / 64);
            self.win_top[s] = word;
        } else {
            self.win_top[s] = self.win_top[s].max(word);
        }
        self.win[s * self.words + word as usize] |= 1 << (v % 64);
        self.win_len[s] += 1;
    }

    /// Removes `v`, which must be queued at `gain`.
    pub(crate) fn remove(&mut self, gain: i64, v: u32) {
        let Some(s) = self.slot(gain) else {
            return self.remove_outside(gain, v);
        };
        self.win[s * self.words + v as usize / 64] &= !(1 << (v % 64));
        self.win_len[s] -= 1;
        if self.win_len[s] == 0 {
            self.live[s / 64] &= !(1 << (s % 64));
        }
    }

    /// The queued `(gain, vertex)` that is largest in that order.
    pub(crate) fn peek_max(&mut self) -> Option<(i64, u32)> {
        let above = self.lo + self.span as i64;
        if self.dir.last().is_none_or(|e| e.0 < above) {
            while self.live_top > 0 && self.live[self.live_top] == 0 {
                self.live_top -= 1;
            }
            if let Some(&word) = self.live.get(self.live_top).filter(|&&w| w != 0) {
                let s = self.live_top * 64 + 63 - word.leading_zeros() as usize;
                let set = &self.win[s * self.words..][..self.words];
                let id = highest(set, &mut self.win_top[s]);
                return Some((self.lo + s as i64, id));
            }
        }
        let (gain, s, top) = self.dir.last_mut()?;
        let set = &self.bits[*s as usize * self.words..][..self.words];
        Some((*gain, highest(set, top)))
    }

    /// [`insert`](Self::insert) for a gain outside the window.
    fn insert_outside(&mut self, gain: i64, v: u32) {
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

    /// [`remove`](Self::remove) for a gain outside the window.
    fn remove_outside(&mut self, gain: i64, v: u32) {
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
}

/// How far from zero a gain on `g` can get: FM gains lie in `±d(v)` and
/// region-growing gains in `0..=2·d(v)`, `d` the weighted degree, so every
/// one is inside `−reach..reach`.
fn gain_reach(g: &CsrGraph) -> u64 {
    let wdeg = |v| g.neighbors(v).map(|(_, w)| u64::from(w)).sum::<u64>();
    let max = (0..g.num_vertices() as u32).map(wdeg).max().unwrap_or(0);
    2 * max + 1
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
/// `target0`. `reach` is [`gain_reach`] of `g`.
fn grow_from(
    g: &CsrGraph,
    seed: u32,
    reach: u64,
    target0: u64,
    side: &mut Vec<u8>,
    ws: &mut Workspace,
) {
    let n = g.num_vertices();
    let q = &mut ws.queues[0];
    let queued = &mut ws.locked; // ever queued, not FM's lock
    side.clear();
    side.resize(n, 1);
    ws.gain.clear();
    ws.gain.resize(n, 0);
    queued.clear();
    queued.resize(n, false);
    q.reset(n, reach);
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
    let reach = gain_reach(g);
    for _ in 0..opts.init_tries.max(1) {
        let s = rng.random_range(0..n as u32);
        grow_from(g, s, reach, target0, &mut side, ws);
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
        // unlocked vertices, its window reaching past every `±d(v)`.
        let (mut w0, mut max_wdeg) = (0u64, 0u64);
        gain.clear();
        gain.resize(n, 0);
        for v in 0..n {
            let mut wdeg = 0u64;
            for (u, w) in g.neighbors(v as u32) {
                let crosses = side[v] != side[u as usize];
                gain[v] += if crosses { w as i64 } else { -(w as i64) };
                wdeg += u64::from(w);
            }
            max_wdeg = max_wdeg.max(wdeg);
            w0 += (1 - side[v] as u64) * g.vwgt[v] as u64;
        }
        queues.iter_mut().for_each(|q| q.reset(n, max_wdeg + 1));
        for v in 0..n {
            queues[side[v] as usize].insert(gain[v], v as u32);
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
        /// Bytes of storage held, window and directory (vectors never
        /// shrink: the high-water mark).
        pub(crate) fn bytes(&self) -> usize {
            8 * (self.win.capacity() + self.live.capacity() + self.bits.capacity())
                + 4 * (self.win_len.capacity() + self.win_top.capacity())
                + 16 * self.dir.capacity()
                + 4 * (self.len.capacity() + self.free.capacity())
        }
    }

    /// 10 000 random operations against the ordered-set model the queue's
    /// contract names, at every window shape: none (all outside), one the
    /// gain band straddles at both edges, one holding the band, and one
    /// cut down to [`WINDOW_WORDS`]. The same maximum after every
    /// operation. One queue serves every shape, each reset finding it
    /// non-empty.
    #[test]
    fn queue_agrees_with_an_ordered_set() {
        const N: usize = 300;
        let mut queue = GainQueue::default();
        for reach in [0, 3, 6, 1 << 20] {
            let mut rng = StdRng::seed_from_u64(0x9a1e ^ reach);
            let mut model: BTreeSet<(i64, u32)> = BTreeSet::new();
            let mut gain = [None::<i64>; N];
            queue.reset(N, reach);
            let (lo, span) = (queue.lo, queue.span as i64);
            assert!(queue.span * queue.words <= WINDOW_WORDS, "reach {reach}");
            assert_eq!(span, (2 * reach as i64).min(1638), "reach {reach}");
            for step in 0..10_000 {
                let v = rng.random_range(0..N as u32);
                // A narrow band (shared buckets), both window edges, and
                // rare far outliers.
                let fresh = match rng.random_range(0..20u32) {
                    0 => rng.random_range(-(1i64 << 40)..1i64 << 40),
                    1 => [lo - 1, lo, lo + span - 1, lo + span][rng.random_range(0..4usize)],
                    _ => rng.random_range(-6i64..6),
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
                let want = model.last().copied();
                assert_eq!(queue.peek_max(), want, "reach {reach} step {step}");
                if step % 2500 == 1249 {
                    // A reset empties it and re-sizes it; storage is reused.
                    queue.reset(N, reach);
                    model.clear();
                    gain = [None; N];
                    assert_eq!(queue.peek_max(), None);
                }
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
