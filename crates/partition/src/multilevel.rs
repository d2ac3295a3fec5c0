//! The multilevel k-way driver: coarsen → bisect → uncoarsen+refine,
//! applied recursively — a from-scratch stand-in for the METIS v2
//! partitioner the paper uses to form cell blocks.

use std::borrow::Cow;

use sweep_pool::ThreadPool;
use sweep_telemetry as telemetry;

use crate::bisect::{cut_weight, fm_refine, initial_bisection, GainQueue};
use crate::coarsen::coarsen_to;
use crate::csr::CsrGraph;
use crate::kway::kway_refine;

/// Tuning options for the partitioner.
#[derive(Debug, Clone)]
pub struct PartitionOptions {
    /// Stop coarsening once the graph is at most this many vertices.
    pub coarsest_size: usize,
    /// Random seeds tried for the initial bisection.
    pub init_tries: usize,
    /// FM passes per uncoarsening level.
    pub refine_passes: usize,
    /// Balance tolerance as a fraction of the (sub)graph weight.
    pub tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            coarsest_size: 64,
            init_tries: 6,
            refine_passes: 4,
            tolerance: 0.03,
            seed: 0x5eed,
        }
    }
}

/// Scratch for one thread of a [`partition`] call (the caller's, or one
/// pool worker's), threaded through every bisection that thread runs and
/// dropped on return: sized by the largest subgraph met and reused by
/// every level, pass and try after it.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// FM's queue per source side (region growing uses the first), the gain
    /// per vertex, who is locked this pass (region growing: who was ever
    /// queued) and the pass's moves in order.
    pub(crate) queues: [GainQueue; 2],
    pub(crate) gain: Vec<i64>,
    pub(crate) locked: Vec<bool>,
    pub(crate) moves: Vec<u32>,
    /// Matching: the shuffled visiting order and each vertex's partner
    /// (itself for a singleton).
    pub(crate) order: Vec<u32>,
    pub(crate) mate: Vec<u32>,
    /// The coarse rows in merge order as `(vertex, neighbour, weight)`, and
    /// where in the row being merged each coarse neighbour sits (`u32::MAX`
    /// between rows; the transpose's cursor per row after).
    pub(crate) merged: Vec<(u32, u32, u32)>,
    pub(crate) slot: Vec<u32>,
    /// Global → subgraph vertex id; `u32::MAX` between subgraphs.
    local: Vec<u32>,
}

/// Multilevel bisection of `g` with side-0 target weight `target0`.
/// Returns the side per vertex.
fn multilevel_bisect(
    g: &CsrGraph,
    target0: u64,
    opts: &PartitionOptions,
    ws: &mut Workspace,
) -> Vec<u8> {
    let total = g.total_vwgt();
    let max_vwgt = g.vwgt.iter().copied().max().unwrap_or(1) as u64;
    let tol = ((total as f64 * opts.tolerance) as u64).max(max_vwgt);

    // hierarchy[i] coarsens graph_i into graph_{i+1}, with graph_0 = g and
    // graph_{i+1} = hierarchy[i].graph.
    let hierarchy = {
        let _span = telemetry::span!("partition.coarsen");
        coarsen_to(g, opts.coarsest_size, opts.seed, ws)
    };
    let coarsest: &CsrGraph = hierarchy.last().map(|c| &c.graph).unwrap_or(g);
    let (mut side, mut cut) = {
        let _span = telemetry::span!("partition.initial_bisection");
        initial_bisection(coarsest, (target0, tol), opts, ws)
    };

    // Project back through the hierarchy, refining at every level.
    let _span = telemetry::span!("partition.refine");
    let mut coarse_side = Vec::new();
    for i in (0..hierarchy.len()).rev() {
        std::mem::swap(&mut side, &mut coarse_side);
        side.clear();
        side.extend(hierarchy[i].map.iter().map(|&c| coarse_side[c as usize]));
        let fine: &CsrGraph = if i == 0 { g } else { &hierarchy[i - 1].graph };
        cut = fm_refine(fine, &mut side, cut, (target0, tol), opts.refine_passes, ws);
    }
    if hierarchy.is_empty() {
        fm_refine(g, &mut side, cut, (target0, tol), opts.refine_passes, ws);
    }
    side
}

/// Partitions `g` into `nparts` parts of (approximately) equal vertex
/// weight by recursive multilevel bisection. Returns the part id
/// (`0..nparts`) per vertex.
///
/// The recursion runs on [`sweep_pool::global`]: the calling thread
/// bisects from the top until it holds one subtree per worker, then the
/// workers bisect the subtrees. Worker count is not an input: bisection
/// `i` of the sequential pop order is seeded `seed + i·φ64` however it is
/// run. A subtree starts at the salt it would reach if every subtree
/// popped before it bisected `parts − 1` times, which is exact unless
/// some subset had no more vertices than parts. After the fan-out the
/// subtrees are walked in pop order, and one whose guess was wrong is
/// bisected again, on the calling thread, from its true salt.
///
/// # Panics
/// Panics when `nparts == 0`, or when the total vertex weight or the total
/// edge weight (the sum of `ewgt`, each edge counted from both ends) does
/// not fit `u32`: coarsening sums weights in `u32`, and these two totals
/// bound every sum it forms.
pub fn partition(g: &CsrGraph, nparts: usize, opts: &PartitionOptions) -> Vec<u32> {
    let _span = telemetry::span!("partition.block");
    let pool = sweep_pool::global();
    partition_in(g, nparts, opts, pool, &mut Workspace::default())
}

/// [`partition`] on `pool`; at width 1 everything runs on `ws`.
fn partition_in(
    g: &CsrGraph,
    nparts: usize,
    opts: &PartitionOptions,
    pool: ThreadPool,
    ws: &mut Workspace,
) -> Vec<u32> {
    assert!(nparts > 0, "nparts must be positive");
    let fits = |total: u64| total <= u64::from(u32::MAX);
    assert!(fits(g.total_vwgt()), "total vertex weight overflows u32");
    let total_ewgt = g.ewgt.iter().map(|&w| u64::from(w)).sum();
    assert!(fits(total_ewgt), "total edge weight overflows u32");
    let n = g.num_vertices();
    let mut part = vec![0u32; n];
    if nparts == 1 || n == 0 {
        return part;
    }
    if nparts >= n {
        // Degenerate: one vertex per part (extra parts stay empty).
        for (v, p) in part.iter_mut().enumerate() {
            *p = v as u32;
        }
        return part;
    }
    let gs = sorted_rows(g);
    let all: Vec<u32> = (0..n as u32).collect();
    let mut stack: Vec<Subtree> = vec![(all, 0, nparts as u32)];
    let mut labels = Vec::new();
    let hold = if pool.is_sequential() {
        usize::MAX
    } else {
        pool.threads()
    };
    let mut salt = bisect_down(&gs, &mut stack, hold, 0, &mut labels, opts, ws);
    // The held subtrees in pop order, each from its guessed first salt.
    let subtrees: Vec<Subtree> = stack.into_iter().rev().collect();
    let guesses: Vec<u64> = subtrees
        .iter()
        .scan(salt, |next, (_, p_lo, p_hi)| {
            let first = *next;
            *next += u64::from(p_hi - p_lo - 1);
            Some(first)
        })
        .collect();
    // One subtree to the end from `first_salt`: its labels and bisections.
    let run = |subtree: &Subtree, first_salt, ws: &mut Workspace| {
        let (stack, mut labels) = (&mut vec![subtree.clone()], Vec::new());
        let bisections = bisect_down(&gs, stack, usize::MAX, first_salt, &mut labels, opts, ws);
        (labels, bisections)
    };
    let runs = pool.par_map_scratch(subtrees.len(), Workspace::default, |i, ws| {
        run(&subtrees[i], guesses[i], ws)
    });
    for ((subtree, guess), (mut done, mut bisections)) in subtrees.iter().zip(guesses).zip(runs) {
        if guess != salt {
            (done, bisections) = run(subtree, salt, ws);
        }
        salt += bisections;
        labels.append(&mut done);
    }
    for (v, p) in labels {
        part[v as usize] = p;
    }
    // Final direct k-way pass: boundary vertices may hop between any
    // adjacent pair of parts, recovering cut quality recursive bisection
    // leaves on the table.
    kway_refine(g, &mut part, nparts, opts.tolerance.max(0.02) * 2.0, 2);
    part
}

/// An ascending vertex subset and the part-id range `p_lo..p_hi` it is
/// split among.
type Subtree = (Vec<u32>, u32, u32);

/// The bisection loop: pops `stack` and bisects what it pops, pushing the
/// two halves, until the stack is empty or holds `hold` subtrees. The
/// `i`-th bisection it runs is salted `first_salt + i`; each vertex that
/// reaches a single part goes to `labels` as `(vertex, part)`. Returns
/// how many bisections ran.
fn bisect_down(
    g: &CsrGraph,
    stack: &mut Vec<Subtree>,
    hold: usize,
    first_salt: u64,
    labels: &mut Vec<(u32, u32)>,
    opts: &PartitionOptions,
    ws: &mut Workspace,
) -> u64 {
    ws.local.resize(g.num_vertices(), u32::MAX);
    let mut salt = first_salt;
    while stack.len() < hold {
        let Some((subset, p_lo, p_hi)) = stack.pop() else {
            break;
        };
        let kparts = (p_hi - p_lo) as usize;
        if kparts == 1 {
            labels.extend(subset.iter().map(|&v| (v, p_lo)));
            continue;
        }
        if subset.len() <= kparts {
            // Fewer vertices than parts (skewed weights can starve a
            // side): one vertex per part, surplus parts stay empty.
            labels.extend(subset.iter().zip(p_lo..).map(|(&v, p)| (v, p)));
            continue;
        }
        let sub = induced_subgraph(g, &subset, &mut ws.local);
        let k0 = kparts.div_ceil(2);
        let target0 = sub.total_vwgt() * k0 as u64 / kparts as u64;
        let mut sub_opts = opts.clone();
        sub_opts.seed = opts
            .seed
            .wrapping_add(salt.wrapping_mul(0x9e3779b97f4a7c15));
        salt += 1;
        let side = multilevel_bisect(&sub, target0, &sub_opts, ws);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (local, &v) in subset.iter().enumerate() {
            if side[local] == 0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        // Guard against empty sides on adversarial inputs: steal one vertex.
        if left.is_empty() {
            left.push(right.pop().expect("non-empty subset"));
        }
        if right.is_empty() {
            right.push(left.pop().expect("non-empty subset"));
        }
        stack.push((left, p_lo, p_lo + k0 as u32));
        stack.push((right, p_lo + k0 as u32, p_hi));
    }
    salt - first_salt
}

/// Partitions into blocks of roughly `block_size` vertices (the paper's
/// block partitioning, §5.1): `nparts = ⌈n / block_size⌉`.
///
/// ```
/// use sweep_partition::{block_partition, CsrGraph, PartitionOptions, imbalance};
///
/// // A ring of 32 vertices in blocks of 8.
/// let edges: Vec<(u32, u32)> = (0..32u32).map(|v| (v, (v + 1) % 32)).collect();
/// let g = CsrGraph::from_edges(32, &edges);
/// let part = block_partition(&g, 8, &PartitionOptions::default());
/// assert_eq!(part.len(), 32);
/// assert!(imbalance(&g, &part, 4) <= 1.3);
/// ```
pub fn block_partition(g: &CsrGraph, block_size: usize, opts: &PartitionOptions) -> Vec<u32> {
    assert!(block_size > 0, "block size must be positive");
    let nparts = g.num_vertices().div_ceil(block_size).max(1);
    partition(g, nparts, opts)
}

/// `g` as the bisections need it: they read rows in neighbour-id order (the
/// matching breaks weight ties by it) and cut sub-CSRs by filtering rows.
/// The `from_*edges` builders and the mesh adjacency give strictly ascending
/// rows without self-loops; any other CSR is copied with its rows sorted,
/// parallel entries merged and self-loops dropped.
fn sorted_rows(g: &CsrGraph) -> Cow<'_, CsrGraph> {
    let n = g.num_vertices();
    let row = |v: usize| &g.adjncy[g.xadj[v] as usize..g.xadj[v + 1] as usize];
    if (0..n).all(|v| row(v).windows(2).all(|p| p[0] < p[1]) && !row(v).contains(&(v as u32))) {
        return Cow::Borrowed(g);
    }
    let mut edges: Vec<(u32, u32, u32)> = Vec::with_capacity(g.adjncy.len() / 2);
    for v in 0..n as u32 {
        edges.extend(g.neighbors(v).filter(|e| v < e.0).map(|(u, w)| (v, u, w)));
    }
    let mut sorted = CsrGraph::from_weighted_edges(n, &edges);
    sorted.vwgt.clone_from(&g.vwgt);
    Cow::Owned(sorted)
}

/// The subgraph of `g` (sorted rows) induced by the ascending `subset`,
/// vertex `subset[i]` becoming `i`: `local` is monotone over the subset, so
/// each row is the parent's row filtered, already in order. `local` is all
/// `u32::MAX` on entry and on return.
fn induced_subgraph(g: &CsrGraph, subset: &[u32], local: &mut [u32]) -> CsrGraph {
    for (i, &v) in subset.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let (mut xadj, mut adjncy, mut ewgt) = (vec![0u32], Vec::new(), Vec::new());
    for &v in subset {
        for (u, w) in g.neighbors(v) {
            let lu = local[u as usize];
            if lu != u32::MAX {
                adjncy.push(lu);
                ewgt.push(w);
            }
        }
        xadj.push(adjncy.len() as u32);
    }
    let vwgt = subset.iter().map(|&v| g.vwgt[v as usize]).collect();
    for &v in subset {
        local[v as usize] = u32::MAX;
    }
    CsrGraph {
        xadj,
        adjncy,
        vwgt,
        ewgt,
    }
}

/// Total weight of edges crossing between different parts.
pub fn edge_cut(g: &CsrGraph, part: &[u32]) -> u64 {
    cut_weight(g, part)
}

/// Maximum part weight divided by the ideal (`total/nparts`); 1.0 is
/// perfect balance.
pub fn imbalance(g: &CsrGraph, part: &[u32], nparts: usize) -> f64 {
    assert!(nparts > 0);
    let mut w = vec![0u64; nparts];
    for v in 0..g.num_vertices() {
        w[part[v] as usize] += g.vwgt[v] as u64;
    }
    let total: u64 = w.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / nparts as f64;
    w.into_iter().max().unwrap_or(0) as f64 / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Workspace {
        /// High-water storage of the two gain queues, in bytes.
        pub(crate) fn queue_bytes(&self) -> usize {
            self.queues.iter().map(GainQueue::bytes).sum()
        }
    }

    /// Inputs no mesh produces — a hub, all-distinct gains, gains far
    /// from zero, nothing to cut: ids stay in range and the queues'
    /// storage stays bounded (a bitset per *possible* gain would need
    /// 50–270 MB a side on the first three).
    #[test]
    fn adversarial_inputs_partition_within_bounded_queue_memory() {
        let star: Vec<(u32, u32, u32)> = (1..=20_000u32).map(|v| (0, v, 1)).collect();
        let path: Vec<(u32, u32, u32)> = (1..10_000u32).map(|v| (v - 1, v, v)).collect();
        let mut heavy = grid(64, 64);
        heavy.ewgt.fill(1 << 16);
        let cases = [
            ("star", CsrGraph::from_weighted_edges(20_001, &star), 8),
            ("path", CsrGraph::from_weighted_edges(10_000, &path), 8),
            ("heavy grid", heavy, 8),
            ("two vertices", CsrGraph::from_edges(2, &[(0, 1)]), 2),
            ("edgeless", CsrGraph::from_edges(1000, &[]), 8),
        ];
        for (name, g, nparts) in cases {
            let mut ws = Workspace::default();
            let o = PartitionOptions::default();
            let part = partition_in(&g, nparts, &o, ThreadPool::new(1), &mut ws);
            assert_eq!(part.len(), g.num_vertices(), "{name}");
            assert!(part.iter().all(|&p| (p as usize) < nparts), "{name}");
            let bytes = ws.queue_bytes();
            assert!(bytes < 64 << 20, "{name}: queues hold {bytes} bytes");
        }
    }

    /// Rows in arbitrary order are normalised on entry: the same parts as
    /// the sorted graph.
    #[test]
    fn unsorted_rows_partition_like_sorted_ones() {
        let g = grid(12, 9);
        let mut shuffled = g.clone();
        for v in 0..g.num_vertices() {
            shuffled.adjncy[g.xadj[v] as usize..g.xadj[v + 1] as usize].reverse();
        }
        assert!(matches!(sorted_rows(&g), Cow::Borrowed(_)));
        assert!(matches!(sorted_rows(&shuffled), Cow::Owned(_)));
        let o = PartitionOptions::default();
        assert_eq!(partition(&shuffled, 5, &o), partition(&g, 5, &o));
    }

    /// A `w × h` grid graph.
    fn grid(w: usize, h: usize) -> CsrGraph {
        let id = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        CsrGraph::from_edges(w * h, &edges)
    }

    #[test]
    fn grid_bisection_is_near_optimal() {
        // 16x16 grid: optimal 2-way cut is 16.
        let g = grid(16, 16);
        let part = partition(&g, 2, &PartitionOptions::default());
        let cut = edge_cut(&g, &part);
        assert!(cut <= 24, "cut {cut} too far above optimal 16");
        assert!(imbalance(&g, &part, 2) <= 1.1);
    }

    #[test]
    fn four_way_grid_partition() {
        let g = grid(16, 16);
        let part = partition(&g, 4, &PartitionOptions::default());
        assert_eq!(*part.iter().max().unwrap(), 3);
        let cut = edge_cut(&g, &part);
        // Optimal 4-way cut of a 16x16 grid is 32 (two straight cuts).
        assert!(cut <= 56, "cut {cut}");
        assert!(
            imbalance(&g, &part, 4) <= 1.15,
            "{}",
            imbalance(&g, &part, 4)
        );
    }

    #[test]
    fn nonpow2_parts_are_balanced() {
        let g = grid(15, 14); // 210 vertices, 7 parts of 30
        let part = partition(&g, 7, &PartitionOptions::default());
        let used: std::collections::HashSet<u32> = part.iter().copied().collect();
        assert_eq!(used.len(), 7);
        assert!(
            imbalance(&g, &part, 7) <= 1.25,
            "{}",
            imbalance(&g, &part, 7)
        );
    }

    #[test]
    fn block_partition_sizes() {
        let g = grid(20, 10); // 200 vertices
        let part = block_partition(&g, 25, &PartitionOptions::default());
        let nparts = 200usize.div_ceil(25);
        let mut sizes = vec![0usize; nparts];
        for &p in &part {
            sizes[p as usize] += 1;
        }
        for (i, s) in sizes.iter().enumerate() {
            assert!(*s > 0, "part {i} empty");
            assert!(*s <= 25 + 13, "part {i} oversized: {s}");
        }
    }

    #[test]
    fn one_part_is_identity() {
        let g = grid(4, 4);
        let part = partition(&g, 1, &PartitionOptions::default());
        assert!(part.iter().all(|&p| p == 0));
        assert_eq!(edge_cut(&g, &part), 0);
    }

    #[test]
    fn nparts_ge_n_gives_singletons() {
        let g = grid(2, 2);
        let part = partition(&g, 10, &PartitionOptions::default());
        let mut sorted = part.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(12, 12);
        let o = PartitionOptions::default();
        assert_eq!(partition(&g, 4, &o), partition(&g, 4, &o));
    }

    #[test]
    fn bigger_blocks_cut_less() {
        // The paper's §5.1 observation: increasing block size decreases C1.
        let g = grid(24, 24);
        let o = PartitionOptions::default();
        let cut_small = edge_cut(&g, &block_partition(&g, 4, &o));
        let cut_big = edge_cut(&g, &block_partition(&g, 64, &o));
        assert!(
            cut_big < cut_small,
            "expected fewer cut edges with bigger blocks: {cut_big} vs {cut_small}"
        );
    }

    #[test]
    fn disconnected_graph_partitions() {
        let g = CsrGraph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let part = partition(&g, 4, &PartitionOptions::default());
        assert!(imbalance(&g, &part, 4) <= 1.01);
        assert_eq!(edge_cut(&g, &part), 0);
    }

    /// A 4-cycle, which coarsens to two pairs: each pair's weight, and the
    /// two cycle edges joining the pairs, sum to `2 · w`, past `u32::MAX`
    /// at `w = 2³¹`.
    fn heavy_cycle(vwgt: u32, ewgt: u32) -> CsrGraph {
        let cycle = [(0, 1, ewgt), (1, 2, ewgt), (2, 3, ewgt), (0, 3, ewgt)];
        let mut g = CsrGraph::from_weighted_edges(4, &cycle);
        g.vwgt.fill(vwgt);
        g
    }

    #[test]
    #[should_panic(expected = "total vertex weight overflows u32")]
    fn vertex_weights_past_u32_are_rejected() {
        let o = PartitionOptions {
            coarsest_size: 2,
            ..Default::default()
        };
        partition(&heavy_cycle(1 << 31, 1), 2, &o);
    }

    #[test]
    #[should_panic(expected = "total edge weight overflows u32")]
    fn edge_weights_past_u32_are_rejected() {
        let o = PartitionOptions {
            coarsest_size: 2,
            ..Default::default()
        };
        partition(&heavy_cycle(1, 1 << 31), 2, &o);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parts_panics() {
        partition(&grid(2, 2), 0, &PartitionOptions::default());
    }

    #[test]
    fn imbalance_of_perfect_split() {
        let g = grid(4, 2);
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert!((imbalance(&g, &part, 2) - 1.0).abs() < 1e-12);
    }
}
