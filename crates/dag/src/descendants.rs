//! Descendant counting — the priority of Plimpton et al. used in §5.2.
//!
//! Two implementations:
//!
//! * [`descendant_counts_exact`] — the true number of *distinct* nodes
//!   reachable from each node, computed with chunked bitsets in reverse
//!   layer order. Memory is `O(n · chunk/8)` per pass and
//!   `⌈n/chunk⌉` passes are made, so even 100k-node DAGs fit comfortably.
//! * [`descendant_counts_approx`] — the cheap bottom-up recurrence
//!   `d(v) = Σ_{w ∈ succ(v)} (1 + d(w))` (saturating), which counts
//!   *paths* rather than nodes and therefore overcounts shared
//!   descendants. This is what large transport codes actually use as a
//!   priority, and it only needs one linear pass.
//!
//! The approximate count dominates the exact one (every descendant is
//! reached by at least one path), which the tests verify. Both walk the
//! stored layers deepest first (one counting pass, no topological sort).

use crate::graph::TaskDag;
use crate::levels::layers;

/// Number of target nodes processed per exact-counting pass.
const CHUNK_BITS: usize = 4096;

/// Exact number of distinct descendants (excluding the node itself).
///
/// # Panics
/// Panics with "levels require an acyclic graph" if the graph is cyclic.
pub fn descendant_counts_exact(dag: &TaskDag) -> Vec<u64> {
    let n = dag.num_nodes();
    let order = layers(dag).adj;
    let mut counts = vec![0u64; n];
    if n == 0 {
        return counts;
    }
    let words = CHUNK_BITS / 64;
    // reach[v] = bitset over the current chunk of target nodes.
    let mut reach: Vec<u64> = vec![0; n * words];
    for chunk_start in (0..n).step_by(CHUNK_BITS) {
        let chunk_end = (chunk_start + CHUNK_BITS).min(n);
        reach.iter_mut().for_each(|w| *w = 0);
        // Deepest layer first: successors are finalized before
        // predecessors.
        for &v in order.iter().rev() {
            let vi = v as usize;
            // Union of successor sets, plus the successor's own bit when it
            // falls inside the chunk.
            // (Split borrows via split_at_mut-free manual indexing.)
            for &w in dag.successors(v) {
                let wi = w as usize;
                for b in 0..words {
                    let val = reach[wi * words + b];
                    reach[vi * words + b] |= val;
                }
                if (chunk_start..chunk_end).contains(&wi) {
                    let bit = wi - chunk_start;
                    reach[vi * words + bit / 64] |= 1u64 << (bit % 64);
                }
            }
            let mut c = 0u32;
            for b in 0..words {
                c += reach[vi * words + b].count_ones();
            }
            counts[vi] += c as u64;
        }
    }
    counts
}

/// Approximate descendant count: the saturating number of downward *paths*,
/// `d(v) = Σ_{w ∈ succ(v)} (1 + d(w))`. Upper-bounds the exact count.
///
/// # Panics
/// Panics with "levels require an acyclic graph" if the graph is cyclic.
pub fn descendant_counts_approx(dag: &TaskDag) -> Vec<u64> {
    let mut d = vec![0u64; dag.num_nodes()];
    for &v in layers(dag).adj.iter().rev() {
        let mut acc = 0u64;
        for &w in dag.successors(v) {
            acc = acc.saturating_add(1).saturating_add(d[w as usize]);
        }
        d[v as usize] = acc;
    }
    d
}

/// Strategy for descendant-based priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DescendantMode {
    /// Exact distinct-descendant counts (chunked bitsets).
    Exact,
    /// Path-count upper bound (single pass) — the production default.
    #[default]
    Approximate,
}

/// Dispatches on [`DescendantMode`].
pub fn descendant_counts(dag: &TaskDag, mode: DescendantMode) -> Vec<u64> {
    match mode {
        DescendantMode::Exact => descendant_counts_exact(dag),
        DescendantMode::Approximate => descendant_counts_approx(dag),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepInstance;

    /// [`descendant_counts_exact`] as it walked before the stored layers:
    /// a fresh Kahn order, reversed.
    fn exact_reference(dag: &TaskDag) -> Vec<u64> {
        let n = dag.num_nodes();
        let order = dag.topo_order().expect("descendant counts require a DAG");
        let mut counts = vec![0u64; n];
        if n == 0 {
            return counts;
        }
        let words = CHUNK_BITS / 64;
        let mut reach: Vec<u64> = vec![0; n * words];
        for chunk_start in (0..n).step_by(CHUNK_BITS) {
            let chunk_end = (chunk_start + CHUNK_BITS).min(n);
            reach.iter_mut().for_each(|w| *w = 0);
            for &v in order.iter().rev() {
                let vi = v as usize;
                for &w in dag.successors(v) {
                    let wi = w as usize;
                    for b in 0..words {
                        let val = reach[wi * words + b];
                        reach[vi * words + b] |= val;
                    }
                    if (chunk_start..chunk_end).contains(&wi) {
                        let bit = wi - chunk_start;
                        reach[vi * words + bit / 64] |= 1u64 << (bit % 64);
                    }
                }
                let c: u32 = (0..words).map(|b| reach[vi * words + b].count_ones()).sum();
                counts[vi] += c as u64;
            }
        }
        counts
    }

    /// [`descendant_counts_approx`] on a fresh Kahn order, reversed.
    fn approx_reference(dag: &TaskDag) -> Vec<u64> {
        let order = dag.topo_order().expect("descendant counts require a DAG");
        let mut d = vec![0u64; dag.num_nodes()];
        for &v in order.iter().rev() {
            let mut acc = 0u64;
            for &w in dag.successors(v) {
                acc = acc.saturating_add(1).saturating_add(d[w as usize]);
            }
            d[v as usize] = acc;
        }
        d
    }

    /// Chains, edgeless, one-cell, empty, random, tetonly and the cyclic
    /// `warped.msh` (after cycle breaking) instances.
    fn reference_instances() -> Vec<SweepInstance> {
        let quad = |sn| sweep_quadrature::QuadratureSet::level_symmetric(sn).unwrap();
        let tetonly = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.01).unwrap();
        let bytes = include_bytes!("../../../examples/meshes/warped.msh");
        let warped = sweep_mesh::import_bytes(bytes, sweep_mesh::ImportFormat::Msh).unwrap();
        let (warped, stats) = SweepInstance::from_mesh(&warped.mesh, &quad(4), "warped");
        assert!(
            stats.iter().any(|s| s.dropped_edges > 0),
            "warped.msh is cyclic"
        );
        vec![
            SweepInstance::identical_chains(17, 5),
            SweepInstance::new(9, vec![TaskDag::edgeless(9); 3], "edgeless"),
            SweepInstance::new(1, vec![TaskDag::edgeless(1); 4], "one cell"),
            SweepInstance::new(0, vec![TaskDag::edgeless(0)], "empty"),
            SweepInstance::random_layered(130, 3, 9, 3, 8),
            SweepInstance::from_mesh(&tetonly, &quad(2), "tetonly").0,
            warped,
        ]
    }

    #[test]
    fn layer_walks_match_the_kahn_order_references() {
        for inst in reference_instances() {
            for (i, dag) in inst.dags().iter().enumerate() {
                let what = format!("{} direction {i}", inst.name());
                assert_eq!(descendant_counts_exact(dag), exact_reference(dag), "{what}");
                assert_eq!(
                    descendant_counts_approx(dag),
                    approx_reference(dag),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn cyclic_graphs_panic_with_the_levels_message() {
        let cyclic = TaskDag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        for count in [descendant_counts_exact, descendant_counts_approx] {
            let panic = std::panic::catch_unwind(|| count(&cyclic)).unwrap_err();
            let message = *panic.downcast::<&str>().unwrap();
            assert_eq!(message, "levels require an acyclic graph");
        }
    }

    fn diamond() -> TaskDag {
        TaskDag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn exact_counts_on_diamond() {
        // 0 reaches {1,2,3}=3; 1 and 2 reach {3}=1; 3 reaches nothing.
        assert_eq!(descendant_counts_exact(&diamond()), vec![3, 1, 1, 0]);
    }

    #[test]
    fn approx_overcounts_shared_descendants() {
        // Paths from 0: 0->1, 0->2, 0->1->3, 0->2->3 = 4 paths.
        assert_eq!(descendant_counts_approx(&diamond()), vec![4, 1, 1, 0]);
    }

    #[test]
    fn approx_dominates_exact() {
        let g = TaskDag::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        );
        let ex = descendant_counts_exact(&g);
        let ap = descendant_counts_approx(&g);
        for v in 0..7 {
            assert!(
                ap[v] >= ex[v],
                "node {v}: approx {} < exact {}",
                ap[v],
                ex[v]
            );
        }
    }

    #[test]
    fn chain_counts() {
        let g = TaskDag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let want = vec![4, 3, 2, 1, 0];
        assert_eq!(descendant_counts_exact(&g), want);
        assert_eq!(descendant_counts_approx(&g), want); // chains have no sharing
    }

    #[test]
    fn edgeless_counts_are_zero() {
        let g = TaskDag::edgeless(6);
        assert_eq!(descendant_counts_exact(&g), vec![0; 6]);
        assert_eq!(descendant_counts_approx(&g), vec![0; 6]);
    }

    #[test]
    fn exact_crosses_chunk_boundaries() {
        // A chain longer than one chunk would be slow to build here; instead
        // exercise multiple chunks with a wide two-level graph larger than
        // CHUNK_BITS: one root pointing at many sinks.
        let n = CHUNK_BITS + 100;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let g = TaskDag::from_edges(n, &edges);
        let c = descendant_counts_exact(&g);
        assert_eq!(c[0], (n - 1) as u64);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn saturating_behaviour_on_exponential_paths() {
        // A ladder of diamonds has 2^depth paths; with depth 70 the path
        // count overflows u64 and must saturate rather than wrap.
        let depth = 70usize;
        let n = 2 * depth + 1;
        let mut edges = Vec::new();
        // node layout: 0 -(two parallel nodes)-> ... -> last
        for d in 0..depth {
            let top = (2 * d) as u32;
            let a = (2 * d + 1) as u32;
            let b = (2 * d + 2) as u32;
            // a is the "parallel" node, b the next junction
            edges.push((top, a));
            edges.push((a, b));
            edges.push((top, b));
        }
        let g = TaskDag::from_edges(n, &edges);
        let ap = descendant_counts_approx(&g);
        assert!(
            ap[0] >= u64::MAX / 2,
            "expected near-saturation, got {}",
            ap[0]
        );
        let ex = descendant_counts_exact(&g);
        assert_eq!(ex[0], (n - 1) as u64);
    }

    #[test]
    fn mode_dispatch() {
        let g = diamond();
        assert_eq!(
            descendant_counts(&g, DescendantMode::Exact),
            vec![3, 1, 1, 0]
        );
        assert_eq!(
            descendant_counts(&g, DescendantMode::Approximate),
            vec![4, 1, 1, 0]
        );
        assert_eq!(DescendantMode::default(), DescendantMode::Approximate);
    }
}
