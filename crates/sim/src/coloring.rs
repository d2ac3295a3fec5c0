//! Greedy edge coloring of per-step message graphs.
//!
//! The paper (§5) notes that realizing the C2 communication measure
//! requires coordination, "one way this can be done in a distributed
//! manner is to use an edge coloring algorithm \[11\]". Messages exchanged
//! after one computation step form a multigraph over processors; a proper
//! edge coloring groups them into rounds in which every processor sends
//! and receives at most one message. Greedy coloring uses at most
//! `2Δ − 1` colors (Δ = max degree), within 2× of the optimum (≥ Δ).
//! [`coloring_rounds`] sums those rounds over a schedule's steps: the
//! one communication measure a schedule's certificate does not carry.

use sweep_core::Schedule;
use sweep_dag::{SweepInstance, TaskId};

/// The communication rounds of `schedule` when every step's messages are
/// delivered in edge-colored rounds: the sum over steps of the colors
/// [`color_edges`] gives the step's message multigraph. A message is one
/// cut edge, sent at its source task's step. A round delivers at most one
/// message per sender, so the sum is at least the schedule's C2.
pub fn coloring_rounds(instance: &SweepInstance, schedule: &Schedule) -> u64 {
    let n = instance.num_cells();
    let mut per_step: Vec<Vec<(u32, u32)>> = vec![Vec::new(); schedule.makespan() as usize];
    for (i, dag) in instance.dags().iter().enumerate() {
        for (u, v) in dag.edges() {
            let (pu, pv) = (schedule.proc_of_cell(u), schedule.proc_of_cell(v));
            if pu != pv {
                let t = schedule.start_of(TaskId::pack(u, i as u32, n));
                per_step[t as usize].push((pu, pv));
            }
        }
    }
    per_step
        .iter()
        .filter(|msgs| !msgs.is_empty())
        .map(|msgs| color_edges(schedule.num_procs(), msgs).1 as u64)
        .sum()
}

/// Colors the edges of a multigraph over `m` vertices so that edges
/// sharing an endpoint get distinct colors. Returns `(color_per_edge,
/// num_colors)`; self-loops are rejected.
///
/// # Panics
/// Panics on out-of-range endpoints or self-loops.
pub fn color_edges(m: usize, edges: &[(u32, u32)]) -> (Vec<u32>, usize) {
    for &(a, b) in edges {
        assert!(
            (a as usize) < m && (b as usize) < m,
            "endpoint out of range"
        );
        assert_ne!(a, b, "processors do not message themselves");
    }
    // used[v] holds a bitmask of colors taken at vertex v (chunked u64s).
    let mut used: Vec<Vec<u64>> = vec![Vec::new(); m];
    let mut colors = vec![0u32; edges.len()];
    let mut num_colors = 0usize;
    for (e, &(a, b)) in edges.iter().enumerate() {
        // Smallest color free at both endpoints.
        let c = smallest_free_color(&used[a as usize], &used[b as usize]);
        set_bit(&mut used[a as usize], c);
        set_bit(&mut used[b as usize], c);
        colors[e] = c;
        num_colors = num_colors.max(c as usize + 1);
    }
    (colors, num_colors)
}

fn smallest_free_color(a: &[u64], b: &[u64]) -> u32 {
    let words = a.len().max(b.len()) + 1;
    for w in 0..words {
        let aw = a.get(w).copied().unwrap_or(0);
        let bw = b.get(w).copied().unwrap_or(0);
        let free = !(aw | bw);
        if free != 0 {
            return (w * 64) as u32 + free.trailing_zeros();
        }
    }
    unreachable!("a free color always exists within words+1")
}

fn set_bit(bits: &mut Vec<u64>, c: u32) {
    let w = (c / 64) as usize;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1u64 << (c % 64);
}

/// Verifies a proper edge coloring (used by tests and debug assertions).
pub fn is_proper_coloring(m: usize, edges: &[(u32, u32)], colors: &[u32]) -> bool {
    use std::collections::HashSet;
    let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); m];
    for (&(a, b), &c) in edges.iter().zip(colors) {
        if !seen[a as usize].insert(c) || !seen[b as usize].insert(c) {
            return false;
        }
    }
    true
}

/// Maximum vertex degree of the message multigraph — the lower bound on
/// the number of rounds (and exactly the per-step C2 contribution when
/// only sends are counted).
pub fn max_degree(m: usize, edges: &[(u32, u32)]) -> usize {
    let mut deg = vec![0usize; m];
    for &(a, b) in edges {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    deg.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{certify, greedy_schedule, Assignment};

    #[test]
    fn coloring_rounds_at_least_max_send() {
        // Each color round delivers ≤ 1 message per sender, so the number
        // of rounds is ≥ the busiest sender's load at that step.
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 7);
        let s = greedy_schedule(&inst, Assignment::random_cells(60, 6, 0xf07));
        let c2 = certify(&inst, &s).c2;
        assert!(c2 > 0);
        assert!(coloring_rounds(&inst, &s) >= c2);
    }

    #[test]
    fn single_processor_has_no_messages() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 3);
        let s = greedy_schedule(&inst, Assignment::single(40));
        assert_eq!(coloring_rounds(&inst, &s), 0);
    }

    #[test]
    fn colors_triangle_with_three() {
        let edges = [(0u32, 1u32), (1, 2), (0, 2)];
        let (colors, nc) = color_edges(3, &edges);
        assert!(is_proper_coloring(3, &edges, &colors));
        assert_eq!(nc, 3); // odd cycle needs Δ+1 = 3
    }

    #[test]
    fn colors_star_with_degree() {
        let edges: Vec<(u32, u32)> = (1..6u32).map(|v| (0, v)).collect();
        let (colors, nc) = color_edges(6, &edges);
        assert!(is_proper_coloring(6, &edges, &colors));
        assert_eq!(nc, 5); // star: exactly Δ colors
        assert_eq!(max_degree(6, &edges), 5);
    }

    #[test]
    fn parallel_edges_get_distinct_colors() {
        let edges = [(0u32, 1u32), (0, 1), (0, 1)];
        let (colors, nc) = color_edges(2, &edges);
        assert_eq!(nc, 3);
        let mut c = colors.clone();
        c.sort_unstable();
        c.dedup();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn greedy_within_two_delta() {
        // Random multigraph sanity: colors ≤ 2Δ - 1.
        let mut edges = Vec::new();
        let mut x: u64 = 12345;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((x >> 33) % 16) as u32;
            let b = ((x >> 13) % 16) as u32;
            if a != b {
                edges.push((a, b));
            }
        }
        let (colors, nc) = color_edges(16, &edges);
        assert!(is_proper_coloring(16, &edges, &colors));
        let delta = max_degree(16, &edges);
        assert!(nc < 2 * delta, "{nc} > 2·{delta}−1");
        assert!(nc >= delta);
    }

    #[test]
    fn empty_graph_needs_no_colors() {
        let (colors, nc) = color_edges(4, &[]);
        assert!(colors.is_empty());
        assert_eq!(nc, 0);
        assert_eq!(max_degree(4, &[]), 0);
    }

    #[test]
    #[should_panic(expected = "do not message themselves")]
    fn self_loop_panics() {
        color_edges(2, &[(1, 1)]);
    }

    #[test]
    fn many_colors_cross_word_boundary() {
        // Force > 64 colors via 70 parallel edges.
        let edges: Vec<(u32, u32)> = (0..70).map(|_| (0u32, 1u32)).collect();
        let (colors, nc) = color_edges(2, &edges);
        assert_eq!(nc, 70);
        assert!(is_proper_coloring(2, &edges, &colors));
    }
}
