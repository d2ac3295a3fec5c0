//! Heavy-edge-matching coarsening — the first phase of the multilevel
//! partitioner.
//!
//! Vertices are visited in random order; each unmatched vertex merges with
//! its unmatched neighbour of maximum edge weight (heaviest edge), or stays
//! a singleton. The coarse graph sums vertex weights and merges parallel
//! edges, so the edge cut of any coarse partition equals the cut of its
//! projection to the fine graph — the invariant that makes the multilevel
//! scheme sound.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::csr::CsrGraph;
use crate::multilevel::Workspace;

/// One coarsening step: the coarse graph and the fine→coarse vertex map.
#[derive(Debug)]
pub(crate) struct Coarsening {
    /// The coarser graph.
    pub(crate) graph: CsrGraph,
    /// `map[v_fine] = v_coarse`.
    pub(crate) map: Vec<u32>,
}

/// Performs one round of heavy-edge matching on `g` (sorted rows; the
/// coarse graph's are sorted too). Returns `None` when matching can no
/// longer shrink the graph meaningfully (fewer than 10% of vertices
/// matched), which signals the driver to stop coarsening.
///
/// Each coarse row is first gathered in merge order: the members' rows run
/// through a dense `slot[coarse id]` table, parallel edges summing and the
/// pair's inner edge dropping. One counting transpose then lists every row
/// by neighbour id: walking the rows in id order and appending `u` to the
/// row of each neighbour `c` fills row `c` with its neighbours ascending,
/// and the adjacency is symmetric, so that is row `c` sorted. Weights are
/// summed in `u32`: [`partition`](crate::partition) admits only graphs
/// whose total vertex and edge weights fit it, and every coarse weight is
/// a sum of distinct fine ones.
pub(crate) fn coarsen_step(g: &CsrGraph, seed: u64, ws: &mut Workspace) -> Option<Coarsening> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    let (order, mate) = (&mut ws.order, &mut ws.mate);
    let (merged, slot) = (&mut ws.merged, &mut ws.slot);
    let mut rng = StdRng::seed_from_u64(seed);
    order.clear();
    order.extend(0..n as u32);
    order.shuffle(&mut rng);

    const UNMATCHED: u32 = u32::MAX;
    mate.clear();
    mate.resize(n, UNMATCHED);
    let mut matched_pairs = 0usize;
    for &v in order.iter() {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, u32)> = None; // (weight, neighbour)
        for (u, w) in g.neighbors(v) {
            if mate[u as usize] == UNMATCHED && u != v && best.is_none_or(|(bw, _)| bw < w) {
                best = Some((w, u));
            }
        }
        if let Some((_, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
            matched_pairs += 1;
        } else {
            mate[v as usize] = v; // singleton
        }
    }
    if matched_pairs * 10 < n {
        return None;
    }

    // Assign coarse ids: the smaller endpoint of each pair (or a singleton)
    // owns the id, so ids ascend with their owners.
    let mut map = vec![UNMATCHED; n];
    let mut nc = 0usize;
    for v in 0..n {
        let m = mate[v] as usize;
        if m >= v {
            (map[v], map[m]) = (nc as u32, nc as u32);
            nc += 1;
        }
    }

    // The coarse rows in merge order, one per owner in id order, and how
    // many entries each coarse vertex receives in the transpose.
    let mut vwgt = Vec::with_capacity(nc);
    let mut xadj = vec![0u32; nc + 1];
    merged.clear();
    slot.clear();
    slot.resize(nc, UNMATCHED);
    for v in 0..n as u32 {
        let m = mate[v as usize];
        if m < v {
            continue;
        }
        let cv = map[v as usize];
        let members = [v, m];
        let members = &members[..if m == v { 1 } else { 2 }];
        let start = merged.len();
        for &x in members {
            for (u, w) in g.neighbors(x) {
                let cu = map[u as usize];
                match slot[cu as usize] {
                    _ if cu == cv => {} // the pair's inner edge
                    UNMATCHED => {
                        slot[cu as usize] = merged.len() as u32;
                        merged.push((cv, cu, w));
                    }
                    at => merged[at as usize].2 += w,
                }
            }
        }
        for &(_, cu, _) in &merged[start..] {
            slot[cu as usize] = UNMATCHED;
            xadj[cu as usize + 1] += 1;
        }
        vwgt.push(members.iter().map(|&x| g.vwgt[x as usize]).sum());
    }
    for c in 0..nc {
        xadj[c + 1] += xadj[c];
    }
    // The transpose, `slot` now the next free entry of each row.
    slot.clear();
    slot.extend_from_slice(&xadj[..nc]);
    let (mut adjncy, mut ewgt) = (vec![0u32; merged.len()], vec![0u32; merged.len()]);
    for &(cv, cu, w) in merged.iter() {
        let at = &mut slot[cu as usize];
        (adjncy[*at as usize], ewgt[*at as usize]) = (cv, w);
        *at += 1;
    }
    let graph = CsrGraph {
        xadj,
        adjncy,
        vwgt,
        ewgt,
    };
    Some(Coarsening { graph, map })
}

/// Coarsens until at most `target_vertices` remain or matching stalls.
/// Returns the hierarchy from finest (first) to coarsest (last).
pub(crate) fn coarsen_to(
    g: &CsrGraph,
    target_vertices: usize,
    seed: u64,
    ws: &mut Workspace,
) -> Vec<Coarsening> {
    let mut levels: Vec<Coarsening> = Vec::new();
    loop {
        let current = levels.last().map_or(g, |c| &c.graph);
        if current.num_vertices() <= target_vertices {
            break;
        }
        match coarsen_step(current, seed.wrapping_add(levels.len() as u64), ws) {
            Some(c) => levels.push(c),
            None => break,
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn one_step_roughly_halves_a_path() {
        let g = path(64);
        let c = coarsen_step(&g, 1, &mut Workspace::default()).expect("path should match well");
        assert!(c.graph.num_vertices() < 48, "{}", c.graph.num_vertices());
        assert!(c.graph.num_vertices() >= 32);
        // Weight is conserved.
        assert_eq!(c.graph.total_vwgt(), g.total_vwgt());
    }

    #[test]
    fn map_is_consistent() {
        let g = path(32);
        let c = coarsen_step(&g, 3, &mut Workspace::default()).unwrap();
        let nc = c.graph.num_vertices() as u32;
        assert!(c.map.iter().all(|&m| m < nc));
        // Every coarse vertex has at least one fine vertex.
        let mut seen = vec![false; nc as usize];
        for &m in &c.map {
            seen[m as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn coarse_cut_projects_exactly() {
        // Any coarse bipartition, projected to the fine graph, must have the
        // same cut weight.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let c = coarsen_step(&g, 7, &mut Workspace::default()).unwrap();
        let nc = c.graph.num_vertices();
        // Bipartition coarse vertices: even/odd.
        let cpart: Vec<u32> = (0..nc as u32).map(|v| v % 2).collect();
        let fpart: Vec<u32> = c.map.iter().map(|&m| cpart[m as usize]).collect();
        let cut_coarse: u64 = (0..nc as u32)
            .flat_map(|v| c.graph.neighbors(v).map(move |(u, w)| (v, u, w)))
            .filter(|&(v, u, _)| v < u && cpart[v as usize] != cpart[u as usize])
            .map(|(_, _, w)| w as u64)
            .sum();
        let cut_fine: u64 = (0..g.num_vertices() as u32)
            .flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u, w)))
            .filter(|&(v, u, _)| v < u && fpart[v as usize] != fpart[u as usize])
            .map(|(_, _, w)| w as u64)
            .sum();
        assert_eq!(cut_coarse, cut_fine);
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = path(256);
        let levels = coarsen_to(&g, 30, 5, &mut Workspace::default());
        assert!(!levels.is_empty());
        assert!(levels.last().unwrap().graph.num_vertices() <= 60);
        // Hierarchy shrinks monotonically.
        let mut prev = g.num_vertices();
        for l in &levels {
            assert!(l.graph.num_vertices() < prev);
            prev = l.graph.num_vertices();
        }
    }

    #[test]
    fn tiny_graphs_stop() {
        let g = path(2);
        // Either one step to a single vertex, or None — but never panic.
        let _ = coarsen_step(&g, 0, &mut Workspace::default());
        let g1 = CsrGraph::from_edges(1, &[]);
        assert!(coarsen_step(&g1, 0, &mut Workspace::default()).is_none());
    }

    #[test]
    fn disconnected_graph_coarsens() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let c = coarsen_step(&g, 2, &mut Workspace::default()).unwrap();
        assert_eq!(c.graph.num_vertices(), 3);
        assert_eq!(c.graph.num_edges(), 0);
    }
}
