//! Static analysis of a [`SweepInstance`]: cycle detection with a
//! minimal witness (SW001), unreachable cells (SW012), degenerate
//! directions (SW013), and width/critical-path statistics (SW020).

use std::collections::VecDeque;

use sweep_dag::{cyclic_components, levels, SweepInstance, TaskDag};
use sweep_quadrature::QuadratureSet;

use crate::diag::{Anchor, Code, Diagnostic, Report};

/// How many cycles to report per direction before truncating — cyclic
/// inputs can contain thousands of SCCs and one witness per SCC is
/// already actionable.
const MAX_CYCLES_PER_DIR: usize = 5;

/// Analyzes the structure of an instance. Never panics on cyclic input
/// (this is the intended consumer of
/// [`sweep_dag::from_text_unchecked`]): cyclic directions are reported
/// as SW001 with a shortest witness cycle instead.
pub fn analyze_instance(instance: &SweepInstance) -> Report {
    let mut report = Report::new(format!("instance '{}'", instance.name()));
    let n = instance.num_cells();
    let k = instance.num_directions();

    let mut all_acyclic = true;
    for (i, dag) in instance.dags().iter().enumerate() {
        let sccs = cyclic_components(dag);
        if !sccs.is_empty() {
            all_acyclic = false;
        }
        for scc in sccs.iter().take(MAX_CYCLES_PER_DIR) {
            let witness = witness_cycle(dag, scc);
            let entry = witness.first().copied().unwrap_or(0);
            report.push(
                Diagnostic::new(
                    Code::CyclicDependency,
                    Anchor::task(entry, i as u32),
                    format!(
                        "direction {i}: {} cells form a dependency cycle \
                         (no sweep ordering exists); shortest witness has {} edges",
                        scc.len(),
                        witness.len().saturating_sub(1),
                    ),
                )
                .with_trail(witness),
            );
        }
        if sccs.len() > MAX_CYCLES_PER_DIR {
            report.push(Diagnostic::new(
                Code::CyclicDependency,
                Anchor::dir(i as u32),
                format!(
                    "direction {i}: {} further cyclic components suppressed",
                    sccs.len() - MAX_CYCLES_PER_DIR
                ),
            ));
        }
        // Degenerate direction: a DAG with no edges induces no precedence
        // at all — for a mesh-induced direction that means every face was
        // parallel to the sweep direction (or induction was skipped).
        if dag.num_edges() == 0 && n > 1 {
            report.push(Diagnostic::new(
                Code::DegenerateDirection,
                Anchor::dir(i as u32),
                format!("direction {i} induces no precedence edges over {n} cells"),
            ));
        }
    }

    // Unreachable cells: isolated in *every* direction — they never
    // exchange a face flux, which on a mesh-induced instance means the
    // cell is disconnected from the domain.
    let mut isolated = Vec::new();
    for v in 0..n as u32 {
        let touched = instance
            .dags()
            .iter()
            .any(|d| d.in_degree(v) > 0 || d.out_degree(v) > 0);
        if !touched {
            isolated.push(v);
        }
    }
    // Only meaningful when some direction has structure at all.
    if !isolated.is_empty() && instance.total_edges() > 0 {
        for &v in isolated.iter().take(8) {
            report.push(Diagnostic::new(
                Code::UnreachableCell,
                Anchor::cell(v),
                format!("cell {v} has no precedence edges in any of the {k} directions"),
            ));
        }
        if isolated.len() > 8 {
            report.push(Diagnostic::new(
                Code::UnreachableCell,
                Anchor::none(),
                format!("{} further isolated cells suppressed", isolated.len() - 8),
            ));
        }
    }

    // Width / critical-path statistics — only computable on acyclic input
    // (levels() assumes a topological order exists).
    if all_acyclic {
        let mut max_depth = 0usize;
        let mut max_width = 0usize;
        for dag in instance.dags() {
            let l = levels(dag);
            max_depth = max_depth.max(l.depth());
            max_width = max_width.max(l.max_width());
        }
        report.push(Diagnostic::new(
            Code::Stats,
            Anchor::none(),
            format!(
                "{n} cells, {k} directions, {} tasks, {} edges; \
                 critical path D={max_depth}, max level width {max_width}",
                instance.num_tasks(),
                instance.total_edges(),
            ),
        ));
    }
    report
}

/// Analyzes a quadrature set for degenerate normals: direction vectors
/// that are far from unit length (including the zero vector) and
/// non-positive quadrature weights, both of which make face-flux
/// upwinding ill-defined.
pub fn analyze_quadrature(quadrature: &QuadratureSet) -> Report {
    let mut report = Report::new(format!("quadrature '{}'", quadrature.name()));
    for (i, o) in quadrature.ordinates().iter().enumerate() {
        let norm = o.dir.norm();
        if !norm.is_finite() || (norm - 1.0).abs() > 1e-6 {
            report.push(Diagnostic::new(
                Code::DegenerateDirection,
                Anchor::dir(i as u32),
                format!("ordinate {i} has non-unit direction (|Ω| = {norm:.6e})"),
            ));
        }
        if !o.weight.is_finite() || o.weight <= 0.0 {
            report.push(Diagnostic::new(
                Code::DegenerateDirection,
                Anchor::dir(i as u32),
                format!("ordinate {i} has non-positive weight {}", o.weight),
            ));
        }
    }
    if report.is_empty() {
        report.push(Diagnostic::new(
            Code::Stats,
            Anchor::none(),
            format!(
                "{} ordinates, all unit-norm with positive weights",
                quadrature.len()
            ),
        ));
    }
    report
}

/// A shortest cycle through the smallest-id node of `scc`: BFS restricted
/// to the component from that node back to itself, returned as
/// `v0 → v1 → … → v0` (first element repeated at the end).
fn witness_cycle(dag: &TaskDag, scc: &[u32]) -> Vec<u32> {
    let n = dag.num_nodes();
    let mut in_scc = vec![false; n];
    for &v in scc {
        in_scc[v as usize] = true;
    }
    let start = scc[0];
    let mut parent = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    // Seed with successors of `start` so the BFS can return to it.
    for w in dag.successors(start) {
        if in_scc[w as usize] && !seen[w as usize] {
            seen[w as usize] = true;
            parent[w as usize] = start;
            queue.push_back(w);
        }
    }
    while let Some(v) = queue.pop_front() {
        for w in dag.successors(v) {
            if w == start {
                // Reconstruct start → … → v → start.
                let mut path = vec![start];
                let mut cur = v;
                let mut rev = Vec::new();
                while cur != start {
                    rev.push(cur);
                    cur = parent[cur as usize];
                }
                rev.reverse();
                path.extend(rev);
                path.push(start);
                return path;
            }
            if in_scc[w as usize] && !seen[w as usize] {
                seen[w as usize] = true;
                parent[w as usize] = v;
                queue.push_back(w);
            }
        }
    }
    // Unreachable for a genuine SCC, but stay total.
    vec![start, start]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_dag::SweepInstance;

    fn cyclic_instance() -> SweepInstance {
        // dir 0: 0 -> 1 -> 2 -> 0 plus a tail 2 -> 3.
        let dag = TaskDag::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        SweepInstance::new_unchecked(4, vec![dag], "cyclic")
    }

    #[test]
    fn clean_instance_yields_stats_only() {
        let inst = SweepInstance::random_layered(60, 3, 6, 2, 7);
        let r = analyze_instance(&inst);
        assert!(!r.has_errors());
        assert!(r.has_code(Code::Stats));
    }

    #[test]
    fn cycle_detected_with_witness() {
        let r = analyze_instance(&cyclic_instance());
        assert!(r.has_errors());
        assert_eq!(r.count_code(Code::CyclicDependency), 1);
        let d = &r.diagnostics()[0];
        assert_eq!(d.code, Code::CyclicDependency);
        // Witness is a closed walk: first == last, length = cycle + 1.
        assert_eq!(d.trail.first(), d.trail.last());
        assert_eq!(d.trail.len(), 4, "3-cycle witness: {:?}", d.trail);
        // Every consecutive pair is a real edge.
        let inst = cyclic_instance();
        for w in d.trail.windows(2) {
            assert!(
                inst.dag(0).successors(w[0]).any(|v| v == w[1]),
                "witness edge ({}, {}) not in graph",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn witness_is_shortest_through_entry() {
        // Two cycles through node 0: length 2 (0-4) and length 4.
        let dag = TaskDag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 0)]);
        let sccs = cyclic_components(&dag);
        assert_eq!(sccs.len(), 1);
        let w = witness_cycle(&dag, &sccs[0]);
        assert_eq!(w, vec![0, 4, 0]);
    }

    #[test]
    fn isolated_cell_flagged() {
        // Cell 3 untouched in the only direction with edges.
        let dag = TaskDag::from_edges(4, &[(0, 1), (1, 2)]);
        let inst = SweepInstance::new(4, vec![dag], "iso");
        let r = analyze_instance(&inst);
        assert_eq!(r.count_code(Code::UnreachableCell), 1);
        assert_eq!(r.diagnostics()[0].anchor.cell, Some(3));
    }

    #[test]
    fn edgeless_direction_flagged_degenerate() {
        let inst = SweepInstance::new(
            3,
            vec![TaskDag::from_edges(3, &[(0, 1)]), TaskDag::edgeless(3)],
            "deg",
        );
        let r = analyze_instance(&inst);
        assert!(r.has_code(Code::DegenerateDirection));
        assert!(!r.has_errors());
    }

    #[test]
    fn quadrature_degenerate_normal_flagged() {
        use sweep_mesh::Vec3;
        let q = QuadratureSet::from_directions(&[
            Vec3 {
                x: 1.0,
                y: 0.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 1.0,
                z: 0.0,
            },
        ])
        .expect("valid directions");
        assert!(!analyze_quadrature(&q).has_code(Code::DegenerateDirection));
    }

    #[test]
    fn scc_of_acyclic_graph_is_empty() {
        let dag = TaskDag::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4)]);
        assert!(cyclic_components(&dag).is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // A 200k-node chain closed into one cycle — the iterative Tarjan
        // walks all of it without recursing.
        let n = 200_000u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let dag = TaskDag::from_edges(n as usize, &edges);
        assert_eq!(cyclic_components(&dag), vec![(0..n).collect::<Vec<u32>>()]);
    }

    /// `warped.msh` × S4 as induced, before cycle breaking.
    fn raw_warped_s4() -> SweepInstance {
        let bytes = include_bytes!("../../../examples/meshes/warped.msh");
        let mesh = sweep_mesh::import_bytes(bytes, sweep_mesh::ImportFormat::Msh)
            .unwrap()
            .mesh;
        let n = sweep_mesh::SweepMesh::num_cells(&mesh);
        let quad = QuadratureSet::level_symmetric(4).unwrap();
        let dags = quad
            .iter()
            .map(|(_, omega)| TaskDag::from_edges(n, &sweep_dag::induce_raw(&mesh, omega)));
        SweepInstance::new_unchecked(n, dags.collect(), "warped-raw")
    }

    /// The text report of the raw `warped.msh` × S4 graphs: one
    /// 23-cell component in each of the 24 directions.
    #[test]
    fn sw001_text_on_the_raw_warped_mesh_is_pinned() {
        let text = analyze_instance(&raw_warped_s4()).render_text();
        assert_eq!(
            text,
            include_str!("../../../ci/golden/analyze_warped_raw.txt")
        );
    }

    /// Eight components of sizes 2–4 in one direction, some reached
    /// only through others: the five with the smallest ids get a
    /// witness and the other three are suppressed.
    #[test]
    fn sw001_text_past_the_cycle_cap_is_pinned() {
        let edges = [
            (30, 31),
            (31, 32),
            (32, 30),
            (5, 20),
            (20, 5),
            (12, 13),
            (13, 10),
            (10, 11),
            (11, 12),
            (0, 39),
            (39, 0),
            (25, 26),
            (26, 25),
            (8, 7),
            (7, 8),
            (35, 15),
            (15, 35),
            (1, 30),
            (32, 5),
            (20, 10),
            (2, 3),
            (3, 4),
            (4, 2),
            (6, 2),
        ];
        let dag = TaskDag::from_edges(40, &edges);
        let inst = SweepInstance::new_unchecked(40, vec![TaskDag::edgeless(40), dag], "seven");
        let text = analyze_instance(&inst).render_text();
        assert_eq!(
            text,
            include_str!("../../../ci/golden/analyze_seven_cycles.txt")
        );
    }
}
