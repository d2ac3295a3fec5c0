//! Induction of per-direction dependence DAGs from a mesh, with cycle
//! breaking.
//!
//! For sweep direction `ω`, every interior face with `a→b` unit normal `n`
//! contributes the edge `a → b` when `n · ω > ε` and `b → a` when
//! `n · ω < −ε` (faces nearly parallel to the sweep contribute nothing —
//! no flux crosses them).
//!
//! What does not depend on `ω` is computed once per mesh: every cell's
//! neighbours in ascending order, each with the face it comes from. A
//! direction then costs one sign byte per face and one pass over that
//! adjacency, which cuts the successor and predecessor rows out already
//! sorted and de-duplicated — no edge list, no sort — and hands them to
//! the [`TaskDag`] constructor, whose level peel is also the acyclicity
//! proof. Conforming meshes never cycle (Camminady & Frank), so that is
//! the whole common path.
//!
//! Hanging-node, polytopal and jittered meshes can induce directed cycles;
//! following the paper ("we break the cycles") we repair them. Only when
//! the peel leaves nodes behind does Tarjan run, on that residue: within
//! each non-trivial strongly connected component only edges consistent
//! with the *geometric height* order `h(v) = centroid(v) · ω` (ties by
//! cell id) are kept — the other faces' signs are zeroed and the cut and
//! the peel run once more. Cross-SCC edges can never participate in a
//! cycle and are all preserved, so the repair is minimal in that sense.
//! [`induce_raw`] + [`break_cycles`] + [`TaskDag::from_edges`] is the same
//! function by the edge-list route; `tests/induction_oracle.rs` holds
//! this one to it.

use sweep_mesh::{CellId, SweepMesh, Vec3};
use sweep_quadrature::QuadratureSet;
use sweep_telemetry as telemetry;

use crate::graph::{Csr, TaskDag};

/// Faces whose normal is within this tolerance of perpendicular to the
/// sweep direction induce no dependence.
pub const PARALLEL_EPS: f64 = 1e-12;

/// Statistics from inducing one direction's DAG.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InduceStats {
    /// Edges induced by face normals before repair.
    pub raw_edges: usize,
    /// Edges dropped by cycle breaking.
    pub dropped_edges: usize,
    /// Number of non-trivial (size ≥ 2) strongly connected components
    /// encountered.
    pub nontrivial_sccs: usize,
}

/// Induces the dependence DAG of one sweep direction from a mesh.
/// Guaranteed acyclic.
///
/// ```
/// use sweep_mesh::{TriMesh2d, Vec3};
/// use sweep_dag::induce_dag;
///
/// let mesh = TriMesh2d::unit_square(4, 4, 0.2, 1).unwrap();
/// let (dag, stats) = induce_dag(&mesh, Vec3::new(0.8, 0.6, 0.0));
/// assert!(dag.is_acyclic());
/// assert!(stats.raw_edges > 0);
/// ```
pub fn induce_dag(mesh: &impl SweepMesh, omega: Vec3) -> (TaskDag, InduceStats) {
    induce_with(&face_adjacency(mesh), mesh, omega)
}

/// The interior faces as a per-cell adjacency — the direction-independent
/// half of induction, built once per mesh and shared by every direction.
/// Cell `c`'s row holds its half-faces `neighbour << 32 | face << 1 | side`
/// (`side` = 1 when `c` is the face's `b`) in ascending order, so the
/// faces of one cell pair are adjacent; sorted here because an imported
/// mesh's faces come in no particular order.
///
/// # Panics
/// Panics on a face with an endpoint `>= n` or with `a == b`.
fn face_adjacency(mesh: &impl SweepMesh) -> Csr<u64> {
    let n = mesh.num_cells();
    let faces = mesh.interior_faces();
    assert!(faces.len() <= i32::MAX as usize, "face index overflows");
    for f in faces {
        let (a, b) = (f.a.0, f.b.0);
        assert!(a.max(b) < n as u32, "edge ({a},{b}) out of range");
        assert_ne!(a, b, "self-loop at {a}");
    }
    let halves = faces.iter().zip(0u64..).flat_map(|(f, i)| {
        let (a, b) = (u64::from(f.a.0), u64::from(f.b.0));
        [(f.a.0, b << 32 | i << 1), (f.b.0, a << 32 | i << 1 | 1)]
    });
    let mut adj = Csr::bucket(n, halves);
    for c in adj.xadj.windows(2) {
        adj.adj[c[0] as usize..c[1] as usize].sort_unstable();
    }
    adj
}

/// Cuts the digraph the face signs describe (`+1`: `a → b`, `−1`: `b → a`,
/// `0`: no edge) out of the adjacency, `edges` being a capacity hint.
/// Returns the DAG and the nodes its peel left (see [`TaskDag::from_csr`]).
fn cut(adj: &Csr<u64>, sign: &[i8], edges: usize) -> (TaskDag, Vec<u32>) {
    let rows = || Csr {
        xadj: Vec::with_capacity(adj.xadj.len()),
        adj: Vec::with_capacity(edges),
    };
    let (mut succ, mut pred) = (rows(), rows());
    for c in 0..adj.xadj.len() as u32 - 1 {
        succ.xadj.push(succ.adj.len() as u32);
        pred.xadj.push(pred.adj.len() as u32);
        // The neighbour last written per side: parallel faces of one cell
        // pair (`PolyPreset::Pillow` has four) yield one edge.
        let (mut last_succ, mut last_pred) = (u32::MAX, u32::MAX);
        for &half in adj.row(c) {
            let neighbour = (half >> 32) as u32;
            let s = sign[(half as u32 >> 1) as usize];
            let outward = if half & 1 == 0 { s } else { -s };
            if outward > 0 && neighbour != last_succ {
                succ.adj.push(neighbour);
                last_succ = neighbour;
            } else if outward < 0 && neighbour != last_pred {
                pred.adj.push(neighbour);
                last_pred = neighbour;
            }
        }
    }
    succ.xadj.push(succ.adj.len() as u32);
    pred.xadj.push(pred.adj.len() as u32);
    TaskDag::from_csr(succ, pred)
}

/// [`induce_dag`] on the prebuilt [`face_adjacency`] of `mesh`.
fn induce_with(adj: &Csr<u64>, mesh: &impl SweepMesh, omega: Vec3) -> (TaskDag, InduceStats) {
    let faces = mesh.interior_faces();
    let mut sign: Vec<i8> = faces
        .iter()
        .map(|f| {
            let d = f.normal.dot(omega);
            i8::from(d > PARALLEL_EPS) - i8::from(d < -PARALLEL_EPS)
        })
        .collect();
    let raw_edges = sign.iter().filter(|&&s| s != 0).count();
    let mut stats = InduceStats {
        raw_edges,
        ..InduceStats::default()
    };
    let (dag, residue) = cut(adj, &sign, raw_edges);
    if residue.is_empty() {
        return (dag, stats);
    }

    // Cyclic: every non-trivial SCC lies inside the residue, and so do all
    // successors of a residue node, so Tarjan need not look further.
    let (scc, nontrivial) = tarjan_scc(dag.succ_csr(), residue.iter().copied());
    stats.nontrivial_sccs = nontrivial;
    let height: Vec<f64> = (0..mesh.num_cells() as u32)
        .map(|c| mesh.centroid(CellId(c)).dot(omega))
        .collect();
    for (f, s) in faces.iter().zip(&mut sign) {
        let (u, v) = if *s > 0 {
            (f.a.0, f.b.0)
        } else {
            (f.b.0, f.a.0)
        };
        if *s != 0 && breaks(&scc, &height, u, v) {
            *s = 0;
            stats.dropped_edges += 1;
        }
    }
    let (dag, residue) = cut(adj, &sign, raw_edges - stats.dropped_edges);
    assert!(residue.is_empty(), "height order within SCCs is acyclic");
    (dag, stats)
}

/// The raw (pre-repair) dependence edges one sweep direction induces: the
/// edge list [`induce_dag`] would hand to [`break_cycles`]. On hanging-node
/// and polytopal meshes this digraph can contain directed cycles — exactly
/// the witnesses the `SW001` analyzer row certifies — so it is exposed for
/// inspection and for exporting cyclic instances (`sweep mesh import
/// --raw-out`).
///
/// ```
/// use sweep_dag::{induce_dag, induce_raw};
/// use sweep_mesh::{PolyPreset, Vec3};
///
/// // The Pillow preset provably induces a 2-cycle for every direction...
/// let mesh = PolyPreset::Pillow.build(2).unwrap();
/// let omega = Vec3::new(0.48, 0.6, 0.64);
/// let raw = induce_raw(&mesh, omega);
/// assert!(raw.contains(&(0, 1)) && raw.contains(&(1, 0)));
/// // ...which induce_dag's cycle breaking removes.
/// let (dag, stats) = induce_dag(&mesh, omega);
/// assert!(dag.is_acyclic());
/// assert!(stats.dropped_edges > 0);
/// ```
pub fn induce_raw(mesh: &impl SweepMesh, omega: Vec3) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(mesh.interior_faces().len());
    for f in mesh.interior_faces() {
        let d = f.normal.dot(omega);
        if d > PARALLEL_EPS {
            edges.push((f.a.0, f.b.0));
        } else if d < -PARALLEL_EPS {
            edges.push((f.b.0, f.a.0));
        }
    }
    edges
}

/// Induces all `k` DAGs for a quadrature set; returns the DAGs and the
/// per-direction repair statistics.
///
/// The per-direction inductions are independent, so they fan out over
/// the [`sweep_pool::global`] thread pool. Each induction is a pure
/// function of `(mesh, ω)` and results come back ordered by direction
/// index, so the output is bit-identical at every worker count
/// (`--threads 1` reproduces the historical sequential loop exactly).
pub fn induce_all(
    mesh: &(impl SweepMesh + Sync),
    quadrature: &QuadratureSet,
) -> (Vec<TaskDag>, Vec<InduceStats>) {
    let _span = telemetry::span!("dag.induce");
    let omegas: Vec<Vec3> = quadrature.iter().map(|(_, omega)| omega).collect();
    let adj = face_adjacency(mesh);
    let per_dir = sweep_pool::global().par_map(&omegas, |_, &omega| induce_with(&adj, mesh, omega));
    let mut dags = Vec::with_capacity(quadrature.len());
    let mut stats = Vec::with_capacity(quadrature.len());
    for (d, s) in per_dir {
        dags.push(d);
        stats.push(s);
    }
    if telemetry::enabled() {
        telemetry::counter_add(
            "dag.induce.raw_edges",
            stats.iter().map(|s| s.raw_edges as u64).sum(),
        );
        telemetry::counter_add(
            "dag.induce.dropped_edges",
            stats.iter().map(|s| s.dropped_edges as u64).sum(),
        );
    }
    (dags, stats)
}

/// Removes a set of edges so the remainder is acyclic — the paper's "we
/// break the cycles" step (§3).
///
/// The contract:
///
/// * **Acyclic in, untouched out.** Edges whose endpoints lie in different
///   strongly connected components can never participate in a cycle and are
///   all kept — an already-acyclic digraph passes through bit-identically,
///   even when `height` disagrees with the edge directions.
/// * **Cyclic in, geometric repair.** Within each non-trivial SCC only edges
///   going strictly upward in `(height, id)` lexicographic order survive.
///   Since that order is total, the result is acyclic; `height[v]` is the
///   cell centroid projected on the sweep direction, so surviving edges are
///   the physically plausible ones.
/// * **Deterministic.** Output order equals input order (a filter), so
///   results are reproducible across runs and thread counts.
///
/// Returns `(kept_edges, dropped_count, nontrivial_scc_count)`.
///
/// ```
/// use sweep_dag::break_cycles;
///
/// // A 2-cycle between nodes at heights 0.0 < 1.0: the upward edge
/// // survives, the downward edge is dropped, one non-trivial SCC.
/// let (kept, dropped, sccs) = break_cycles(2, vec![(0, 1), (1, 0)], &[0.0, 1.0]);
/// assert_eq!((kept, dropped, sccs), (vec![(0, 1)], 1, 1));
///
/// // Acyclic input is never modified, even under inconsistent heights.
/// let (kept, dropped, _) = break_cycles(3, vec![(0, 1), (1, 2)], &[9.0, 0.0, 4.0]);
/// assert_eq!((kept, dropped), (vec![(0, 1), (1, 2)], 0));
/// ```
///
/// # Panics
/// Panics when `height.len() != n`.
pub fn break_cycles(
    n: usize,
    edges: Vec<(u32, u32)>,
    height: &[f64],
) -> (Vec<(u32, u32)>, usize, usize) {
    assert_eq!(height.len(), n, "one height per node");
    let succ = Csr::bucket(n, edges.iter().copied());
    let (scc, nontrivial) = tarjan_scc(&succ, 0..n as u32);
    let before = edges.len();
    let kept: Vec<(u32, u32)> = edges
        .into_iter()
        .filter(|&(u, v)| !breaks(&scc, height, u, v))
        .collect();
    let dropped = before - kept.len();
    (kept, dropped, nontrivial)
}

/// The repair rule: edge `u → v` goes when both ends share a strongly
/// connected component (nodes Tarjan was not sent to have none) and it
/// does not climb in `(height, id)` order.
fn breaks(scc: &[u32], height: &[f64], u: u32, v: u32) -> bool {
    let (cu, cv) = (scc[u as usize], scc[v as usize]);
    let (hu, hv) = (height[u as usize], height[v as usize]);
    cu == cv && cu != UNVISITED && !(hu < hv || (hu == hv && u < v))
}

const UNVISITED: u32 = u32::MAX;

/// Iterative Tarjan SCC over a successor CSR, searching from `roots` only.
/// Returns the component id of every node reached ([`UNVISITED`] for the
/// rest) and the number of components with at least two nodes.
fn tarjan_scc(succ: &Csr, roots: impl Iterator<Item = u32>) -> (Vec<u32>, usize) {
    let n = succ.xadj.len() - 1;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    // A visited node is on the stack until it has a component.
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    let mut nontrivial = 0;

    // Explicit DFS stack of (node, next-child-offset).
    let mut dfs: Vec<(u32, u32)> = Vec::new();
    for root in roots {
        if index[root as usize] != UNVISITED {
            continue;
        }
        dfs.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);

        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if let Some(&w) = succ.row(v).get(*ci as usize) {
                *ci += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    dfs.push((w, 0));
                } else if comp[w as usize] == UNVISITED {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                dfs.pop();
                if let Some(&(p, _)) = dfs.last() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is the root of an SCC.
                    let top = stack.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    nontrivial += usize::from(top - stack.len() >= 2);
                    next_comp += 1;
                }
            }
        }
    }
    (comp, nontrivial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_mesh::{MeshPreset, TriMesh2d};
    use sweep_quadrature::QuadratureSet;

    #[test]
    fn tarjan_identifies_components() {
        // 0 <-> 1 form a cycle; 2 is separate; 1 -> 2.
        let dag = TaskDag::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let (scc, nontrivial) = tarjan_scc(dag.succ_csr(), 0..3);
        assert_eq!(scc[0], scc[1]);
        assert_ne!(scc[0], scc[2]);
        assert_eq!(nontrivial, 1);
    }

    #[test]
    fn tarjan_on_dag_gives_singletons() {
        let dag = TaskDag::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let (scc, nontrivial) = tarjan_scc(dag.succ_csr(), 0..4);
        let mut ids = scc.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert_eq!(nontrivial, 0);
    }

    #[test]
    fn break_cycles_repairs_two_cycle() {
        let heights = vec![0.0, 1.0];
        let (kept, dropped, sccs) = break_cycles(2, vec![(0, 1), (1, 0)], &heights);
        assert_eq!(kept, vec![(0, 1)]); // upward edge survives
        assert_eq!(dropped, 1);
        assert_eq!(sccs, 1);
        assert!(TaskDag::from_edges(2, &kept).is_acyclic());
    }

    #[test]
    fn break_cycles_keeps_acyclic_input_intact() {
        let heights = vec![5.0, 0.0, 2.0]; // deliberately inconsistent
        let edges = vec![(0u32, 1u32), (1, 2)];
        let (kept, dropped, sccs) = break_cycles(3, edges.clone(), &heights);
        // No cycles ⇒ nothing may be dropped even though heights disagree.
        assert_eq!(kept, edges);
        assert_eq!(dropped, 0);
        assert_eq!(sccs, 0);
    }

    #[test]
    fn break_cycles_handles_big_scc() {
        // Directed 4-cycle plus a chord.
        let edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
        let heights = vec![0.0, 1.0, 2.0, 3.0];
        let (kept, _, sccs) = break_cycles(4, edges, &heights);
        assert_eq!(sccs, 1);
        assert!(TaskDag::from_edges(4, &kept).is_acyclic());
        // All upward edges survive: (0,1),(1,2),(2,3),(0,2).
        assert_eq!(kept.len(), 4);
    }

    #[test]
    fn equal_heights_broken_by_id() {
        let edges = vec![(0u32, 1u32), (1, 0)];
        let heights = vec![1.0, 1.0];
        let (kept, dropped, _) = break_cycles(2, edges, &heights);
        assert_eq!(kept, vec![(0, 1)]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn induced_2d_dags_are_acyclic_and_cover_most_faces() {
        let mesh = TriMesh2d::unit_square(8, 8, 0.2, 3).unwrap();
        let quad = QuadratureSet::uniform_2d(8).unwrap();
        let (dags, stats) = induce_all(&mesh, &quad);
        assert_eq!(dags.len(), 8);
        for (d, s) in dags.iter().zip(&stats) {
            assert!(d.is_acyclic());
            assert_eq!(d.num_nodes(), mesh.num_cells());
            // Nearly every interior face induces an edge (none parallel).
            assert!(s.raw_edges >= mesh.interior_faces().len() * 9 / 10);
            // Dropped edges must be a small fraction.
            assert!(s.dropped_edges * 20 <= s.raw_edges, "{s:?}");
        }
    }

    #[test]
    fn induced_3d_dags_are_acyclic() {
        let mesh = MeshPreset::Tetonly.build_scaled(0.01).unwrap();
        let quad = QuadratureSet::level_symmetric(2).unwrap();
        let (dags, _) = induce_all(&mesh, &quad);
        for d in &dags {
            assert!(d.is_acyclic());
        }
    }

    #[test]
    fn opposite_directions_induce_transposed_dags() {
        let mesh = TriMesh2d::unit_square(5, 5, 0.15, 1).unwrap();
        let omega = Vec3::new(0.6, 0.8, 0.0);
        let (d1, s1) = induce_dag(&mesh, omega);
        let (d2, _) = induce_dag(&mesh, -omega);
        // Raw induced edge sets are exact transposes; cycle breaking uses
        // opposite height orders, so the *kept* sets are transposes too
        // when no cycles existed.
        if s1.dropped_edges == 0 {
            let mut e1: Vec<_> = d1.edges().map(|(u, v)| (v, u)).collect();
            let mut e2: Vec<_> = d2.edges().collect();
            e1.sort_unstable();
            e2.sort_unstable();
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn poly_presets_induce_cycles_in_every_direction() {
        use sweep_mesh::PolyPreset;
        // TripleRing and Pillow guarantee a cycle for EVERY unit direction;
        // check the full S2 level-symmetric set plus assorted oblique ones.
        let mut dirs: Vec<Vec3> = QuadratureSet::level_symmetric(4)
            .unwrap()
            .iter()
            .map(|(_, o)| o)
            .collect();
        dirs.push(Vec3::new(0.48, 0.6, 0.64));
        dirs.push(Vec3::new(-0.2, 0.3, 0.933).normalized());
        for preset in [PolyPreset::TripleRing, PolyPreset::Pillow] {
            let mesh = preset.build(preset.min_cells().max(12)).unwrap();
            for &omega in &dirs {
                let (dag, stats) = induce_dag(&mesh, omega);
                assert!(
                    stats.nontrivial_sccs >= 1 && stats.dropped_edges >= 1,
                    "{} should cycle along {omega:?}: {stats:?}",
                    preset.name()
                );
                assert!(dag.is_acyclic(), "repair must still produce a DAG");
            }
        }
        // Ring cycles whenever ω has a z component.
        let ring = PolyPreset::Ring.build(8).unwrap();
        let (_, s) = induce_dag(&ring, Vec3::new(0.0, 0.6, 0.8));
        assert_eq!(s.nontrivial_sccs, 1);
        // The full ring is one Hamiltonian cycle over all 8 interfaces;
        // repair keeps the height-upward half.
        assert_eq!(s.raw_edges, 8);
        assert!(s.dropped_edges >= 1);
        let (_, s) = induce_dag(&ring, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(s.raw_edges, 0, "in-plane direction induces no ring edges");
    }

    #[test]
    fn dag_sources_are_upstream_cells() {
        // In a structured (no-jitter) strip, the sweep direction +x makes
        // the leftmost cells the sources.
        let mesh = TriMesh2d::unit_square(6, 1, 0.0, 0).unwrap();
        let (dag, stats) = induce_dag(&mesh, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(stats.dropped_edges, 0);
        assert!(dag.is_acyclic());
        let sources = dag.sources();
        assert!(!sources.is_empty());
        use sweep_mesh::{CellId, SweepMesh as _};
        let min_x = sources
            .iter()
            .map(|&c| mesh.centroid(CellId(c)).x)
            .fold(f64::INFINITY, f64::min);
        assert!(min_x < 0.25, "sources should be near the left edge");
    }
}
