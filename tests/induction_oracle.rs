//! The induction oracle: `induce_dag` cuts each direction's CSR straight
//! out of a shared mesh adjacency and proves acyclicity by the level peel;
//! the public edge-list pieces it replaced — `induce_raw`, `break_cycles`
//! (Tarjan over everything, always) and `TaskDag::from_edges` (sort +
//! dedup) — stay as the independent reference. Both routes must yield the
//! same `TaskDag` and the same `InduceStats` on every mesh family and
//! direction, and the levels every DAG now stores must equal what the
//! `topo_order`-based computation they replaced gives.

#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sweep_dag::{
    break_cycles, induce_all, induce_dag, induce_raw, levels, InduceStats, SweepInstance, TaskDag,
};
use sweep_mesh::import::{import_bytes, ImportFormat};
use sweep_mesh::{CellId, MeshPreset, PolyPreset, SweepMesh, TriMesh2d, Vec3};
use sweep_quadrature::QuadratureSet;

/// Induction by the edge-list route, exactly as `induce_dag` ran it before
/// the adjacency cut.
fn reference(mesh: &impl SweepMesh, omega: Vec3) -> (TaskDag, InduceStats) {
    let n = mesh.num_cells();
    let raw = induce_raw(mesh, omega);
    let raw_edges = raw.len();
    let heights: Vec<f64> = (0..n as u32)
        .map(|c| mesh.centroid(CellId(c)).dot(omega))
        .collect();
    let (kept, dropped_edges, nontrivial_sccs) = break_cycles(n, raw, &heights);
    let stats = InduceStats {
        raw_edges,
        dropped_edges,
        nontrivial_sccs,
    };
    (TaskDag::from_edges(n, &kept), stats)
}

/// Asserts the oracle on one `(mesh, ω)` and returns the stats.
fn check(mesh: &impl SweepMesh, omega: Vec3, what: &str) -> InduceStats {
    let (dag, stats) = induce_dag(mesh, omega);
    let (want_dag, want) = reference(mesh, omega);
    assert!(dag == want_dag, "{what} along {omega:?}: DAGs differ");
    assert_eq!(stats.raw_edges, want.raw_edges, "{what} along {omega:?}");
    assert_eq!(
        stats.dropped_edges, want.dropped_edges,
        "{what} along {omega:?}"
    );
    assert_eq!(
        stats.nontrivial_sccs, want.nontrivial_sccs,
        "{what} along {omega:?}"
    );
    assert!(dag.is_acyclic(), "{what} along {omega:?}");
    assert_eq!(dag.level_of(), reference_levels(&dag), "{what} levels");
    stats
}

fn directions(sn: usize) -> Vec<Vec3> {
    let quad = QuadratureSet::level_symmetric(sn).unwrap();
    quad.iter().map(|(_, omega)| omega).collect()
}

const AXES: [Vec3; 6] = [
    Vec3::new(1.0, 0.0, 0.0),
    Vec3::new(-1.0, 0.0, 0.0),
    Vec3::new(0.0, 1.0, 0.0),
    Vec3::new(0.0, -1.0, 0.0),
    Vec3::new(0.0, 0.0, 1.0),
    Vec3::new(0.0, 0.0, -1.0),
];

fn random_unit_directions(count: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut coord = || rng.random_range(-1.0..1.0f64);
        let v = Vec3::new(coord(), coord(), coord());
        if v.norm() > 0.1 {
            out.push(v.normalized());
        }
    }
    out
}

fn example(name: &str, format: ImportFormat) -> impl SweepMesh + Sync {
    let path = format!("{}/examples/meshes/{name}", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    import_bytes(&bytes, format).unwrap().mesh
}

/// The levels as `levels()` computed them before the DAG stored them: one
/// relaxation pass along `topo_order`.
fn reference_levels(dag: &TaskDag) -> Vec<u32> {
    let mut level_of = vec![0u32; dag.num_nodes()];
    for v in dag.topo_order().expect("acyclic") {
        for &w in dag.successors(v) {
            level_of[w as usize] = level_of[w as usize].max(level_of[v as usize] + 1);
        }
    }
    level_of
}

#[test]
fn mesh_presets_agree_with_the_edge_list_route() {
    for (preset, scale) in [
        (MeshPreset::Tetonly, 0.05),
        (MeshPreset::WellLogging, 0.02),
        (MeshPreset::Long, 0.02),
        (MeshPreset::Prismtet, 0.01),
    ] {
        let mesh = preset.build_scaled(scale).unwrap();
        for sn in [2, 4] {
            for omega in directions(sn) {
                let stats = check(&mesh, omega, preset.name());
                // Conforming tetrahedra never cycle (Camminady & Frank):
                // the repair path must not have run.
                assert_eq!(stats.dropped_edges, 0, "{}", preset.name());
            }
        }
        for omega in AXES {
            check(&mesh, omega, preset.name());
        }
    }
}

#[test]
fn induce_all_is_induce_dag_per_direction() {
    // `induce_all` shares one adjacency across directions (and workers);
    // `induce_dag` builds its own per call.
    let mesh = MeshPreset::Tetonly.build_scaled(0.01).unwrap();
    let quad = QuadratureSet::level_symmetric(4).unwrap();
    let (dags, stats) = induce_all(&mesh, &quad);
    for (i, (_, omega)) in quad.iter().enumerate() {
        let (dag, stat) = induce_dag(&mesh, omega);
        assert!(dags[i] == dag, "direction {i}");
        assert_eq!(stats[i], stat, "direction {i}");
    }
}

#[test]
fn triangulations_with_and_without_jitter() {
    let oblique = [
        Vec3::new(0.8, 0.6, 0.0),
        Vec3::new(-0.28, 0.96, 0.0),
        Vec3::new(0.6, -0.8, 0.0),
    ];
    for jitter in [0.0, 0.2, 0.45] {
        let mesh = TriMesh2d::unit_square(9, 7, jitter, 5).unwrap();
        for omega in oblique.into_iter().chain(AXES) {
            check(&mesh, omega, "unit_square");
        }
    }
    // On the structured grid the axis directions see faces exactly
    // parallel to the sweep: sign 0, no edge either way.
    let grid = TriMesh2d::unit_square(6, 6, 0.0, 0).unwrap();
    let stats = check(&grid, AXES[0], "grid");
    assert!(stats.raw_edges < grid.interior_faces().len());
    assert!(stats.raw_edges > 0);
}

#[test]
fn polytopal_presets_take_the_repair_path() {
    let mut dirs = directions(4);
    dirs.extend(random_unit_directions(10, 3));
    for preset in [PolyPreset::Ring, PolyPreset::TripleRing, PolyPreset::Pillow] {
        let mesh = preset.build(preset.min_cells().max(12)).unwrap();
        for &omega in &dirs {
            let stats = check(&mesh, omega, preset.name());
            assert!(
                stats.nontrivial_sccs >= 1 && stats.dropped_edges >= 1,
                "{} should cycle along {omega:?}: {stats:?}",
                preset.name()
            );
        }
        // The in-plane axes: Ring induces nothing at all along them.
        for omega in AXES {
            check(&mesh, omega, preset.name());
        }
    }
    // Pillow glues each cell pair by four faces: `raw_edges` counts faces,
    // the DAG holds each pair once.
    let pillow = PolyPreset::Pillow.build(12).unwrap();
    let omega = Vec3::new(0.48, 0.6, 0.64);
    let (dag, stats) = induce_dag(&pillow, omega);
    let mut distinct = induce_raw(&pillow, omega);
    distinct.sort_unstable();
    distinct.dedup();
    assert!(stats.raw_edges > distinct.len());
    assert!(dag.num_edges() < distinct.len());
}

#[test]
fn imported_meshes_with_unsorted_faces() {
    let s4 = directions(4);
    for (name, format) in [
        ("cube.msh", ImportFormat::Msh),
        ("plate.obj", ImportFormat::Obj),
    ] {
        let mesh = example(name, format);
        for &omega in s4.iter().chain(&AXES) {
            check(&mesh, omega, name);
        }
    }
    // The hanging-node specimen: its faces are not in cell order, and
    // every S4 direction is cyclic.
    let warped = example("warped.msh", ImportFormat::Msh);
    let faces = warped.interior_faces();
    assert!(
        faces
            .windows(2)
            .any(|w| (w[0].a, w[0].b) > (w[1].a, w[1].b)),
        "warped.msh should exercise the per-cell sort"
    );
    let mut dropped = 0;
    for &omega in &s4 {
        let stats = check(&warped, omega, "warped.msh");
        assert!(stats.nontrivial_sccs >= 1, "{omega:?}");
        dropped += stats.dropped_edges;
    }
    assert_eq!(dropped, 312);
    for omega in AXES {
        check(&warped, omega, "warped.msh");
    }
}

#[test]
fn fifty_random_directions() {
    let tets = MeshPreset::Tetonly.build_scaled(0.02).unwrap();
    let tris = TriMesh2d::unit_square(8, 8, 0.3, 11).unwrap();
    let warped = example("warped.msh", ImportFormat::Msh);
    let pillow = PolyPreset::Pillow.build(16).unwrap();
    for omega in random_unit_directions(50, 2005) {
        check(&tets, omega, "tetonly");
        check(&tris, omega, "unit_square");
        check(&warped, omega, "warped.msh");
        check(&pillow, omega, "pillow");
    }
}

#[test]
fn stored_levels_equal_the_topo_order_computation() {
    let mut dags: Vec<TaskDag> = Vec::new();
    for inst in [
        SweepInstance::random_layered(300, 3, 12, 3, 7),
        SweepInstance::random_layered(50, 2, 50, 1, 8),
        SweepInstance::random_chains(64, 3, 9),
        SweepInstance::identical_chains(40, 2),
        SweepInstance::bottleneck(5, 4, 2),
    ] {
        dags.extend(inst.dags().iter().cloned());
    }
    dags.push(TaskDag::edgeless(9));
    dags.push(TaskDag::edgeless(0));
    for dag in &dags {
        for g in [dag.clone(), dag.transpose()] {
            assert!(g.is_acyclic());
            let want = reference_levels(&g);
            assert_eq!(g.level_of(), want);
            assert_eq!(
                g.depth(),
                want.iter().map(|&l| l as usize + 1).max().unwrap_or(0)
            );
            // `levels()` buckets what is stored; a layer lists its nodes
            // in id order, as it always did.
            let lv = levels(&g);
            assert_eq!(lv.level_of, want);
            assert_eq!(lv.depth(), g.depth());
            for (j, layer) in lv.iter().enumerate() {
                assert!(layer.windows(2).all(|w| w[0] < w[1]));
                assert!(layer.iter().all(|&v| want[v as usize] as usize == j));
            }
            assert_eq!(lv.layer_nodes.len(), g.num_nodes());
            // Any construction of the same edge set is the same value.
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let mut shuffled = edges.clone();
            shuffled.reverse();
            shuffled.extend_from_slice(&edges);
            assert!(TaskDag::from_edges(g.num_nodes(), &edges) == g);
            assert!(TaskDag::from_edges(g.num_nodes(), &shuffled) == g);
        }
    }
}

#[test]
fn a_cyclic_graph_reports_it_and_stores_no_levels() {
    // A 3-cycle fed by a source and feeding a tail: the peel takes the
    // source and stops.
    let g = TaskDag::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]);
    assert!(!g.is_acyclic());
    assert!(g.topo_order().is_none());
    assert!(!g.transpose().is_acyclic());
    let caught = std::panic::catch_unwind(|| levels(&g)).unwrap_err();
    let message = caught
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| caught.downcast_ref::<String>().cloned())
        .unwrap();
    assert!(
        message.contains("levels require an acyclic graph"),
        "{message}"
    );
}
