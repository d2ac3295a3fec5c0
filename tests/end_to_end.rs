//! End-to-end integration tests: mesh generation → quadrature → DAG
//! induction → (optional) partitioning → scheduling → validation →
//! metrics, across every algorithm.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use sweep_scheduling::prelude::*;
use sweep_scheduling::sim::{coloring_rounds, TransportResult};

/// A small but fully unstructured 3-D pipeline shared by several tests.
fn small_3d() -> (TetMesh, QuadratureSet) {
    let mesh = MeshPreset::Tetonly.build_scaled(0.01).expect("mesh");
    let quad = QuadratureSet::level_symmetric(2).expect("S2");
    (mesh, quad)
}

#[test]
fn full_pipeline_3d_all_algorithms() {
    let (mesh, quad) = small_3d();
    let (instance, stats) = SweepInstance::from_mesh(&mesh, &quad, "e2e");
    assert_eq!(instance.num_cells(), mesh.num_cells());
    assert_eq!(instance.num_directions(), 8);
    // Cycle breaking must be rare on these meshes.
    let dropped: usize = stats.iter().map(|s| s.dropped_edges).sum();
    let raw: usize = stats.iter().map(|s| s.raw_edges).sum();
    assert!(dropped * 50 <= raw, "dropped {dropped} of {raw} edges");

    let m = 16;
    let lb = lower_bounds(&instance, m);
    for alg in Algorithm::COMPARISON_SET {
        let assignment = Assignment::random_cells(instance.num_cells(), m, 7);
        let schedule = alg.run(&instance, assignment, 8);
        validate(&instance, &schedule).unwrap_or_else(|e| panic!("{} infeasible: {e}", alg.name()));
        assert!(
            schedule.makespan() as u64 >= lb.best(),
            "{} beat the lower bound",
            alg.name()
        );
        // The paper's empirical observation: within a small factor of LB.
        assert!(
            (schedule.makespan() as u64) < 8 * lb.best(),
            "{} makespan {} vs lb {}",
            alg.name(),
            schedule.makespan(),
            lb.best()
        );
    }
}

#[test]
fn full_pipeline_2d() {
    let mesh = TriMesh2d::unit_square(12, 12, 0.2, 3).expect("mesh");
    let quad = QuadratureSet::uniform_2d(8).expect("fan");
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "2d");
    let assignment = Assignment::random_cells(instance.num_cells(), 8, 1);
    let schedule = Algorithm::RandomDelayPriorities.run(&instance, assignment, 2);
    validate(&instance, &schedule).unwrap();
    assert!(schedule.makespan() as usize >= instance.num_tasks() / 8);
}

#[test]
fn block_pipeline_reduces_c1_without_wrecking_makespan() {
    let (mesh, quad) = small_3d();
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "blocks");
    let m = 16;

    let per_cell = Assignment::random_cells(instance.num_cells(), m, 5);
    let s_cell = Algorithm::RandomDelayPriorities.run(&instance, per_cell, 6);

    let (xadj, adjncy) = mesh.adjacency_csr();
    let graph = CsrGraph::from_csr_parts(xadj, adjncy);
    let blocks = block_partition(&graph, 4, &PartitionOptions::default());
    let per_block = Assignment::random_blocks(&blocks, m, 5);
    let s_block = Algorithm::RandomDelayPriorities.run(&instance, per_block, 6);

    validate(&instance, &s_cell).unwrap();
    validate(&instance, &s_block).unwrap();

    let c1_cell = c1_interprocessor_edges(&instance, s_cell.assignment());
    let c1_block = c1_interprocessor_edges(&instance, s_block.assignment());
    assert!(
        c1_block * 2 < c1_cell,
        "blocks must cut C1 at least in half: {c1_block} vs {c1_cell}"
    );
    // Paper: "the makespan does not increase too much".
    assert!(
        s_block.makespan() < 6 * s_cell.makespan(),
        "block makespan {} vs cell {}",
        s_block.makespan(),
        s_cell.makespan()
    );
}

#[test]
fn simulator_consistent_with_metrics() {
    let (mesh, quad) = small_3d();
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "sim");
    let assignment = Assignment::random_cells(instance.num_cells(), 8, 2);
    let schedule = Algorithm::RandomDelayPriorities.run(&instance, assignment, 3);
    // Edge-coloring rounds dominate the max-send measure.
    assert!(coloring_rounds(&instance, &schedule) >= c2_comm_delay(&instance, &schedule));
}

#[test]
fn executor_agrees_with_sequential_on_mesh_instances() {
    let (mesh, quad) = small_3d();
    let material = Material {
        sigma_t: 1.0,
        sigma_s: 0.4,
        source: 1.0,
    };
    let solver = TransportSolver::new(&mesh, &quad, material).unwrap();
    let bits = |r: &TransportResult| -> (Vec<u64>, usize, u64) {
        let phi = r.phi.iter().map(|x| x.to_bits()).collect();
        (phi, r.iterations, r.residual.to_bits())
    };
    let reference = bits(&solver.solve(5, 0.0));
    let assignment = Assignment::random_cells(solver.instance().num_cells(), 2, 4);
    let schedule = Algorithm::RandomDelayPriorities.run(solver.instance(), assignment, 4);
    for width in [1, 2] {
        let pool = ThreadPool::new(width);
        let result = solver.solve_scheduled(&schedule, &pool, 5, 0.0).unwrap();
        assert_eq!(bits(&result), reference, "width {width}");
    }
}

#[test]
fn transport_solver_runs_on_generated_mesh() {
    let (mesh, quad) = small_3d();
    let solver = TransportSolver::new(
        &mesh,
        &quad,
        Material {
            sigma_t: 1.0,
            sigma_s: 0.4,
            source: 1.0,
        },
    )
    .expect("solver");
    let result = solver.solve(300, 1e-7);
    assert!(result.converged, "residual {}", result.residual);
    assert!(result.phi.iter().all(|&x| x >= 0.0 && x.is_finite()));
    // The solver's instance is schedulable.
    let inst = solver.instance();
    let a = Assignment::random_cells(inst.num_cells(), 4, 1);
    let s = Algorithm::Greedy.run(inst, a, 0);
    validate(inst, &s).unwrap();
}

#[test]
fn all_mesh_presets_build_and_induce_acyclic_dags() {
    for preset in MeshPreset::ALL {
        let mesh = preset
            .build_scaled(0.005)
            .unwrap_or_else(|_| panic!("{}", preset.name()));
        let quad = QuadratureSet::level_symmetric(2).unwrap();
        let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, preset.name());
        for d in instance.dags() {
            assert!(d.is_acyclic(), "{} has a cyclic DAG", preset.name());
        }
        assert!(instance.max_depth() >= 3, "{} too shallow", preset.name());
    }
}

#[test]
fn single_processor_everything_serializes() {
    let (mesh, quad) = small_3d();
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "serial");
    let schedule = Algorithm::RandomDelayPriorities.run(
        &instance,
        Assignment::single(instance.num_cells()),
        1,
    );
    validate(&instance, &schedule).unwrap();
    assert_eq!(schedule.makespan() as usize, instance.num_tasks());
    assert_eq!(c1_interprocessor_edges(&instance, schedule.assignment()), 0);
}
