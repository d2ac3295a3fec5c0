//! Writes ParaView-ready VTK files of a scheduled sweep: the mesh with
//! per-cell processor assignment, combined-layer index of the first
//! direction, scheduled start time, and (after a transport solve) the
//! scalar flux. Open `sweep_visualization.vtk` in ParaView/VisIt and
//! color by `processor` to see the block structure, or by `start_dir0`
//! to watch the sweep front.
//!
//! ```sh
//! cargo run --release --example visualize
//! ```

use sweep_scheduling::prelude::*;

fn main() {
    let mesh = MeshPreset::WellLogging.build_scaled(0.03).expect("mesh");
    let quad = QuadratureSet::level_symmetric(2).expect("S2");
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "viz");
    let n = instance.num_cells();

    // Mesh quality — the stand-in meshes should be defensible elements.
    let q = quality_report(&mesh);
    println!(
        "mesh: {} cells, min/mean element quality {:.3}/{:.3}, volume grading {:.1}",
        n, q.min_radius_ratio, q.mean_radius_ratio, q.volume_ratio
    );

    // Block assignment + schedule.
    let (xadj, adjncy) = mesh.adjacency_csr();
    let graph = CsrGraph::from_csr_parts(xadj, adjncy);
    let blocks = block_partition(&graph, 8, &PartitionOptions::default());
    let m = 16;
    let assignment = Assignment::random_blocks(&blocks, m, 3);
    let schedule = Algorithm::RandomDelayPriorities.run(&instance, assignment, 4);
    validate(&instance, &schedule).expect("feasible");
    println!(
        "schedule: makespan {} on {m} processors (lower bound {})",
        schedule.makespan(),
        lower_bounds(&instance, m).best()
    );

    // Transport solve for a flux field.
    let solver = TransportSolver::new(
        &mesh,
        &quad,
        Material {
            sigma_t: 1.0,
            sigma_s: 0.5,
            source: 1.0,
        },
    )
    .expect("solver");
    let result = solver.solve(300, 1e-7);
    println!(
        "transport: {} iterations, converged = {}",
        result.iterations, result.converged
    );

    // Per-cell fields.
    let proc_field: Vec<f64> = (0..n as u32)
        .map(|v| schedule.proc_of_cell(v) as f64)
        .collect();
    let level0 = instance.dag(0).level_of();
    let level_field: Vec<f64> = level0.iter().map(|&l| f64::from(l)).collect();
    let start_field: Vec<f64> = (0..n as u32)
        .map(|v| schedule.start_of(TaskId::pack(v, 0, n)) as f64)
        .collect();
    let block_field: Vec<f64> = blocks.iter().map(|&b| b as f64).collect();

    let vtk = to_vtk(
        &mesh,
        &[
            ("processor", &proc_field),
            ("block", &block_field),
            ("level_dir0", &level_field),
            ("start_dir0", &start_field),
            ("scalar_flux", &result.phi),
        ],
    )
    .expect("vtk serialization");
    let path = "sweep_visualization.vtk";
    std::fs::write(path, &vtk).expect("write vtk");
    println!("wrote {path} ({} bytes) — open in ParaView", vtk.len());

    // ASCII Gantt preview of the first processors.
    let gantt = render_gantt(&instance, &schedule, 72);
    let preview: String = gantt.lines().take(9).collect::<Vec<_>>().join("\n");
    println!("\n{preview}\n(… one row per processor)");
}
