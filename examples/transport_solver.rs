//! End-to-end radiation transport: the application sweeps exist for.
//!
//! Solves a one-group fixed-source transport problem on an unstructured
//! mesh by source iteration, where each outer iteration performs one sweep
//! per direction — the exact computation whose parallel schedule the paper
//! optimizes. Afterwards the sweep instance is scheduled on a virtual
//! cluster and the compute/communication trade-off of per-cell vs block
//! assignment is reported.
//!
//! ```sh
//! cargo run --release --example transport_solver
//! ```

use sweep_scheduling::core::certify;
use sweep_scheduling::prelude::*;

fn main() {
    let mesh = MeshPreset::WellLogging.build_scaled(0.05).expect("mesh");
    let quad = QuadratureSet::level_symmetric(4).expect("S4");
    println!(
        "well-logging stand-in: {} cells (borehole domain), {} directions",
        mesh.num_cells(),
        quad.len()
    );

    // --- Physics: a mildly scattering medium with a unit source. ---
    let material = Material {
        sigma_t: 1.0,
        sigma_s: 0.6,
        source: 1.0,
    };
    let solver = TransportSolver::new(&mesh, &quad, material).expect("solver");
    let result = solver.solve(500, 1e-8);
    println!(
        "source iteration: {} iterations, residual {:.2e}, converged = {}",
        result.iterations, result.residual, result.converged
    );
    let phi = &result.phi;
    let mean = phi.iter().sum::<f64>() / phi.len() as f64;
    let max = phi.iter().fold(0.0f64, |a, &b| a.max(b));
    println!("scalar flux: mean {mean:.4}, max {max:.4}");

    // --- Scheduling the very sweeps the solver just ran. ---
    let instance = solver.instance();
    let m = 64;
    println!(
        "\nscheduling {} tasks on {} processors:",
        instance.num_tasks(),
        m
    );

    // Per-cell random assignment (Algorithm 2 as analyzed).
    let per_cell = Assignment::random_cells(instance.num_cells(), m, 1);
    let s1 = Algorithm::RandomDelayPriorities.run(instance, per_cell, 2);
    validate(instance, &s1).expect("feasible");

    // Block assignment (paper §5.1): partition with the multilevel
    // partitioner, one random processor per block.
    let (xadj, adjncy) = mesh.adjacency_csr();
    let graph = CsrGraph::from_csr_parts(xadj, adjncy);
    let blocks = block_partition(&graph, 8, &PartitionOptions::default());
    let per_block = Assignment::random_blocks(&blocks, m, 1);
    let s2 = Algorithm::RandomDelayPriorities.run(instance, per_block, 2);
    validate(instance, &s2).expect("feasible");

    let lb = lower_bounds(instance, m).best();
    for (name, s) in [("per-cell", &s1), ("block-8", &s2)] {
        let cert = certify(instance, s);
        // One step costs 1, one message round 0.1.
        let est_time = 1.0 * cert.makespan as f64 + 0.1 * cert.c2 as f64;
        println!(
            "  {name:9} makespan {:5} (ratio {:.2})  C1 {:7}  C2 {:6}  est. time {est_time:.0}",
            cert.makespan,
            cert.makespan as f64 / lb as f64,
            cert.c1,
            cert.c2,
        );
    }
    println!("\nblock assignment trades a slightly longer makespan for far fewer messages (paper Fig. 2).");
}
