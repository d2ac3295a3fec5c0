//! Runs the transport solve's sweeps in the order of the paper's
//! schedules, on worker pools of several widths, and checks each run
//! against the sequential topological solve bit for bit: every task
//! reads the same inputs in the same order whatever the feasible
//! schedule and the width, so a schedule drives the computation
//! without changing its answer.
//!
//! ```sh
//! cargo run --release --example parallel_execution
//! ```

use std::time::Instant;

use sweep_scheduling::prelude::*;
use sweep_scheduling::sim::TransportResult;

/// Source iterations per solve (`tol = 0`, so every solve runs them all).
const ITERS: usize = 20;

fn main() {
    let mesh = MeshPreset::Tetonly.build_scaled(0.25).expect("mesh");
    let quad = QuadratureSet::level_symmetric(4).expect("S4");
    let material = Material {
        sigma_t: 1.0,
        sigma_s: 0.5,
        source: 1.0,
    };
    let solver = TransportSolver::new(&mesh, &quad, material).expect("solver");
    let instance = solver.instance();
    println!(
        "solving {} tasks ({} cells × {} directions), {ITERS} source iterations\n",
        instance.num_tasks(),
        instance.num_cells(),
        instance.num_directions()
    );

    let t0 = Instant::now();
    let reference = solver.solve(ITERS, 0.0);
    let seq_time = t0.elapsed().as_secs_f64();
    println!("topological order, 1 worker: {seq_time:.3}s\n");
    println!(
        "{:>5} {:>9} {:>6} {:>9} {:>10}",
        "m", "makespan", "width", "wall (s)", "identical"
    );
    let bits = |r: &TransportResult| -> (Vec<u64>, usize, u64) {
        let phi = r.phi.iter().map(|x| x.to_bits()).collect();
        (phi, r.iterations, r.residual.to_bits())
    };
    for m in [1usize, 4, 64, 1024] {
        let assignment = Assignment::random_cells(instance.num_cells(), m, 9);
        let schedule = Algorithm::RandomDelayPriorities.run(instance, assignment, 1);
        for width in [1usize, 2] {
            let pool = ThreadPool::new(width);
            let t0 = Instant::now();
            let result = solver
                .solve_scheduled(&schedule, &pool, ITERS, 0.0)
                .expect("RDP schedules are feasible");
            let wall = t0.elapsed().as_secs_f64();
            let identical = bits(&result) == bits(&reference);
            println!(
                "{m:>5} {:>9} {width:>6} {wall:>9.3} {:>10}",
                schedule.makespan(),
                if identical { "yes" } else { "NO" }
            );
            assert!(
                identical,
                "m = {m}, width {width}: the scheduled solve diverged"
            );
        }
    }
    println!(
        "\n(a scheduled wall time includes certifying the schedule and sorting \
         its tasks by start)"
    );
}
