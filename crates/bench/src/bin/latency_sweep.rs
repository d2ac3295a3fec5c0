//! **Extension: where does the real communication cost land?** — the
//! paper measures the extremes C1 and C2 and expects reality in between;
//! this experiment evaluates schedules under the overlap message-latency
//! model of `sweep-sim::latency` and locates the crossover where block
//! assignment overtakes per-cell assignment as the per-message latency
//! grows.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin latency_sweep -- --scale 0.05
//! ```

use sweep_bench::{mesh_blocks, BenchArgs, CsvSink};
use sweep_core::{c1_interprocessor_edges, validate, Algorithm, Assignment};
use sweep_mesh::MeshPreset;
use sweep_sim::latency_makespan;

fn main() {
    let args = BenchArgs::parse();
    let (mesh, instance) = args.instance(MeshPreset::Tetonly, 4);
    let n = instance.num_cells();
    let m = 64.min(instance.num_tasks() / 8).max(2);
    let blocks = mesh_blocks(&mesh, args.scaled_block(256));

    let per_cell = Assignment::random_cells(n, m, args.seed);
    let per_block = Assignment::random_blocks(&blocks, m, args.seed);
    let s_cell = Algorithm::RandomDelayPriorities.run(&instance, per_cell, args.seed ^ 1);
    let s_block = Algorithm::RandomDelayPriorities.run(&instance, per_block, args.seed ^ 1);
    validate(&instance, &s_cell).expect("feasible");
    validate(&instance, &s_block).expect("feasible");
    let mc = c1_interprocessor_edges(&instance, s_cell.assignment());
    let mb = c1_interprocessor_edges(&instance, s_block.assignment());

    let mut sink = CsvSink::new(
        &args,
        "latency_sweep",
        "latency,m,time_per_cell,time_per_block,msgs_per_cell,msgs_per_block,block_wins",
    );
    let mut crossover: Option<f64> = None;
    for &lat in &[0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0] {
        let tc = latency_makespan(&instance, &s_cell, lat);
        let tb = latency_makespan(&instance, &s_block, lat);
        let wins = tb < tc;
        if wins && crossover.is_none() {
            crossover = Some(lat);
        }
        sink.row(format_args!("{lat},{m},{tc:.0},{tb:.0},{mc},{mb},{wins}"));
    }
    match crossover {
        Some(l) => eprintln!("# block assignment overtakes per-cell at latency ≈ {l}"),
        None => eprintln!("# per-cell assignment won at every tested latency"),
    }
    sink.finish();
}
