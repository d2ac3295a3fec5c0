//! **Figure 2(a)+(b)** — Random Delay scheduling on the `tetonly` mesh
//! with 24 directions (S4): makespan, interprocessor edges C1, and
//! Max-Off-Proc-Outdegree cost C2 versus processor count, for per-cell
//! random assignment and for block assignments (paper block sizes 64 and
//! 256, scaled with `--scale`).
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin fig2_random_delay -- --scale 0.05
//! ```

use sweep_bench::{mesh_blocks, AssignPolicy, BenchArgs, CsvSink};
use sweep_core::{certify, Algorithm};
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    let (mesh, instance) = args.instance(MeshPreset::Tetonly, 4); // S4 = 24 dirs
    let n = instance.num_cells();
    eprintln!(
        "# tetonly stand-in: {} cells, 24 directions, {} tasks",
        n,
        instance.num_tasks()
    );

    let block_sizes = [64usize, 256];
    let blocks: Vec<(usize, Vec<u32>)> = block_sizes
        .iter()
        .map(|&b| (b, mesh_blocks(&mesh, args.scaled_block(b))))
        .collect();

    let mut sink = CsvSink::new(
        &args,
        "fig2_random_delay",
        "assignment,block,m,makespan,lower_bound,ratio,c1,c2,cut_fraction",
    );
    let ms = args.proc_sweep(512, instance.num_tasks());
    for &m in &ms {
        let mut policies: Vec<(String, AssignPolicy)> =
            vec![("per_cell".into(), AssignPolicy::PerCell)];
        for (b, map) in &blocks {
            policies.push((format!("block{b}"), AssignPolicy::PerBlock(map)));
        }
        for (label, policy) in &policies {
            let a = policy.draw(n, m, args.seed ^ m as u64);
            let seed = args.seed.wrapping_add(m as u64);
            let s = Algorithm::RandomDelayPriorities.run(&instance, a, seed);
            let cert = certify(&instance, &s);
            cert.verdict.expect("feasible");
            let (lb, c1, c2) = (cert.bounds.paper(), cert.c1, cert.c2);
            sink.row(format_args!(
                "{label},{block},{m},{mk},{lb},{ratio:.3},{c1},{c2},{frac:.4}",
                label = label,
                block = if label.starts_with("block") {
                    label.trim_start_matches("block").to_string()
                } else {
                    "1".into()
                },
                m = m,
                mk = s.makespan(),
                lb = lb,
                ratio = s.makespan() as f64 / lb as f64,
                c1 = c1,
                c2 = c2,
                frac = c1 as f64 / instance.total_edges() as f64,
            ));
        }
    }
    sink.finish();
}
