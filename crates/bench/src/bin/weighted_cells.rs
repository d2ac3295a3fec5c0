//! **Extension: non-uniform cell costs** — the paper assumes unit task
//! cost `p = 1`; production meshes are graded, so per-cell work varies.
//! This experiment draws lognormal-ish cell weights, schedules with the
//! weighted Algorithm 2, and compares three assignment policies:
//! per-cell random, unweighted blocks, and *weight-balanced* blocks
//! (the multilevel partitioner balancing total block weight rather than
//! cell count) — showing the provable-algorithm machinery extends
//! naturally beyond the paper's model.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin weighted_cells -- --scale 0.05
//! ```

use rand::{RngExt, SeedableRng};
use sweep_bench::{BenchArgs, CsvSink};
use sweep_core::Assignment;
use sweep_mesh::{MeshPreset, SweepMesh};
use sweep_partition::{block_partition, CsrGraph, PartitionOptions};
use sweep_sim::{validate_weighted, weighted_lower_bound, weighted_random_delay_priorities};

fn main() {
    let args = BenchArgs::parse();
    let (mesh, instance) = args.instance(MeshPreset::Tetonly, 4);
    let n = instance.num_cells();

    // Lognormal-ish weights in 1..=32: most cells cheap, a tail of
    // expensive ones (local refinement / material interfaces).
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let weights: Vec<u64> = (0..n)
        .map(|_| {
            let g: f64 = rng.random_range(0.0..1.0);
            ((32.0f64).powf(g * g) as u64).clamp(1, 32)
        })
        .collect();

    let (xadj, adjncy) = mesh.adjacency_csr();
    let mut graph = CsrGraph::from_csr_parts(xadj, adjncy);
    let block = args.scaled_block(64);
    let blocks_uniform = block_partition(&graph, block, &PartitionOptions::default());
    // Weight-balanced blocks: same partitioner and *the same number of
    // blocks*, but with cell weights as vertex weights so blocks carry
    // equal total work instead of equal cell counts.
    graph.vwgt = weights.iter().map(|&w| w as u32).collect();
    let nblocks = n.div_ceil(block).max(1);
    let blocks_weighted = sweep_partition::partition(&graph, nblocks, &PartitionOptions::default());

    let mut sink = CsvSink::new(
        &args,
        "weighted_cells",
        "m,policy,makespan,weighted_lb,ratio",
    );
    for m in [8usize, 32, 128] {
        if m * 4 > instance.num_tasks() {
            continue;
        }
        let lb = weighted_lower_bound(&instance, &weights, m);
        let policies: Vec<(&str, Assignment)> = vec![
            (
                "per_cell",
                Assignment::random_cells(n, m, args.seed ^ m as u64),
            ),
            (
                "blocks_uniform",
                Assignment::random_blocks(&blocks_uniform, m, args.seed ^ m as u64),
            ),
            (
                "blocks_weight_balanced",
                Assignment::random_blocks(&blocks_weighted, m, args.seed ^ m as u64),
            ),
            (
                "blocks_lpt",
                Assignment::lpt_blocks(&blocks_weighted, &weights, m),
            ),
        ];
        for (name, a) in policies {
            let s = weighted_random_delay_priorities(&instance, a, &weights, args.seed ^ 9);
            validate_weighted(&instance, &s, &weights).expect("feasible");
            sink.row(format_args!(
                "{m},{name},{mk},{lb},{ratio:.3}",
                mk = s.makespan,
                ratio = s.makespan as f64 / lb as f64,
            ));
        }
    }
    sink.finish();
}
