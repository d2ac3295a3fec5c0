//! **Ablation: block size** — the §5.1 trade-off in one table: as block
//! size grows, the interprocessor edge count C1 falls while the makespan
//! rises slightly; the C2 measure responds much more weakly (the paper's
//! observation that C2 "does not seem to be affected significantly").
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin ablation_blocks -- --scale 0.05
//! ```

use sweep_bench::{mesh_blocks, BenchArgs, CsvSink};
use sweep_core::{certify, Algorithm, Assignment};
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    let (mesh, instance) = args.instance(MeshPreset::Tetonly, 4);
    let n = instance.num_cells();
    let m = 64.min(instance.num_tasks() / 8).max(2);
    let mut sink = CsvSink::new(
        &args,
        "ablation_blocks",
        "paper_block,effective_block,nblocks,m,makespan,ratio_lb,c1,cut_fraction,c2",
    );
    // paper_block = 1 is the per-cell assignment baseline.
    for paper_block in [1usize, 16, 64, 256, 1024] {
        let (eff, assignment) = if paper_block == 1 {
            (1, Assignment::random_cells(n, m, args.seed))
        } else {
            let eff = args.scaled_block(paper_block);
            let blocks = mesh_blocks(&mesh, eff);
            (eff, Assignment::random_blocks(&blocks, m, args.seed))
        };
        let nblocks = if paper_block == 1 { n } else { n.div_ceil(eff) };
        let s = Algorithm::RandomDelayPriorities.run(&instance, assignment, args.seed ^ 7);
        let cert = certify(&instance, &s);
        cert.verdict.expect("feasible");
        sink.row(format_args!(
            "{paper_block},{eff},{nblocks},{m},{mk},{ratio:.3},{c1},{frac:.4},{c2}",
            mk = s.makespan(),
            ratio = s.makespan() as f64 / cert.bounds.paper() as f64,
            c1 = cert.c1,
            frac = cert.c1 as f64 / instance.total_edges() as f64,
            c2 = cert.c2,
        ));
    }
    sink.finish();
}
