//! **§2 observations 1 & 3** — on all four meshes, with varying processor
//! counts, the schedule produced by Random Delays with Priorities stays
//! below `3·nk/m` (near-linear speedup) and within a small constant of
//! the lower bound `max{nk/m, k, D}`.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin claim_3nkm -- --scale 0.05
//! ```

use sweep_bench::{geometric_mean, BenchArgs, CsvSink};
use sweep_core::{lower_bounds, validate, Algorithm, Assignment};
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    let mut sink = CsvSink::new(
        &args,
        "claim_3nkm",
        "mesh,n,m,makespan,avg_load,ratio_avg_load,ratio_lb,within_3x,speedup",
    );
    let mut all_ratios = Vec::new();
    for preset in MeshPreset::ALL {
        let (_, instance) = args.instance(preset, 4); // 24 directions
        let n = instance.num_cells();
        let nk = instance.num_tasks() as f64;
        let ms = args.proc_sweep(512, instance.num_tasks());
        for &m in &ms {
            let a = Assignment::random_cells(n, m, args.seed ^ m as u64);
            let s = Algorithm::RandomDelayPriorities.run(&instance, a, args.seed ^ (m as u64) << 4);
            validate(&instance, &s).expect("feasible");
            let avg = nk / m as f64;
            let r_avg = s.makespan() as f64 / avg;
            let lb = lower_bounds(&instance, m).paper();
            let r_lb = s.makespan() as f64 / lb as f64;
            all_ratios.push(r_lb);
            sink.row(format_args!(
                "{name},{n},{m},{mk},{avg:.1},{r_avg:.3},{r_lb:.3},{ok},{sp:.1}",
                name = preset.name(),
                mk = s.makespan(),
                ok = r_avg <= 3.0,
                sp = nk / s.makespan() as f64,
            ));
        }
    }
    eprintln!(
        "# geometric-mean ratio to lower bound: {:.3} (paper: 'usually less than 3')",
        geometric_mean(&all_ratios)
    );
    sink.finish();
}
