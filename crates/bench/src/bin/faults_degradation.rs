//! **Extension: robustness of priority schemes under faults** — how does
//! the degraded makespan grow with the fault rate, and do the paper's
//! random-delay priorities stay ahead of the DFDS heuristic when
//! processors crash and messages drop?
//!
//! For each fault rate `r` a deterministic `FaultPlan` (crash rate `r`,
//! drop rate `r`, seeded) is injected into the async simulator for both
//! priority schemes on the same tetonly instance and assignment.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin faults_degradation -- --scale 0.05
//! ```

use sweep_bench::{BenchArgs, CsvSink};
use sweep_core::{delayed_level_priorities, dfds_priorities, random_delays, Assignment};
use sweep_faults::FaultConfig;
use sweep_mesh::MeshPreset;
use sweep_sim::degradation_curve;

const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

fn main() {
    let args = BenchArgs::parse();
    let (_, instance) = args.instance(MeshPreset::Tetonly, 2);
    let n = instance.num_cells();
    let m = 8;
    let latency = 1.0;
    let assignment = Assignment::random_cells(n, m, args.seed);

    let rdp = delayed_level_priorities(
        &instance,
        &random_delays(instance.num_directions(), args.seed ^ 1),
    );
    let dfds = dfds_priorities(&instance, &assignment);

    let cfg = FaultConfig::default();
    let curve = |prio: &[i64]| {
        degradation_curve(
            &instance,
            &assignment,
            prio,
            None,
            latency,
            &cfg,
            &RATES,
            args.seed,
        )
    };
    let (curve_rdp, curve_dfds) = (curve(&rdp), curve(&dfds));

    let mut sink = CsvSink::new(
        &args,
        "faults_degradation",
        "rate,makespan_rdp,makespan_dfds,degradation_rdp,degradation_dfds,\
         retries_rdp,retries_dfds,recovered_rdp,recovered_dfds",
    );
    for (a, b) in curve_rdp.iter().zip(&curve_dfds) {
        sink.row(format_args!(
            "{},{},{},{:.4},{:.4},{},{},{},{}",
            a.rate,
            a.makespan,
            b.makespan,
            a.makespan / a.fault_free,
            b.makespan / b.fault_free,
            a.retries,
            b.retries,
            a.recovered_tasks,
            b.recovered_tasks,
        ));
    }
    sink.finish();
}
