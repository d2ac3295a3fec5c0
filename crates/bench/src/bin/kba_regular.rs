//! **Extension: KBA on regular meshes** — the paper's related work notes
//! that "when the mesh is very regular, the KBA algorithm \[6\] is known to
//! be essentially optimal". This experiment builds a *structured*
//! (zero-jitter) mesh, runs the classical KBA columnar assignment with a
//! wavefront (level-priority) schedule, and compares makespan and C1
//! against the random-delay algorithms — quantifying what the provable
//! algorithms give up (communication) and gain (generality) on KBA's home
//! turf.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin kba_regular -- --scale 0.2
//! ```

use sweep_bench::{BenchArgs, CsvSink};
use sweep_core::{
    c1_interprocessor_edges, kba_assignment, lower_bounds, validate, Algorithm, Assignment,
};
use sweep_dag::SweepInstance;
use sweep_mesh::{generate, GeneratorConfig, SweepMesh};
use sweep_quadrature::QuadratureSet;

fn main() {
    let args = BenchArgs::parse();
    // Structured cube sized from --scale: side ~ (scale * 31481/12)^(1/3).
    let side = (((args.scale * 31481.0) / 12.0).cbrt().round() as usize).max(4);
    let mut cfg = GeneratorConfig::cube(side, args.seed);
    cfg.jitter = 0.0;
    let mesh = generate(&cfg).expect("structured mesh");
    let quad = QuadratureSet::level_symmetric(4).expect("S4");
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "structured");
    eprintln!(
        "# structured cube {side}^3 hexes: {} cells, {} tasks",
        mesh.num_cells(),
        instance.num_tasks()
    );

    let mut sink = CsvSink::new(
        &args,
        "kba_regular",
        "m,algorithm,makespan,ratio_lb,c1,cut_fraction",
    );
    let ms: Vec<usize> = args
        .proc_sweep(256, instance.num_tasks())
        .into_iter()
        .filter(|&m| m >= 4)
        .collect();
    for &m in &ms {
        let lb = lower_bounds(&instance, m).paper();
        let runs: Vec<(&str, sweep_core::Schedule)> = vec![
            (
                "kba_wavefront",
                Algorithm::LevelPriority { delays: false }.run(
                    &instance,
                    kba_assignment(cfg.nx, cfg.ny, cfg.nz, mesh.num_cells(), m),
                    args.seed,
                ),
            ),
            (
                "rdp_per_cell",
                Algorithm::RandomDelayPriorities.run(
                    &instance,
                    Assignment::random_cells(mesh.num_cells(), m, args.seed ^ m as u64),
                    args.seed,
                ),
            ),
            (
                "rdp_kba_assignment",
                Algorithm::RandomDelayPriorities.run(
                    &instance,
                    kba_assignment(cfg.nx, cfg.ny, cfg.nz, mesh.num_cells(), m),
                    args.seed,
                ),
            ),
        ];
        for (name, s) in runs {
            validate(&instance, &s).expect("feasible");
            let c1 = c1_interprocessor_edges(&instance, s.assignment());
            sink.row(format_args!(
                "{m},{name},{mk},{ratio:.3},{c1},{frac:.4}",
                mk = s.makespan(),
                ratio = s.makespan() as f64 / lb as f64,
                frac = c1 as f64 / instance.total_edges() as f64,
            ));
        }
    }
    sink.finish();
}
