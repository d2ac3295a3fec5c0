//! Shared infrastructure for the experiment harness: argument parsing,
//! mesh construction at a chosen scale, and CSV emission.
//!
//! Every binary under `src/bin/` regenerates one figure or claim of the
//! paper (see DESIGN.md §4 and EXPERIMENTS.md). All accept:
//!
//! * `--scale <f>` — mesh scale relative to the paper's cell counts
//!   (default 0.05; `1.0` reproduces the full-size meshes);
//! * `--out <dir>` — directory for CSV output (default `results/`);
//! * `--seed <u64>` — base RNG seed (default 2005, the paper's year);
//! * `--threads <n>` — worker threads for the parallel execution layer
//!   (default: available parallelism; `1` forces the sequential path —
//!   outputs are bit-identical either way).
//!
//! Output goes to stdout *and* `<out>/<experiment>.csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use sweep_core::Assignment;
use sweep_dag::SweepInstance;
use sweep_mesh::{MeshPreset, SweepMesh, TetMesh};
use sweep_partition::{block_partition, CsrGraph, PartitionOptions};
use sweep_quadrature::QuadratureSet;

/// Common command-line options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Mesh scale in `(0, 1]`.
    pub scale: f64,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the parallel execution layer (`0` = available
    /// parallelism).
    pub threads: usize,
}

impl BenchArgs {
    /// Parses `--scale`, `--out`, `--seed`, `--threads` from
    /// `std::env::args`. Unknown flags abort with a usage message.
    pub fn parse() -> BenchArgs {
        let mut args = BenchArgs {
            scale: 0.05,
            out: PathBuf::from("results"),
            seed: 2005,
            threads: 0,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => args.scale = value("--scale").parse().expect("numeric --scale"),
                "--out" => args.out = PathBuf::from(value("--out")),
                "--seed" => args.seed = value("--seed").parse().expect("integer --seed"),
                "--threads" => {
                    args.threads = value("--threads").parse().expect("integer --threads")
                }
                "--help" | "-h" => {
                    eprintln!("usage: <bench> [--scale f] [--out dir] [--seed u64] [--threads n]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        assert!(
            args.scale > 0.0 && args.scale <= 1.0,
            "--scale must be in (0, 1]"
        );
        sweep_pool::set_global_threads(args.threads);
        args
    }

    /// Builds a preset mesh at the chosen scale.
    pub fn mesh(&self, preset: MeshPreset) -> TetMesh {
        preset
            .build_scaled(self.scale)
            .unwrap_or_else(|e| panic!("building {}: {e}", preset.name()))
    }

    /// Builds the instance for a preset mesh and S_n order.
    pub fn instance(&self, preset: MeshPreset, sn: usize) -> (TetMesh, SweepInstance) {
        let mesh = self.mesh(preset);
        let quad = QuadratureSet::level_symmetric(sn).expect("valid S_n order");
        let (inst, _) =
            SweepInstance::from_mesh(&mesh, &quad, format!("{}@{}", preset.name(), self.scale));
        (mesh, inst)
    }

    /// A block size scaled to keep the *number of blocks* comparable to a
    /// full-size run with `paper_block`; at least 2 cells per block.
    pub fn scaled_block(&self, paper_block: usize) -> usize {
        ((paper_block as f64 * self.scale).round() as usize).max(2)
    }

    /// Processor counts `2, 4, …` capped so the largest stays below
    /// `tasks/4` (pointless parallelism otherwise at small scales).
    pub fn proc_sweep(&self, max_m: usize, tasks: usize) -> Vec<usize> {
        let mut ms = Vec::new();
        let mut m = 2usize;
        while m <= max_m && m * 4 <= tasks {
            ms.push(m);
            m *= 2;
        }
        ms
    }
}

/// Fans an experiment grid across the global thread pool, preserving
/// input order.
///
/// Each cell must be a pure function of its input (derive any RNG seed
/// from the cell's own parameters, as the bench binaries already do);
/// the result vector is then bit-identical at every `--threads` count.
pub fn par_grid<C, R>(cells: &[C], f: impl Fn(&C) -> R + Sync) -> Vec<R>
where
    C: Sync,
    R: Send,
{
    sweep_pool::global().par_map(cells, |_, c| f(c))
}

/// Block partition of a mesh's cell-adjacency graph.
pub fn mesh_blocks(mesh: &TetMesh, block_size: usize) -> Vec<u32> {
    let (xadj, adjncy) = mesh.adjacency_csr();
    let graph = CsrGraph::from_csr_parts(xadj, adjncy);
    block_partition(&graph, block_size, &PartitionOptions::default())
}

/// Assignment policy used by an experiment row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignPolicy<'a> {
    /// Per-cell uniform random.
    PerCell,
    /// Per-block uniform random over the given block map.
    PerBlock(&'a [u32]),
}

impl AssignPolicy<'_> {
    /// Draws the assignment.
    pub fn draw(&self, n: usize, m: usize, seed: u64) -> Assignment {
        match self {
            AssignPolicy::PerCell => Assignment::random_cells(n, m, seed),
            AssignPolicy::PerBlock(blocks) => Assignment::random_blocks(blocks, m, seed),
        }
    }

    /// Label for CSV rows.
    pub fn label(&self) -> &'static str {
        match self {
            AssignPolicy::PerCell => "per_cell",
            AssignPolicy::PerBlock(_) => "per_block",
        }
    }
}

/// Collects CSV rows and mirrors them to stdout; [`CsvSink::finish`]
/// writes the file.
pub struct CsvSink {
    name: String,
    out: PathBuf,
    buffer: String,
}

impl CsvSink {
    /// Starts a sink with the given header (comma-separated column names).
    pub fn new(args: &BenchArgs, name: &str, header: &str) -> CsvSink {
        println!(
            "# experiment: {name} (scale {:.3}, seed {})",
            args.scale, args.seed
        );
        println!("{header}");
        CsvSink {
            name: name.to_string(),
            out: args.out.clone(),
            buffer: format!("{header}\n"),
        }
    }

    /// Emits one row.
    pub fn row(&mut self, row: std::fmt::Arguments<'_>) {
        let mut line = String::new();
        let _ = write!(line, "{row}");
        println!("{line}");
        self.buffer.push_str(&line);
        self.buffer.push('\n');
    }

    /// Writes the CSV file and returns its path.
    pub fn finish(self) -> PathBuf {
        let path = self.out.join(format!("{}.csv", self.name));
        if let Err(e) = fs::create_dir_all(&self.out) {
            eprintln!("warning: cannot create {}: {e}", self.out.display());
            return path;
        }
        if let Err(e) = fs::write(&path, &self.buffer) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("# wrote {}", path.display());
        }
        path
    }
}

/// Shared driver for the Figure 3 family: compares "Random Delays with
/// Priorities" against a heuristic priority scheme with and without random
/// delays, under a fixed block assignment (the paper fixes the block
/// assignment so C1 is identical across algorithms and only makespans are
/// compared). One CSV row per `(S_n, m)`.
pub fn run_fig3(
    args: &BenchArgs,
    preset: MeshPreset,
    paper_block: usize,
    scheme: sweep_core::PriorityScheme,
    experiment: &str,
) {
    use sweep_core::{approx_ratio, random_delay_priorities, schedule_with_priorities, validate};
    let mut sink = CsvSink::new(
        args,
        experiment,
        "directions,m,block,ratio_rdp,ratio_heur,ratio_heur_delays",
    );
    for sn in [2usize, 4, 6] {
        let (mesh, instance) = args.instance(preset, sn);
        let k = instance.num_directions();

        let block = args.scaled_block(paper_block);
        let blocks = mesh_blocks(&mesh, block);
        let ms = args.proc_sweep(512, instance.num_tasks());
        // Each m-cell is a pure function of (instance, blocks, m, seed),
        // so the grid fans out over the pool and the rows come back in
        // m-order — the CSV is bit-identical at every --threads count.
        let rows = par_grid(&ms, |&m| {
            let seed = args.seed ^ ((m as u64) << 16) ^ sn as u64;
            let a = Assignment::random_blocks(&blocks, m, seed);
            let s_rdp = random_delay_priorities(&instance, a.clone(), seed);
            let s_heur = schedule_with_priorities(&instance, a.clone(), scheme, None);
            let s_heur_d = schedule_with_priorities(&instance, a, scheme, Some(seed ^ 0xd3));
            for s in [&s_rdp, &s_heur, &s_heur_d] {
                validate(&instance, s).expect("feasible");
            }
            format!(
                "{k},{m},{block},{r0:.3},{r1:.3},{r2:.3}",
                r0 = approx_ratio(&instance, m, s_rdp.makespan()),
                r1 = approx_ratio(&instance, m, s_heur.makespan()),
                r2 = approx_ratio(&instance, m, s_heur_d.makespan()),
            )
        });
        for row in rows {
            sink.row(format_args!("{row}"));
        }
    }
    sink.finish();
}

/// Geometric-mean helper for summarizing ratio columns.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_args() -> BenchArgs {
        BenchArgs {
            scale: 0.01,
            out: std::env::temp_dir().join("sweep-bench-test"),
            seed: 1,
            threads: 0,
        }
    }

    #[test]
    fn scaled_block_floors_at_two() {
        let a = test_args();
        assert_eq!(a.scaled_block(64), 2);
        let b = BenchArgs {
            scale: 0.5,
            ..test_args()
        };
        assert_eq!(b.scaled_block(64), 32);
    }

    #[test]
    fn proc_sweep_respects_caps() {
        let a = test_args();
        let ms = a.proc_sweep(512, 1000);
        assert!(ms.iter().all(|&m| m * 4 <= 1000));
        assert!(ms.windows(2).all(|w| w[1] == 2 * w[0]));
    }

    #[test]
    fn instance_builds() {
        let a = test_args();
        let (mesh, inst) = a.instance(MeshPreset::Tetonly, 2);
        assert_eq!(inst.num_cells(), mesh.num_cells());
        assert_eq!(inst.num_directions(), 8);
    }

    #[test]
    fn csv_sink_writes() {
        let a = test_args();
        let mut sink = CsvSink::new(&a, "unit_test", "a,b");
        sink.row(format_args!("1,2"));
        let path = sink.finish();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn run_fig3_smoke() {
        // Keeps the Figure 3 experiment driver itself under test: one
        // minuscule configuration end-to-end (S2 only is exercised because
        // proc_sweep caps by task count at this scale).
        let args = BenchArgs {
            scale: 0.003,
            out: std::env::temp_dir().join("sweep-bench-fig3-test"),
            seed: 1,
            threads: 0,
        };
        run_fig3(
            &args,
            MeshPreset::Tetonly,
            64,
            sweep_core::PriorityScheme::Level,
            "fig3_smoke_test",
        );
        let csv = std::fs::read_to_string(args.out.join("fig3_smoke_test.csv"))
            .expect("experiment must write its CSV");
        assert!(csv.starts_with("directions,m,block,"));
        assert!(csv.lines().count() >= 2, "at least one data row");
    }

    #[test]
    fn par_grid_is_order_preserving_and_thread_invariant() {
        let cells: Vec<u64> = (0..40).collect();
        let f = |&c: &u64| c.wrapping_mul(0x9e37_79b9).rotate_left(11);
        sweep_pool::set_global_threads(1);
        let seq = par_grid(&cells, f);
        sweep_pool::set_global_threads(4);
        let par = par_grid(&cells, f);
        sweep_pool::set_global_threads(0);
        assert_eq!(seq, par);
        assert_eq!(seq, cells.iter().map(f).collect::<Vec<_>>());
    }

    #[test]
    fn mesh_blocks_cover_all_cells() {
        let a = test_args();
        let mesh = a.mesh(MeshPreset::Tetonly);
        let blocks = mesh_blocks(&mesh, 8);
        assert_eq!(blocks.len(), mesh.num_cells());
    }
}
