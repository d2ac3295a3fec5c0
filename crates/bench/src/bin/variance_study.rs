//! **Extension: variance of the randomized algorithms** — Theorems 1–2
//! are "with high probability" statements; this experiment replicates
//! each randomized algorithm across independent delay/assignment draws
//! and reports mean ± std of the makespan, confirming that the makespan
//! concentrates tightly (coefficient of variation of a few percent) so
//! single-draw comparisons like the paper's plots are meaningful.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin variance_study -- --scale 0.05
//! ```

use sweep_bench::{BenchArgs, CsvSink};
use sweep_core::{lower_bounds, Algorithm, Assignment};
use sweep_dag::SweepInstance;
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    let (_, instance) = args.instance(MeshPreset::Tetonly, 4);
    let runs = 10;
    let mut sink = CsvSink::new(
        &args,
        "variance_study",
        "algorithm,m,runs,min,mean,max,std_dev,cv,mean_ratio_lb",
    );
    for m in [16usize, 64, 256] {
        if m * 4 > instance.num_tasks() {
            continue;
        }
        let lb = lower_bounds(&instance, m).paper() as f64;
        for alg in [
            Algorithm::RandomDelay,
            Algorithm::RandomDelayPriorities,
            Algorithm::DescendantPriority { delays: true },
            Algorithm::Dfds { delays: true },
        ] {
            let sum = Summary::of(&replicate(&instance, alg, m, args.seed, runs));
            sink.row(format_args!(
                "{name},{m},{runs},{min},{mean:.1},{max},{sd:.1},{cv:.4},{ratio:.3}",
                name = alg.name(),
                runs = sum.runs,
                min = sum.min,
                mean = sum.mean,
                max = sum.max,
                sd = sum.std_dev,
                cv = sum.cv(),
                ratio = sum.mean / lb,
            ));
        }
    }
    sink.finish();
}

/// The makespans of `runs` replicates of `algorithm` on `m` processors,
/// in seed order. Replicate `i` draws a fresh per-cell assignment from
/// `base_seed + i·0x9e37_79b9_7f4a_7c15` and its delays from that seed
/// `^ 0x5eed`.
///
/// # Panics
/// Panics when `runs == 0`.
fn replicate(
    instance: &SweepInstance,
    algorithm: Algorithm,
    m: usize,
    base_seed: u64,
    runs: usize,
) -> Vec<u32> {
    assert!(runs > 0, "need at least one replicate");
    let n = instance.num_cells();
    let makespan = |i: u64| {
        let seed = base_seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let assignment = Assignment::random_cells(n, m, seed);
        algorithm
            .run(instance, assignment, seed ^ 0x5eed)
            .makespan()
    };
    (0..runs as u64).map(makespan).collect()
}

/// Summary statistics over replicated makespans; `std_dev` is the
/// sample standard deviation (n−1 denominator; 0 for a single run).
struct Summary {
    runs: usize,
    min: u32,
    max: u32,
    mean: f64,
    std_dev: f64,
}

impl Summary {
    fn of(samples: &[u32]) -> Summary {
        let runs = samples.len();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / runs as f64;
        // A single run's one square is 0, so dividing it by 1 gives 0.
        let squares = samples.iter().map(|&x| (x as f64 - mean).powi(2));
        let var = squares.sum::<f64>() / (runs.max(2) - 1) as f64;
        let (min, max) = (samples.iter().min(), samples.iter().max());
        Summary {
            runs,
            min: *min.expect("non-empty"),
            max: *max.expect("non-empty"),
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Coefficient of variation `σ/μ` — the concentration measure.
    fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_correct() {
        let s = Summary::of(&[10, 12, 14]);
        assert_eq!(s.runs, 3);
        assert_eq!((s.min, s.max), (10, 14));
        assert!((s.mean - 12.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert!((s.cv() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn single_run_zero_deviation() {
        let s = Summary::of(&[7]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn replicates_vary_with_random_draws_but_not_fixed_seeds() {
        let inst = SweepInstance::random_layered(80, 4, 6, 2, 1);
        let samples = replicate(&inst, Algorithm::RandomDelayPriorities, 8, 100, 6);
        let sum = Summary::of(&samples);
        assert_eq!(sum.runs, 6);
        assert!(sum.min <= sum.max);
        // Deterministic reproduction.
        let samples2 = replicate(&inst, Algorithm::RandomDelayPriorities, 8, 100, 6);
        assert_eq!(samples, samples2);
    }

    #[test]
    fn makespan_concentrates() {
        // The w.h.p. flavour of Theorem 1: the coefficient of variation
        // across replicates is small on reasonable instances.
        let inst = SweepInstance::random_layered(400, 8, 10, 2, 3);
        let sum = Summary::of(&replicate(
            &inst,
            Algorithm::RandomDelayPriorities,
            16,
            7,
            8,
        ));
        assert!(sum.cv() < 0.1, "cv = {:.3}", sum.cv());
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_runs_panics() {
        let inst = SweepInstance::identical_chains(3, 1);
        replicate(&inst, Algorithm::Greedy, 1, 0, 0);
    }
}
