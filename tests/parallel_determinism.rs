//! Determinism property tests for the parallel execution layer
//! (ISSUE 4): worker count must never change a result, bit for bit.
//!
//! Three levels are checked against both the forced sequential path
//! (`--threads 1`) and the old hand-rolled sequential code:
//!
//! 1. [`induce_all`] — DAG induction fanned over the pool vs a plain
//!    per-direction `induce_dag` loop;
//! 2. [`best_of_trials`] — parallel best-of-`b` vs
//!    [`best_of_trials_seq`], at several widths;
//! 3. a full bench cell — `run_fig3` executed at 1 and 4 threads into
//!    separate directories, CSVs compared byte for byte.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use std::sync::Mutex;

use sweep_scheduling::core::{
    best_of_trials_seq, best_of_trials_with_pool, Algorithm, TrialContext, TrialScratch,
};
use sweep_scheduling::dag::{induce_all, induce_dag, SweepInstance};
use sweep_scheduling::pool::{set_global_threads, ThreadPool};
use sweep_scheduling::prelude::*;

/// The pool's thread-count setting is process-global and cargo's test
/// harness is multithreaded, so tests that touch it must not overlap.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// All ten algorithms: the §5.2 comparison set and the three outside it.
fn all_algorithms() -> Vec<Algorithm> {
    let mut all = Algorithm::COMPARISON_SET.to_vec();
    all.extend([
        Algorithm::LevelPriority { delays: true },
        Algorithm::ImprovedRandomDelay,
        Algorithm::ImprovedWithPriorities,
    ]);
    all
}

#[test]
fn induce_all_is_thread_count_invariant() {
    let _guard = POOL_LOCK.lock().unwrap();
    let mesh = MeshPreset::Tetonly.build_scaled(0.01).expect("mesh");
    let quad = QuadratureSet::level_symmetric(2).expect("S2");

    // The pre-pool sequential reference: one induce_dag call per
    // direction, in direction order.
    let reference: Vec<_> = quad
        .iter()
        .map(|(_, omega)| induce_dag(&mesh, omega))
        .collect();

    for threads in [1usize, 2, 4, 8] {
        set_global_threads(threads);
        let (dags, stats) = induce_all(&mesh, &quad);
        assert_eq!(dags.len(), reference.len());
        for (d, ((dag, stat), (rdag, rstat))) in dags.iter().zip(&stats).zip(&reference).enumerate()
        {
            assert_eq!(dag, rdag, "direction {d} DAG differs at {threads} threads");
            assert_eq!(
                stat, rstat,
                "direction {d} stats differ at {threads} threads"
            );
        }
    }
    set_global_threads(0);
}

#[test]
fn best_of_trials_is_thread_count_invariant() {
    let _guard = POOL_LOCK.lock().unwrap();
    let instance = SweepInstance::random_layered(80, 4, 6, 3, 11);
    let assignment = Assignment::random_cells(instance.num_cells(), 8, 3);
    let alg = Algorithm::RandomDelayPriorities;
    let (b, master) = (12, 2005);

    let reference = best_of_trials_seq(&instance, &assignment, alg, b, master);
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let got = best_of_trials_with_pool(&pool, &instance, &assignment, alg, b, master);
        assert_eq!(got.trial, reference.trial, "winner at {threads} threads");
        assert_eq!(
            got.seed, reference.seed,
            "winning seed at {threads} threads"
        );
        assert_eq!(
            got.outcomes, reference.outcomes,
            "outcomes at {threads} threads"
        );
        assert_eq!(
            got.schedule.starts(),
            reference.schedule.starts(),
            "winning schedule at {threads} threads"
        );
        validate(&instance, &got.schedule).expect("winner must stay feasible");
    }
    set_global_threads(0);
}

/// 100-round randomized steal-storm: every round draws a fresh
/// (trial count, width, master seed, algorithm) tuple and diffs the
/// lock-free parallel path against the sequential oracle. Small trial
/// counts and uneven widths maximize contended CAS splits on the
/// range queues — exactly the protocol paths the pool model explores
/// exhaustively, here exercised on real schedules — and on the slot that
/// holds the best trial so far. The rounds cycle through all ten
/// algorithms, shifted by one every ten rounds so that each meets odd and
/// even widths.
#[test]
fn steal_storm_matches_sequential_oracle_100_rounds() {
    let _guard = POOL_LOCK.lock().unwrap();
    let instance = SweepInstance::random_layered(48, 3, 5, 2, 7);
    let assignment = Assignment::random_cells(instance.num_cells(), 6, 5);
    let algs = all_algorithms();
    for round in 0..100usize {
        let b = 1 + (round * 7) % 19;
        let threads = 1 + (round * 3) % 8;
        let master = (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let alg = algs[(round + round / 10) % algs.len()];
        let seq = best_of_trials_seq(&instance, &assignment, alg, b, master);
        let pool = ThreadPool::new(threads);
        let par = best_of_trials_with_pool(&pool, &instance, &assignment, alg, b, master);
        assert_eq!(par.trial, seq.trial, "round {round} winner");
        assert_eq!(par.outcomes, seq.outcomes, "round {round} outcomes");
        assert_eq!(
            par.schedule.starts(),
            seq.schedule.starts(),
            "round {round} schedule (b={b}, threads={threads})"
        );
    }
    set_global_threads(0);
}

/// After the first trial warms a worker's scratch arena, further
/// trials on the tetonly preset must not grow a buffer: the grow-event
/// counter stays flat across 48 post-warm-up trials for every
/// algorithm.
#[test]
fn scratch_arena_is_allocation_free_after_warm_up() {
    let mesh = MeshPreset::Tetonly.build_scaled(0.01).expect("mesh");
    let quad = QuadratureSet::level_symmetric(2).expect("S2");
    let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "scratch_test");
    let assignment = Assignment::random_cells(instance.num_cells(), 8, 1);
    for alg in all_algorithms() {
        let ctx = TrialContext::new(&instance, &assignment, alg);
        let mut scratch = TrialScratch::new();
        ctx.run_trial(1, &mut scratch); // warm-up: reserves worst case
        let grows_after_warm_up = scratch.grow_events();
        for seed in 2..50u64 {
            ctx.run_trial(seed, &mut scratch);
        }
        assert_eq!(scratch.trials(), 49);
        assert_eq!(
            scratch.grow_events(),
            grows_after_warm_up,
            "{alg:?} grew a buffer after warm-up"
        );
    }
}

#[test]
fn bench_cell_csv_is_byte_identical_across_widths() {
    let _guard = POOL_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join("sweep-par-determinism-test");
    let mut csvs = Vec::new();
    for threads in [1usize, 4] {
        let args = sweep_bench::BenchArgs {
            scale: 0.003,
            out: base.join(format!("t{threads}")),
            seed: 9,
            threads,
        };
        set_global_threads(threads);
        sweep_bench::run_fig3(
            &args,
            MeshPreset::Tetonly,
            64,
            PriorityScheme::Level,
            "det_cell",
        );
        csvs.push(
            std::fs::read_to_string(args.out.join("det_cell.csv")).expect("cell must write CSV"),
        );
    }
    set_global_threads(0);
    assert!(csvs[0].lines().count() >= 2, "at least one data row");
    assert_eq!(
        csvs[0], csvs[1],
        "bench cell differs between 1 and 4 threads"
    );
}
