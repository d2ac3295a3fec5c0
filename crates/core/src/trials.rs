//! Best-of-`b` multi-trial scheduling with deterministic parallelism.
//!
//! The paper's randomized algorithms (random delay, RDP, Algorithm 3)
//! hold their guarantees in expectation; in practice one runs several
//! independent delay draws and keeps the best schedule. The draws are
//! embarrassingly parallel, so [`best_of_trials`] fans them across the
//! [`sweep_pool`] worker threads: every algorithm's trials run on
//! per-worker scratch arenas off one shared [`TrialContext`], and the
//! trial that wins *is* the schedule — its start times are copied out of
//! the arena when it takes the lead, nothing is computed twice.
//!
//! Determinism is preserved by construction: trial `i` runs with the
//! child seed `rand::split_seed(master_seed, i)` — a pure function of
//! `(master_seed, i)` — so every trial's schedule is independent of
//! which worker ran it or in what order. The winner is the minimum
//! under the total order `(makespan, trial index)`, which no
//! interleaving can change, so the returned schedule is bit-identical to
//! the sequential reference loop ([`best_of_trials_seq`]) at every
//! worker count.

use std::sync::Mutex;

use sweep_dag::SweepInstance;
use sweep_pool::ThreadPool;
use sweep_telemetry as telemetry;

use crate::algorithms::Algorithm;
use crate::assignment::Assignment;
use crate::schedule::Schedule;
use crate::scratch::{TrialContext, TrialScratch};

/// One trial's result in a best-of-`b` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Trial index in `0..b`.
    pub trial: usize,
    /// The child seed the trial ran with
    /// (`rand::split_seed(master_seed, trial)`).
    pub seed: u64,
    /// Makespan the trial achieved.
    pub makespan: u32,
}

/// Result of [`best_of_trials`]: the winning schedule plus the full
/// per-trial record (for variance studies and reporting).
#[derive(Debug, Clone)]
pub struct BestOfTrials {
    /// Minimum-makespan schedule; ties broken by lowest trial index.
    pub schedule: Schedule,
    /// Index of the winning trial.
    pub trial: usize,
    /// Child seed of the winning trial.
    pub seed: u64,
    /// Every trial's outcome, in trial order.
    pub outcomes: Vec<TrialOutcome>,
}

impl BestOfTrials {
    /// The one place outcomes are built: every trial's seed and
    /// makespan, around the winning `trial` and its `schedule`.
    fn new(seeds: &[u64], makespans: &[u32], trial: usize, schedule: Schedule) -> BestOfTrials {
        debug_assert_eq!(schedule.makespan(), makespans[trial]);
        let outcome = |(trial, (&seed, &makespan))| TrialOutcome {
            trial,
            seed,
            makespan,
        };
        BestOfTrials {
            schedule,
            trial,
            seed: seeds[trial],
            outcomes: seeds
                .iter()
                .zip(makespans)
                .enumerate()
                .map(outcome)
                .collect(),
        }
    }
}

/// The `b` child seeds a master seed splits into — trial `i` always
/// gets `split_seed(master_seed, i)`, in every execution mode.
pub fn trial_seeds(master_seed: u64, b: usize) -> Vec<u64> {
    (0..b as u64)
        .map(|i| rand::split_seed(master_seed, i))
        .collect()
}

/// Runs `b` independent trials of `algorithm` on the global thread pool
/// and keeps the best schedule. See [`best_of_trials_with_pool`].
pub fn best_of_trials(
    instance: &SweepInstance,
    assignment: &Assignment,
    algorithm: Algorithm,
    b: usize,
    master_seed: u64,
) -> BestOfTrials {
    best_of_trials_with_pool(
        &sweep_pool::global(),
        instance,
        assignment,
        algorithm,
        b,
        master_seed,
    )
}

/// Runs `b` independent trials of `algorithm` on an explicit pool and
/// keeps the minimum-makespan schedule (ties → lowest trial index).
///
/// Bit-identical to [`best_of_trials_seq`] at every worker count: each
/// trial's seed is split from the master ahead of time, so its schedule
/// does not depend on the execution interleaving.
///
/// # Panics
/// Panics when `b == 0` — there is no schedule to return.
pub fn best_of_trials_with_pool(
    pool: &ThreadPool,
    instance: &SweepInstance,
    assignment: &Assignment,
    algorithm: Algorithm,
    b: usize,
    master_seed: u64,
) -> BestOfTrials {
    assert!(b > 0, "best_of_trials needs at least one trial");
    let _span = telemetry::span!("sched.best_of_trials");
    let seeds = trial_seeds(master_seed, b);
    telemetry::counter_add("sched.trials", b as u64);
    let ctx = TrialContext::new(instance, assignment, algorithm);
    // An algorithm that draws no delays yields one schedule whatever the
    // seed: trial 0 runs, and stands for the other `b − 1`.
    let runs = if ctx.draws_delays() { b } else { 1 };
    // The best `(makespan, trial)` so far and its start times. The vector
    // is allocated here, on the calling thread, and a trial that takes
    // the lead copies into it: swapping a worker's buffer in instead
    // would leave the returned schedule — which a cache may hold for
    // long — pinning memory in that worker's malloc arena.
    let starts = Vec::with_capacity(instance.num_tasks());
    let best = Mutex::new(((u32::MAX, usize::MAX), starts));
    let mut makespans = pool.par_map_scratch(runs, TrialScratch::new, |trial, scratch| {
        let makespan = ctx.run_trial(seeds[trial], scratch);
        let mut best = best.lock().expect("no trial panics holding the lock");
        if (makespan, trial) < best.0 {
            best.0 = (makespan, trial);
            best.1.clear();
            best.1.extend_from_slice(ctx.starts(scratch));
        }
        makespan
    });
    makespans.resize(b, makespans[0]);
    let ((_, trial), starts) = best.into_inner().expect("every trial has returned");
    let schedule = Schedule::new_checked(starts, assignment.clone());
    BestOfTrials::new(&seeds, &makespans, trial, schedule)
}

/// The sequential reference loop: same seeds, same selection rule, one
/// allocating [`Algorithm::run`] per seed — no pool, no context, no
/// scratch. Exists so tests (and the SW023 analyzer) can diff the
/// parallel path against an independent implementation.
pub fn best_of_trials_seq(
    instance: &SweepInstance,
    assignment: &Assignment,
    algorithm: Algorithm,
    b: usize,
    master_seed: u64,
) -> BestOfTrials {
    assert!(b > 0, "best_of_trials needs at least one trial");
    let seeds = trial_seeds(master_seed, b);
    let mut makespans = Vec::with_capacity(b);
    let mut best: Option<(usize, Schedule)> = None;
    for (trial, &seed) in seeds.iter().enumerate() {
        let schedule = algorithm.run(instance, assignment.clone(), seed);
        makespans.push(schedule.makespan());
        // Strictly smaller replaces: ties stay with the lowest index.
        match &best {
            Some((_, lead)) if lead.makespan() <= schedule.makespan() => {}
            _ => best = Some((trial, schedule)),
        }
    }
    let (trial, schedule) = best.expect("b > 0 checked above");
    BestOfTrials::new(&seeds, &makespans, trial, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;

    #[test]
    fn parallel_matches_sequential_reference() {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 11);
        let a = Assignment::random_cells(60, 6, 3);
        // One algorithm that draws delays and one that does not (a single
        // run, its makespan repeated under all `b` seeds).
        let level = Algorithm::LevelPriority { delays: false };
        for alg in [Algorithm::RandomDelayPriorities, level] {
            for b in [1usize, 2, 7, 16] {
                let seq = best_of_trials_seq(&inst, &a, alg, b, 42);
                for threads in [1usize, 2, 4, 8] {
                    let pool = ThreadPool::new(threads);
                    let par = best_of_trials_with_pool(&pool, &inst, &a, alg, b, 42);
                    assert_eq!(par.trial, seq.trial, "{alg:?} b={b} threads={threads}");
                    assert_eq!(par.seed, seq.seed);
                    assert_eq!(par.outcomes, seq.outcomes);
                    assert_eq!(par.schedule.starts(), seq.schedule.starts());
                }
            }
        }
    }

    #[test]
    fn winner_is_the_minimum_makespan() {
        let inst = SweepInstance::random_layered(50, 3, 5, 2, 5);
        let a = Assignment::random_cells(50, 5, 9);
        let best = best_of_trials(&inst, &a, Algorithm::RandomDelay, 12, 7);
        validate(&inst, &best.schedule).unwrap();
        assert_eq!(best.outcomes.len(), 12);
        let min = best.outcomes.iter().map(|o| o.makespan).min().unwrap();
        assert_eq!(best.schedule.makespan(), min);
        assert_eq!(best.outcomes[best.trial].makespan, min);
        // Outcomes arrive in trial order regardless of worker count.
        assert!(best
            .outcomes
            .windows(2)
            .all(|w| w[0].trial + 1 == w[1].trial));
    }

    #[test]
    fn ties_break_to_the_lowest_trial_index() {
        // Greedy ignores the seed, so all trials tie — the winner must
        // be trial 0 under the (makespan, trial) ordering.
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 2);
        let a = Assignment::random_cells(40, 4, 1);
        let best = best_of_trials(&inst, &a, Algorithm::Greedy, 8, 123);
        assert_eq!(best.trial, 0);
    }

    #[test]
    fn seeds_are_split_not_sequential() {
        let seeds = trial_seeds(99, 4);
        assert_eq!(seeds.len(), 4);
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, rand::split_seed(99, i as u64));
            assert_ne!(s, 99, "child seed must not collapse to the master");
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let inst = SweepInstance::random_layered(10, 2, 3, 1, 0);
        let a = Assignment::single(10);
        best_of_trials(&inst, &a, Algorithm::Greedy, 0, 0);
    }
}
