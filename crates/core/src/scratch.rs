//! Arena-reused trial scratch for best-of-`b` scheduling.
//!
//! [`TrialContext`] hoists everything that depends only on `(instance,
//! assignment, algorithm)` out of the trial loop — the per-task level
//! table (a copy of the levels each DAG stores; no traversal) and the
//! in-degree template — and
//! [`TrialScratch`] keeps every per-trial buffer warm across trials
//! (reset, never freed), threaded through the pool as one scratch slot
//! per worker ([`sweep_pool::ThreadPool::par_map_scratch`]). For the list
//! scheduler those buffers are the rank kernel's
//! ([`mod@crate::list_schedule`]): the `(predecessors left, rank)` pair per
//! task, the rank → task table, the per-processor block offsets, the
//! counting-sort histogram and the ready bitset with its summary level.
//! Algorithm 2's priorities `level + delay` are read straight off the
//! hoisted levels while ranking; no per-trial priority vector exists.
//!
//! Steady state performs **zero heap allocations per trial**: the
//! scratch reserves every buffer to its worst case on first use
//! (warm-up) — the ranking buffers from the widest priority span the
//! context can produce, `max level + k` — and
//! [`TrialScratch::grow_events`] counts the runs in which any buffer
//! capacity actually changed. `scratch_grows_only_during_warm_up`
//! asserts the count stays flat after warm-up, and the `par_speedup`
//! bench reports it per width via the `sched.scratch.grows` /
//! `sched.scratch.trials` telemetry counters.
//!
//! Trials on the fast path produce *makespans only*; the winning
//! schedule is rematerialized afterwards by re-running the single
//! winning trial (a pure function of its seed), so no per-trial
//! `Schedule` is ever built. Algorithms outside the fast path
//! (Graham-preprocessed and heuristic-priority variants) fall back to
//! [`Algorithm::run`] per trial, unchanged.

use sweep_dag::SweepInstance;
use sweep_telemetry as telemetry;

use crate::algorithms::Algorithm;
use crate::assignment::Assignment;
use crate::list_schedule::{list_schedule_core, reserve, task_in_degrees, ListBuffers};
use crate::random_delay::{
    base_task_levels, delayed_levels, random_delay_core, random_delays_into, LayerBuffers,
};

/// Everything about a best-of-`b` run that does not depend on the
/// trial seed, computed once and shared (immutably) by all workers.
pub struct TrialContext<'a> {
    instance: &'a SweepInstance,
    assignment: &'a Assignment,
    algorithm: Algorithm,
    /// `level_i(v)` per task — the delay-independent part of `Γ`.
    base_levels: Vec<u32>,
    /// In-degree template per task (copied, not recomputed, per trial).
    indeg: Vec<u32>,
    /// Worst case for Algorithm 1's layer count, and so for the span of
    /// Algorithm 2's priorities: `max level + k`.
    max_layers: usize,
    fast: bool,
}

impl<'a> TrialContext<'a> {
    /// Precomputes the seed-independent trial state. Cheap for
    /// algorithms without a fast path (everything stays empty).
    pub fn new(
        instance: &'a SweepInstance,
        assignment: &'a Assignment,
        algorithm: Algorithm,
    ) -> TrialContext<'a> {
        let fast = matches!(
            algorithm,
            Algorithm::RandomDelay | Algorithm::RandomDelayPriorities | Algorithm::Greedy
        );
        let k = instance.num_directions();
        let needs_levels = fast && !matches!(algorithm, Algorithm::Greedy);
        let base_levels = if needs_levels {
            base_task_levels(instance)
        } else {
            Vec::new()
        };
        let needs_list = fast && !matches!(algorithm, Algorithm::RandomDelay);
        let indeg = if needs_list {
            task_in_degrees(instance).collect()
        } else {
            Vec::new()
        };
        let max_layers = base_levels.iter().copied().max().unwrap_or(0) as usize + k;
        TrialContext {
            instance,
            assignment,
            algorithm,
            base_levels,
            indeg,
            max_layers,
            fast,
        }
    }

    /// Whether trials run on the allocation-free scratch path.
    pub fn fast_path(&self) -> bool {
        self.fast
    }

    /// Runs one trial and returns its makespan — identical, by
    /// construction, to `algorithm.run(instance, assignment, seed)
    /// .makespan()`: the fast path executes the very same scheduling
    /// cores (`list_schedule_core` / `random_delay_core`) the
    /// allocating wrappers do, only on reused buffers.
    pub fn run_trial(&self, seed: u64, scratch: &mut TrialScratch) -> u32 {
        if !self.fast {
            return self
                .algorithm
                .run(self.instance, self.assignment.clone(), seed)
                .makespan();
        }
        let k = self.instance.num_directions();
        scratch.ensure(self);
        let caps_before = scratch.capacity_cells();
        let makespan = match self.algorithm {
            Algorithm::RandomDelay => {
                random_delays_into(k, seed, &mut scratch.delays);
                random_delay_core(
                    self.instance,
                    self.assignment,
                    &scratch.delays,
                    &self.base_levels,
                    &mut scratch.layer,
                )
            }
            Algorithm::RandomDelayPriorities => {
                random_delays_into(k, seed, &mut scratch.delays);
                list_schedule_core(
                    self.instance,
                    self.assignment,
                    delayed_levels(&self.base_levels, &scratch.delays),
                    None,
                    Some(&self.indeg),
                    &mut scratch.list,
                )
            }
            Algorithm::Greedy => list_schedule_core(
                self.instance,
                self.assignment,
                |_, _| 0,
                None,
                Some(&self.indeg),
                &mut scratch.list,
            ),
            _ => unreachable!("fast flag covers exactly the arms above"),
        };
        scratch.trials += 1;
        telemetry::counter_add("sched.scratch.trials", 1);
        // Growth audit: `ensure` reserved every buffer to its worst
        // case, so any capacity change here is a missed reservation —
        // counted, surfaced in telemetry, and asserted flat (post
        // warm-up) by the scratch-reuse test.
        if scratch.capacity_cells() != caps_before {
            scratch.grows += 1;
            telemetry::counter_add("sched.scratch.grows", 1);
        }
        makespan
    }
}

/// Per-worker reusable trial buffers (see the module docs). Create one
/// per worker with [`TrialScratch::new`]; the first
/// [`TrialContext::run_trial`] on it warms every buffer up to its
/// worst case, and subsequent trials allocate nothing.
#[derive(Default)]
pub struct TrialScratch {
    delays: Vec<u32>,
    list: ListBuffers,
    layer: LayerBuffers,
    grows: u64,
    trials: u64,
}

impl TrialScratch {
    /// An empty scratch; buffers are sized lazily by the first trial.
    pub fn new() -> TrialScratch {
        TrialScratch::default()
    }

    /// Number of trials run on this scratch.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of trials in which any buffer grew (the first trial —
    /// warm-up — always counts; afterwards this must stay flat).
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    /// Reserves every buffer to the context's worst case, counting the
    /// run as a growth event if anything actually grew.
    fn ensure(&mut self, ctx: &TrialContext<'_>) {
        let before = self.capacity_cells();
        let nk = ctx.instance.num_tasks();
        let k = ctx.instance.num_directions();
        reserve(&mut self.delays, k);
        if matches!(ctx.algorithm, Algorithm::RandomDelay) {
            reserve(&mut self.layer.start, nk);
            reserve(&mut self.layer.buckets.layer_of, nk);
            reserve(&mut self.layer.buckets.layer_tasks, nk);
            reserve(&mut self.layer.buckets.layer_xadj, ctx.max_layers + 1);
            reserve(&mut self.layer.buckets.cursor, ctx.max_layers);
            reserve(&mut self.layer.next_slot, ctx.assignment.num_procs());
        } else {
            self.list.reserve(
                ctx.instance.num_cells(),
                k,
                ctx.assignment.num_procs(),
                ctx.max_layers,
            );
        }
        if self.capacity_cells() != before {
            self.grows += 1;
            telemetry::counter_add("sched.scratch.grows", 1);
        }
    }

    /// Fingerprint of every buffer's capacity (capacities never
    /// shrink, so inequality means something grew).
    fn capacity_cells(&self) -> usize {
        self.delays.capacity()
            + self.list.capacity_cells()
            + self.layer.start.capacity()
            + self.layer.buckets.layer_of.capacity()
            + self.layer.buckets.layer_xadj.capacity()
            + self.layer.buckets.layer_tasks.capacity()
            + self.layer.buckets.cursor.capacity()
            + self.layer.next_slot.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::trial_seeds;

    fn fast_equals_full(algorithm: Algorithm) {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 17);
        let a = Assignment::random_cells(60, 5, 3);
        let ctx = TrialContext::new(&inst, &a, algorithm);
        assert!(ctx.fast_path());
        let mut scratch = TrialScratch::new();
        for seed in trial_seeds(99, 16) {
            let fast = ctx.run_trial(seed, &mut scratch);
            let full = algorithm.run(&inst, a.clone(), seed).makespan();
            assert_eq!(fast, full, "{algorithm:?} seed {seed}");
        }
    }

    #[test]
    fn fast_path_matches_full_run_random_delay() {
        fast_equals_full(Algorithm::RandomDelay);
    }

    #[test]
    fn fast_path_matches_full_run_random_delay_priorities() {
        fast_equals_full(Algorithm::RandomDelayPriorities);
    }

    #[test]
    fn fast_path_matches_full_run_greedy() {
        fast_equals_full(Algorithm::Greedy);
    }

    #[test]
    fn slow_algorithms_fall_back() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 7);
        let a = Assignment::random_cells(40, 4, 1);
        let alg = Algorithm::Dfds { delays: true };
        let ctx = TrialContext::new(&inst, &a, alg);
        assert!(!ctx.fast_path());
        let mut scratch = TrialScratch::new();
        let mk = ctx.run_trial(5, &mut scratch);
        assert_eq!(mk, alg.run(&inst, a.clone(), 5).makespan());
        assert_eq!(scratch.grow_events(), 0, "fallback must not touch scratch");
    }

    #[test]
    fn scratch_grows_only_during_warm_up() {
        let inst = SweepInstance::random_layered(80, 5, 7, 2, 23);
        // 6 processors rank by counting sort; with 83 Algorithm 2's
        // priorities can outgrow the histogram budget (9 values) and take
        // the comparison sort, whose keys must be reserved up front too.
        for m in [6, 83] {
            let a = Assignment::random_cells(80, m, 9);
            for alg in [
                Algorithm::RandomDelay,
                Algorithm::RandomDelayPriorities,
                Algorithm::Greedy,
            ] {
                let ctx = TrialContext::new(&inst, &a, alg);
                let mut scratch = TrialScratch::new();
                ctx.run_trial(rand::split_seed(1, 0), &mut scratch);
                let warmed = scratch.grow_events();
                assert!(warmed >= 1, "{alg:?}: warm-up must reserve");
                for i in 1..64u64 {
                    ctx.run_trial(rand::split_seed(1, i), &mut scratch);
                }
                assert_eq!(
                    scratch.grow_events(),
                    warmed,
                    "{alg:?} m={m}: buffers grew after warm-up"
                );
                assert_eq!(scratch.trials(), 64);
            }
        }
    }

    #[test]
    fn empty_instance_fast_path() {
        let inst = SweepInstance::new(0, vec![sweep_dag::TaskDag::edgeless(0)], "empty");
        let a = Assignment::single(0);
        let ctx = TrialContext::new(&inst, &a, Algorithm::RandomDelayPriorities);
        let mut scratch = TrialScratch::new();
        assert_eq!(ctx.run_trial(3, &mut scratch), 0);
    }
}
