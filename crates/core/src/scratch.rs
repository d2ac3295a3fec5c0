//! Arena-reused trial scratch for best-of-`b` scheduling.
//!
//! [`TrialContext`] computes, once per `(instance, assignment,
//! algorithm)`, the one seed-independent table the algorithm's trials
//! read — levels, Graham steps, or, for a priority no trial's seed moves
//! (Level, Descendant, DFDS, Greedy), the ranking itself — by the same
//! functions [`Algorithm::run`] calls, together with how a trial's delay
//! draw enters it (`Table`). [`TrialScratch`] keeps every per-trial
//! buffer warm across trials (reset, never freed), threaded through the
//! pool as one scratch slot per worker
//! ([`sweep_pool::ThreadPool::par_map_scratch`]). For the list scheduler
//! those buffers are the rank kernel's ([`mod@crate::list_schedule`]):
//! the `(predecessors left, rank)` pair per task and the ready bitset
//! with its summary level, plus — only for the tables whose trials rank
//! their own (Algorithm 2 and Algorithm 3 with priorities) — the rank →
//! task table, the per-processor block offsets and the sort buffers.
//! Priorities are read straight off the table while ranking; no
//! per-trial priority vector exists.
//!
//! Every algorithm's trial is one of the two engines
//! (`random_delay_core` / the list engine) on the scratch: what
//! [`TrialContext::run_trial`] returns is the makespan, and the start
//! times stay in the scratch until the next trial, where
//! [`crate::trials`] copies the winner's out. The scratch reserves every
//! buffer to its worst case on first use (warm-up) — the ranking buffers
//! from the table's real priority span — so later trials never grow one
//! and allocate nothing: [`TrialScratch::grow_events`] counts the runs in
//! which any buffer capacity changed, `scratch_grows_only_during_warm_up`
//! asserts the count stays flat after warm-up for all ten algorithms, and
//! the repo benchmark reports it as `core.scratch.grow_events`.

use sweep_dag::SweepInstance;
use sweep_telemetry as telemetry;

use crate::algorithms::Algorithm;
use crate::assignment::Assignment;
use crate::improved::graham_union_steps;
use crate::list_schedule::{list_schedule_core, reserve, run_ranked, ListBuffers, Ranking};
use crate::priorities::{descendant_priorities, dfds_priorities, level_priorities};
use crate::random_delay::{
    base_task_levels, delayed_levels, random_delay_core, random_delays_into, LayerBuffers,
};

/// The seed-independent table an algorithm's trials read, and how the
/// delays `X_i` a trial draws enter it (DESIGN §3 maps all ten
/// algorithms onto these four).
enum Table {
    /// Algorithms 1 and 3: `base + X_i` is the combined layer, processed
    /// behind layer barriers. `base` is the levels or the Graham steps.
    Layers(Vec<u32>),
    /// Algorithm 2 and Algorithm 3 with priorities: `base + X_i` is the
    /// list-scheduling priority; also the number of sources it groups.
    Shifted(Vec<u32>, usize),
    /// §5.2 heuristics and Greedy: the priority is fixed, so the tasks
    /// are ranked once, here. If `released`, the `X_i` are per-direction
    /// release times, and if not, nothing is drawn.
    Ranked { ranking: Ranking, released: bool },
}

/// Everything about a best-of-`b` run that does not depend on the
/// trial seed, computed once and shared (immutably) by all workers.
pub struct TrialContext<'a> {
    instance: &'a SweepInstance,
    assignment: &'a Assignment,
    table: Table,
    /// The most combined layers ([`Table::Layers`]) or the widest
    /// `max − min` of a trial's priorities ([`Table::Shifted`]): `max base + k`.
    span: usize,
}

impl<'a> TrialContext<'a> {
    /// Precomputes the seed-independent trial state of `algorithm`: the
    /// Graham pass or the §5.2 priority pass runs here and in no trial.
    pub fn new(
        instance: &'a SweepInstance,
        assignment: &'a Assignment,
        algorithm: Algorithm,
    ) -> TrialContext<'a> {
        let graham = || graham_union_steps(instance, assignment.num_procs()).0;
        let sources = || crate::task_in_degrees(instance).filter(|&d| d == 0).count();
        let fixed = |priority: Vec<i64>, released| Table::Ranked {
            ranking: Ranking::new(instance, assignment, |t, _| priority[t]),
            released,
        };
        let table = match algorithm {
            Algorithm::RandomDelay => Table::Layers(base_task_levels(instance)),
            Algorithm::RandomDelayPriorities => {
                Table::Shifted(base_task_levels(instance), sources())
            }
            Algorithm::ImprovedRandomDelay => Table::Layers(graham()),
            Algorithm::ImprovedWithPriorities => Table::Shifted(graham(), sources()),
            Algorithm::Greedy => fixed(vec![0; instance.num_tasks()], false),
            Algorithm::LevelPriority { delays } => fixed(level_priorities(instance), delays),
            Algorithm::DescendantPriority { delays } => {
                fixed(descendant_priorities(instance), delays)
            }
            Algorithm::Dfds { delays } => fixed(dfds_priorities(instance, assignment), delays),
        };
        let span = match &table {
            Table::Layers(base) | Table::Shifted(base, _) => {
                base.iter().max().map_or(0, |&top| top as usize) + instance.num_directions()
            }
            Table::Ranked { .. } => 0,
        };
        TrialContext {
            instance,
            assignment,
            table,
            span,
        }
    }

    /// Whether a trial draws delays. An algorithm that draws none ignores
    /// its seed: its `b` trials are one schedule `b` times.
    pub(crate) fn draws_delays(&self) -> bool {
        match self.table {
            Table::Ranked { released, .. } => released,
            _ => true,
        }
    }

    /// Runs one trial and returns its makespan; the start times stay in
    /// `scratch` until its next trial. Both are, by construction, those
    /// of `algorithm.run(instance, assignment, seed)`: the same tables go
    /// into the very same scheduling cores (the list engine's ranking and
    /// step loop / `random_delay_core`) the allocating wrappers use, only
    /// on reused buffers.
    pub fn run_trial(&self, seed: u64, scratch: &mut TrialScratch) -> u32 {
        let (instance, assignment) = (self.instance, self.assignment);
        scratch.ensure(self);
        let caps_before = scratch.capacity_cells();
        if self.draws_delays() {
            random_delays_into(instance.num_directions(), seed, &mut scratch.delays);
        }
        let (delays, list) = (&scratch.delays[..], &mut scratch.list);
        let makespan = match &self.table {
            Table::Layers(base) => {
                random_delay_core(instance, assignment, delays, base, &mut scratch.layer)
            }
            Table::Shifted(base, _) => {
                let gamma = delayed_levels(base, delays);
                list_schedule_core(instance, assignment, gamma, None, list)
            }
            Table::Ranked { ranking, released } => run_ranked(
                instance,
                assignment,
                released.then_some(delays),
                ranking,
                list,
            ),
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

    /// Start times of the last trial this context ran on `scratch`.
    pub(crate) fn starts<'s>(&self, scratch: &'s TrialScratch) -> &'s [u32] {
        match self.table {
            Table::Layers(_) => &scratch.layer.start,
            _ => &scratch.list.start,
        }
    }
}

/// Per-worker reusable trial buffers (see the module docs). Create one
/// per worker with [`TrialScratch::new`]; the first
/// [`TrialContext::run_trial`] on it warms every buffer up to its
/// worst case, and subsequent trials grow none.
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
        let m = ctx.assignment.num_procs();
        let n = ctx.instance.num_cells();
        reserve(&mut self.delays, k);
        match &ctx.table {
            Table::Layers(_) => {
                reserve(&mut self.layer.start, nk);
                reserve(&mut self.layer.buckets.layer_of, nk);
                reserve(&mut self.layer.buckets.layer_tasks, nk);
                reserve(&mut self.layer.buckets.layer_xadj, ctx.span + 1);
                reserve(&mut self.layer.buckets.cursor, ctx.span);
                reserve(&mut self.layer.next_slot, m);
            }
            Table::Shifted(_, sources) => self.list.reserve(n, k, m, ctx.span, *sources),
            Table::Ranked { .. } => self.list.reserve_run(n, k, m),
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
pub(crate) mod tests {
    use super::*;
    use crate::trials::trial_seeds;

    /// All ten algorithms: the §5.2 comparison set and the three outside it.
    pub(crate) fn all_algorithms() -> Vec<Algorithm> {
        let mut all = Algorithm::COMPARISON_SET.to_vec();
        all.extend([
            Algorithm::LevelPriority { delays: true },
            Algorithm::ImprovedRandomDelay,
            Algorithm::ImprovedWithPriorities,
        ]);
        all
    }

    #[test]
    fn arena_trial_matches_full_run_for_every_algorithm() {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 17);
        let a = Assignment::random_cells(60, 5, 3);
        for algorithm in all_algorithms() {
            let ctx = TrialContext::new(&inst, &a, algorithm);
            let mut scratch = TrialScratch::new();
            for seed in trial_seeds(99, 16) {
                let makespan = ctx.run_trial(seed, &mut scratch);
                let full = algorithm.run(&inst, a.clone(), seed);
                assert_eq!(makespan, full.makespan(), "{algorithm:?} seed {seed}");
                assert_eq!(
                    ctx.starts(&scratch),
                    full.starts(),
                    "{algorithm:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn scratch_grows_only_during_warm_up() {
        let inst = SweepInstance::random_layered(80, 5, 7, 2, 23);
        // 6 processors rank by counting sort; with 83 the histogram budget
        // is 9 values, which Algorithm 2's priorities can outgrow and the
        // Descendant and DFDS tables do: they take the comparison sort,
        // whose keys must be reserved up front too.
        for m in [6, 83] {
            let a = Assignment::random_cells(80, m, 9);
            for alg in all_algorithms() {
                let ctx = TrialContext::new(&inst, &a, alg);
                let mut scratch = TrialScratch::new();
                ctx.run_trial(rand::split_seed(1, 0), &mut scratch);
                let warmed = scratch.grow_events();
                assert!(warmed >= 1, "{alg:?}: warm-up must reserve");
                // A trial on its context's ranking reserves no `task_at`,
                // `counts` or `keys`: only what a run on it writes.
                if let Table::Ranked { .. } = ctx.table {
                    let mut run_only = ListBuffers::default();
                    run_only.reserve_run(80, 5, m);
                    let reserved = scratch.list.capacity_cells();
                    assert_eq!(reserved, run_only.capacity_cells(), "{alg:?} m={m}");
                }
                let capacity = scratch.capacity_cells();
                for i in 1..64u64 {
                    ctx.run_trial(rand::split_seed(1, i), &mut scratch);
                    // Delayed trials included: every capacity stays put.
                    assert_eq!(
                        scratch.capacity_cells(),
                        capacity,
                        "{alg:?} m={m} trial {i}"
                    );
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
    fn exactly_the_algorithms_that_draw_no_delays_ignore_their_seed() {
        // What lets best-of-`b` run one trial for them, checked against
        // the reference path.
        let inst = SweepInstance::random_layered(40, 6, 5, 2, 7);
        let a = Assignment::random_cells(40, 4, 1);
        for alg in all_algorithms() {
            let ctx = TrialContext::new(&inst, &a, alg);
            let (one, other) = (alg.run(&inst, a.clone(), 1), alg.run(&inst, a.clone(), 2));
            let seedless = one.starts() == other.starts();
            assert_eq!(ctx.draws_delays(), !seedless, "{alg:?}");
        }
    }

    #[test]
    fn empty_instance_runs_on_the_arena() {
        let inst = SweepInstance::new(0, vec![sweep_dag::TaskDag::edgeless(0)], "empty");
        let a = Assignment::single(0);
        for alg in all_algorithms() {
            let ctx = TrialContext::new(&inst, &a, alg);
            let mut scratch = TrialScratch::new();
            assert_eq!(ctx.run_trial(3, &mut scratch), 0, "{alg:?}");
            assert!(ctx.starts(&scratch).is_empty());
        }
    }
}
