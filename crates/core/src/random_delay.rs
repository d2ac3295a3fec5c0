//! The paper's Algorithm 1 ("Random Delay") and Algorithm 2 ("Random
//! Delays with Priorities").
//!
//! Both draw one delay `X_i ∈ {0, …, k−1}` per direction and combine the
//! per-direction layers `L_{i,j}` into layers `L_r` of a single DAG at
//! `r = j + X_i`, plus a uniformly random processor per cell:
//!
//! * **Algorithm 1** processes the combined layers *strictly sequentially*
//!   — layer `r+1` starts only after every task of layer `r` finished; the
//!   time spent in a layer is the maximum number of its tasks assigned to
//!   one processor. This is the algorithm behind the `O(log² n)`
//!   approximation proof (Theorem 1).
//! * **Algorithm 2** instead uses `Γ(v,i) = level_i(v) + X_i` as a
//!   *priority* for list scheduling, eliminating all idle slots. Same
//!   guarantee (Theorem 2), much better in practice (§5.1, observation 3).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sweep_dag::SweepInstance;
use sweep_telemetry as telemetry;

use crate::assignment::Assignment;
use crate::list_schedule::{per_task_table, schedule_by};
use crate::schedule::Schedule;

/// Draws the per-direction delays `X_i ∈ {0, …, k−1}` (step 1 of every
/// random-delay algorithm).
pub fn random_delays(k: usize, seed: u64) -> Vec<u32> {
    let mut delays = Vec::with_capacity(k);
    random_delays_into(k, seed, &mut delays);
    delays
}

/// [`random_delays`] into a caller-owned buffer (cleared first) — the
/// allocation-free form the trial scratch uses.
pub fn random_delays_into(k: usize, seed: u64, out: &mut Vec<u32>) {
    let _span = telemetry::span!("sched.random_delay.delay_draw");
    let mut rng = StdRng::seed_from_u64(seed);
    out.clear();
    out.extend((0..k).map(|_| rng.random_range(0..k as u32)));
}

/// The per-task base levels `level_i(v)` (indexed by `TaskId::index`) —
/// the delay-independent part of `Γ`: the `k` DAGs' stored levels laid
/// end to end, a copy and not a graph walk.
pub(crate) fn base_task_levels(instance: &SweepInstance) -> Vec<u32> {
    per_task_table(instance, |_, dag| dag.level_of().iter().copied())
}

/// `Γ(v,i) = base_i(v) + X_i` as a function of `(task, direction)` over a
/// per-task base layering — [`base_task_levels`] for Algorithms 1–2, the
/// Graham steps for Algorithm 3. It is what the list scheduler ranks by,
/// so no algorithm materializes its priorities.
pub(crate) fn delayed_levels<'a>(
    base: &'a [u32],
    delays: &'a [u32],
) -> impl Fn(usize, usize) -> i64 + 'a {
    move |t, dir| base[t] as i64 + delays[dir] as i64
}

/// The priorities `Γ(v,i) = level_i(v) + X_i` of Algorithm 2, reusable by
/// any list scheduler. Returned indexed by `TaskId::index`.
pub fn delayed_level_priorities(instance: &SweepInstance, delays: &[u32]) -> Vec<i64> {
    let _span = telemetry::span!("sched.random_delay.priorities");
    let k = instance.num_directions();
    assert_eq!(delays.len(), k, "one delay per direction");
    per_task_table(instance, |i, dag| {
        let levels = dag.level_of().iter();
        levels.map(move |&level| level as i64 + delays[i] as i64)
    })
}

/// **Algorithm 1 — Random Delay.** Layer-sequential processing of the
/// combined DAG under the given delays, one per direction. The caller
/// supplies the assignment ([`Assignment::random_cells`] in the paper's
/// setting); [`crate::Algorithm::RandomDelay`] draws the delays.
pub fn random_delay_with(
    instance: &SweepInstance,
    assignment: Assignment,
    delays: &[u32],
) -> Schedule {
    layer_sequential(instance, assignment, delays, &base_task_levels(instance))
}

/// Layer-sequential processing of the base layering `base` shifted by
/// `delays` — the allocating wrapper around [`random_delay_core`].
pub(crate) fn layer_sequential(
    instance: &SweepInstance,
    assignment: Assignment,
    delays: &[u32],
    base: &[u32],
) -> Schedule {
    let mut bufs = LayerBuffers::default();
    random_delay_core(instance, &assignment, delays, base, &mut bufs);
    Schedule::new_checked(std::mem::take(&mut bufs.start), assignment)
}

/// Reusable buffers for [`random_delay_core`] — reset, not freed, on
/// every run.
#[derive(Default)]
pub(crate) struct LayerBuffers {
    /// Start times per task (the run's output).
    pub start: Vec<u32>,
    /// Next free timestep per processor within the current layer.
    pub next_slot: Vec<u32>,
    /// The tasks of every combined layer.
    pub buckets: LayerBuckets,
}

/// Every task bucketed by its combined layer `r = base + delay`.
#[derive(Default)]
pub(crate) struct LayerBuckets {
    /// Combined layer per task.
    pub layer_of: Vec<u32>,
    /// Counting-sort offsets (`num_layers + 1` entries).
    pub layer_xadj: Vec<u32>,
    /// Tasks in layer-bucket order.
    pub layer_tasks: Vec<u64>,
    /// Counting-sort write cursors.
    pub cursor: Vec<u32>,
}

impl LayerBuckets {
    /// Buckets the `n·k` tasks by `r = base[t] + delays[dir]` (stable
    /// counting sort: a layer holds its tasks in id order) and returns the
    /// number of layers; [`Self::layers`] then reads them.
    pub fn fill(&mut self, n: usize, base: &[u32], delays: &[u32]) -> usize {
        debug_assert_eq!(base.len(), n * delays.len());
        self.layer_of.clear();
        for (dir, &delay) in delays.iter().enumerate() {
            let levels = base[dir * n..(dir + 1) * n].iter();
            self.layer_of.extend(levels.map(|&level| level + delay));
        }
        let num_layers = self.layer_of.iter().max().map_or(0, |&r| r as usize + 1);
        self.layer_xadj.clear();
        self.layer_xadj.resize(num_layers + 1, 0);
        for &r in &self.layer_of {
            self.layer_xadj[r as usize + 1] += 1;
        }
        for r in 0..num_layers {
            self.layer_xadj[r + 1] += self.layer_xadj[r];
        }
        self.layer_tasks.clear();
        self.layer_tasks.resize(base.len(), 0);
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.layer_xadj[..num_layers]);
        for (t, &r) in self.layer_of.iter().enumerate() {
            self.layer_tasks[self.cursor[r as usize] as usize] = t as u64;
            self.cursor[r as usize] += 1;
        }
        num_layers
    }

    /// The tasks of every combined layer `r = 0, 1, …`, each in id order.
    pub fn layers(&self) -> impl Iterator<Item = &[u64]> {
        let bounds = self.layer_xadj.windows(2);
        bounds.map(|b| &self.layer_tasks[b[0] as usize..b[1] as usize])
    }
}

/// The layer-sequential engine of Algorithms 1 and 3: fills `bufs.start`
/// and returns the makespan. `base_levels` is the per-task base layering
/// — `level_i(v)` ([`base_task_levels`], precomputed once per trial batch)
/// for Algorithm 1, the Graham steps for Algorithm 3; every edge must go
/// to a strictly larger layer, which both guarantee.
pub(crate) fn random_delay_core(
    instance: &SweepInstance,
    assignment: &Assignment,
    delays: &[u32],
    base_levels: &[u32],
    bufs: &mut LayerBuffers,
) -> u32 {
    let _span = telemetry::span!("sched.random_delay");
    let n = instance.num_cells();
    let k = instance.num_directions();
    assert_eq!(delays.len(), k, "one delay per direction");
    let m = assignment.num_procs();
    bufs.start.clear();
    bufs.start.resize(n * k, 0);
    if n == 0 {
        return 0;
    }
    let LayerBuffers {
        start,
        next_slot,
        buckets,
    } = bufs;
    buckets.fill(n, base_levels, delays);

    // Process layers sequentially; within a layer each processor runs its
    // tasks back-to-back in task-id order.
    let mut clock = 0u32;
    next_slot.clear();
    next_slot.resize(m, 0);
    for tasks in buckets.layers().filter(|tasks| !tasks.is_empty()) {
        next_slot.iter_mut().for_each(|s| *s = clock);
        let mut layer_span = 0u32;
        for &t in tasks {
            let v = (t % n as u64) as u32;
            let p = assignment.proc_of(v) as usize;
            start[t as usize] = next_slot[p];
            next_slot[p] += 1;
            layer_span = layer_span.max(next_slot[p] - clock);
        }
        telemetry::histogram_record("sched.random_delay.layer_span", layer_span as f64);
        clock += layer_span;
    }
    telemetry::counter_add("sched.tasks_scheduled", (n * k) as u64);
    // The clock advances to exactly one past the last occupied slot of
    // the last non-empty layer — `max start + 1`, i.e. the makespan.
    clock
}

/// **Algorithm 2 — Random Delays with Priorities.** List scheduling with
/// `Γ(v,i) = level_i(v) + X_i`, lowest Γ first, under the given delays
/// (which [`crate::Algorithm::RandomDelayPriorities`] draws).
///
/// ```
/// use sweep_core::{random_delay_priorities_with, random_delays, validate, Assignment};
/// use sweep_dag::SweepInstance;
///
/// let inst = SweepInstance::random_layered(100, 8, 10, 2, 1);
/// let a = Assignment::random_cells(100, 16, 2);
/// let schedule = random_delay_priorities_with(&inst, a, &random_delays(8, 3));
/// validate(&inst, &schedule).unwrap();
/// assert!(schedule.makespan() as usize >= inst.num_tasks() / 16);
/// ```
pub fn random_delay_priorities_with(
    instance: &SweepInstance,
    assignment: Assignment,
    delays: &[u32],
) -> Schedule {
    let k = instance.num_directions();
    assert_eq!(delays.len(), k, "one delay per direction");
    let base = {
        let _span = telemetry::span!("sched.random_delay.priorities");
        base_task_levels(instance)
    };
    schedule_by(instance, assignment, delayed_levels(&base, delays), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;
    use crate::Algorithm;
    use sweep_dag::{TaskDag, TaskId};

    #[test]
    fn delays_in_range_and_deterministic() {
        let d = random_delays(24, 9);
        assert_eq!(d.len(), 24);
        assert!(d.iter().all(|&x| x < 24));
        assert_eq!(d, random_delays(24, 9));
        assert_ne!(d, random_delays(24, 10));
    }

    #[test]
    fn algorithm1_schedules_are_feasible() {
        for seed in 0..6u64 {
            let inst = SweepInstance::random_layered(80, 5, 6, 2, seed);
            let a = Assignment::random_cells(80, 8, seed ^ 1);
            let s = Algorithm::RandomDelay.run(&inst, a, seed ^ 2);
            validate(&inst, &s).unwrap();
        }
    }

    #[test]
    fn algorithm2_schedules_are_feasible() {
        for seed in 0..6u64 {
            let inst = SweepInstance::random_layered(80, 5, 6, 2, seed);
            let a = Assignment::random_cells(80, 8, seed ^ 1);
            let s = Algorithm::RandomDelayPriorities.run(&inst, a, seed ^ 2);
            validate(&inst, &s).unwrap();
        }
    }

    #[test]
    fn layer_sequential_means_layers_do_not_interleave() {
        // With zero delays and one direction, Algorithm 1 degenerates to
        // level-by-level processing: every task of level l finishes before
        // any task of level l+1 starts.
        let inst = SweepInstance::random_layered(60, 1, 5, 2, 3);
        let a = Assignment::random_cells(60, 4, 4);
        let s = random_delay_with(&inst, a, &[0]);
        validate(&inst, &s).unwrap();
        let lv = sweep_dag::levels(inst.dag(0));
        let mut max_per_level = vec![0u32; lv.depth()];
        let mut min_per_level = vec![u32::MAX; lv.depth()];
        for v in 0..60u32 {
            let l = inst.dag(0).level_of()[v as usize] as usize;
            let t = s.start_of(TaskId::pack(v, 0, 60));
            max_per_level[l] = max_per_level[l].max(t);
            min_per_level[l] = min_per_level[l].min(t);
        }
        for l in 1..lv.depth() {
            assert!(min_per_level[l] > max_per_level[l - 1]);
        }
    }

    #[test]
    fn priorities_never_worse_than_layer_sequential() {
        // Compaction can only help: same delays, same assignment.
        for seed in 0..5u64 {
            let inst = SweepInstance::random_layered(100, 4, 8, 3, seed);
            let delays = random_delays(4, seed);
            let a = Assignment::random_cells(100, 8, seed ^ 7);
            let s1 = random_delay_with(&inst, a.clone(), &delays);
            let s2 = random_delay_priorities_with(&inst, a, &delays);
            validate(&inst, &s1).unwrap();
            validate(&inst, &s2).unwrap();
            assert!(
                s2.makespan() <= s1.makespan(),
                "priorities {} > layered {}",
                s2.makespan(),
                s1.makespan()
            );
        }
    }

    #[test]
    fn adversarial_chains_show_delay_separation() {
        // Identical chains: layer-sequential with zero delays serializes
        // all k copies of each cell inside its layer (makespan ≈ n·k);
        // random delays spread them (makespan ≈ (n+k)·small).
        let (n, k, m) = (40usize, 8usize, 8usize);
        let inst = SweepInstance::identical_chains(n, k);
        let a = Assignment::random_cells(n, m, 11);
        let zero = vec![0u32; k];
        let s_no = random_delay_with(&inst, a.clone(), &zero);
        let s_yes = Algorithm::RandomDelay.run(&inst, a, 13);
        validate(&inst, &s_no).unwrap();
        validate(&inst, &s_yes).unwrap();
        assert_eq!(
            s_no.makespan() as usize,
            n * k,
            "no delays ⇒ full serialization"
        );
        assert!(
            (s_yes.makespan() as usize) < n * k * 3 / 4,
            "delays should break the serialization: {}",
            s_yes.makespan()
        );
    }

    #[test]
    fn single_cell_instance() {
        let inst = SweepInstance::new(1, vec![TaskDag::edgeless(1); 3], "one");
        let a = Assignment::single(1);
        let s = Algorithm::RandomDelay.run(&inst, a.clone(), 0);
        validate(&inst, &s).unwrap();
        assert_eq!(s.makespan(), 3); // three copies serialize on one proc
        let s2 = Algorithm::RandomDelayPriorities.run(&inst, a, 0);
        assert_eq!(s2.makespan(), 3);
    }

    #[test]
    fn zero_delay_priorities_equal_plain_level_priorities() {
        let inst = SweepInstance::random_layered(50, 3, 6, 2, 2);
        let zero = vec![0u32; 3];
        let p = delayed_level_priorities(&inst, &zero);
        let level_of = inst.dag(0).level_of();
        for v in 0..50u32 {
            assert_eq!(
                p[TaskId::pack(v, 0, 50).index()],
                level_of[v as usize] as i64
            );
        }
    }

    #[test]
    #[should_panic(expected = "one delay per direction")]
    fn wrong_delay_count_panics() {
        let inst = SweepInstance::random_layered(10, 3, 3, 1, 0);
        random_delay_with(&inst, Assignment::single(10), &[0]);
    }
}
