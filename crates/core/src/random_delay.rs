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

use sweep_dag::{levels, SweepInstance, TaskId};
use sweep_telemetry as telemetry;

use crate::assignment::Assignment;
use crate::list_schedule::schedule_by;
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
/// the delay-independent part of `Γ`. Hoisted out of the per-trial path
/// by [`crate::scratch::TrialContext`]: recomputing it costs one BFS
/// per direction, which dominated every trial before the hoist.
pub(crate) fn base_task_levels(instance: &SweepInstance) -> Vec<u32> {
    let n = instance.num_cells();
    let k = instance.num_directions();
    let mut base = vec![0u32; n * k];
    for (i, dag) in instance.dags().iter().enumerate() {
        let lv = levels(dag);
        for v in 0..n as u32 {
            base[TaskId::pack(v, i as u32, n).index()] = lv.level_of[v as usize];
        }
    }
    base
}

/// `Γ(v,i) = level_i(v) + X_i` as a function of `(task, direction)` over
/// [`base_task_levels`] — what the list scheduler ranks by, so that
/// Algorithm 2 never materializes its priorities.
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
    let n = instance.num_cells();
    let k = instance.num_directions();
    assert_eq!(delays.len(), k, "one delay per direction");
    let base = base_task_levels(instance);
    let mut prio = vec![0i64; n * k];
    if n > 0 {
        for (dir, (chunk, base_chunk)) in prio.chunks_mut(n).zip(base.chunks(n)).enumerate() {
            for (p, &b) in chunk.iter_mut().zip(base_chunk) {
                *p = b as i64 + delays[dir] as i64;
            }
        }
    }
    prio
}

/// **Algorithm 1 — Random Delay.** Layer-sequential processing of the
/// combined DAG. `seed` drives the delay draw only; the processor
/// assignment is supplied by the caller (draw it with
/// [`Assignment::random_cells`] for the paper's setting).
pub fn random_delay(instance: &SweepInstance, assignment: Assignment, seed: u64) -> Schedule {
    let delays = random_delays(instance.num_directions(), seed);
    random_delay_with(instance, assignment, &delays)
}

/// Algorithm 1 with explicit delays (used by tests and the ablation that
/// sets all delays to zero).
pub fn random_delay_with(
    instance: &SweepInstance,
    assignment: Assignment,
    delays: &[u32],
) -> Schedule {
    let base = base_task_levels(instance);
    let mut bufs = LayerBuffers::default();
    random_delay_core(instance, &assignment, delays, &base, &mut bufs);
    Schedule::new_checked(std::mem::take(&mut bufs.start), assignment)
}

/// Reusable buffers for [`random_delay_core`] (Algorithm 1's layer
/// bucketing) — reset, not freed, on every run.
#[derive(Default)]
pub(crate) struct LayerBuffers {
    /// Start times per task (the run's output).
    pub start: Vec<u32>,
    /// Combined layer `level + delay` per task.
    pub layer_of: Vec<u32>,
    /// Counting-sort offsets (`num_layers + 1` entries).
    pub layer_xadj: Vec<u32>,
    /// Tasks in layer-bucket order.
    pub layer_tasks: Vec<u64>,
    /// Counting-sort write cursors.
    pub cursor: Vec<u32>,
    /// Next free timestep per processor within the current layer.
    pub next_slot: Vec<u32>,
}

/// The layer-sequential engine of Algorithm 1: fills `bufs.start` and
/// returns the makespan. `base_levels` is the per-task `level_i(v)`
/// vector ([`base_task_levels`]), precomputed once per trial batch.
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
    debug_assert_eq!(base_levels.len(), n * k);

    // Combined layer index r = level + delay, per task.
    bufs.layer_of.clear();
    let mut num_layers = 0u32;
    bufs.layer_of.extend((0..n * k).map(|t| {
        let r = base_levels[t] + delays[t / n];
        num_layers = num_layers.max(r + 1);
        r
    }));
    // Bucket tasks by layer (counting sort).
    bufs.layer_xadj.clear();
    bufs.layer_xadj.resize(num_layers as usize + 1, 0);
    for &r in &bufs.layer_of {
        bufs.layer_xadj[r as usize + 1] += 1;
    }
    for r in 0..num_layers as usize {
        bufs.layer_xadj[r + 1] += bufs.layer_xadj[r];
    }
    bufs.layer_tasks.clear();
    bufs.layer_tasks.resize(n * k, 0);
    bufs.cursor.clear();
    bufs.cursor
        .extend_from_slice(&bufs.layer_xadj[..num_layers as usize]);
    for (t, &r) in bufs.layer_of.iter().enumerate() {
        bufs.layer_tasks[bufs.cursor[r as usize] as usize] = t as u64;
        bufs.cursor[r as usize] += 1;
    }

    // Process layers sequentially; within a layer each processor runs its
    // tasks back-to-back in arbitrary (id) order.
    let mut clock = 0u32;
    bufs.next_slot.clear();
    bufs.next_slot.resize(m, 0);
    for r in 0..num_layers as usize {
        let tasks = &bufs.layer_tasks[bufs.layer_xadj[r] as usize..bufs.layer_xadj[r + 1] as usize];
        if tasks.is_empty() {
            continue;
        }
        bufs.next_slot.iter_mut().for_each(|s| *s = clock);
        let mut layer_span = 0u32;
        for &t in tasks {
            let v = (t % n as u64) as u32;
            let p = assignment.proc_of(v) as usize;
            bufs.start[t as usize] = bufs.next_slot[p];
            bufs.next_slot[p] += 1;
            layer_span = layer_span.max(bufs.next_slot[p] - clock);
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
/// `Γ(v,i) = level_i(v) + X_i`, lowest Γ first.
///
/// ```
/// use sweep_core::{random_delay_priorities, validate, Assignment};
/// use sweep_dag::SweepInstance;
///
/// let inst = SweepInstance::random_layered(100, 8, 10, 2, 1);
/// let a = Assignment::random_cells(100, 16, 2);
/// let schedule = random_delay_priorities(&inst, a, 3);
/// validate(&inst, &schedule).unwrap();
/// assert!(schedule.makespan() as usize >= inst.num_tasks() / 16);
/// ```
pub fn random_delay_priorities(
    instance: &SweepInstance,
    assignment: Assignment,
    seed: u64,
) -> Schedule {
    let delays = random_delays(instance.num_directions(), seed);
    random_delay_priorities_with(instance, assignment, &delays)
}

/// Algorithm 2 with explicit delays.
pub fn random_delay_priorities_with(
    instance: &SweepInstance,
    assignment: Assignment,
    delays: &[u32],
) -> Schedule {
    assert_eq!(
        delays.len(),
        instance.num_directions(),
        "one delay per direction"
    );
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
    use sweep_dag::TaskDag;

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
            let s = random_delay(&inst, a, seed ^ 2);
            validate(&inst, &s).unwrap();
        }
    }

    #[test]
    fn algorithm2_schedules_are_feasible() {
        for seed in 0..6u64 {
            let inst = SweepInstance::random_layered(80, 5, 6, 2, seed);
            let a = Assignment::random_cells(80, 8, seed ^ 1);
            let s = random_delay_priorities(&inst, a, seed ^ 2);
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
            let l = lv.level_of[v as usize] as usize;
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
        let s_yes = random_delay(&inst, a, 13);
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
        let s = random_delay(&inst, a.clone(), 0);
        validate(&inst, &s).unwrap();
        assert_eq!(s.makespan(), 3); // three copies serialize on one proc
        let s2 = random_delay_priorities(&inst, a, 0);
        assert_eq!(s2.makespan(), 3);
    }

    #[test]
    fn zero_delay_priorities_equal_plain_level_priorities() {
        let inst = SweepInstance::random_layered(50, 3, 6, 2, 2);
        let zero = vec![0u32; 3];
        let p = delayed_level_priorities(&inst, &zero);
        let lv0 = sweep_dag::levels(inst.dag(0));
        for v in 0..50u32 {
            assert_eq!(
                p[TaskId::pack(v, 0, 50).index()],
                lv0.level_of[v as usize] as i64
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
