//! The paper's Algorithm 3 ("Improved Random Delay") and the Graham greedy
//! list schedule it uses for preprocessing.
//!
//! The preprocessing step runs the classical Graham list schedule on the
//! disjoint union `H` of all per-direction DAGs with `m` identical machines
//! — crucially *without* the same-processor-per-cell constraint. The step
//! at which each task completes defines new levels `L'_{i,j}` whose widths
//! are at most `m`. That is all Algorithm 3 adds: the narrowed levels are a
//! base layering like `level_i(v)`, and they go where levels go — shifted
//! by the delays `X_i`, then processed behind layer barriers by Algorithm
//! 1's engine ([`improved_random_delay`]) or ranked by Algorithm 2's
//! ([`improved_with_priorities`]). The narrowing is what enables the
//! `O(log m · log log log m)` analysis (Theorem 3).

use sweep_dag::{BitSet, SweepInstance, TaskId};
use sweep_telemetry as telemetry;

use crate::assignment::Assignment;
use crate::list_schedule::{schedule_by, task_in_degrees};
use crate::random_delay::{delayed_levels, layer_sequential, random_delays};
use crate::schedule::Schedule;

/// Graham preprocessing on the union DAG `H` (step 1 of Algorithm 3):
/// the classical greedy list schedule of [Graham et al.] — a
/// `(2 − 1/m)`-approximation — of all `n·k` tasks on `m` identical
/// machines, lowest task id first among ready tasks. Returns the
/// completion step of every task (0-based, indexed by `TaskId::index`)
/// and the makespan `T`; also the lower-bound witness of [`crate::bounds`].
///
/// The ready frontier is a word-packed [`BitSet`]: the per-step batch
/// is the `m` lowest set bits, tasks readied this step accumulate in a
/// second set and merge in with one bulk `or` per 64 ids. Any greedy
/// tie-break yields the same `(2 − 1/m)` bound; lowest-id is the one
/// that makes the frontier a bitset instead of a queue.
pub fn graham_union_steps(instance: &SweepInstance, m: usize) -> (Vec<u32>, u32) {
    let _span = telemetry::span!("sched.improved.graham");
    assert!(m > 0);
    let n = instance.num_cells();
    let k = instance.num_directions();
    let mut step = vec![0u32; n * k];
    if n == 0 {
        return (step, 0);
    }
    let mut indeg: Vec<u32> = task_in_degrees(instance).collect();
    let mut ready = BitSet::new(n * k);
    for (t, &d) in indeg.iter().enumerate() {
        if d == 0 {
            ready.insert(t);
        }
    }
    let mut next_ready = BitSet::new(n * k);
    let mut batch: Vec<u64> = Vec::with_capacity(m.min(n * k));
    let mut t = 0u32;
    let mut done = 0usize;
    while done < n * k {
        debug_assert!(!ready.is_empty(), "acyclic DAG always has ready tasks");
        // Run the m lowest-id ready tasks this step.
        batch.clear();
        batch.extend(ready.ones().take(m).map(|task| task as u64));
        for &task in &batch {
            ready.remove(task as usize);
            step[task as usize] = t;
            done += 1;
            let (v, dir) = TaskId(task).unpack(n);
            for &w in instance.dag(dir as usize).successors(v) {
                let wt = TaskId::pack(w, dir, n).index();
                indeg[wt] -= 1;
                if indeg[wt] == 0 {
                    next_ready.insert(wt);
                }
            }
        }
        ready.union_with(&next_ready);
        next_ready.clear();
        t += 1;
    }
    (step, t)
}

/// **Algorithm 3 — Improved Random Delay.** Graham preprocessing, then
/// random delays over the narrowed levels, then layer-sequential
/// processing (as Algorithm 1, but on layers `L''`).
pub fn improved_random_delay(
    instance: &SweepInstance,
    assignment: Assignment,
    seed: u64,
) -> Schedule {
    let delays = random_delays(instance.num_directions(), seed);
    improved_random_delay_with(instance, assignment, &delays)
}

/// Algorithm 3 with explicit delays.
pub fn improved_random_delay_with(
    instance: &SweepInstance,
    assignment: Assignment,
    delays: &[u32],
) -> Schedule {
    let _span = telemetry::span!("sched.improved");
    let (steps, _) = graham_union_steps(instance, assignment.num_procs());
    layer_sequential(instance, assignment, delays, &steps)
}

/// Practical variant: the narrowed levels are used as *priorities* for
/// list scheduling instead of hard layer barriers (the same compaction
/// trick that turns Algorithm 1 into Algorithm 2).
pub fn improved_with_priorities(
    instance: &SweepInstance,
    assignment: Assignment,
    seed: u64,
) -> Schedule {
    let _span = telemetry::span!("sched.improved");
    let delays = random_delays(instance.num_directions(), seed);
    let (steps, _) = graham_union_steps(instance, assignment.num_procs());
    schedule_by(instance, assignment, delayed_levels(&steps, &delays), None)
}

/// The combined-layer index `step_i(v) + X_i` of every task under
/// Algorithm 3's preprocessing.
pub fn improved_priorities(instance: &SweepInstance, m: usize, delays: &[u32]) -> Vec<i64> {
    let (n, k) = (instance.num_cells(), instance.num_directions());
    assert_eq!(delays.len(), k, "one delay per direction");
    let (steps, _t) = graham_union_steps(instance, m);
    let gamma = delayed_levels(&steps, delays);
    (0..n * k).map(|t| gamma(t, t / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_schedule::list_schedule;
    use crate::random_delay::random_delay_with;
    use crate::schedule::validate;
    use sweep_dag::TaskDag;

    /// One direction: the union DAG is the DAG itself.
    fn one_direction(dag: TaskDag) -> SweepInstance {
        SweepInstance::new(dag.num_nodes(), vec![dag], "one direction")
    }

    #[test]
    fn graham_on_chain_is_sequential() {
        let inst = one_direction(TaskDag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]));
        let (steps, t) = graham_union_steps(&inst, 4);
        assert_eq!(t, 5);
        assert_eq!(steps, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn graham_on_independent_tasks_packs_m_per_step() {
        let inst = one_direction(TaskDag::edgeless(10));
        let (_, t) = graham_union_steps(&inst, 4);
        assert_eq!(t, 3); // ceil(10/4)
        let (_, t1) = graham_union_steps(&inst, 1);
        assert_eq!(t1, 10);
    }

    #[test]
    fn graham_respects_precedence() {
        let dag = TaskDag::from_edges(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]);
        let (steps, _) = graham_union_steps(&one_direction(dag.clone()), 2);
        for (u, v) in dag.edges() {
            assert!(steps[u as usize] < steps[v as usize]);
        }
    }

    #[test]
    fn graham_is_within_two_of_lower_bounds() {
        // Graham ≤ (2 - 1/m)·OPT and OPT ≥ max(n/m, critical path).
        let inst = SweepInstance::random_layered(120, 1, 10, 3, 5);
        let dag = inst.dag(0);
        let m = 4;
        let (_, t) = graham_union_steps(&inst, m);
        let lb = (dag.num_nodes() as u32)
            .div_ceil(m as u32)
            .max(sweep_dag::critical_path_len(dag) as u32);
        assert!(t <= 2 * lb, "graham {t} vs lb {lb}");
    }

    #[test]
    fn union_steps_have_width_at_most_m() {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 8);
        let m = 7;
        let (steps, t) = graham_union_steps(&inst, m);
        let mut width = vec![0usize; t as usize];
        for &s in &steps {
            width[s as usize] += 1;
        }
        assert!(width.iter().all(|&w| w <= m), "some step wider than m");
        assert_eq!(width.iter().sum::<usize>(), inst.num_tasks());
    }

    #[test]
    fn improved_schedules_are_feasible() {
        for seed in 0..5u64 {
            let inst = SweepInstance::random_layered(70, 4, 7, 2, seed);
            let a = Assignment::random_cells(70, 6, seed ^ 3);
            let s = improved_random_delay(&inst, a.clone(), seed);
            validate(&inst, &s).unwrap();
            let s2 = improved_with_priorities(&inst, a, seed);
            validate(&inst, &s2).unwrap();
        }
    }

    #[test]
    fn improved_with_priorities_not_worse_in_practice() {
        let inst = SweepInstance::random_layered(100, 5, 8, 2, 1);
        let a = Assignment::random_cells(100, 8, 2);
        let delays = random_delays(5, 3);
        let s1 = improved_random_delay_with(&inst, a.clone(), &delays);
        let prio = improved_priorities(&inst, 8, &delays);
        let s2 = list_schedule(&inst, a, &prio, None);
        assert!(s2.makespan() <= s1.makespan());
    }

    #[test]
    fn improved_layering_is_a_valid_layering() {
        // Every edge must go to a strictly larger combined layer.
        let inst = SweepInstance::random_layered(50, 3, 6, 2, 4);
        let delays = random_delays(3, 5);
        let prio = improved_priorities(&inst, 4, &delays);
        let n = inst.num_cells();
        for (i, dag) in inst.dags().iter().enumerate() {
            for (u, v) in dag.edges() {
                let pu = prio[TaskId::pack(u, i as u32, n).index()];
                let pv = prio[TaskId::pack(v, i as u32, n).index()];
                assert!(pu < pv, "edge ({u},{v}) dir {i}: {pu} !< {pv}");
            }
        }
    }

    #[test]
    fn preprocessing_narrows_wide_instances() {
        // A very wide single-layer instance: raw levels put everything in
        // one layer of width n, Graham narrows to width m.
        let inst = SweepInstance::new(64, vec![TaskDag::edgeless(64)], "wide");
        let (steps, t) = graham_union_steps(&inst, 8);
        assert_eq!(t, 8); // 64 tasks / 8 machines
        let mut per_step = [0; 8];
        for &s in &steps {
            per_step[s as usize] += 1;
        }
        assert!(per_step.iter().all(|&w| w == 8));
    }

    #[test]
    fn random_delay_comparable_reference() {
        // Algorithm 3 should be in the same ballpark as Algorithm 1 on
        // benign instances (both are layer-sequential).
        let inst = SweepInstance::random_layered(90, 4, 6, 2, 6);
        let a = Assignment::random_cells(90, 8, 7);
        let delays = random_delays(4, 8);
        let s1 = random_delay_with(&inst, a.clone(), &delays);
        let s3 = improved_random_delay_with(&inst, a, &delays);
        validate(&inst, &s3).unwrap();
        // Loose sanity envelope (not a theorem, a regression tripwire).
        assert!(s3.makespan() <= 3 * s1.makespan().max(1));
    }

    /// Layer-sequential start times with every layer in task-id order,
    /// written as a formula instead of a loop over processors' slots: the
    /// spans of all earlier layers, plus the task's rank among its
    /// layer's tasks on its processor.
    fn id_ordered_reference(a: &Assignment, layer: &[i64]) -> Vec<u32> {
        use std::collections::BTreeMap;
        let proc = |t: usize| a.proc_of((t % a.num_cells()) as u32);
        let mut load: BTreeMap<(i64, u32), u32> = BTreeMap::new();
        let mut rank = vec![0u32; layer.len()];
        for (t, &r) in layer.iter().enumerate() {
            let tasks = load.entry((r, proc(t))).or_default();
            rank[t] = *tasks;
            *tasks += 1;
        }
        let mut span: BTreeMap<i64, u32> = BTreeMap::new();
        for (&(r, _), &tasks) in &load {
            let widest = span.entry(r).or_default();
            *widest = tasks.max(*widest);
        }
        let mut clock = 0;
        for widest in span.values_mut() {
            clock += *widest;
            *widest = clock - *widest; // now the layer's first timestep
        }
        (0..layer.len())
            .map(|t| span[&layer[t]] + rank[t])
            .collect()
    }

    #[test]
    fn algorithm3_layers_run_in_task_id_order_at_pinned_makespans() {
        // Makespans are those of the unstable within-layer order this
        // replaced: a layer's span is its largest per-processor count.
        let pinned = [836, 885, 876, 844, 860, 854];
        for (s, makespan) in (0..6u64).zip(pinned) {
            let inst = SweepInstance::random_layered(400, 6, 9, 3, s);
            let a = Assignment::random_cells(400, 7, s ^ 3);
            let delays = random_delays(6, s ^ 5);
            let schedule = improved_random_delay_with(&inst, a.clone(), &delays);
            validate(&inst, &schedule).unwrap();
            assert_eq!(schedule.makespan(), makespan, "seed {s}");
            let layer = improved_priorities(&inst, 7, &delays);
            assert_eq!(
                schedule.starts(),
                id_ordered_reference(&a, &layer),
                "seed {s}"
            );
        }
    }

    #[test]
    fn layer_sequential_means_narrowed_levels_do_not_interleave() {
        // With zero delays and one direction, Algorithm 3 degenerates to
        // step-by-step processing: every task of Graham step j finishes
        // before any task of step j+1 starts.
        let inst = SweepInstance::random_layered(60, 1, 5, 2, 3);
        let a = Assignment::random_cells(60, 4, 4);
        let s = improved_random_delay_with(&inst, a, &[0]);
        validate(&inst, &s).unwrap();
        let (steps, t) = graham_union_steps(&inst, 4);
        let mut first = vec![u32::MAX; t as usize];
        let mut last = vec![0u32; t as usize];
        for (&j, &start) in steps.iter().zip(s.starts()) {
            first[j as usize] = first[j as usize].min(start);
            last[j as usize] = last[j as usize].max(start);
        }
        for j in 1..t as usize {
            assert!(first[j] > last[j - 1], "step {j} overlaps step {}", j - 1);
        }
    }
}
