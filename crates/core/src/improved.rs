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
//! 1's engine or ranked by Algorithm 2's — the
//! [`Algorithm`](crate::Algorithm) variants `ImprovedRandomDelay` and
//! `ImprovedWithPriorities`. The narrowing is what enables the
//! `O(log m · log log log m)` analysis (Theorem 3).

use sweep_dag::SweepInstance;
use sweep_telemetry as telemetry;

use crate::list_schedule::{push_if, task_in_degrees, Block};

/// Graham preprocessing on the union DAG `H` (step 1 of Algorithm 3):
/// the classical greedy list schedule of [Graham et al.] — a
/// `(2 − 1/m)`-approximation — of all `n·k` tasks on `m` identical
/// machines, lowest task id first among ready tasks. Returns the
/// completion step of every task (0-based, indexed by `TaskId::index`)
/// and the makespan `T`.
///
/// The ready frontier is the rank kernel's two-level bitset over task
/// ids: one bit per id, one summary bit per non-zero word. A step pops
/// its `m` lowest ids in one walk of the summary, then pushes the tasks
/// they release straight into the same set — the batch is already out,
/// so nothing readied this step runs in it. `O(n·k + |E| + T·⌈nk/4096⌉)`.
/// Any greedy tie-break yields the same `(2 − 1/m)` bound; lowest-id is
/// the one that makes the frontier a bitset instead of a queue.
pub fn graham_union_steps(instance: &SweepInstance, m: usize) -> (Vec<u32>, u32) {
    let _span = telemetry::span!("sched.improved.graham");
    assert!(m > 0);
    let n = instance.num_cells();
    let nk = n * instance.num_directions();
    let mut step = vec![0u32; nk];
    if n == 0 {
        return (step, 0);
    }
    let mut indeg: Vec<u32> = task_in_degrees(instance).collect();
    // One block of ranks, and the rank of a task is its id.
    let ids = Block::default();
    let mut words = vec![0u64; nk.div_ceil(64)];
    let mut summary = vec![0u64; words.len().div_ceil(64)];
    for (t, &d) in indeg.iter().enumerate() {
        push_if(d == 0, &mut words, &mut summary, ids, t as u32);
    }
    let mut batch: Vec<usize> = Vec::with_capacity(m.min(nk));
    let mut t = 0u32;
    let mut done = 0usize;
    while done < nk {
        batch.clear();
        pop_lowest_m(&mut words, &mut summary, m, &mut batch);
        debug_assert!(!batch.is_empty(), "acyclic DAG always has ready tasks");
        batch.iter().for_each(|&task| step[task] = t);
        let cells = batch.iter().map(|&task| (task / n, (task % n) as u32));
        for (dir, successors) in instance.successors_of(cells) {
            for w in successors {
                let wt = dir * n + w as usize;
                indeg[wt] -= 1;
                push_if(indeg[wt] == 0, &mut words, &mut summary, ids, wt as u32);
            }
        }
        done += batch.len();
        t += 1;
    }
    (step, t)
}

/// Moves the `m` lowest ids of a two-level bitset into `batch` (all of
/// them if it holds fewer), walking the summary from its first word once.
fn pop_lowest_m(words: &mut [u64], summary: &mut [u64], m: usize, batch: &mut Vec<usize>) {
    for (s, nonzero) in summary.iter_mut().enumerate() {
        while *nonzero != 0 {
            let w = s << 6 | nonzero.trailing_zeros() as usize;
            while words[w] != 0 && batch.len() < m {
                batch.push(w << 6 | words[w].trailing_zeros() as usize);
                words[w] &= words[w] - 1;
            }
            if words[w] != 0 {
                return;
            }
            *nonzero &= *nonzero - 1;
            if batch.len() == m {
                return;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::bounds::lower_bounds;
    use crate::list_schedule::{list_schedule, tests::oracle_instances};
    use crate::random_delay::{delayed_levels, layer_sequential, random_delay_with, random_delays};
    use crate::schedule::{validate, Schedule};
    use crate::Algorithm;
    use sweep_dag::{TaskDag, TaskId};

    /// Algorithm 3 under the given delays: layer-sequential processing
    /// of the Graham steps, as `Algorithm::ImprovedRandomDelay` runs it.
    fn algorithm3_with(inst: &SweepInstance, a: Assignment, delays: &[u32]) -> Schedule {
        let (steps, _) = graham_union_steps(inst, a.num_procs());
        layer_sequential(inst, a, delays, &steps)
    }

    /// The combined-layer index `step_i(v) + X_i` of every task under
    /// Algorithm 3's preprocessing.
    pub(crate) fn improved_priorities(
        instance: &SweepInstance,
        m: usize,
        delays: &[u32],
    ) -> Vec<i64> {
        let (n, k) = (instance.num_cells(), instance.num_directions());
        assert_eq!(delays.len(), k, "one delay per direction");
        let (steps, _t) = graham_union_steps(instance, m);
        let gamma = delayed_levels(&steps, delays);
        (0..n * k).map(|t| gamma(t, t / n)).collect()
    }

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

    /// The Graham pass written the plain way: a `BTreeSet` frontier, the
    /// `m` lowest ready ids run each step, their successors join after it.
    fn graham_reference(inst: &SweepInstance, m: usize) -> (Vec<u32>, u32) {
        let n = inst.num_cells();
        let mut indeg: Vec<u32> = task_in_degrees(inst).collect();
        let mut ready: std::collections::BTreeSet<usize> =
            (0..indeg.len()).filter(|&t| indeg[t] == 0).collect();
        let (mut step, mut t) = (vec![0; indeg.len()], 0);
        while !ready.is_empty() {
            let batch: Vec<usize> = ready.iter().take(m).copied().collect();
            for &task in &batch {
                ready.remove(&task);
                step[task] = t;
            }
            for task in batch {
                for w in inst.dag(task / n).successors((task % n) as u32) {
                    let wt = task - task % n + w as usize;
                    indeg[wt] -= 1;
                    if indeg[wt] == 0 {
                        ready.insert(wt);
                    }
                }
            }
            t += 1;
        }
        (step, t)
    }

    #[test]
    fn graham_matches_the_lowest_id_first_reference() {
        for inst in crate::list_schedule::tests::oracle_instances() {
            for m in [1, 2, 7, 64, inst.num_tasks() + 3] {
                assert_eq!(
                    graham_union_steps(&inst, m),
                    graham_reference(&inst, m),
                    "{} m={m}",
                    inst.name()
                );
            }
        }
    }

    /// FNV-1a of the step vector, then `T`, on tetonly × S4: read before
    /// the frontier was reworked and never changed.
    #[test]
    fn graham_steps_on_meshes_are_pinned() {
        let fnv1a = |words: &[u32]| {
            let bytes = words.iter().flat_map(|w| w.to_le_bytes());
            bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let quad = sweep_quadrature::QuadratureSet::level_symmetric(4).unwrap();
        // (scale, m, fnv1a(steps ++ [T]), T)
        let pinned = [
            (0.05, 16, 0x6455_b83a_f80c_819e, 2373),
            (0.05, 64, 0x3cf2_d669_7131_c731, 611),
            (0.125, 16, 0x990b_47b2_0adb_80c9, 5914),
            (0.125, 64, 0xbd7e_ebb1_0512_bcf3, 1497),
        ];
        for (scale, m, hash, makespan) in pinned {
            let mesh = sweep_mesh::MeshPreset::Tetonly.build_scaled(scale).unwrap();
            let inst = SweepInstance::from_mesh(&mesh, &quad, "tetonly").0;
            let (mut steps, t) = graham_union_steps(&inst, m);
            steps.push(t);
            assert_eq!((fnv1a(&steps), t), (hash, makespan), "{scale} m={m}");
        }
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

    /// Graham's bound `T·m ≤ nk + (m − 1)·D` for greedy unit tasks, and
    /// what `lower_bounds` rests on: the witness `⌈T·m/(2m − 1)⌉`, a
    /// weighted mean of `⌈nk/m⌉` and `D` rounded up, never beats their max.
    #[test]
    fn graham_witness_never_beats_load_or_depth() {
        for inst in oracle_instances() {
            let (nk, depth) = (inst.num_tasks() as u64, inst.max_depth() as u64);
            for m in [1, 2, 7, 64, nk + 3] {
                let (_, t) = graham_union_steps(&inst, m as usize);
                let t = u64::from(t);
                let label = format!("{} m={m} T={t}", inst.name());
                assert!(t * m <= nk + (m - 1) * depth, "{label}");
                let lb = lower_bounds(&inst, m as usize);
                let witness = (t * m).div_ceil(2 * m - 1);
                assert!(witness <= lb.avg_load.max(lb.depth), "{label}");
            }
        }
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
            let s = Algorithm::ImprovedRandomDelay.run(&inst, a.clone(), seed);
            validate(&inst, &s).unwrap();
            let s2 = Algorithm::ImprovedWithPriorities.run(&inst, a, seed);
            validate(&inst, &s2).unwrap();
        }
    }

    #[test]
    fn improved_with_priorities_not_worse_in_practice() {
        let inst = SweepInstance::random_layered(100, 5, 8, 2, 1);
        let a = Assignment::random_cells(100, 8, 2);
        let delays = random_delays(5, 3);
        let s1 = algorithm3_with(&inst, a.clone(), &delays);
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
        let s3 = algorithm3_with(&inst, a, &delays);
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
            let schedule = algorithm3_with(&inst, a.clone(), &delays);
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
        let s = algorithm3_with(&inst, a, &[0]);
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
