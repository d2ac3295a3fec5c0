//! Exact optimal sweep schedules for *tiny* instances, by branch and
//! bound.
//!
//! The paper closes by noting the value of "good lower bounds on the
//! quality of schedules"; this module provides the strongest possible
//! one — the true optimum — for instances small enough to enumerate
//! (`n·k ≲ 24` tasks). Used by tests to certify that the approximation
//! algorithms' empirical ratios are measured against OPT, not just the
//! `max{nk/m, k, D}` proxy.
//!
//! Two levels:
//!
//! * [`optimal_makespan_fixed_assignment`] — DFS with memoization over
//!   done-task bitmasks, exploiting the exchange argument that some
//!   optimal schedule never idles a processor that has a ready task;
//! * [`optimal_sweep_makespan`] — additionally minimizes over cell →
//!   processor assignments, enumerated as restricted-growth strings
//!   (set partitions into ≤ m blocks) so processor symmetry is not
//!   re-explored.

use sweep_dag::{levels, SweepInstance, TaskId};

use crate::assignment::Assignment;
use crate::bounds::lower_bounds;

/// Hard cap on task count for the exact search.
pub const MAX_TASKS: usize = 24;

/// Sentinel marking a done-mask state the search has not reached yet.
const UNSEEN: u32 = u32::MAX;

/// Exact optimal makespan for a *fixed* assignment.
///
/// # Panics
/// Panics when `n·k > MAX_TASKS` (the bitmask search would blow up).
pub fn optimal_makespan_fixed_assignment(instance: &SweepInstance, assignment: &Assignment) -> u32 {
    optimal_fixed_with_memo(instance, assignment, &mut Vec::new())
}

/// Implementation of [`optimal_makespan_fixed_assignment`] with a
/// caller-owned memo buffer, so [`optimal_sweep_makespan`]'s assignment
/// enumeration reuses one allocation across its whole search.
fn optimal_fixed_with_memo(
    instance: &SweepInstance,
    assignment: &Assignment,
    memo: &mut Vec<u32>,
) -> u32 {
    let total = instance.num_tasks();
    assert!(
        total <= MAX_TASKS,
        "exact search capped at {MAX_TASKS} tasks"
    );
    assert_eq!(assignment.num_cells(), instance.num_cells());
    if total == 0 {
        return 0;
    }
    let n = instance.num_cells();
    let m = assignment.num_procs();

    // Precompute per-task predecessor masks and processor.
    let mut pred_mask = vec![0u32; total];
    let mut proc = vec![0u8; total];
    for (i, dag) in instance.dags().iter().enumerate() {
        for v in 0..n as u32 {
            let t = TaskId::pack(v, i as u32, n).index();
            proc[t] = assignment.proc_of(v) as u8;
            for u in dag.predecessors(v) {
                pred_mask[t] |= 1 << TaskId::pack(u, i as u32, n).index();
            }
        }
    }
    // Simple critical-path tail bound per task (in tasks, including self).
    let mut tail = vec![1u32; total];
    for (i, dag) in instance.dags().iter().enumerate() {
        for &v in levels(dag).layer_nodes.iter().rev() {
            let t = TaskId::pack(v, i as u32, n).index();
            for w in dag.successors(v) {
                let wt = TaskId::pack(w, i as u32, n).index();
                tail[t] = tail[t].max(tail[wt] + 1);
            }
        }
    }

    struct Ctx {
        total: usize,
        m: usize,
        pred_mask: Vec<u32>,
        proc: Vec<u8>,
        tail: Vec<u32>,
        // Flat memo keyed directly by the done-mask (2^total entries,
        // UNSEEN = not reached): earliest elapsed time this state was
        // reached at. Replaces the former HashMap — the probe on the
        // search's innermost path is one indexed load, no hashing.
        memo: Vec<u32>,
        // Scratch per-processor load vector for remaining_lb, reused
        // across the whole search instead of allocated per node.
        load: Vec<u32>,
        best: u32,
    }

    impl Ctx {
        /// Remaining-time lower bound from state `done`.
        fn remaining_lb(&mut self, done: u32) -> u32 {
            let remaining = self.total as u32 - done.count_ones();
            self.load.iter_mut().for_each(|x| *x = 0);
            let mut cp = 0u32;
            for t in 0..self.total {
                if done & (1 << t) == 0 {
                    self.load[self.proc[t] as usize] += 1;
                    cp = cp.max(self.tail[t]);
                }
            }
            let maxload = self.load.iter().copied().max().unwrap_or(0);
            maxload.max(cp).max(remaining.div_ceil(self.m as u32))
        }

        fn dfs(&mut self, done: u32, elapsed: u32) {
            if done.count_ones() as usize == self.total {
                self.best = self.best.min(elapsed);
                return;
            }
            if elapsed + self.remaining_lb(done) >= self.best {
                return;
            }
            let seen = self.memo[done as usize];
            if seen != UNSEEN && seen <= elapsed {
                return; // reached this state at least as early before
            }
            self.memo[done as usize] = elapsed;

            // Ready tasks bucketed by processor in CSR form, entirely on
            // the stack (total ≤ MAX_TASKS, proc ids fit u8): counts,
            // then prefix offsets, then a fill pass. No per-node heap
            // allocation on the search's hot path.
            let mut count = [0u8; 256];
            for t in 0..self.total {
                let bit = 1u32 << t;
                if done & bit == 0 && self.pred_mask[t] & !done == 0 {
                    count[self.proc[t] as usize] += 1;
                }
            }
            // proc ids are stored as u8, so at most 256 buckets matter
            // even when the assignment declares more processors.
            let pm = self.m.min(256);
            let mut offset = [0u8; 257];
            for p in 0..pm {
                offset[p + 1] = offset[p] + count[p];
            }
            let mut fill = offset;
            let mut ready = [0u32; MAX_TASKS];
            for t in 0..self.total {
                let bit = 1u32 << t;
                if done & bit == 0 && self.pred_mask[t] & !done == 0 {
                    let p = self.proc[t] as usize;
                    ready[fill[p] as usize] = t as u32;
                    fill[p] += 1;
                }
            }
            // (start, len) ranges of processors that have ready work.
            let mut busy = [(0u8, 0u8); MAX_TASKS];
            let mut nb = 0usize;
            for p in 0..pm {
                if count[p] > 0 {
                    busy[nb] = (offset[p], count[p]);
                    nb += 1;
                }
            }
            debug_assert!(nb > 0, "acyclic instance always has ready work");

            // Branch over the cartesian product of per-processor choices.
            // By the exchange argument a processor with ready tasks never
            // idles in some optimal schedule, so "idle" is not a branch.
            let mut choice = [0u8; MAX_TASKS];
            loop {
                let mut next = done;
                for (ci, &(s, _)) in busy[..nb].iter().enumerate() {
                    next |= 1 << ready[(s + choice[ci]) as usize];
                }
                self.dfs(next, elapsed + 1);
                // Increment the mixed-radix counter.
                let mut pos = 0;
                loop {
                    if pos == nb {
                        return;
                    }
                    choice[pos] += 1;
                    if choice[pos] < busy[pos].1 {
                        break;
                    }
                    choice[pos] = 0;
                    pos += 1;
                }
            }
        }
    }

    memo.clear();
    memo.resize(1usize << total, UNSEEN);
    let mut ctx = Ctx {
        total,
        m,
        pred_mask,
        proc,
        tail,
        memo: std::mem::take(memo),
        load: vec![0u32; m],
        best: total as u32, // serial schedule always feasible
    };
    ctx.dfs(0, 0);
    *memo = ctx.memo;
    ctx.best
}

/// Exact optimal sweep makespan, minimizing over both the cell →
/// processor assignment and the schedule. Assignments are enumerated as
/// set partitions of the cells into at most `m` groups (processor
/// identity is symmetric), so the search is exact without redundancy.
///
/// ```
/// use sweep_core::optimal_sweep_makespan;
/// use sweep_dag::SweepInstance;
///
/// // 4-cell chain in 3 identical directions: the pipeline bound
/// // n + k − 1 is met exactly.
/// let inst = SweepInstance::identical_chains(4, 3);
/// assert_eq!(optimal_sweep_makespan(&inst, 4), 6);
/// ```
///
/// # Panics
/// Panics when `n·k > MAX_TASKS` or `n > 12`.
pub fn optimal_sweep_makespan(instance: &SweepInstance, m: usize) -> u32 {
    let n = instance.num_cells();
    assert!(n <= 12, "assignment enumeration capped at 12 cells");
    assert!(m >= 1);
    if n == 0 {
        return 0;
    }
    let lb = lower_bounds(instance, m).best() as u32;
    let mut best = u32::MAX;
    // One memo allocation for the whole enumeration: each fixed-
    // assignment search refills it instead of reallocating 2^total
    // entries per restricted growth string.
    let mut memo: Vec<u32> = Vec::new();
    // Restricted growth strings: a[0] = 0; a[i] <= max(a[0..i]) + 1, < m.
    let mut a = vec![0u32; n];
    loop {
        let used = a.iter().copied().max().unwrap_or(0) as usize + 1;
        let assignment = Assignment::from_vec(a.clone(), used.max(1));
        let ms = optimal_fixed_with_memo(instance, &assignment, &mut memo);
        best = best.min(ms);
        if best == lb {
            return best; // cannot do better than the lower bound
        }
        // Next restricted growth string.
        let mut i = n - 1;
        loop {
            if i == 0 {
                return best;
            }
            let prefix_max = a[..i].iter().copied().max().unwrap_or(0);
            if a[i] <= prefix_max && (a[i] as usize) < m - 1 {
                a[i] += 1;
                for x in a[i + 1..].iter_mut() {
                    *x = 0;
                }
                break;
            }
            i -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::list_schedule::greedy_schedule;
    use crate::schedule::validate;
    use sweep_dag::TaskDag;

    #[test]
    fn chain_optimum_is_its_length() {
        // One chain, one direction: OPT = n regardless of m.
        let inst = SweepInstance::identical_chains(6, 1);
        for m in [1usize, 2, 3] {
            assert_eq!(optimal_sweep_makespan(&inst, m), 6, "m={m}");
        }
    }

    #[test]
    fn independent_tasks_pack_perfectly() {
        let inst = SweepInstance::new(6, vec![TaskDag::edgeless(6)], "w");
        assert_eq!(optimal_sweep_makespan(&inst, 3), 2); // 6 tasks / 3 procs
        assert_eq!(optimal_sweep_makespan(&inst, 6), 1);
        assert_eq!(optimal_sweep_makespan(&inst, 1), 6);
    }

    #[test]
    fn identical_chains_pipeline_optimally() {
        // n cells, k identical chains: OPT = n + k - 1 with enough procs
        // (pipeline), since cell v's copies serialize and the chain forces
        // order v, v+1 after it.
        let (n, k) = (4usize, 3usize);
        let inst = SweepInstance::identical_chains(n, k);
        let opt = optimal_sweep_makespan(&inst, 4);
        assert_eq!(opt, (n + k - 1) as u32);
    }

    #[test]
    fn fixed_assignment_single_proc_is_serial() {
        let inst = SweepInstance::random_layered(5, 2, 3, 2, 1);
        let a = Assignment::single(5);
        assert_eq!(optimal_makespan_fixed_assignment(&inst, &a), 10);
    }

    #[test]
    fn optimum_between_bounds_and_heuristics() {
        for seed in 0..6u64 {
            let inst = SweepInstance::random_layered(6, 2, 3, 2, seed);
            let m = 3;
            let opt = optimal_sweep_makespan(&inst, m);
            let lb = lower_bounds(&inst, m).best() as u32;
            assert!(opt >= lb, "seed {seed}: OPT {opt} < lb {lb}");
            // Any feasible schedule is an upper bound witness.
            let a = Assignment::random_cells(6, m, seed);
            let s = greedy_schedule(&inst, a);
            validate(&inst, &s).unwrap();
            assert!(opt <= s.makespan(), "seed {seed}: OPT {opt} > greedy");
        }
    }

    #[test]
    fn rdp_close_to_true_optimum_on_tiny_instances() {
        // The real approximation-ratio measurement the paper wished for:
        // on exhaustively solvable instances, Algorithm 2 stays within 2x
        // of the true OPT.
        let mut worst = 1.0f64;
        for seed in 0..8u64 {
            let inst = SweepInstance::random_layered(7, 3, 3, 2, seed);
            let m = 3;
            let opt = optimal_sweep_makespan(&inst, m) as f64;
            let a = Assignment::random_cells(7, m, seed ^ 5);
            let s = Algorithm::RandomDelayPriorities.run(&inst, a, seed ^ 9);
            worst = worst.max(s.makespan() as f64 / opt);
        }
        assert!(
            worst <= 2.0,
            "worst empirical ratio vs true OPT: {worst:.2}"
        );
    }

    #[test]
    fn fixed_assignment_respects_processor_split() {
        // Two independent cells forced onto one processor serialize; split
        // across two they parallelize.
        let inst = SweepInstance::new(2, vec![TaskDag::edgeless(2)], "i");
        let same = Assignment::single(2);
        let split = Assignment::from_vec(vec![0, 1], 2);
        assert_eq!(optimal_makespan_fixed_assignment(&inst, &same), 2);
        assert_eq!(optimal_makespan_fixed_assignment(&inst, &split), 1);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn too_many_tasks_rejected() {
        let inst = SweepInstance::random_layered(13, 2, 3, 1, 0);
        let a = Assignment::single(13);
        optimal_makespan_fixed_assignment(&inst, &a);
    }

    #[test]
    fn empty_instance_zero() {
        let inst = SweepInstance::new(0, vec![TaskDag::edgeless(0)], "e");
        assert_eq!(optimal_sweep_makespan(&inst, 3), 0);
    }
}
