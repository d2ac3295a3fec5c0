//! Non-uniform task costs — relaxing the paper's `p = 1` assumption.
//!
//! Real transport meshes have heterogeneous cells (local refinement,
//! material interfaces), so production sweeps have per-cell work that
//! varies by an order of magnitude. This module provides an event-driven
//! weighted list scheduler (tasks of cell `v` take `weight[v]` time in
//! every direction), a weighted feasibility validator, and weighted lower
//! bounds. The random-delay priorities carry over unchanged — the delay
//! argument only needs the *layering*, not unit durations — so
//! [`weighted_random_delay_priorities`] is the natural weighted analogue
//! of Algorithm 2.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sweep_dag::{SweepInstance, TaskId};

use crate::assignment::Assignment;
use crate::list_schedule::task_in_degrees;
use crate::random_delay::{delayed_level_priorities, random_delays};

/// A schedule with per-task durations: task `(v, i)` runs on
/// `assignment.proc_of(v)` during `[start, start + weight[v])`.
#[derive(Debug, Clone)]
pub struct WeightedSchedule {
    /// Start time per task (`TaskId::index` order).
    pub start: Vec<u64>,
    /// The cell → processor assignment.
    pub assignment: Assignment,
    /// Completion time of the last task.
    pub makespan: u64,
}

/// Validates cell weights: one strictly positive weight per cell.
fn check_weights(n: usize, weights: &[u64]) {
    assert_eq!(weights.len(), n, "one weight per cell");
    assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
}

/// Event-driven weighted list scheduling: at every scheduling decision
/// the freed processor takes its ready task of minimum `priority`
/// (ties by task id).
pub fn weighted_list_schedule(
    instance: &SweepInstance,
    assignment: Assignment,
    weights: &[u64],
    priority: &[i64],
) -> WeightedSchedule {
    let n = instance.num_cells();
    let k = instance.num_directions();
    check_weights(n, weights);
    assert_eq!(priority.len(), n * k, "one priority per task");
    let m = assignment.num_procs();
    let mut start = vec![0u64; n * k];
    if n == 0 {
        return WeightedSchedule {
            start,
            assignment,
            makespan: 0,
        };
    }

    let mut indeg: Vec<u32> = task_in_degrees(instance).collect();
    // Ready heap per processor.
    let mut ready: Vec<BinaryHeap<Reverse<(i64, u64)>>> = vec![BinaryHeap::new(); m];
    for t in 0..(n * k) as u64 {
        if indeg[t as usize] == 0 {
            let v = (t % n as u64) as u32;
            ready[assignment.proc_of(v) as usize].push(Reverse((priority[t as usize], t)));
        }
    }
    // Event queue of task completions: (finish_time, proc, task).
    let mut events: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
    let mut busy = vec![false; m];
    let mut makespan = 0u64;
    let mut pending = n * k;

    // Helper closure semantics inlined: start best ready task on proc at t.
    macro_rules! dispatch {
        ($p:expr, $t:expr) => {{
            let p: usize = $p;
            let now: u64 = $t;
            if !busy[p] {
                if let Some(Reverse((_, task))) = ready[p].pop() {
                    let v = (task % n as u64) as u32;
                    start[task as usize] = now;
                    let fin = now + weights[v as usize];
                    makespan = makespan.max(fin);
                    busy[p] = true;
                    events.push(Reverse((fin, p as u32, task)));
                }
            }
        }};
    }

    for p in 0..m {
        dispatch!(p, 0);
    }
    while let Some(Reverse((t, p, task))) = events.pop() {
        busy[p as usize] = false;
        pending -= 1;
        let (v, dir) = TaskId(task).unpack(n);
        for &w in instance.dag(dir as usize).successors(v) {
            let wt = TaskId::pack(w, dir, n).index();
            indeg[wt] -= 1;
            if indeg[wt] == 0 {
                let wp = assignment.proc_of(w) as usize;
                ready[wp].push(Reverse((priority[wt], wt as u64)));
                dispatch!(wp, t);
            }
        }
        dispatch!(p as usize, t);
    }
    debug_assert_eq!(pending, 0, "all tasks must complete");
    WeightedSchedule {
        start,
        assignment,
        makespan,
    }
}

/// Weighted Algorithm 2: `Γ(v,i) = level_i(v) + X_i` priorities under the
/// weighted scheduler.
pub fn weighted_random_delay_priorities(
    instance: &SweepInstance,
    assignment: Assignment,
    weights: &[u64],
    seed: u64,
) -> WeightedSchedule {
    let delays = random_delays(instance.num_directions(), seed);
    let prio = delayed_level_priorities(instance, &delays);
    weighted_list_schedule(instance, assignment, weights, &prio)
}

/// Weighted feasibility violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightedViolation {
    /// Precedence violated (successor starts before predecessor ends).
    Precedence {
        /// Direction id.
        dir: u32,
        /// Upstream cell.
        u: u32,
        /// Downstream cell.
        v: u32,
    },
    /// Two tasks overlap on one processor.
    Overlap {
        /// The double-booked processor.
        proc: u32,
        /// First task (by id).
        a: u64,
        /// Second task (by id).
        b: u64,
    },
}

impl std::fmt::Display for WeightedViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightedViolation::Precedence { dir, u, v } => {
                write!(f, "direction {dir}: {u} must end before {v} starts")
            }
            WeightedViolation::Overlap { proc, a, b } => {
                write!(f, "processor {proc}: tasks {a} and {b} overlap")
            }
        }
    }
}

impl std::error::Error for WeightedViolation {}

/// Independent validator for weighted schedules.
pub fn validate_weighted(
    instance: &SweepInstance,
    schedule: &WeightedSchedule,
    weights: &[u64],
) -> Result<(), WeightedViolation> {
    let n = instance.num_cells();
    check_weights(n, weights);
    for (i, dag) in instance.dags().iter().enumerate() {
        for (u, v) in dag.edges() {
            let su = schedule.start[TaskId::pack(u, i as u32, n).index()];
            let sv = schedule.start[TaskId::pack(v, i as u32, n).index()];
            if sv < su + weights[u as usize] {
                return Err(WeightedViolation::Precedence {
                    dir: i as u32,
                    u,
                    v,
                });
            }
        }
    }
    // Per-processor interval overlap check.
    let m = schedule.assignment.num_procs();
    let mut per_proc: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); m]; // (start, end, task)
    for t in 0..(n * instance.num_directions()) as u64 {
        let v = (t % n as u64) as u32;
        let s = schedule.start[t as usize];
        per_proc[schedule.assignment.proc_of(v) as usize].push((s, s + weights[v as usize], t));
    }
    for (p, list) in per_proc.iter_mut().enumerate() {
        list.sort_unstable();
        for w in list.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(WeightedViolation::Overlap {
                    proc: p as u32,
                    a: w[0].2,
                    b: w[1].2,
                });
            }
        }
    }
    Ok(())
}

/// Weighted lower bound: `max(⌈k·Σw/m⌉, k·max_w, weighted critical path)`.
pub fn weighted_lower_bound(instance: &SweepInstance, weights: &[u64], m: usize) -> u64 {
    let n = instance.num_cells();
    check_weights(n, weights);
    assert!(m > 0);
    let total: u64 = weights.iter().sum::<u64>() * instance.num_directions() as u64;
    let load = total.div_ceil(m as u64);
    // All k copies of the heaviest cell serialize on one processor.
    let serial = weights.iter().copied().max().unwrap_or(0) * instance.num_directions() as u64;
    // Weighted critical path per direction.
    let mut cp = 0u64;
    for dag in instance.dags() {
        let order = dag.topo_order().expect("acyclic");
        let mut f = vec![0u64; n];
        for &v in &order {
            let mut best = 0u64;
            for &u in dag.predecessors(v) {
                best = best.max(f[u as usize]);
            }
            f[v as usize] = best + weights[v as usize];
            cp = cp.max(f[v as usize]);
        }
    }
    load.max(serial).max(cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn random_weights(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(1..10u64)).collect()
    }

    #[test]
    fn unit_weights_match_unit_engine() {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 1);
        let a = Assignment::random_cells(60, 6, 2);
        let w = vec![1u64; 60];
        let prio = crate::priorities::level_priorities(&inst);
        let ws = weighted_list_schedule(&inst, a.clone(), &w, &prio);
        validate_weighted(&inst, &ws, &w).unwrap();
        let us = crate::list_schedule::list_schedule(&inst, a, &prio, None);
        // Event-driven dispatch can differ from slotted dispatch in tie
        // handling, so require equality only of the bound-level behaviour.
        assert!(ws.makespan <= us.makespan() as u64 + 2);
        assert!(ws.makespan >= weighted_lower_bound(&inst, &w, 6));
    }

    #[test]
    fn weighted_schedules_feasible_across_seeds() {
        for seed in 0..5u64 {
            let inst = SweepInstance::random_layered(80, 4, 8, 2, seed);
            let w = random_weights(80, seed);
            let a = Assignment::random_cells(80, 8, seed ^ 3);
            let s = weighted_random_delay_priorities(&inst, a, &w, seed);
            validate_weighted(&inst, &s, &w).unwrap();
            assert!(s.makespan >= weighted_lower_bound(&inst, &w, 8));
        }
    }

    #[test]
    fn heavy_cell_dominates_lower_bound() {
        let inst = SweepInstance::identical_chains(10, 4);
        let mut w = vec![1u64; 10];
        w[5] = 100;
        let lb = weighted_lower_bound(&inst, &w, 4);
        assert!(lb >= 400, "four copies of the heavy cell serialize: {lb}");
    }

    #[test]
    fn single_proc_weighted_makespan_is_total_work() {
        let inst = SweepInstance::random_layered(30, 3, 5, 2, 2);
        let w = random_weights(30, 7);
        let total: u64 = w.iter().sum::<u64>() * 3;
        let prio = crate::priorities::level_priorities(&inst);
        let s = weighted_list_schedule(&inst, Assignment::single(30), &w, &prio);
        validate_weighted(&inst, &s, &w).unwrap();
        assert_eq!(s.makespan, total);
    }

    #[test]
    fn validator_catches_overlap_and_precedence() {
        let inst = SweepInstance::identical_chains(2, 1);
        let w = vec![5u64, 5];
        // Precedence violation: successor starts at 3 < 0 + 5.
        let bad = WeightedSchedule {
            start: vec![0, 3],
            assignment: Assignment::from_vec(vec![0, 1], 2),
            makespan: 8,
        };
        assert!(matches!(
            validate_weighted(&inst, &bad, &w),
            Err(WeightedViolation::Precedence { .. })
        ));
        // Overlap: two independent cells on one proc at overlapping times.
        let inst2 = SweepInstance::new(2, vec![sweep_dag::TaskDag::edgeless(2)], "i");
        let bad2 = WeightedSchedule {
            start: vec![0, 2],
            assignment: Assignment::single(2),
            makespan: 7,
        };
        let err = validate_weighted(&inst2, &bad2, &w).unwrap_err();
        assert!(matches!(err, WeightedViolation::Overlap { proc: 0, .. }));
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn weighted_ratio_stays_small() {
        // The weighted analogue of the paper's empirical claim.
        let inst = SweepInstance::random_layered(200, 6, 10, 2, 9);
        let w = random_weights(200, 4);
        let m = 16;
        let a = Assignment::random_cells(200, m, 5);
        let s = weighted_random_delay_priorities(&inst, a, &w, 6);
        let lb = weighted_lower_bound(&inst, &w, m);
        let ratio = s.makespan as f64 / lb as f64;
        assert!(ratio < 3.0, "weighted ratio {ratio:.2}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let inst = SweepInstance::identical_chains(2, 1);
        weighted_lower_bound(&inst, &[1, 0], 2);
    }
}
