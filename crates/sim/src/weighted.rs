//! Non-uniform task costs — relaxing the paper's `p = 1` assumption.
//!
//! Real transport meshes have heterogeneous cells (local refinement,
//! material interfaces), so production sweeps have per-cell work that
//! varies by an order of magnitude. This module provides weighted list
//! scheduling (tasks of cell `v` take `weight[v]` time in every
//! direction), a weighted feasibility validator, and weighted lower
//! bounds. The scheduler is not a loop of its own: it is the crate's one
//! event engine ([`faulty`](crate::faulty)) on the empty plan at latency
//! 0, where every completion is visible at once. The random-delay
//! priorities carry over unchanged — the delay argument only needs the
//! *layering*, not unit durations — so [`weighted_random_delay_priorities`]
//! is the natural weighted analogue of Algorithm 2.

use sweep_core::{delayed_level_priorities, random_delays, Assignment};
use sweep_dag::{levels, SweepInstance, TaskId};
use sweep_faults::FaultPlan;

use crate::faulty::execute;

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

/// Weighted list scheduling: a processor freed by a completion takes its
/// ready task of minimum `priority` (ties by task id), counting every
/// task that completion readied on it; an idle processor starts a task
/// the moment one becomes ready on it.
///
/// # Panics
/// Panics on mismatched array lengths, a zero weight, or a total work
/// `k·Σw` of `2^53` or more (the engine's `f64` times are then no longer
/// exact integers).
pub fn weighted_list_schedule(
    instance: &SweepInstance,
    assignment: Assignment,
    weights: &[u64],
    priority: &[i64],
) -> WeightedSchedule {
    // No time passes the total work, so below 2^53 every start and
    // finish is an exact integer in f64. `execute` checks the weights.
    let work = weights.iter().map(|&w| u128::from(w)).sum::<u128>();
    let k = instance.num_directions() as u128;
    assert!(work * k < 1 << 53, "total work k·Σw must be below 2^53");
    let plan = FaultPlan::none();
    let (report, trace) = execute(instance, &assignment, priority, Some(weights), 0.0, &plan);
    let mut start = vec![0u64; instance.num_tasks()];
    for e in &trace.execs {
        start[e.task as usize] = e.start as u64;
    }
    WeightedSchedule {
        start,
        assignment,
        makespan: report.makespan as u64,
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
        let mut f = vec![0u64; n];
        for v in levels(dag).layer_nodes {
            let mut best = 0u64;
            for u in dag.predecessors(v) {
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
        let prio = sweep_core::level_priorities(&inst);
        let ws = weighted_list_schedule(&inst, a.clone(), &w, &prio);
        validate_weighted(&inst, &ws, &w).unwrap();
        let us = sweep_core::list_schedule(&inst, a, &prio, None);
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
        let prio = sweep_core::level_priorities(&inst);
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
    fn freed_processor_picks_among_everything_its_completion_readied() {
        // 0 → 1 and 0 → 2 on one processor: finishing 0 readies both, and
        // the processor must then take 2 (priority 1) before 1 (priority 5).
        let dag = sweep_dag::TaskDag::from_edges(3, &[(0, 1), (0, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "fork");
        let w = vec![1u64; 3];
        let s = weighted_list_schedule(&inst, Assignment::single(3), &w, &[0, 5, 1]);
        assert_eq!(s.start, vec![0, 2, 1]);
        assert_eq!(s.makespan, 3);
        validate_weighted(&inst, &s, &w).unwrap();
    }

    #[test]
    #[should_panic(expected = "2^53")]
    fn work_past_exact_f64_times_rejected() {
        let inst = SweepInstance::identical_chains(2, 1);
        let w = [1u64 << 52, 1 << 52];
        weighted_list_schedule(&inst, Assignment::single(2), &w, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let inst = SweepInstance::identical_chains(2, 1);
        weighted_lower_bound(&inst, &[1, 0], 2);
    }
}
