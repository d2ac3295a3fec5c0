//! Communication-cost measures from §5 ("Objective functions").
//!
//! * **C1** — static cost: the number of DAG edges `((u,i),(v,i))` whose
//!   endpoint cells live on different processors. Depends only on the
//!   assignment.
//! * **C2** — per-step cost: after each computation step there is one
//!   round of communication taking as long as the *maximum number of
//!   messages any processor has to send* (its off-processor out-degree at
//!   that step); `C2` is the sum of these maxima over all steps. Depends
//!   on the full schedule.

use sweep_dag::SweepInstance;

use crate::assignment::Assignment;
use crate::schedule::{certify, Schedule};

/// C1: total number of interprocessor edges over all directions.
pub fn c1_interprocessor_edges(instance: &SweepInstance, assignment: &Assignment) -> u64 {
    assert_eq!(assignment.num_cells(), instance.num_cells());
    let mut c1 = 0u64;
    for dag in instance.dags() {
        for (u, v) in dag.edges() {
            if assignment.proc_of(u) != assignment.proc_of(v) {
                c1 += 1;
            }
        }
    }
    c1
}

/// The fraction of edges that cross processors, `C1 / total_edges`
/// (the paper's observation 1 notes this approaches `(m−1)/m` under
/// per-cell random assignment). Returns 0 for edgeless instances.
pub fn cut_fraction(instance: &SweepInstance, assignment: &Assignment) -> f64 {
    let total = instance.total_edges();
    if total == 0 {
        return 0.0;
    }
    c1_interprocessor_edges(instance, assignment) as f64 / total as f64
}

/// C2: Σ over timesteps of the maximum per-processor number of
/// off-processor messages sent after that step. A message is one cut edge
/// whose source task completes at the step; a processor running two tasks
/// in one step (an infeasible schedule) sends both tasks' messages. The
/// C2 of [`certify`].
///
/// # Panics
/// Panics when the schedule does not cover exactly the instance's tasks.
pub fn c2_comm_delay(instance: &SweepInstance, schedule: &Schedule) -> u64 {
    assert_eq!(schedule.assignment().num_cells(), instance.num_cells());
    assert_eq!(schedule.starts().len(), instance.num_tasks());
    certify(instance, schedule).c2
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::list_schedule::greedy_schedule;
    use sweep_dag::{TaskDag, TaskId};

    /// The body [`c2_comm_delay`] replaced, one comparison sort of a
    /// `(time, proc)` event per cut edge: the oracle it must agree with.
    pub(crate) fn c2_reference(instance: &SweepInstance, schedule: &Schedule) -> u64 {
        let n = instance.num_cells();
        let mut events: Vec<(u32, u32)> = Vec::new();
        for (i, dag) in instance.dags().iter().enumerate() {
            for (u, v) in dag.edges() {
                let pu = schedule.proc_of_cell(u);
                if pu != schedule.proc_of_cell(v) {
                    events.push((schedule.start_of(TaskId::pack(u, i as u32, n)), pu));
                }
            }
        }
        events.sort_unstable();
        let mut c2 = 0u64;
        let mut idx = 0usize;
        while idx < events.len() {
            let t = events[idx].0;
            let mut max_in_t = 0u64;
            while idx < events.len() && events[idx].0 == t {
                let p = events[idx].1;
                let mut run = 0u64;
                while idx < events.len() && events[idx] == (t, p) {
                    run += 1;
                    idx += 1;
                }
                max_in_t = max_in_t.max(run);
            }
            c2 += max_in_t;
        }
        c2
    }

    fn two_cell_instance() -> SweepInstance {
        SweepInstance::new(2, vec![TaskDag::from_edges(2, &[(0, 1)])], "i")
    }

    #[test]
    fn c1_counts_cut_edges() {
        let inst = two_cell_instance();
        let same = Assignment::single(2);
        assert_eq!(c1_interprocessor_edges(&inst, &same), 0);
        let split = Assignment::from_vec(vec![0, 1], 2);
        assert_eq!(c1_interprocessor_edges(&inst, &split), 1);
        assert!((cut_fraction(&inst, &split) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn c1_zero_when_single_processor() {
        let inst = SweepInstance::random_layered(50, 3, 5, 2, 1);
        let a = Assignment::single(50);
        assert_eq!(c1_interprocessor_edges(&inst, &a), 0);
    }

    #[test]
    fn c2_simple_case() {
        // 0 -> 1 across processors: the single message is sent when task 0
        // completes; C2 = 1.
        let inst = two_cell_instance();
        let a = Assignment::from_vec(vec![0, 1], 2);
        let s = greedy_schedule(&inst, a);
        assert_eq!(c2_comm_delay(&inst, &s), 1);
    }

    #[test]
    fn c2_takes_max_not_sum_within_a_step() {
        // One source cell with two off-proc successors in one direction:
        // both messages leave the same processor at the same step ⇒ that
        // step contributes 2. Two sources on different procs, one message
        // each, same step ⇒ contributes max = 1.
        let dag = TaskDag::from_edges(3, &[(0, 1), (0, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "fan");
        let a = Assignment::from_vec(vec![0, 1, 1], 2);
        let s = greedy_schedule(&inst, a);
        assert_eq!(c2_comm_delay(&inst, &s), 2);

        let dag2 = TaskDag::from_edges(4, &[(0, 2), (1, 3)]);
        let inst2 = SweepInstance::new(4, vec![dag2], "par");
        let a2 = Assignment::from_vec(vec![0, 1, 1, 0], 2);
        let s2 = greedy_schedule(&inst2, a2);
        // Sources 0 and 1 run at t=0 on different procs; each sends one.
        assert_eq!(c2_comm_delay(&inst2, &s2), 1);
    }

    #[test]
    fn c2_bounded_by_c1() {
        // Each cut edge contributes to exactly one step's max candidate, so
        // C2 ≤ C1 always.
        for seed in 0..4u64 {
            let inst = SweepInstance::random_layered(60, 4, 6, 2, seed);
            let a = Assignment::random_cells(60, 6, seed);
            let s = greedy_schedule(&inst, a.clone());
            assert!(c2_comm_delay(&inst, &s) <= c1_interprocessor_edges(&inst, &a));
        }
    }

    #[test]
    fn random_assignment_cut_fraction_near_m_minus_1_over_m() {
        // Paper §5.1 observation 1.
        let inst = SweepInstance::random_layered(2000, 4, 12, 3, 3);
        let m = 8;
        let a = Assignment::random_cells(2000, m, 5);
        let f = cut_fraction(&inst, &a);
        let expect = (m - 1) as f64 / m as f64;
        assert!((f - expect).abs() < 0.05, "fraction {f} vs {expect}");
    }

    #[test]
    fn idle_slots_zero_on_empty_schedule() {
        // Regression: `m · makespan − tasks` used to underflow-panic (debug)
        // whenever the product was smaller than the task count; the empty
        // schedule is the simplest such boundary (0·0 − 0).
        let inst = SweepInstance::new(0, vec![TaskDag::edgeless(0)], "empty");
        let s = greedy_schedule(&inst, Assignment::single(0));
        assert_eq!(s.makespan(), 0);
        assert_eq!(certify(&inst, &s).idle_slots, 0);
    }

    #[test]
    fn idle_slots_saturates_on_conflicting_schedule() {
        // An unchecked schedule packing two tasks into the same (proc, step)
        // slot has m·makespan = 1 < 2 tasks; the metric must clamp to 0,
        // not wrap around to u64::MAX − 1.
        let inst = SweepInstance::new(2, vec![TaskDag::edgeless(2)], "pair");
        let s = Schedule::new_checked(vec![0, 0], Assignment::single(2));
        assert_eq!(s.makespan(), 1);
        assert_eq!(certify(&inst, &s).idle_slots, 0);
    }
}
