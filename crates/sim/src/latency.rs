//! Latency-aware schedule evaluation — between the paper's two extremes.
//!
//! The paper scores communication with two proxies (C1, C2) and notes the
//! real cost lies in between; it also flags its no-overlap assumption as
//! "clearly a simplifying assumption". This module evaluates a schedule
//! under a *message-latency* model with full computation/communication
//! overlap:
//!
//! * each processor executes its tasks in the order given by the
//!   schedule (ties broken by start time, then task id);
//! * a task may begin once its processor is free **and** every
//!   predecessor result has arrived — instantly from the same processor,
//!   after `latency` time units from another one;
//! * messages travel concurrently (no bandwidth contention).
//!
//! The resulting completion time is the longest path through the
//! "order-plus-dependence" graph, computed in one topological pass. At
//! `latency = 0` it equals the unit-cost makespan whenever the schedule
//! is non-idling; as `latency` grows, assignments with fewer cut edges
//! (block/KBA) overtake per-cell random assignment — quantifying the
//! trade-off Figures 2(a)/(b) only show as separate curves.

use sweep_core::Schedule;
use sweep_dag::{SweepInstance, TaskId};

/// The completion time of the last task when `schedule` runs under the
/// overlap model with per-message `latency ≥ 0` and unit task cost.
pub fn latency_makespan(instance: &SweepInstance, schedule: &Schedule, latency: f64) -> f64 {
    assert!(latency >= 0.0, "latency must be non-negative");
    let n = instance.num_cells();
    let starts = schedule.starts();

    // Completion-time recurrence over the union of dependence edges and
    // same-processor order edges. Process tasks globally ordered by
    // (scheduled start, id): every predecessor of either kind has a
    // strictly smaller scheduled start (dependence ⇒ earlier start by
    // feasibility; order ⇒ earlier by construction), so one pass suffices,
    // and a task's predecessor on its processor is the last task of that
    // processor the pass has seen.
    let mut order: Vec<u64> = (0..starts.len() as u64).collect();
    order.sort_unstable_by_key(|&t| (starts[t as usize], t));

    let mut finish = vec![0.0f64; starts.len()];
    // The finish time of the last task seen on each processor.
    let mut proc_free = vec![0.0f64; schedule.num_procs()];
    for &t in &order {
        let (v, dir) = TaskId(t).unpack(n);
        let pv = schedule.proc_of_cell(v);
        let mut ready = proc_free[pv as usize];
        for u in instance.dag(dir as usize).predecessors(v) {
            let delay = if schedule.proc_of_cell(u) != pv {
                latency
            } else {
                0.0
            };
            ready = ready.max(finish[TaskId::pack(u, dir, n).index()] + delay);
        }
        finish[t as usize] = ready + 1.0;
        proc_free[pv as usize] = finish[t as usize];
    }
    finish.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{c1_interprocessor_edges, greedy_schedule, validate, Assignment};
    use sweep_dag::{SweepInstance, TaskDag};

    #[test]
    fn zero_latency_matches_replay() {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 3);
        let a = Assignment::random_cells(60, 6, 1);
        let s = greedy_schedule(&inst, a);
        validate(&inst, &s).unwrap();
        let r = latency_makespan(&inst, &s, 0.0);
        // Greedy list schedules are non-idling replays, so the latency-0
        // completion time can only improve on (or match) the slotted
        // makespan.
        assert!(r <= s.makespan() as f64 + 1e-9);
    }

    #[test]
    fn latency_increases_makespan_monotonically() {
        let inst = SweepInstance::random_layered(80, 4, 8, 2, 5);
        let a = Assignment::random_cells(80, 8, 2);
        let s = greedy_schedule(&inst, a);
        let mut prev = 0.0;
        for lat in [0.0, 0.5, 1.0, 4.0, 16.0] {
            let r = latency_makespan(&inst, &s, lat);
            assert!(r >= prev, "latency {lat}");
            prev = r;
        }
    }

    #[test]
    fn single_processor_ignores_latency() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 1);
        let s = greedy_schedule(&inst, Assignment::single(40));
        let r0 = latency_makespan(&inst, &s, 0.0);
        let r9 = latency_makespan(&inst, &s, 99.0);
        assert_eq!(c1_interprocessor_edges(&inst, s.assignment()), 0);
        assert!((r0 - r9).abs() < 1e-12);
        assert_eq!(r0, inst.num_tasks() as f64);
    }

    #[test]
    fn cross_chain_pays_latency_per_hop() {
        // Chain 0 -> 1 -> 2 alternating processors: makespan = 3 tasks + 2
        // crossings × latency.
        let dag = TaskDag::from_edges(3, &[(0, 1), (1, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "c");
        let a = Assignment::from_vec(vec![0, 1, 0], 2);
        let s = greedy_schedule(&inst, a);
        let r = latency_makespan(&inst, &s, 10.0);
        assert_eq!(c1_interprocessor_edges(&inst, s.assignment()), 2);
        assert!((r - (3.0 + 20.0)).abs() < 1e-12);
    }

    #[test]
    fn fewer_cut_edges_win_at_high_latency() {
        // The experiment motivating this module, in miniature: a chain
        // split across processors vs kept on one. At latency 0 they tie
        // (chain is sequential anyway); at high latency the single-proc
        // placement wins.
        let dag = TaskDag::from_edges(10, &(0..9u32).map(|v| (v, v + 1)).collect::<Vec<_>>());
        let inst = SweepInstance::new(10, vec![dag], "chain");
        let split = Assignment::from_vec((0..10u32).map(|v| v % 2).collect(), 2);
        let solo = Assignment::from_vec(vec![0; 10], 2);
        let s_split = greedy_schedule(&inst, split);
        let s_solo = greedy_schedule(&inst, solo);
        let high = 5.0;
        let r_split = latency_makespan(&inst, &s_split, high);
        let r_solo = latency_makespan(&inst, &s_solo, high);
        assert!(r_solo < r_split);
        let r_split0 = latency_makespan(&inst, &s_split, 0.0);
        let r_solo0 = latency_makespan(&inst, &s_solo, 0.0);
        assert!((r_split0 - r_solo0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_latency_rejected() {
        let inst = SweepInstance::identical_chains(3, 1);
        let s = greedy_schedule(&inst, Assignment::single(3));
        latency_makespan(&inst, &s, -1.0);
    }
}
