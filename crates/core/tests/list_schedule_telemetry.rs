//! The list scheduler's telemetry with recording on — a binary of its
//! own, because the collector is process-global and every other test
//! that schedules would add to the same counters.

use sweep_core::{greedy_schedule, list_schedule, Assignment};
use sweep_dag::{SweepInstance, TaskDag};
use sweep_telemetry as telemetry;

#[test]
fn ready_peak_steps_and_tasks_are_counted_exactly() {
    telemetry::set_enabled(true);

    // Two 6-chains on one processor: one task of each chain is ready at
    // every step until the first chain runs dry.
    let chains = SweepInstance::identical_chains(6, 2);
    let s = greedy_schedule(&chains, Assignment::single(6));
    assert_eq!(s.makespan(), 12);
    let snap = telemetry::snapshot();
    assert_eq!(snap.counters["sched.list_schedule.steps"], 12);
    assert_eq!(snap.counters["sched.tasks_scheduled"], 12);
    assert_eq!(snap.gauges["sched.list_schedule.ready_peak"], 2.0);

    // Ten independent cells, half of them in a direction released at
    // step 3: the peak is read before a step's releases join the set.
    telemetry::reset();
    let free = SweepInstance::new(5, vec![TaskDag::edgeless(5); 2], "free");
    let s = list_schedule(&free, Assignment::single(5), &[0; 10], Some(&[0, 3]));
    assert_eq!(s.makespan(), 10);
    let snap = telemetry::snapshot();
    assert_eq!(snap.counters["sched.list_schedule.steps"], 10);
    assert_eq!(snap.counters["sched.tasks_scheduled"], 10);
    // 5 at step 0; 2 left + 5 released at step 3 → 6 at the top of step 4.
    assert_eq!(snap.gauges["sched.list_schedule.ready_peak"], 6.0);
}
