//! The list scheduler's telemetry with recording on — a binary of its
//! own, because the collector is process-global and every other test
//! that schedules would add to the same counters.

use sweep_core::{best_of_trials_with_pool, greedy_schedule, list_schedule, Algorithm, Assignment};
use sweep_dag::{SweepInstance, TaskDag};
use sweep_pool::ThreadPool;
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

    // Best-of-4 runs an engine four times — no fifth run rebuilds the
    // winner — and once for an algorithm that draws no delays; Algorithm
    // 3's Graham pass runs once per call, not once per trial.
    let inst = SweepInstance::random_layered(30, 3, 4, 2, 5);
    let a = Assignment::random_cells(30, 4, 2);
    let nk = inst.num_tasks() as u64;
    let improved = Algorithm::ImprovedWithPriorities;
    for (algorithm, engine_runs) in [
        (Algorithm::RandomDelayPriorities, 4),
        (Algorithm::Greedy, 1),
        (improved, 4),
    ] {
        telemetry::reset();
        best_of_trials_with_pool(&ThreadPool::new(1), &inst, &a, algorithm, 4, 9);
        let snap = telemetry::snapshot();
        assert_eq!(
            snap.counters["sched.tasks_scheduled"],
            engine_runs * nk,
            "{algorithm:?}"
        );
        let graham = |s: &&telemetry::SpanEvent| s.name == "sched.improved.graham";
        let graham_passes = snap.spans.iter().filter(graham).count();
        assert_eq!(graham_passes, usize::from(algorithm == improved));
    }

    // A priority no trial's seed moves is ranked once per call, in the
    // context; Algorithm 2's and Algorithm 3's shift with the delays, so
    // every trial ranks its own.
    for (algorithm, rankings) in [
        (Algorithm::LevelPriority { delays: true }, 1),
        (Algorithm::DescendantPriority { delays: true }, 1),
        (Algorithm::Dfds { delays: true }, 1),
        (Algorithm::Greedy, 1),
        (Algorithm::RandomDelayPriorities, 4),
        (improved, 4),
    ] {
        telemetry::reset();
        best_of_trials_with_pool(&ThreadPool::new(1), &inst, &a, algorithm, 4, 9);
        let snap = telemetry::snapshot();
        let rank = |s: &&telemetry::SpanEvent| s.name == "sched.list_schedule.rank";
        let ranked = snap.spans.iter().filter(rank).count();
        assert_eq!(ranked, rankings, "{algorithm:?}");
    }

    // Both Algorithm 3 variants draw their delays inside `sched.improved`,
    // one level below it.
    for algorithm in [Algorithm::ImprovedRandomDelay, improved] {
        telemetry::reset();
        algorithm.run(&inst, a.clone(), 9);
        let snap = telemetry::snapshot();
        let depth_of = |name: &str| {
            let mut spans = snap.spans.iter().filter(|s| s.name == name);
            let span = spans.next().unwrap_or_else(|| panic!("no {name} span"));
            assert!(spans.next().is_none(), "one {name} span");
            span.depth
        };
        let (outer, draw) = (
            depth_of("sched.improved"),
            depth_of("sched.random_delay.delay_draw"),
        );
        assert_eq!(draw, outer + 1, "{algorithm:?}");
    }
}
