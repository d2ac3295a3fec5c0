//! Asynchronous distributed execution — what actually happens on a
//! cluster.
//!
//! The list scheduler of `sweep-core` assumes a global clock: every
//! processor sees task completions instantly. A real distributed sweep
//! has neither — each processor runs its *local* priority policy over the
//! tasks whose inputs have arrived, and cross-processor completions
//! become visible only after a message latency. This module simulates
//! that execution model exactly (event-driven, deterministic):
//!
//! * each processor owns its assigned tasks and a local ready-queue
//!   ordered by the same priorities used offline;
//! * executing a task takes one time unit (or its weight);
//! * a completion is visible to same-processor successors immediately and
//!   to other processors `latency` later.
//!
//! Comparing [`async_makespan`] against the synchronous makespan measures
//! how much of a schedule's quality survives asynchrony — the gap the
//! paper's simulation methodology (and ours) abstracts away.
//!
//! This module holds the report and trace types and the fault-free entry
//! points; the event loop itself is `faulty`'s engine, which they run on
//! the empty [`FaultPlan`].

use sweep_core::Assignment;
use sweep_dag::SweepInstance;
use sweep_faults::FaultPlan;
use sweep_telemetry as telemetry;

/// Result of an asynchronous distributed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncReport {
    /// Completion time of the last task.
    pub makespan: f64,
    /// Total cross-processor messages sent (= C1).
    pub messages: u64,
    /// Per-processor busy time (Σ task durations).
    pub busy: Vec<f64>,
    /// Mean processor utilization `Σ busy / (m · makespan)`. Defined as
    /// `1.0` when `makespan == 0` (an empty instance has nothing to
    /// waste), matching `Schedule::utilization` — never `NaN`.
    pub utilization: f64,
}

/// One task execution in an [`AsyncTrace`]: task `(cell, dir)` ran on
/// `proc` over `[start, finish)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceExec {
    /// Packed task id (`dir·n + cell`).
    pub task: u64,
    /// Executing processor.
    pub proc: u32,
    /// Execution start time.
    pub start: f64,
    /// Execution finish time (= completion, when successors are notified).
    pub finish: f64,
}

/// One cross-processor message in an [`AsyncTrace`]: the face flux sent
/// when `from_task` completes, consumed by `to_task`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceMessage {
    /// Producing task (packed id).
    pub from_task: u64,
    /// Sender processor.
    pub from_proc: u32,
    /// Send time (= sender's completion time).
    pub send: f64,
    /// Consuming task (packed id).
    pub to_task: u64,
    /// Receiver processor.
    pub to_proc: u32,
    /// Arrival time (`send + latency`).
    pub arrive: f64,
}

/// A full execution trace of [`async_makespan_traced`]: every task
/// execution plus every cross-processor message, in simulation order.
/// Together with the instance's DAG edges these induce the
/// happens-before partial order that `sweep-analyze` checks for
/// message races.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsyncTrace {
    /// Task executions, in the order they started.
    pub execs: Vec<TraceExec>,
    /// Cross-processor messages, in send order.
    pub messages: Vec<TraceMessage>,
}

/// Event-driven simulation of a distributed sweep under per-task
/// `priority` (smaller first), optional per-cell `weights` (unit cost
/// when `None`), and cross-processor message `latency`.
///
/// ```
/// use sweep_core::{Assignment, random_delays, delayed_level_priorities};
/// use sweep_dag::SweepInstance;
/// use sweep_sim::async_makespan;
///
/// let inst = SweepInstance::random_layered(60, 4, 6, 2, 1);
/// let a = Assignment::random_cells(60, 8, 2);
/// let prio = delayed_level_priorities(&inst, &random_delays(4, 3));
/// let report = async_makespan(&inst, &a, &prio, None, 0.5);
/// assert!(report.makespan >= 60.0 * 4.0 / 8.0);
/// assert!(report.utilization <= 1.0);
/// ```
///
/// # Panics
/// Panics on mismatched array lengths or negative latency.
pub fn async_makespan(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: &[i64],
    weights: Option<&[u64]>,
    latency: f64,
) -> AsyncReport {
    async_makespan_traced(instance, assignment, priority, weights, latency).0
}

/// [`async_makespan`] plus the full [`AsyncTrace`] of executions and
/// cross-processor messages, for happens-before analysis.
///
/// # Panics
/// Panics on mismatched array lengths or negative latency.
pub fn async_makespan_traced(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: &[i64],
    weights: Option<&[u64]>,
    latency: f64,
) -> (AsyncReport, AsyncTrace) {
    let _span = telemetry::span!("sim.async.exec");
    let plan = FaultPlan::none();
    let (report, trace) =
        crate::faulty::execute(instance, assignment, priority, weights, latency, &plan);
    let report = AsyncReport {
        makespan: report.makespan,
        messages: report.messages,
        busy: report.busy,
        utilization: report.utilization,
    };
    (report, trace)
}

/// Publishes an [`AsyncTrace`] to the global telemetry collector: every
/// task execution becomes a virtual-clock span named `sim.async.step` on
/// its processor's track (Chrome export shows them under the "simulated
/// time" process, one row per processor), messages become the
/// `sim.async.messages` counter plus a `sim.async.msg_latency` histogram
/// of arrive−send times. Per-message *events* are deliberately not
/// emitted — realistic runs carry tens of thousands of messages and would
/// swamp the trace.
///
/// No-op when telemetry is disabled.
pub fn publish_trace(trace: &AsyncTrace) {
    if !telemetry::enabled() {
        return;
    }
    for e in &trace.execs {
        telemetry::virtual_span("sim.async.step", e.proc, e.start, e.finish - e.start);
    }
    telemetry::counter_add("sim.async.messages", trace.messages.len() as u64);
    for msg in &trace.messages {
        telemetry::histogram_record("sim.async.msg_latency", msg.arrive - msg.send);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{delayed_level_priorities, greedy_schedule, random_delays, validate};

    fn rdp_priorities(inst: &SweepInstance, seed: u64) -> Vec<i64> {
        let d = random_delays(inst.num_directions(), seed);
        delayed_level_priorities(inst, &d)
    }

    #[test]
    fn zero_latency_matches_synchronous_quality() {
        // With latency 0 the async execution is a work-conserving list
        // schedule under the same priorities: it cannot be worse than the
        // slotted makespan by more than rounding.
        let inst = SweepInstance::random_layered(80, 4, 8, 2, 3);
        let a = Assignment::random_cells(80, 8, 1);
        let prio = rdp_priorities(&inst, 2);
        let sync = sweep_core::list_schedule(&inst, a.clone(), &prio, None);
        validate(&inst, &sync).unwrap();
        let r = async_makespan(&inst, &a, &prio, None, 0.0);
        assert!(r.makespan <= sync.makespan() as f64 + 1e-9);
        assert!(r.makespan >= (inst.num_tasks() as f64 / 8.0) - 1e-9);
        assert_eq!(r.messages, sweep_core::c1_interprocessor_edges(&inst, &a));
    }

    #[test]
    fn latency_degrades_gracefully() {
        let inst = SweepInstance::random_layered(100, 4, 8, 2, 5);
        let a = Assignment::random_cells(100, 8, 2);
        let prio = rdp_priorities(&inst, 3);
        let mut prev = 0.0;
        for lat in [0.0, 0.5, 2.0, 8.0] {
            let r = async_makespan(&inst, &a, &prio, None, lat);
            assert!(
                r.makespan >= prev - 1e-9,
                "latency {lat}: {} < {prev}",
                r.makespan
            );
            prev = r.makespan;
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn single_processor_is_total_work_at_any_latency() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 1);
        let a = Assignment::single(40);
        let prio = vec![0i64; inst.num_tasks()];
        for lat in [0.0, 7.0] {
            let r = async_makespan(&inst, &a, &prio, None, lat);
            assert!((r.makespan - inst.num_tasks() as f64).abs() < 1e-9);
            assert_eq!(r.messages, 0);
            assert!((r.utilization - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_async_respects_durations() {
        let inst = SweepInstance::identical_chains(5, 1);
        let a = Assignment::single(5);
        let w: Vec<u64> = vec![2, 3, 1, 4, 2];
        let prio = vec![0i64; 5];
        let r = async_makespan(&inst, &a, &prio, Some(&w), 0.0);
        assert!((r.makespan - 12.0).abs() < 1e-9);
    }

    #[test]
    fn cross_chain_latency_accumulates() {
        let inst = SweepInstance::identical_chains(4, 1);
        // Alternate processors down the chain: 3 crossings.
        let a = Assignment::from_vec(vec![0, 1, 0, 1], 2);
        let prio = vec![0i64; 4];
        let r = async_makespan(&inst, &a, &prio, None, 10.0);
        assert_eq!(r.messages, 3);
        assert!((r.makespan - (4.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn async_consistent_with_greedy_schedule_baseline() {
        // A broad sanity sweep across seeds.
        for seed in 0..4u64 {
            let inst = SweepInstance::random_layered(60, 3, 6, 2, seed);
            let a = Assignment::random_cells(60, 6, seed);
            let s = greedy_schedule(&inst, a.clone());
            let prio = vec![0i64; inst.num_tasks()];
            let r = async_makespan(&inst, &a, &prio, None, 0.0);
            assert!(r.makespan <= s.makespan() as f64 + 1e-9);
        }
    }

    #[test]
    fn trace_covers_every_task_and_message() {
        let inst = SweepInstance::random_layered(50, 3, 6, 2, 9);
        let a = Assignment::random_cells(50, 5, 4);
        let prio = rdp_priorities(&inst, 1);
        let (r, tr) = async_makespan_traced(&inst, &a, &prio, None, 0.75);
        assert_eq!(tr.execs.len(), inst.num_tasks());
        assert_eq!(tr.messages.len() as u64, r.messages);
        let mut seen: Vec<u64> = tr.execs.iter().map(|e| e.task).collect();
        seen.sort_unstable();
        assert!(seen.windows(2).all(|w| w[0] != w[1]), "each task runs once");
        for e in &tr.execs {
            let v = (e.task % 50) as u32;
            assert_eq!(e.proc, a.proc_of(v), "task runs on its cell's processor");
            assert!(e.finish > e.start);
        }
        for msg in &tr.messages {
            assert_ne!(msg.from_proc, msg.to_proc);
            assert!((msg.arrive - msg.send - 0.75).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_latency_rejected() {
        let inst = SweepInstance::identical_chains(2, 1);
        let a = Assignment::single(2);
        async_makespan(&inst, &a, &[0, 0], None, -0.5);
    }

    #[test]
    fn empty_instance_utilization_is_one_not_nan() {
        // Regression: `Σ busy / (m · makespan)` divides by zero on an
        // empty instance; the report must pin utilization to 1.0
        // (consistent with `Schedule::utilization`), never NaN.
        let inst = SweepInstance::new(0, vec![sweep_dag::TaskDag::edgeless(0)], "empty");
        let a = Assignment::from_vec(vec![], 4);
        let (r, tr) = async_makespan_traced(&inst, &a, &[], None, 1.0);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.messages, 0);
        assert!(r.utilization.is_finite(), "utilization must not be NaN");
        assert_eq!(r.utilization, 1.0);
        assert!(tr.execs.is_empty() && tr.messages.is_empty());
    }
}
