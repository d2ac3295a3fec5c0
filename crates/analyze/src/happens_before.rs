//! Happens-before analysis of an asynchronous execution trace
//! ([`sweep_sim::async_makespan_traced`]): a vector-clock race detector
//! for message-order nondeterminism (SW016).
//!
//! The simulator is deterministic — ties in its event queue break by a
//! fixed tuple order. A real network offers no such promise. When two
//! cross-processor messages arrive at the same processor at the *same
//! time* and their sends are **concurrent** under happens-before (neither
//! sender's completion causally precedes the other's), the receiver's
//! ready-queue insertion order — and with tied priorities the execution
//! order, and with unequal successor subtrees the whole tail of the
//! sweep — depends on which packet the NIC delivers first. Those pairs
//! are exactly the points where a cluster run can diverge from the
//! simulation, so the analyzer surfaces each one as SW016.
//!
//! Happens-before here is the standard partial order generated by
//! (a) program order on each processor and (b) DAG edges: a task's
//! completion precedes every successor task's start (same-processor
//! successors immediately, remote ones through the message). Vector
//! clocks (one component per processor) represent it exactly.

use sweep_core::Assignment;
use sweep_dag::{SweepInstance, TaskId};
use sweep_sim::{async_makespan_traced, AsyncTrace};

use crate::diag::{Anchor, Code, Diagnostic, Report};

/// How many races to report before truncating.
const MAX_RACES: usize = 16;

/// Simulates the asynchronous execution (unit weights) and reports
/// message races (SW016) plus trace statistics (SW020).
pub fn analyze_async(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: &[i64],
    latency: f64,
) -> Report {
    let (report, trace) = async_makespan_traced(instance, assignment, priority, None, latency);
    let mut out = analyze_trace(instance, assignment, &trace);
    out.push(Diagnostic::new(
        Code::Stats,
        Anchor::none(),
        format!(
            "async trace: {} executions, {} cross-processor messages, \
             makespan {:.2}, utilization {:.2}",
            trace.execs.len(),
            trace.messages.len(),
            report.makespan,
            report.utilization,
        ),
    ));
    out
}

/// Vector-clock analysis of an existing trace.
pub fn analyze_trace(
    instance: &SweepInstance,
    assignment: &Assignment,
    trace: &AsyncTrace,
) -> Report {
    let mut report = Report::new(format!("async trace for '{}'", instance.name()));
    let n = instance.num_cells();
    let m = assignment.num_procs();
    let total = instance.num_tasks();

    // Vector clock of each task's completion event. Computed in start
    // order, which is a linear extension of happens-before: a task's DAG
    // predecessors and its program-order predecessor all *finish* at or
    // before its start, and (durations being positive) start strictly
    // before it.
    let mut order: Vec<usize> = (0..trace.execs.len()).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (&trace.execs[a], &trace.execs[b]);
        x.start
            .partial_cmp(&y.start)
            .expect("finite times")
            .then(x.finish.partial_cmp(&y.finish).expect("finite times"))
            .then(x.task.cmp(&y.task))
    });

    let mut clock: Vec<Vec<u32>> = vec![Vec::new(); total];
    let mut last_on_proc: Vec<Option<u64>> = vec![None; m];
    for &ei in &order {
        let e = &trace.execs[ei];
        let p = e.proc as usize;
        let mut vc = vec![0u32; m];
        if let Some(prev) = last_on_proc[p] {
            join(&mut vc, &clock[prev as usize]);
        }
        let (v, dir) = TaskId(e.task).unpack(n);
        for u in instance.dag(dir as usize).predecessors(v) {
            let pred = TaskId::pack(u, dir, n).index();
            join(&mut vc, &clock[pred]);
        }
        vc[p] += 1;
        clock[e.task as usize] = vc;
        last_on_proc[p] = Some(e.task);
    }

    // Group messages by (receiver, exact arrival time); within a group,
    // pairs from different processors with concurrent sends race.
    let mut keyed: Vec<(u32, u64, usize)> = trace
        .messages
        .iter()
        .enumerate()
        .map(|(i, msg)| (msg.to_proc, msg.arrive.to_bits(), i))
        .collect();
    keyed.sort_unstable();
    let mut races = 0usize;
    let mut g = 0;
    while g < keyed.len() {
        let mut h = g + 1;
        while h < keyed.len() && keyed[h].0 == keyed[g].0 && keyed[h].1 == keyed[g].1 {
            h += 1;
        }
        for i in g..h {
            for j in (i + 1)..h {
                let (a, b) = (&trace.messages[keyed[i].2], &trace.messages[keyed[j].2]);
                if a.from_proc == b.from_proc {
                    continue; // program order on the sender serializes them
                }
                let ca = &clock[a.from_task as usize];
                let cb = &clock[b.from_task as usize];
                if !leq(ca, cb) && !leq(cb, ca) {
                    races += 1;
                    if races <= MAX_RACES {
                        let (va, da) = TaskId(a.from_task).unpack(n);
                        let (vb, db) = TaskId(b.from_task).unpack(n);
                        report.push(Diagnostic::new(
                            Code::MessageRace,
                            Anchor::proc(a.to_proc).at_time(a.arrive as u32),
                            format!(
                                "messages from (cell {va}, dir {da}) on proc {} and \
                                 (cell {vb}, dir {db}) on proc {} arrive at proc {} at \
                                 t={:.3} with no happens-before order — real-network \
                                 delivery order is nondeterministic",
                                a.from_proc, b.from_proc, a.to_proc, a.arrive,
                            ),
                        ));
                    }
                }
            }
        }
        g = h;
    }
    if races > MAX_RACES {
        report.push(Diagnostic::new(
            Code::MessageRace,
            Anchor::none(),
            format!("{} further message races suppressed", races - MAX_RACES),
        ));
    }
    report
}

/// `vc := vc ⊔ other` componentwise.
fn join(vc: &mut [u32], other: &[u32]) {
    if other.is_empty() {
        return; // predecessor outside the trace (should not happen)
    }
    for (a, &b) in vc.iter_mut().zip(other) {
        *a = (*a).max(b);
    }
}

/// Componentwise `a ≤ b` (the happens-before order on clocks).
fn leq(a: &[u32], b: &[u32]) -> bool {
    !a.is_empty() && !b.is_empty() && a.iter().zip(b).all(|(x, y)| x <= y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_dag::TaskDag;

    /// Two independent producers on procs 0 and 1 feed a consumer on
    /// proc 2: a textbook message race.
    fn racy_setup() -> (SweepInstance, Assignment) {
        let dag = TaskDag::from_edges(3, &[(0, 2), (1, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "race");
        let a = Assignment::from_vec(vec![0, 1, 2], 3);
        (inst, a)
    }

    #[test]
    fn concurrent_tied_arrivals_race() {
        let (inst, a) = racy_setup();
        let r = analyze_async(&inst, &a, &[0, 0, 0], 1.0);
        assert_eq!(r.count_code(Code::MessageRace), 1, "{}", r.render_text());
        assert!(!r.has_errors(), "races are warnings");
    }

    #[test]
    fn causally_ordered_sends_do_not_race() {
        // A chain 0 → 1 → 2 across three procs: the two messages are
        // ordered by happens-before (and never tie anyway).
        let dag = TaskDag::from_edges(3, &[(0, 1), (1, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "chain");
        let a = Assignment::from_vec(vec![0, 1, 2], 3);
        let r = analyze_async(&inst, &a, &[0, 0, 0], 1.0);
        assert_eq!(r.count_code(Code::MessageRace), 0, "{}", r.render_text());
    }

    #[test]
    fn same_sender_messages_never_race() {
        // Both producers on proc 0: program order serializes the sends,
        // and they cannot even tie (sequential completions).
        let dag = TaskDag::from_edges(3, &[(0, 2), (1, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "serial");
        let a = Assignment::from_vec(vec![0, 0, 1], 2);
        let r = analyze_async(&inst, &a, &[0, 0, 0], 1.0);
        assert_eq!(r.count_code(Code::MessageRace), 0, "{}", r.render_text());
    }

    #[test]
    fn single_processor_has_no_races() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 3);
        let a = Assignment::single(40);
        let r = analyze_async(&inst, &a, &vec![0; inst.num_tasks()], 2.0);
        assert_eq!(r.count_code(Code::MessageRace), 0);
        assert!(r.has_code(Code::Stats));
    }

    #[test]
    fn clocks_order_matches_intuition() {
        let (inst, a) = racy_setup();
        let (_, trace) = async_makespan_traced(&inst, &a, &[0, 0, 0], None, 1.0);
        // Recompute clocks through the public path: the two producers are
        // concurrent; both precede the consumer.
        let r = analyze_trace(&inst, &a, &trace);
        assert_eq!(r.count_code(Code::MessageRace), 1);
    }
}
