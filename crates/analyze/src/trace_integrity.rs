//! Execution-trace integrity certification (SW005 / SW017 / SW018 /
//! SW022): is a trace — in particular one produced by the fault-aware
//! engine `sweep_sim::async_makespan_faulty` — a *correct* sweep?
//!
//! A fault-injected run retries dropped messages, discards duplicates,
//! and re-executes a crashed processor's work on survivors. All of that
//! is only acceptable if the observable trace still satisfies the
//! sequential semantics of the sweep:
//!
//! 1. **Exactly-once.** Every task `(v, i)` appears exactly once among
//!    the (successful) executions — a missing task is SW005, a
//!    re-execution that was not filtered out is SW017.
//! 2. **Precedence.** For every DAG edge `u → w` in direction `i`, the
//!    execution of `u` finishes no later than the execution of `w`
//!    starts (SW018 otherwise).
//! 3. **Data delivery.** When `u` and `w` executed on different
//!    processors, some delivered message `(u → w)` must have reached
//!    `w`'s processor by `w`'s start — a consumer must never start on
//!    flux it was never sent (SW018).
//!
//! When all three hold the report carries the SW022 *fault-trace
//! certified* info diagnostic, mirroring SW021 for schedules.

use std::collections::HashMap;

use sweep_dag::{SweepInstance, TaskId};
use sweep_sim::AsyncTrace;

use crate::diag::{Anchor, Code, Diagnostic, Report};

/// Reported findings per code before truncation.
const MAX_ISSUES: usize = 16;

/// Slack for floating-point time comparisons.
const EPS: f64 = 1e-9;

/// Certifies that `trace` is an exactly-once, precedence-correct,
/// delivery-backed execution of `instance` (see the module docs). Works
/// on fault-free and fault-injected traces alike; pushes SW022 when the
/// trace is clean.
pub fn analyze_trace_integrity(instance: &SweepInstance, trace: &AsyncTrace) -> Report {
    let mut report = Report::new(format!("trace integrity for '{}'", instance.name()));
    let n = instance.num_cells();
    let total = instance.num_tasks();

    // --- exactly-once -------------------------------------------------
    let mut first: Vec<Option<usize>> = vec![None; total];
    let mut duplicates = 0usize;
    for (i, e) in trace.execs.iter().enumerate() {
        let ti = e.task as usize;
        if ti >= total {
            duplicates += 1;
            if duplicates <= MAX_ISSUES {
                report.push(Diagnostic::new(
                    Code::DuplicateExecution,
                    Anchor::proc(e.proc),
                    format!(
                        "execution of unknown task id {} (instance has {total})",
                        e.task
                    ),
                ));
            }
            continue;
        }
        if let Some(j) = first[ti] {
            duplicates += 1;
            if duplicates <= MAX_ISSUES {
                let (v, d) = TaskId(e.task).unpack(n);
                let prev = &trace.execs[j];
                report.push(Diagnostic::new(
                    Code::DuplicateExecution,
                    Anchor::task(v, d).on_proc(e.proc),
                    format!(
                        "task (cell {v}, dir {d}) executed twice: on proc {} at \
                         t={:.3} and on proc {} at t={:.3} — recovery must \
                         deliver exactly-once",
                        prev.proc, prev.start, e.proc, e.start,
                    ),
                ));
            }
        } else {
            first[ti] = Some(i);
        }
    }
    let mut missing = 0usize;
    for (ti, f) in first.iter().enumerate() {
        if f.is_none() {
            missing += 1;
            if missing <= MAX_ISSUES {
                let (v, d) = TaskId(ti as u64).unpack(n);
                report.push(Diagnostic::new(
                    Code::TaskCountMismatch,
                    Anchor::task(v, d),
                    format!("task (cell {v}, dir {d}) never executed in the trace"),
                ));
            }
        }
    }

    // --- precedence + delivery ---------------------------------------
    // Delivered messages by (producer task, consumer task); a consumer
    // may have several (retransmissions resend with fresh ids only in a
    // real network — here each *successful* delivery is one entry, and
    // crash recovery adds refetches targeting the new owner).
    let mut inbox: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
    for (i, msg) in trace.messages.iter().enumerate() {
        inbox
            .entry((msg.from_task, msg.to_task))
            .or_default()
            .push(i);
    }
    let mut violations = 0usize;
    let mut violation = |report: &mut Report, anchor: Anchor, msg: String| {
        violations += 1;
        if violations <= MAX_ISSUES {
            report.push(Diagnostic::new(Code::TracePrecedenceViolation, anchor, msg));
        }
    };
    for dir in 0..instance.num_directions() {
        let dag = instance.dag(dir);
        for u in 0..n as u32 {
            let ut = TaskId::pack(u, dir as u32, n).index();
            let Some(ue) = first[ut].map(|i| &trace.execs[i]) else {
                continue; // already reported as missing
            };
            for w in dag.successors(u) {
                let wt = TaskId::pack(w, dir as u32, n).index();
                let Some(we) = first[wt].map(|i| &trace.execs[i]) else {
                    continue;
                };
                if ue.finish > we.start + EPS {
                    violation(
                        &mut report,
                        Anchor::task(w, dir as u32).on_proc(we.proc),
                        format!(
                            "(cell {w}, dir {dir}) started at t={:.3} before its \
                             predecessor (cell {u}, dir {dir}) finished at t={:.3}",
                            we.start, ue.finish,
                        ),
                    );
                    continue;
                }
                if ue.proc == we.proc {
                    continue; // local flux hand-off needs no message
                }
                let delivered = inbox
                    .get(&(ut as u64, wt as u64))
                    .into_iter()
                    .flatten()
                    .map(|&i| &trace.messages[i])
                    .any(|m| m.to_proc == we.proc && m.arrive <= we.start + EPS);
                if !delivered {
                    violation(
                        &mut report,
                        Anchor::task(w, dir as u32).on_proc(we.proc),
                        format!(
                            "(cell {w}, dir {dir}) started on proc {} at t={:.3} \
                             without a delivered flux message from (cell {u}, \
                             dir {dir}) on proc {}",
                            we.proc, we.start, ue.proc,
                        ),
                    );
                }
            }
        }
    }

    let over = duplicates.saturating_sub(MAX_ISSUES)
        + missing.saturating_sub(MAX_ISSUES)
        + violations.saturating_sub(MAX_ISSUES);
    if over > 0 {
        report.push(Diagnostic::new(
            Code::TracePrecedenceViolation,
            Anchor::none(),
            format!("{over} further trace-integrity findings suppressed"),
        ));
    }
    if !report.has_errors() {
        report.push(Diagnostic::new(
            Code::FaultTraceCertified,
            Anchor::none(),
            format!(
                "trace certified: {} tasks exactly-once, every precedence \
                 respected, every cross-processor input delivered before use \
                 ({} messages)",
                trace.execs.len(),
                trace.messages.len(),
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{delayed_level_priorities, random_delays, Assignment};
    use sweep_faults::{CrashFault, FaultConfig, FaultPlan};
    use sweep_sim::{async_makespan_faulty, async_makespan_traced};

    fn setup(seed: u64) -> (SweepInstance, Assignment, Vec<i64>) {
        let inst = SweepInstance::random_layered(100, 4, 8, 2, seed);
        let a = Assignment::random_cells(100, 8, seed ^ 1);
        let d = random_delays(4, seed ^ 2);
        let prio = delayed_level_priorities(&inst, &d);
        (inst, a, prio)
    }

    #[test]
    fn fault_free_trace_certifies() {
        let (inst, a, prio) = setup(5);
        let (_, trace) = async_makespan_traced(&inst, &a, &prio, None, 1.0);
        let r = analyze_trace_integrity(&inst, &trace);
        assert!(!r.has_errors(), "{}", r.render_text());
        assert!(r.has_code(Code::FaultTraceCertified));
    }

    /// Satellite: after injected crashes every task executes exactly
    /// once at its consumer and all DAG precedences hold — checked via
    /// the analyzer, not the engine's own invariants.
    #[test]
    fn crash_recovered_trace_certifies() {
        let (inst, a, prio) = setup(7);
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashFault { proc: 1, at: 4.0 });
        plan.crashes.push(CrashFault { proc: 6, at: 9.0 });
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        assert_eq!(fr.crashed_procs.len(), 2);
        let r = analyze_trace_integrity(&inst, &trace);
        assert!(!r.has_errors(), "{}", r.render_text());
        assert!(r.has_code(Code::FaultTraceCertified));
    }

    #[test]
    fn lossy_randomized_trace_certifies() {
        let (inst, a, prio) = setup(11);
        let cfg = FaultConfig {
            crash_rate: 0.1,
            drop_rate: 0.2,
            dup_rate: 0.1,
            jitter: 1.5,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::random(8, 60.0, &cfg, 42);
        let (_, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        let r = analyze_trace_integrity(&inst, &trace);
        assert!(!r.has_errors(), "{}", r.render_text());
    }

    #[test]
    fn duplicated_execution_is_sw017() {
        let (inst, a, prio) = setup(3);
        let (_, mut trace) = async_makespan_traced(&inst, &a, &prio, None, 1.0);
        let mut dup = trace.execs[0];
        dup.start += 100.0;
        dup.finish += 100.0;
        trace.execs.push(dup);
        let r = analyze_trace_integrity(&inst, &trace);
        assert_eq!(
            r.count_code(Code::DuplicateExecution),
            1,
            "{}",
            r.render_text()
        );
        assert!(r.has_errors());
        assert!(!r.has_code(Code::FaultTraceCertified));
    }

    #[test]
    fn missing_execution_is_sw005() {
        let (inst, a, prio) = setup(4);
        let (_, mut trace) = async_makespan_traced(&inst, &a, &prio, None, 1.0);
        trace.execs.pop();
        let r = analyze_trace_integrity(&inst, &trace);
        assert_eq!(r.count_code(Code::TaskCountMismatch), 1);
        assert!(r.has_errors());
    }

    #[test]
    fn undelivered_flux_is_sw018() {
        let (inst, a, prio) = setup(6);
        let (_, mut trace) = async_makespan_traced(&inst, &a, &prio, None, 1.0);
        assert!(!trace.messages.is_empty());
        trace.messages.remove(0);
        let r = analyze_trace_integrity(&inst, &trace);
        assert!(
            r.count_code(Code::TracePrecedenceViolation) >= 1,
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn out_of_order_start_is_sw018() {
        let (inst, a, prio) = setup(8);
        let (_, mut trace) = async_makespan_traced(&inst, &a, &prio, None, 1.0);
        // Yank an execution with predecessors back before time zero: it
        // now starts before every one of its predecessors finishes.
        let n = inst.num_cells();
        let idx = (0..trace.execs.len())
            .find(|&i| {
                let (v, d) = sweep_dag::TaskId(trace.execs[i].task).unpack(n);
                inst.dag(d as usize).in_degree(v) > 0
            })
            .unwrap();
        trace.execs[idx].start = -5.0;
        trace.execs[idx].finish = -4.0;
        let r = analyze_trace_integrity(&inst, &trace);
        assert!(
            r.count_code(Code::TracePrecedenceViolation) >= 1,
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn empty_trace_of_empty_instance_certifies() {
        let inst = SweepInstance::new(0, vec![sweep_dag::TaskDag::edgeless(0)], "empty");
        let r = analyze_trace_integrity(&inst, &AsyncTrace::default());
        assert!(!r.has_errors());
        assert!(r.has_code(Code::FaultTraceCertified));
    }
}
