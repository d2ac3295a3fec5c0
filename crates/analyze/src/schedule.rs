//! Collect-all schedule analysis: where [`sweep_core::validate`] stops
//! at the first feasibility violation, [`analyze_schedule`] reports
//! *every* violation (SW002/SW003/SW005/SW006), checks the
//! same-processor constraint on raw per-task tables (SW004), and
//! certifies feasible schedules against the paper's bounds
//! (SW007/SW014/SW021).

use sweep_core::{lower_bounds, Schedule};
use sweep_dag::{SweepInstance, TaskId};

use crate::diag::{Anchor, Code, Diagnostic, Report};
use crate::AnalyzeOptions;

/// A schedule as raw per-task tables, prior to any of the invariants
/// [`Schedule`] enforces by construction. This is the form external
/// schedulers (or corrupted archives) hand us: `start[t]` and
/// `proc[t]` for every packed task id `t = dir·n + cell`, on `m`
/// processors. Unlike [`Schedule`], it can represent split cells
/// (SW004) and short/long tables (SW005) — exactly what the analyzer
/// must be able to diagnose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSchedule {
    /// Start time per packed task.
    pub start: Vec<u32>,
    /// Executing processor per packed task.
    pub proc: Vec<u32>,
    /// Number of processors.
    pub m: usize,
}

impl RawSchedule {
    /// Expands a well-formed [`Schedule`] into raw tables.
    pub fn from_schedule(schedule: &Schedule) -> RawSchedule {
        let n = schedule.assignment().num_cells();
        let total = schedule.starts().len();
        let proc = (0..total)
            .map(|t| schedule.proc_of_cell((t % n.max(1)) as u32))
            .collect();
        RawSchedule {
            start: schedule.starts().to_vec(),
            proc,
            m: schedule.num_procs(),
        }
    }

    /// The makespan implied by the start table (unit tasks).
    pub fn makespan(&self) -> u32 {
        self.start.iter().max().map_or(0, |&t| t + 1)
    }
}

/// Analyzes a constructed [`Schedule`] — collect-all feasibility plus
/// bound certification — with default thresholds.
pub fn analyze_schedule(instance: &SweepInstance, schedule: &Schedule) -> Report {
    analyze_schedule_with(instance, schedule, &AnalyzeOptions::default())
}

/// [`analyze_schedule`] with explicit thresholds.
pub fn analyze_schedule_with(
    instance: &SweepInstance,
    schedule: &Schedule,
    opts: &AnalyzeOptions,
) -> Report {
    let mut report = Report::new(format!("schedule for '{}'", instance.name()));
    let n = instance.num_cells();
    if schedule.assignment().num_cells() != n {
        report.push(Diagnostic::new(
            Code::AssignmentMismatch,
            Anchor::none(),
            format!(
                "instance has {n} cells but the schedule's assignment covers {}",
                schedule.assignment().num_cells()
            ),
        ));
        return report;
    }
    let raw = RawSchedule::from_schedule(schedule);
    collect_feasibility(instance, &raw, &mut report);
    if !report.has_errors() {
        certify_bounds(instance, raw.makespan(), raw.m, opts, &mut report);
    }
    report
}

/// Analyzes raw per-task tables (the collect-all generalization of
/// `validate`): every precedence violation, every processor conflict,
/// split cells, and table-shape errors are reported — not just the
/// first. Feasible tables are then certified against the bounds.
pub fn analyze_raw_schedule(instance: &SweepInstance, raw: &RawSchedule) -> Report {
    analyze_raw_schedule_with(instance, raw, &AnalyzeOptions::default())
}

/// [`analyze_raw_schedule`] with explicit thresholds.
pub fn analyze_raw_schedule_with(
    instance: &SweepInstance,
    raw: &RawSchedule,
    opts: &AnalyzeOptions,
) -> Report {
    let mut report = Report::new(format!("raw schedule for '{}'", instance.name()));
    collect_feasibility(instance, raw, &mut report);
    if !report.has_errors() {
        certify_bounds(instance, raw.makespan(), raw.m, opts, &mut report);
    }
    report
}

/// The collect-all feasibility pass shared by both entry points.
fn collect_feasibility(instance: &SweepInstance, raw: &RawSchedule, report: &mut Report) {
    let n = instance.num_cells();
    let k = instance.num_directions();
    let total = n * k;

    // SW005: table shape. Without the right shape the per-task checks
    // below would index garbage, so this one is a hard stop.
    if raw.start.len() != total || raw.proc.len() != total {
        report.push(Diagnostic::new(
            Code::TaskCountMismatch,
            Anchor::none(),
            format!(
                "expected {total} tasks ({n} cells × {k} directions); \
                 start table has {}, proc table has {}",
                raw.start.len(),
                raw.proc.len(),
            ),
        ));
        return;
    }

    // SW002: every violated precedence edge (unit tasks ⇒ start(v) > start(u)).
    for (i, dag) in instance.dags().iter().enumerate() {
        for (u, v) in dag.edges() {
            let su = raw.start[TaskId::pack(u, i as u32, n).index()];
            let sv = raw.start[TaskId::pack(v, i as u32, n).index()];
            if sv <= su {
                report.push(Diagnostic::new(
                    Code::PrecedenceViolation,
                    Anchor::task(v, i as u32).at_time(sv),
                    format!(
                        "direction {i}: cell {u} (t={su}) must finish before cell {v} (t={sv})"
                    ),
                ));
            }
        }
    }

    // SW003: every double-booked (proc, timestep) slot, reported once per
    // slot with the number of colliding tasks.
    let mut slots: Vec<(u32, u32)> = raw
        .start
        .iter()
        .zip(&raw.proc)
        .map(|(&t, &p)| (p, t))
        .collect();
    slots.sort_unstable();
    let mut i = 0;
    while i < slots.len() {
        let mut j = i + 1;
        while j < slots.len() && slots[j] == slots[i] {
            j += 1;
        }
        if j - i > 1 {
            let (p, t) = slots[i];
            report.push(Diagnostic::new(
                Code::ProcessorConflict,
                Anchor::proc(p).at_time(t),
                format!("processor {p} runs {} tasks at time {t}", j - i),
            ));
        }
        i = j;
    }

    // SW004: all k copies of a cell must share one processor (the
    // model's defining constraint — face fluxes for every direction of a
    // cell live in one memory).
    for v in 0..n as u32 {
        let p0 = raw.proc[TaskId::pack(v, 0, n).index()];
        let mut procs: Vec<u32> = (0..k as u32)
            .map(|d| raw.proc[TaskId::pack(v, d, n).index()])
            .collect();
        procs.sort_unstable();
        procs.dedup();
        if procs.len() > 1 {
            report.push(Diagnostic::new(
                Code::SplitCellCopies,
                Anchor::cell(v),
                format!(
                    "cell {v} runs on {} processors {:?} — all {k} direction copies \
                     must share one (first copy on proc {p0})",
                    procs.len(),
                    procs,
                ),
            ));
        }
    }

    // Out-of-range processors ride along as conflicts of shape.
    for (t, &p) in raw.proc.iter().enumerate() {
        if (p as usize) >= raw.m {
            let (cell, dir) = TaskId(t as u64).unpack(n);
            report.push(Diagnostic::new(
                Code::ProcessorConflict,
                Anchor::task(cell, dir).on_proc(p),
                format!(
                    "task (cell {cell}, dir {dir}) assigned to processor {p} ≥ m = {}",
                    raw.m
                ),
            ));
        }
    }
}

/// Certifies a feasible makespan against the paper's bounds: SW007 if it
/// beats a proven lower bound (impossible ⇒ the schedule is corrupt),
/// SW014 if it exceeds the random-delay `O(log)` envelope, SW021
/// otherwise.
fn certify_bounds(
    instance: &SweepInstance,
    makespan: u32,
    m: usize,
    opts: &AnalyzeOptions,
    report: &mut Report,
) {
    if m == 0 {
        return;
    }
    let lb = lower_bounds(instance, m);
    let best = lb.best();
    if (makespan as u64) < best {
        report.push(Diagnostic::new(
            Code::MakespanBelowBound,
            Anchor::none(),
            format!(
                "makespan {makespan} is below the certified lower bound {best} \
                 (max of ⌈nk/m⌉={}, k={}, D={}) — the schedule cannot be real",
                lb.avg_load, lb.directions, lb.depth,
            ),
        ));
        return;
    }
    // Random-delay sanity envelope: the paper proves O(log nk / log log nk)
    // times the lower bound; `envelope_factor · log2(nk)` upper-bounds
    // that comfortably for all practical nk, so exceeding it means the
    // schedule is far outside what *any* of the analyzed algorithms
    // produce — worth a warning, not an error.
    let nk = instance.num_tasks() as f64;
    let envelope = (opts.envelope_factor * nk.max(2.0).log2() * lb.paper() as f64).ceil();
    if makespan as f64 > envelope {
        report.push(Diagnostic::new(
            Code::DelayEnvelopeExceeded,
            Anchor::none(),
            format!(
                "makespan {makespan} exceeds the random-delay envelope {envelope:.0} \
                 (= {:.1} · log2({}) · LB {})",
                opts.envelope_factor,
                instance.num_tasks(),
                lb.paper(),
            ),
        ));
    } else {
        report.push(Diagnostic::new(
            Code::Certified,
            Anchor::none(),
            format!(
                "feasible; makespan {makespan} within [LB {best}, envelope {envelope:.0}], \
                 ratio {:.3} vs paper bound {}",
                makespan as f64 / lb.paper().max(1) as f64,
                lb.paper(),
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{greedy_schedule, validate, Assignment};

    fn inst() -> SweepInstance {
        SweepInstance::random_layered(30, 3, 5, 2, 21)
    }

    fn good_schedule(inst: &SweepInstance) -> Schedule {
        greedy_schedule(inst, Assignment::random_cells(inst.num_cells(), 4, 5))
    }

    #[test]
    fn feasible_schedule_is_certified() {
        let inst = inst();
        let s = good_schedule(&inst);
        let r = analyze_schedule(&inst, &s);
        assert!(!r.has_errors(), "{}", r.render_text());
        assert!(r.has_code(Code::Certified));
    }

    #[test]
    fn collect_all_reports_every_violation() {
        let inst = inst();
        let s = good_schedule(&inst);
        let mut raw = RawSchedule::from_schedule(&s);

        // Corruption 1: invert a precedence edge in direction 0.
        let (u, v) = inst.dag(0).edges().next().expect("has edges");
        let n = inst.num_cells();
        raw.start[TaskId::pack(v, 0, n).index()] = raw.start[TaskId::pack(u, 0, n).index()];
        // Corruption 2: split cell 0's copies across processors.
        let other = (raw.proc[TaskId::pack(0, 0, n).index()] + 1) % raw.m as u32;
        raw.proc[TaskId::pack(0, 1, n).index()] = other;

        let r = analyze_raw_schedule(&inst, &raw);
        assert!(r.has_code(Code::PrecedenceViolation), "{}", r.render_text());
        assert!(r.has_code(Code::SplitCellCopies));
        // The old validator stops at the first violation; the analyzer
        // must surface at least the two distinct corruptions.
        let distinct: std::collections::BTreeSet<_> =
            r.diagnostics().iter().map(|d| d.code).collect();
        assert!(
            distinct.len() >= 2,
            "want ≥2 distinct codes, got {distinct:?}"
        );
    }

    #[test]
    fn old_validator_reports_only_one_of_two_corruptions() {
        // The acceptance scenario: two independent corruptions, one
        // `validate` error, ≥2 analyzer diagnostics.
        let inst = inst();
        let s = good_schedule(&inst);
        let mut starts = s.starts().to_vec();
        let n = inst.num_cells();
        // Corruption 1: precedence inversion in direction 0.
        let (u, v) = inst.dag(0).edges().next().expect("has edges");
        starts[TaskId::pack(v, 0, n).index()] = starts[TaskId::pack(u, 0, n).index()];
        // Corruption 2: processor conflict — give two same-proc cells in
        // direction 1 the same start.
        let a = s.assignment();
        let p0 = a.proc_of(0);
        let mate = (1..n as u32).find(|&c| a.proc_of(c) == p0).expect("m < n");
        starts[TaskId::pack(mate, 1, n).index()] = starts[TaskId::pack(0, 1, n).index()];

        let bad = Schedule::new(starts, a.clone()).expect("shape unchanged");
        let first = validate(&inst, &bad).expect_err("corrupt");
        // validate() returns exactly one violation...
        let _ = first;
        // ...while the analyzer reports both corruption sites.
        let r = analyze_schedule(&inst, &bad);
        let codes: std::collections::BTreeSet<_> = r.diagnostics().iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&Code::PrecedenceViolation) && codes.contains(&Code::ProcessorConflict),
            "want both corruptions reported, got {codes:?}\n{}",
            r.render_text()
        );
        assert!(r.len() >= 2);
    }

    #[test]
    fn short_table_is_sw005() {
        let inst = inst();
        let raw = RawSchedule {
            start: vec![0; 10],
            proc: vec![0; 10],
            m: 2,
        };
        let r = analyze_raw_schedule(&inst, &raw);
        assert_eq!(r.count_code(Code::TaskCountMismatch), 1);
        assert_eq!(r.len(), 1, "shape error short-circuits per-task checks");
    }

    #[test]
    fn impossible_makespan_is_sw007() {
        // A feasible schedule can never beat the chain bound, so SW007
        // never fires on real schedules…
        let inst = SweepInstance::identical_chains(6, 2); // D = 6 ⇒ LB ≥ 12 on 1 proc
        let s = greedy_schedule(&inst, Assignment::single(6));
        let r = analyze_schedule(&inst, &s);
        assert!(!r.has_code(Code::MakespanBelowBound));
        // …and a claimed makespan below the bound is certifiably corrupt.
        let mut report = Report::new("synthetic");
        certify_bounds(&inst, 3, 1, &AnalyzeOptions::default(), &mut report);
        assert!(report.has_code(Code::MakespanBelowBound));
    }

    #[test]
    fn slow_makespan_warns_envelope() {
        let inst = SweepInstance::identical_chains(4, 2); // LB = 8 on 1 proc
        let mut report = Report::new("synthetic");
        certify_bounds(&inst, 10_000, 1, &AnalyzeOptions::default(), &mut report);
        assert!(report.has_code(Code::DelayEnvelopeExceeded));
        assert!(!report.has_errors());
    }
}
