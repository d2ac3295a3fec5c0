//! Collect-all schedule analysis. [`sweep_core::certify_each`] is the one
//! feasibility check: where [`sweep_core::validate`] keeps its first
//! violation, [`analyze_schedule`] maps *every* one to SW002/SW003/SW005/
//! SW006, and grades a feasible makespan against the certificate's bounds
//! (SW007/SW014/SW021). Raw per-task tables add the checks a [`Schedule`]
//! cannot express: table shape, split cells (SW004), processors `≥ m`.

use sweep_core::{certify_each, Assignment, LowerBounds, Schedule, ScheduleViolation};
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
    let report = Report::new(format!("schedule for '{}'", instance.name()));
    certify_into(instance, schedule, true, Report::new(""), opts, report)
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
    let (n, k) = (instance.num_cells(), instance.num_directions());
    // SW005: without the right shape the per-task checks below would
    // index garbage, so this one is a hard stop.
    if raw.start.len() != n * k || raw.proc.len() != n * k {
        report.push(wrong_shape(n, k, raw.start.len(), raw.proc.len()));
        return report;
    }
    let raw_only = split_and_out_of_range(raw, n, k);
    // Split cells or processors `≥ m` leave no slots to check: the view
    // then puts every cell on one processor, for precedence alone.
    let faithful = raw.m > 0 && raw_only.is_empty();
    let assignment = if faithful {
        Assignment::from_vec(raw.proc[..n].to_vec(), raw.m)
    } else {
        Assignment::single(n)
    };
    // A start at `u32::MAX` never finishes: a hard stop like the shape.
    let view = match Schedule::new(raw.start.clone(), assignment) {
        Ok(view) => view,
        Err(e) => {
            let overflow = Diagnostic::new(Code::TaskCountMismatch, Anchor::none(), e.to_string());
            report.push(overflow);
            return report;
        }
    };
    certify_into(instance, &view, faithful, raw_only, opts, report)
}

/// SW005: tables of `starts` and `procs` entries for `n` cells × `k`
/// directions.
fn wrong_shape(n: usize, k: usize, starts: usize, procs: usize) -> Diagnostic {
    let message = format!(
        "expected {} tasks ({n} cells × {k} directions); \
         start table has {starts}, proc table has {procs}",
        n * k
    );
    Diagnostic::new(Code::TaskCountMismatch, Anchor::none(), message)
}

/// The checks only raw tables need, as a report with no subject: SW004
/// for a cell whose `k` copies run on more than one processor (face
/// fluxes for every direction of a cell live in one memory), then SW003
/// for each task on a processor `≥ m`.
fn split_and_out_of_range(raw: &RawSchedule, n: usize, k: usize) -> Report {
    let mut found = Report::new("");
    for v in 0..n {
        let mut procs: Vec<u32> = raw.proc[v..].iter().step_by(n).copied().collect();
        let p0 = procs[0];
        procs.sort_unstable();
        procs.dedup();
        if procs.len() > 1 {
            found.push(Diagnostic::new(
                Code::SplitCellCopies,
                Anchor::cell(v as u32),
                format!(
                    "cell {v} runs on {} processors {:?} — all {k} direction copies \
                     must share one (first copy on proc {p0})",
                    procs.len(),
                    procs,
                ),
            ));
        }
    }
    for (t, &p) in raw.proc.iter().enumerate() {
        if (p as usize) >= raw.m {
            let (cell, dir) = TaskId(t as u64).unpack(n);
            found.push(Diagnostic::new(
                Code::ProcessorConflict,
                Anchor::task(cell, dir).on_proc(p),
                format!(
                    "task (cell {cell}, dir {dir}) assigned to processor {p} ≥ m = {}",
                    raw.m
                ),
            ));
        }
    }
    found
}

/// Certifies `schedule` once and maps what the certifier finds into
/// `report`: SW006 or SW005 for the wrong shape, SW002 per violated edge,
/// and, if `slots`, one SW003 per double-booked slot with its task count
/// in `(proc, time)` order. Then come the `raw_only` findings, and, if
/// `slots` and nothing is in error, the makespan's grade.
fn certify_into(
    instance: &SweepInstance,
    schedule: &Schedule,
    slots: bool,
    raw_only: Report,
    opts: &AnalyzeOptions,
    mut report: Report,
) -> Report {
    let (n, k) = (instance.num_cells(), instance.num_directions());
    // `(proc, time, tasks)` per double-booked slot, in slot order.
    let mut conflicts: Vec<(u32, u32, usize)> = Vec::new();
    let cert = certify_each(instance, schedule, |violation| match *violation {
        ScheduleViolation::AssignmentMismatch { cells, assigned } => report.push(Diagnostic::new(
            Code::AssignmentMismatch,
            Anchor::none(),
            format!("instance has {cells} cells but the schedule's assignment covers {assigned}"),
        )),
        ScheduleViolation::WrongTaskCount { actual, .. } => {
            report.push(wrong_shape(n, k, actual, actual));
        }
        ScheduleViolation::Precedence {
            dir, v, start_v, ..
        } => report.push(Diagnostic::new(
            Code::PrecedenceViolation,
            Anchor::task(v, dir).at_time(start_v),
            violation.to_string(),
        )),
        ScheduleViolation::ProcessorConflict { .. } if !slots => {}
        ScheduleViolation::ProcessorConflict { proc, time } => match conflicts.last_mut() {
            Some((p, t, tasks)) if (*p, *t) == (proc, time) => *tasks += 1,
            _ => conflicts.push((proc, time, 2)),
        },
    });
    conflicts.sort_unstable();
    for (p, t, tasks) in conflicts {
        report.push(Diagnostic::new(
            Code::ProcessorConflict,
            Anchor::proc(p).at_time(t),
            format!("processor {p} runs {tasks} tasks at time {t}"),
        ));
    }
    report.merge(raw_only);
    if slots && !report.has_errors() {
        certify_makespan(instance, cert.makespan, &cert.bounds, opts, &mut report);
    }
    report
}

/// Grades a feasible makespan against the certificate's bounds: SW007 if
/// it beats a proven lower bound (impossible ⇒ the schedule is corrupt),
/// SW014 if it exceeds the random-delay `O(log)` envelope, SW021
/// otherwise.
fn certify_makespan(
    instance: &SweepInstance,
    makespan: u32,
    lb: &LowerBounds,
    opts: &AnalyzeOptions,
    report: &mut Report,
) {
    // Random-delay sanity envelope: the paper proves O(log nk / log log nk)
    // times the lower bound; `envelope_factor · log2(nk)` upper-bounds
    // that comfortably for all practical nk, so exceeding it means the
    // schedule is far outside what *any* of the analyzed algorithms
    // produce — worth a warning, not an error.
    let (best, paper, nk) = (lb.best(), lb.paper(), instance.num_tasks());
    let envelope = (opts.envelope_factor * (nk as f64).max(2.0).log2() * paper as f64).ceil();
    let (code, message) = if u64::from(makespan) < best {
        let message = format!(
            "makespan {makespan} is below the certified lower bound {best} \
             (max of ⌈nk/m⌉={}, k={}, D={}) — the schedule cannot be real",
            lb.avg_load, lb.directions, lb.depth,
        );
        (Code::MakespanBelowBound, message)
    } else if f64::from(makespan) > envelope {
        let message = format!(
            "makespan {makespan} exceeds the random-delay envelope {envelope:.0} \
             (= {:.1} · log2({nk}) · LB {paper})",
            opts.envelope_factor,
        );
        (Code::DelayEnvelopeExceeded, message)
    } else {
        let message = format!(
            "feasible; makespan {makespan} within [LB {best}, envelope {envelope:.0}], \
             ratio {:.3} vs paper bound {paper}",
            f64::from(makespan) / paper.max(1) as f64,
        );
        (Code::Certified, message)
    };
    report.push(Diagnostic::new(code, Anchor::none(), message));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use sweep_core::{greedy_schedule, lower_bounds, validate, Algorithm};

    /// The bound check on a claimed makespan, with the bounds computed
    /// for `m` processors (none for `m = 0`), as it read before the
    /// certificate carried them.
    fn certify_bounds(
        instance: &SweepInstance,
        makespan: u32,
        m: usize,
        opts: &AnalyzeOptions,
        report: &mut Report,
    ) {
        if m > 0 {
            let lb = lower_bounds(instance, m);
            certify_makespan(instance, makespan, &lb, opts, report);
        }
    }

    /// The analyzer's own feasibility pass that [`certify_each`]
    /// replaced: an edge walk, a comparison sort of every `(proc, start)`
    /// pair, the split-copy and processor-range checks. The oracle the
    /// mapping must agree with.
    fn collect_feasibility(instance: &SweepInstance, raw: &RawSchedule, report: &mut Report) {
        let n = instance.num_cells();
        let k = instance.num_directions();
        let total = n * k;
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

    /// `analyze_raw_schedule` as it read with [`collect_feasibility`].
    fn analyze_raw_reference(instance: &SweepInstance, raw: &RawSchedule) -> Report {
        let mut report = Report::new(format!("raw schedule for '{}'", instance.name()));
        collect_feasibility(instance, raw, &mut report);
        if !report.has_errors() {
            let makespan = raw.start.iter().max().map_or(0, |&t| t + 1);
            let opts = AnalyzeOptions::default();
            certify_bounds(instance, makespan, raw.m, &opts, &mut report);
        }
        report
    }

    /// Corrupts `raw` with the kinds set in `kinds`: bit 0 inverts three
    /// edges, bit 1 double-books two slots, bit 2 splits a cell's copies,
    /// bit 3 moves a task to a processor `≥ m`.
    fn corrupt(inst: &SweepInstance, raw: &mut RawSchedule, kinds: u32, rng: &mut StdRng) {
        let (n, k) = (inst.num_cells(), inst.num_directions());
        let (m, nk) = (raw.m as u32, raw.start.len());
        if kinds & 1 != 0 {
            for _ in 0..3 {
                let dir = rng.random_range(0..k);
                let edges: Vec<_> = inst.dag(dir).edges().collect();
                let (u, v) = edges[rng.random_range(0..edges.len())];
                let (u, v) = (dir * n + u as usize, dir * n + v as usize);
                raw.start[v] = raw.start[u].saturating_sub(rng.random_range(0..2));
            }
        }
        if kinds & 2 != 0 {
            for _ in 0..2 {
                let a = rng.random_range(0..nk);
                let mates = (1..nk).map(|d| (a + d) % nk);
                if let Some(b) = mates.filter(|&b| raw.proc[b] == raw.proc[a]).nth(1) {
                    raw.start[b] = raw.start[a];
                }
            }
        }
        if kinds & 4 != 0 {
            let t = n * rng.random_range(1..k) + rng.random_range(0..n);
            raw.proc[t] = (raw.proc[t] + 1) % m.max(2);
        }
        if kinds & 8 != 0 {
            raw.proc[rng.random_range(0..nk)] = m + rng.random_range(0..3u32);
        }
    }

    /// On every corruption of greedy and RDP schedules the mapping emits
    /// the reference's diagnostics, except the slot SW003s of tables that
    /// split a cell or name a processor `≥ m`, which define no slots; a
    /// table a `Schedule` can hold gets the same through both entry points.
    #[test]
    fn diagnostics_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(0xd1a6);
        let instances = [
            inst(),
            SweepInstance::random_layered(60, 4, 8, 3, 5),
            SweepInstance::identical_chains(12, 3),
        ];
        for inst in &instances {
            let n = inst.num_cells();
            for m in [1, 3, 8] {
                let a = Assignment::random_cells(n, m, m as u64);
                let rdp = Algorithm::RandomDelayPriorities.run(inst, a.clone(), 7);
                for s in [greedy_schedule(inst, a.clone()), rdp] {
                    for kinds in 0..16 {
                        let mut raw = RawSchedule::from_schedule(&s);
                        corrupt(inst, &mut raw, kinds, &mut rng);
                        let label = format!("{} m={m} kinds={kinds:04b}", inst.name());
                        let reference = analyze_raw_reference(inst, &raw);
                        let no_slots = reference.diagnostics().iter().any(|d| {
                            d.code == Code::SplitCellCopies
                                || d.code == Code::ProcessorConflict && d.anchor.cell.is_some()
                        });
                        let mut want = Report::new(reference.subject());
                        for d in reference.diagnostics() {
                            let slot = d.code == Code::ProcessorConflict && d.anchor.cell.is_none();
                            if !(slot && no_slots) {
                                want.push(d.clone());
                            }
                        }
                        assert_eq!(analyze_raw_schedule(inst, &raw), want, "{label}");
                        if !no_slots {
                            let s = Schedule::new(raw.start, a.clone()).unwrap();
                            let got = analyze_schedule(inst, &s).render_json();
                            let want = want.render_json().replace("raw schedule", "schedule");
                            assert_eq!(got, want, "{label}");
                        }
                    }
                }
            }
        }
    }

    /// A feasible chain whose last task starts at `u32::MAX` is a typed
    /// SW005 naming that task, not an overflow or a bogus SW007.
    #[test]
    fn start_at_u32_max_is_sw005() {
        let inst = SweepInstance::identical_chains(3, 1);
        let raw = RawSchedule {
            start: vec![0, 1, u32::MAX],
            proc: vec![0; 3],
            m: 1,
        };
        let r = analyze_raw_schedule(&inst, &raw);
        assert_eq!(r.len(), 1, "{}", r.render_text());
        let d = &r.diagnostics()[0];
        assert_eq!(d.code, Code::TaskCountMismatch);
        assert_eq!(
            d.message,
            "task 2 starts at 4294967295, so the makespan overflows a u32"
        );
    }

    /// Tables with no processors, or with a processor out of range beside
    /// a split cell, get every precedence violation, the split and the
    /// range errors, and no slot conflict.
    #[test]
    fn tables_without_slots_get_typed_diagnostics() {
        let inst = SweepInstance::identical_chains(4, 2);
        // Both chains 0 → 1 → 2 → 3, direction 1 inverted at 1 → 2.
        let start = vec![0, 1, 2, 3, 4, 5, 5, 6];
        let r = analyze_raw_schedule(
            &inst,
            &RawSchedule {
                start: start.clone(),
                proc: vec![0; 8],
                m: 0,
            },
        );
        assert_eq!(
            r.count_code(Code::PrecedenceViolation),
            1,
            "{}",
            r.render_text()
        );
        assert_eq!(r.count_code(Code::ProcessorConflict), 8);
        assert!(r
            .diagnostics()
            .iter()
            .all(|d| d.code != Code::ProcessorConflict || d.anchor.cell.is_some()));
        // Cell 0's direction-1 copy on processor 1, cell 3's on 5 of m = 2.
        let proc = vec![0, 0, 1, 1, 1, 0, 1, 5];
        let r = analyze_raw_schedule(&inst, &RawSchedule { start, proc, m: 2 });
        assert_eq!(
            r.count_code(Code::PrecedenceViolation),
            1,
            "{}",
            r.render_text()
        );
        assert_eq!(r.count_code(Code::SplitCellCopies), 2);
        assert_eq!(r.count_code(Code::ProcessorConflict), 1);
        assert!(!r.has_code(Code::Certified));
    }

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

    /// SW007 cannot be reached from a feasible schedule through the
    /// public entry points, so its message is pinned here.
    #[test]
    fn below_bound_message_is_pinned() {
        let inst = SweepInstance::identical_chains(6, 2);
        let mut report = Report::new("synthetic");
        certify_bounds(&inst, 3, 1, &AnalyzeOptions::default(), &mut report);
        assert_eq!(
            report.render_text(),
            "analyzing synthetic\n\
             error[SW007]: makespan 3 is below the certified lower bound 12 \
             (max of ⌈nk/m⌉=12, k=2, D=6) — the schedule cannot be real\n\
             synthetic: 1 error(s), 0 warning(s), 0 info\n"
        );
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
