//! Schedule representation and independent feasibility validation.
//!
//! A [`Schedule`] assigns every task `(v, i)` a start timestep (all tasks
//! take unit time, `p = 1`) and owns the cell → processor [`Assignment`]
//! it was built for. [`validate`] re-checks the paper's three feasibility
//! constraints from scratch, so tests can verify *any* scheduler against an
//! implementation-independent oracle; it is the verdict of [`certify`].

use sweep_dag::{SweepInstance, TaskId};

use crate::assignment::Assignment;
use crate::bounds::{lower_bounds, LowerBounds};
use crate::slots::{SlotSort, SlotTask};

/// A feasible (or to-be-validated) sweep schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Start time per task, indexed by `TaskId::index()` (`dir·n + cell`).
    start: Vec<u32>,
    /// The cell → processor assignment the schedule runs under.
    assignment: Assignment,
    makespan: u32,
}

/// A malformed [`Schedule`] construction, reported as a typed error so
/// bad inputs flow into the diagnostics pipeline (`sweep-analyze`)
/// instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleBuildError {
    /// `start.len()` is not a multiple of the assignment's cell count
    /// (a schedule must cover exactly `n·k` tasks for some integer `k`).
    StartCountMismatch {
        /// Number of start entries supplied.
        starts: usize,
        /// Cells covered by the assignment.
        cells: usize,
    },
    /// A task starts at `u32::MAX`, so it would finish at step 2^32 and
    /// the makespan would not fit a `u32`.
    MakespanOverflow {
        /// Index of the first task starting at `u32::MAX`.
        task: usize,
    },
}

impl std::fmt::Display for ScheduleBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleBuildError::StartCountMismatch { starts, cells } => write!(
                f,
                "{starts} start times cannot cover k direction copies of {cells} cells \
                 (need a multiple of the cell count)"
            ),
            ScheduleBuildError::MakespanOverflow { task } => write!(
                f,
                "task {task} starts at {}, so the makespan overflows a u32",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for ScheduleBuildError {}

impl Schedule {
    /// Bundles start times with their assignment. The makespan is derived.
    ///
    /// Returns a typed error when `start.len()` is not a multiple of the
    /// assignment's cell count (it must be `n·k`) or a task starts at
    /// `u32::MAX` (the makespan would overflow), so untrusted inputs
    /// (CSV imports, a peer's artifact, corrupted schedules under
    /// analysis) surface as diagnostics rather than panics.
    pub fn new(start: Vec<u32>, assignment: Assignment) -> Result<Schedule, ScheduleBuildError> {
        let n = assignment.num_cells();
        if !(n == 0 && start.is_empty() || n > 0 && start.len().is_multiple_of(n)) {
            return Err(ScheduleBuildError::StartCountMismatch {
                starts: start.len(),
                cells: n,
            });
        }
        let makespan = match start.iter().max() {
            Some(&u32::MAX) => {
                let task = start.iter().position(|&t| t == u32::MAX).unwrap_or(0);
                return Err(ScheduleBuildError::MakespanOverflow { task });
            }
            last => last.map_or(0, |&t| t + 1),
        };
        Ok(Schedule {
            start,
            assignment,
            makespan,
        })
    }

    /// [`Schedule::new`] for schedulers whose output shape is correct by
    /// construction.
    ///
    /// # Panics
    /// Panics when [`Schedule::new`] returns an error.
    pub fn new_checked(start: Vec<u32>, assignment: Assignment) -> Schedule {
        Schedule::new(start, assignment).expect("scheduler emitted n·k finite start times")
    }

    /// Start time of a task.
    #[inline]
    pub fn start_of(&self, t: TaskId) -> u32 {
        self.start[t.index()]
    }

    /// All start times (indexed by `TaskId::index`).
    #[inline]
    pub fn starts(&self) -> &[u32] {
        &self.start
    }

    /// Processor of a task (determined by its cell).
    #[inline]
    pub fn proc_of_cell(&self, v: u32) -> u32 {
        self.assignment.proc_of(v)
    }

    /// The underlying assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Number of unit timesteps used — the objective of §4.
    #[inline]
    pub fn makespan(&self) -> u32 {
        self.makespan
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.assignment.num_procs()
    }

    /// Fraction of processor-timestep slots doing useful work:
    /// `n·k / (m · makespan)`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.start.len() as f64 / (self.num_procs() as f64 * self.makespan as f64)
    }
}

/// A violated feasibility constraint, with enough context to debug the
/// offending scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// `start.len() != n·k`.
    WrongTaskCount {
        /// Expected `n·k`.
        expected: usize,
        /// Actual number of start entries.
        actual: usize,
    },
    /// Precedence violated: `(u, dir)` must finish before `(v, dir)` starts.
    Precedence {
        /// The direction whose DAG is violated.
        dir: u32,
        /// Upstream cell.
        u: u32,
        /// Downstream cell.
        v: u32,
        /// Start time of `(u, dir)`.
        start_u: u32,
        /// Start time of `(v, dir)`.
        start_v: u32,
    },
    /// Two tasks share a processor-timestep slot.
    ProcessorConflict {
        /// The double-booked processor.
        proc: u32,
        /// The conflicting timestep.
        time: u32,
    },
    /// The assignment covers a different number of cells than the instance.
    AssignmentMismatch {
        /// Cells in the instance.
        cells: usize,
        /// Cells covered by the assignment.
        assigned: usize,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::WrongTaskCount { expected, actual } => {
                write!(f, "expected {expected} tasks, schedule has {actual}")
            }
            ScheduleViolation::Precedence {
                dir,
                u,
                v,
                start_u,
                start_v,
            } => write!(
                f,
                "direction {dir}: cell {u} (t={start_u}) must finish before cell {v} (t={start_v})"
            ),
            ScheduleViolation::ProcessorConflict { proc, time } => {
                write!(f, "processor {proc} runs two tasks at time {time}")
            }
            ScheduleViolation::AssignmentMismatch { cells, assigned } => {
                write!(
                    f,
                    "instance has {cells} cells but assignment covers {assigned}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// What [`certify`] finds out about a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// `Ok`, or the first violation [`validate`] reports.
    pub verdict: Result<(), ScheduleViolation>,
    /// Number of unit timesteps used.
    pub makespan: u32,
    /// C1: interprocessor DAG edges (0 if the schedule has the wrong shape).
    pub c1: u64,
    /// C2, feasible schedule or not (0 if it has the wrong shape).
    pub c2: u64,
    /// Idle processor-steps, `m · makespan − n·k`, or 0 where a schedule
    /// that double-books slots packs more tasks than `m · makespan`.
    pub idle_slots: u64,
    /// Cells per processor.
    pub loads: Vec<u32>,
    /// The instance's lower bounds on the schedule's `m`.
    pub bounds: LowerBounds,
}

/// Checks the three feasibility constraints of §3 against `instance`:
/// precedence within every DAG, one task per processor per timestep, and
/// (by construction of [`Schedule`]) one processor per cell. Reports the
/// first violated precedence in `(dir, u, v)` order, else the smallest
/// double-booked `(time, proc)` slot: the verdict of [`certify`].
pub fn validate(instance: &SweepInstance, schedule: &Schedule) -> Result<(), ScheduleViolation> {
    certify(instance, schedule).verdict
}

/// Certifies `schedule` against `instance` in `O(n·k + edges + m)` time
/// and memory, with no comparison sort: one walk over each direction's
/// successor rows finds the first violated precedence and each task's cut
/// out-degree (C1 is their sum), then one slot sort of the tasks weighted
/// by that degree finds the smallest double-booked slot and C2.
/// [`validate`] and [`c2_comm_delay`](crate::c2_comm_delay) are its
/// projections; [`certify_each`] is the same pass handing over every
/// violation, which is how `sweep-analyze` reports them all.
pub fn certify(instance: &SweepInstance, schedule: &Schedule) -> Certificate {
    certify_each(instance, schedule, |_| {})
}

/// [`certify`], handing `sink` each violation as it is found: a shape
/// error alone, else each violated edge in `(dir, u, v)` order, then one
/// conflict per extra task of a slot in `(time, proc)` order. The first
/// is the verdict; a feasible schedule never calls `sink`.
pub fn certify_each(
    instance: &SweepInstance,
    schedule: &Schedule,
    sink: impl FnMut(&ScheduleViolation),
) -> Certificate {
    certify_in(instance, schedule, &mut SlotSort::default(), sink)
}

/// [`certify_each`] on the caller's slot-sort buffers.
pub(crate) fn certify_in(
    instance: &SweepInstance,
    schedule: &Schedule,
    slots: &mut SlotSort,
    mut sink: impl FnMut(&ScheduleViolation),
) -> Certificate {
    let (n, nk) = (instance.num_cells(), instance.num_tasks());
    let (assignment, starts) = (schedule.assignment(), schedule.starts());
    let all_slots = schedule.num_procs() as u64 * u64::from(schedule.makespan());
    let mut cert = Certificate {
        verdict: Ok(()),
        makespan: schedule.makespan(),
        c1: 0,
        c2: 0,
        idle_slots: all_slots.saturating_sub(starts.len() as u64),
        loads: assignment.loads(),
        bounds: lower_bounds(instance, schedule.num_procs()),
    };
    let mut first = None;
    let mut found = |violation: ScheduleViolation| {
        sink(&violation);
        first.get_or_insert(violation);
    };
    let (assigned, actual) = (assignment.num_cells(), starts.len());
    if assigned != n || actual != nk {
        found(if assigned != n {
            ScheduleViolation::AssignmentMismatch { cells: n, assigned }
        } else {
            ScheduleViolation::WrongTaskCount {
                expected: nk,
                actual,
            }
        });
        cert.verdict = first.map_or(Ok(()), Err);
        return cert;
    }
    // Constraint 1, precedence: unit tasks ⇒ start(v) ≥ start(u) + 1.
    // (With no cells there are no starts, and no chunk to pair a DAG with.)
    let procs = assignment.as_slice();
    let mut cut = vec![0u32; nk];
    let per_dir = instance.dags().iter().zip(starts.chunks_exact(n.max(1)));
    for ((dir, (dag, starts)), sent) in (0u32..).zip(per_dir).zip(cut.chunks_exact_mut(n.max(1))) {
        for (u, v) in dag.edges() {
            sent[u as usize] += u32::from(procs[v as usize] != procs[u as usize]);
            let (start_u, start_v) = (starts[u as usize], starts[v as usize]);
            if start_v <= start_u {
                found(ScheduleViolation::Precedence {
                    dir,
                    u,
                    v,
                    start_u,
                    start_v,
                });
            }
        }
    }
    cert.c1 = cut.iter().map(|&c| u64::from(c)).sum();
    // Constraint 2, one task per processor-step, and C2. In slot order a
    // step's slots are adjacent, smallest `(step, proc)` first, and so are
    // the tasks of one slot. `load` sums the current slot's messages,
    // `heaviest` the step's heaviest slot before it.
    let (mut heaviest, mut load) = (0u64, 0u64);
    let mut prev: Option<&SlotTask> = None;
    for s in slots.sort(schedule, |t| cut[t]) {
        let w = u64::from(s.weight);
        match prev {
            Some(p) if p.same_slot(s) => {
                load += w;
                let (proc, time) = (p.proc, p.step);
                found(ScheduleViolation::ProcessorConflict { proc, time });
            }
            Some(p) if p.step == s.step => (heaviest, load) = (heaviest.max(load), w),
            _ => (cert.c2, heaviest, load) = (cert.c2 + heaviest.max(load), 0, w),
        }
        prev = Some(s);
    }
    cert.c2 += heaviest.max(load);
    cert.verdict = first.map_or(Ok(()), Err);
    cert
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sweep_dag::TaskDag;

    /// The body [`validate`] replaced, one comparison sort of every
    /// `(time, proc)` slot: the oracle it must agree with, violation
    /// payload included.
    pub(crate) fn validate_reference(
        instance: &SweepInstance,
        schedule: &Schedule,
    ) -> Result<(), ScheduleViolation> {
        let n = instance.num_cells();
        let k = instance.num_directions();
        if schedule.assignment().num_cells() != n {
            return Err(ScheduleViolation::AssignmentMismatch {
                cells: n,
                assigned: schedule.assignment().num_cells(),
            });
        }
        if schedule.starts().len() != n * k {
            return Err(ScheduleViolation::WrongTaskCount {
                expected: n * k,
                actual: schedule.starts().len(),
            });
        }
        for (i, dag) in instance.dags().iter().enumerate() {
            for (u, v) in dag.edges() {
                let su = schedule.start_of(TaskId::pack(u, i as u32, n));
                let sv = schedule.start_of(TaskId::pack(v, i as u32, n));
                if sv <= su {
                    return Err(ScheduleViolation::Precedence {
                        dir: i as u32,
                        u,
                        v,
                        start_u: su,
                        start_v: sv,
                    });
                }
            }
        }
        let mut slots: Vec<(u32, u32)> = Vec::with_capacity(n * k);
        for dir in 0..k as u32 {
            for v in 0..n as u32 {
                let t = schedule.start_of(TaskId::pack(v, dir, n));
                slots.push((t, schedule.proc_of_cell(v)));
            }
        }
        slots.sort_unstable();
        for w in slots.windows(2) {
            if w[0] == w[1] {
                return Err(ScheduleViolation::ProcessorConflict {
                    proc: w[0].1,
                    time: w[0].0,
                });
            }
        }
        Ok(())
    }

    /// n=2 cells, k=1 direction, edge 0 -> 1.
    fn tiny_instance() -> SweepInstance {
        SweepInstance::new(2, vec![TaskDag::from_edges(2, &[(0, 1)])], "tiny")
    }

    #[test]
    fn valid_schedule_passes() {
        let inst = tiny_instance();
        let a = Assignment::single(2);
        let s = Schedule::new_checked(vec![0, 1], a);
        assert_eq!(s.makespan(), 2);
        validate(&inst, &s).unwrap();
        assert!((s.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precedence_violation_detected() {
        let inst = tiny_instance();
        let a = Assignment::from_vec(vec![0, 1], 2);
        let s = Schedule::new_checked(vec![1, 0], a); // 1 before 0: violates 0 -> 1
        let err = validate(&inst, &s).unwrap_err();
        assert!(matches!(
            err,
            ScheduleViolation::Precedence { u: 0, v: 1, .. }
        ));
    }

    #[test]
    fn simultaneous_start_violates_precedence() {
        let inst = tiny_instance();
        let a = Assignment::from_vec(vec![0, 1], 2);
        let s = Schedule::new_checked(vec![0, 0], a);
        assert!(matches!(
            validate(&inst, &s),
            Err(ScheduleViolation::Precedence { .. })
        ));
    }

    #[test]
    fn processor_conflict_detected() {
        // Two independent cells on the same processor at the same time.
        let inst = SweepInstance::new(2, vec![TaskDag::edgeless(2)], "i");
        let a = Assignment::single(2);
        let s = Schedule::new_checked(vec![0, 0], a);
        let err = validate(&inst, &s).unwrap_err();
        assert_eq!(
            err,
            ScheduleViolation::ProcessorConflict { proc: 0, time: 0 }
        );
        assert!(err.to_string().contains("processor 0"));
    }

    #[test]
    fn wrong_task_count_detected() {
        let inst = SweepInstance::new(2, vec![TaskDag::edgeless(2), TaskDag::edgeless(2)], "i");
        let a = Assignment::single(2);
        let s = Schedule::new_checked(vec![0, 1], a); // k=2 needs 4 starts
        assert!(matches!(
            validate(&inst, &s),
            Err(ScheduleViolation::WrongTaskCount {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn assignment_mismatch_detected() {
        let inst = tiny_instance();
        let a = Assignment::single(3);
        let s = Schedule::new_checked(vec![0, 1, 2], a);
        assert!(matches!(
            validate(&inst, &s),
            Err(ScheduleViolation::AssignmentMismatch {
                cells: 2,
                assigned: 3
            })
        ));
    }

    /// A schedule of the wrong shape gets its shape error and the counts
    /// that need no edge, and no panic.
    #[test]
    fn certify_reports_wrong_shapes_without_panicking() {
        let inst = SweepInstance::new(2, vec![TaskDag::from_edges(2, &[(0, 1)]); 2], "two");
        let three_cells =
            Schedule::new_checked(vec![0, 1, 2], Assignment::from_vec(vec![0, 1, 1], 2));
        let cert = certify(&inst, &three_cells);
        let mismatch = ScheduleViolation::AssignmentMismatch {
            cells: 2,
            assigned: 3,
        };
        assert_eq!(cert.verdict, Err(mismatch));
        assert_eq!(
            (cert.makespan, cert.c1, cert.c2, cert.idle_slots),
            (3, 0, 0, 3)
        );
        assert_eq!(cert.loads, [1, 2]);
        let one_direction = Schedule::new_checked(vec![0, 1], Assignment::from_vec(vec![0, 1], 2));
        let cert = certify(&inst, &one_direction);
        let short = ScheduleViolation::WrongTaskCount {
            expected: 4,
            actual: 2,
        };
        assert_eq!(cert.verdict, Err(short));
        assert_eq!(
            (cert.c1, cert.c2, cert.bounds),
            (0, 0, lower_bounds(&inst, 2))
        );
    }

    /// `certify_each` hands over every violated edge in walk order, then
    /// one conflict per extra task of a slot in `(time, proc)` order; the
    /// verdict is the first, and a feasible schedule reports nothing.
    #[test]
    fn certify_each_reports_every_violation() {
        let chain = TaskDag::from_edges(3, &[(0, 1), (1, 2)]);
        let inst = SweepInstance::new(3, vec![chain.clone(), chain], "chains");
        let a = Assignment::from_vec(vec![0, 0, 1], 2);
        let mut seen = Vec::new();
        let s = Schedule::new_checked(vec![4, 4, 4, 0, 1, 2], a.clone());
        let cert = certify_each(&inst, &s, |v| seen.push(v.clone()));
        let edge = |u, v, t| ScheduleViolation::Precedence {
            dir: 0,
            u,
            v,
            start_u: t,
            start_v: t,
        };
        let slot = |proc, time| ScheduleViolation::ProcessorConflict { proc, time };
        assert_eq!(seen, [edge(0, 1, 4), edge(1, 2, 4), slot(0, 4)]);
        assert_eq!(cert.verdict, Err(edge(0, 1, 4)));
        assert_eq!(cert, certify(&inst, &s));
        let s = Schedule::new_checked(vec![0, 1, 2, 3, 4, 5], a);
        certify_each(&inst, &s, |v| panic!("feasible, yet {v}"));
    }

    #[test]
    fn makespan_is_last_finish() {
        let a = Assignment::single(3);
        let s = Schedule::new_checked(vec![0, 5, 2], a);
        assert_eq!(s.makespan(), 6);
    }

    #[test]
    fn empty_schedule() {
        let a = Assignment::single(0);
        let s = Schedule::new_checked(vec![], a);
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.utilization(), 1.0);
    }
}
