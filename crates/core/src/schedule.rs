//! Schedule representation and independent feasibility validation.
//!
//! A [`Schedule`] assigns every task `(v, i)` a start timestep (all tasks
//! take unit time, `p = 1`) and owns the cell → processor [`Assignment`]
//! it was built for. [`validate`] re-checks the paper's three feasibility
//! constraints from scratch, so tests can verify *any* scheduler against an
//! implementation-independent oracle.

use sweep_dag::{SweepInstance, TaskId};

use crate::assignment::Assignment;
use crate::slots::SlotSort;

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

/// Checks the three feasibility constraints of §3 against `instance`:
/// precedence within every DAG, one task per processor per timestep, and
/// (by construction of [`Schedule`]) one processor per cell. Reports the
/// first violated precedence in `(dir, u, v)` order, else the smallest
/// double-booked `(time, proc)` slot. Runs in `O(n·k + edges)` time and
/// memory, with no comparison sort.
pub fn validate(instance: &SweepInstance, schedule: &Schedule) -> Result<(), ScheduleViolation> {
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
    // Constraint 1: precedence. Unit tasks ⇒ start(v) ≥ start(u) + 1.
    // (With no cells there are no starts, and no chunk to pair a DAG with.)
    let per_dir = schedule.starts().chunks_exact(n.max(1));
    for (i, (dag, starts)) in instance.dags().iter().zip(per_dir).enumerate() {
        for (u, &su) in (0..n as u32).zip(starts) {
            let succ = dag.successors(u);
            if let Some(&v) = succ.iter().find(|&&v| starts[v as usize] <= su) {
                return Err(ScheduleViolation::Precedence {
                    dir: i as u32,
                    u,
                    v,
                    start_u: su,
                    start_v: starts[v as usize],
                });
            }
        }
    }
    // Constraint 2: one task per processor-timestep. In slot order the
    // tasks of a slot are adjacent, smallest `(time, proc)` first.
    let mut slots = SlotSort::default();
    let tasks = slots.sort(schedule, |_| 1);
    match tasks.windows(2).find(|w| w[0].same_slot(&w[1])) {
        Some(w) => Err(ScheduleViolation::ProcessorConflict {
            proc: w[0].proc,
            time: w[0].step,
        }),
        None => Ok(()),
    }
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
