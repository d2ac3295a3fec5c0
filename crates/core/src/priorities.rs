//! The heuristic prioritizations of §5.2: Level, Descendant (Plimpton et
//! al.), and Depth-First Descendant-Seeking (DFDS, Pautz) — each optionally
//! composed with random delays.
//!
//! All three produce a per-task priority vector for
//! [`crate::list_schedule::list_schedule`] (which prefers *smaller*
//! values, so largest-first schemes are negated here). "Adding random
//! delays" to a heuristic is modeled with per-direction release times, as
//! in the paper's experiments where directions are "randomly delayed".

use sweep_dag::{b_levels, descendant_counts, DescendantMode, SweepInstance};
use sweep_telemetry as telemetry;

use crate::assignment::Assignment;
use crate::list_schedule::{list_schedule, per_task_table};
use crate::random_delay::random_delays;
use crate::schedule::Schedule;

/// Level priorities: task `(v, i)` gets the level of `v` in `G_i`;
/// *smaller is preferred* (§5.2 "Level Priorities").
pub fn level_priorities(instance: &SweepInstance) -> Vec<i64> {
    per_task_table(instance, |_, dag| {
        dag.level_of().iter().map(|&level| i64::from(level))
    })
}

/// Descendant priorities: the number of descendants of `(v, i)` in `G_i`;
/// *larger is preferred* (negated for the min-first engine). `mode`
/// selects exact or path-count descendants (see `sweep_dag::descendants`).
pub fn descendant_priorities(instance: &SweepInstance, mode: DescendantMode) -> Vec<i64> {
    per_task_table(instance, |_, dag| {
        // Saturate into i64 to keep the negation total-order intact.
        let counts = descendant_counts(dag, mode).into_iter();
        counts.map(|c| -(c.min(i64::MAX as u64) as i64))
    })
}

/// DFDS priorities (Pautz). With `b(w)` the b-level of `w` and `K` a
/// constant at least the number of levels:
///
/// * task with an **off-processor child**: priority
///   `max_{children w} b(w) + K`;
/// * task whose children are all on-processor but with some off-processor
///   *descendant*: priority `max_{children w} prio(w) − 1`;
/// * task with **no off-processor descendant**: priority `0`.
///
/// *Larger is preferred* (negated for the engine). Unlike Level and
/// Descendant, DFDS depends on the processor assignment.
pub fn dfds_priorities(instance: &SweepInstance, assignment: &Assignment) -> Vec<i64> {
    let n = instance.num_cells();
    assert_eq!(assignment.num_cells(), n);
    // K must dominate any b-level; one constant for the whole instance
    // keeps priorities comparable across directions.
    let kconst = instance.max_depth() as i64 + 1;
    per_task_table(instance, |_, dag| {
        let b = b_levels(dag);
        let order = dag.topo_order().expect("instance DAGs are acyclic");
        // raw[v]: DFDS priority of (v, i); computed sinks-first.
        let mut raw = vec![0i64; n];
        let mut has_offproc_desc = vec![false; n];
        for &v in order.iter().rev() {
            let pv = assignment.proc_of(v);
            let mut off_child = false;
            let mut any_off_desc = false;
            let mut max_child_b = 0i64;
            let mut max_child_prio = i64::MIN;
            for &w in dag.successors(v) {
                if assignment.proc_of(w) != pv {
                    off_child = true;
                }
                if has_offproc_desc[w as usize] || assignment.proc_of(w) != pv {
                    any_off_desc = true;
                }
                max_child_b = max_child_b.max(b[w as usize] as i64);
                max_child_prio = max_child_prio.max(raw[w as usize]);
            }
            has_offproc_desc[v as usize] = any_off_desc;
            raw[v as usize] = if off_child {
                max_child_b + kconst
            } else if any_off_desc {
                max_child_prio - 1
            } else {
                0
            };
        }
        raw.into_iter().map(|priority| -priority)
    })
}

/// Which heuristic prioritization to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityScheme {
    /// Level priorities (§5.2).
    Level,
    /// Descendant priorities with the given counting mode.
    Descendant(DescendantMode),
    /// DFDS priorities (assignment-dependent).
    Dfds,
}

impl PriorityScheme {
    /// Short display name matching the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            PriorityScheme::Level => "level",
            PriorityScheme::Descendant(DescendantMode::Exact) => "descendant-exact",
            PriorityScheme::Descendant(DescendantMode::Approximate) => "descendant",
            PriorityScheme::Dfds => "dfds",
        }
    }
}

/// Schedules with the given heuristic, optionally composing random delays
/// (per-direction release times drawn from `{0, …, k−1}`).
pub fn schedule_with_priorities(
    instance: &SweepInstance,
    assignment: Assignment,
    scheme: PriorityScheme,
    delays: Option<u64>, // seed for the delay draw; None = no delays
) -> Schedule {
    // Static span name per scheme so the guard stays allocation-free.
    let _span = telemetry::span(match scheme {
        PriorityScheme::Level => "sched.priorities.level",
        PriorityScheme::Descendant(DescendantMode::Exact) => "sched.priorities.descendant_exact",
        PriorityScheme::Descendant(DescendantMode::Approximate) => "sched.priorities.descendant",
        PriorityScheme::Dfds => "sched.priorities.dfds",
    });
    let prio = match scheme {
        PriorityScheme::Level => level_priorities(instance),
        PriorityScheme::Descendant(mode) => descendant_priorities(instance, mode),
        PriorityScheme::Dfds => dfds_priorities(instance, &assignment),
    };
    let release = delays.map(|seed| random_delays(instance.num_directions(), seed));
    list_schedule(instance, assignment, &prio, release.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;
    use sweep_dag::{TaskDag, TaskId};

    fn sample() -> SweepInstance {
        SweepInstance::random_layered(60, 4, 6, 2, 11)
    }

    #[test]
    fn level_priorities_increase_along_edges() {
        let inst = sample();
        let p = level_priorities(&inst);
        let n = inst.num_cells();
        for (i, dag) in inst.dags().iter().enumerate() {
            for (u, v) in dag.edges() {
                assert!(
                    p[TaskId::pack(u, i as u32, n).index()]
                        < p[TaskId::pack(v, i as u32, n).index()]
                );
            }
        }
    }

    #[test]
    fn descendant_priorities_prefer_roots() {
        // A chain: the source has the most descendants ⇒ the most negative
        // (most preferred) priority.
        let dag = TaskDag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = SweepInstance::new(4, vec![dag], "chain");
        for mode in [DescendantMode::Exact, DescendantMode::Approximate] {
            let p = descendant_priorities(&inst, mode);
            assert!(p[0] < p[1] && p[1] < p[2] && p[2] < p[3]);
            assert_eq!(p[3], 0);
        }
    }

    #[test]
    fn dfds_zero_for_no_offproc_descendants() {
        // Everything on one processor ⇒ all priorities 0.
        let inst = sample();
        let a = Assignment::single(60);
        let p = dfds_priorities(&inst, &a);
        assert!(p.iter().all(|&x| x == 0));
    }

    #[test]
    fn dfds_boosts_tasks_with_offproc_children() {
        // Chain 0 -> 1 -> 2 with cell 1 on another processor: task 0 has an
        // off-processor child and must get a large (strongly preferred)
        // priority; task 2 has no off-proc descendants ⇒ 0.
        let dag = TaskDag::from_edges(3, &[(0, 1), (1, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "c");
        let a = Assignment::from_vec(vec![0, 1, 1], 2);
        let p = dfds_priorities(&inst, &a);
        assert!(p[0] < p[1], "0 has off-proc child, must outrank 1");
        assert_eq!(p[2], 0);
        // Task 1 also has… child 2 on the same proc and no off-proc
        // descendants below ⇒ 0.
        assert_eq!(p[1], 0);
    }

    #[test]
    fn dfds_descendant_seeking_decrements() {
        // 0 -> 1 -> 2 with only cell 2 off-processor: 1 has the off-proc
        // child (big priority), 0 has an off-proc *descendant* and gets
        // prio(1) - 1 — one unit less preferred than 1 but preferred over
        // "no off-proc" tasks.
        let dag = TaskDag::from_edges(3, &[(0, 1), (1, 2)]);
        let inst = SweepInstance::new(3, vec![dag], "c");
        let a = Assignment::from_vec(vec![0, 0, 1], 2);
        let p = dfds_priorities(&inst, &a);
        assert!(p[1] < p[0], "child-holder outranks ancestor");
        assert_eq!(p[0], p[1] + 1, "descendant-seeking decrement");
    }

    #[test]
    fn all_schemes_produce_feasible_schedules() {
        let inst = sample();
        for scheme in [
            PriorityScheme::Level,
            PriorityScheme::Descendant(DescendantMode::Approximate),
            PriorityScheme::Descendant(DescendantMode::Exact),
            PriorityScheme::Dfds,
        ] {
            for delays in [None, Some(5u64)] {
                let a = Assignment::random_cells(60, 8, 3);
                let s = schedule_with_priorities(&inst, a, scheme, delays);
                validate(&inst, &s).unwrap();
            }
        }
    }

    #[test]
    fn delayed_variant_changes_the_schedule() {
        let inst = sample();
        let a = Assignment::random_cells(60, 8, 3);
        let s_plain = schedule_with_priorities(&inst, a.clone(), PriorityScheme::Level, None);
        let s_delay = schedule_with_priorities(&inst, a, PriorityScheme::Level, Some(17));
        assert_ne!(s_plain.starts(), s_delay.starts());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(PriorityScheme::Level.name(), "level");
        assert_eq!(PriorityScheme::Dfds.name(), "dfds");
        assert_eq!(
            PriorityScheme::Descendant(DescendantMode::Approximate).name(),
            "descendant"
        );
    }
}
