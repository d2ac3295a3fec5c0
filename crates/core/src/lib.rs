//! # sweep-core — provable parallel sweep-scheduling algorithms
//!
//! Implementation of Anil Kumar, Marathe, Parthasarathy, Srinivasan &
//! Zust, *Provable Algorithms for Parallel Sweep Scheduling on
//! Unstructured Meshes* (IPPS 2005):
//!
//! * [`random_delay()`](random_delay()) — Algorithm 1, the `O(log² n)`-approximate
//!   layer-sequential Random Delay algorithm;
//! * [`random_delay_priorities`] — Algorithm 2, the priority-compacted
//!   variant (same guarantee, much better in practice);
//! * [`improved_random_delay`] — Algorithm 3, Graham-preprocessed delays
//!   with the `O(log m · log log log m)` expected guarantee;
//! * [`priorities`] — the Level / Descendant / DFDS heuristics of §5.2,
//!   each composable with random delays;
//! * [`list_schedule()`](list_schedule()) — the shared priority list-scheduling engine;
//! * [`metrics`] — the communication measures C1 and C2;
//! * [`bounds`] — lower bounds (`max{nk/m, k, D}` and a Graham witness);
//! * [`concentration`] — Chernoff/balls-in-bins helpers mirroring
//!   Lemma 1 and equation (3), plus empirical congestion probes for
//!   Lemmas 2–3;
//! * [`validate`] — an independent feasibility oracle for the three
//!   sweep-scheduling constraints.
//!
//! ```
//! use sweep_dag::SweepInstance;
//! use sweep_core::{Algorithm, Assignment, validate, lower_bounds};
//!
//! let inst = SweepInstance::random_layered(200, 8, 12, 2, 1);
//! let assignment = Assignment::random_cells(200, 16, 2);
//! let schedule = Algorithm::RandomDelayPriorities.run(&inst, assignment, 3);
//! validate(&inst, &schedule).unwrap();
//! let lb = lower_bounds(&inst, 16);
//! assert!(schedule.makespan() as u64 >= lb.best());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod algorithms;
pub mod assignment;
pub mod bounds;
pub mod concentration;
pub mod gantt;
pub mod improved;
pub mod kba;
pub mod list_schedule;
pub mod metrics;
pub mod opt;
pub mod priorities;
pub mod random_delay;
pub mod replicate;
pub mod schedule;
pub mod scratch;
pub mod trials;
pub mod weighted;

pub use algorithms::Algorithm;
pub use assignment::Assignment;
pub use bounds::{approx_ratio, lower_bounds, LowerBounds};
pub use concentration::{
    balls_in_bins_h, chernoff_f, chernoff_g, layer_congestion, CongestionStats,
};
pub use gantt::{from_csv, render_gantt, timelines, to_csv};
pub use improved::{graham_union_steps, improved_random_delay, improved_with_priorities};
pub use kba::{kba_assignment, processor_grid};
pub use list_schedule::{compact, greedy_schedule, list_schedule, task_in_degrees};
pub use metrics::{c1_interprocessor_edges, c2_comm_delay, cut_fraction, idle_slots, load_profile};
pub use opt::{optimal_makespan_fixed_assignment, optimal_sweep_makespan};
pub use priorities::{
    descendant_priorities, dfds_priorities, level_priorities, schedule_with_priorities,
    PriorityScheme,
};
pub use random_delay::{
    delayed_level_priorities, random_delay, random_delay_priorities, random_delay_priorities_with,
    random_delay_with, random_delays, random_delays_into,
};
pub use replicate::{replicate, AssignmentDraw, ReplicateSummary};
pub use schedule::{validate, Schedule, ScheduleBuildError, ScheduleViolation};
pub use scratch::{TrialContext, TrialScratch};
pub use trials::{
    best_of_trials, best_of_trials_seq, best_of_trials_with_pool, trial_seeds, BestOfTrials,
    TrialOutcome,
};
pub use weighted::{
    validate_weighted, weighted_list_schedule, weighted_lower_bound,
    weighted_random_delay_priorities, WeightedSchedule, WeightedViolation,
};
