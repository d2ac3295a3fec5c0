//! Unified front-end over every scheduler in the paper — the experiment
//! harness and examples dispatch through [`Algorithm`] so all algorithms
//! are driven identically.

use sweep_dag::SweepInstance;
use sweep_telemetry as telemetry;

use crate::assignment::Assignment;
use crate::improved::graham_union_steps;
use crate::list_schedule::{greedy_schedule, list_schedule, schedule_by};
use crate::priorities::{descendant_priorities, dfds_priorities, level_priorities};
use crate::random_delay::{
    delayed_levels, layer_sequential, random_delay_priorities_with, random_delay_with,
    random_delays,
};
use crate::schedule::Schedule;

/// Every scheduling algorithm studied in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1: layer-sequential random delays.
    RandomDelay,
    /// Algorithm 2: random delays as list-scheduling priorities (the
    /// paper's headline practical algorithm).
    RandomDelayPriorities,
    /// Algorithm 3: Graham-preprocessed random delays (layer-sequential).
    ImprovedRandomDelay,
    /// Algorithm 3 with priority compaction.
    ImprovedWithPriorities,
    /// Greedy FIFO list scheduling (no priorities, no delays).
    Greedy,
    /// Level priorities (§5.2), optionally with random delays.
    LevelPriority {
        /// Compose per-direction random delays.
        delays: bool,
    },
    /// Descendant priorities (Plimpton et al.), optionally with delays.
    DescendantPriority {
        /// Compose per-direction random delays.
        delays: bool,
    },
    /// DFDS priorities (Pautz), optionally with delays.
    Dfds {
        /// Compose per-direction random delays.
        delays: bool,
    },
}

impl Algorithm {
    /// The algorithms compared in §5.2, in presentation order.
    pub const COMPARISON_SET: [Algorithm; 8] = [
        Algorithm::RandomDelay,
        Algorithm::RandomDelayPriorities,
        Algorithm::Greedy,
        Algorithm::LevelPriority { delays: false },
        Algorithm::DescendantPriority { delays: false },
        Algorithm::DescendantPriority { delays: true },
        Algorithm::Dfds { delays: false },
        Algorithm::Dfds { delays: true },
    ];

    /// Short name for tables and CSV output.
    pub fn name(&self) -> String {
        match self {
            Algorithm::RandomDelay => "random_delay".into(),
            Algorithm::RandomDelayPriorities => "random_delay_prio".into(),
            Algorithm::ImprovedRandomDelay => "improved_random_delay".into(),
            Algorithm::ImprovedWithPriorities => "improved_prio".into(),
            Algorithm::Greedy => "greedy".into(),
            Algorithm::LevelPriority { delays } => {
                format!("level{}", if *delays { "+delays" } else { "" })
            }
            Algorithm::DescendantPriority { delays } => {
                format!("descendant{}", if *delays { "+delays" } else { "" })
            }
            Algorithm::Dfds { delays } => {
                format!("dfds{}", if *delays { "+delays" } else { "" })
            }
        }
    }

    /// The algorithm a front-end name selects (the `--algorithm` values of
    /// the CLI and the `"algorithm"` field of `POST /v1/schedule`); `delays`
    /// composes random delays where the heuristic takes them.
    pub fn from_name(name: &str, delays: bool) -> Result<Algorithm, String> {
        Ok(match name {
            "rdp" => Algorithm::RandomDelayPriorities,
            "rd" => Algorithm::RandomDelay,
            "improved" => Algorithm::ImprovedRandomDelay,
            "greedy" => Algorithm::Greedy,
            "level" => Algorithm::LevelPriority { delays },
            "descendant" => Algorithm::DescendantPriority { delays },
            "dfds" => Algorithm::Dfds { delays },
            other => return Err(format!("unknown algorithm '{other}'")),
        })
    }

    /// Runs the algorithm: the allocating reference that
    /// [`crate::TrialContext::run_trial`] must equal. `seed` drives the delay
    /// draw (a §5.2 heuristic's delays are per-direction release times); the
    /// caller supplies the assignment, so communication costs compare across
    /// algorithms (§5.2 fixes the block assignment and compares makespans).
    pub fn run(&self, instance: &SweepInstance, assignment: Assignment, seed: u64) -> Schedule {
        let draw = || random_delays(instance.num_directions(), seed);
        let heuristic = |prio: Vec<i64>, delays: bool, assignment| {
            list_schedule(instance, assignment, &prio, delays.then(draw).as_deref())
        };
        match *self {
            Algorithm::RandomDelay => random_delay_with(instance, assignment, &draw()),
            Algorithm::RandomDelayPriorities => {
                random_delay_priorities_with(instance, assignment, &draw())
            }
            Algorithm::ImprovedRandomDelay | Algorithm::ImprovedWithPriorities => {
                let _span = telemetry::span!("sched.improved");
                let delays = draw();
                let (steps, _) = graham_union_steps(instance, assignment.num_procs());
                if *self == Algorithm::ImprovedRandomDelay {
                    layer_sequential(instance, assignment, &delays, &steps)
                } else {
                    schedule_by(instance, assignment, delayed_levels(&steps, &delays), None)
                }
            }
            Algorithm::Greedy => greedy_schedule(instance, assignment),
            Algorithm::LevelPriority { delays } => {
                let _span = telemetry::span!("sched.priorities.level");
                heuristic(level_priorities(instance), delays, assignment)
            }
            Algorithm::DescendantPriority { delays } => {
                let _span = telemetry::span!("sched.priorities.descendant");
                let prio = descendant_priorities(instance);
                heuristic(prio, delays, assignment)
            }
            Algorithm::Dfds { delays } => {
                let _span = telemetry::span!("sched.priorities.dfds");
                heuristic(dfds_priorities(instance, &assignment), delays, assignment)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;

    #[test]
    fn every_algorithm_is_feasible_and_named() {
        let inst = SweepInstance::random_layered(50, 4, 6, 2, 9);
        let mut algos = Algorithm::COMPARISON_SET.to_vec();
        algos.push(Algorithm::ImprovedRandomDelay);
        algos.push(Algorithm::ImprovedWithPriorities);
        let mut names = std::collections::HashSet::new();
        for alg in algos {
            let a = Assignment::random_cells(50, 6, 1);
            let s = alg.run(&inst, a, 2);
            validate(&inst, &s).unwrap();
            assert!(names.insert(alg.name()), "duplicate name {}", alg.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::RandomDelay.name(), "random_delay");
        assert_eq!(Algorithm::Dfds { delays: true }.name(), "dfds+delays");
        assert_eq!(Algorithm::LevelPriority { delays: false }.name(), "level");
    }

    #[test]
    fn front_end_names_parse_and_unknown_ones_keep_their_error() {
        let delayed = Algorithm::from_name("dfds", true);
        assert_eq!(delayed, Ok(Algorithm::Dfds { delays: true }));
        assert_eq!(Algorithm::from_name("rd", true), Ok(Algorithm::RandomDelay));
        for unknown in ["", "RDP", "improved_prio", "random_delay"] {
            let err = Algorithm::from_name(unknown, false).unwrap_err();
            assert_eq!(err, format!("unknown algorithm '{unknown}'"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 4);
        let a = Assignment::random_cells(40, 4, 5);
        let s1 = Algorithm::RandomDelayPriorities.run(&inst, a.clone(), 6);
        let s2 = Algorithm::RandomDelayPriorities.run(&inst, a, 6);
        assert_eq!(s1.starts(), s2.starts());
    }
}
