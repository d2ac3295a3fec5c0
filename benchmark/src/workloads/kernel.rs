//! `kernel_rdp` and `kernel_mix`: best-of-`b` scheduling on a
//! pre-built instance at pool width 1. One struct, two family lists.

use sweep_core::{best_of_trials, Algorithm, Assignment, BestOfTrials};
use sweep_dag::SweepInstance;

use super::{best_bound, reference, tetonly_instance, OpOutcome, Reference, Workload};
use crate::layers::ProbeSpec;
use crate::spans::Tracer;

/// One scheduler family of a kernel op.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Best-of-`b` trial count.
    pub b: usize,
    /// Span name of the `best_of_trials` call.
    pub span: &'static str,
    /// Per-layer metric of one allocating `Algorithm::run`.
    pub run: &'static str,
    /// Per-layer metric of one `TrialContext::run_trial` on a reused
    /// scratch, for the three families that have that fast path.
    pub trial: Option<&'static str>,
}

impl Family {
    /// What `best_of_trials` does for this family, in metric units per
    /// task (see `Workload::composition`): one `run` when `b == 1`;
    /// with a fast path the context, `b` scratch trials and the
    /// winner's re-run; otherwise `b` runs and the winner's re-run.
    fn composition(&self, out: &mut Vec<(&'static str, f64)>) {
        match self.trial {
            _ if self.b == 1 => out.push((self.run, 1.0)),
            Some(trial) => out.extend([
                ("core.ctx.ns_per_task", 1.0),
                (trial, self.b as f64),
                (self.run, 1.0),
            ]),
            None => out.push((self.run, self.b as f64 + 1.0)),
        }
    }
}

/// `kernel_rdp`: the heap list-scheduling kernel on the
/// `TrialContext`/`TrialScratch` fast path.
pub const RDP: [Family; 1] = [Family {
    algorithm: Algorithm::RandomDelayPriorities,
    b: 8,
    span: "core.bot.rdp",
    run: "core.rematerialize.ns_per_task",
    trial: Some("core.trial_rdp.ns_per_task_trial"),
}];

/// `kernel_mix`: every *other* family — the layered Algorithm-1 kernel,
/// the Graham passes, and the non-arena `Algorithm::run` fallback.
pub const MIX: [Family; 8] = [
    Family {
        algorithm: Algorithm::RandomDelay,
        b: 8,
        span: "core.bot.rd",
        run: "core.run_rd.ns_per_task_trial",
        trial: Some("core.trial_rd.ns_per_task_trial"),
    },
    Family {
        algorithm: Algorithm::Greedy,
        b: 1,
        span: "core.bot.greedy",
        run: "core.run_greedy.ns_per_task_trial",
        trial: Some("core.trial_greedy.ns_per_task_trial"),
    },
    Family {
        algorithm: Algorithm::LevelPriority { delays: false },
        b: 1,
        span: "core.bot.level",
        run: "core.run_level.ns_per_task_trial",
        trial: None,
    },
    Family {
        algorithm: Algorithm::LevelPriority { delays: true },
        b: 4,
        span: "core.bot.level_d",
        run: "core.run_level_d.ns_per_task_trial",
        trial: None,
    },
    Family {
        algorithm: Algorithm::DescendantPriority { delays: true },
        b: 4,
        span: "core.bot.descendant_d",
        run: "core.run_descendant_d.ns_per_task_trial",
        trial: None,
    },
    Family {
        algorithm: Algorithm::Dfds { delays: true },
        b: 4,
        span: "core.bot.dfds_d",
        run: "core.run_dfds_d.ns_per_task_trial",
        trial: None,
    },
    Family {
        algorithm: Algorithm::ImprovedRandomDelay,
        b: 4,
        span: "core.bot.improved",
        run: "core.run_improved.ns_per_task_trial",
        trial: None,
    },
    Family {
        algorithm: Algorithm::ImprovedWithPriorities,
        b: 4,
        span: "core.bot.improved_prio",
        run: "core.run_improved_prio.ns_per_task_trial",
        trial: None,
    },
];

/// Shape of a kernel workload.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    /// Tetonly scale.
    pub scale: f64,
    /// Processors.
    pub m: usize,
    /// Ops per pass.
    pub cycle: usize,
    /// The families each op sweeps.
    pub families: &'static [Family],
}

/// `kernel_rdp`: tetonly 0.2 × S4 (151 128 tasks), `m = 64`.
pub const KERNEL_RDP: KernelSpec = KernelSpec {
    scale: 0.2,
    m: 64,
    cycle: 10,
    families: &RDP,
};

/// `kernel_mix`: tetonly 0.05 × S4 (37 800 tasks), `m = 16`.
pub const KERNEL_MIX: KernelSpec = KernelSpec {
    scale: 0.05,
    m: 16,
    cycle: 10,
    families: &MIX,
};

/// Seed of the pre-built `random_cells` assignment. Part of the
/// instance, not of the run: the most loaded processor sets the
/// makespan, so another draw moves `makespan_ratio` by up to 15 % and
/// op time by 6 % — input variance, which would drown the run-to-run
/// noise the bounds are about. The run seed draws the delays.
pub const ASSIGNMENT_SEED: u64 = 1;

/// A kernel workload after set-up.
pub struct Kernel {
    instance: SweepInstance,
    /// The one `random_cells` assignment every op schedules under.
    assignment: Assignment,
    spec: KernelSpec,
    lower_bound: u64,
    seeds: Vec<u64>,
    /// `refs[i][f]`: the reference for family `f` of op `i`.
    refs: Vec<Vec<Reference>>,
}

impl Kernel {
    /// Builds the instance, draws the op cycle (one master seed per
    /// op) from `seed`, and computes a reference for every (op,
    /// family).
    pub fn set_up(spec: KernelSpec, seed: u64) -> Kernel {
        sweep_pool::set_global_threads(1);
        let (_, instance) = tetonly_instance(spec.scale);
        let assignment = Assignment::random_cells(instance.num_cells(), spec.m, ASSIGNMENT_SEED);
        let seeds: Vec<u64> = (0..spec.cycle as u64)
            .map(|i| rand::split_seed(seed, i))
            .collect();
        let refs = seeds
            .iter()
            .map(|&s| {
                spec.families
                    .iter()
                    .map(|f| reference(&instance, &assignment, f.algorithm, f.b, s))
                    .collect()
            })
            .collect();
        Kernel {
            lower_bound: best_bound(&instance, spec.m),
            instance,
            assignment,
            spec,
            seeds,
            refs,
        }
    }
}

impl Workload for Kernel {
    type Receipt = Vec<BestOfTrials>;

    fn cycle_len(&self) -> usize {
        self.seeds.len()
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            scale: self.spec.scale,
            m: self.spec.m,
            blocks: false,
            width: 1,
            // The one family whose trials share a non-trivial context.
            ctx: self.spec.families[0].algorithm,
        }
    }

    fn composition(&self) -> Vec<(&'static str, f64)> {
        let mut per_task = Vec::new();
        for f in self.spec.families {
            f.composition(&mut per_task);
        }
        let tasks = self.instance.num_tasks() as f64;
        per_task.into_iter().map(|(m, n)| (m, n * tasks)).collect()
    }

    fn op(&self, _pass: usize, i: usize, tr: &mut Tracer) -> Vec<BestOfTrials> {
        self.spec
            .families
            .iter()
            .map(|f| {
                tr.leaf(f.span, || {
                    best_of_trials(
                        &self.instance,
                        &self.assignment,
                        f.algorithm,
                        f.b,
                        self.seeds[i],
                    )
                })
            })
            .collect()
    }

    fn check(&self, _pass: usize, i: usize, receipt: Vec<BestOfTrials>) -> OpOutcome {
        let mut out = OpOutcome {
            ok: receipt.len() == self.spec.families.len(),
            ..OpOutcome::default()
        };
        for (best, reference) in receipt.iter().zip(&self.refs[i]) {
            out.ok &= reference.matches(&best.schedule, best.trial);
            out.tasks += self.instance.num_tasks() as u64;
            out.schedules += 1;
            out.ratio_sum += f64::from(best.schedule.makespan()) / self.lower_bound as f64;
        }
        out
    }
}
