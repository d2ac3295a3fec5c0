//! Parallel-execution determinism certification (SW023 / SW021).
//!
//! The parallel execution layer (`sweep-pool` + the seed-splitting in
//! `sweep_core::trials`) promises that worker count never changes a
//! result. This analyzer *checks* that promise on the user's actual
//! instance instead of assuming it, by running one best-of-`b`
//! certification three times:
//!
//! 1. once on the forced sequential path (`ThreadPool::new(1)`);
//! 2. twice through the multi-worker pool (distinct interleavings).
//!
//! The three runs are then diffed bit-for-bit — winning trial, child
//! seeds, every per-trial makespan, and every task start time of the
//! winning schedule. Any divergence (a data race, an order-dependent
//! reduction, a seed derived from execution order) is reported as SW023
//! at error severity. So is an incomplete trial record: the scoped pool
//! joins every worker before returning, so a short record means queued
//! tasks were dropped at shutdown — the other failure mode SW023 covers.
//! A clean diff pushes the SW021 certification.

use sweep_core::{best_of_trials_with_pool, Algorithm, Assignment, BestOfTrials};
use sweep_dag::SweepInstance;
use sweep_pool::ThreadPool;

use crate::diag::{Anchor, Code, Diagnostic, Report};
use crate::identity::{diff_winners, Winner};

/// How many independent trials the certification schedules.
pub const CERT_TRIALS: usize = 8;

/// Re-runs a best-of-[`CERT_TRIALS`] certification of Algorithm 2
/// (random delays as priorities) sequentially and twice through a
/// `threads`-wide pool, and diffs all three results. `master_seed`
/// drives both the assignment draw and the per-trial seed splitting, so
/// the whole check is itself reproducible.
pub fn analyze_parallel_determinism(
    instance: &SweepInstance,
    m: usize,
    threads: usize,
    master_seed: u64,
) -> Report {
    let mut report = Report::new(format!(
        "parallel determinism for '{}' (m = {m}, {threads} threads)",
        instance.name()
    ));
    let n = instance.num_cells();
    if n == 0 {
        report.push(Diagnostic::new(
            Code::Stats,
            Anchor::none(),
            "empty instance: nothing to schedule, determinism holds vacuously",
        ));
        return report;
    }
    let assignment = Assignment::random_cells(n, m.max(1), master_seed);
    let alg = Algorithm::RandomDelayPriorities;

    let run = |pool: &ThreadPool| -> BestOfTrials {
        best_of_trials_with_pool(pool, instance, &assignment, alg, CERT_TRIALS, master_seed)
    };
    let seq = run(&ThreadPool::new(1));
    let pool = ThreadPool::new(threads.max(2));
    let par_a = run(&pool);
    let par_b = run(&pool);

    let mut clean = true;
    for (label, r) in [
        ("sequential", &seq),
        ("parallel #1", &par_a),
        ("parallel #2", &par_b),
    ] {
        if r.outcomes.len() != CERT_TRIALS {
            clean = false;
            report.push(Diagnostic::new(
                Code::PoolNondeterminism,
                Anchor::none(),
                format!(
                    "{label} run completed {} of {CERT_TRIALS} queued trials — the pool \
                     dropped tasks at shutdown",
                    r.outcomes.len()
                ),
            ));
        }
    }
    clean &= diff(&mut report, "parallel #1", &par_a, "parallel #2", &par_b);
    clean &= diff(
        &mut report,
        "parallel #1",
        &par_a,
        "sequential reference",
        &seq,
    );

    if clean {
        report.push(Diagnostic::new(
            Code::Certified,
            Anchor::none(),
            format!(
                "parallel execution certified: {CERT_TRIALS} trials on {} workers \
                 bit-identical across re-runs and vs the sequential reference \
                 (winner trial {}, makespan {})",
                pool.threads(),
                seq.trial,
                seq.schedule.makespan()
            ),
        ));
    }
    report
}

/// Diffs two runs; pushes SW023 diagnostics and returns whether they
/// matched.
fn diff(report: &mut Report, la: &str, a: &BestOfTrials, lb: &str, b: &BestOfTrials) -> bool {
    let mut same = diff_winners(
        report,
        Code::PoolNondeterminism,
        &Winner::new(la, a.trial, a.seed, &a.schedule),
        &Winner::new(lb, b.trial, b.seed, &b.schedule),
    );
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        if oa != ob {
            same = false;
            report.push(Diagnostic::new(
                Code::PoolNondeterminism,
                Anchor::none(),
                format!(
                    "trial {} diverges: {la} got makespan {} (seed {:#x}), {lb} got {} (seed {:#x})",
                    oa.trial, oa.makespan, oa.seed, ob.makespan, ob.seed
                ),
            ));
            break; // one witness per pair keeps the report readable
        }
    }
    same
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_instance_certifies() {
        let inst = SweepInstance::random_layered(50, 3, 5, 2, 7);
        let r = analyze_parallel_determinism(&inst, 4, 4, 2005);
        assert!(!r.has_errors(), "{}", r.render_text());
        assert!(r.has_code(Code::Certified));
        assert!(!r.has_code(Code::PoolNondeterminism));
    }

    #[test]
    fn empty_instance_is_vacuous() {
        use sweep_dag::TaskDag;
        let inst = SweepInstance::new(0, vec![TaskDag::edgeless(0)], "empty");
        let r = analyze_parallel_determinism(&inst, 4, 4, 1);
        assert!(!r.has_errors());
        assert!(r.has_code(Code::Stats));
    }

    #[test]
    fn divergent_runs_are_reported() {
        // Exercise the diff engine directly with two doctored results —
        // the pool itself (correctly) never produces divergence.
        let inst = SweepInstance::random_layered(30, 2, 4, 2, 3);
        let a = Assignment::random_cells(30, 3, 1);
        let good =
            best_of_trials_with_pool(&ThreadPool::new(1), &inst, &a, Algorithm::Greedy, 4, 9);
        let mut bad = good.clone();
        bad.trial = 2;
        bad.seed ^= 1;
        bad.outcomes[1].makespan += 5;
        let mut report = Report::new("doctored");
        assert!(!diff(&mut report, "a", &good, "b", &bad));
        assert!(report.has_code(Code::PoolNondeterminism));
        assert!(report.has_errors());
    }

    #[test]
    fn sw023_registry_entry_is_stable() {
        assert_eq!(Code::PoolNondeterminism.as_str(), "SW023");
        assert_eq!(
            Code::PoolNondeterminism.severity(),
            crate::diag::Severity::Error
        );
    }
}
