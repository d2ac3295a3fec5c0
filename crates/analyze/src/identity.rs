//! Schedule-against-schedule identity: the one diff behind SW023, SW024
//! and SW029, and the cache- and cluster-identity certifications
//! (SW024 / SW029 / SW021).
//!
//! The serving layer (`sweep-serve`) promises that a schedule answered
//! from its content-addressed cache, or through the cluster — forwarded
//! to its home shard, served from a peer's cache, or computed locally
//! in degraded mode after a peer failure — is **bit-identical** to what
//! a single-node cold computation of the same request would produce.
//! Caching, sharding and failover must be optimizations, never
//! approximations.
//!
//! Both analyzers check that promise on a concrete pair: the served
//! artifact and an independently recomputed one. The diff is
//! exhaustive: every task start time, every cell's processor, the
//! makespan, and the winning-trial metadata. Any divergence (a stale
//! entry surviving a content change, digest aliasing, a corrupted
//! forwarded artifact, an execution-order-dependent winner) is reported
//! under the analyzer's own code at error severity; a clean diff —
//! after re-validating the served schedule's feasibility against the
//! instance — pushes the SW021 certification.

use sweep_core::{validate, Schedule};
use sweep_dag::SweepInstance;

use crate::diag::{Anchor, Code, Diagnostic, Report};

/// One side of a diff: a best-of-`b` winner under the label the
/// diagnostics name it by.
pub(crate) struct Winner<'a> {
    label: &'a str,
    trial: usize,
    seed: u64,
    schedule: &'a Schedule,
}

impl<'a> Winner<'a> {
    pub(crate) fn new(label: &'a str, trial: usize, seed: u64, schedule: &'a Schedule) -> Self {
        Winner {
            label,
            trial,
            seed,
            schedule,
        }
    }
}

/// Diffs two winners — trial index, child seed and every start time —
/// pushing one `code` diagnostic per divergence; returns whether they
/// matched.
pub(crate) fn diff_winners(report: &mut Report, code: Code, a: &Winner, b: &Winner) -> bool {
    let mut same = true;
    if a.trial != b.trial || a.seed != b.seed {
        same = false;
        report.push(Diagnostic::new(
            code,
            Anchor::none(),
            format!(
                "winner differs: {} picked trial {} (seed {:#x}), {} trial {} (seed {:#x})",
                a.label, a.trial, a.seed, b.label, b.trial, b.seed
            ),
        ));
    }
    if a.schedule.starts() != b.schedule.starts() {
        let witness = a
            .schedule
            .starts()
            .iter()
            .zip(b.schedule.starts())
            .position(|(x, y)| x != y);
        same = false;
        report.push(Diagnostic::new(
            code,
            Anchor::none(),
            format!(
                "winning schedules differ between {} and {}{}",
                a.label,
                b.label,
                witness.map_or(String::new(), |t| format!(
                    " (first divergent task index {t})"
                ))
            ),
        ));
    }
    same
}

/// Trial metadata accompanying the two schedules under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheIdentityMeta {
    /// The tier-2 content digest the cached artifact was addressed by.
    pub digest: u64,
    /// Winning trial index recorded in the cache.
    pub cached_trial: usize,
    /// Winning trial index of the cold recomputation.
    pub cold_trial: usize,
    /// Winning trial's child seed recorded in the cache.
    pub cached_seed: u64,
    /// Winning trial's child seed of the cold recomputation.
    pub cold_seed: u64,
}

/// Provenance and trial metadata accompanying the two schedules under
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterIdentityMeta {
    /// The tier-2 content digest that routed the request on the ring.
    pub digest: u64,
    /// How the cluster answered: `"forward"`, `"fallback"`, `"cached"`,
    /// or `"local"`.
    pub path: String,
    /// Winning trial index of the cluster-served artifact.
    pub served_trial: usize,
    /// Winning trial index of the cold recomputation.
    pub cold_trial: usize,
    /// Winning trial's child seed of the cluster-served artifact.
    pub served_seed: u64,
    /// Winning trial's child seed of the cold recomputation.
    pub cold_seed: u64,
}

/// Diffs a cache-served schedule against a cold recomputation of the
/// same content-addressed request (SW024). See the module docs.
pub fn analyze_cache_identity(
    instance: &SweepInstance,
    cached: &Schedule,
    cold: &Schedule,
    meta: CacheIdentityMeta,
) -> Report {
    analyze_identity(
        instance,
        Code::CacheDivergence,
        "cache",
        format!("digest {:016x}", meta.digest),
        Winner::new("cached", meta.cached_trial, meta.cached_seed, cached),
        Winner::new("cold run", meta.cold_trial, meta.cold_seed, cold),
    )
}

/// Diffs a cluster-served schedule against a single-node cold
/// recomputation of the same content-addressed request (SW029), naming
/// the serving path that was exercised. See the module docs.
pub fn analyze_cluster_identity(
    instance: &SweepInstance,
    served: &Schedule,
    cold: &Schedule,
    meta: ClusterIdentityMeta,
) -> Report {
    analyze_identity(
        instance,
        Code::ClusterDivergence,
        "cluster",
        format!("digest {:016x} via path '{}'", meta.digest, meta.path),
        Winner::new(
            &format!("cluster path '{}'", meta.path),
            meta.served_trial,
            meta.served_seed,
            served,
        ),
        Winner::new("cold run", meta.cold_trial, meta.cold_seed, cold),
    )
}

/// The served-against-cold diff both entry points feed: `what` names
/// the layer under test, `origin` the digest (and path) that served.
fn analyze_identity(
    instance: &SweepInstance,
    code: Code,
    what: &str,
    origin: String,
    served: Winner,
    cold: Winner,
) -> Report {
    let mut report = Report::new(format!(
        "{what} identity for '{}' ({origin})",
        instance.name()
    ));
    let mut clean = diff_winners(&mut report, code, &served, &cold);
    let (a, b) = (served.schedule, cold.schedule);
    let mut diverged = |anchor: Anchor, message: String| {
        clean = false;
        report.push(Diagnostic::new(code, anchor, message));
    };
    if a.makespan() != b.makespan() {
        diverged(
            Anchor::none(),
            format!(
                "makespan differs: {} {} vs {} {}",
                served.label,
                a.makespan(),
                cold.label,
                b.makespan()
            ),
        );
    }
    let n = instance.num_cells() as u32;
    if let Some(cell) = (0..n).find(|&v| a.proc_of_cell(v) != b.proc_of_cell(v)) {
        diverged(
            Anchor::cell(cell),
            format!(
                "assignment differs: {} puts cell {cell} on processor {}, {} on {}",
                served.label,
                a.proc_of_cell(cell),
                cold.label,
                b.proc_of_cell(cell)
            ),
        );
    }
    if let Err(e) = validate(instance, a) {
        diverged(
            Anchor::none(),
            format!(
                "{} schedule is not even feasible for the instance: {e}",
                served.label
            ),
        );
    }
    if clean {
        report.push(Diagnostic::new(
            Code::Certified,
            Anchor::none(),
            format!(
                "{what} identity certified: {origin} serves a schedule bit-identical to a \
                 cold recomputation (makespan {}, winning trial {})",
                a.makespan(),
                served.trial
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{Algorithm, Assignment};

    /// Runs one of the two entry points on `(served, cold)` with the
    /// cold side's winning trial as given.
    type Entry = fn(&SweepInstance, &Schedule, &Schedule, usize) -> Report;

    fn cache(
        inst: &SweepInstance,
        served: &Schedule,
        cold: &Schedule,
        cold_trial: usize,
    ) -> Report {
        let meta = CacheIdentityMeta {
            digest: 0xfeed,
            cached_trial: 1,
            cold_trial,
            cached_seed: 0xabc,
            cold_seed: 0xabc,
        };
        analyze_cache_identity(inst, served, cold, meta)
    }

    fn cluster(
        inst: &SweepInstance,
        served: &Schedule,
        cold: &Schedule,
        cold_trial: usize,
    ) -> Report {
        let meta = ClusterIdentityMeta {
            digest: 0xfeed,
            path: "forward".to_string(),
            served_trial: 1,
            cold_trial,
            served_seed: 0xabc,
            cold_seed: 0xabc,
        };
        analyze_cluster_identity(inst, served, cold, meta)
    }

    #[test]
    fn identity_certifies_equal_pairs_and_fires_its_own_code_on_divergence() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 8);
        let run = |seed| {
            let a = Assignment::random_cells(40, 4, 2);
            Algorithm::RandomDelayPriorities.run(&inst, a, seed)
        };
        let (s, other) = (run(77), run(78));
        let table: [(Entry, Code, &str, &str); 2] = [
            (
                cache,
                Code::CacheDivergence,
                "SW024",
                "digest 000000000000feed",
            ),
            (cluster, Code::ClusterDivergence, "SW029", "path 'forward'"),
        ];
        for (entry, code, registry, names) in table {
            assert_eq!(code.as_str(), registry);
            assert_eq!(code.severity(), crate::diag::Severity::Error);

            let r = entry(&inst, &s, &s.clone(), 1);
            assert!(!r.has_errors(), "{}", r.render_text());
            assert!(r.has_code(Code::Certified) && !r.has_code(code));
            assert!(r.render_text().contains(names), "{}", r.render_text());

            // Different start times and a different winning trial.
            let r = entry(&inst, &s, &other, 2);
            assert!(r.has_errors());
            assert!(r.has_code(code) && !r.has_code(Code::Certified));
        }
    }
}
