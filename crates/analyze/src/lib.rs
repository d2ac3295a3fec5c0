//! # sweep-analyze
//!
//! Static analysis for sweep-scheduling artifacts: instances,
//! assignments, schedules, and asynchronous execution traces.
//!
//! Every analyzer returns a [`Report`] of [`Diagnostic`]s carrying a
//! stable `SW0xx` [`Code`], a [`Severity`], and an [`Anchor`] into the
//! model (cell / direction / timestep / processor). Reports render as
//! human-readable text, JSON, or SARIF 2.1.0 — the latter uploads
//! directly to CI code-scanning. The full code registry lives in
//! [`diag`].
//!
//! The analyzers:
//!
//! * [`analyze_instance`] — Tarjan-SCC cycle detection with a shortest
//!   witness cycle (SW001), unreachable cells (SW012), degenerate
//!   directions (SW013), width/critical-path statistics (SW020);
//! * [`analyze_quadrature`] — degenerate ordinate normals (SW013);
//! * [`analyze_assignment`] — empty processors (SW010), load imbalance
//!   (SW011), the pre-scheduling C1 communication bound (SW015);
//! * [`analyze_schedule`] / [`analyze_raw_schedule`] — collect-**all**
//!   feasibility (SW002–SW006, where [`sweep_core::validate`] stops at
//!   the first violation) and certification against the paper's bounds
//!   (SW007, SW014, SW021);
//! * [`analyze_async`] — a vector-clock happens-before race detector
//!   over the distributed execution trace (SW016);
//! * [`analyze_parallel_determinism`] — re-runs a best-of-`b`
//!   certification sequentially and twice through the worker pool and
//!   diffs the results bit-for-bit (SW023).
//!
//! ```
//! use sweep_analyze::{analyze_instance, Code};
//! use sweep_dag::from_text_unchecked;
//!
//! // A cyclic "instance" no scheduler will accept — the analyzer
//! // pinpoints the cycle instead of panicking.
//! let text = "sweep-instance v1\nname demo\ncells 3\ndirections 1\n\
//!             dag 0 edges 3\n0 1\n1 2\n2 0\nend\n";
//! let inst = from_text_unchecked(text).unwrap();
//! let report = analyze_instance(&inst);
//! assert!(report.has_errors());
//! assert!(report.has_code(Code::CyclicDependency));
//! assert_eq!(report.diagnostics()[0].trail, vec![0, 1, 2, 0]);
//! ```

// Tests exercise failure paths where unwrap is the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod concurrency;
pub mod diag;
pub mod import;

mod assignment;
mod happens_before;
mod identity;
mod instance;
mod parallel;
mod schedule;
mod trace_integrity;
mod tracetree;

pub use assignment::{analyze_assignment, analyze_assignment_with};
pub use concurrency::{
    analyze_model_checks, ConcurrencyFinding, ConcurrencyFindingKind, ModelCheckRun,
};
pub use diag::{json_string, Anchor, Code, Diagnostic, Report, Severity};
pub use happens_before::{analyze_async, analyze_trace};
pub use identity::{
    analyze_cache_identity, analyze_cluster_identity, CacheIdentityMeta, ClusterIdentityMeta,
};
pub use import::analyze_import;
pub use instance::{analyze_instance, analyze_quadrature};
pub use parallel::{analyze_parallel_determinism, CERT_TRIALS};
pub use schedule::{
    analyze_raw_schedule, analyze_raw_schedule_with, analyze_schedule, analyze_schedule_with,
    RawSchedule,
};
pub use trace_integrity::analyze_trace_integrity;
pub use tracetree::{analyze_trace_trees, RequestTraceData, TraceSpanData};

/// Tunable thresholds for the warning-level checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzeOptions {
    /// SW011 fires when `max_load > imbalance_factor × (n/m)`.
    pub imbalance_factor: f64,
    /// SW015 fires when cross-processor edges exceed this fraction of
    /// all edges.
    pub comm_fraction: f64,
    /// SW014 fires when the makespan exceeds
    /// `envelope_factor · log2(nk) · LB` — a generous cover of the
    /// paper's `O(log nk / log log nk)`-factor guarantee.
    pub envelope_factor: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            imbalance_factor: 2.0,
            comm_fraction: 0.9,
            envelope_factor: 2.0,
        }
    }
}

/// Runs every applicable analyzer for an instance plus an optional
/// assignment and schedule, merged into one report.
pub fn analyze_all(
    instance: &sweep_dag::SweepInstance,
    assignment: Option<&sweep_core::Assignment>,
    schedule: Option<&sweep_core::Schedule>,
    opts: &AnalyzeOptions,
) -> Report {
    let mut report = analyze_instance(instance);
    let cyclic = report.has_code(Code::CyclicDependency);
    if let Some(a) = assignment {
        report.merge(analyze_assignment_with(instance, a, opts));
    }
    // Schedules over cyclic instances are meaningless; the cycle error
    // already blocks the pipeline.
    if let Some(s) = schedule {
        if !cyclic {
            report.merge(analyze_schedule_with(instance, s, opts));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{greedy_schedule, Assignment};
    use sweep_dag::SweepInstance;

    #[test]
    fn analyze_all_merges_sections() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 2);
        let a = Assignment::random_cells(40, 4, 1);
        let s = greedy_schedule(&inst, a.clone());
        let r = analyze_all(&inst, Some(&a), Some(&s), &AnalyzeOptions::default());
        assert!(!r.has_errors(), "{}", r.render_text());
        assert!(r.has_code(Code::Certified));
        assert!(r.count_code(Code::Stats) >= 1);
    }

    #[test]
    fn analyze_all_skips_schedule_on_cyclic_instance() {
        use sweep_dag::TaskDag;
        let inst =
            SweepInstance::new_unchecked(2, vec![TaskDag::from_edges(2, &[(0, 1), (1, 0)])], "cyc");
        let a = Assignment::single(2);
        // Build the schedule against a *different* acyclic view; the
        // point is only that analyze_all refuses to certify it.
        let ok = SweepInstance::new(2, vec![TaskDag::from_edges(2, &[(0, 1)])], "ok");
        let s = greedy_schedule(&ok, a.clone());
        let r = analyze_all(&inst, Some(&a), Some(&s), &AnalyzeOptions::default());
        assert!(r.has_code(Code::CyclicDependency));
        assert!(!r.has_code(Code::Certified));
    }
}
