//! SW028: well-formedness of request-scoped trace trees.
//!
//! The serving layer attaches a span tree to every sampled request
//! (`sweep-telemetry`'s `TraceCtx`). Operational conclusions drawn from
//! those trees — `Server-Timing` stage attribution, slow-request
//! exemplars, coalescing chains — are only trustworthy if the trees are
//! structurally sound, so this analyzer certifies a corpus of traces:
//!
//! * every opened span was closed (`opened_spans == spans.len()`);
//! * span ids are unique and non-zero within a request;
//! * every non-root span's parent exists and **starts no later than**
//!   the child (parent precedes child);
//! * children end within their parent (interval containment, with a
//!   small tolerance for clock granularity);
//! * a request that coalesced onto a single-flight leader references a
//!   request id that actually appears in the corpus and is not itself.
//!
//! The analyzer is plain-data on purpose: the caller
//! (`sweep_serve::certify_trace_trees`) converts its trace type into
//! [`RequestTraceData`] so `sweep-analyze` keeps its dependency
//! footprint unchanged.

use crate::diag::{Anchor, Code, Diagnostic, Report};
use std::collections::{BTreeMap, BTreeSet};

/// One closed span of a request trace, in analyzer-neutral form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpanData {
    /// Span id, unique and non-zero within its request.
    pub id: u64,
    /// Parent span id (0 = root of the request).
    pub parent: u64,
    /// Span name (stage taxonomy).
    pub name: String,
    /// Start, microseconds since the request began.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// One request's frozen trace, in analyzer-neutral form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTraceData {
    /// The request's 64-bit id.
    pub request_id: u64,
    /// Single-flight leader this request coalesced onto, if any.
    pub coalesced_onto: Option<u64>,
    /// Spans ever opened on the request; a well-formed trace closes all
    /// of them.
    pub opened_spans: u64,
    /// The closed spans.
    pub spans: Vec<TraceSpanData>,
}

/// Tolerance (µs) for parent/child interval containment: span clocks
/// are read independently, so a child may appear to outlive its parent
/// by a few microseconds of measurement skew without the tree being
/// wrong.
const CONTAINMENT_SLACK_US: u64 = 200;

/// Certifies a corpus of request traces (SW028 errors; SW020 stats and
/// a clean bill of health when nothing is wrong).
pub fn analyze_trace_trees(traces: &[RequestTraceData]) -> Report {
    let mut report = Report::new("trace-trees");
    let all_ids: BTreeSet<u64> = traces.iter().map(|t| t.request_id).collect();
    let mut total_spans = 0usize;
    let mut coalesced = 0usize;

    for t in traces {
        let rid = t.request_id;
        total_spans += t.spans.len();

        if t.opened_spans != t.spans.len() as u64 {
            report.push(Diagnostic::new(
                Code::TraceTreeMalformed,
                Anchor::none(),
                format!(
                    "request {rid:016x}: {} span(s) opened but {} closed — \
                     a guard leaked past finish()",
                    t.opened_spans,
                    t.spans.len()
                ),
            ));
        }

        let mut by_id: BTreeMap<u64, &TraceSpanData> = BTreeMap::new();
        for s in &t.spans {
            if s.id == 0 {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!("request {rid:016x}: span '{}' has reserved id 0", s.name),
                ));
                continue;
            }
            if by_id.insert(s.id, s).is_some() {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!("request {rid:016x}: duplicate span id {}", s.id),
                ));
            }
        }

        for s in &t.spans {
            if s.parent == 0 {
                continue;
            }
            let Some(p) = by_id.get(&s.parent) else {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!(
                        "request {rid:016x}: span '{}' (id {}) has dangling parent {}",
                        s.name, s.id, s.parent
                    ),
                ));
                continue;
            };
            if p.start_us > s.start_us {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!(
                        "request {rid:016x}: parent '{}' starts at {}µs after child '{}' at {}µs",
                        p.name, p.start_us, s.name, s.start_us
                    ),
                ));
            }
            let p_end = p.start_us + p.dur_us + CONTAINMENT_SLACK_US;
            if s.start_us + s.dur_us > p_end {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!(
                        "request {rid:016x}: child '{}' ends at {}µs, beyond parent '{}' \
                         end {}µs (+{}µs slack)",
                        s.name,
                        s.start_us + s.dur_us,
                        p.name,
                        p.start_us + p.dur_us,
                        CONTAINMENT_SLACK_US
                    ),
                ));
            }
        }

        if let Some(leader) = t.coalesced_onto {
            coalesced += 1;
            if leader == rid {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!("request {rid:016x} claims to have coalesced onto itself"),
                ));
            } else if !all_ids.contains(&leader) {
                report.push(Diagnostic::new(
                    Code::TraceTreeMalformed,
                    Anchor::none(),
                    format!(
                        "request {rid:016x} coalesced onto {leader:016x}, which is not in \
                         the corpus"
                    ),
                ));
            }
        }
    }

    report.push(Diagnostic::new(
        Code::Stats,
        Anchor::none(),
        format!(
            "traces={} spans={} coalesced={}",
            traces.len(),
            total_spans,
            coalesced
        ),
    ));
    if !report.has_errors() {
        report.push(Diagnostic::new(
            Code::Certified,
            Anchor::none(),
            format!(
                "all {} trace tree(s) well-formed: every span closed, parents precede \
                 children, coalesce references resolve",
                traces.len()
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> TraceSpanData {
        TraceSpanData {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
        }
    }

    fn clean_trace(rid: u64) -> RequestTraceData {
        RequestTraceData {
            request_id: rid,
            coalesced_onto: None,
            opened_spans: 3,
            spans: vec![
                span(1, 0, "request", 0, 100),
                span(2, 1, "cache", 10, 60),
                span(3, 2, "schedule", 20, 40),
            ],
        }
    }

    #[test]
    fn clean_corpus_certifies() {
        let mut follower = clean_trace(22);
        follower.coalesced_onto = Some(11);
        let r = analyze_trace_trees(&[clean_trace(11), follower]);
        assert!(!r.has_errors(), "{}", r.render_text());
        assert!(r.has_code(Code::Certified));
        assert!(r.has_code(Code::Stats));
    }

    #[test]
    fn unclosed_span_is_flagged() {
        let mut t = clean_trace(1);
        t.opened_spans = 4; // one guard never dropped
        let r = analyze_trace_trees(&[t]);
        assert!(r.has_code(Code::TraceTreeMalformed));
        assert!(r.render_text().contains("opened but 3 closed"));
    }

    #[test]
    fn dangling_parent_and_duplicate_ids_are_flagged() {
        let t = RequestTraceData {
            request_id: 5,
            coalesced_onto: None,
            opened_spans: 3,
            spans: vec![
                span(1, 0, "request", 0, 100),
                span(1, 0, "dup", 0, 50),
                span(2, 9, "orphan", 5, 10),
            ],
        };
        let r = analyze_trace_trees(&[t]);
        assert_eq!(r.count_code(Code::TraceTreeMalformed), 2);
        let text = r.render_text();
        assert!(text.contains("duplicate span id 1"));
        assert!(text.contains("dangling parent 9"));
    }

    #[test]
    fn parent_must_precede_child() {
        let t = RequestTraceData {
            request_id: 6,
            coalesced_onto: None,
            opened_spans: 2,
            spans: vec![span(1, 0, "request", 50, 100), span(2, 1, "early", 10, 5)],
        };
        let r = analyze_trace_trees(&[t]);
        assert!(r.has_code(Code::TraceTreeMalformed));
        assert!(r.render_text().contains("after child"));
    }

    #[test]
    fn child_escaping_parent_interval_is_flagged() {
        let t = RequestTraceData {
            request_id: 7,
            coalesced_onto: None,
            opened_spans: 2,
            spans: vec![
                span(1, 0, "request", 0, 100),
                span(2, 1, "runaway", 50, 100_000),
            ],
        };
        let r = analyze_trace_trees(&[t]);
        assert!(r.has_code(Code::TraceTreeMalformed));
        assert!(r.render_text().contains("beyond parent"));
    }

    #[test]
    fn coalesce_must_reference_a_real_other_leader() {
        let mut self_ref = clean_trace(8);
        self_ref.coalesced_onto = Some(8);
        let mut ghost = clean_trace(9);
        ghost.coalesced_onto = Some(0xdead);
        let r = analyze_trace_trees(&[self_ref, ghost]);
        assert_eq!(r.count_code(Code::TraceTreeMalformed), 2);
        let text = r.render_text();
        assert!(text.contains("onto itself"));
        assert!(text.contains("not in"));
    }

    #[test]
    fn empty_corpus_certifies_vacuously() {
        let r = analyze_trace_trees(&[]);
        assert!(!r.has_errors());
        assert!(r.has_code(Code::Certified));
    }
}
