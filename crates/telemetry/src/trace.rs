//! Request-scoped tracing: cheap per-request span trees that ride
//! *alongside* the global [`Collector`](crate::Collector) without
//! touching its hot path.
//!
//! A [`TraceCtx`] is created once per request (by the serving layer)
//! from a monotone **connection counter**, so request ids are
//! deterministic across runs — tests can predict the id of the N-th
//! connection. The context is then threaded through the request's
//! compute path; every stage opens a [`TraceSpanGuard`] that records a
//! closed [`TraceSpan`] into the request's private tree on drop. When
//! the response is written, [`TraceCtx::finish`] freezes the tree into
//! a [`RequestTrace`] — the unit the access log, the `Server-Timing`
//! header, the slow-request exemplar buffer, and the SW028
//! well-formedness analyzer all consume.
//!
//! Cost model: an **untraced** context ([`TraceCtx::untraced`]) carries
//! only the request id — every `span()`/`note()` call on it is a branch
//! on an `Option` and returns immediately, so head-based sampling keeps
//! the disabled path allocation-free, mirroring the global collector's
//! disabled-fast-path guarantee. A traced context allocates one `Arc`
//! per request and one `Vec` slot per span.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;

/// The stage names the serving layer reports in `Server-Timing`
/// headers and access-log lines, in pipeline order. Other span names
/// are legal (they show up in the Chrome export and the SW028 check);
/// these five are the ones with an operational meaning.
pub const STAGES: [&str; 5] = ["parse", "cache", "induce", "schedule", "serialize"];

/// SplitMix64 finalizer — the same mixer `sweep-rng` uses for seed
/// splitting, inlined here so the telemetry crate stays dependency-free.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the 64-bit request id for the `counter`-th connection.
/// Deterministic (tests can predict ids) but well-mixed, so ids from
/// one server don't collide trivially with another's. Never zero —
/// zero is the "no request" sentinel in coalescing records.
pub fn request_id_from_counter(counter: u64) -> u64 {
    splitmix64(counter).max(1)
}

/// One closed span in a request's tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span id, unique within the request (allocated from 1 upward;
    /// the root span a server opens is almost always id 1).
    pub id: u64,
    /// Parent span id; 0 means "root of this request".
    pub parent: u64,
    /// Span name. Stage spans use the bare stage name (`cache`) or a
    /// dotted refinement (`cache.wait`); the first dot-segment is the
    /// stage the time is attributed to.
    pub name: Cow<'static, str>,
    /// Start, microseconds since the request began.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Shared per-request state behind a [`TraceCtx`].
struct TraceInner {
    request_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    opened: AtomicU64,
    /// Request id of the single-flight leader this request coalesced
    /// onto (0 = none).
    coalesced_onto: AtomicU64,
    spans: Mutex<Vec<TraceSpan>>,
    notes: Mutex<Vec<(String, String)>>,
}

/// A request-scoped tracing context: a request id plus (when tracing is
/// sampled in) a shared span tree. Clone-cheap; clones share the tree.
#[derive(Clone)]
pub struct TraceCtx {
    request_id: u64,
    parent: u64,
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("request_id", &self.request_id)
            .field("parent", &self.parent)
            .field("traced", &self.inner.is_some())
            .finish()
    }
}

impl TraceCtx {
    /// A traced root context for `request_id` (epoch = now).
    pub fn root(request_id: u64) -> TraceCtx {
        TraceCtx {
            request_id,
            parent: 0,
            inner: Some(Arc::new(TraceInner {
                request_id,
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                opened: AtomicU64::new(0),
                coalesced_onto: AtomicU64::new(0),
                // A request opens five to eight spans; one allocation.
                spans: Mutex::new(Vec::with_capacity(8)),
                notes: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A context that keeps the request id (for headers/logs) but
    /// records nothing — the sampled-out / tracing-disabled path.
    pub fn untraced(request_id: u64) -> TraceCtx {
        TraceCtx {
            request_id,
            parent: 0,
            inner: None,
        }
    }

    /// A fully inert context (id 0, no recording) for callers outside
    /// any request — e.g. direct library use of the service.
    pub fn disabled() -> TraceCtx {
        TraceCtx::untraced(0)
    }

    /// Whether spans recorded on this context are kept.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.inner.is_some()
    }

    /// The 64-bit request id (0 for [`TraceCtx::disabled`]).
    #[inline]
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The request id as the 16-hex-digit wire form used by
    /// `X-Sweep-Request-Id`.
    pub fn request_id_hex(&self) -> String {
        format!("{:016x}", self.request_id)
    }

    /// Opens a child span; it records into the request tree when the
    /// returned guard drops. On an untraced context this is a no-op
    /// guard (no allocation, no clock read).
    #[inline]
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> TraceSpanGuard {
        let Some(inner) = &self.inner else {
            return TraceSpanGuard {
                ctx: TraceCtx::untraced(self.request_id),
                name: Cow::Borrowed(""),
                start_us: 0,
                id: 0,
                parent: 0,
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.opened.fetch_add(1, Ordering::Relaxed);
        TraceSpanGuard {
            ctx: TraceCtx {
                request_id: self.request_id,
                parent: id,
                inner: Some(Arc::clone(inner)),
            },
            name: name.into(),
            start_us: inner.epoch.elapsed().as_micros() as u64,
            id,
            parent: self.parent,
        }
    }

    /// Records that this request coalesced onto `leader`'s single-flight
    /// computation instead of running its own.
    pub fn set_coalesced_onto(&self, leader: u64) {
        if let Some(inner) = &self.inner {
            inner.coalesced_onto.store(leader, Ordering::Relaxed);
        }
    }

    /// Attaches a key/value annotation to the request (cache
    /// disposition, pool task attribution, …); surfaced in the access
    /// log and the Chrome export.
    pub fn note(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(inner) = &self.inner {
            let mut notes = inner.notes.lock().unwrap_or_else(|p| p.into_inner());
            notes.push((key.to_string(), value.to_string()));
        }
    }

    /// Moves the tree out into a [`RequestTrace`] (the context keeps an
    /// empty one, so call this once, when the request is done). Returns
    /// `None` on an untraced context. Call after every guard has
    /// dropped; spans still open at this point are reported (not
    /// silently lost) through [`RequestTrace::opened`] ≠ `spans.len()`,
    /// which SW028 flags.
    pub fn finish(&self) -> Option<RequestTrace> {
        let inner = self.inner.as_ref()?;
        let spans = std::mem::take(&mut *inner.spans.lock().unwrap_or_else(|p| p.into_inner()));
        let notes = std::mem::take(&mut *inner.notes.lock().unwrap_or_else(|p| p.into_inner()));
        let total_us = spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0);
        Some(RequestTrace {
            request_id: inner.request_id,
            coalesced_onto: match inner.coalesced_onto.load(Ordering::Relaxed) {
                0 => None,
                l => Some(l),
            },
            opened: inner.opened.load(Ordering::Relaxed),
            total_us,
            spans,
            notes,
        })
    }
}

/// RAII guard for one request-tree span; records on drop. Obtain a
/// context parented at this span with [`TraceSpanGuard::ctx`] to nest
/// further spans under it.
pub struct TraceSpanGuard {
    ctx: TraceCtx,
    name: Cow<'static, str>,
    start_us: u64,
    id: u64,
    parent: u64,
}

impl TraceSpanGuard {
    /// A context whose spans become children of this span.
    pub fn ctx(&self) -> &TraceCtx {
        &self.ctx
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.ctx.inner else {
            return;
        };
        let end = inner.epoch.elapsed().as_micros() as u64;
        let span = TraceSpan {
            id: self.id,
            parent: self.parent,
            name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
            start_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
        };
        inner
            .spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(span);
    }
}

/// A frozen request trace: the span tree plus coalescing/annotation
/// metadata, ready for the access log, `Server-Timing`, the exemplar
/// buffer, and SW028.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The request's 64-bit id.
    pub request_id: u64,
    /// Single-flight leader this request coalesced onto, if any.
    pub coalesced_onto: Option<u64>,
    /// Number of spans ever opened; equals `spans.len()` iff every span
    /// closed before [`TraceCtx::finish`].
    pub opened: u64,
    /// End of the latest span, microseconds since the request began.
    pub total_us: u64,
    /// All closed spans, in close order (children before parents).
    pub spans: Vec<TraceSpan>,
    /// Key/value annotations recorded via [`TraceCtx::note`].
    pub notes: Vec<(String, String)>,
}

impl RequestTrace {
    /// The value of the first note with `key`, if any.
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A span's **self time**: its duration minus its direct children's
    /// durations.
    fn self_us(&self, s: &TraceSpan) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == s.id)
            .map(|c| c.dur_us)
            .sum();
        s.dur_us.saturating_sub(children.min(s.dur_us))
    }

    /// Microseconds attributed to `stage`: the **self time** (duration
    /// minus direct children's durations) summed over every span whose
    /// name is `stage` or starts with `stage.`. Self-time attribution
    /// means nested stages never double-count — the `induce` span
    /// inside a `cache` span bills its time to `induce`, not both — so
    /// the per-stage values sum to at most the request total.
    pub fn stage_us(&self, stage: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name.split('.').next() == Some(stage))
            .map(|s| self.self_us(s))
            .sum()
    }

    /// [`RequestTrace::stage_us`] of all five [`STAGES`], in their
    /// order, from one walk of the tree — what a consumer that reports
    /// every stage (the header, the stage histograms, the access log)
    /// should call once per request.
    pub fn stages_us(&self) -> [u64; STAGES.len()] {
        let mut out = [0u64; STAGES.len()];
        for s in &self.spans {
            let seg = s.name.split('.').next();
            if let Some(i) = STAGES.iter().position(|stage| Some(*stage) == seg) {
                out[i] += self.self_us(s);
            }
        }
        out
    }

    /// The `Server-Timing` header value of this request's
    /// [`RequestTrace::stages_us`].
    pub fn server_timing(&self) -> String {
        server_timing_value(self.stages_us())
    }
}

/// A `Server-Timing` header value: every standard stage (all five of
/// [`STAGES`], zero-valued stages included so clients can rely on their
/// presence), durations in milliseconds per the spec. An untraced
/// request reports `[0; 5]`.
pub fn server_timing_value(stages_us: [u64; STAGES.len()]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96);
    for (i, (stage, us)) in STAGES.iter().zip(stages_us).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{stage};dur={:.3}", us as f64 / 1e3);
    }
    out
}

/// Renders a set of request traces as Chrome `trace_event` JSON —
/// the `GET /debug/trace` body. Each request gets its own thread lane
/// (`tid` = an index, labelled with the request id); spans nest by
/// ts/dur as usual. Validates against
/// [`validate_chrome_trace`](crate::validate_chrome_trace).
pub fn traces_to_chrome(traces: &[RequestTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\
         \"args\":{\"name\":\"slow requests\"}}"
            .to_string(),
        &mut out,
    );
    for (lane, t) in traces.iter().enumerate() {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":{lane},\
                 \"args\":{{\"name\":\"request {:016x}\"}}}}",
                t.request_id
            ),
            &mut out,
        );
        for s in &t.spans {
            let mut args = format!("\"span_id\":{},\"parent\":{}", s.id, s.parent);
            if s.parent == 0 {
                // Root spans carry the request-level metadata.
                args.push_str(&format!(",\"request_id\":\"{:016x}\"", t.request_id));
                if let Some(leader) = t.coalesced_onto {
                    args.push_str(&format!(",\"coalesced_onto\":\"{leader:016x}\""));
                }
                for (k, v) in &t.notes {
                    args.push_str(&format!(",\"{}\":\"{}\"", json::escape(k), json::escape(v)));
                }
            }
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":3,\
                     \"tid\":{lane},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    json::escape(&s.name),
                    json::escape(s.name.split('.').next().unwrap_or("")),
                    s.start_us,
                    s.dur_us,
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_deterministic_and_nonzero() {
        assert_eq!(request_id_from_counter(1), request_id_from_counter(1));
        assert_ne!(request_id_from_counter(1), request_id_from_counter(2));
        for c in 0..1000 {
            assert_ne!(request_id_from_counter(c), 0);
        }
    }

    #[test]
    fn untraced_ctx_records_nothing_but_keeps_the_id() {
        let ctx = TraceCtx::untraced(77);
        assert_eq!(ctx.request_id(), 77);
        assert!(!ctx.is_traced());
        {
            let g = ctx.span("parse");
            let _inner = g.ctx().span("parse.header");
            ctx.note("k", "v");
            ctx.set_coalesced_onto(5);
        }
        assert!(ctx.finish().is_none());
    }

    #[test]
    fn spans_nest_and_finish_builds_the_tree() {
        let ctx = TraceCtx::root(42);
        {
            let root = ctx.span("request");
            {
                let cache = root.ctx().span("cache");
                let _induce = cache.ctx().span("induce");
            }
            let _ser = root.ctx().span("serialize");
        }
        ctx.note("cache", "miss");
        let t = ctx.finish().unwrap();
        assert_eq!(t.request_id, 42);
        assert_eq!(t.opened, 4);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.note("cache"), Some("miss"));
        // Children close before parents; the root closes last.
        let root = t.spans.iter().find(|s| s.name == "request").unwrap();
        let cache = t.spans.iter().find(|s| s.name == "cache").unwrap();
        let induce = t.spans.iter().find(|s| s.name == "induce").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(cache.parent, root.id);
        assert_eq!(induce.parent, cache.id);
        assert!(cache.start_us >= root.start_us);
        // Self-time attribution: the cache stage excludes the induce
        // child, so stages can never double-count.
        assert!(t.stage_us("cache") <= cache.dur_us);
        assert_eq!(t.stage_us("induce"), induce.dur_us);
        assert_eq!(t.stages_us(), STAGES.map(|stage| t.stage_us(stage)));
    }

    #[test]
    fn server_timing_lists_all_stages() {
        let ctx = TraceCtx::root(1);
        {
            let _p = ctx.span("parse");
        }
        let header = ctx.finish().unwrap().server_timing();
        for stage in STAGES {
            assert!(header.contains(&format!("{stage};dur=")), "{header}");
        }
    }

    #[test]
    fn dotted_refinements_attribute_to_their_stage() {
        let ctx = TraceCtx::root(9);
        {
            let c = ctx.span("cache");
            let _w = c.ctx().span("cache.wait");
        }
        let t = ctx.finish().unwrap();
        let parent = t.spans.iter().find(|s| s.name == "cache").unwrap();
        // Parent self time + child time == the stage total == parent dur.
        assert_eq!(t.stage_us("cache"), parent.dur_us);
    }

    #[test]
    fn chrome_export_of_traces_validates() {
        let ctx = TraceCtx::root(3);
        {
            let r = ctx.span("request");
            let _s = r.ctx().span("schedule");
        }
        ctx.set_coalesced_onto(11);
        ctx.note("pool_tasks", 4u64);
        let t = ctx.finish().unwrap();
        let text = traces_to_chrome(&[t]);
        let info = crate::validate_chrome_trace(&text).unwrap();
        assert_eq!(info.spans, 2);
        assert!(text.contains("coalesced_onto"));
        assert!(text.contains("pool_tasks"));
    }

    #[test]
    fn unclosed_spans_are_visible_in_opened_count() {
        let ctx = TraceCtx::root(8);
        let guard = ctx.span("request");
        let t = ctx.finish().unwrap();
        assert_eq!(t.opened, 1);
        assert!(t.spans.is_empty());
        drop(guard);
    }
}
