//! Operational state for a running server: connection counting,
//! head-based sampling, the structured access log, and the
//! slow-request exemplar buffer behind `GET /debug/trace`.
//!
//! Everything here is shared between the socket layer (which stamps
//! request ids and writes log lines) and the service (which renders
//! `/debug/vars` and `/debug/trace`), so it hangs off
//! [`SweepService`](crate::service::SweepService) as one `Arc<OpsState>`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sweep_telemetry::{request_id_from_counter, RequestTrace, TraceCtx, STAGES};

/// Where access-log lines go. The default is standard error (one JSON
/// object per line, the conventional sidecar-scrapable place); tests
/// use [`AccessLogSink::memory`] to assert on lines and `Null` to stay
/// quiet.
#[derive(Debug, Clone)]
pub enum AccessLogSink {
    /// One line per request on standard error.
    Stderr,
    /// Lines appended to a shared vector (tests).
    Memory(Arc<Mutex<Vec<String>>>),
    /// Lines discarded.
    Null,
}

impl AccessLogSink {
    /// A memory sink plus the handle its lines land in.
    pub fn memory() -> (AccessLogSink, Arc<Mutex<Vec<String>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (AccessLogSink::Memory(Arc::clone(&store)), store)
    }

    fn emit(&self, line: &str) {
        match self {
            AccessLogSink::Stderr => eprintln!("{line}"),
            AccessLogSink::Memory(store) => store
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(line.to_string()),
            AccessLogSink::Null => {}
        }
    }
}

/// The N-slowest-requests-per-window exemplar buffer. Keeping whole
/// [`RequestTrace`]s (not just latencies) means the operator can open
/// the span tree of exactly the requests that hurt; windowing keeps the
/// exemplars fresh instead of pinning the worst request of all time.
#[derive(Debug)]
struct SlowBuf {
    /// Requests per window; the buffer resets when a window rolls over.
    window: u64,
    /// Exemplars retained per window.
    capacity: usize,
    seen: u64,
    /// Kept sorted slowest-first.
    traces: Vec<RequestTrace>,
}

impl SlowBuf {
    fn offer(&mut self, trace: &RequestTrace) {
        if self.capacity == 0 {
            return;
        }
        self.seen += 1;
        if self.seen > self.window.max(1) {
            self.seen = 1;
            self.traces.clear();
        }
        let slowest_needed = self.traces.len() >= self.capacity;
        if slowest_needed && trace.total_us <= self.traces[self.traces.len() - 1].total_us {
            return;
        }
        if slowest_needed {
            self.traces.pop();
        }
        self.traces.push(trace.clone());
        self.traces.sort_by_key(|t| std::cmp::Reverse(t.total_us));
    }
}

/// Shared operational state: the connection counter request ids derive
/// from, shed tally, sampling knobs, log sink, and the slow buffer.
#[derive(Debug)]
pub struct OpsState {
    next_conn: AtomicU64,
    sheds: AtomicU64,
    /// Trace 1 of every N connections (0 = never, 1 = all).
    trace_sample_every: AtomicU64,
    /// Log 1 of every N requests (0 = never, 1 = all).
    log_sample_every: AtomicU64,
    slow: Mutex<SlowBuf>,
    sink: Mutex<AccessLogSink>,
}

impl Default for OpsState {
    fn default() -> OpsState {
        OpsState {
            next_conn: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            trace_sample_every: AtomicU64::new(1),
            log_sample_every: AtomicU64::new(1),
            slow: Mutex::new(SlowBuf {
                window: 512,
                capacity: 8,
                seen: 0,
                traces: Vec::new(),
            }),
            sink: Mutex::new(AccessLogSink::Stderr),
        }
    }
}

impl OpsState {
    /// Claims the next connection number (1-based).
    pub fn next_conn(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Builds the tracing context for connection `conn`: every request
    /// gets a deterministic id; 1-in-N (head-based sampling) also get a
    /// recording span tree.
    pub fn trace_ctx(&self, conn: u64) -> TraceCtx {
        let rid = request_id_from_counter(conn);
        let every = self.trace_sample_every.load(Ordering::Relaxed);
        if every > 0 && conn.is_multiple_of(every) {
            TraceCtx::root(rid)
        } else {
            TraceCtx::untraced(rid)
        }
    }

    /// Whether connection `conn` should emit an access-log line.
    pub fn should_log(&self, conn: u64) -> bool {
        let every = self.log_sample_every.load(Ordering::Relaxed);
        every > 0 && conn.is_multiple_of(every)
    }

    /// Sets the trace sampling rate (trace 1 of every `every`; 0 = off).
    pub fn set_trace_sampling(&self, every: u64) {
        self.trace_sample_every.store(every, Ordering::Relaxed);
    }

    /// Sets the access-log sampling rate (log 1 of every `every`;
    /// 0 = off).
    pub fn set_log_sampling(&self, every: u64) {
        self.log_sample_every.store(every, Ordering::Relaxed);
    }

    /// Replaces the access-log sink.
    pub fn set_access_log(&self, sink: AccessLogSink) {
        *self.sink.lock().unwrap_or_else(|p| p.into_inner()) = sink;
    }

    /// Reconfigures the slow-request buffer: keep the `capacity` slowest
    /// traces out of every `window` requests.
    pub fn set_slow_buffer(&self, capacity: usize, window: u64) {
        let mut slow = self.slow.lock().unwrap_or_else(|p| p.into_inner());
        slow.capacity = capacity;
        slow.window = window;
        slow.seen = 0;
        slow.traces.clear();
    }

    /// Counts one shed (429 before any service work).
    pub fn record_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Total sheds since start.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Offers a finished trace to the slow-request buffer.
    pub fn offer_slow(&self, trace: &RequestTrace) {
        self.slow
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .offer(trace);
    }

    /// The current slow-request exemplars, slowest first.
    pub fn slow_traces(&self) -> Vec<RequestTrace> {
        self.slow
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .traces
            .clone()
    }

    /// Emits one access-log line through the configured sink.
    pub fn log(&self, line: &str) {
        self.sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .emit(line);
    }

    /// Logs a shed: the request never reached the service, so the line
    /// carries only what the accept loop knows.
    pub fn log_shed(&self, request_id: u64, retry_after_secs: u64, total_us: u64) {
        let line = format!(
            "{{\"request_id\":\"{request_id:016x}\",\"shed\":true,\"status\":429,\
             \"total_us\":{total_us},\"retry_after_s\":{retry_after_secs},\"sheds\":{}}}",
            self.sheds()
        );
        self.log(&line);
    }
}

/// Builds one structured access-log line (a single JSON object, no
/// trailing newline). Traced requests carry full stage attribution and
/// cache disposition; untraced ones still log id, route, status, size,
/// and latency.
// One flat call per request site beats a builder struct for a
// fixed-schema log line; the schema is the argument list.
#[allow(clippy::too_many_arguments)]
pub fn access_log_line(
    request_id: u64,
    method: &str,
    route: &str,
    status: u16,
    bytes: usize,
    total_us: u64,
    sheds: u64,
    trace: Option<&RequestTrace>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"request_id\":\"{request_id:016x}\",\"method\":\"{}\",\"route\":\"{}\",\
         \"status\":{status},\"bytes\":{bytes},\"total_us\":{total_us},\"sheds\":{sheds}",
        sweep_json::escape(method),
        sweep_json::escape(route),
    );
    if let Some(t) = trace {
        out.push_str(",\"stages_us\":{");
        for (i, (stage, us)) in STAGES.iter().zip(t.stages_us()).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{stage}\":{us}");
        }
        out.push('}');
        if let Some(leader) = t.coalesced_onto {
            let _ = write!(out, ",\"coalesced_onto\":\"{leader:016x}\"");
        }
        for (k, v) in &t.notes {
            let _ = write!(
                out,
                ",\"{}\":\"{}\"",
                sweep_json::escape(k),
                sweep_json::escape(v)
            );
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(total_ms: u64) -> RequestTrace {
        let ctx = TraceCtx::root(7);
        {
            let r = ctx.span("request");
            let _p = r.ctx().span("parse");
        }
        let mut t = ctx.finish().unwrap();
        t.total_us = total_ms * 1000; // deterministic ordering for tests
        t
    }

    #[test]
    fn sampling_knobs_gate_tracing_and_logging() {
        let ops = OpsState::default();
        assert!(ops.trace_ctx(1).is_traced());
        assert!(ops.should_log(1));
        ops.set_trace_sampling(0);
        ops.set_log_sampling(4);
        assert!(!ops.trace_ctx(2).is_traced());
        // The id survives sampling-out — headers still echo it.
        assert_ne!(ops.trace_ctx(2).request_id(), 0);
        assert!(!ops.should_log(2));
        assert!(ops.should_log(4));
        ops.set_trace_sampling(3);
        assert!(ops.trace_ctx(3).is_traced());
        assert!(!ops.trace_ctx(4).is_traced());
    }

    #[test]
    fn slow_buffer_keeps_the_n_slowest_and_rolls_windows() {
        let ops = OpsState::default();
        ops.set_slow_buffer(2, 10);
        for ms in [5, 1, 9, 3, 7] {
            ops.offer_slow(&traced(ms));
        }
        let kept: Vec<u64> = ops.slow_traces().iter().map(|t| t.total_us).collect();
        assert_eq!(kept, vec![9000, 7000]);
        // 7 more offers cross the window boundary after the 10th: the
        // buffer restarts and only the new window's offers remain.
        for ms in [1, 1, 1, 1, 1, 2, 3] {
            ops.offer_slow(&traced(ms));
        }
        let kept: Vec<u64> = ops.slow_traces().iter().map(|t| t.total_us).collect();
        assert_eq!(kept, vec![3000, 2000]);
    }

    #[test]
    fn memory_sink_captures_lines_and_null_discards() {
        let ops = OpsState::default();
        let (sink, store) = AccessLogSink::memory();
        ops.set_access_log(sink);
        ops.log("{\"x\":1}");
        ops.log_shed(0xbeef, 2, 17);
        let lines = store.lock().unwrap().clone();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"shed\":true"));
        let shed = sweep_json::parse(&lines[1]).unwrap();
        assert_eq!(
            shed.get("request_id").and_then(|v| v.as_str()),
            Some("000000000000beef")
        );
        assert_eq!(shed.get("total_us").and_then(|v| v.as_u64()), Some(17));
        assert_eq!(shed.get("retry_after_s").and_then(|v| v.as_u64()), Some(2));
        ops.set_access_log(AccessLogSink::Null);
        ops.log("dropped");
        assert_eq!(store.lock().unwrap().len(), 2);
    }

    #[test]
    fn access_log_line_is_valid_json_with_all_stages() {
        let ctx = TraceCtx::root(0xbeef);
        {
            let r = ctx.span("request");
            let _c = r.ctx().span("cache");
        }
        ctx.set_coalesced_onto(0xfeed);
        ctx.note("tier2", "coalesced");
        let t = ctx.finish().unwrap();
        let line = access_log_line(0xbeef, "POST", "/v1/schedule", 200, 123, 4567, 1, Some(&t));
        let doc = sweep_json::parse(&line).unwrap();
        assert_eq!(
            doc.get("request_id").and_then(|v| v.as_str()),
            Some("000000000000beef")
        );
        assert_eq!(doc.get("status").and_then(|v| v.as_u64()), Some(200));
        assert_eq!(
            doc.get("coalesced_onto").and_then(|v| v.as_str()),
            Some("000000000000feed")
        );
        assert_eq!(doc.get("tier2").and_then(|v| v.as_str()), Some("coalesced"));
        let stages = doc.get("stages_us").expect("stages_us present");
        for stage in STAGES {
            assert!(stages.get(stage).is_some(), "{line}");
        }
        // Untraced: still a valid object with the core fields.
        let line = access_log_line(1, "GET", "/healthz", 200, 3, 42, 0, None);
        let doc = sweep_json::parse(&line).unwrap();
        assert!(doc.get("stages_us").is_none());
        assert_eq!(doc.get("total_us").and_then(|v| v.as_u64()), Some(42));
    }
}
