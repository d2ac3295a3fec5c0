//! Outside-in tracing: the benchmark wraps each call into a crate's
//! public function in a span and keeps the spans in memory until the
//! run ends. Nothing inside the program under test is instrumented —
//! that is a later change; here the layer boundary *is* the public API.
//!
//! A span is `(name, start, end, parent, op)`. The part of the name
//! before the first `.` is the layer (`mesh`, `dag`, `partition`,
//! `core`, `pool`, `serve`, `sim`); the root span of every op is
//! `driver.op`. A span's *self time* is its duration minus the time
//! its children cover, so the self times under an op add up to the op
//! span exactly; [`reconcile`] prints that split. (It is bookkeeping,
//! not a check: the check that can fail is `layers::traced_metrics`
//! pricing the op from probes made outside it.)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// Name of the root span the harness opens around every timed op.
pub const OP_SPAN: &str = "driver.op";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, a static string from the driver's own source.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or `u32::MAX`.
    pub parent: u32,
    /// The op (pass × cycle position) this span belongs to.
    pub op: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A single-threaded span recorder (one per client thread). Disabled,
/// every entry point is one predictable branch and then the call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    op: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread lane `tid`; all tracers of a run share
    /// `epoch` so their lanes line up in the exported trace.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording (between passes only — never inside a span).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    /// Tags the spans recorded from here on with op id `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that may itself open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a childless span — the common case: one call
    /// into one public function.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Like [`Tracer::leaf`], also returning the span's index so
    /// [`Tracer::synthetic`] children can be hung under it afterwards
    /// (`u32::MAX` while recording is off).
    pub fn leaf_id<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u32) {
        let id = if self.on {
            self.spans.len() as u32
        } else {
            NO_PARENT
        };
        (self.span(name, |_| f()), id)
    }

    /// Records children of the closed span `parent` whose durations are
    /// known but whose clock is not ours (`Server-Timing` stages): laid
    /// out back to back from the parent's start.
    pub fn synthetic(&mut self, parent: u32, stages: &[(&'static str, u64)]) {
        if !self.on || parent == NO_PARENT {
            return;
        }
        let mut cursor = self.spans[parent as usize].start_ns;
        for &(name, dur_ns) in stages {
            self.spans.push(Span {
                name,
                start_ns: cursor,
                end_ns: cursor + dur_ns,
                parent,
                op: self.op,
            });
            cursor += dur_ns;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the children's durations
    /// (children of one span never overlap — one thread, one stack).
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }
}

/// Where the time under the op spans went, by span name.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    /// Number of `driver.op` root spans.
    pub ops: u64,
    /// Total duration of the op spans, ns.
    pub op_ns: u64,
    /// Self time per span name under the op spans (`driver.op` is the
    /// ops' own glue: everything not inside a call into a crate).
    pub name_self_ns: BTreeMap<&'static str, u64>,
}

impl Reconciliation {
    /// Human-readable one-line-per-span-name split.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, ns) in &self.name_self_ns {
            let _ = writeln!(
                out,
                "  {name:<28} {:>11.3} ms  {:>6.2} %",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / self.op_ns.max(1) as f64
            );
        }
        out
    }
}

/// Sums self times per span name over every span that sits under a
/// `driver.op` root (set-up and probe spans are left out).
pub fn reconcile(tracers: &[Tracer]) -> Reconciliation {
    let mut rec = Reconciliation {
        ops: 0,
        op_ns: 0,
        name_self_ns: BTreeMap::new(),
    };
    for tr in tracers {
        let own = tr.self_times();
        // Spans are pushed in open order, so a parent always precedes
        // its children and one forward pass settles "under an op".
        let mut under_op = vec![false; tr.spans.len()];
        for (i, s) in tr.spans.iter().enumerate() {
            under_op[i] = if s.parent == NO_PARENT {
                s.name == OP_SPAN
            } else {
                under_op[s.parent as usize]
            };
            if !under_op[i] {
                continue;
            }
            if s.parent == NO_PARENT {
                rec.ops += 1;
                rec.op_ns += s.dur_ns();
            }
            *rec.name_self_ns.entry(s.name).or_insert(0) += own[i];
        }
    }
    rec
}

/// Renders every tracer as one thread lane of a Chrome `trace_event`
/// document (complete `X` events; `args` carry the op id and parent).
pub fn to_chrome_trace(tracers: &[&Tracer], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"sweep-benchmark {workload}\"}}}}"
    );
    for tr in tracers {
        for (i, s) in tr.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                tr.tid,
                s.op,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_op_span() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        tr.span(OP_SPAN, |tr| {
            tr.leaf("mesh.build", || spin(300));
            tr.span("core.outer", |tr| {
                spin(100);
                tr.leaf("pool.inner", || spin(200));
            });
        });
        tr.leaf("core.probe_outside_any_op", || spin(50));
        let rec = reconcile(&[tr]);
        assert_eq!(rec.ops, 1);
        let total: u64 = rec.name_self_ns.values().sum();
        assert_eq!(total, rec.op_ns, "self times partition the op span");
        assert!(rec.name_self_ns["mesh.build"] >= 300_000);
        assert!(rec.name_self_ns["pool.inner"] >= 200_000);
        assert!(rec.name_self_ns["core.outer"] >= 100_000);
        assert!(!rec.name_self_ns.contains_key("core.probe_outside_any_op"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let v = tr.span(OP_SPAN, |tr| tr.leaf("mesh.build", || 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut tr = Tracer::new(true, Instant::now(), 3);
        tr.span(OP_SPAN, |tr| {
            let ((), id) = tr.leaf_id("serve.exchange", || spin(50));
            tr.synthetic(id, &[("serve.parse", 1_000), ("serve.cache", 2_000)]);
        });
        let rec = reconcile(std::slice::from_ref(&tr));
        assert_eq!(rec.name_self_ns["serve.parse"], 1_000);
        assert_eq!(rec.name_self_ns.values().sum::<u64>(), rec.op_ns);
        let doc = sweep_json::parse(&to_chrome_trace(&[&tr], "t")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("array");
        assert_eq!(events.len(), 5);
    }
}
