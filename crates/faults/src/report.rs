//! The fault-aware engine's observation record: counters, a bounded
//! per-fault timeline, and text/JSON renderers.

use std::fmt::Write as _;

/// Maximum number of [`FaultEvent`]s a report keeps; later events are
/// counted in [`FaultReport::suppressed_events`] instead. Keeps the
/// JSON rendering (and the CI golden file diffed against it) bounded.
pub const MAX_TIMELINE: usize = 200;

/// What kind of fault (or recovery action) a timeline entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A processor died.
    Crash,
    /// A planned crash was skipped because it would have killed the
    /// last surviving processor.
    CrashSkipped,
    /// The dying processor's in-flight task was aborted (it re-runs on
    /// a survivor).
    Abort,
    /// A cell (all of its task copies) moved to a surviving processor.
    Reassign,
    /// A delivery attempt was dropped; the sender backs off and
    /// retries.
    Drop,
    /// A delivered message was redelivered; the receiver discarded the
    /// duplicate.
    Duplicate,
    /// A task started inside a straggler window and ran slowed.
    SlowTask,
    /// Flux inputs were refetched for a recovered task.
    Refetch,
}

impl FaultKind {
    /// Stable lower-snake name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::CrashSkipped => "crash_skipped",
            FaultKind::Abort => "abort",
            FaultKind::Reassign => "reassign",
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::SlowTask => "slow_task",
            FaultKind::Refetch => "refetch",
        }
    }
}

/// One timeline entry: what happened, where, when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the event.
    pub time: f64,
    /// The processor the event concerns.
    pub proc: u32,
    /// Event kind.
    pub kind: FaultKind,
    /// Deterministic human-readable detail.
    pub detail: String,
}

/// What a fault-injected execution observed, emitted by
/// `sweep_sim::async_makespan_faulty`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Completion time of the last task under faults (the *degraded*
    /// makespan).
    pub makespan: f64,
    /// The fault-free makespan of the same configuration, when the
    /// caller measured it (`0.0` otherwise); `sweep faults` fills it.
    pub fault_free_makespan: f64,
    /// Cross-processor data messages delivered (first successful
    /// attempt of each flux, plus recovery refetches).
    pub messages: u64,
    /// Retransmissions: dropped attempts that were retried, plus
    /// recovery refetches.
    pub retries: u64,
    /// Duplicate deliveries discarded by receivers.
    pub redeliveries: u64,
    /// Delivery attempts dropped by the lossy link or a partition.
    pub dropped: u64,
    /// Incomplete tasks re-enqueued on survivors after crashes.
    pub recovered_tasks: u64,
    /// Cells whose ownership moved to a survivor after a crash.
    pub reassigned_cells: u64,
    /// Tasks that executed inside a straggler window.
    pub slowed_tasks: u64,
    /// Processors that crashed, in crash order.
    pub crashed_procs: Vec<u32>,
    /// Per-processor busy time (aborted work counts what it burned).
    pub busy: Vec<f64>,
    /// `Σ busy / (m · makespan)`; `1.0` for an empty execution.
    pub utilization: f64,
    /// The first [`MAX_TIMELINE`] fault events, in simulation order.
    pub timeline: Vec<FaultEvent>,
    /// Timeline entries beyond the cap.
    pub suppressed_events: u64,
}

impl FaultReport {
    /// Records a timeline event, honouring the [`MAX_TIMELINE`] cap.
    pub fn record(&mut self, time: f64, proc: u32, kind: FaultKind, detail: String) {
        if self.timeline.len() < MAX_TIMELINE {
            self.timeline.push(FaultEvent {
                time,
                proc,
                kind,
                detail,
            });
        } else {
            self.suppressed_events += 1;
        }
    }

    /// Degradation factor `makespan / fault_free_makespan` (`NaN` until
    /// the caller fills the baseline).
    pub fn degradation(&self) -> f64 {
        self.makespan / self.fault_free_makespan
    }

    /// Human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "degraded makespan {:.3}{}",
            self.makespan,
            if self.fault_free_makespan > 0.0 {
                format!(
                    " (fault-free {:.3}, degradation {:.3}x)",
                    self.fault_free_makespan,
                    self.degradation()
                )
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "messages {}, retries {}, redeliveries {}, dropped {}",
            self.messages, self.retries, self.redeliveries, self.dropped
        );
        let _ = writeln!(
            out,
            "crashes {:?}, recovered tasks {}, reassigned cells {}, slowed tasks {}",
            self.crashed_procs, self.recovered_tasks, self.reassigned_cells, self.slowed_tasks
        );
        let _ = writeln!(out, "utilization {:.3}", self.utilization);
        let shown = self.timeline.len().min(12);
        for e in &self.timeline[..shown] {
            let _ = writeln!(
                out,
                "  t={:<10.3} proc {:<3} {:<13} {}",
                e.time,
                e.proc,
                e.kind.as_str(),
                e.detail
            );
        }
        let hidden = self.timeline.len() as u64 - shown as u64 + self.suppressed_events;
        if hidden > 0 {
            let _ = writeln!(out, "  ... {hidden} further fault events");
        }
        out
    }

    /// Stable machine-readable JSON (fixed key order; floats use Rust's
    /// shortest-round-trip formatting, which is platform-independent —
    /// CI diffs this against a committed golden file).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"makespan\": {},", f64j(self.makespan));
        let _ = writeln!(
            out,
            "  \"fault_free_makespan\": {},",
            f64j(self.fault_free_makespan)
        );
        let _ = writeln!(out, "  \"messages\": {},", self.messages);
        let _ = writeln!(out, "  \"retries\": {},", self.retries);
        let _ = writeln!(out, "  \"redeliveries\": {},", self.redeliveries);
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        let _ = writeln!(out, "  \"recovered_tasks\": {},", self.recovered_tasks);
        let _ = writeln!(out, "  \"reassigned_cells\": {},", self.reassigned_cells);
        let _ = writeln!(out, "  \"slowed_tasks\": {},", self.slowed_tasks);
        let procs: Vec<String> = self.crashed_procs.iter().map(|p| p.to_string()).collect();
        let _ = writeln!(out, "  \"crashed_procs\": [{}],", procs.join(", "));
        let busy: Vec<String> = self.busy.iter().map(|b| f64j(*b)).collect();
        let _ = writeln!(out, "  \"busy\": [{}],", busy.join(", "));
        let _ = writeln!(out, "  \"utilization\": {},", f64j(self.utilization));
        let _ = writeln!(out, "  \"suppressed_events\": {},", self.suppressed_events);
        out.push_str("  \"timeline\": [\n");
        for (i, e) in self.timeline.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"t\": {}, \"proc\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
                f64j(e.time),
                e.proc,
                e.kind.as_str(),
                sweep_json::escape(&e.detail)
            );
            out.push_str(if i + 1 < self.timeline.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON-safe float rendering: finite values use Rust's deterministic
/// shortest form; non-finite values (which a correct engine never
/// emits) become `null`.
fn f64j(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultReport {
        let mut r = FaultReport {
            makespan: 12.5,
            fault_free_makespan: 10.0,
            messages: 7,
            retries: 3,
            redeliveries: 1,
            dropped: 3,
            recovered_tasks: 4,
            reassigned_cells: 2,
            slowed_tasks: 0,
            crashed_procs: vec![1],
            busy: vec![5.0, 2.5],
            utilization: 0.3,
            ..FaultReport::default()
        };
        r.record(4.0, 1, FaultKind::Crash, "proc 1 crashed".to_string());
        r.record(4.0, 2, FaultKind::Reassign, "cell 3 -> proc 2".to_string());
        r
    }

    #[test]
    fn text_mentions_degradation_and_timeline() {
        let t = sample().render_text();
        assert!(t.contains("degraded makespan 12.500"));
        assert!(t.contains("degradation 1.250x"));
        assert!(t.contains("crash"));
        assert!(t.contains("cell 3 -> proc 2"));
    }

    #[test]
    fn json_is_stable_and_balanced() {
        let j = sample().render_json();
        assert_eq!(j, sample().render_json(), "deterministic rendering");
        assert!(j.contains("\"makespan\": 12.5"));
        assert!(j.contains("\"crashed_procs\": [1]"));
        assert!(j.contains("\"kind\": \"crash\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn timeline_caps_and_counts_suppressed() {
        let mut r = FaultReport::default();
        for i in 0..(MAX_TIMELINE + 25) {
            r.record(i as f64, 0, FaultKind::Drop, format!("drop {i}"));
        }
        assert_eq!(r.timeline.len(), MAX_TIMELINE);
        assert_eq!(r.suppressed_events, 25);
    }

    #[test]
    fn non_finite_floats_render_null() {
        let r = FaultReport {
            utilization: f64::NAN,
            ..FaultReport::default()
        };
        assert!(r.render_json().contains("\"utilization\": null"));
    }

    #[test]
    fn degradation_ratio() {
        assert!((sample().degradation() - 1.25).abs() < 1e-12);
    }
}
