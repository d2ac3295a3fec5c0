//! The run record: what a run prints, writes, and what `check` and
//! `compare` read back.

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// Median set-up time, s (also a traced run's, which reports no
    /// `setup_s` metric).
    pub setup_s: f64,
    /// Process start → record assembled, s: what one run costs.
    pub wall_s: f64,
    /// Timed passes.
    pub passes: u64,
    /// Timed ops.
    pub attempted: u64,
    /// Timed ops whose answer did not match its reference.
    pub failed: u64,
    /// No failed op, a clean warm-up, and (traced) `Server-Timing`
    /// stage sums within the client's latency.
    pub correct: bool,
    /// Traced runs: the layer probes explain the measured op (see
    /// `layers::EXPLAINED_TOLERANCE`). `true` for untraced runs.
    pub reconciled: bool,
    /// End-to-end metrics (`trace = false`) or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Free-text remarks for the human-readable table.
    pub notes: Vec<String>,
}

/// JSON has no NaN/inf: a non-finite value is written as `null`, which
/// no reader accepts as a measurement.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl RunRecord {
    /// The human-readable table: every metric by name with its unit.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  seed {}  seconds {}  trace {}  passes {}  set-up {:.3} s  wall {:.3} s",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.passes,
            self.setup_s,
            self.wall_s
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  correct {}  reconciled {}",
            self.attempted, self.failed, self.correct, self.reconciled
        );
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// One-line JSON. `full = false` is the driver's contract (exactly
    /// `correct`, `attempted`, `failed`, `metrics`); `full = true` adds
    /// the run's identity for `check`/`compare`.
    pub fn to_json(&self, full: bool) -> String {
        let mut out = String::from("{");
        if full {
            let _ = write!(
                out,
                "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
                 \"setup_s\": {}, \"wall_s\": {}, \"passes\": {}, \"reconciled\": {}, ",
                self.workload,
                self.seed,
                number(self.seconds),
                u8::from(self.trace),
                number(self.setup_s),
                number(self.wall_s),
                self.passes,
                self.reconciled
            );
        }
        let _ = write!(
            out,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a `full = true` record.
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let doc = sweep_json::parse(text)?;
        let int = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing integer '{key}'"))
        };
        let float = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        let flag = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_bool())
                .ok_or_else(|| format!("missing boolean '{key}'"))
        };
        let sweep_json::Value::Obj(members) = doc.get("metrics").ok_or("missing 'metrics'")? else {
            return Err("'metrics' must be an object".to_string());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| Metric {
                name: name.clone(),
                // `null` (a non-finite measurement) reads back as NaN.
                value: m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
                unit: m
                    .get("unit")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
            })
            .collect();
        Ok(RunRecord {
            workload: doc
                .get("workload")
                .and_then(|v| v.as_str())
                .ok_or("missing 'workload'")?
                .to_string(),
            seed: int("seed")?,
            seconds: float("seconds")?,
            trace: int("trace")? == 1,
            setup_s: float("setup_s")?,
            wall_s: float("wall_s")?,
            passes: int("passes")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            correct: flag("correct")?,
            reconciled: flag("reconciled")?,
            metrics,
            notes: Vec::new(),
        })
    }

    /// The named metric's value.
    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_contract_line_has_exactly_four_keys() {
        let record = RunRecord {
            workload: "kernel_rdp".to_string(),
            seed: 7,
            seconds: 20.0,
            trace: false,
            setup_s: 3.25,
            wall_s: 24.5,
            passes: 14,
            attempted: 140,
            failed: 0,
            correct: true,
            reconciled: true,
            metrics: vec![
                Metric::new("setup_s", 3.25, "s"),
                Metric::new("op_p50_ms", f64::NAN, "ms"),
            ],
            notes: Vec::new(),
        };
        let back = RunRecord::from_json(&record.to_json(true)).expect("parses");
        assert_eq!(back.metric("setup_s"), Some(3.25));
        assert!(back.metric("op_p50_ms").expect("present").is_nan());
        assert_eq!((back.passes, back.attempted), (14, 140));
        assert_eq!(
            (back.setup_s, back.wall_s, back.reconciled),
            (3.25, 24.5, true)
        );

        let line = sweep_json::parse(&record.to_json(false)).expect("valid JSON");
        let sweep_json::Value::Obj(members) = line else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
