//! `BENCHMARK.json` as `check` and `compare` read it: the metric
//! names, units, directions and bounds live there and nowhere else.

use std::path::{Path, PathBuf};

/// One metric declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the satellite modes need.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// `run_seconds`.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &sweep_json::Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))?
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without '{field}'"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(|v| v.as_f64()),
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parses the document.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = sweep_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(|v| v.as_f64())
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads: doc
                .get("workloads")
                .and_then(|v| v.as_array())
                .ok_or("BENCHMARK.json: missing 'workloads'")?
                .iter()
                .filter_map(|w| w.get("name").and_then(|v| v.as_str()).map(str::to_string))
                .collect(),
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// Loads `BENCHMARK.json` from the working directory (the
    /// driver's checkout root), or else from the parent of this
    /// package's source directory.
    pub fn load() -> Result<BenchSpec, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ];
        for candidate in &candidates {
            if let Ok(text) = std::fs::read_to_string(candidate) {
                return BenchSpec::parse(&text);
            }
        }
        Err(format!("no BENCHMARK.json at {candidates:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_shape() {
        let spec = BenchSpec::parse(
            r#"{"command": ["x"], "paths": ["benchmark"], "run_seconds": 20,
                "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]}"#,
        )
        .expect("parses");
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert!(!spec.per_layer[0].lower_is_better);
        assert_eq!(spec.per_layer[0].bound, None);
    }
}
