//! `compare`: two sets of run records side by side, per (workload,
//! metric) — each side's median and quartiles and, for the end-to-end
//! metrics, a verdict against the bound `BENCHMARK.json` fixes.
//!
//! * `same` — B's median is not worse than A's by more than the bound;
//! * `regression` — it is;
//! * `unresolved` — the run-to-run spread (q3 − q1 as a share of the
//!   median, on either side) is wider than the bound, so the runs
//!   cannot tell — unless every B run reads better than every A run.

use std::collections::BTreeMap;
use std::path::Path;

use crate::report::RunRecord;
use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::{median, quartiles, spread_frac};
use crate::workloads::NAMES;

/// Every record under `dir`.
fn load_dir(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|e| e == "json")
                && !p.to_string_lossy().ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    let records: Vec<RunRecord> = paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| RunRecord::from_json(&t))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err(format!("{}: no run records", dir.display()));
    }
    Ok(records)
}

/// Values per (workload, metric); `attempted` and `failed` ride along
/// as pseudo-metrics of the untraced runs.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn tabulate(records: &[RunRecord]) -> Table {
    let mut table = Table::new();
    for r in records {
        let mut add = |name: &str, v: f64| {
            table
                .entry((r.workload.clone(), name.to_string()))
                .or_default()
                .push(v);
        };
        for m in &r.metrics {
            add(&m.name, m.value);
        }
        if !r.trace {
            add("attempted", r.attempted as f64);
            add("failed", r.failed as f64);
        }
    }
    table
}

/// The three verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Same,
    /// Worse by more than the bound.
    Regression,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative:
/// better).
fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let delta = if ma == 0.0 {
        mb - ma
    } else {
        (mb - ma) / ma.abs()
    };
    if lower_is_better {
        delta
    } else {
        -delta
    }
}

/// The rule in the module docs.
pub fn verdict(a: &[f64], b: &[f64], spec: &MetricSpec) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if spread_frac(a).max(spread_frac(b)) > bound {
        let all_better = if spec.lower_is_better {
            b.iter().all(|y| a.iter().all(|x| y < x))
        } else {
            b.iter().all(|y| a.iter().all(|x| y > x))
        };
        return if all_better {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a, b, spec.lower_is_better) > bound {
        Verdict::Regression
    } else {
        Verdict::Same
    }
}

fn cell(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{:>12.5} [{:>11.5}, {:>11.5}]", median(values), q1, q3),
        None => format!("{:>12.5} [{:>11}, {:>11}]", median(values), "-", "-"),
    }
}

/// `compare DIR_A DIR_B`: prints the table; fails on any `regression`.
pub fn run(args: &[String]) -> Result<(), String> {
    let [dir_a, dir_b, ..] = args else {
        return Err("compare: need DIR_A DIR_B".to_string());
    };
    let spec = BenchSpec::load()?;
    let a = tabulate(&load_dir(Path::new(dir_a))?);
    let b = tabulate(&load_dir(Path::new(dir_b))?);
    let exact = [
        MetricSpec {
            name: "attempted".to_string(),
            unit: "count".to_string(),
            lower_is_better: false,
            bound: None,
        },
        MetricSpec {
            name: "failed".to_string(),
            unit: "count".to_string(),
            lower_is_better: true,
            bound: None,
        },
    ];
    println!(
        "{:<14} {:<36} {:>5}  {:<40} {:<40} {:>9} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B vs A",
        "spread",
        "bound"
    );
    let mut counts = BTreeMap::new();
    for workload in NAMES {
        for m in spec.end_to_end.iter().chain(&exact).chain(&spec.per_layer) {
            let key = (workload.to_string(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let spread = spread_frac(va).max(spread_frac(vb));
            // Only a metric with a bound gets a verdict; the rest are
            // reported, exact counts flagged when they differ.
            let label = match m.bound {
                Some(_) => {
                    let v = verdict(va, vb, m);
                    *counts.entry(v.label()).or_insert(0u32) += 1;
                    v.label()
                }
                None if median(va) == median(vb) => "=",
                None => "differs",
            };
            println!(
                "{workload:<14} {:<36} {:>5}  {:<40} {:<40} {:>+8.2}% {:>7.2}% {:>6}  {label}",
                m.name,
                m.unit,
                cell(va),
                cell(vb),
                100.0 * worsening(va, vb, m.lower_is_better),
                100.0 * spread,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.1}%", 100.0 * b)),
            );
        }
    }
    println!(
        "verdicts over the end-to-end metrics: {}",
        ["same", "regression", "unresolved"]
            .iter()
            .map(|l| format!("{} {l}", counts.get(l).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    match counts.get("regression") {
        Some(n) => Err(format!("{n} regression(s)")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: f64, lower: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "ms".to_string(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [100.0, 101.0, 100.5, 99.5, 100.2];
        let close = [101.0, 102.0, 101.5, 100.5, 101.2];
        let worse = [110.0, 111.0, 110.5, 109.5, 110.2];
        assert_eq!(verdict(&a, &close, &spec(0.05, true)), Verdict::Same);
        assert_eq!(verdict(&a, &worse, &spec(0.05, true)), Verdict::Regression);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&a, &worse, &spec(0.05, false)), Verdict::Same);
        assert_eq!(verdict(&worse, &a, &spec(0.05, false)), Verdict::Regression);
        // A spread wider than the bound cannot resolve a 1 % shift …
        let noisy = [90.0, 110.0, 100.0, 95.0, 105.0];
        assert_eq!(
            verdict(&noisy, &close, &spec(0.05, true)),
            Verdict::Unresolved
        );
        // … unless every B run beats every A run.
        let far_better = [50.0, 51.0, 52.0];
        assert_eq!(
            verdict(&noisy, &far_better, &spec(0.05, true)),
            Verdict::Same
        );
    }
}
