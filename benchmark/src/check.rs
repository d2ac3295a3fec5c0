//! `check` and `suite`: the modes that run the benchmark as child
//! processes — one process per run, because `setup_s` counts from
//! process start and `peak_rss_mb` is the process's high-water mark.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::harness::{MIN_OPS, MIN_PASSES};
use crate::report::RunRecord;
use crate::spec::BenchSpec;
use crate::workloads::NAMES;
use crate::{flag, flag_or};

/// Least set-up a run must report: below it a single noisy second
/// moves `setup_s` by more than its bound.
const MIN_SETUP_S: f64 = 3.0;

/// Most one run may take: the benchmark driver makes 114 runs and two
/// builds in 3 420 s.
const MAX_WALL_S: f64 = 28.0;

/// Runs one measuring child to completion and reads its record back.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .arg("--trace-out")
        .arg(out.with_extension("trace.json"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} trace={}: exited with {status}",
            u8::from(trace)
        ));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    RunRecord::from_json(&text)
}

/// Everything wrong with one run's record.
fn problems(record: &RunRecord, spec: &BenchSpec) -> Vec<String> {
    let mut out = Vec::new();
    if !record.correct {
        out.push("run reports correct = false".to_string());
    }
    if record.failed > 0 {
        // Covers a serve_cold hit, a serve_hot miss, a non-200, a 429
        // and any mismatch with a reference: each is a failed op.
        out.push(format!(
            "{} of {} ops failed",
            record.failed, record.attempted
        ));
    }
    let expected = if record.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for want in expected {
        match record.metrics.iter().find(|m| m.name == want.name) {
            None => out.push(format!("metric {} is missing", want.name)),
            Some(m) if !m.value.is_finite() => out.push(format!("metric {} is not finite", m.name)),
            Some(m) if m.unit != want.unit => out.push(format!(
                "metric {} has unit '{}', BENCHMARK.json says '{}'",
                m.name, m.unit, want.unit
            )),
            Some(_) => {}
        }
    }
    for m in &record.metrics {
        if !expected.iter().any(|want| want.name == m.name) {
            out.push(format!(
                "metric {} is not declared in BENCHMARK.json",
                m.name
            ));
        }
    }
    if !record.reconciled {
        out.push("the layer probes do not explain the measured op".to_string());
    }
    if record.setup_s < MIN_SETUP_S {
        out.push(format!(
            "set-up took {:.3} s, need {MIN_SETUP_S}",
            record.setup_s
        ));
    }
    if record.attempted < MIN_OPS as u64 {
        out.push(format!("{} timed ops, need {MIN_OPS}", record.attempted));
    }
    if record.passes < MIN_PASSES as u64 {
        out.push(format!("{} timed passes, need {MIN_PASSES}", record.passes));
    }
    if record.wall_s > MAX_WALL_S {
        out.push(format!(
            "the run took {:.1} s, the budget is {MAX_WALL_S} s",
            record.wall_s
        ));
    }
    out
}

/// `check`: every workload, untraced and traced, at the declared
/// `run_seconds`; non-zero exit when anything is off. A
/// `pipeline_cold` whose width-1 and width-2 digests disagree (SW023)
/// dies in its set-up and shows up here as a failed child.
pub fn run(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag_or(args, "--seed", 1)?;
    let spec = BenchSpec::load()?;
    if spec.workloads != NAMES {
        return Err(format!(
            "BENCHMARK.json lists workloads {:?}, the benchmark runs {NAMES:?}",
            spec.workloads
        ));
    }
    let dir = PathBuf::from("benchmark/out/check");
    let mut bad = 0;
    for workload in NAMES {
        for trace in [false, true] {
            let out = dir.join(format!("{workload}.t{}.json", u8::from(trace)));
            // At the declared run length, so the wall budget is checked
            // on the runs the driver makes.
            let found = match child(workload, seed, spec.run_seconds, trace, &out) {
                Ok(record) => problems(&record, &spec),
                Err(e) => vec![e],
            };
            println!(
                "{workload:<14} trace={}  {}",
                u8::from(trace),
                if found.is_empty() { "ok" } else { "FAILED" }
            );
            for p in &found {
                println!("    {p}");
            }
            bad += found.len();
        }
    }
    if bad > 0 {
        return Err(format!("check found {bad} problem(s)"));
    }
    println!("check passed: 5 workloads × (end-to-end, per-layer)");
    Ok(())
}

/// `suite`: `--runs` untraced runs of every workload (seed, seed+1, …;
/// workloads interleaved so a slow minute hits all of them alike) and
/// one traced run each, written as one record per file under `--out`
/// for `compare`.
pub fn suite(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--out").ok_or("suite: missing --out DIR")?);
    let runs: u64 = flag_or(args, "--runs", 5)?;
    let seed: u64 = flag_or(args, "--seed", 1)?;
    let seconds: f64 = match flag(args, "--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None => BenchSpec::load()?.run_seconds,
    };
    for r in 0..=runs {
        // The last round is the traced one.
        let trace = r == runs;
        let run_seed = if trace { seed } else { seed + r };
        for workload in NAMES {
            let out = dir.join(format!("{workload}.t{}.s{run_seed}.json", u8::from(trace)));
            let record = child(workload, run_seed, seconds, trace, &out)?;
            eprintln!(
                "{workload:<14} seed {run_seed} trace {}: attempted {} failed {} correct {}",
                u8::from(trace),
                record.attempted,
                record.failed,
                record.correct
            );
        }
    }
    println!(
        "suite wrote {} records to {}",
        (runs + 1) * 5,
        dir.display()
    );
    Ok(())
}
