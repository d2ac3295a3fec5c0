//! The repo benchmark. One command, five workloads:
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload kernel_rdp --seed 1 --seconds 16 --trace 0
//! ```
//!
//! prints every end-to-end metric by name with its unit (`--trace 1`:
//! every per-layer metric, and writes the span file), checks every
//! output against an independently computed reference, and ends with
//! one JSON line. `check`, `suite` and `compare` are the satellite
//! modes; see `benchmark/README.md`.

mod check;
mod compare;
mod harness;
mod layers;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, RunRecord};
use workloads::kernel::{Kernel, KERNEL_MIX, KERNEL_RDP};
use workloads::pipeline::Pipeline;
use workloads::serve::{ServeCold, ServeHot};
use workloads::Workload;

/// Arguments of one measuring run (the driver's contract plus two
/// optional output paths).
pub struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Also write the full run record (JSON) here.
    out: Option<PathBuf>,
    /// Where the traced run writes its Chrome trace.
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage:
  sweep-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE] [--trace-out FILE]
  sweep-benchmark check [--seed <n>]
  sweep-benchmark suite --out DIR [--runs <n>] [--seed <n>] [--seconds <s>]
  sweep-benchmark compare DIR_A DIR_B
workloads: kernel_rdp kernel_mix pipeline_cold serve_hot serve_cold";

/// `--flag value` pairs after the positional arguments.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `--flag value` parsed, or `default` when the flag is absent.
pub fn flag_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name) {
        Some(text) => text.parse().map_err(|e| format!("{name}: {e}")),
        None => Ok(default),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(RunArgs {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
        out: flag(args, "--out").map(PathBuf::from),
        trace_out: flag(args, "--trace-out").map(PathBuf::from),
    })
}

/// One run: set-up, timed passes, and the run record.
fn run_workload<W: Workload>(
    args: &RunArgs,
    set_up: impl FnOnce() -> W,
    process_start: Instant,
) -> RunRecord {
    let mut notes = Vec::new();
    let mut correct = true;

    // Set-up: inputs, server boot, references, priming (all in
    // `set_up`), then the warm-up passes.
    let w = set_up();
    if let Err(why) = harness::warm_up(&w, process_start) {
        correct = false;
        notes.push(why);
    }
    let setup_s = process_start.elapsed().as_secs_f64();

    // A traced run probes the layers after every third timed pass
    // (four rounds in a run of the declared length).
    let mut probes = args
        .trace
        .then(|| layers::Probes::new(w.probe_spec(), args.seed, process_start));
    let timed = harness::measure(&w, args.seconds, args.trace, process_start, |pass| {
        if let Some(probes) = probes.as_mut().filter(|_| pass % 3 == 2) {
            probes.round();
        }
    });
    correct &= timed.failed == 0;
    let mut reconciled = true;
    let metrics = if let Some(probes) = probes {
        let layered = layers::traced_metrics(&args.workload, args.seed, &w, &timed, probes);
        correct &= layered.stages_consistent;
        reconciled = layered.reconciled;
        notes.extend(layered.notes);
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!("benchmark/out/{}.trace.json", args.workload))
        });
        match report::write_file(&path, &layered.chrome_trace) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => {
                correct = false;
                notes.push(format!("could not write {}: {e}", path.display()));
            }
        }
        layered.metrics
    } else {
        notes.push(format!(
            "as it came, disturbed or not: median op {:.4} ms, median pass {:.2} ns per task, \
             pass spread {:.2} %, later ÷ earlier half of the passes {:+.2} %",
            timed.op_raw_p50_ms(false),
            timed.ns_per_task_raw(false),
            100.0 * timed.pass_spread_frac(false),
            100.0 * timed.drift_frac(false),
        ));
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("op_p50_ms", timed.op_p50_ms(false), "ms"),
            Metric::new("ns_per_task", timed.ns_per_task(false), "ns"),
            Metric::new("peak_rss_mb", harness::peak_rss_mb(), "MiB"),
            Metric::new("makespan_ratio", timed.makespan_ratio, "ratio"),
        ]
    };
    RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_s,
        wall_s: process_start.elapsed().as_secs_f64(),
        passes: timed.passes.len() as u64,
        attempted: timed.attempted,
        failed: timed.failed,
        correct,
        reconciled,
        metrics,
        notes,
    }
}

fn run(args: &RunArgs, process_start: Instant) -> RunRecord {
    let seed = args.seed;
    match args.workload.as_str() {
        "kernel_rdp" => run_workload(args, || Kernel::set_up(KERNEL_RDP, seed), process_start),
        "kernel_mix" => run_workload(args, || Kernel::set_up(KERNEL_MIX, seed), process_start),
        "pipeline_cold" => run_workload(args, || Pipeline::set_up(seed), process_start),
        "serve_hot" => run_workload(args, || ServeHot::set_up(seed), process_start),
        "serve_cold" => run_workload(args, || ServeCold::set_up(seed), process_start),
        other => unreachable!("parse_run admits only known workloads, got {other}"),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("check") => check::run(&args[1..]),
        Some("suite") => check::suite(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        _ => parse_run(&args).and_then(|run_args| {
            let record = run(&run_args, process_start);
            print!("{}", record.render_table());
            if let Some(path) = &run_args.out {
                report::write_file(path, &record.to_json(true))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            // The contract's result line: last line of stdout.
            println!("{}", record.to_json(false));
            Ok(())
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sweep-benchmark: {message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
