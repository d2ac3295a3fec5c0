//! Implementation of the `sweep` command-line tool.
//!
//! Subcommands (see [`HELP`]):
//!
//! * `mesh` — generate a preset mesh, report statistics/quality, export VTK;
//! * `stats` — per-direction DAG statistics of an instance;
//! * `schedule` — run any algorithm, report makespan/bounds/C1/C2,
//!   optionally export the schedule CSV, a Gantt chart, or a VTK file;
//! * `transport` — run the toy S_n transport solver;
//! * `optimal` — exact optimum for tiny synthetic instances;
//! * `analyze` — static analysis (SW0xx diagnostics) of an instance and
//!   optionally an assignment/schedule/async trace, as text, JSON, or
//!   SARIF; exits nonzero when any error-level diagnostic fires.
//! * `trace` — run the full pipeline (mesh → DAGs → schedule → simulators)
//!   with telemetry recording and export the collected spans/metrics.
//! * `faults` — run the fault-injected distributed simulator
//!   (`sweep-faults` plan: crashes, message loss, duplicates, stragglers,
//!   partitions), certify the recovered trace with the SW017/SW018/SW022
//!   analyzers, and report the degraded makespan as text or JSON;
//!   optionally export a `makespan(fault_rate)` degradation curve CSV.
//! * `serve` — run the HTTP scheduling service (`sweep-serve`): a
//!   content-addressed two-tier schedule cache behind `POST
//!   /v1/schedule`, plus `/v1/presets`, `/metrics`, `/debug/vars`,
//!   `/debug/trace`, and `/healthz`, with request-scoped tracing
//!   (`X-Sweep-Request-Id`, `Server-Timing`) and a JSON access log on
//!   stderr. Blocks until killed; see API.md for the wire protocol.
//! * `top` — poll a running `serve` instance's `/metrics` +
//!   `/debug/vars` and render a refreshing terminal dashboard (rps,
//!   per-stage p50/p99, cache residency and hit rate, in-flight depth).
//! * `check` — deterministic concurrency model checking (`sweep-check`):
//!   explores interleavings of the pool's lock-free range splitting and the
//!   server's single-flight cache protocol under a controllable
//!   scheduler, reporting deadlocks, lock-order cycles, lost wakeups,
//!   and non-linearizable outcomes as SW023/SW025–SW027 diagnostics
//!   (text/JSON/SARIF, exit 2 on findings). Requires building with
//!   `--features model-check`; `--fixtures` runs the intentionally
//!   buggy models instead, where a *clean* result is the failure.
//!
//! Every subcommand additionally understands the global `--telemetry
//! <chrome|prom|text>` / `--telemetry-out <path>` flags: telemetry is
//! enabled around the command and the collected spans/metrics are exported
//! afterwards (appended to the report, or written to the given file).
//! The global `--threads N` flag sizes the process-wide worker pool used
//! by parallel DAG induction, multi-trial scheduling, and the bench
//! grids (`--threads 1` forces the sequential path, `--threads 0` or
//! omitting it uses the host's available parallelism).
//!
//! Everything returns its report as a `String` so the logic is unit
//! testable; `main.rs` only prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::collections::HashMap;
use std::fmt::Write as _;

use sweep_core::{
    certify, lower_bounds, render_gantt, Algorithm, Assignment, Certificate, Schedule,
};
use sweep_dag::{instance_stats, SweepInstance};
use sweep_mesh::{quality_report, MeshPreset, SweepMesh, TetMesh};
use sweep_partition::{block_partition, CsrGraph, PartitionOptions};
use sweep_quadrature::QuadratureSet;
use sweep_telemetry as telemetry;

/// Usage text.
pub const HELP: &str = "\
sweep — parallel sweep scheduling on unstructured meshes (IPPS 2005)

USAGE:
  sweep <COMMAND> [--key value]...

COMMANDS:
  mesh       --preset <tetonly|well_logging|long|prismtet> [--scale F]
             [--vtk FILE] [--quality]
  mesh import <file> [--format auto|obj|msh] [--sn N] [--out FILE]
             [--raw-out FILE] [--svg FILE]
             (.obj / Gmsh .msh v4 ASCII; SW030-SW033 validation;
              see MESHES.md; exits 2 on error-level diagnostics)
  stats      (--preset P | --instance FILE) [--scale F] [--sn N]
  instance   --preset P [--scale F] [--sn N] --out FILE   (export v1 text)
  schedule   (--preset P | --instance FILE) [--scale F] [--sn N] --m M
             [--algorithm rdp|rd|improved|greedy|level|descendant|dfds]
             [--delays] [--block B] [--seed S] [--csv FILE] [--gantt]
             [--vtk FILE]
  transport  --preset P [--scale F] [--sn N] [--sigma-t X] [--sigma-s X]
             [--source X] [--tol X] [--max-iters N]
  optimal    --n N --k K --m M [--seed S]      (tiny instances only)
  analyze    (--preset P | --instance FILE | --demo-cycle) [--scale F]
             [--sn N] [--m M] [--algorithm A] [--delays] [--seed S]
             [--async] [--par-check] [--latency F]
             [--format text|json|sarif] [--out FILE] [--imbalance F]
             [--comm-fraction F] [--envelope F]
  trace      (<preset> | --instance FILE) [--scale F] [--sn N] [--m M]
             [--algorithm A] [--delays] [--seed S] [--latency F]
             (full pipeline with telemetry)
  faults     (<preset> | --instance FILE) [--scale F] [--sn N] [--m M]
             [--algorithm A] [--delays] [--seed S] [--latency F]
             [--crash-rate F] [--drop-rate F]
             [--dup-rate F] [--jitter F] [--straggler-rate F]
             [--straggler-factor F] [--partition-rate F] [--min-rto F]
             [--format text|json] [--out FILE] [--curve FILE]
  serve      [--addr HOST:PORT] [--threads N] [--cache-mb MB]
             [--max-inflight N] [--trace-sample N] [--log-sample N]
             [--cluster FILE --self-id N]
             (HTTP scheduling service; see API.md)
  top        [--url http://HOST:PORT] [--interval SECS] [--count N]
             [--plain]    (live dashboard over a running `sweep serve`)
  check      [--fixtures] [--schedules N] [--max-executions N]
             [--max-steps N] [--seed S] [--format text|json|sarif]
             [--out FILE]    (needs a `--features model-check` build)
  help

GLOBAL FLAGS (any command):
  --telemetry chrome|prom|text   record spans/metrics and export them
                                 (Chrome trace_event JSON / Prometheus
                                 text exposition / plain-text tree)
  --telemetry-out FILE           write the export to FILE instead of
                                 appending it to the report
  --threads N                    size of the process-wide worker pool
                                 (parallel DAG induction, best-of-b
                                 trials, bench grids); 1 forces the
                                 sequential path, 0 or unset uses the
                                 host's available parallelism

Defaults: --scale 0.02, --sn 4 (24 directions), --seed 2005.

`analyze` emits SW0xx diagnostics (SW001 cycle witness, SW002-SW007
feasibility/bound errors, SW010-SW016 warnings, SW020/SW021 info) and
exits with status 2 when any error-level diagnostic fires. With --m it
also builds an assignment + schedule and certifies them; with --async it
additionally runs the happens-before message-race detector; with
--par-check it re-runs a best-of-8 certification sequentially and twice
through the worker pool and diffs all three bit-for-bit (SW023 on any
divergence or dropped trial).

`faults` runs the async simulator under a seed-deterministic fault plan
(crashes with whole-cell work reassignment, lossy retried messaging,
duplicates, stragglers, link partitions), certifies the recovered trace
(SW017 duplicate execution / SW018 precedence or delivery violation /
SW022 certified), and exits 2 if certification fails. --curve FILE also
writes a makespan(fault_rate) degradation CSV.

`serve` answers POST /v1/schedule (preset or inline instance + m +
algorithm) from a content-addressed cache — identical requests after the
first are served without recomputation, bit-identical (certified by the
SW024 analyzer). It sheds load with 429 + Retry-After past
--max-inflight, and blocks until the process is killed. With --cluster
FILE (one `<id> <http_addr> <rpc_addr>` line per shard) and --self-id N
it joins a static sharded cluster: schedule requests are routed over a
consistent-hash ring of content digests and forwarded to their home
shard's cache, falling back to bit-identical local compute when a peer
is down (certified by the SW029 analyzer). The wire protocol and the
membership format are documented in API.md.

`check` model-checks the workspace's concurrent kernels — the pool's
lock-free range splitting and the server's single-flight schedule cache
(including the leader-panic unwind path) — by bounded-exhaustive
exploration with sleep-set partial-order reduction plus --schedules
seeded random interleavings. Deadlocks and lock-order cycles report as
SW025, lost wakeups as SW026, single-flight liveness violations as
SW027, non-linearizable outcomes as SW023; any finding exits 2 with a
witness schedule. The subcommand is compiled for real only under
`cargo build --features model-check` (a plain build answers with a
rebuild hint so production binaries pay zero instrumentation cost).
";

/// The flags every command takes besides its own.
const GLOBAL_FLAGS: [&str; 3] = ["telemetry", "telemetry-out", "threads"];

/// One command's flags, read off its usage entry in [`HELP`]: `[--x]` is a
/// switch, `--x V` takes a value, and a leading `<x>` is the positional
/// operand (also accepted as `--x V`).
#[derive(Default)]
struct Usage {
    operand: Option<&'static str>,
    /// Each flag in usage order, with whether it takes a value.
    flags: Vec<(&'static str, bool)>,
}

impl Usage {
    /// The usage entry of `command` (`"mesh import"` for the importer): a
    /// line at a two-space indent that starts with the command's words,
    /// plus its deeper continuation lines.
    fn of(command: &str) -> Option<Usage> {
        let section = HELP.split("COMMANDS:\n").nth(1)?.split("\n\n").next()?;
        let words = command.split(' ');
        let names = |line: &&str| {
            let name = line
                .split_whitespace()
                .take_while(|w| w.starts_with(char::is_alphabetic));
            name.eq(words.clone())
        };
        let mut lines = section
            .lines()
            .skip_while(|l| l.starts_with("   ") || !names(l));
        let first = lines.next()?.split_whitespace().skip(words.clone().count());
        let rest = lines.take_while(|l| l.starts_with("   "));
        let mut usage = Usage::default();
        for (i, token) in first
            .chain(rest.flat_map(str::split_whitespace))
            .enumerate()
        {
            let bare = token.trim_start_matches(['(', '[']);
            if let Some(flag) = bare.strip_prefix("--") {
                let name = flag.trim_end_matches([']', ')']);
                usage.flags.push((name, name.len() == flag.len()));
            } else if i == 0 && bare.starts_with('<') {
                let operand = bare.trim_matches(['<', '>']);
                usage.operand = Some(operand);
                usage.flags.push((operand, true));
            }
        }
        Some(usage)
    }

    /// Whether `--flag` takes a value; `None` when the command has no such
    /// flag.
    fn takes_value(&self, flag: &str) -> Option<bool> {
        let own = self.flags.iter().find(|&&(name, _)| name == flag);
        own.map(|&(_, value)| value)
            .or(GLOBAL_FLAGS.contains(&flag).then_some(true))
    }
}

/// Parses the arguments after `command`: its positional operand, then
/// `--switch` and `--key value` flags from its [`Usage`]. Any other flag
/// is an error naming the flags the command takes.
fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let usage = Usage::of(command)
        .ok_or_else(|| format!("unknown command '{command}' (try `sweep help`)"))?;
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    if let Some(operand) = usage.operand {
        if let Some(value) = it.next_if(|a| !a.starts_with("--")) {
            map.insert(operand.to_string(), value.clone());
        }
    }
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{flag}'"));
        };
        let value = match usage.takes_value(key) {
            Some(true) => it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?
                .clone(),
            Some(false) => "true".to_string(),
            None => {
                let own: Vec<String> = usage.flags.iter().map(|(f, _)| format!("--{f}")).collect();
                let global = GLOBAL_FLAGS.join(", --");
                let own = own.join(", ");
                return Err(format!(
                    "`sweep {command}` has no flag --{key} (it takes {own}; global: --{global})"
                ));
            }
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
    }
}

fn require<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn build_mesh(flags: &HashMap<String, String>) -> Result<(MeshPreset, TetMesh), String> {
    let name = require(flags, "preset")?;
    let preset = MeshPreset::from_name(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
    let scale: f64 = get(flags, "scale", 0.02)?;
    let mesh = preset.build_scaled(scale).map_err(|e| e.to_string())?;
    Ok((preset, mesh))
}

fn build_instance(
    flags: &HashMap<String, String>,
) -> Result<(MeshPreset, TetMesh, SweepInstance), String> {
    let (preset, mesh) = build_mesh(flags)?;
    let sn: usize = get(flags, "sn", 4)?;
    let quad = QuadratureSet::level_symmetric(sn).map_err(|e| e.to_string())?;
    let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, preset.name());
    Ok((preset, mesh, inst))
}

/// `schedule`/`stats` accept either `--preset` (geometric pipeline) or
/// `--instance FILE` (a serialized non-geometric instance).
fn build_instance_or_file(
    flags: &HashMap<String, String>,
) -> Result<(String, Option<TetMesh>, SweepInstance), String> {
    if let Some(path) = flags.get("instance") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let inst = sweep_dag::from_text(&text)?;
        Ok((inst.name().to_string(), None, inst))
    } else {
        let (preset, mesh, inst) = build_instance(flags)?;
        Ok((preset.name().to_string(), Some(mesh), inst))
    }
}

/// The scheduling flags `schedule`, `analyze`, `trace` and `faults`
/// share, parsed: `--m` (`default_m` when absent; required when there
/// is none), `--seed`, `--algorithm` + `--delays`.
struct SchedFlags {
    m: usize,
    seed: u64,
    alg: Algorithm,
}

impl SchedFlags {
    fn parse(flags: &HashMap<String, String>, default_m: Option<usize>) -> Result<Self, String> {
        if default_m.is_none() {
            require(flags, "m")?;
        }
        let m: usize = get(flags, "m", default_m.unwrap_or(0))?;
        if m == 0 {
            return Err("--m must be positive".into());
        }
        let seed: u64 = get(flags, "seed", 2005)?;
        let alg = Algorithm::from_name(
            flags.get("algorithm").map(String::as_str).unwrap_or("rdp"),
            flags.contains_key("delays"),
        )?;
        Ok(SchedFlags { m, seed, alg })
    }

    /// The per-cell uniform random assignment the seed draws.
    fn random_cells(&self, inst: &SweepInstance) -> Assignment {
        Assignment::random_cells(inst.num_cells(), self.m, self.seed)
    }

    /// Runs the algorithm on assignment `a`.
    fn schedule(&self, inst: &SweepInstance, a: Assignment) -> Schedule {
        self.alg.run(inst, a, self.seed ^ 0xabcd)
    }

    /// [`Self::schedule`], certified.
    fn run(&self, inst: &SweepInstance, a: Assignment) -> Result<(Schedule, Certificate), String> {
        let schedule = self.schedule(inst, a);
        let cert = certify(inst, &schedule);
        match &cert.verdict {
            Err(e) => Err(format!("internal: infeasible schedule: {e}")),
            Ok(()) => Ok((schedule, cert)),
        }
    }
}

/// The `--format` + `--out FILE` epilogue: renders with the renderer
/// `--format` names (the first is the default) and, with `--out`,
/// writes the rendering there and answers with `summary` instead.
fn render_out(
    flags: &HashMap<String, String>,
    renderers: &[(&str, &dyn Fn() -> String)],
    summary: String,
) -> Result<String, String> {
    let format = flags
        .get("format")
        .map(String::as_str)
        .unwrap_or(renderers[0].0);
    let Some((_, render)) = renderers.iter().find(|(name, _)| *name == format) else {
        let names: Vec<&str> = renderers.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown format '{format}' ({})", names.join("|")));
    };
    let rendered = render();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!(
                "wrote {path} ({} bytes); {summary}\n",
                rendered.len()
            ))
        }
        None => Ok(rendered),
    }
}

/// [`render_out`] for a diagnostics report: text, JSON or SARIF, exit
/// status 2 when it holds an error.
fn render_report(
    flags: &HashMap<String, String>,
    report: &sweep_analyze::Report,
) -> Result<(String, i32), String> {
    let out = render_out(
        flags,
        &[
            ("text", &|| report.render_text()),
            ("json", &|| report.render_json()),
            ("sarif", &|| report.render_sarif()),
        ],
        format!(
            "{} diagnostic(s), {} error(s)",
            report.len(),
            report.count(sweep_analyze::Severity::Error)
        ),
    )?;
    Ok((out, if report.has_errors() { 2 } else { 0 }))
}

/// Entry point: dispatches `args` (without the binary name) and returns
/// the report to print. Equivalent to [`run_with_status`] with the exit
/// code dropped.
pub fn run(args: &[String]) -> Result<String, String> {
    run_with_status(args).map(|(out, _)| out)
}

/// [`run`] plus the process exit code: 0 for success, 2 when `analyze`
/// found error-level diagnostics (usage errors surface as `Err` and the
/// binary exits 1).
pub fn run_with_status(args: &[String]) -> Result<(String, i32), String> {
    let Some(first) = args.first() else {
        return Ok((HELP.to_string(), 0));
    };
    let (command, rest) = match (first.as_str(), args.get(1).map(String::as_str)) {
        ("mesh", Some("import")) => ("mesh import", &args[2..]),
        ("--help" | "-h", _) => ("help", &args[1..]),
        (command, _) => (command, &args[1..]),
    };
    let mut flags = parse_flags(command, rest)?;

    // Global worker-pool sizing, valid on every subcommand. 0 (or the
    // flag's absence) leaves the pool at the host's available
    // parallelism; 1 forces the sequential path.
    // (`get`, not `remove`: `serve` reuses the same flag to size its
    // HTTP worker pool.)
    if let Some(t) = flags.get("threads") {
        let threads: usize = t.parse().map_err(|e| format!("--threads: {e}"))?;
        sweep_pool::set_global_threads(threads);
    }

    // Global telemetry flags, valid on every subcommand; `trace` records
    // by default (text report when no --telemetry is given).
    let telemetry_format = match flags.remove("telemetry") {
        Some(f) => {
            if !matches!(f.as_str(), "chrome" | "prom" | "text") {
                return Err(format!("unknown telemetry format '{f}' (chrome|prom|text)"));
            }
            Some(f)
        }
        None if command == "trace" => Some("text".to_string()),
        None => None,
    };
    let telemetry_out = flags.remove("telemetry-out");
    if telemetry_format.is_some() {
        telemetry::reset();
        telemetry::set_enabled(true);
    }

    let plain = |r: Result<String, String>| r.map(|out| (out, 0));
    let result = match command {
        "help" => Ok((HELP.to_string(), 0)),
        "mesh" => plain(cmd_mesh(&flags)),
        "mesh import" => cmd_mesh_import(&flags),
        "instance" => plain(cmd_instance(&flags)),
        "stats" => plain(cmd_stats(&flags)),
        "schedule" => plain(cmd_schedule(&flags)),
        "transport" => plain(cmd_transport(&flags)),
        "optimal" => plain(cmd_optimal(&flags)),
        "analyze" => cmd_analyze(&flags),
        "trace" => plain(cmd_trace(&flags)),
        "faults" => cmd_faults(&flags),
        "serve" => plain(cmd_serve(&flags)),
        "top" => plain(cmd_top(&flags)),
        "check" => cmd_check(&flags),
        other => Err(format!("unknown command '{other}' (try `sweep help`)")),
    };

    // Snapshot and disable even when the command failed, so an error exit
    // never leaves the global collector recording.
    let snapshot = telemetry_format.as_ref().map(|_| {
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        snap
    });
    let (mut out, status) = result?;
    if let (Some(format), Some(snap)) = (telemetry_format, snapshot) {
        let rendered = match format.as_str() {
            "chrome" => {
                let text = telemetry::to_chrome_trace(&snap);
                // Self-check: an empty or malformed trace is a bug, not a
                // user error — CI relies on this failing loudly.
                telemetry::validate_chrome_trace(&text)
                    .map_err(|e| format!("internal: invalid chrome trace: {e}"))?;
                text
            }
            "prom" => {
                let text = telemetry::to_prometheus(&snap);
                telemetry::validate_prometheus(&text)
                    .map_err(|e| format!("internal: invalid prometheus exposition: {e}"))?;
                text
            }
            _ => telemetry::to_text_report(&snap),
        };
        match telemetry_out {
            Some(path) => {
                std::fs::write(&path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "wrote telemetry ({format}) to {path}: {} spans, {} categories ({})",
                    snap.spans.len(),
                    snap.categories().len(),
                    snap.categories().join(", "),
                );
            }
            None => {
                out.push_str("\n-- telemetry --\n");
                out.push_str(&rendered);
            }
        }
    }
    Ok((out, status))
}

/// `trace` — runs the full pipeline (mesh build, DAG induction, scheduling
/// and certification, asynchronous simulation) under telemetry so the
/// export covers every span category. The synchronous C2 time is the
/// certificate's makespan plus C2. The schedule's start times serve as the
/// async priorities, mirroring how a distributed run would replay an
/// offline schedule.
fn cmd_trace(flags: &HashMap<String, String>) -> Result<String, String> {
    let (name, _mesh, inst) = build_instance_or_file(flags)?;
    let sched = SchedFlags::parse(flags, Some(8))?;
    let latency: f64 = get(flags, "latency", 1.0)?;
    if latency < 0.0 {
        return Err("--latency must be non-negative".into());
    }
    let assignment = sched.random_cells(&inst);
    let (schedule, cert) = sched.run(&inst, assignment.clone())?;
    let prio: Vec<i64> = schedule.starts().iter().map(|&t| t as i64).collect();
    let (async_report, trace) =
        sweep_sim::async_makespan_traced(&inst, &assignment, &prio, None, latency);
    sweep_sim::publish_trace(&trace);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {} with {} ({} tasks, m = {}): makespan {}, sync C2 time {:.1}, \
         async makespan {:.1} (latency {latency}, {} messages)",
        name,
        sched.alg.name(),
        inst.num_tasks(),
        sched.m,
        cert.makespan,
        f64::from(cert.makespan) + cert.c2 as f64,
        async_report.makespan,
        async_report.messages,
    );
    Ok(out)
}

/// `sweep faults <preset> …`: fault-injected execution + recovery,
/// trace certification, optional degradation curve.
fn cmd_faults(flags: &HashMap<String, String>) -> Result<(String, i32), String> {
    use sweep_faults::{FaultConfig, FaultPlan};

    let (name, _mesh, inst) = build_instance_or_file(flags)?;
    let sched = SchedFlags::parse(flags, Some(8))?;
    let SchedFlags { m, seed, .. } = sched;
    let latency: f64 = get(flags, "latency", 1.0)?;
    if latency < 0.0 {
        return Err("--latency must be non-negative".into());
    }
    let cfg = FaultConfig {
        crash_rate: get(flags, "crash-rate", 0.1)?,
        drop_rate: get(flags, "drop-rate", 0.05)?,
        dup_rate: get(flags, "dup-rate", 0.02)?,
        jitter: get(flags, "jitter", 0.0)?,
        straggler_rate: get(flags, "straggler-rate", 0.0)?,
        straggler_factor: get(flags, "straggler-factor", 4.0)?,
        partition_rate: get(flags, "partition-rate", 0.0)?,
        min_rto: get(flags, "min-rto", 1.0)?,
    };
    cfg.validate()?;
    let assignment = sched.random_cells(&inst);
    let (schedule, _) = sched.run(&inst, assignment.clone())?;
    let prio: Vec<i64> = schedule.starts().iter().map(|&t| t as i64).collect();

    // Fault-free baseline: the degradation denominator and the horizon
    // the plan's fault times are sampled over.
    let base = sweep_sim::async_makespan(&inst, &assignment, &prio, None, latency);
    let horizon = base.makespan.max(1.0);
    let plan = FaultPlan::random(m, horizon, &cfg, seed);
    let (mut report, trace) =
        sweep_sim::async_makespan_faulty(&inst, &assignment, &prio, None, latency, &plan);
    report.fault_free_makespan = base.makespan;
    sweep_sim::publish_fault_report(&plan, &report);

    // Always certify the recovered trace: exactly-once + precedences +
    // delivery (SW017/SW018/SW022).
    let integrity = sweep_analyze::analyze_trace_integrity(&inst, &trace);
    let status = if integrity.has_errors() { 2 } else { 0 };

    let text = || {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "faults {} with {} ({} tasks, m = {m}, seed {seed}): \
             {} crash(es), {} slowdown window(s), {} partition(s) planned",
            name,
            sched.alg.name(),
            inst.num_tasks(),
            plan.crashes.len(),
            plan.slowdowns.len(),
            plan.partitions.len(),
        );
        out.push_str(&report.render_text());
        let _ = writeln!(
            out,
            "integrity: {}",
            if status == 0 {
                "certified (SW022: exactly-once, precedence-correct, delivery-backed)"
            } else {
                "FAILED"
            }
        );
        if status != 0 {
            out.push_str(&integrity.render_text());
        }
        out
    };
    let out = render_out(
        flags,
        &[("text", &text), ("json", &|| report.render_json())],
        format!(
            "degraded makespan {:.3} ({:.3} fault-free)",
            report.makespan, report.fault_free_makespan
        ),
    )?;

    if let Some(path) = flags.get("curve") {
        let rates = [0.0, 0.05, 0.1, 0.2, 0.4];
        let points = sweep_sim::degradation_curve(
            &inst,
            &assignment,
            &prio,
            None,
            latency,
            &cfg,
            &rates,
            seed,
        );
        let csv = sweep_sim::degradation_csv(&points);
        std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok((out, status))
}

/// `serve` — binds the HTTP scheduling service and blocks in its accept
/// loop until the process is killed. The listen address is printed
/// immediately (before blocking) so scripts can wait on it.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<String, String> {
    let addr: String = get(flags, "addr", "127.0.0.1:7469".to_string())?;
    let threads: usize = get(flags, "threads", 0)?;
    let cache_mb: usize = get(flags, "cache-mb", 64)?;
    let max_inflight: usize = get(flags, "max-inflight", 32)?;
    let trace_sample: u64 = get(flags, "trace-sample", 1)?;
    let log_sample: u64 = get(flags, "log-sample", 1)?;
    let cluster = match (flags.get("cluster"), flags.get("self-id")) {
        (None, None) => None,
        (Some(_), None) => return Err("--cluster needs --self-id".into()),
        (None, Some(_)) => return Err("--self-id needs --cluster".into()),
        (Some(path), Some(id)) => {
            let self_id: u64 = id.parse().map_err(|e| format!("--self-id: {e}"))?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let members = sweep_serve::parse_members(&text)?;
            Some(sweep_serve::ClusterConfig::new(self_id, members))
        }
    };
    let config = sweep_serve::ServerConfig {
        addr,
        threads: if threads == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            threads
        },
        cache_bytes: cache_mb.max(1) * 1024 * 1024,
        max_inflight: max_inflight.max(1),
        trace_sample_every: trace_sample,
        log_sample_every: log_sample,
        cluster,
        ..sweep_serve::ServerConfig::default()
    };
    let server = sweep_serve::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "sweep-serve listening on http://{addr} \
         (POST /v1/schedule, GET /v1/presets, GET /metrics, GET /debug/vars, \
         GET /debug/trace, GET /healthz; access log on stderr)"
    );
    if let (Some(cluster), Some(rpc)) = (server.cluster(), server.rpc_addr()) {
        println!(
            "cluster shard {} of {} (peer rpc on {rpc}, ring {} points)",
            cluster.self_id(),
            cluster.members().len(),
            cluster.ring().len_points(),
        );
    }
    server.run().map_err(|e| e.to_string())?;
    Ok(format!("sweep-serve on {addr} shut down cleanly\n"))
}

/// One blocking HTTP/1.1 GET against `hostport` (no client library —
/// the same std-only wire subset the server speaks).
fn http_get(hostport: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(hostport).map_err(|e| format!("connect {hostport}: {e}"))?;
    let timeout = Some(std::time::Duration::from_secs(5));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {hostport}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response for GET {path}"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "GET {path}: {}",
            head.lines().next().unwrap_or("no status line")
        ));
    }
    Ok(body.to_string())
}

/// Reads one sample value out of a Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (n, v) = l.rsplit_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

/// Renders one `sweep top` dashboard frame from a `/debug/vars`
/// document, the `/metrics` exposition, and the rps estimate.
fn render_top(
    hostport: &str,
    doc: &telemetry::json::Value,
    metrics: &str,
    rps: Option<f64>,
) -> String {
    let u = |path: &[&str]| -> u64 {
        let mut v = Some(doc);
        for key in path {
            v = v.and_then(|v| v.get(key));
        }
        v.and_then(|v| v.as_u64()).unwrap_or(0)
    };
    let mut out = String::new();
    let _ = writeln!(out, "sweep top — {hostport}");
    let _ = writeln!(
        out,
        "requests {:>8}   rps {:>7}   inflight {:>3}   sheds {:>5}   panics {:>3}",
        u(&["requests"]),
        rps.map_or_else(|| "-".to_string(), |r| format!("{r:.1}")),
        u(&["inflight"]),
        u(&["sheds"]),
        prom_value(metrics, "serve_http_panics_total").unwrap_or(0.0) as u64,
    );
    let (hits, misses) = (u(&["cache", "hits"]), u(&["cache", "misses"]));
    let _ = writeln!(
        out,
        "cache    hit rate {:>5.1}%   coalesced {:>5}   evictions {:>5}",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        u(&["cache", "coalesced"]),
        u(&["cache", "evictions"]),
    );
    let _ = writeln!(
        out,
        "  tier1  {:>5} entries  {:>10} bytes    tier2  {:>5} entries  {:>10} bytes",
        u(&["cache", "tier1", "entries"]),
        u(&["cache", "tier1", "bytes"]),
        u(&["cache", "tier2", "entries"]),
        u(&["cache", "tier2", "bytes"]),
    );
    let _ = writeln!(
        out,
        "pool     tasks {:>8}   steals {:>8}   attempts {:>8}   failed cas {:>5}   parked {:>6}",
        u(&["pool", "tasks"]),
        u(&["pool", "steals"]),
        u(&["pool", "steal_attempts"]),
        u(&["pool", "steal_failures"]),
        u(&["pool", "parked"]),
    );
    let _ = writeln!(out, "traces   slow {:>4}", u(&["slow_traces"]));
    if let Some(cluster) = doc.get("cluster") {
        let peers = cluster
            .get("peers")
            .and_then(|p| p.as_array())
            .map(|peers| {
                peers
                    .iter()
                    .map(|p| {
                        format!(
                            "{}:{}",
                            p.get("id").and_then(|v| v.as_u64()).unwrap_or(0),
                            p.get("status").and_then(|v| v.as_str()).unwrap_or("?")
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "cluster  shard {:>3}{}   forwards {:>6}   fallbacks {:>5}   rpc serves {:>6}   peers [{}]",
            u(&["cluster", "self_id"]),
            if cluster
                .get("degraded")
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
            {
                " (degraded)"
            } else {
                ""
            },
            u(&["cluster", "forwards"]),
            u(&["cluster", "fallbacks"]),
            u(&["cluster", "rpc_serves"]),
            peers,
        );
    }
    let _ = writeln!(out, "stage        p50 µs      p99 µs     samples");
    for stage in telemetry::STAGES {
        let s = doc.get("stages_us").and_then(|s| s.get(stage));
        let f = |key: &str| s.and_then(|s| s.get(key)).and_then(|v| v.as_f64());
        let _ = writeln!(
            out,
            "{stage:<9} {:>9.1}   {:>9.1}   {:>9}",
            f("p50").unwrap_or(0.0),
            f("p99").unwrap_or(0.0),
            f("count").unwrap_or(0.0) as u64,
        );
    }
    out
}

/// `top` — polls a running server's `/metrics` + `/debug/vars` and
/// renders a refreshing terminal dashboard. `--count N` stops after N
/// frames (0 = until killed); `--plain` suppresses the ANSI
/// clear-screen between frames. The final frame is also the command's
/// return value, so scripts and tests can capture it.
fn cmd_top(flags: &HashMap<String, String>) -> Result<String, String> {
    let url: String = get(flags, "url", "http://127.0.0.1:7469".to_string())?;
    let interval: f64 = get(flags, "interval", 1.0)?;
    let count: u64 = get(flags, "count", 0)?;
    let plain = flags.contains_key("plain");
    let hostport = url
        .strip_prefix("http://")
        .unwrap_or(&url)
        .trim_end_matches('/')
        .to_string();

    let mut last_requests: Option<u64> = None;
    let mut frame;
    let mut polls = 0u64;
    loop {
        let vars = http_get(&hostport, "/debug/vars")?;
        let metrics = http_get(&hostport, "/metrics")?;
        let doc = telemetry::json::parse(&vars).map_err(|e| format!("parsing /debug/vars: {e}"))?;
        let requests = doc.get("requests").and_then(|v| v.as_u64()).unwrap_or(0);
        let rps =
            last_requests.map(|prev| requests.saturating_sub(prev) as f64 / interval.max(1e-9));
        last_requests = Some(requests);
        frame = render_top(&hostport, &doc, &metrics, rps);
        polls += 1;
        if count != 0 && polls >= count {
            // The final frame is returned (main prints it) instead of
            // being printed here, so it is not shown twice.
            break;
        }
        if !plain {
            print!("\x1b[2J\x1b[H");
        }
        println!("{frame}");
        std::thread::sleep(std::time::Duration::from_secs_f64(
            interval.clamp(0.05, 60.0),
        ));
    }
    Ok(frame)
}

fn cmd_mesh(flags: &HashMap<String, String>) -> Result<String, String> {
    let (preset, mesh) = build_mesh(flags)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mesh {}: {} cells, {} interior faces, {} boundary faces, connected = {}",
        preset.name(),
        mesh.num_cells(),
        mesh.interior_faces().len(),
        mesh.boundary_faces().len(),
        mesh.connected_component_size() == mesh.num_cells(),
    );
    if flags.contains_key("quality") {
        let q = quality_report(&mesh);
        let _ = writeln!(
            out,
            "quality: min/mean element {:.3}/{:.3}, volume grading {:.1}, max neighbors {}",
            q.min_radius_ratio, q.mean_radius_ratio, q.volume_ratio, q.max_neighbors
        );
    }
    if let Some(path) = flags.get("vtk") {
        let vtk = sweep_mesh::to_vtk(&mesh, &[])?;
        std::fs::write(path, &vtk).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "wrote {path} ({} bytes)", vtk.len());
    }
    Ok(out)
}

/// `sweep mesh import <file>` — parse a real mesh file (Wavefront
/// `.obj` or Gmsh `.msh` v4 ASCII, see MESHES.md), validate it
/// (SW030–SW033), induce the per-direction DAGs against `--sn`, and
/// report deterministic stats (no timings, so the output golden-diffs).
/// Exports: `--out` the schedulable instance (v1 text, cycles already
/// broken), `--raw-out` the *pre-repair* edges (possibly cyclic; feed to
/// `sweep analyze --instance` for SW001 cycle witnesses), `--svg` a
/// per-cell sweep-level rendering (surface imports only). Exits 2 when
/// any error-level diagnostic fires.
fn cmd_mesh_import(flags: &HashMap<String, String>) -> Result<(String, i32), String> {
    use sweep_dag::{induce_raw, TaskDag};
    use sweep_mesh::import::ImportFormat;

    let path = require(flags, "file")?;
    let fmt_name = flags.get("format").map(String::as_str).unwrap_or("auto");
    let fmt = ImportFormat::from_name(fmt_name)
        .ok_or_else(|| format!("unknown format '{fmt_name}' (auto|obj|msh)"))?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let got =
        sweep_mesh::import_bytes(&bytes, fmt).map_err(|e| format!("importing {path}: {e}"))?;
    let report = sweep_analyze::analyze_import(&got.report, path);

    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "imported".to_string());
    let sn: usize = get(flags, "sn", 4)?;
    let quad = QuadratureSet::level_symmetric(sn).map_err(|e| e.to_string())?;
    let (inst, induce) = SweepInstance::from_mesh(&got.mesh, &quad, name.as_str());

    let mut out = report.render_text();
    let raw_edges: usize = induce.iter().map(|s| s.raw_edges).sum();
    let dropped: usize = induce.iter().map(|s| s.dropped_edges).sum();
    let cyclic_dirs = induce.iter().filter(|s| s.nontrivial_sccs > 0).count();
    let _ = writeln!(
        out,
        "induced {} directions (sn {sn}): {raw_edges} raw edges, {dropped} dropped by \
         cycle breaking, {cyclic_dirs} cyclic directions",
        quad.len(),
    );
    let st = instance_stats(&inst);
    let _ = writeln!(
        out,
        "instance: {} tasks ({} cells × {} directions), {} edges, D = {}",
        st.total_tasks,
        inst.num_cells(),
        inst.num_directions(),
        st.total_edges,
        st.max_depth,
    );

    if let Some(p) = flags.get("out") {
        let text = sweep_dag::to_text(&inst);
        std::fs::write(p, &text).map_err(|e| format!("writing {p}: {e}"))?;
        let _ = writeln!(out, "wrote instance to {p} ({} bytes)", text.len());
    }
    if let Some(p) = flags.get("raw-out") {
        let dags: Vec<TaskDag> = quad
            .iter()
            .map(|(_, omega)| TaskDag::from_edges(inst.num_cells(), &induce_raw(&got.mesh, omega)))
            .collect();
        let raw = SweepInstance::new_unchecked(inst.num_cells(), dags, format!("{name}-raw"));
        let text = sweep_dag::to_text(&raw);
        std::fs::write(p, &text).map_err(|e| format!("writing {p}: {e}"))?;
        let _ = writeln!(
            out,
            "wrote raw (pre-repair) instance to {p} ({} bytes)",
            text.len()
        );
    }
    if let Some(p) = flags.get("svg") {
        let level_of = inst.dag(0).level_of();
        let values: Vec<f64> = level_of.iter().map(|&l| l as f64).collect();
        let svg = sweep_mesh::poly_to_svg(&got.mesh, &values, sweep_mesh::ColorMap::BlueRed, 640)
            .map_err(|e| {
            format!("--svg: {e} (volumetric .msh imports have no render surface)")
        })?;
        std::fs::write(p, &svg).map_err(|e| format!("writing {p}: {e}"))?;
        let _ = writeln!(out, "wrote sweep-level SVG (direction 0) to {p}");
    }
    Ok((out, if report.has_errors() { 2 } else { 0 }))
}

fn cmd_instance(flags: &HashMap<String, String>) -> Result<String, String> {
    let (_, _, inst) = build_instance(flags)?;
    let path = require(flags, "out")?;
    let text = sweep_dag::to_text(&inst);
    std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(format!(
        "wrote {} tasks ({} cells × {} directions) to {path}\n",
        inst.num_tasks(),
        inst.num_cells(),
        inst.num_directions()
    ))
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<String, String> {
    let (name, _mesh, inst) = build_instance_or_file(flags)?;
    let st = instance_stats(&inst);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "instance {}: {} tasks ({} cells × {} directions), {} edges, D = {}",
        name,
        st.total_tasks,
        inst.num_cells(),
        inst.num_directions(),
        st.total_edges,
        st.max_depth,
    );
    let bytes = inst.heap_bytes();
    let per_task = bytes as f64 / st.total_tasks.max(1) as f64;
    let _ = writeln!(out, "heap {bytes} bytes, {per_task:.2} bytes/task");
    let _ = writeln!(out, "dir  depth  width(max)  sources  sinks  edges");
    for (i, d) in st.per_direction.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i:>3}  {:>5}  {:>10}  {:>7}  {:>5}  {:>5}",
            d.depth, d.max_width, d.sources, d.sinks, d.edges
        );
    }
    Ok(out)
}

fn cmd_schedule(flags: &HashMap<String, String>) -> Result<String, String> {
    let (name, mesh, inst) = build_instance_or_file(flags)?;
    let sched = SchedFlags::parse(flags, None)?;
    let SchedFlags { m, seed, alg } = sched;
    let assignment = match flags.get("block") {
        None => sched.random_cells(&inst),
        Some(b) => {
            let block: usize = b.parse().map_err(|e| format!("--block: {e}"))?;
            if block == 0 {
                return Err("--block must be positive".into());
            }
            let Some(mesh) = mesh.as_ref() else {
                return Err("--block needs a mesh (use --preset, not --instance)".into());
            };
            let (xadj, adjncy) = mesh.adjacency_csr();
            let graph = CsrGraph::from_csr_parts(xadj, adjncy);
            let blocks = block_partition(&graph, block, &PartitionOptions::default());
            Assignment::random_blocks(&blocks, m, seed)
        }
    };
    let (schedule, Certificate { bounds, c1, c2, .. }) = sched.run(&inst, assignment)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} ({} tasks, m = {m}): makespan {}  lower-bound {}  ratio {:.3}",
        alg.name(),
        name,
        inst.num_tasks(),
        schedule.makespan(),
        bounds.best(),
        schedule.makespan() as f64 / bounds.best() as f64,
    );
    let _ = writeln!(
        out,
        "communication: C1 = {c1} ({:.1}% of edges), C2 = {c2}; utilization {:.1}%",
        100.0 * c1 as f64 / inst.total_edges().max(1) as f64,
        100.0 * schedule.utilization(),
    );
    if let Some(path) = flags.get("csv") {
        let csv = sweep_core::to_csv(&inst, &schedule);
        std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "wrote schedule CSV to {path}");
    }
    if flags.contains_key("gantt") {
        out.push_str(&render_gantt(&inst, &schedule, 100));
    }
    if let Some(path) = flags.get("vtk") {
        let Some(mesh) = mesh.as_ref() else {
            return Err("--vtk needs a mesh (use --preset, not --instance)".into());
        };
        let n = inst.num_cells();
        let proc_field: Vec<f64> = (0..n as u32)
            .map(|v| schedule.proc_of_cell(v) as f64)
            .collect();
        let start_field: Vec<f64> = (0..n as u32)
            .map(|v| schedule.start_of(sweep_dag::TaskId::pack(v, 0, n)) as f64)
            .collect();
        let vtk = sweep_mesh::to_vtk(
            mesh,
            &[("processor", &proc_field), ("start_dir0", &start_field)],
        )?;
        std::fs::write(path, &vtk).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

fn cmd_transport(flags: &HashMap<String, String>) -> Result<String, String> {
    let (preset, mesh) = build_mesh(flags)?;
    let sn: usize = get(flags, "sn", 4)?;
    let quad = QuadratureSet::level_symmetric(sn).map_err(|e| e.to_string())?;
    let material = sweep_sim::Material {
        sigma_t: get(flags, "sigma-t", 1.0)?,
        sigma_s: get(flags, "sigma-s", 0.5)?,
        source: get(flags, "source", 1.0)?,
    };
    let tol: f64 = get(flags, "tol", 1e-8)?;
    let max_iters: usize = get(flags, "max-iters", 500)?;
    let solver = sweep_sim::TransportSolver::new(&mesh, &quad, material)?;
    let r = solver.solve(max_iters, tol);
    // Each term is divided before the sum, so the mean of finite fluxes
    // is finite even where their sum would overflow.
    let cells = r.phi.len().max(1) as f64;
    let mean: f64 = r.phi.iter().map(|&phi| phi / cells).sum();
    let max = r.phi.iter().fold(0.0f64, |a, &b| a.max(b));
    Ok(format!(
        "transport on {} ({} cells, {} directions): {} iterations, residual {:.2e}, \
         converged = {}\nscalar flux: mean {:.4}, max {:.4}\n",
        preset.name(),
        mesh.num_cells(),
        quad.len(),
        r.iterations,
        r.residual,
        r.converged,
        mean,
        max,
    ))
}

fn cmd_optimal(flags: &HashMap<String, String>) -> Result<String, String> {
    let n: usize = require(flags, "n")?
        .parse()
        .map_err(|e| format!("--n: {e}"))?;
    let k: usize = require(flags, "k")?
        .parse()
        .map_err(|e| format!("--k: {e}"))?;
    let m: usize = require(flags, "m")?
        .parse()
        .map_err(|e| format!("--m: {e}"))?;
    let seed: u64 = get(flags, "seed", 2005)?;
    if n == 0 || k == 0 || m == 0 {
        return Err("--n, --k, --m must be positive".into());
    }
    if n * k > sweep_core::opt::MAX_TASKS || n > 12 {
        return Err(format!(
            "exact search limited to n ≤ 12 and n·k ≤ {}",
            sweep_core::opt::MAX_TASKS
        ));
    }
    let inst = SweepInstance::random_layered(n, k, (n / 2).max(1), 2, seed);
    let opt = sweep_core::optimal_sweep_makespan(&inst, m);
    let lb = lower_bounds(&inst, m);
    let a = Assignment::random_cells(n, m, seed);
    let s = Algorithm::RandomDelayPriorities.run(&inst, a, seed);
    Ok(format!(
        "random instance (n={n}, k={k}, seed={seed}) on m={m}: OPT = {opt}, \
         proxy lower bound = {}, Algorithm 2 = {} ({:.2}x OPT)\n",
        lb.best(),
        s.makespan(),
        s.makespan() as f64 / opt as f64,
    ))
}

/// A built-in cyclic fixture for demos and CI smoke tests: direction 0
/// re-enters cells 1 → 2 → 3 → 1 (the shape a hanging-node or warped
/// face produces after DAG induction goes wrong), direction 1 is a
/// clean chain.
fn demo_cycle_instance() -> SweepInstance {
    let d0 = sweep_dag::TaskDag::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
    let d1 = sweep_dag::TaskDag::from_edges(4, &[(3, 2), (2, 1), (1, 0)]);
    SweepInstance::new_unchecked(4, vec![d0, d1], "demo-cycle")
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(String, i32), String> {
    use sweep_analyze::{
        analyze_assignment_with, analyze_async, analyze_instance, analyze_quadrature,
        analyze_schedule_with, AnalyzeOptions, Code,
    };
    let opts = AnalyzeOptions {
        imbalance_factor: get(flags, "imbalance", 2.0)?,
        comm_fraction: get(flags, "comm-fraction", 0.9)?,
        envelope_factor: get(flags, "envelope", 2.0)?,
    };

    // Build the instance. File inputs use the *unchecked* parser so that
    // cyclic archives reach the analyzer (which reports SW001 with a
    // witness) instead of dying in the loader.
    let mut report;
    let inst = if flags.contains_key("demo-cycle") {
        let inst = demo_cycle_instance();
        report = analyze_instance(&inst);
        inst
    } else if let Some(path) = flags.get("instance") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let inst = sweep_dag::from_text_unchecked(&text)?;
        report = analyze_instance(&inst);
        inst
    } else {
        let (_, _, inst) = build_instance(flags)?;
        report = analyze_instance(&inst);
        let sn: usize = get(flags, "sn", 4)?;
        let quad = QuadratureSet::level_symmetric(sn).map_err(|e| e.to_string())?;
        report.merge(analyze_quadrature(&quad));
        inst
    };

    // With --m: analyze an assignment and a schedule built on it —
    // unless the instance is cyclic, in which case no scheduler can run
    // and the SW001 error already fails the command.
    let cyclic = report.has_code(Code::CyclicDependency);
    if flags.contains_key("m") {
        let sched = SchedFlags::parse(flags, None)?;
        if !cyclic {
            let assignment = sched.random_cells(&inst);
            report.merge(analyze_assignment_with(&inst, &assignment, &opts));
            // The analyzer certifies the schedule itself.
            let schedule = sched.schedule(&inst, assignment.clone());
            report.merge(analyze_schedule_with(&inst, &schedule, &opts));
            if flags.contains_key("async") {
                let latency: f64 = get(flags, "latency", 1.0)?;
                let prio = vec![0i64; inst.num_tasks()];
                report.merge(analyze_async(&inst, &assignment, &prio, latency));
            }
            if flags.contains_key("par-check") {
                report.merge(sweep_analyze::analyze_parallel_determinism(
                    &inst,
                    sched.m,
                    sweep_pool::global_threads(),
                    sched.seed,
                ));
            }
        }
    } else if flags.contains_key("async") {
        return Err("--async needs --m (it analyzes a distributed execution)".into());
    } else if flags.contains_key("par-check") {
        return Err("--par-check needs --m (it certifies a best-of-b schedule)".into());
    }

    render_report(flags, &report)
}

/// `check` — model-checks the pool's lock-free range splitting and the
/// server's single-flight cache under `sweep-check`'s controllable
/// scheduler and renders the results on the SW0xx registry (exit 2 on
/// any finding). With `--fixtures` it runs the intentionally buggy
/// reference models instead: there a finding per fixture is the
/// *expected* outcome (still exit 2 — the witness traces are the
/// point), and a clean fixture is a hard error because it means the
/// checker lost the ability to catch its own seeded bugs.
#[cfg(feature = "model-check")]
fn cmd_check(flags: &HashMap<String, String>) -> Result<(String, i32), String> {
    use sweep_analyze::{ConcurrencyFinding, ConcurrencyFindingKind, ModelCheckRun};
    use sweep_check::{explore, Config, ExploreReport, FindingKind};

    /// Flattens an exploration into the analyzer's plain-data shape:
    /// the schedule finding (if any) plus one finding per lock-order
    /// cycle. Lost wakeups in single-flight models are the protocol's
    /// liveness violation (SW027 rather than SW026); replay divergence
    /// is model nondeterminism, the same defect class as SW023.
    fn to_run(r: &ExploreReport) -> ModelCheckRun {
        let single_flight = r.model.contains("single-flight");
        let mut findings = Vec::new();
        if let Some(f) = &r.finding {
            let kind = match f.kind {
                FindingKind::Deadlock => ConcurrencyFindingKind::Deadlock,
                FindingKind::DoubleLock => ConcurrencyFindingKind::DoubleLock,
                FindingKind::LostWakeup if single_flight => {
                    ConcurrencyFindingKind::SingleFlightStall
                }
                FindingKind::LostWakeup => ConcurrencyFindingKind::LostWakeup,
                FindingKind::LockOrderCycle => ConcurrencyFindingKind::LockOrderCycle,
                FindingKind::ModelPanic | FindingKind::ReplayDivergence => {
                    ConcurrencyFindingKind::NonLinearizable
                }
                FindingKind::StepBound => ConcurrencyFindingKind::StepBound,
            };
            // The engine's message already names the finding class
            // (`FindingKind::as_str` is for programmatic consumers).
            findings.push(ConcurrencyFinding {
                kind,
                message: f.message.clone(),
                witness: f.witness.clone(),
            });
        }
        for cycle in &r.lock_cycles {
            findings.push(ConcurrencyFinding {
                kind: ConcurrencyFindingKind::LockOrderCycle,
                message: format!("lock-order cycle: {}", cycle.classes.join(" -> ")),
                witness: cycle.witnesses.clone(),
            });
        }
        ModelCheckRun {
            model: r.model.clone(),
            executions: r.executions,
            steps: r.steps,
            complete: r.complete,
            findings,
        }
    }

    let defaults = Config::default();
    let cfg = Config {
        max_executions: get(flags, "max-executions", defaults.max_executions)?,
        max_steps: get(flags, "max-steps", defaults.max_steps)?,
        random_schedules: get(flags, "schedules", 64)?,
        seed: get(flags, "seed", defaults.seed)?,
    };

    let fixtures = flags.contains_key("fixtures");
    let explorations: Vec<ExploreReport> = if fixtures {
        sweep_check::fixtures::FIXTURES
            .iter()
            .map(|f| explore(f.name, &cfg, f.body))
            .collect()
    } else {
        // The production kernels, run exactly as shipped — the models
        // in `sweep_pool::model` / `sweep_serve::model` call the same
        // range-splitting and single-flight code the pool and server
        // use.
        let models: [(&str, fn()); 6] = [
            ("pool.range.drain", sweep_pool::model::drain_exactly_once),
            (
                "pool.range.contended",
                sweep_pool::model::contended_single_task,
            ),
            ("pool.range.steal-race", sweep_pool::model::contended_steal),
            (
                "serve.single-flight.coalesce",
                sweep_serve::model::single_flight_coalesce,
            ),
            (
                "serve.single-flight.leader-panic",
                sweep_serve::model::single_flight_leader_panic,
            ),
            (
                "serve.single-flight.nested-tiers",
                sweep_serve::model::single_flight_nested_tiers,
            ),
        ];
        models
            .into_iter()
            .map(|(name, body)| explore(name, &cfg, body))
            .collect()
    };

    if fixtures {
        if let Some(clean) = explorations.iter().find(|r| !r.has_finding()) {
            return Err(format!(
                "fixture '{}' came back clean after {} execution(s) — the checker \
                 failed to catch its own seeded bug",
                clean.model, clean.executions,
            ));
        }
    }

    let runs: Vec<ModelCheckRun> = explorations.iter().map(to_run).collect();
    render_report(flags, &sweep_analyze::analyze_model_checks(&runs))
}

/// Without the `model-check` feature there is nothing to drive — the
/// sync shim compiles straight to `std::sync` re-exports — so the
/// subcommand only explains how to get the instrumented build.
#[cfg(not(feature = "model-check"))]
fn cmd_check(flags: &HashMap<String, String>) -> Result<(String, i32), String> {
    let _ = flags;
    Err("`sweep check` needs the instrumented build: rerun as \
         `cargo run -p sweep-cli --features model-check -- check` \
         (plain builds compile the sync shim straight to std::sync, \
         so there is no scheduler to drive)"
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that enable the global telemetry collector must not overlap
    /// (cargo's test harness is multithreaded and the collector is
    /// process-wide); they also tolerate spans recorded by unrelated
    /// concurrent tests by asserting lower bounds / membership only.
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_on_empty_and_help_command() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&args(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn serve_is_in_help_and_rejects_a_bad_bind_address() {
        assert!(HELP.contains("serve"));
        assert!(run(&args(&["serve", "--addr", "not-an-address"]))
            .unwrap_err()
            .contains("bind"));
    }

    #[test]
    fn serve_cluster_flags_come_as_a_pair() {
        assert!(HELP.contains("--cluster FILE --self-id N"));
        assert!(run(&args(&["serve", "--cluster", "members.txt"]))
            .unwrap_err()
            .contains("--self-id"));
        assert!(run(&args(&["serve", "--self-id", "0"]))
            .unwrap_err()
            .contains("--cluster"));
        assert!(run(&args(&[
            "serve",
            "--cluster",
            "/no/such/file",
            "--self-id",
            "0"
        ]))
        .unwrap_err()
        .contains("/no/such/file"));
    }

    #[test]
    fn top_renders_the_per_shard_cluster_row() {
        let members = vec![sweep_serve::Member {
            id: 0,
            http_addr: "127.0.0.1:0".to_string(),
            rpc_addr: "127.0.0.1:0".to_string(),
        }];
        let server = sweep_serve::Server::bind(sweep_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            access_log: sweep_serve::AccessLogSink::Null,
            cluster: Some(sweep_serve::ClusterConfig::new(0, members)),
            ..sweep_serve::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run());

        let frame = run(&args(&[
            "top",
            "--url",
            &format!("http://{addr}"),
            "--count",
            "1",
            "--plain",
        ]))
        .unwrap();
        handle.shutdown();
        join.join().unwrap().unwrap();
        assert!(frame.contains("cluster  shard   0"), "{frame}");
        assert!(frame.contains("forwards"), "{frame}");
        assert!(frame.contains("fallbacks"), "{frame}");
    }

    #[test]
    fn top_renders_a_dashboard_frame_against_a_live_server() {
        assert!(HELP.contains("top"));
        let server = sweep_serve::Server::bind(sweep_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            access_log: sweep_serve::AccessLogSink::Null,
            ..sweep_serve::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run());

        // Generate one traced request so the stage table has data.
        http_get(&addr.to_string(), "/healthz").unwrap();
        let frame = run(&args(&[
            "top",
            "--url",
            &format!("http://{addr}"),
            "--count",
            "1",
            "--plain",
        ]))
        .unwrap();
        handle.shutdown();
        join.join().unwrap().unwrap();
        assert!(frame.contains("sweep top"), "{frame}");
        assert!(frame.contains("hit rate"), "{frame}");
        assert!(frame.contains("tier1"), "{frame}");
        for stage in telemetry::STAGES {
            assert!(frame.contains(stage), "{frame}");
        }
        // `top` against a dead port is a clean error, not a hang.
        let err = run(&args(&[
            "top",
            "--url",
            "http://127.0.0.1:1",
            "--count",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }

    #[test]
    fn check_is_in_help() {
        assert!(HELP.contains("check      [--fixtures]"));
        assert!(HELP.contains("--features model-check"));
    }

    #[cfg(not(feature = "model-check"))]
    #[test]
    fn check_without_the_feature_explains_the_rebuild() {
        let err = run(&args(&["check"])).unwrap_err();
        assert!(err.contains("--features model-check"), "{err}");
    }

    #[cfg(feature = "model-check")]
    mod check_cmd {
        use super::*;

        #[test]
        fn check_passes_on_the_production_kernels() {
            let (out, status) = run_with_status(&args(&[
                "check",
                "--schedules",
                "8",
                "--max-executions",
                "50000",
            ]))
            .unwrap();
            assert_eq!(status, 0, "{out}");
            for model in [
                "pool.range.drain",
                "pool.range.contended",
                "pool.range.steal-race",
                "serve.single-flight.coalesce",
                "serve.single-flight.leader-panic",
                "serve.single-flight.nested-tiers",
            ] {
                assert!(out.contains(model), "missing {model} in:\n{out}");
            }
            assert!(out.contains("clean"), "{out}");
            assert!(out.contains("state space exhausted"), "{out}");
        }

        #[test]
        fn check_fixtures_hit_every_registry_code_and_exit_2() {
            let (out, status) =
                run_with_status(&args(&["check", "--fixtures", "--schedules", "0"])).unwrap();
            assert_eq!(status, 2, "{out}");
            // One seeded bug per code: deadlock (SW025), lost wakeup
            // (SW026), single-flight stall (SW027), non-linearizable
            // deque (SW023) — each with its witness schedule.
            for code in ["SW025", "SW026", "SW027", "SW023"] {
                assert!(out.contains(code), "missing {code} in:\n{out}");
            }
            assert!(out.contains("witness:"), "{out}");
            assert!(out.contains("lock-order cycle:"), "{out}");
        }

        #[test]
        fn check_renders_sarif_and_json() {
            let (sarif, status) = run_with_status(&args(&[
                "check",
                "--fixtures",
                "--schedules",
                "0",
                "--format",
                "sarif",
            ]))
            .unwrap();
            assert_eq!(status, 2);
            assert!(sarif.contains("SW027"), "{sarif}");
            let (json, status) = run_with_status(&args(&[
                "check",
                "--fixtures",
                "--schedules",
                "0",
                "--format",
                "json",
            ]))
            .unwrap();
            assert_eq!(status, 2);
            assert!(json.contains("SW026"), "{json}");
        }
    }

    #[test]
    fn mesh_command_reports() {
        let out = run(&args(&[
            "mesh",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--quality",
        ]))
        .unwrap();
        assert!(out.contains("315 cells"), "{out}");
        assert!(out.contains("quality:"));
        assert!(out.contains("connected = true"));
    }

    #[test]
    fn mesh_rejects_unknown_preset() {
        let err = run(&args(&["mesh", "--preset", "nope"])).unwrap_err();
        assert!(err.contains("unknown preset"));
    }

    #[test]
    fn stats_command_lists_directions() {
        let out = run(&args(&[
            "stats", "--preset", "tetonly", "--scale", "0.01", "--sn", "2",
        ]))
        .unwrap();
        assert!(out.contains("8 directions"), "{out}");
        assert!(out.lines().nth(1).unwrap().starts_with("heap "), "{out}");
        assert_eq!(out.lines().count(), 3 + 8);
    }

    #[test]
    fn schedule_command_all_algorithms() {
        for alg in [
            "rdp",
            "rd",
            "improved",
            "greedy",
            "level",
            "descendant",
            "dfds",
        ] {
            let out = run(&args(&[
                "schedule",
                "--preset",
                "tetonly",
                "--scale",
                "0.01",
                "--sn",
                "2",
                "--m",
                "8",
                "--algorithm",
                alg,
            ]))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.contains("makespan"), "{alg}: {out}");
            assert!(out.contains("C1 ="));
        }
    }

    #[test]
    fn every_algorithm_name_in_help_parses() {
        let listed = HELP.split("[--algorithm ").nth(1).expect("schedule usage");
        let names: Vec<&str> = listed[..listed.find(']').unwrap()].split('|').collect();
        assert_eq!(names.len(), 7, "{names:?}");
        for name in names {
            Algorithm::from_name(name, false).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let err = run(&args(&[
            "schedule",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--algorithm",
            "fastest",
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown algorithm 'fastest'");
    }

    #[test]
    fn schedule_with_blocks_and_gantt() {
        let out = run(&args(&[
            "schedule", "--preset", "tetonly", "--scale", "0.01", "--sn", "2", "--m", "4",
            "--block", "8", "--gantt",
        ]))
        .unwrap();
        assert!(out.contains("p0"), "gantt rows expected: {out}");
    }

    #[test]
    fn schedule_csv_round_trip() {
        let dir = std::env::temp_dir().join("sweep-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sched.csv");
        let out = run(&args(&[
            "schedule",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--csv",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote schedule CSV"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("cell,direction,processor,start"));
    }

    #[test]
    fn schedule_requires_m() {
        let err = run(&args(&[
            "schedule", "--preset", "tetonly", "--scale", "0.01",
        ]))
        .unwrap_err();
        assert!(err.contains("--m"));
    }

    #[test]
    fn transport_command_converges() {
        let out = run(&args(&[
            "transport",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--sigma-s",
            "0.3",
        ]))
        .unwrap();
        assert!(out.contains("converged = true"), "{out}");
    }

    #[test]
    fn transport_rejects_bad_material() {
        let err = run(&args(&[
            "transport",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sigma-s",
            "2.0",
        ]))
        .unwrap_err();
        assert!(err.contains("scattering"));
    }

    #[test]
    fn transport_rejects_non_finite_material() {
        for (flag, value) in [("--source", "nan"), ("--sigma-t", "inf")] {
            let err = run(&args(&[
                "transport",
                "--preset",
                "tetonly",
                "--scale",
                "0.005",
                "--sn",
                "2",
                flag,
                value,
            ]))
            .unwrap_err();
            assert!(err.contains("must be finite"), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn transport_mean_is_finite_when_every_flux_is() {
        // The fluxes sum past f64::MAX while each stays finite.
        let out = run(&args(&[
            "transport",
            "--preset",
            "tetonly",
            "--scale",
            "0.005",
            "--sn",
            "2",
            "--source",
            "1e308",
        ]))
        .unwrap();
        let field = |name: &str| -> f64 {
            let rest = out.split(&format!("{name} ")).nth(1).expect(name);
            let value = rest.split([',', '\n']).next().unwrap();
            value.parse().unwrap()
        };
        let (mean, max) = (field("mean"), field("max"));
        assert!(max.is_finite() && max > 1e307, "{out}");
        assert!(mean.is_finite() && mean > 0.0 && mean <= max, "{out}");
    }

    #[test]
    fn optimal_command_runs() {
        let out = run(&args(&["optimal", "--n", "6", "--k", "2", "--m", "3"])).unwrap();
        assert!(out.contains("OPT ="), "{out}");
    }

    fn example_mesh(name: &str) -> String {
        format!(
            "{}/../../examples/meshes/{name}",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn mesh_import_round_trips_example_meshes() {
        let dir = std::env::temp_dir().join("sweep-cli-import-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Clean .msh tets: no warnings, schedulable instance out.
        let inst = dir.join("cube.inst");
        let (out, status) = run_with_status(&args(&[
            "mesh",
            "import",
            &example_mesh("cube.msh"),
            "--sn",
            "2",
            "--out",
            inst.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("format msh: 8 vertices, 6 cells"), "{out}");
        assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");
        assert!(out.contains("0 cyclic directions"), "{out}");
        let sched = run(&args(&[
            "schedule",
            "--instance",
            inst.to_str().unwrap(),
            "--m",
            "2",
            "--algorithm",
            "greedy",
        ]))
        .unwrap();
        assert!(sched.contains("makespan"), "{sched}");
        // .obj surface: explicit format, SVG export works.
        let svg = dir.join("plate.svg");
        let (out, status) = run_with_status(&args(&[
            "mesh",
            "import",
            &example_mesh("plate.obj"),
            "--format",
            "obj",
            "--sn",
            "2",
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("format obj: 9 vertices, 8 cells"), "{out}");
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert_eq!(svg_text.matches("<polygon").count(), 8);
    }

    #[test]
    fn mesh_import_warped_finds_cycles_in_every_direction() {
        let dir = std::env::temp_dir().join("sweep-cli-warped-test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("warped-raw.inst");
        let (out, status) = run_with_status(&args(&[
            "mesh",
            "import",
            &example_mesh("warped.msh"),
            "--sn",
            "2",
            "--raw-out",
            raw.to_str().unwrap(),
        ]))
        .unwrap();
        // Hanging nodes warn (SW032) but do not fail the import.
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("SW032"), "{out}");
        assert!(out.contains("8 cyclic directions"), "{out}");
        // The raw (pre-repair) instance carries SW001 cycle witnesses.
        let (report, status) =
            run_with_status(&args(&["analyze", "--instance", raw.to_str().unwrap()])).unwrap();
        assert_eq!(status, 2, "{report}");
        assert!(report.contains("SW001"), "{report}");
    }

    #[test]
    fn mesh_import_rejects_bad_inputs() {
        let dir = std::env::temp_dir().join("sweep-cli-import-bad-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Missing file.
        let err = run(&args(&["mesh", "import", "/nonexistent.msh"])).unwrap_err();
        assert!(err.contains("reading"), "{err}");
        // Unknown --format value.
        let err = run(&args(&[
            "mesh",
            "import",
            &example_mesh("cube.msh"),
            "--format",
            "stl",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
        // Malformed content is a typed import error, not a panic.
        let bad = dir.join("bad.msh");
        std::fs::write(&bad, "$MeshFormat\n4.1 0 8\n").unwrap();
        let err = run(&args(&["mesh", "import", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("importing"), "{err}");
        // Error-level diagnostics (non-manifold) exit 2.
        let nm = dir.join("nm.obj");
        std::fs::write(
            &nm,
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 -1 0\nv 1 1 1\nf 1 2 3\nf 1 2 4\nf 1 2 5\n",
        )
        .unwrap();
        let (out, status) =
            run_with_status(&args(&["mesh", "import", nm.to_str().unwrap()])).unwrap();
        assert_eq!(status, 2, "{out}");
        assert!(out.contains("SW030"), "{out}");
    }

    #[test]
    fn optimal_rejects_large() {
        let err = run(&args(&["optimal", "--n", "50", "--k", "4", "--m", "3"])).unwrap_err();
        assert!(err.contains("limited"));
    }

    #[test]
    fn instance_export_and_reimport() {
        let dir = std::env::temp_dir().join("sweep-cli-inst-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.txt");
        let out = run(&args(&[
            "instance",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let stats = run(&args(&["stats", "--instance", path.to_str().unwrap()])).unwrap();
        assert!(stats.contains("8 directions"), "{stats}");
        let sched = run(&args(&[
            "schedule",
            "--instance",
            path.to_str().unwrap(),
            "--m",
            "4",
        ]))
        .unwrap();
        assert!(sched.contains("makespan"));
        // --block requires a mesh.
        let err = run(&args(&[
            "schedule",
            "--instance",
            path.to_str().unwrap(),
            "--m",
            "4",
            "--block",
            "8",
        ]))
        .unwrap_err();
        assert!(err.contains("needs a mesh"));
    }

    #[test]
    fn flag_parser_rejects_malformed() {
        assert!(run(&args(&["mesh", "preset", "tetonly"])).is_err());
        assert!(run(&args(&["mesh", "--preset"])).is_err());
    }

    #[test]
    fn usage_entries_give_each_command_its_flags() {
        let switches = |command| -> Vec<&str> {
            let flags = Usage::of(command).unwrap().flags.into_iter();
            flags.filter(|&(_, value)| !value).map(|(f, _)| f).collect()
        };
        let trace = Usage::of("trace").unwrap();
        assert_eq!(trace.operand, Some("preset"));
        assert_eq!(switches("trace"), ["delays"]);
        for flag in [
            "preset", "instance", "scale", "sn", "m", "seed", "latency", "threads",
        ] {
            assert_eq!(trace.takes_value(flag), Some(true), "{flag}");
        }
        let import = Usage::of("mesh import").unwrap();
        assert_eq!(import.operand, Some("file"));
        assert_eq!(import.takes_value("preset"), None);
        assert_eq!(
            switches("analyze"),
            ["demo-cycle", "delays", "async", "par-check"]
        );
        assert_eq!(switches("check"), ["fixtures"]);
        assert_eq!(Usage::of("check").unwrap().takes_value("features"), None);
        assert!(Usage::of("help").unwrap().flags.is_empty());
        assert!(Usage::of("frobnicate").is_none());
    }

    #[test]
    fn a_misspelled_flag_is_an_error_naming_the_command_flags() {
        let err = run(&args(&[
            "schedule",
            "--preset",
            "tetonly",
            "--m",
            "8",
            "--algoritm",
            "greedy",
        ]))
        .unwrap_err();
        assert!(err.contains("no flag --algoritm"), "{err}");
        assert!(err.contains("--m, --algorithm, --delays, --block"), "{err}");
        assert!(err.contains("global: --telemetry"), "{err}");
        // A flag another command takes is still foreign here.
        let err = run(&args(&["stats", "--preset", "tetonly", "--m", "4"])).unwrap_err();
        assert!(err.contains("`sweep stats` has no flag --m"), "{err}");
    }

    /// The `sweep` invocations in `text`, as a command and its arguments:
    /// the tokens after the binary up to the end of the shell command or
    /// of the inline code span. Backslash-continued lines are joined first.
    fn invocations(text: &str) -> Vec<(String, String, Usage)> {
        let joined = text.replace("\\\n", " ");
        let mut found = Vec::new();
        for line in joined.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (i, t) in tokens.iter().enumerate() {
                let t = t.trim_start_matches(['(', '`']);
                let cargo = t == "--" && tokens[..i].contains(&"sweep-cli");
                if !(cargo || t == "$B" || t == "sweep" || t.ends_with("/sweep")) {
                    continue;
                }
                let mut args = Vec::new();
                for t in &tokens[i + 1..] {
                    if t.starts_with(['|', '&', ';', '>', '#']) {
                        break;
                    }
                    let (arg, closed) = t.split_once('`').map_or((*t, false), |(a, _)| (a, true));
                    args.push(arg.trim_end_matches([')', ',', '.']));
                    if closed {
                        break;
                    }
                }
                let (command, rest) = match args.as_slice() {
                    ["mesh", "import", rest @ ..] => ("mesh import", rest),
                    [command, rest @ ..] => (*command, rest),
                    [] => continue,
                };
                // Prose such as "each sweep direction" names no command.
                if let Some(usage) = Usage::of(command) {
                    found.push((command.to_string(), rest.join(" "), usage));
                }
            }
        }
        found
    }

    #[test]
    fn every_documented_invocation_uses_only_its_command_flags() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let docs = [
            "README.md",
            "API.md",
            "MESHES.md",
            "EXPERIMENTS.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ];
        let (mut seen, mut bad) = (0, Vec::new());
        for doc in docs {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
            for (command, rest, usage) in invocations(&text) {
                seen += 1;
                let flags = rest.split(' ').filter_map(|a| {
                    let flag = a.trim_start_matches('[').strip_prefix("--")?;
                    Some(flag.trim_end_matches(']'))
                });
                for flag in flags.filter(|f| usage.takes_value(f).is_none()) {
                    bad.push(format!("{doc}: --{flag} in `sweep {command} {rest}`"));
                }
            }
        }
        assert!(seen > 60, "only {seen} invocations found");
        assert!(bad.is_empty(), "\n{}", bad.join("\n"));
    }

    #[test]
    fn analyze_demo_cycle_errors_in_all_formats() {
        for format in ["text", "json", "sarif"] {
            let (out, status) =
                run_with_status(&args(&["analyze", "--demo-cycle", "--format", format]))
                    .unwrap_or_else(|e| panic!("{format}: {e}"));
            assert_eq!(status, 2, "{format}: cyclic demo must fail the command");
            assert!(out.contains("SW001"), "{format}: {out}");
        }
        // The text rendering carries the witness cycle.
        let (out, _) = run_with_status(&args(&["analyze", "--demo-cycle"])).unwrap();
        assert!(out.contains("cycle: 1 -> 2 -> 3 -> 1"), "{out}");
    }

    #[test]
    fn analyze_preset_is_clean_and_exits_zero() {
        let (out, status) = run_with_status(&args(&[
            "analyze", "--preset", "tetonly", "--scale", "0.01", "--sn", "2", "--m", "4",
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("SW021"), "schedule should certify: {out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn analyze_async_reports_trace_stats() {
        let (out, status) = run_with_status(&args(&[
            "analyze",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--async",
            "--latency",
            "0.5",
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("async trace"), "{out}");
    }

    #[test]
    fn analyze_par_check_certifies_determinism() {
        let (out, status) = run_with_status(&args(&[
            "analyze",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--par-check",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("parallel execution certified"), "{out}");
        assert!(!out.contains("SW023"), "{out}");
        // Don't leak the 4-thread setting into other tests in this
        // process.
        sweep_pool::set_global_threads(0);
    }

    #[test]
    fn threads_flag_is_global_and_validated() {
        let (out, status) = run_with_status(&args(&[
            "schedule",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("makespan"), "{out}");
        let err = run(&args(&[
            "stats",
            "--preset",
            "tetonly",
            "--threads",
            "lots",
        ]))
        .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        sweep_pool::set_global_threads(0);
    }

    #[test]
    fn analyze_cyclic_instance_file_from_unchecked_parser() {
        let dir = std::env::temp_dir().join("sweep-cli-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cyclic.txt");
        std::fs::write(
            &path,
            "sweep-instance v1\nname cyc\ncells 3\ndirections 1\n\
             dag 0 edges 3\n0 1\n1 2\n2 0\nend\n",
        )
        .unwrap();
        let (out, status) = run_with_status(&args(&[
            "analyze",
            "--instance",
            path.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(status, 2);
        assert!(out.contains("\"trail\": [0, 1, 2, 0]"), "{out}");
        // The strict loader (schedule command) refuses the same file.
        let err = run(&args(&[
            "schedule",
            "--instance",
            path.to_str().unwrap(),
            "--m",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("cyclic"));
    }

    #[test]
    fn analyze_out_file_and_sarif_shape() {
        let dir = std::env::temp_dir().join("sweep-cli-sarif-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.sarif");
        let (out, status) = run_with_status(&args(&[
            "analyze",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--format",
            "sarif",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("wrote"));
        let sarif = std::fs::read_to_string(&path).unwrap();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("sweep-analyze"));
    }

    #[test]
    fn trace_default_text_report_covers_pipeline() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let out = run(&args(&["trace", "tetonly", "--scale", "0.01", "--sn", "2"])).unwrap();
        assert!(out.contains("trace tetonly"), "{out}");
        assert!(out.contains("-- telemetry --"), "{out}");
        for needle in ["mesh.build", "dag.induce", "sched.", "sim."] {
            assert!(out.contains(needle), "missing {needle}: {out}");
        }
    }

    #[test]
    fn trace_first_line_is_pinned() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let out = run(&args(&["trace", "tetonly", "--scale", "0.01", "--sn", "2"])).unwrap();
        assert_eq!(
            out.lines().next().unwrap(),
            "trace tetonly with random_delay_prio (2520 tasks, m = 8): makespan 433, \
             sync C2 time 1422.0, async makespan 436.0 (latency 1, 3768 messages)"
        );
    }

    #[test]
    fn trace_chrome_export_is_valid_and_multi_category() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join("sweep-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = run(&args(&[
            "trace",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--telemetry",
            "chrome",
            "--telemetry-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote telemetry (chrome)"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let info = telemetry::validate_chrome_trace(&text).unwrap();
        assert!(info.spans >= 4, "expected a real trace, got {}", info.spans);
        for cat in ["mesh", "dag", "sched", "sim"] {
            assert!(
                info.categories.iter().any(|c| c == cat),
                "missing category {cat}: {:?}",
                info.categories
            );
        }
    }

    #[test]
    fn trace_prometheus_export_has_counters_and_histograms() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let out = run(&args(&[
            "trace",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--telemetry",
            "prom",
        ]))
        .unwrap();
        telemetry::validate_prometheus(out.split("-- telemetry --\n").nth(1).unwrap()).unwrap();
        assert!(out.contains("sweep_sched_tasks_scheduled_total"), "{out}");
        assert!(out.contains("sweep_sim_async_msg_latency_count"), "{out}");
        assert!(out.contains("_bucket{le="), "{out}");
    }

    #[test]
    fn telemetry_flag_works_on_other_subcommands() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let out = run(&args(&[
            "schedule",
            "--preset",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--telemetry",
            "text",
        ]))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("-- telemetry --"), "{out}");
        assert!(out.contains("mesh.build"), "{out}");
    }

    #[test]
    fn telemetry_rejects_unknown_format() {
        let err = run(&args(&["trace", "tetonly", "--telemetry", "yaml"])).unwrap_err();
        assert!(err.contains("unknown telemetry format"), "{err}");
    }

    #[test]
    fn trace_requires_a_preset() {
        // Locked: even a failing `trace` resets the global collector.
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let err = run(&args(&["trace"])).unwrap_err();
        assert!(err.contains("--preset"), "{err}");
    }

    #[test]
    fn analyze_rejects_bad_format_and_lone_async() {
        assert!(run(&args(&["analyze", "--demo-cycle", "--format", "xml"]))
            .unwrap_err()
            .contains("unknown format"));
        assert!(run(&args(&["analyze", "--demo-cycle", "--async"]))
            .unwrap_err()
            .contains("--async needs --m"));
        assert!(run(&args(&["analyze", "--demo-cycle", "--par-check"]))
            .unwrap_err()
            .contains("--par-check needs --m"));
    }

    #[test]
    fn faults_text_report_certifies_and_exits_zero() {
        let (out, status) = run_with_status(&args(&[
            "faults",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--seed",
            "7",
            "--crash-rate",
            "0.3",
            "--drop-rate",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("faults tetonly"), "{out}");
        assert!(out.contains("degraded makespan"), "{out}");
        assert!(out.contains("certified (SW022"), "{out}");
    }

    #[test]
    fn faults_json_is_deterministic_and_degraded() {
        let cmd = [
            "faults",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--seed",
            "7",
            "--crash-rate",
            "0.3",
            "--drop-rate",
            "0.1",
            "--format",
            "json",
        ];
        let (a, status) = run_with_status(&args(&cmd)).unwrap();
        let (b, _) = run_with_status(&args(&cmd)).unwrap();
        assert_eq!(status, 0);
        assert_eq!(a, b, "same seed must reproduce the same FaultReport");
        assert!(a.contains("\"makespan\":"), "{a}");
        assert!(a.contains("\"fault_free_makespan\":"), "{a}");
        assert!(a.contains("\"recovered_tasks\":"), "{a}");
    }

    #[test]
    fn faults_zero_rates_match_fault_free_baseline() {
        let (out, status) = run_with_status(&args(&[
            "faults",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--seed",
            "3",
            "--crash-rate",
            "0",
            "--drop-rate",
            "0",
            "--dup-rate",
            "0",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(status, 0);
        // With an empty plan the degraded makespan equals the baseline:
        // the JSON carries the identical value for both keys.
        let grab = |key: &str| -> String {
            let tail = out.split(key).nth(1).unwrap();
            tail[1..tail.find(',').unwrap()].trim().to_string()
        };
        assert_eq!(
            grab("\"makespan\":"),
            grab("\"fault_free_makespan\":"),
            "{out}"
        );
        assert!(out.contains("\"crashed_procs\": []"), "{out}");
    }

    #[test]
    fn faults_curve_and_out_files() {
        let dir = std::env::temp_dir().join("sweep-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("report.json");
        let curve = dir.join("curve.csv");
        let (out, status) = run_with_status(&args(&[
            "faults",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--m",
            "4",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            json.to_str().unwrap(),
            "--curve",
            curve.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("wrote"), "{out}");
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"timeline\""), "{report}");
        let csv = std::fs::read_to_string(&curve).unwrap();
        assert!(csv.starts_with("rate,makespan"), "{csv}");
        assert_eq!(csv.lines().count(), 6, "5 rates + header: {csv}");
    }

    #[test]
    fn faults_rejects_bad_rates_and_format() {
        assert!(run(&args(&[
            "faults",
            "tetonly",
            "--scale",
            "0.01",
            "--sn",
            "2",
            "--crash-rate",
            "1.5",
        ]))
        .unwrap_err()
        .contains("crash_rate"));
        assert!(run(&args(&[
            "faults", "tetonly", "--scale", "0.01", "--sn", "2", "--format", "yaml",
        ]))
        .unwrap_err()
        .contains("unknown format"));
    }
}
