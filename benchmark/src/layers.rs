//! The per-layer numbers of a traced run. Between the traced passes
//! the driver calls each crate's public functions one at a time — on
//! the workload's own instance shape — inside spans, and reports each
//! at its least-disturbed of a few repetitions (the estimator of the
//! end-to-end statistics), normalised per cell / task / byte / item.
//! Server-side stage times are not the driver's to measure: they are
//! read from the program's own `Server-Timing` header.
//!
//! Every traced run prints every per-layer name, whatever the
//! workload: the benchmark's contract wants every declared metric from
//! every traced run, measured. The prices are taken on the workload's
//! own shape because the reconciliation holds their sum against the
//! workload's own op.

use std::time::Instant;

use sweep_core::{
    best_of_trials_with_pool, c1_interprocessor_edges, c2_comm_delay, delayed_level_priorities,
    lower_bounds, random_delays, to_csv, validate, Algorithm, Assignment, TrialContext,
    TrialScratch,
};
use sweep_dag::{from_text, induce_all, to_text, SweepInstance};
use sweep_mesh::{import_bytes, ImportFormat, MeshPreset, SweepMesh as _};
use sweep_partition::edge_cut;
use sweep_pool::ThreadPool;
use sweep_serve::{ScheduleRequest, ServiceConfig, SweepService};
use sweep_sim::async_makespan;

use crate::harness::Timed;
use crate::report::Metric;
use crate::spans::{reconcile, to_chrome_trace, Span, Tracer};
use crate::stats::{midmean, percentile};
use crate::workloads::kernel::ASSIGNMENT_SEED;
use crate::workloads::pipeline::{partition_blocks, WARPED_MSH};
use crate::workloads::serve::{self, Booted, EXCHANGE_SPAN, STAGE_SPANS};
use crate::workloads::{s4, Workload};

/// How far the measured op may sit outside the price its composition
/// puts on it before `check` calls the layers unreconciled.
pub const EXPLAINED_TOLERANCE: f64 = 0.05;

/// The instance shape a workload's layer probes run on.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Tetonly scale.
    pub scale: f64,
    /// Processors.
    pub m: usize,
    /// Block assignment (`random_blocks` over 64-cell blocks) instead of
    /// `random_cells`.
    pub blocks: bool,
    /// Pool width the workload runs at.
    pub width: usize,
    /// The algorithm whose `TrialContext` the workload builds.
    pub ctx: Algorithm,
}

/// What a traced run adds to the record.
pub struct Layered {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Whether every `Server-Timing` stage sum stayed within its
    /// client's latency: the program's own telemetry is consistent.
    pub stages_consistent: bool,
    /// Whether the composition prices the measured op to within
    /// [`EXPLAINED_TOLERANCE`].
    pub reconciled: bool,
    /// Remarks for the human-readable table.
    pub notes: Vec<String>,
    /// The spans as a Chrome `trace_event` document.
    pub chrome_trace: String,
}

/// Runs `f` in a `name` span; returns its result and wall time in ns.
fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = tr.leaf(name, f);
    (out, started.elapsed().as_nanos() as f64)
}

struct Out(Vec<Metric>);

impl Out {
    /// Records a measurement; a name measured before keeps its smaller
    /// value — the least-disturbed repetition (see `Timed::best_ms`).
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = m.value.min(value),
            None => self.0.push(Metric::new(name, value, unit)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

/// The driver's direct calls into the crates' public functions, on the
/// workload's own instance shape. One [`Probes::round`] calls each
/// function once; the traced run makes a round after every third
/// timed pass, so the probes and the ops they are held against sample
/// the same stretches of the host, and each probe reports its
/// least-disturbed round.
pub struct Probes {
    spec: ProbeSpec,
    seed: u64,
    tracer: Tracer,
    out: Out,
    rounds: u64,
    /// `TrialScratch` growth after its warm-up trial, all rounds.
    grow_events: u64,
    /// Least `best_of_trials` wall at pool width 1 and 2, ns.
    bot_ns: [f64; 2],
}

impl Probes {
    /// Probes for one traced run; `epoch` is the run's span epoch.
    pub fn new(spec: ProbeSpec, seed: u64, epoch: Instant) -> Probes {
        Probes {
            spec,
            seed,
            tracer: Tracer::new(true, epoch, 8),
            out: Out(Vec::new()),
            rounds: 0,
            grow_events: 0,
            bot_ns: [f64::INFINITY; 2],
        }
    }

    /// One call into every probed function.
    pub fn round(&mut self) {
        self.rounds += 1;
        self.library();
        self.service();
        // The next pass runs at the workload's width again.
        sweep_pool::set_global_threads(self.spec.width);
    }

    /// Calls into `mesh`, `dag`, `partition`, `core`, `pool` and `sim`.
    fn library(&mut self) {
        let Probes {
            spec,
            seed,
            tracer: tr,
            out,
            rounds,
            grow_events,
            bot_ns,
        } = self;
        let (spec, seed, round) = (*spec, *seed, *rounds);
        sweep_pool::set_global_threads(spec.width);
        let quad = s4();

        // mesh
        let (mesh, ns) = timed(tr, "mesh.build", || {
            MeshPreset::Tetonly
                .build_scaled(spec.scale)
                .expect("tetonly builds")
        });
        let cells = mesh.num_cells() as f64;
        out.push("mesh.build.ns_per_cell", ns / cells, "ns");
        let ((xadj, adjncy), ns) = timed(tr, "mesh.adjacency", || mesh.adjacency_csr());
        out.push("mesh.adjacency.ns_per_cell", ns / cells, "ns");
        let (imported, ns) = timed(tr, "mesh.import", || {
            import_bytes(WARPED_MSH, ImportFormat::Msh).expect("warped.msh imports")
        });
        out.push(
            "mesh.import.ns_per_byte",
            ns / WARPED_MSH.len() as f64,
            "ns",
        );

        // dag
        let (instance, ns) = timed(tr, "dag.induce", || {
            let (dags, _) = induce_all(&mesh, &quad);
            SweepInstance::new(mesh.num_cells(), dags, "tetonly")
        });
        let tasks = instance.num_tasks() as f64;
        out.push("dag.induce.ns_per_task", ns / tasks, "ns");
        let ((warped, stats), ns) = timed(tr, "dag.induce_cyclic", || {
            SweepInstance::from_mesh(&imported.mesh, &quad, "warped")
        });
        out.push(
            "dag.induce_cyclic.ns_per_task",
            ns / warped.num_tasks() as f64,
            "ns",
        );
        let dropped: usize = stats.iter().map(|s| s.dropped_edges).sum();
        out.push("dag.induce_cyclic.dropped_edges", dropped as f64, "count");
        let (_, ns) = timed(tr, "dag.levels", || instance.all_levels());
        out.push("dag.levels.ns_per_task", ns / tasks, "ns");
        let (_, ns) = timed(tr, "dag.text", || {
            from_text(&to_text(&instance)).expect("instance text round-trips")
        });
        out.push("dag.text.ns_per_task", ns / tasks, "ns");

        // partition
        let ((graph, blocks), ns) = timed(tr, "partition.block", || partition_blocks(xadj, adjncy));
        out.push("partition.block.ns_per_cell", ns / cells, "ns");
        out.push(
            "partition.block.edge_cut",
            edge_cut(&graph, &blocks) as f64,
            "count",
        );

        // core: assignment, trial fast path, the winner's re-run.
        // The assignment is part of the instance, not of the run (see
        // `kernel::ASSIGNMENT_SEED`); the run seed draws the delays.
        let (assignment, ns) = timed(tr, "core.assign", || {
            if spec.blocks {
                Assignment::random_blocks(&blocks, spec.m, ASSIGNMENT_SEED)
            } else {
                Assignment::random_cells(mesh.num_cells(), spec.m, ASSIGNMENT_SEED)
            }
        });
        out.push("core.assign.ns_per_cell", ns / cells, "ns");
        let (_, ns) = timed(tr, "core.ctx", || {
            TrialContext::new(&instance, &assignment, spec.ctx);
        });
        out.push("core.ctx.ns_per_task", ns / tasks, "ns");
        for (algorithm, span) in [
            (Algorithm::RandomDelayPriorities, "core.trial_rdp"),
            (Algorithm::RandomDelay, "core.trial_rd"),
            (Algorithm::Greedy, "core.trial_greedy"),
        ] {
            let ctx = TrialContext::new(&instance, &assignment, algorithm);
            let mut scratch = TrialScratch::new();
            ctx.run_trial(rand::split_seed(seed, 0), &mut scratch);
            let warmed = scratch.grow_events();
            let (_, ns) = timed(tr, span, || {
                ctx.run_trial(rand::split_seed(seed, round), &mut scratch)
            });
            out.push(&format!("{span}.ns_per_task_trial"), ns / tasks, "ns");
            *grow_events += scratch.grow_events() - warmed;
        }
        let (schedule, ns) = timed(tr, "core.rematerialize", || {
            Algorithm::RandomDelayPriorities.run(&instance, assignment.clone(), seed)
        });
        out.push("core.rematerialize.ns_per_task", ns / tasks, "ns");

        // core: one allocating `Algorithm::run` of every other family
        for (algorithm, span) in [
            (Algorithm::RandomDelay, "core.run_rd"),
            (Algorithm::Greedy, "core.run_greedy"),
            (Algorithm::LevelPriority { delays: false }, "core.run_level"),
            (
                Algorithm::LevelPriority { delays: true },
                "core.run_level_d",
            ),
            (
                Algorithm::DescendantPriority { delays: true },
                "core.run_descendant_d",
            ),
            (Algorithm::Dfds { delays: true }, "core.run_dfds_d"),
            (Algorithm::ImprovedRandomDelay, "core.run_improved"),
            (Algorithm::ImprovedWithPriorities, "core.run_improved_prio"),
        ] {
            let (_, ns) = timed(tr, span, || {
                algorithm.run(&instance, assignment.clone(), seed)
            });
            out.push(&format!("{span}.ns_per_task_trial"), ns / tasks, "ns");
        }

        // core: the Theorem-2 scan term and the post-processing passes
        out.push(
            "core.kernel.tm_over_nk",
            f64::from(schedule.makespan()) * spec.m as f64 / tasks,
            "ratio",
        );
        let (_, ns) = timed(tr, "core.validate", || {
            validate(&instance, &schedule).expect("feasible")
        });
        out.push("core.validate.ns_per_task", ns / tasks, "ns");
        let (_, ns) = timed(tr, "core.bounds", || lower_bounds(&instance, spec.m));
        out.push("core.bounds.ns_per_task", ns / tasks, "ns");
        let (_, ns) = timed(tr, "core.c1c2", || {
            (
                c1_interprocessor_edges(&instance, &assignment),
                c2_comm_delay(&instance, &schedule),
            )
        });
        out.push("core.c1c2.ns_per_task", ns / tasks, "ns");
        let (_, ns) = timed(tr, "core.csv", || to_csv(&instance, &schedule));
        out.push("core.csv.ns_per_task", ns / tasks, "ns");

        // pool
        const ITEMS: usize = 1 << 16;
        let pools = [ThreadPool::new(1), ThreadPool::new(2)];
        let (_, ns) = timed(tr, "pool.par_map", || pools[1].par_map_range(ITEMS, |_| ()));
        out.push("pool.par_map.ns_per_item", ns / ITEMS as f64, "ns");
        let [w1_ns, w2_ns] = bot_ns;
        for (pool, span, least) in [
            (&pools[0], "pool.bot_w1", w1_ns),
            (&pools[1], "pool.bot_w2", w2_ns),
        ] {
            let (_, ns) = timed(tr, span, || {
                best_of_trials_with_pool(
                    pool,
                    &instance,
                    &assignment,
                    Algorithm::RandomDelayPriorities,
                    8,
                    seed,
                )
            });
            *least = least.min(ns);
        }

        // sim: outside every timed op; guards the async engine's cost
        let priority = delayed_level_priorities(&instance, &random_delays(quad.len(), seed));
        let (_, ns) = timed(tr, "sim.async", || {
            async_makespan(&instance, &assignment, &priority, None, 0.5)
        });
        out.push("sim.async.ns_per_task", ns / tasks, "ns");
    }

    /// Direct calls into the service layer on the serve request shape:
    /// request parsing, the whole hit path without HTTP, rendering.
    fn service(&mut self) {
        let (tr, out) = (&mut self.tracer, &mut self.out);
        let body = serve::schedule_body(serve::SCALE, self.seed % 1_000_000);
        let service = SweepService::new(ServiceConfig::default());
        let cold = ScheduleRequest::from_json(&body).expect("well-formed body");
        service.schedule(&cold).expect("cold schedule");
        // Calls of microseconds: a few per round, the least one kept.
        for _ in 0..5 {
            let (request, ns) = timed(tr, "serve.request_parse", || {
                ScheduleRequest::from_json(&body).expect("well-formed body")
            });
            out.push("serve.request_parse.us", ns / 1e3, "us");
            let (response, ns) = timed(tr, "serve.service_hit", || {
                service.schedule(&request).expect("hit")
            });
            assert!(response.cache_hit, "a repeated schedule call must hit");
            out.push("serve.service_hit.us", ns / 1e3, "us");
            let (_, ns) = timed(tr, "serve.render", || response.render_json());
            out.push("serve.render.us", ns / 1e3, "us");
        }
    }

    /// Closes the probes: the figures that need all rounds.
    fn finish(mut self) -> (Out, Tracer) {
        self.out
            .push("core.scratch.grow_events", self.grow_events as f64, "count");
        self.out
            .push("pool.speedup_w2", self.bot_ns[0] / self.bot_ns[1], "ratio");
        self.out.push(
            "pool.nproc",
            sweep_pool::available_threads() as f64,
            "count",
        );
        (self.out, self.tracer)
    }
}

/// `Server-Timing` stage durations and client latencies (µs) of a set
/// of exchange span trees, hits and misses apart.
#[derive(Default)]
struct Exchanges {
    /// Per stage, in [`STAGE_SPANS`] order; index 0: misses, 1: hits.
    stages: [[Vec<f64>; 5]; 2],
    /// Exchange latency − stage sum; index as above.
    http: [Vec<f64>; 2],
    /// Exchanges whose stage sum exceeded the client's latency.
    violations: u64,
}

impl Exchanges {
    /// Adds every exchange of one span lane. A miss is an exchange
    /// whose `schedule` stage did any work.
    fn add(&mut self, spans: &[Span]) {
        const SCHEDULE: usize = 3;
        for (i, s) in spans.iter().enumerate() {
            if s.name != EXCHANGE_SPAN {
                continue;
            }
            // The synthetic stage children directly follow their (leaf)
            // exchange span.
            let mut durs = [0u64; 5];
            for c in spans[i + 1..]
                .iter()
                .take_while(|c| STAGE_SPANS.contains(&c.name))
            {
                let slot = STAGE_SPANS
                    .iter()
                    .position(|n| *n == c.name)
                    .expect("filtered above");
                durs[slot] = c.end_ns - c.start_ns;
            }
            let sum: u64 = durs.iter().sum();
            if sum == 0 {
                // An untraced exchange: the header carries zeros.
                continue;
            }
            let latency = s.end_ns - s.start_ns;
            self.violations += u64::from(sum > latency);
            let hit = usize::from(durs[SCHEDULE] == 0);
            for (slot, d) in durs.iter().enumerate() {
                self.stages[hit][slot].push(*d as f64 / 1e3);
            }
            self.http[hit].push(latency.saturating_sub(sum) as f64 / 1e3);
        }
    }
}

/// What the serve session measures beyond its spans.
struct Session {
    /// Least-disturbed latency of `GET /healthz`, µs: the HTTP floor.
    healthz_us: f64,
    /// Hit latency at `trace_sample_every` 1 ÷ at 0, − 1, both at
    /// their lower quartile.
    overhead_frac: f64,
}

/// The serve session every traced run ends with, on the workload's own
/// server or a probe server: 8 never-seen requests, each a traced miss
/// followed by 16 hits with request tracing alternately on and off (so
/// only the newest entry has to stay cached), then 33 `healthz` calls.
fn serve_session(server: &Booted, seed: u64, tr: &mut Tracer) -> Session {
    const MISSES: u64 = 8;
    const HITS_EACH: usize = 16;
    // Request seeds no workload uses.
    let base = 7_000_000 + (seed % 1_000_000) * MISSES;
    let mut latency_us = [Vec::new(), Vec::new()];
    for r in 0..MISSES {
        let raw = serve::post(&serve::schedule_body(serve::SCALE, base + r));
        server.set_tracing(true);
        server.traced_exchange(&raw, tr);
        for i in 0..HITS_EACH {
            let traced = i % 2 == 0;
            server.set_tracing(traced);
            let started = Instant::now();
            server.traced_exchange(&raw, tr);
            latency_us[usize::from(traced)].push(started.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    server.set_tracing(false);
    let healthz_ns = (0..33)
        .map(|_| {
            timed(tr, "serve.healthz", || {
                serve::exchange(server.addr, serve::HEALTHZ)
            })
            .1
        })
        .fold(f64::INFINITY, f64::min);
    Session {
        healthz_us: healthz_ns / 1e3,
        overhead_frac: percentile(&latency_us[1], 0.25) / percentile(&latency_us[0], 0.25) - 1.0,
    }
}

/// Assembles every per-layer metric of a traced run, the
/// reconciliation verdicts and the span file.
pub fn traced_metrics<W: Workload>(
    workload: &str,
    seed: u64,
    w: &W,
    timed: &Timed,
    probes: Probes,
) -> Layered {
    let rounds = probes.rounds;
    let (mut out, mut probe) = probes.finish();
    let mut notes = vec![format!("{rounds} probe rounds between the timed passes")];

    // The serve session runs on the workload's own server where there
    // is one; a library workload boots a probe server for it.
    let session_from = probe.spans().len();
    let probe_server;
    let server = match w.server() {
        Some(own) => own,
        None => {
            sweep_pool::set_global_threads(2);
            probe_server = Booted::boot(64 << 20);
            &probe_server
        }
    };
    let session = serve_session(server, seed, &mut probe);
    let (stats, sheds) = (server.cache_stats(), server.sheds());

    // Stage figures: over every traced exchange of the run — the
    // workload's own ops and the session's — `induce` and `schedule`
    // from the misses, the rest from the hits.
    let mut exchanges = Exchanges::default();
    for lane in &timed.tracers {
        exchanges.add(lane.spans());
    }
    exchanges.add(&probe.spans()[session_from..]);
    const MISS: usize = 0;
    const HIT: usize = 1;
    for (slot, span) in STAGE_SPANS.iter().enumerate() {
        let from = if matches!(*span, "serve.induce" | "serve.schedule") {
            MISS
        } else {
            HIT
        };
        out.push(
            &format!("{span}.us"),
            midmean(&exchanges.stages[from][slot]),
            "us",
        );
    }
    out.push("serve.http.us", midmean(&exchanges.http[HIT]), "us");
    out.push("serve.healthz.us", session.healthz_us, "us");
    let stages_consistent = exchanges.violations == 0;
    if !stages_consistent {
        notes.push(format!(
            "{} exchanges report a Server-Timing stage sum above the client latency",
            exchanges.violations
        ));
    }
    let lookups = (stats.hits + stats.misses).max(1);
    out.push(
        "serve.cache.hit_rate",
        stats.hits as f64 / lookups as f64,
        "ratio",
    );
    out.push("serve.cache.evictions", stats.evictions as f64, "count");
    out.push("serve.cache.coalesced", stats.coalesced as f64, "count");
    out.push("serve.shed_429", sheds as f64, "count");
    out.push(
        "telemetry.trace_overhead_frac",
        session.overhead_frac,
        "ratio",
    );

    // The driver's own figures: the run as it came, disturbed or not.
    out.push("driver.op_raw_p50_ms", timed.op_raw_p50_ms(true), "ms");
    out.push("driver.op_p95_ms", timed.op_p95_ms(true), "ms");
    out.push("driver.ns_per_task_raw", timed.ns_per_task_raw(true), "ns");
    out.push("driver.drift_frac", timed.drift_frac(true), "ratio");
    out.push("driver.ops", timed.attempted as f64, "count");
    out.push("driver.passes", timed.passes.len() as f64, "count");
    out.push(
        "driver.pass_spread_frac",
        timed.pass_spread_frac(true),
        "ratio",
    );
    out.push(
        "driver.trace_overhead_frac",
        timed.trace_overhead_frac(),
        "ratio",
    );

    // Reconciliation: what the op is made of, priced by the probes
    // above (measured outside every op, on the same shape, each at its
    // least-disturbed round), against the op as the harness timed it
    // (each cycle position at its least-disturbed repetition). Units
    // the program hands to its pool cost between 1/width and all of
    // their serial price, whatever parallelism the host grants.
    let op_ns = timed.op_p50_ms(true) * 1e6;
    let width = w.probe_spec().width as f64;
    let (mut serial_ns, mut overlapped_ns) = (0.0, 0.0);
    let mut table = String::new();
    for (metric, units) in w.composition() {
        let ns = out.get(metric) * units;
        serial_ns += ns;
        overlapped_ns += if w.pooled().contains(&metric) {
            ns / width
        } else {
            ns
        };
        table.push_str(&format!(
            "\n  {metric:<40} {:>10.3} ms  {:>6.2} %",
            ns / 1e6,
            100.0 * ns / op_ns
        ));
    }
    let explained = serial_ns / op_ns;
    out.push("driver.layers_explained_frac", explained, "ratio");
    // NaN (a missing probe, no traced op) fails both comparisons.
    let reconciled = op_ns >= overlapped_ns * (1.0 - EXPLAINED_TOLERANCE)
        && op_ns <= serial_ns * (1.0 + EXPLAINED_TOLERANCE);
    notes.push(format!(
        "{workload}: the layer probes price the traced op_p50_ms ({:.3} ms) at {:.3} ms with \
         pooled units one after the other ({:.2} %) and {:.3} ms with them fully overlapped; \
         check wants the op within {:.0} % of that range:{table}",
        op_ns / 1e6,
        serial_ns / 1e6,
        100.0 * explained,
        overlapped_ns / 1e6,
        100.0 * EXPLAINED_TOLERANCE,
    ));
    let spans = reconcile(&timed.tracers);
    notes.push(format!(
        "self time under the {} op spans, by span name:\n{}",
        spans.ops,
        spans.render().trim_end()
    ));

    let mut lanes: Vec<&Tracer> = timed.tracers.iter().collect();
    lanes.push(&probe);
    Layered {
        metrics: out.0,
        stages_consistent,
        reconciled,
        notes,
        chrome_trace: to_chrome_trace(&lanes, workload),
    }
}
