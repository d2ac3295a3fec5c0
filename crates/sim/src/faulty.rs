//! The event-driven distributed execution engine — the one event loop of
//! this crate — under a deterministic [`FaultPlan`].
//!
//! [`async_makespan`] (`async_exec`, which also documents the execution
//! model) is this engine on [`FaultPlan::none`]; [`async_makespan_faulty`]
//! replays the same model on an imperfect cluster:
//!
//! * **Lossy links.** Every cross-processor face-flux message is sent
//!   through an ack/timeout/retry protocol: a delivery attempt may be
//!   dropped (per-attempt hash of the plan seed) or blocked by a
//!   transient link partition; the sender times out after
//!   `rto · 2^attempt` (exponential backoff, `rto = max(min_rto,
//!   2·latency)`) and retransmits. Duplicated deliveries are discarded
//!   at the receiver (exactly-once at the consumer), and per-message
//!   jitter models reordering.
//! * **Stragglers.** Tasks started inside a slowdown window take
//!   `factor ×` their nominal duration.
//! * **Crashes and recovery.** A crashed processor aborts its in-flight
//!   task and never works again. Every cell it owned with incomplete
//!   work is reassigned *whole* to the least-loaded survivor —
//!   preserving the paper's invariant that all `k` copies of a cell
//!   live on one processor in every surviving epoch — and the
//!   already-computed upstream fluxes those recovered tasks need are
//!   refetched from the durable flux store (modelled as a resend from
//!   each producer's processor, one failover timeout later).
//!
//! An empty plan injects nothing — no drop, jitter, slowdown or crash
//! event exists to order differently — so the fault-free execution is a
//! case of this loop, not a second loop kept in step with it; tier-1
//! `tests/extension_properties.rs` pins its makespans, message counts and
//! trace hashes. The engine emits a [`FaultReport`] (degraded makespan,
//! retry / recovery counters, bounded fault timeline) next to the usual
//! [`AsyncTrace`], which `sweep-analyze` certifies precedence-correct and
//! exactly-once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sweep_core::{task_in_degrees, Assignment};
use sweep_dag::{BitSet, SweepInstance, TaskId};
use sweep_faults::{FaultConfig, FaultKind, FaultPlan, FaultReport};
use sweep_telemetry as telemetry;

use crate::async_exec::{async_makespan, AsyncTrace, TraceExec, TraceMessage};

/// Retransmission attempts after which a delivery is forced through
/// (the link is considered healed). With per-attempt drop probability
/// `p < 1` the chance of reaching this is `p^64 ≈ 0`; it exists so a
/// pathological `drop_rate = 1` plan still terminates.
const MAX_ATTEMPTS: u32 = 64;

/// Simulation events `(time, kind, processor, payload)`, ordered by time.
/// Ties break readiness arrivals (0) before completions (1) — so inputs
/// arriving as a processor frees are visible to its next pick — before
/// crashes (2), then by processor and payload.
#[derive(PartialEq)]
struct Ev(f64, u8, u32, u64);
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Ev {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        let time = self.0.partial_cmp(&o.0).expect("finite times");
        time.then_with(|| (self.1, self.2, self.3).cmp(&(o.1, o.2, o.3)))
    }
}

struct Engine<'a> {
    instance: &'a SweepInstance,
    plan: &'a FaultPlan,
    priority: &'a [i64],
    weights: Option<&'a [u64]>,
    latency: f64,
    /// Retransmission timeout base (also the failover detection delay).
    rto: f64,
    n: usize,
    // --- mutable execution state -------------------------------------
    events: BinaryHeap<Reverse<Ev>>,
    ready: Vec<BinaryHeap<Reverse<(i64, u64)>>>,
    indeg: Vec<u32>,
    /// Latest input-arrival time per task.
    avail: Vec<f64>,
    /// Current owner of each cell (starts at the assignment, moves on
    /// crashes — always one processor per cell).
    owner: Vec<u32>,
    /// Cells currently owned per processor (failover balance).
    owned: Vec<u32>,
    alive: BitSet,
    idle: BitSet,
    completed: BitSet,
    started: BitSet,
    /// Where each completed task ran.
    exec_proc: Vec<u32>,
    /// In-flight task per processor: `(task, finish, trace index)`.
    current: Vec<Option<(u64, f64, usize)>>,
    /// Trace indices of executions aborted by a crash (removed at the
    /// end — an aborted run never completed).
    aborted: Vec<usize>,
    done: usize,
    trace: AsyncTrace,
    /// Counters, timeline, and the running `makespan` and `busy` times.
    report: FaultReport,
}

impl<'a> Engine<'a> {
    fn dur(&self, v: u32) -> f64 {
        self.weights.map_or(1.0, |w| w[v as usize] as f64)
    }

    fn cell_of(&self, task: u64) -> u32 {
        (task % self.n as u64) as u32
    }

    /// Try to start work on (alive, idle) processor `p` at `now`,
    /// skipping stale queue entries (completed / already started /
    /// reassigned away).
    fn start_if_possible(&mut self, p: usize, now: f64) {
        if !self.alive.contains(p) || !self.idle.contains(p) {
            return;
        }
        while let Some(Reverse((_, task))) = self.ready[p].pop() {
            let ti = task as usize;
            if self.completed.contains(ti) || self.started.contains(ti) {
                continue;
            }
            let v = self.cell_of(task);
            if self.owner[v as usize] != p as u32 {
                continue;
            }
            let mut d = self.dur(v);
            let factor = self.plan.slowdown_factor(p as u32, now);
            if factor != 1.0 {
                d *= factor;
                self.report.slowed_tasks += 1;
                let dir = task / self.n as u64;
                self.report.record(
                    now,
                    p as u32,
                    FaultKind::SlowTask,
                    format!("task (cell {v}, dir {dir}) slowed {factor}x"),
                );
            }
            self.started.insert(ti);
            self.idle.remove(p);
            self.report.busy[p] += d;
            let idx = self.trace.execs.len();
            self.trace.execs.push(TraceExec {
                task,
                proc: p as u32,
                start: now,
                finish: now + d,
            });
            self.current[p] = Some((task, now + d, idx));
            self.events.push(Reverse(Ev(now + d, 1, p as u32, task)));
            return;
        }
    }

    /// Delivers the flux `from → wt` from processor `p` (sent at `t`)
    /// to processor `q` through the lossy link, simulating the
    /// ack/timeout/retry protocol, and returns the arrival time of the
    /// first successful attempt.
    fn deliver(&mut self, from: u64, p: usize, t: f64, wt: usize, q: usize) -> f64 {
        let mut send = t;
        let mut attempt = 0u32;
        loop {
            let dropped = attempt < MAX_ATTEMPTS
                && (self.plan.drops_attempt(from, wt as u64, attempt)
                    || self.plan.partitioned(p as u32, q as u32, send));
            if !dropped {
                // Jitter is exactly `0.0` on a plan without it.
                let arrive = send + self.latency + self.plan.jitter_of(from, wt as u64, attempt);
                self.report.messages += 1;
                self.trace.messages.push(TraceMessage {
                    from_task: from,
                    from_proc: p as u32,
                    send,
                    to_task: wt as u64,
                    to_proc: q as u32,
                    arrive,
                });
                if self.plan.duplicates(from, wt as u64) {
                    self.report.redeliveries += 1;
                    self.report.record(
                        arrive,
                        q as u32,
                        FaultKind::Duplicate,
                        format!("duplicate flux of task {from} discarded"),
                    );
                }
                return arrive;
            }
            self.report.dropped += 1;
            self.report.retries += 1;
            self.report.record(
                send,
                p as u32,
                FaultKind::Drop,
                format!("flux of task {from} to proc {q} lost (attempt {attempt})"),
            );
            send += sweep_faults::backoff::delay(self.rto, attempt);
            attempt += 1;
        }
    }

    /// Processes a completion of `task` on alive processor `p` at `t`:
    /// notify successors, route cross-processor fluxes through the
    /// retry protocol, and start the next local task.
    fn complete(&mut self, p: usize, t: f64, task: u64) {
        let ti = task as usize;
        self.current[p] = None;
        self.idle.insert(p);
        self.completed.insert(ti);
        self.exec_proc[ti] = p as u32;
        self.report.makespan = self.report.makespan.max(t);
        self.done += 1;
        let (v, dir) = TaskId(task).unpack(self.n);
        // The `&'a` copied out of `self` lends the successor slice, so
        // the loop body is free to borrow `self` mutably.
        let instance = self.instance;
        for &w in instance.dag(dir as usize).successors(v) {
            let wt = TaskId::pack(w, dir, self.n).index();
            let wp = self.owner[w as usize] as usize;
            let arrives = if wp == p {
                t
            } else {
                self.deliver(task, p, t, wt, wp)
            };
            self.avail[wt] = self.avail[wt].max(arrives);
            self.indeg[wt] -= 1;
            if self.indeg[wt] == 0 {
                // Ready once the last-arriving input lands.
                if self.avail[wt] <= t && wp == p {
                    self.ready[p].push(Reverse((self.priority[wt], wt as u64)));
                } else {
                    self.events
                        .push(Reverse(Ev(self.avail[wt].max(t), 0, wp as u32, wt as u64)));
                }
            }
        }
        self.start_if_possible(p, t);
    }

    /// The surviving processor owning the fewest cells (ties: lowest
    /// id) — the failover target for a reassigned cell.
    fn pick_survivor(&self) -> u32 {
        self.alive
            .ones()
            .min_by_key(|&q| (self.owned[q], q))
            .expect("at least one survivor") as u32
    }

    /// Processes the crash of processor `p` at time `t`: abort its
    /// in-flight task, reassign every incomplete cell it owns to a
    /// survivor (whole cells — the one-processor-per-cell invariant),
    /// refetch the durable fluxes those tasks had already received, and
    /// re-enqueue recovered ready tasks one failover timeout later.
    fn crash(&mut self, p: usize, t: f64) {
        if !self.alive.contains(p) {
            return;
        }
        if self.alive.count_ones() <= 1 {
            self.report.record(
                t,
                p as u32,
                FaultKind::CrashSkipped,
                "planned crash skipped: last surviving processor".to_string(),
            );
            return;
        }
        self.alive.remove(p);
        self.report.crashed_procs.push(p as u32);
        self.report.record(
            t,
            p as u32,
            FaultKind::Crash,
            "processor crashed".to_string(),
        );
        if let Some((task, finish, idx)) = self.current[p].take() {
            let ti = task as usize;
            self.started.remove(ti);
            // Keep only the time actually burned on the doomed run.
            self.report.busy[p] -= finish - t;
            self.aborted.push(idx);
            self.report.record(
                t,
                p as u32,
                FaultKind::Abort,
                format!("in-flight task {task} aborted"),
            );
        }
        let instance = self.instance;
        let k = instance.num_directions();
        let detect = t + self.rto;
        for v in 0..self.n {
            if self.owner[v] != p as u32 {
                continue;
            }
            let incomplete: Vec<u32> = (0..k as u32)
                .filter(|&d| {
                    !self
                        .completed
                        .contains(TaskId::pack(v as u32, d, self.n).index())
                })
                .collect();
            if incomplete.is_empty() {
                continue; // fully swept cell: nothing to recover
            }
            let q = self.pick_survivor();
            self.owner[v] = q;
            self.owned[q as usize] += 1;
            self.report.reassigned_cells += 1;
            self.report.record(
                t,
                q,
                FaultKind::Reassign,
                format!("cell {v} reassigned from proc {p} to proc {q}"),
            );
            for d in incomplete {
                let wt = TaskId::pack(v as u32, d, self.n).index();
                self.report.recovered_tasks += 1;
                // Refetch already-produced inputs from the durable flux
                // store: anything the old owner had received (or
                // produced locally) died with it.
                let mut fetched = 0u32;
                for &u in instance.dag(d as usize).predecessors(v as u32) {
                    let ut = TaskId::pack(u, d, self.n).index();
                    if self.completed.contains(ut) && self.exec_proc[ut] != q {
                        self.report.messages += 1;
                        self.report.retries += 1;
                        self.trace.messages.push(TraceMessage {
                            from_task: ut as u64,
                            from_proc: self.exec_proc[ut],
                            send: detect,
                            to_task: wt as u64,
                            to_proc: q,
                            arrive: detect + self.latency,
                        });
                        fetched += 1;
                    }
                }
                if fetched > 0 {
                    self.report.record(
                        detect,
                        q,
                        FaultKind::Refetch,
                        format!("{fetched} flux input(s) of task {wt} refetched"),
                    );
                }
                let ready_at = if fetched > 0 {
                    detect + self.latency
                } else {
                    detect
                };
                self.avail[wt] = self.avail[wt].max(ready_at);
                if self.indeg[wt] == 0 && !self.started.contains(wt) {
                    self.events
                        .push(Reverse(Ev(self.avail[wt], 0, q, wt as u64)));
                }
            }
        }
    }
}

/// The event loop behind [`async_makespan`] (the empty plan) and
/// [`async_makespan_faulty`]: validates the inputs, runs `plan` to
/// completion and returns the report with the trace of *successful*
/// executions and *delivered* messages.
pub(crate) fn execute(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: &[i64],
    weights: Option<&[u64]>,
    latency: f64,
    plan: &FaultPlan,
) -> (FaultReport, AsyncTrace) {
    let n = instance.num_cells();
    let total = instance.num_tasks();
    assert_eq!(priority.len(), total, "one priority per task");
    assert!(latency >= 0.0, "latency must be non-negative");
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "one weight per cell");
        assert!(w.iter().all(|&x| x > 0), "weights must be positive");
    }
    let m = assignment.num_procs();
    let indeg: Vec<u32> = task_in_degrees(instance).collect();

    let mut ready: Vec<BinaryHeap<Reverse<(i64, u64)>>> = vec![BinaryHeap::new(); m];
    for t in 0..total as u64 {
        if indeg[t as usize] == 0 {
            let v = (t % n as u64) as u32;
            ready[assignment.proc_of(v) as usize].push(Reverse((priority[t as usize], t)));
        }
    }

    let mut owned = vec![0u32; m];
    for v in 0..n as u32 {
        owned[assignment.proc_of(v) as usize] += 1;
    }

    let mut engine = Engine {
        instance,
        plan,
        priority,
        weights,
        latency,
        rto: plan.min_rto.max(2.0 * latency),
        n,
        events: BinaryHeap::new(),
        ready,
        indeg,
        avail: vec![0.0f64; total],
        owner: assignment.as_slice().to_vec(),
        owned,
        alive: BitSet::full(m),
        idle: BitSet::full(m),
        completed: BitSet::new(total),
        started: BitSet::new(total),
        exec_proc: vec![u32::MAX; total],
        current: vec![None; m],
        aborted: Vec::new(),
        done: 0,
        trace: AsyncTrace::default(),
        report: FaultReport {
            busy: vec![0.0f64; m],
            ..FaultReport::default()
        },
    };

    // Every task runs once (more only after a crash): sized up front, the
    // trace is not copied as it grows — a fifth of the fault-free run.
    engine.trace.execs.reserve(total);
    for c in &plan.crashes {
        if (c.proc as usize) < m && c.at.is_finite() && c.at >= 0.0 {
            engine.events.push(Reverse(Ev(c.at, 2, c.proc, 0)));
        }
    }

    for p in 0..m {
        engine.start_if_possible(p, 0.0);
    }

    // Sampled once: the ready-depth probe vanishes when telemetry is off.
    let recording = telemetry::enabled();
    let mut ready_peak = 0usize;
    while let Some(Reverse(Ev(t, kind, p, payload))) = engine.events.pop() {
        if recording {
            ready_peak = ready_peak.max(engine.ready.iter().map(BinaryHeap::len).sum());
        }
        let pu = p as usize;
        match kind {
            0 => {
                // Readiness arrival: enqueue unless stale (dead target,
                // reassigned cell, duplicate, or already running).
                let ti = payload as usize;
                if !engine.alive.contains(pu)
                    || engine.completed.contains(ti)
                    || engine.started.contains(ti)
                {
                    continue;
                }
                let v = engine.cell_of(payload);
                if engine.owner[v as usize] != p {
                    continue;
                }
                engine.ready[pu].push(Reverse((engine.priority[ti], payload)));
                engine.start_if_possible(pu, t);
            }
            1 => {
                // Completion — unless the processor died mid-run (the
                // abort was handled by the crash; the task re-runs
                // elsewhere).
                if engine.alive.contains(pu) {
                    engine.complete(pu, t, payload);
                }
            }
            _ => engine.crash(pu, t),
        }
    }
    assert_eq!(
        engine.done, total,
        "all tasks must complete (recovery must cover every crash)"
    );

    // Drop aborted executions from the trace: they never completed.
    engine.aborted.sort_unstable_by(|a, b| b.cmp(a));
    for idx in engine.aborted.drain(..) {
        engine.trace.execs.remove(idx);
    }

    let mut report = engine.report;
    // Guard the empty instance (makespan 0): define utilization as 1.0,
    // consistent with `Schedule::utilization` — never NaN.
    report.utilization = if report.makespan > 0.0 {
        report.busy.iter().sum::<f64>() / (m as f64 * report.makespan)
    } else {
        1.0
    };
    if recording {
        telemetry::gauge_max("sim.async.ready_peak", ready_peak as f64);
    }
    (report, engine.trace)
}

/// [`async_makespan`] under a [`FaultPlan`]: lossy retried messaging,
/// stragglers, link partitions, crashes with work reassignment. Returns
/// the [`FaultReport`] and the trace of *successful* executions and
/// *delivered* messages (`sweep-analyze` certifies it).
///
/// `async_makespan` is this call on [`FaultPlan::none`] (the report's
/// `makespan`, `messages`, `busy` and `utilization`, and the same trace).
///
/// ```
/// use sweep_core::Assignment;
/// use sweep_dag::SweepInstance;
/// use sweep_faults::FaultPlan;
/// use sweep_sim::{async_makespan, async_makespan_faulty};
///
/// let inst = SweepInstance::random_layered(60, 4, 6, 2, 1);
/// let a = Assignment::random_cells(60, 8, 2);
/// let prio = vec![0i64; inst.num_tasks()];
/// let (fr, _) = async_makespan_faulty(&inst, &a, &prio, None, 0.5, &FaultPlan::none());
/// let base = async_makespan(&inst, &a, &prio, None, 0.5);
/// assert_eq!(fr.makespan, base.makespan);
/// assert_eq!(fr.messages, base.messages);
/// ```
///
/// # Panics
/// Panics on mismatched array lengths or negative latency, and if the
/// plan leaves tasks unrecoverable (a plan from [`FaultPlan::random`]
/// never does).
pub fn async_makespan_faulty(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: &[i64],
    weights: Option<&[u64]>,
    latency: f64,
    plan: &FaultPlan,
) -> (FaultReport, AsyncTrace) {
    let _span = telemetry::span!("sim.faulty.exec");
    let (report, trace) = execute(instance, assignment, priority, weights, latency, plan);
    telemetry::counter_add("sim.faulty.retries", report.retries);
    telemetry::counter_add("sim.faulty.redeliveries", report.redeliveries);
    telemetry::counter_add("sim.faulty.dropped", report.dropped);
    telemetry::counter_add("sim.faulty.recovered_tasks", report.recovered_tasks);
    telemetry::counter_add("sim.faulty.reassigned_cells", report.reassigned_cells);
    telemetry::counter_add("sim.faulty.crashes", report.crashed_procs.len() as u64);
    (report, trace)
}

/// Publishes the fault structure of a finished faulty run to the global
/// telemetry collector: each crash becomes a virtual-clock span from
/// the crash to the degraded makespan on the dead processor's track,
/// each slowdown window a span over its interval. No-op when telemetry
/// is disabled.
pub fn publish_fault_report(plan: &FaultPlan, report: &FaultReport) {
    if !telemetry::enabled() {
        return;
    }
    for &p in &report.crashed_procs {
        if let Some(at) = plan.crash_time(p) {
            let len = (report.makespan - at).max(0.0);
            telemetry::virtual_span("sim.faulty.crash_window", p, at, len);
        }
    }
    for w in &plan.slowdowns {
        telemetry::virtual_span(
            "sim.faulty.slowdown_window",
            w.proc,
            w.start,
            w.end - w.start,
        );
    }
}

/// One sample of a degradation curve: the makespan (and recovery cost)
/// at a given fault rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPoint {
    /// The injected crash/drop rate (x-axis).
    pub rate: f64,
    /// Degraded makespan under a plan sampled at that rate.
    pub makespan: f64,
    /// Fault-free makespan of the same configuration (same for every
    /// point).
    pub fault_free: f64,
    /// Retransmissions observed.
    pub retries: u64,
    /// Crash-recovered tasks observed.
    pub recovered_tasks: u64,
}

/// Measures `makespan(fault_rate)`: for each rate, samples a
/// [`FaultPlan`] from `cfg.at_rate(rate)` (horizon = the fault-free
/// makespan) and runs the faulty engine. Deterministic in `seed`.
#[allow(clippy::too_many_arguments)] // mirrors async_makespan's signature + fault knobs
pub fn degradation_curve(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: &[i64],
    weights: Option<&[u64]>,
    latency: f64,
    cfg: &FaultConfig,
    rates: &[f64],
    seed: u64,
) -> Vec<DegradationPoint> {
    let base = async_makespan(instance, assignment, priority, weights, latency);
    let horizon = base.makespan.max(1.0);
    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::random(assignment.num_procs(), horizon, &cfg.at_rate(rate), seed);
            let (r, _) =
                async_makespan_faulty(instance, assignment, priority, weights, latency, &plan);
            DegradationPoint {
                rate,
                makespan: r.makespan,
                fault_free: base.makespan,
                retries: r.retries,
                recovered_tasks: r.recovered_tasks,
            }
        })
        .collect()
}

/// Renders a degradation curve as CSV (`rate,makespan,fault_free,
/// degradation,retries,recovered_tasks`).
pub fn degradation_csv(points: &[DegradationPoint]) -> String {
    let mut out = String::from("rate,makespan,fault_free,degradation,retries,recovered_tasks\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{:.4},{},{}\n",
            p.rate,
            p.makespan,
            p.fault_free,
            p.makespan / p.fault_free.max(f64::MIN_POSITIVE),
            p.retries,
            p.recovered_tasks
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{delayed_level_priorities, random_delays};
    use sweep_faults::{CrashFault, LinkPartition, SlowdownWindow};
    use sweep_mesh::MeshPreset;
    use sweep_quadrature::QuadratureSet;

    fn rdp_priorities(inst: &SweepInstance, seed: u64) -> Vec<i64> {
        let d = random_delays(inst.num_directions(), seed);
        delayed_level_priorities(inst, &d)
    }

    fn preset_instance(preset: MeshPreset) -> SweepInstance {
        let mesh = preset.build_scaled(0.01).expect("preset builds");
        let quad = QuadratureSet::level_symmetric(2).expect("S2");
        let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, preset.name());
        inst
    }

    #[test]
    fn empty_plan_reports_no_faults() {
        let inst = SweepInstance::random_layered(80, 3, 8, 2, 5);
        let a = Assignment::random_cells(80, 6, 9);
        let prio = rdp_priorities(&inst, 4);
        let (fr, _) = async_makespan_faulty(&inst, &a, &prio, None, 1.5, &FaultPlan::none());
        assert_eq!((fr.retries, fr.dropped, fr.redeliveries), (0, 0, 0));
        assert_eq!((fr.recovered_tasks, fr.reassigned_cells), (0, 0));
        assert!(fr.crashed_procs.is_empty() && fr.timeline.is_empty());
    }

    /// A crash mid-run: every task still completes exactly once, the
    /// makespan degrades but stays finite, and ownership of every cell
    /// stays unique (the trace shows one processor per cell per epoch).
    #[test]
    fn crash_recovery_completes_every_task_exactly_once() {
        let inst = SweepInstance::random_layered(120, 4, 10, 2, 7);
        let a = Assignment::random_cells(120, 8, 3);
        let prio = rdp_priorities(&inst, 2);
        let base = async_makespan(&inst, &a, &prio, None, 1.0);
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashFault {
            proc: 2,
            at: base.makespan * 0.3,
        });
        plan.crashes.push(CrashFault {
            proc: 5,
            at: base.makespan * 0.5,
        });
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        assert_eq!(trace.execs.len(), inst.num_tasks(), "all tasks executed");
        let mut seen: Vec<u64> = trace.execs.iter().map(|e| e.task).collect();
        seen.sort_unstable();
        assert!(seen.windows(2).all(|w| w[0] != w[1]), "exactly once");
        assert!(fr.makespan.is_finite());
        assert!(
            fr.makespan >= base.makespan - 1e-9,
            "faults cannot speed up"
        );
        assert_eq!(fr.crashed_procs, vec![2, 5]);
        assert!(fr.recovered_tasks > 0);
        assert!(fr.reassigned_cells > 0);
        // No execution lands on a crashed processor after its death.
        for e in &trace.execs {
            for c in &plan.crashes {
                if e.proc == c.proc {
                    assert!(
                        e.start < c.at,
                        "proc {} executed task {} after crashing",
                        e.proc,
                        e.task
                    );
                }
            }
        }
    }

    #[test]
    fn crashing_every_processor_keeps_one_survivor() {
        let inst = SweepInstance::random_layered(60, 3, 6, 2, 1);
        let a = Assignment::random_cells(60, 4, 2);
        let prio = vec![0i64; inst.num_tasks()];
        let mut plan = FaultPlan::none();
        for p in 0..4 {
            plan.crashes.push(CrashFault {
                proc: p,
                at: 2.0 + p as f64,
            });
        }
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 0.5, &plan);
        assert_eq!(trace.execs.len(), inst.num_tasks());
        assert_eq!(fr.crashed_procs.len(), 3, "last crash skipped");
        assert!(fr
            .timeline
            .iter()
            .any(|e| e.kind == FaultKind::CrashSkipped));
    }

    #[test]
    fn dropped_messages_retry_and_degrade_makespan() {
        let inst = SweepInstance::random_layered(100, 4, 8, 2, 11);
        let a = Assignment::random_cells(100, 8, 5);
        let prio = rdp_priorities(&inst, 6);
        let base = async_makespan(&inst, &a, &prio, None, 1.0);
        let cfg = FaultConfig {
            drop_rate: 0.4,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::random(8, base.makespan, &cfg, 13);
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        assert!(fr.retries > 0, "40% drop rate must force retries");
        assert_eq!(fr.dropped, fr.retries);
        assert!(fr.makespan >= base.makespan - 1e-9);
        assert_eq!(trace.execs.len(), inst.num_tasks());
        // Every delivered message still waited at least the base latency.
        for msg in &trace.messages {
            assert!(msg.arrive - msg.send >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn duplicates_are_counted_but_harmless() {
        let inst = SweepInstance::random_layered(80, 3, 8, 2, 3);
        let a = Assignment::random_cells(80, 6, 1);
        let prio = vec![0i64; inst.num_tasks()];
        let mut plan = FaultPlan::none();
        plan.dup_rate = 1.0; // every delivery duplicated
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        assert_eq!(fr.redeliveries, fr.messages, "all messages duplicated");
        assert_eq!(trace.execs.len(), inst.num_tasks());
        let base = async_makespan(&inst, &a, &prio, None, 1.0);
        assert_eq!(
            fr.makespan, base.makespan,
            "discarded duplicates change nothing"
        );
    }

    #[test]
    fn slowdown_window_scales_covered_work() {
        let inst = SweepInstance::identical_chains(10, 1);
        let a = Assignment::single(10);
        let prio = vec![0i64; 10];
        let mut plan = FaultPlan::none();
        plan.slowdowns.push(SlowdownWindow {
            proc: 0,
            start: 0.0,
            end: 1e9,
            factor: 3.0,
        });
        let (fr, _) = async_makespan_faulty(&inst, &a, &prio, None, 0.0, &plan);
        assert!((fr.makespan - 30.0).abs() < 1e-9, "10 tasks at 3x");
        assert_eq!(fr.slowed_tasks, 10);
    }

    #[test]
    fn link_partition_stalls_cross_messages_until_heal() {
        // Chain 0 → 1 across procs 0 → 1; the link is down until t=10.
        let inst = SweepInstance::identical_chains(2, 1);
        let a = Assignment::from_vec(vec![0, 1], 2);
        let prio = vec![0i64; 2];
        let mut plan = FaultPlan::none();
        plan.partitions.push(LinkPartition {
            a: 0,
            b: 1,
            start: 0.0,
            end: 10.0,
        });
        let (fr, _) = async_makespan_faulty(&inst, &a, &prio, None, 0.5, &plan);
        // Task 0 finishes at 1; retries back off past t=10; task 1 runs after.
        assert!(fr.makespan > 10.0, "partition must delay: {}", fr.makespan);
        assert!(fr.retries > 0);
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let inst = SweepInstance::random_layered(90, 3, 9, 2, 8);
        let a = Assignment::random_cells(90, 6, 4);
        let prio = rdp_priorities(&inst, 9);
        let mut plan = FaultPlan::none();
        plan.jitter = 3.0;
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        assert_eq!(trace.execs.len(), inst.num_tasks());
        for msg in &trace.messages {
            let extra = msg.arrive - msg.send - 1.0;
            assert!((-1e-9..=3.0 + 1e-9).contains(&extra), "jitter bound");
        }
        let base = async_makespan(&inst, &a, &prio, None, 1.0);
        assert!(fr.makespan >= base.makespan - 1e-9);
    }

    #[test]
    fn degradation_curve_is_monotone_at_zero_and_finite() {
        let inst = SweepInstance::random_layered(80, 3, 8, 2, 2);
        let a = Assignment::random_cells(80, 6, 7);
        let prio = rdp_priorities(&inst, 3);
        let cfg = FaultConfig::default();
        let pts = degradation_curve(&inst, &a, &prio, None, 1.0, &cfg, &[0.0, 0.1, 0.3], 21);
        assert_eq!(pts.len(), 3);
        assert_eq!(
            pts[0].makespan, pts[0].fault_free,
            "rate 0 is the fault-free run"
        );
        for p in &pts {
            assert!(p.makespan.is_finite());
            assert!(p.makespan >= p.fault_free - 1e-9);
        }
        let csv = degradation_csv(&pts);
        assert!(csv.starts_with("rate,makespan"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn empty_instance_reports_unit_utilization() {
        let inst = SweepInstance::new(0, vec![sweep_dag::TaskDag::edgeless(0)], "empty");
        let a = Assignment::from_vec(vec![], 3);
        let (fr, trace) = async_makespan_faulty(&inst, &a, &[], None, 1.0, &FaultPlan::none());
        assert_eq!(fr.makespan, 0.0);
        assert!(fr.utilization.is_finite(), "must not be NaN");
        assert_eq!(fr.utilization, 1.0);
        assert!(trace.execs.is_empty());
    }

    #[test]
    fn random_plan_acceptance_shape() {
        // The ISSUE acceptance shape: crash-rate 0.1 on a preset-scale
        // instance — all tasks complete, makespan finite and >= fault-free.
        let inst = preset_instance(MeshPreset::Tetonly);
        let a = Assignment::random_cells(inst.num_cells(), 8, 17);
        let prio = rdp_priorities(&inst, 23);
        let base = async_makespan(&inst, &a, &prio, None, 1.0);
        let cfg = FaultConfig {
            crash_rate: 0.1,
            drop_rate: 0.05,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::random(8, base.makespan, &cfg, 29);
        let (fr, trace) = async_makespan_faulty(&inst, &a, &prio, None, 1.0, &plan);
        assert_eq!(trace.execs.len(), inst.num_tasks());
        assert!(fr.makespan.is_finite());
        assert!(fr.makespan >= base.makespan - 1e-9);
    }
}
