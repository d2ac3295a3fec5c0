//! The content-addressed two-tier cache.
//!
//! * **Tier 1** — induced [`SweepInstance`]s, keyed by
//!   [`instance_digest`](crate::digest::instance_digest) (mesh bytes +
//!   quadrature order). Induction walks every face of every direction,
//!   so a hit here saves the dominant cost of a cold request.
//! * **Tier 2** — winning best-of-`b` schedules
//!   ([`ScheduleArtifact`]), keyed by
//!   [`schedule_digest`](crate::digest::schedule_digest) (tier-1 key +
//!   `m`, algorithm, seed, `b`). A hit here answers the request without
//!   touching the pool at all.
//!
//! Both tiers are LRU-bounded by an approximate **byte** budget rather
//! than an entry count, so one prismtet-scale instance can't silently
//! evict dozens of small ones while "respecting" the limit. Hits,
//! misses, evictions, and coalesced waits are surfaced through
//! `sweep-telemetry` (`serve.cache.*` counters + a `serve.cache.bytes`
//! gauge), which `GET /metrics` exports.
//!
//! **Single-flight coalescing:** when N identical requests race on a
//! cold key, the first becomes the *leader* and computes; the other
//! N−1 block on a condvar and receive the leader's `Arc` — one
//! computation, N responses. Leader failure is propagated to every
//! waiter and the flight is cleared so a later request can retry —
//! including failure by *panic*: a drop guard publishes the error
//! during the unwind, so waiters never wedge on a dead leader.

use std::collections::HashMap;
use std::sync::Arc;

// In normal builds these ARE `std::sync::{Condvar, Mutex}` (zero-cost
// re-exports); under the `model-check` feature every lock/wait/notify
// becomes a scheduler yield point, which is how `crate::model` explores
// the single-flight protocol's interleavings.
use sweep_check::sync::{Condvar, Mutex};
use sweep_core::{certify, Assignment, LowerBounds, Schedule};
use sweep_dag::SweepInstance;
use sweep_telemetry as telemetry;
use sweep_telemetry::TraceCtx;

use crate::packed::PackedU32;

/// What the trials produce and what a `SART` frame carries: a schedule
/// and its trial record, not yet checked against any instance.
/// [`UncheckedArtifact::check`] is the only way to a
/// [`ScheduleArtifact`].
#[derive(Debug, Clone)]
pub struct UncheckedArtifact {
    /// The winning (minimum-makespan) schedule.
    pub schedule: Schedule,
    /// Index of the winning trial in `0..b`.
    pub trial: usize,
    /// Child seed the winning trial ran with.
    pub trial_seed: u64,
    /// Every trial's makespan, in trial order.
    pub trial_makespans: Vec<u32>,
    /// The tier-2 content digest this artifact is addressed by.
    pub digest: u64,
}

/// Everything a response reports about an artifact besides the
/// request's own `m` / `algorithm` / `b`, computed once when the
/// artifact is built so a cache hit reads neither the instance nor the
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSummary {
    /// Instance name (preset name or the inline instance's own name).
    pub name: String,
    /// Cells of the instance.
    pub cells: usize,
    /// Number of sweep directions.
    pub directions: usize,
    /// Total task count (`cells × directions`).
    pub tasks: usize,
    /// Makespan of the winning trial.
    pub makespan: u32,
    /// The lower bounds of the instance on the schedule's `m`.
    pub bounds: LowerBounds,
    /// C1: interprocessor DAG edges under the assignment.
    pub c1: u64,
    /// C2: communication-delay cost of the schedule.
    pub c2: u64,
}

/// The tier-2 value: a winning schedule known to be feasible for its
/// instance, with its trial record and the summary a response needs,
/// sized for the LRU accounting. The start times and the assignment are
/// held bit-packed at the width of their own maxima (`⌈log₂ makespan⌉`
/// and `⌈log₂ m⌉` bits), since a hit reads only the summary; the rare
/// readers that need the schedule itself (peer serving, the SW024 and
/// SW029 identity diffs) unpack it. The fields are private so
/// [`UncheckedArtifact::check`] stays the only constructor.
#[derive(Debug, Clone)]
pub struct ScheduleArtifact {
    starts: PackedU32,
    assignment: PackedU32,
    m: usize,
    trial: usize,
    trial_seed: u64,
    trial_makespans: Box<[u32]>,
    digest: u64,
    summary: ScheduleSummary,
}

impl ScheduleArtifact {
    /// What a response reports about this artifact.
    pub fn summary(&self) -> &ScheduleSummary {
        &self.summary
    }

    /// Index of the winning trial in `0..b`.
    pub(crate) fn trial(&self) -> usize {
        self.trial
    }

    /// The tier-2 content digest this artifact is addressed by.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// The schedule and trial record exactly as they passed
    /// [`UncheckedArtifact::check`]: what peer serving encodes and the
    /// identity certifications diff. O(nk), off every hit's path.
    pub(crate) fn unpack(&self) -> UncheckedArtifact {
        let assignment = Assignment::from_vec(self.assignment.unpack(), self.m);
        UncheckedArtifact {
            schedule: Schedule::new(self.starts.unpack(), assignment)
                .expect("a checked artifact unpacks to the schedule it was built from"),
            trial: self.trial,
            trial_seed: self.trial_seed,
            trial_makespans: self.trial_makespans.to_vec(),
            digest: self.digest,
        }
    }
}

impl UncheckedArtifact {
    /// The one artifact constructor, for local trials and for bytes a
    /// peer sent alike: the schedule must be feasible for `inst` on
    /// exactly `m` processors, and the summary is read off the one
    /// [`certify()`] pass that says so — the only O(nk) pass over an
    /// artifact that is not a trial. A feasible artifact is counted by
    /// `serve.summarize`; the certification's time is the
    /// `schedule.summarize` span under `ctx`. The schedule is kept
    /// packed; see [`ScheduleArtifact`].
    pub fn check(
        self,
        inst: &SweepInstance,
        m: usize,
        ctx: &TraceCtx,
    ) -> Result<ScheduleArtifact, String> {
        let procs = self.schedule.assignment().num_procs();
        if procs != m {
            return Err(format!("schedule is on {procs} processors, wanted {m}"));
        }
        let _span = ctx.span("schedule.summarize");
        let cert = certify(inst, &self.schedule);
        cert.verdict.map_err(|e| e.to_string())?;
        telemetry::counter_add("serve.summarize", 1);
        let summary = ScheduleSummary {
            name: inst.name().to_string(),
            cells: inst.num_cells(),
            directions: inst.num_directions(),
            tasks: inst.num_tasks(),
            makespan: cert.makespan,
            bounds: cert.bounds,
            c1: cert.c1,
            c2: cert.c2,
        };
        let UncheckedArtifact {
            schedule,
            trial,
            trial_seed,
            trial_makespans,
            digest,
        } = self;
        Ok(ScheduleArtifact {
            starts: PackedU32::pack(schedule.starts()),
            assignment: PackedU32::pack(schedule.assignment().as_slice()),
            m,
            trial,
            trial_seed,
            trial_makespans: trial_makespans.into_boxed_slice(),
            digest,
            summary,
        })
    }
}

/// Per-tier residency: entry count and approximate bytes, exported as
/// `serve.cache.tier{1,2}.{entries,bytes}` gauges and via `/debug/vars`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Resident entries in the tier.
    pub entries: usize,
    /// Approximate resident bytes in the tier.
    pub bytes: usize,
}

/// Point-in-time cache counters (also exported via `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a tier (tier-1 and tier-2 combined).
    pub hits: u64,
    /// Requests that had to compute.
    pub misses: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Requests that piggybacked on another request's computation.
    pub coalesced: u64,
    /// Approximate resident bytes across both tiers.
    pub bytes: usize,
}

/// One LRU tier: digest → (value, approx bytes, last-use stamp).
struct Lru<V> {
    map: HashMap<u64, (V, usize, u64)>,
    clock: u64,
    bytes: usize,
    budget: usize,
}

impl<V> Lru<V> {
    fn new(budget: usize) -> Lru<V> {
        Lru {
            map: HashMap::new(),
            clock: 0,
            bytes: 0,
            budget,
        }
    }

    fn get(&mut self, key: u64) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|e| {
            e.2 = clock;
            &e.0
        })
    }

    /// Inserts and evicts least-recently-used entries until the budget
    /// holds (the new entry itself is never evicted, so a single value
    /// larger than the whole budget still caches — and is evicted by
    /// the next insert). Returns the number of evictions.
    fn insert(&mut self, key: u64, value: V, approx_bytes: usize) -> u64 {
        self.clock += 1;
        if let Some((_, old, _)) = self.map.insert(key, (value, approx_bytes, self.clock)) {
            self.bytes -= old;
        }
        self.bytes += approx_bytes;
        let mut evicted = 0;
        while self.bytes > self.budget && self.map.len() > 1 {
            let Some((&victim, _)) = self
                .map
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.2)
            else {
                break;
            };
            if let Some((_, b, _)) = self.map.remove(&victim) {
                self.bytes -= b;
                evicted += 1;
            }
        }
        evicted
    }
}

/// A single-flight slot: the leader computes, waiters block on the
/// condvar until `done` holds the shared result. The slot remembers
/// the **leader's request id** so waiters can record which request
/// they coalesced onto (surfaced in access logs and trace trees).
pub(crate) struct Flight<V> {
    done: Mutex<Option<Result<V, String>>>,
    cv: Condvar,
    leader_req: u64,
}

impl<V> Flight<V> {
    /// Request id of the leader that opened this flight.
    pub(crate) fn leader_req(&self) -> u64 {
        self.leader_req
    }
}

/// Outcome of claiming a flight: either this caller leads, or it waits.
pub(crate) enum Claim<V> {
    /// This caller computes and publishes.
    Leader(Arc<Flight<V>>),
    /// Another caller is computing; wait for its result.
    Follower(Arc<Flight<V>>),
}

/// Keyed single-flight table (crate-visible so `crate::model` can run
/// the protocol under the model checker).
pub(crate) struct SingleFlight<V> {
    inflight: Mutex<HashMap<u64, Arc<Flight<V>>>>,
}

impl<V: Clone> SingleFlight<V> {
    pub(crate) fn new() -> SingleFlight<V> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Claims the flight for `key`; `req_id` is the claimant's request
    /// id, recorded on the slot if it becomes the leader (0 when the
    /// caller is outside any request).
    pub(crate) fn claim(&self, key: u64, req_id: u64) -> Claim<V> {
        let mut map = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = map.get(&key) {
            Claim::Follower(Arc::clone(f))
        } else {
            let f = Arc::new(Flight {
                done: Mutex::new(None),
                cv: Condvar::new(),
                leader_req: req_id,
            });
            map.insert(key, Arc::clone(&f));
            Claim::Leader(f)
        }
    }

    pub(crate) fn publish(&self, key: u64, flight: &Arc<Flight<V>>, result: Result<V, String>) {
        {
            let mut done = flight.done.lock().unwrap_or_else(|p| p.into_inner());
            *done = Some(result);
        }
        flight.cv.notify_all();
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&key);
    }

    /// Runs the leader's computation and publishes its result — with
    /// unwind protection: if `compute` panics, a drop guard publishes
    /// an `Err` and clears the flight *during* the unwind, so every
    /// current and future waiter unblocks instead of wedging forever
    /// on a result that will never arrive.
    pub(crate) fn lead(
        &self,
        key: u64,
        flight: &Arc<Flight<V>>,
        compute: impl FnOnce() -> Result<V, String>,
    ) -> Result<V, String> {
        struct Abort<'a, V: Clone> {
            flights: &'a SingleFlight<V>,
            key: u64,
            flight: &'a Arc<Flight<V>>,
        }
        impl<V: Clone> Drop for Abort<'_, V> {
            fn drop(&mut self) {
                self.flights.publish(
                    self.key,
                    self.flight,
                    Err("internal: cache leader panicked mid-computation".to_string()),
                );
            }
        }
        let abort = Abort {
            flights: self,
            key,
            flight,
        };
        let result = compute();
        std::mem::forget(abort); // defuse: the normal publish below runs instead
        self.publish(key, flight, result.clone());
        result
    }

    pub(crate) fn wait(&self, flight: &Arc<Flight<V>>) -> Result<V, String> {
        let mut done = flight.done.lock().unwrap_or_else(|p| p.into_inner());
        while done.is_none() {
            done = flight.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
        match done.as_ref() {
            Some(r) => r.clone(),
            None => Err("single-flight slot emptied while waiting".to_string()),
        }
    }
}

/// One tier: its LRU, its single-flight table, and the name trace
/// notes know it by.
struct Tier<V> {
    lru: Mutex<Lru<Arc<V>>>,
    flights: SingleFlight<Arc<V>>,
    name: &'static str,
}

impl<V> Tier<V> {
    fn new(name: &'static str, budget_bytes: usize) -> Tier<V> {
        Tier {
            lru: Mutex::new(Lru::new(budget_bytes)),
            flights: SingleFlight::new(),
            name,
        }
    }

    fn stats(&self) -> TierStats {
        let lru = self.lru.lock().unwrap_or_else(|p| p.into_inner());
        TierStats {
            entries: lru.map.len(),
            bytes: lru.bytes,
        }
    }
}

/// The two-tier content-addressed cache with single-flight coalescing.
pub struct ScheduleCache {
    instances: Tier<SweepInstance>,
    schedules: Tier<ScheduleArtifact>,
    stats: Mutex<CacheStats>,
}

/// Upper bound on [`SweepInstance::heap_bytes`], charged per instance
/// against tier 1. It was written for DAGs that each stored a successor
/// and a predecessor array (16 B an edge, 12 B a task); induced DAGs now
/// share one neighbour graph and keep two bits per entry and their
/// levels, so on a mesh it overstates the instance about five times.
/// Tightening it would change how many instances tier 1 holds, and with
/// it the cold path's residency and evictions, so it stays as it was but
/// for the per-direction charge: a direction's `TaskDag` in the DAG
/// vector and its offset slots, 128 B, which the old 8 B did not cover
/// for an edgeless instance of many directions.
fn instance_bytes(inst: &SweepInstance) -> usize {
    let edges = inst.total_edges();
    let tasks = inst.num_tasks();
    16 * edges + 12 * tasks + 128 * inst.num_directions() + 256
}

/// Resident size of a schedule artifact: the packed start and
/// assignment words, one u32 per trial makespan, and the summary's name
/// (its only heap part; the rest sits in the fixed overhead).
fn artifact_bytes(a: &ScheduleArtifact) -> usize {
    a.starts.heap_bytes()
        + a.assignment.heap_bytes()
        + 4 * a.trial_makespans.len()
        + a.summary.name.len()
        + 256
}

impl ScheduleCache {
    /// A cache with `budget_bytes` *per tier* (half each would starve
    /// tier 1: instances are an order of magnitude bigger than
    /// schedules at equal request rates).
    pub fn new(budget_bytes: usize) -> ScheduleCache {
        ScheduleCache {
            instances: Tier::new("tier1", budget_bytes),
            schedules: Tier::new("tier2", budget_bytes),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let mut s = *self.stats.lock().unwrap_or_else(|p| p.into_inner());
        s.bytes = self.instances.stats().bytes + self.schedules.stats().bytes;
        s
    }

    /// Per-tier residency (tier 1 = instances, tier 2 = schedules).
    pub fn tier_stats(&self) -> (TierStats, TierStats) {
        (self.instances.stats(), self.schedules.stats())
    }

    fn bump(&self, f: impl FnOnce(&mut CacheStats)) {
        let mut s = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut s);
    }

    /// The lookup both tiers start with: an LRU-touching read that, when
    /// the key is resident, counts a hit and notes it on `ctx`.
    fn resident<V: Clone>(
        &self,
        tier: &Mutex<Lru<V>>,
        name: &str,
        key: u64,
        ctx: &TraceCtx,
    ) -> Option<V> {
        let found = tier
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .cloned()?;
        self.bump(|s| s.hits += 1);
        telemetry::counter_add("serve.cache.hits", 1);
        ctx.note(name, "hit");
        Some(found)
    }

    /// Whether tier 1 holds `key`, without inducing anything: what a
    /// tier-2 hit reports as `instance_cache`. Resident counts (and
    /// LRU-touches) as a hit; absent is noted as a miss and counted
    /// nowhere, because nothing is computed.
    pub fn instance_resident(&self, key: u64, ctx: &TraceCtx) -> bool {
        let tier = &self.instances;
        let resident = self.resident(&tier.lru, tier.name, key, ctx).is_some();
        if !resident {
            ctx.note(tier.name, "miss");
        }
        resident
    }

    /// Tier-1 lookup-or-induce with single-flight coalescing. Returns
    /// the instance and whether it was served from cache (a coalesced
    /// wait counts as a hit: no second induction ran). `ctx` records
    /// the tier disposition and, for coalesced waiters, the leader's
    /// request id.
    pub fn instance(
        &self,
        key: u64,
        ctx: &TraceCtx,
        induce: impl FnOnce() -> Result<SweepInstance, String>,
    ) -> Result<(Arc<SweepInstance>, bool), String> {
        self.lookup_or_lead(&self.instances, instance_bytes, key, ctx, induce)
    }

    /// Tier-2 lookup-or-compute with single-flight coalescing; same
    /// contract as [`ScheduleCache::instance`].
    pub fn schedule(
        &self,
        key: u64,
        ctx: &TraceCtx,
        compute: impl FnOnce() -> Result<ScheduleArtifact, String>,
    ) -> Result<(Arc<ScheduleArtifact>, bool), String> {
        self.lookup_or_lead(&self.schedules, artifact_bytes, key, ctx, compute)
    }

    /// What both tiers do with a key: answer from the LRU; else claim
    /// its flight and either wait on the leader (a hit: nothing ran
    /// twice) or lead — compute, insert charged at `size`, evict.
    fn lookup_or_lead<V>(
        &self,
        tier: &Tier<V>,
        size: impl FnOnce(&V) -> usize,
        key: u64,
        ctx: &TraceCtx,
        compute: impl FnOnce() -> Result<V, String>,
    ) -> Result<(Arc<V>, bool), String> {
        if let Some(found) = self.resident(&tier.lru, tier.name, key, ctx) {
            return Ok((found, true));
        }
        match tier.flights.claim(key, ctx.request_id()) {
            Claim::Follower(f) => {
                self.bump(|s| {
                    s.hits += 1;
                    s.coalesced += 1;
                });
                telemetry::counter_add("serve.cache.hits", 1);
                telemetry::counter_add("serve.cache.coalesced", 1);
                ctx.note(tier.name, "coalesced");
                ctx.set_coalesced_onto(f.leader_req());
                let _wait = ctx.span("cache.wait");
                Ok((tier.flights.wait(&f)?, true))
            }
            Claim::Leader(f) => {
                self.bump(|s| s.misses += 1);
                telemetry::counter_add("serve.cache.misses", 1);
                ctx.note(tier.name, "miss");
                let result = tier.flights.lead(key, &f, || {
                    let value = Arc::new(compute()?);
                    let evicted = tier.lru.lock().unwrap_or_else(|p| p.into_inner()).insert(
                        key,
                        Arc::clone(&value),
                        size(&value),
                    );
                    self.note_evictions(evicted);
                    Ok(value)
                });
                self.update_residency_gauges();
                result.map(|value| (value, false))
            }
        }
    }

    fn note_evictions(&self, n: u64) {
        if n > 0 {
            self.bump(|s| s.evictions += n);
            telemetry::counter_add("serve.cache.evictions", n);
        }
    }

    fn update_residency_gauges(&self) {
        let (t1, t2) = self.tier_stats();
        telemetry::gauge_set("serve.cache.bytes", (t1.bytes + t2.bytes) as f64);
        telemetry::gauge_set("serve.cache.tier1.bytes", t1.bytes as f64);
        telemetry::gauge_set("serve.cache.tier1.entries", t1.entries as f64);
        telemetry::gauge_set("serve.cache.tier2.bytes", t2.bytes as f64);
        telemetry::gauge_set("serve.cache.tier2.entries", t2.entries as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{best_of_trials, Algorithm};
    use sweep_dag::TaskDag;

    fn tiny(name: &str) -> SweepInstance {
        let d = TaskDag::from_edges(3, &[(0, 1), (1, 2)]);
        SweepInstance::new(3, vec![d], name)
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = ScheduleCache::new(1 << 20);
        let (a, hit_a) = cache
            .instance(7, &TraceCtx::disabled(), || Ok(tiny("a")))
            .unwrap();
        let (b, hit_b) = cache
            .instance(7, &TraceCtx::disabled(), || panic!("must not re-induce"))
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn instance_bytes_bounds_every_vector_the_instance_owns() {
        use sweep_mesh::MeshPreset;
        use sweep_quadrature::QuadratureSet;
        let mesh = MeshPreset::Tetonly.build_scaled(0.01).unwrap();
        let quad = QuadratureSet::level_symmetric(4).unwrap();
        let (tetonly, _) = SweepInstance::from_mesh(&mesh, &quad, "tetonly");
        // No edges and more directions than the fixed overhead covers:
        // the DAG structs and the levels are all there is.
        let edgeless = SweepInstance::new(5, vec![TaskDag::edgeless(5); 100], "edgeless");
        // A graph of its own per direction, as non-mesh instances have.
        let chains = SweepInstance::random_chains(300, 8, 3);
        for inst in [tetonly, edgeless, chains] {
            assert!(
                instance_bytes(&inst) >= inst.heap_bytes(),
                "{}: {} < {}",
                inst.name(),
                instance_bytes(&inst),
                inst.heap_bytes()
            );
        }
    }

    /// The winning trials of `b` on a random cell assignment over `m`
    /// processors, as the service's miss path builds them.
    fn trials(inst: &SweepInstance, m: usize, algorithm: Algorithm, b: usize) -> UncheckedArtifact {
        let assignment = Assignment::random_cells(inst.num_cells(), m, 1);
        let best = best_of_trials(inst, &assignment, algorithm, b, 1);
        UncheckedArtifact {
            trial: best.trial,
            trial_seed: best.seed,
            trial_makespans: best.outcomes.iter().map(|o| o.makespan).collect(),
            schedule: best.schedule,
            digest: 7,
        }
    }

    /// Tetonly 0.05 under S4: the mesh every serve request schedules.
    fn serve_instance() -> SweepInstance {
        use sweep_mesh::MeshPreset;
        use sweep_quadrature::QuadratureSet;
        let mesh = MeshPreset::Tetonly.build_scaled(0.05).unwrap();
        let quad = QuadratureSet::level_symmetric(4).unwrap();
        SweepInstance::from_mesh(&mesh, &quad, "tetonly").0
    }

    #[test]
    fn artifact_bytes_counts_starts_assignment_trials_and_the_summary() {
        let small = SweepInstance::random_layered(40, 3, 5, 2, 9);
        let serve = serve_instance();
        for (inst, m, b) in [(&small, 4, 3), (&serve, 64, 4)] {
            let unchecked = trials(inst, m, Algorithm::RandomDelayPriorities, b);
            let artifact = unchecked.check(inst, m, &TraceCtx::disabled()).unwrap();
            let heap = artifact.starts.heap_bytes()
                + artifact.assignment.heap_bytes()
                + std::mem::size_of_val(&*artifact.trial_makespans)
                + artifact.summary().name.capacity();
            let charge = artifact_bytes(&artifact);
            assert!(charge >= heap, "{}: {charge} < {heap}", inst.name());
            if m == 64 {
                // The serve shape: makespan below 2^10 and m = 2^6, so
                // the packed entry is under a third of 32 bits a value.
                let (n, nk) = (inst.num_cells(), inst.num_tasks());
                let unpacked = 4 * (nk + n + b);
                assert!(artifact.summary().makespan < 1024);
                assert!(3 * charge <= unpacked, "{charge} vs {unpacked}");
            }
        }
        // A schedule on the wrong processor count is not an artifact.
        let err = trials(&small, 4, Algorithm::RandomDelay, 3)
            .check(&small, 5, &TraceCtx::disabled())
            .unwrap_err();
        assert!(err.contains("4 processors, wanted 5"), "{err}");
    }

    #[test]
    fn a_cached_artifact_encodes_to_the_bytes_it_was_built_from() {
        use crate::cluster::encode_artifact;
        let small = SweepInstance::random_layered(40, 3, 5, 2, 9);
        let serve = serve_instance();
        // m = 1 packs the assignment at width 0; the rest span widths
        // of starts and processors alike.
        for (inst, m) in [(&small, 1), (&small, 3), (&small, 40), (&serve, 64)] {
            for algorithm in [Algorithm::RandomDelayPriorities, Algorithm::Greedy] {
                let unchecked = trials(inst, m, algorithm, 2);
                let wire = encode_artifact(&unchecked);
                let artifact = unchecked.check(inst, m, &TraceCtx::disabled()).unwrap();
                assert!(
                    encode_artifact(&artifact.unpack()) == wire,
                    "{} on m = {m}: the cached artifact's frame moved",
                    inst.name()
                );
            }
        }
    }

    #[test]
    fn lru_evicts_oldest_under_byte_pressure() {
        // Budget fits roughly one tiny instance (fixed overhead is 256
        // per entry plus edges); three inserts must evict.
        let cache = ScheduleCache::new(400);
        for key in 0..3u64 {
            cache
                .instance(key, &TraceCtx::disabled(), || Ok(tiny("x")))
                .unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions >= 1, "{s:?}");
        // Most recent key must still be resident.
        let (_, hit) = cache
            .instance(2, &TraceCtx::disabled(), || panic!("key 2 was evicted"))
            .unwrap();
        assert!(hit);
    }

    #[test]
    fn leader_failure_propagates_and_clears_the_flight() {
        let cache = ScheduleCache::new(1 << 20);
        let err = cache
            .instance(9, &TraceCtx::disabled(), || Err("broken mesh".to_string()))
            .unwrap_err();
        assert!(err.contains("broken mesh"));
        // The flight is cleared: a retry runs a fresh computation.
        let (_, hit) = cache
            .instance(9, &TraceCtx::disabled(), || Ok(tiny("retry")))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn leader_panic_unblocks_followers_and_clears_the_flight() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cache = ScheduleCache::new(1 << 20);
        let leading = AtomicBool::new(false);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.instance(5, &TraceCtx::disabled(), || {
                    leading.store(true, Ordering::SeqCst);
                    // Keep the flight open long enough for the main
                    // thread to pile on as a follower.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("poisoned request")
                })
            });
            while !leading.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // We are now guaranteed to be a follower on the same key;
            // without the unwind guard this wait would never return.
            let err = cache
                .instance(5, &TraceCtx::disabled(), || Ok(tiny("follower")))
                .unwrap_err();
            assert!(err.contains("panicked"), "{err}");
            assert!(leader.join().is_err(), "leader must have panicked");
        });
        // The flight is cleared: a retry computes fresh instead of
        // blocking on the dead leader.
        let (_, hit) = cache
            .instance(5, &TraceCtx::disabled(), || Ok(tiny("retry")))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_computation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ScheduleCache::new(1 << 20);
        let computations = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (inst, _) = cache
                        .instance(42, &TraceCtx::disabled(), || {
                            computations.fetch_add(1, Ordering::SeqCst);
                            // Give followers time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(tiny("shared"))
                        })
                        .unwrap();
                    assert_eq!(inst.num_cells(), 3);
                });
            }
        });
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn coalesced_follower_records_the_leaders_request_id() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cache = ScheduleCache::new(1 << 20);
        let leading = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let leader_ctx = TraceCtx::root(0xabc);
                cache
                    .instance(3, &leader_ctx, || {
                        leading.store(true, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok(tiny("lead"))
                    })
                    .unwrap();
            });
            while !leading.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let follower_ctx = TraceCtx::root(0xdef);
            cache
                .instance(3, &follower_ctx, || Ok(tiny("never runs")))
                .unwrap();
            let trace = follower_ctx.finish().unwrap();
            assert_eq!(trace.coalesced_onto, Some(0xabc));
            assert_eq!(trace.note("tier1"), Some("coalesced"));
            // The wait shows up as a cache-stage span.
            assert!(trace.spans.iter().any(|sp| sp.name == "cache.wait"));
        });
        // Residency introspection: one entry in tier 1, none in tier 2.
        let (t1, t2) = cache.tier_stats();
        assert_eq!(t1.entries, 1);
        assert!(t1.bytes > 0);
        assert_eq!(t2, TierStats::default());
    }
}
