//! The socket-free service core: request model, JSON wire codec,
//! routing, and the cached compute path.
//!
//! Everything here takes plain values and returns plain values, so the
//! whole service — including cache-hit behaviour and error mapping — is
//! unit-testable without opening a port. [`server`](crate::server) is
//! only the accept loop around [`SweepService::route`].

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sweep_core::{best_of_trials_with_pool, Algorithm, Assignment};
use sweep_dag::SweepInstance;
use sweep_json::Value;
use sweep_mesh::import::ImportFormat;
use sweep_mesh::MeshPreset;
use sweep_quadrature::QuadratureSet;
use sweep_rpc::{Frame, RpcRequest, RpcResponse};
use sweep_telemetry as telemetry;
use sweep_telemetry::TraceCtx;

use crate::cache::{ScheduleArtifact, ScheduleCache, UncheckedArtifact};
use crate::cluster::{encode_artifact, ClusterState, Route};
use crate::digest::{instance_digest, schedule_digest};
use crate::http::{Request, Response};
use crate::ops::{access_log_line, OpsState};

/// Where a request's mesh comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshSource {
    /// One of the paper's presets, built at `scale`.
    Preset {
        /// Preset name (`tetonly`, `well_logging`, `long`, `prismtet`).
        name: String,
        /// Mesh scale in `(0, 1]`.
        scale: f64,
    },
    /// An inline `sweep-instance v1` document (as produced by
    /// `sweep instance --out`); `sn` is ignored for inline instances
    /// because the direction set is part of the document.
    Inline {
        /// The serialized instance text.
        text: String,
    },
    /// An uploaded mesh file body (Wavefront `.obj` or Gmsh `.msh`),
    /// imported through `sweep_mesh::import` and induced against the
    /// request's `sn` quadrature. See MESHES.md for the accepted
    /// grammar subsets and limits.
    Mesh {
        /// Declared format: `auto`, `obj`, or `msh`.
        format: String,
        /// The raw mesh file text.
        text: String,
    },
}

/// A parsed `POST /v1/schedule` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Mesh source (preset or inline instance).
    pub mesh: MeshSource,
    /// S_n quadrature order (preset meshes only).
    pub sn: usize,
    /// Processor count.
    pub m: usize,
    /// Algorithm name (the CLI's `--algorithm` vocabulary).
    pub algorithm: String,
    /// Compose random delays onto the priority heuristics.
    pub delays: bool,
    /// Master seed for the assignment draw and trial splitting.
    pub seed: u64,
    /// Best-of-`b` trial count.
    pub b: usize,
}

/// Largest accepted processor count. The assignment draw stores
/// processor ids as `u32` and the schedulers allocate per-processor
/// state (`O(m)` heaps/queues), so an unbounded `m` from the network
/// is both a truncation hazard and a memory-exhaustion vector; 2^20
/// processors is far past any machine the paper contemplates.
pub const MAX_M: usize = 1 << 20;

/// Checks a processor count against the service bounds — used both at
/// parse time and defensively in the compute paths, so a
/// programmatically-built [`ScheduleRequest`] gets the same guard as a
/// network one.
fn check_m(m: usize) -> Result<(), String> {
    if m == 0 {
        return Err("'m' must be a positive integer".to_string());
    }
    if m > MAX_M {
        return Err(format!(
            "'m' = {m} exceeds the service limit of {MAX_M} processors"
        ));
    }
    Ok(())
}

/// Rejects an instance whose `cells × directions` product exceeds the
/// admission budget — called on the *predicted* size, before any mesh
/// generation, edge-list parsing, or induction has run, so an
/// oversized request is refused at header cost.
fn check_task_budget(cells: usize, directions: usize, max_tasks: usize) -> Result<(), String> {
    let tasks = cells.saturating_mul(directions);
    if tasks > max_tasks {
        return Err(format!(
            "instance would have {cells} cells × {directions} directions = {tasks} tasks, \
             over the service limit of {max_tasks}"
        ));
    }
    Ok(())
}

/// Imports an uploaded mesh body and induces the request's instance.
/// Every import failure is prefixed `mesh:` so the router maps it to
/// 400 — a malformed upload is a bad request, not an unprocessable
/// reference.
fn import_mesh_instance(
    format: &str,
    text: &str,
    sn: usize,
    max_tasks: usize,
) -> Result<SweepInstance, String> {
    let fmt = ImportFormat::from_name(format)
        .ok_or_else(|| format!("mesh: unknown format '{format}' (use auto, obj, or msh)"))?;
    let quad = QuadratureSet::level_symmetric(sn).map_err(|e| e.to_string())?;
    // Admission: bound the predicted task count from declared counts
    // alone, before assembly allocates anything proportional to them.
    let (_, cells) =
        sweep_mesh::import::peek_counts(text.as_bytes(), fmt).map_err(|e| format!("mesh: {e}"))?;
    check_task_budget(cells, quad.len(), max_tasks)?;
    let got = sweep_mesh::import_bytes(text.as_bytes(), fmt).map_err(|e| format!("mesh: {e}"))?;
    if got.report.has_errors() {
        return Err(format!(
            "mesh: validation failed: {} non-manifold faces, {} degenerate cells \
             (run `sweep mesh import` locally for the full SW03x report)",
            got.report.non_manifold.len(),
            got.report.degenerate_cells.len()
        ));
    }
    let name = format!(
        "imported-{}",
        got.report.format.map(|f| f.name()).unwrap_or("mesh")
    );
    Ok(SweepInstance::from_mesh(&got.mesh, &quad, &name).0)
}

impl ScheduleRequest {
    /// A preset-mesh request with the service defaults
    /// (`algorithm = "rdp"`, `seed = 2005`, `b = 8`).
    pub fn preset(name: &str, scale: f64, sn: usize, m: usize) -> ScheduleRequest {
        ScheduleRequest {
            mesh: MeshSource::Preset {
                name: name.to_string(),
                scale,
            },
            sn,
            m,
            algorithm: "rdp".to_string(),
            delays: false,
            seed: 2005,
            b: 8,
        }
    }

    /// Parses the JSON body of `POST /v1/schedule`. See API.md for the
    /// schema; unknown fields are rejected so typos fail loudly.
    pub fn from_json(body: &str) -> Result<ScheduleRequest, String> {
        let doc = sweep_json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let Value::Obj(members) = &doc else {
            return Err("request body must be a JSON object".to_string());
        };
        const KNOWN: [&str; 10] = [
            "preset",
            "scale",
            "instance",
            "mesh",
            "mesh_format",
            "sn",
            "m",
            "algorithm",
            "delays",
            "seed",
        ];
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) && key != "b" {
                return Err(format!("unknown field '{key}'"));
            }
        }
        let num = |key: &str, default: f64| -> Result<f64, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("'{key}' must be a number")),
            }
        };
        let int = |key: &str, default: u64| -> Result<u64, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };
        let sources = [
            doc.get("preset").is_some(),
            doc.get("instance").is_some(),
            doc.get("mesh").is_some(),
        ];
        let mesh = match sources.iter().filter(|&&s| s).count() {
            0 => return Err("missing mesh: give 'preset', 'instance', or 'mesh'".to_string()),
            1 => {
                if let Some(p) = doc.get("preset") {
                    MeshSource::Preset {
                        name: p
                            .as_str()
                            .ok_or_else(|| "'preset' must be a string".to_string())?
                            .to_string(),
                        scale: num("scale", 0.02)?,
                    }
                } else if let Some(i) = doc.get("instance") {
                    MeshSource::Inline {
                        text: i
                            .as_str()
                            .ok_or_else(|| "'instance' must be a string".to_string())?
                            .to_string(),
                    }
                } else {
                    let text = doc
                        .get("mesh")
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| "'mesh' must be a string".to_string())?
                        .to_string();
                    let format = match doc.get("mesh_format") {
                        None => "auto".to_string(),
                        Some(v) => {
                            let name = v
                                .as_str()
                                .ok_or_else(|| "'mesh_format' must be a string".to_string())?;
                            if ImportFormat::from_name(name).is_none() {
                                return Err(format!(
                                    "'mesh_format' must be auto, obj, or msh (got '{name}')"
                                ));
                            }
                            name.to_string()
                        }
                    };
                    MeshSource::Mesh { format, text }
                }
            }
            _ => {
                return Err(
                    "give exactly one of 'preset', 'instance', or 'mesh', not several".to_string(),
                )
            }
        };
        if doc.get("mesh_format").is_some() && doc.get("mesh").is_none() {
            return Err("'mesh_format' is only valid together with 'mesh'".to_string());
        }
        let m64 = int("m", 0)?;
        if m64 > MAX_M as u64 {
            return Err(format!(
                "'m' = {m64} exceeds the service limit of {MAX_M} processors"
            ));
        }
        let m = m64 as usize;
        check_m(m)?;
        let b = (int("b", 8)? as usize).clamp(1, 64);
        let delays = match doc.get("delays") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "'delays' must be a boolean".to_string())?,
        };
        Ok(ScheduleRequest {
            mesh,
            sn: int("sn", 4)? as usize,
            m,
            algorithm: match doc.get("algorithm") {
                None => "rdp".to_string(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| "'algorithm' must be a string".to_string())?
                    .to_string(),
            },
            delays,
            seed: int("seed", 2005)?,
            b,
        })
    }

    /// The canonical content bytes of the mesh part of this request —
    /// what tier-1 digests hash. An inline instance is borrowed, not
    /// copied: this runs on every request, hit or miss.
    pub fn mesh_bytes(&self) -> Cow<'_, [u8]> {
        match &self.mesh {
            MeshSource::Preset { name, scale } => {
                Cow::Owned(format!("preset:{name}:{:016x}", scale.to_bits()).into_bytes())
            }
            MeshSource::Inline { text } => Cow::Borrowed(text.as_bytes()),
            MeshSource::Mesh { format, text } => {
                // The declared format is part of the content identity:
                // the same bytes parsed as a different format would be a
                // different mesh.
                let mut bytes = format!("mesh:{format}:").into_bytes();
                bytes.extend_from_slice(text.as_bytes());
                Cow::Owned(bytes)
            }
        }
    }

    /// The two content digests of this request: the tier-1 key (mesh
    /// bytes + quadrature order) and the tier-2 key built on it.
    pub fn digests(&self) -> (u64, u64) {
        let instance = instance_digest(&self.mesh_bytes(), self.sn);
        let schedule = schedule_digest(
            instance,
            self.m,
            &self.algorithm,
            self.delays,
            self.seed,
            self.b,
        );
        (instance, schedule)
    }

    /// The tier-2 content digest: the cache address of this request's
    /// schedule and the key the cluster ring homes it by.
    pub fn digest(&self) -> u64 {
        self.digests().1
    }

    /// Serializes this request back to a JSON body that
    /// [`ScheduleRequest::from_json`] parses to an equal value — the
    /// payload a forward RPC carries to the digest's home shard. Every
    /// field is explicit (no defaults on the wire), and `scale` uses
    /// Rust's shortest round-trip float form, so the home shard derives
    /// the identical digest.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{");
        match &self.mesh {
            MeshSource::Preset { name, scale } => {
                let _ = write!(
                    out,
                    "\"preset\": \"{}\", \"scale\": {scale:?}, ",
                    sweep_json::escape(name)
                );
            }
            MeshSource::Inline { text } => {
                let _ = write!(out, "\"instance\": \"{}\", ", sweep_json::escape(text));
            }
            MeshSource::Mesh { format, text } => {
                let _ = write!(
                    out,
                    "\"mesh\": \"{}\", \"mesh_format\": \"{}\", ",
                    sweep_json::escape(text),
                    sweep_json::escape(format)
                );
            }
        }
        let _ = write!(
            out,
            "\"sn\": {}, \"m\": {}, \"algorithm\": \"{}\", \"delays\": {}, \
             \"seed\": {}, \"b\": {}}}",
            self.sn,
            self.m,
            sweep_json::escape(&self.algorithm),
            self.delays,
            self.seed,
            self.b
        );
        out
    }
}

/// A computed (or cache-served) schedule summary, ready to serialize.
#[derive(Debug, Clone)]
pub struct ScheduleResponse {
    /// Instance name (preset name or the inline instance's own name).
    pub name: String,
    /// Cells, directions, tasks of the instance.
    pub cells: usize,
    /// Number of sweep directions.
    pub directions: usize,
    /// Total task count (`cells × directions`).
    pub tasks: usize,
    /// Processor count the schedule targets.
    pub m: usize,
    /// Algorithm name as requested.
    pub algorithm: String,
    /// Makespan of the winning trial.
    pub makespan: u32,
    /// Best certified lower bound (`LowerBounds::best()`): the paper's
    /// `max{nk/m, k, D}`.
    pub lower_bound: u64,
    /// C1: interprocessor DAG edges under the assignment.
    pub c1: u64,
    /// C2: communication-delay cost of the schedule.
    pub c2: u64,
    /// Winning trial index in `0..b`.
    pub trial: usize,
    /// Trial count the request ran.
    pub b: usize,
    /// Whether the schedule came out of the tier-2 cache.
    pub cache_hit: bool,
    /// Whether the induced instance came out of the tier-1 cache.
    pub instance_cache_hit: bool,
    /// Tier-2 content digest (hex; the cache address of this result).
    pub digest: u64,
    /// How the cluster layer satisfied this request (`None` outside
    /// cluster mode, and for local homes and cache hits). Reported as
    /// response *headers*, never in the JSON body, so bodies stay
    /// bit-identical across serving paths.
    pub cluster: Option<ClusterDisposition>,
}

/// How a clustered request's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterDisposition {
    /// The artifact came from the digest's home shard over RPC.
    Forwarded {
        /// The home shard's id.
        home: u64,
    },
    /// The home shard was unreachable (or the forward failed); this
    /// shard degraded gracefully to local compute. The answer is
    /// bit-identical either way.
    Fallback {
        /// The home shard's id.
        home: u64,
    },
}

impl ScheduleResponse {
    /// Serializes the response body (stable field order).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", sweep_json::escape(&self.name));
        let _ = writeln!(out, "  \"cells\": {},", self.cells);
        let _ = writeln!(out, "  \"directions\": {},", self.directions);
        let _ = writeln!(out, "  \"tasks\": {},", self.tasks);
        let _ = writeln!(out, "  \"m\": {},", self.m);
        let _ = writeln!(
            out,
            "  \"algorithm\": \"{}\",",
            sweep_json::escape(&self.algorithm)
        );
        let _ = writeln!(out, "  \"makespan\": {},", self.makespan);
        let _ = writeln!(out, "  \"lower_bound\": {},", self.lower_bound);
        let _ = writeln!(
            out,
            "  \"ratio\": {:.4},",
            self.makespan as f64 / self.lower_bound.max(1) as f64
        );
        let _ = writeln!(out, "  \"c1\": {},", self.c1);
        let _ = writeln!(out, "  \"c2\": {},", self.c2);
        let _ = writeln!(out, "  \"trial\": {},", self.trial);
        let _ = writeln!(out, "  \"b\": {},", self.b);
        let _ = writeln!(
            out,
            "  \"cache\": \"{}\",",
            if self.cache_hit { "hit" } else { "miss" }
        );
        let _ = writeln!(
            out,
            "  \"instance_cache\": \"{}\",",
            if self.instance_cache_hit {
                "hit"
            } else {
                "miss"
            }
        );
        let _ = writeln!(out, "  \"digest\": \"{:016x}\"", self.digest);
        out.push_str("}\n");
        out
    }
}

/// Service-level configuration (the server adds socket concerns on top).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Byte budget per cache tier.
    pub cache_bytes: usize,
    /// Largest accepted `cells × directions` product, so one request
    /// can't wedge every worker (the paper-size prismtet at S4 is
    /// ~2.8M tasks; the default admits it with headroom).
    pub max_tasks: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_bytes: 64 * 1024 * 1024,
            max_tasks: 8_000_000,
        }
    }
}

/// Everything [`SweepService::artifact_with`] learns about one request.
struct ArtifactOutcome {
    inst_hit: bool,
    artifact: Arc<ScheduleArtifact>,
    hit: bool,
    cluster: Option<ClusterDisposition>,
}

/// The local trials: assignment draw, then best-of-`b` on the global
/// pool. What comes back is the winning schedule as the trials left it,
/// not yet checked ([`UncheckedArtifact::check`]) or packed. Reads and
/// writes no cache.
fn run_trials(
    inst: &SweepInstance,
    req: &ScheduleRequest,
    algorithm: Algorithm,
    digest: u64,
    ctx: &TraceCtx,
) -> UncheckedArtifact {
    // Attribute the pool work this request triggered: the `pool.tasks`
    // counter delta across the trials is the number of pool tasks
    // charged to this request.
    let tasks_before = telemetry::counter_value("pool.tasks");
    let assignment = Assignment::random_cells(inst.num_cells(), req.m, req.seed);
    let best = best_of_trials_with_pool(
        &sweep_pool::global(),
        inst,
        &assignment,
        algorithm,
        req.b,
        req.seed,
    );
    let pool_tasks = telemetry::counter_value("pool.tasks").saturating_sub(tasks_before);
    if pool_tasks > 0 {
        ctx.note("pool_tasks", pool_tasks);
    }
    UncheckedArtifact {
        trial: best.trial,
        trial_seed: best.seed,
        trial_makespans: best.outcomes.iter().map(|o| o.makespan).collect(),
        schedule: best.schedule,
        digest,
    }
}

/// The scheduling service: config + the two-tier cache + the shared
/// operational state behind `/debug/vars` and the access log.
pub struct SweepService {
    config: ServiceConfig,
    cache: ScheduleCache,
    ops: Arc<OpsState>,
    cluster: OnceLock<Arc<ClusterState>>,
}

impl SweepService {
    /// A service with a fresh, empty cache.
    pub fn new(config: ServiceConfig) -> SweepService {
        let cache = ScheduleCache::new(config.cache_bytes);
        SweepService {
            config,
            cache,
            ops: Arc::new(OpsState::default()),
            cluster: OnceLock::new(),
        }
    }

    /// The underlying cache (stats introspection).
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Attaches cluster state (once, at server bind). Before this the
    /// service behaves exactly as a single node.
    pub fn set_cluster(&self, cluster: Arc<ClusterState>) {
        let _ = self.cluster.set(cluster);
    }

    /// The attached cluster state, if the server runs in cluster mode.
    pub fn cluster(&self) -> Option<&Arc<ClusterState>> {
        self.cluster.get()
    }

    /// The shared operational state (request ids, sampling, slow-trace
    /// buffer, access-log sink).
    pub fn ops(&self) -> &Arc<OpsState> {
        &self.ops
    }

    /// Builds a request's instance from nothing: admission on the
    /// predicted size, then mesh build / parse / import and induction.
    fn induce(&self, req: &ScheduleRequest) -> Result<SweepInstance, String> {
        let max_tasks = self.config.max_tasks;
        let inst = match &req.mesh {
            MeshSource::Preset { name, scale } => {
                let preset = MeshPreset::from_name(name)
                    .ok_or_else(|| format!("unknown preset '{name}'"))?;
                let quad = QuadratureSet::level_symmetric(req.sn).map_err(|e| e.to_string())?;
                // Admission check before the mesh is even built:
                // `build_scaled` targets `ceil(paper_cells × scale)`
                // cells (min 16), so the task count is known up front.
                let cells = ((preset.paper_cells() as f64 * scale).ceil() as usize).max(16);
                check_task_budget(cells, quad.len(), max_tasks)?;
                let mesh = preset.build_scaled(*scale).map_err(|e| e.to_string())?;
                SweepInstance::from_mesh(&mesh, &quad, preset.name()).0
            }
            MeshSource::Inline { text } => {
                let (cells, directions) = sweep_dag::peek_counts(text)?;
                check_task_budget(cells, directions, max_tasks)?;
                sweep_dag::from_text(text)?
            }
            MeshSource::Mesh { format, text } => {
                import_mesh_instance(format, text, req.sn, max_tasks)?
            }
        };
        // Backstop: the mesh generator may overshoot its target.
        if inst.num_tasks() > max_tasks {
            return Err(format!(
                "instance has {} tasks, over the service limit of {max_tasks}",
                inst.num_tasks()
            ));
        }
        Ok(inst)
    }

    /// The full cached compute path for one schedule request, with no
    /// request-scoped tracing (library callers; the server routes
    /// through [`SweepService::schedule_traced`]).
    pub fn schedule(&self, req: &ScheduleRequest) -> Result<ScheduleResponse, String> {
        self.schedule_traced(req, &TraceCtx::disabled())
    }

    /// The full cached compute path for one schedule request, recording
    /// stage spans (`cache`, `induce`, `schedule`) and cache/pool
    /// attribution notes onto `ctx`. The response is the artifact's
    /// stored summary plus the request's own `m` / `algorithm` / `b`:
    /// nothing here reads the instance or the schedule.
    pub fn schedule_traced(
        &self,
        req: &ScheduleRequest,
        ctx: &TraceCtx,
    ) -> Result<ScheduleResponse, String> {
        let outcome = self.artifact_with(req, ctx, true)?;
        let summary = outcome.artifact.summary();
        Ok(ScheduleResponse {
            name: summary.name.clone(),
            cells: summary.cells,
            directions: summary.directions,
            tasks: summary.tasks,
            m: req.m,
            algorithm: req.algorithm.clone(),
            makespan: summary.makespan,
            lower_bound: summary.bounds.best(),
            c1: summary.c1,
            c2: summary.c2,
            trial: outcome.artifact.trial(),
            b: req.b,
            cache_hit: outcome.hit,
            instance_cache_hit: outcome.inst_hit,
            digest: outcome.artifact.digest(),
            cluster: outcome.cluster,
        })
    }

    /// The cached artifact for a request, as the answer to a peer's
    /// forward RPC: the same cached compute path minus the forwarding
    /// step — the home shard always computes (or serves) locally, which
    /// is the loop guard if two shards ever disagree about a ring.
    pub fn schedule_artifact(
        &self,
        req: &ScheduleRequest,
        ctx: &TraceCtx,
    ) -> Result<Arc<ScheduleArtifact>, String> {
        Ok(self.artifact_with(req, ctx, false)?.artifact)
    }

    /// The shared artifact acquisition path: tier-2 single-flight
    /// first, and only its leader goes on to the tier-1 instance and —
    /// when `allow_forward` and this shard is not the digest's home —
    /// one forwarded RPC that every concurrent follower coalesces onto
    /// (cluster-wide single-flight). Any forward failure degrades to
    /// local compute; determinism makes the degraded answer
    /// bit-identical. A tier-2 hit (or coalesced wait) therefore
    /// induces nothing: its `inst_hit` is tier-1 residency as found.
    fn artifact_with(
        &self,
        req: &ScheduleRequest,
        ctx: &TraceCtx,
        allow_forward: bool,
    ) -> Result<ArtifactOutcome, String> {
        let _span = telemetry::span!("serve.schedule");
        check_m(req.m)?;
        let algorithm = Algorithm::from_name(&req.algorithm, req.delays)?;
        let (inst_key, key) = req.digests();
        let cache_span = ctx.span("cache");
        let cctx = cache_span.ctx();
        let mut cluster_via: Option<ClusterDisposition> = None;
        let mut induced: Option<bool> = None;
        let (artifact, hit) = self.cache.schedule(key, cctx, || {
            let (inst, inst_hit) = self.cache.instance(inst_key, cctx, || {
                let _span = telemetry::span!("serve.induce");
                let _stage = cctx.span("induce");
                self.induce(req)
            })?;
            induced = Some(inst_hit);
            let stage = cctx.span("schedule");
            if allow_forward {
                match self.try_forward(key, req, &inst, stage.ctx()) {
                    None => {}
                    Some(Ok((home, remote))) => {
                        cluster_via = Some(ClusterDisposition::Forwarded { home });
                        return Ok(remote);
                    }
                    Some(Err(home)) => cluster_via = Some(ClusterDisposition::Fallback { home }),
                }
            }
            let _span = telemetry::span!("serve.compute");
            run_trials(&inst, req, algorithm, key, stage.ctx())
                .check(&inst, req.m, stage.ctx())
                .map_err(|e| format!("internal: infeasible schedule: {e}"))
        })?;
        let inst_hit = induced.unwrap_or_else(|| self.cache.instance_resident(inst_key, cctx));
        Ok(ArtifactOutcome {
            inst_hit,
            artifact,
            hit,
            cluster: cluster_via,
        })
    }

    /// The forwarding decision inside the tier-2 leader closure.
    ///
    /// * `None` — not clustered, or this shard is the digest's home:
    ///   compute locally with no cluster disposition.
    /// * `Some(Ok((home, artifact)))` — the home shard answered and its
    ///   bytes passed [`UncheckedArtifact::check`] against the locally
    ///   induced instance (bytes off the wire are never trusted; the
    ///   summary is recomputed here, not carried by the frame).
    /// * `Some(Err(home))` — the home shard is down, unreachable, or
    ///   answered garbage: degrade to local compute, noted as a
    ///   fallback.
    #[allow(clippy::type_complexity)]
    fn try_forward(
        &self,
        key: u64,
        req: &ScheduleRequest,
        inst: &SweepInstance,
        ctx: &TraceCtx,
    ) -> Option<Result<(u64, ScheduleArtifact), u64>> {
        let cluster = self.cluster.get()?;
        let home = cluster.home_of(key);
        let failed = match cluster.route_for(key) {
            Route::Local => return None,
            Route::Degraded(_) => None,
            Route::Forward(peer) => {
                let checked = cluster
                    .forward_schedule(peer, req.to_canonical_json(), key)
                    .and_then(|remote| {
                        remote
                            .check(inst, req.m, ctx)
                            .map_err(|e| format!("infeasible: {e}"))
                    });
                match checked {
                    Ok(artifact) => {
                        ctx.note("cluster", "forward");
                        telemetry::counter_add("serve.cluster.forwards", 1);
                        return Some(Ok((home, artifact)));
                    }
                    Err(e) => Some(e),
                }
            }
        };
        cluster.record_fallback();
        ctx.note("cluster", "fallback");
        if let Some(e) = failed {
            cluster.record_forward_fail();
            ctx.note("cluster_error", e);
        }
        telemetry::counter_add("serve.cluster.fallbacks", 1);
        Some(Err(home))
    }

    /// Serves one inbound peer RPC frame: pings get pongs, forwarded
    /// schedule requests run the local (never re-forwarding) cached
    /// compute path and return the encoded artifact. Emits an
    /// access-log line with method `RPC` so cluster-wide single-flight
    /// is observable in the same place as HTTP traffic.
    pub fn serve_peer_rpc(&self, frame: &Frame) -> Frame {
        match RpcRequest::from_frame(frame) {
            Ok(RpcRequest::Ping) => RpcResponse::Pong.to_frame(),
            Ok(RpcRequest::Schedule { origin, body }) => {
                let started = Instant::now();
                if let Some(cluster) = self.cluster.get() {
                    cluster.record_rpc_serve();
                }
                telemetry::counter_add("serve.cluster.rpc_serves", 1);
                let conn = self.ops.next_conn();
                let ctx = self.ops.trace_ctx(conn);
                let root = ctx.span("request");
                root.ctx().note("forwarded_from", origin);
                let result = match ScheduleRequest::from_json(&body) {
                    Ok(req) => self.schedule_artifact(&req, root.ctx()),
                    Err(e) => Err(e),
                };
                drop(root);
                let trace = ctx.finish();
                let (response, status, bytes) = match result {
                    Ok(artifact) => {
                        let encoded = encode_artifact(&artifact.unpack());
                        let n = encoded.len();
                        (RpcResponse::Artifact(encoded), 200, n)
                    }
                    Err(e) => {
                        let status = if e.starts_with("internal:") { 500 } else { 422 };
                        (RpcResponse::Error(e), status, 0)
                    }
                };
                if self.ops.should_log(conn) {
                    self.ops.log(&access_log_line(
                        ctx.request_id(),
                        "RPC",
                        "/rpc/schedule",
                        status,
                        bytes,
                        started.elapsed().as_micros() as u64,
                        self.ops.sheds(),
                        trace.as_ref(),
                    ));
                }
                response.to_frame()
            }
            Err(e) => RpcResponse::Error(format!("{e}")).to_frame(),
        }
    }

    /// Recomputes a request **cold** — no cache read, no cache write —
    /// for the SW024 and SW029 identity certifications: the winning
    /// schedule exactly as the trials returned it, never checked or
    /// packed, so a packing fault on the served side cannot cancel out
    /// in the diff.
    pub fn compute_cold(
        &self,
        req: &ScheduleRequest,
    ) -> Result<(SweepInstance, UncheckedArtifact), String> {
        check_m(req.m)?;
        let algorithm = Algorithm::from_name(&req.algorithm, req.delays)?;
        let inst = self.induce(req)?;
        let cold = run_trials(&inst, req, algorithm, req.digest(), &TraceCtx::disabled());
        Ok((inst, cold))
    }

    /// Routes one parsed HTTP request with no request-scoped tracing.
    pub fn route(&self, req: &Request) -> Response {
        self.route_traced(req, &TraceCtx::disabled())
    }

    /// Routes one parsed HTTP request, recording stage spans onto `ctx`.
    /// All endpoint semantics (including error mapping) live here so
    /// they are socket-independent.
    pub fn route_traced(&self, req: &Request, ctx: &TraceCtx) -> Response {
        telemetry::counter_add("serve.http.requests", 1);
        let response = match (req.method.as_str(), req.path.as_str()) {
            // In cluster mode health is a JSON document carrying the
            // cluster surface; peers being down makes it
            // `"degraded": true` but never non-200 — a shard that can
            // still compute locally is alive.
            ("GET", "/healthz") => match self.cluster.get() {
                None => Response::text("ok\n".to_string()),
                Some(cluster) => Response::json(format!(
                    "{{\"status\": \"ok\", \"cluster\": {}}}\n",
                    cluster.status_json_fragment()
                )),
            },
            ("GET", "/v1/presets") => Response::json(render_presets()),
            ("GET", "/metrics") => {
                let text = telemetry::to_prometheus(&telemetry::snapshot());
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    extra_headers: Vec::new(),
                    body: text,
                }
            }
            ("GET", "/debug/vars") => Response::json(self.debug_vars_json()),
            ("GET", "/debug/trace") => {
                Response::json(sweep_telemetry::traces_to_chrome(&self.ops.slow_traces()))
            }
            ("POST", "/v1/schedule") => match std::str::from_utf8(&req.body) {
                Err(_) => Response::error(400, "body is not valid UTF-8"),
                Ok(body) => {
                    let parse_span = ctx.span("parse");
                    let parsed = ScheduleRequest::from_json(body);
                    drop(parse_span);
                    match parsed {
                        Err(e) => Response::error(400, &e),
                        Ok(parsed) => match self.schedule_traced(&parsed, ctx) {
                            Ok(resp) => {
                                let _ser = ctx.span("serialize");
                                // Cluster disposition travels as headers
                                // only: JSON bodies stay bit-identical
                                // across forward/fallback/local paths.
                                let response = Response::json(resp.render_json());
                                match resp.cluster {
                                    None => response,
                                    Some(ClusterDisposition::Forwarded { home }) => response
                                        .with_header("X-Sweep-Forwarded-From", home.to_string()),
                                    Some(ClusterDisposition::Fallback { home }) => response
                                        .with_header(
                                            "X-Sweep-Degraded",
                                            format!("fallback; home={home}"),
                                        ),
                                }
                            }
                            // A well-formed request naming something that
                            // doesn't exist or doesn't fit is the client's
                            // problem (422); a mesh body that fails to parse
                            // or validate is a malformed request (400); an
                            // internal inconsistency is ours.
                            Err(e) if e.starts_with("internal:") => Response::error(500, &e),
                            Err(e) if e.starts_with("mesh:") => Response::error(400, &e),
                            Err(e) => Response::error(422, &e),
                        },
                    }
                }
            },
            (_, "/healthz" | "/v1/presets" | "/metrics" | "/debug/vars" | "/debug/trace") => {
                Response::error(405, "use GET on this endpoint")
            }
            (_, "/v1/schedule") => Response::error(405, "use POST on this endpoint"),
            (_, path) => Response::error(404, &format!("no such endpoint '{path}'")),
        };
        let class = match response.status {
            200..=299 => "serve.http.responses_2xx",
            429 => "serve.http.responses_429",
            400..=499 => "serve.http.responses_4xx",
            _ => "serve.http.responses_5xx",
        };
        telemetry::counter_add(class, 1);
        // Per-route × status-class request counter. The route label is
        // drawn from the fixed endpoint vocabulary (unknown paths all
        // collapse to "other") so a path-scanning client can't mint
        // unbounded label values.
        let route = ROUTES
            .iter()
            .position(|r| *r == req.path)
            .unwrap_or(ROUTES.len());
        let status = match response.status {
            200..=299 => 0,
            429 => 1,
            400..=499 => 2,
            _ => 3,
        };
        telemetry::counter_add(REQUESTS_BY_ROUTE[route][status], 1);
        // Every response from a clustered shard names the shard that
        // produced it, so a client behind a load balancer can tell the
        // shards apart.
        match self.cluster.get() {
            None => response,
            Some(cluster) => response.with_header("X-Sweep-Shard", cluster.self_id().to_string()),
        }
    }

    /// The `GET /debug/vars` body: a point-in-time JSON snapshot of the
    /// live operational surface — request/shed counters, in-flight
    /// depth, cache residency per tier, pool work, and per-stage latency
    /// quantiles.
    pub fn debug_vars_json(&self) -> String {
        let snap = telemetry::snapshot();
        let stats = self.cache.stats();
        let (t1, t2) = self.cache.tier_stats();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"requests\": {},",
            snap.counters
                .get("serve.http.requests")
                .copied()
                .unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "  \"inflight\": {},",
            snap.gauges.get("serve.inflight").copied().unwrap_or(0.0) as u64
        );
        let _ = writeln!(out, "  \"sheds\": {},", self.ops.sheds());
        let _ = writeln!(
            out,
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"coalesced\": {}, \"bytes\": {},",
            stats.hits, stats.misses, stats.evictions, stats.coalesced, stats.bytes
        );
        let _ = writeln!(
            out,
            "    \"tier1\": {{\"entries\": {}, \"bytes\": {}}},",
            t1.entries, t1.bytes
        );
        let _ = writeln!(
            out,
            "    \"tier2\": {{\"entries\": {}, \"bytes\": {}}}}},",
            t2.entries, t2.bytes
        );
        let _ = writeln!(
            out,
            "  \"pool\": {{\"tasks\": {}, \"steals\": {}, \"steal_attempts\": {}, \
             \"steal_failures\": {}, \"parked\": {}}},",
            snap.counters.get("pool.tasks").copied().unwrap_or(0),
            snap.counters.get("pool.steals").copied().unwrap_or(0),
            snap.counters
                .get("pool.steal_attempts")
                .copied()
                .unwrap_or(0),
            snap.counters
                .get("pool.steal_failures")
                .copied()
                .unwrap_or(0),
            snap.counters.get("pool.parked").copied().unwrap_or(0)
        );
        if let Some(cluster) = self.cluster.get() {
            let _ = writeln!(out, "  \"cluster\": {},", cluster.status_json_fragment());
        }
        out.push_str("  \"stages_us\": {");
        for (i, stage) in telemetry::STAGES.iter().enumerate() {
            let (p50, p99, count) = snap
                .histograms
                .get(&format!("serve.stage.{stage}_us"))
                .map(|h| (h.p50(), h.p99(), h.count()))
                .unwrap_or((0.0, 0.0, 0));
            let _ = write!(
                out,
                "{}\"{stage}\": {{\"p50\": {p50:.1}, \"p99\": {p99:.1}, \"count\": {count}}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"slow_traces\": {}", self.ops.slow_traces().len());
        out.push_str("}\n");
        out
    }
}

/// The endpoint vocabulary of the per-route request counter; every
/// other path counts as `other`, the last row of [`REQUESTS_BY_ROUTE`].
const ROUTES: [&str; 6] = [
    "/healthz",
    "/v1/presets",
    "/metrics",
    "/v1/schedule",
    "/debug/vars",
    "/debug/trace",
];

/// One row of [`REQUESTS_BY_ROUTE`]: the route's key per status class.
macro_rules! by_route {
    ($route:literal) => {
        [
            concat!(
                "serve.http.requests_by_route{route=\"",
                $route,
                "\",status=\"2xx\"}"
            ),
            concat!(
                "serve.http.requests_by_route{route=\"",
                $route,
                "\",status=\"429\"}"
            ),
            concat!(
                "serve.http.requests_by_route{route=\"",
                $route,
                "\",status=\"4xx\"}"
            ),
            concat!(
                "serve.http.requests_by_route{route=\"",
                $route,
                "\",status=\"5xx\"}"
            ),
        ]
    };
}

/// `serve.http.requests_by_route` storage keys: a row per [`ROUTES`]
/// entry then `other`, a column per status class (`2xx`, `429`, `4xx`,
/// `5xx`), spelled out so the per-request path formats no label block.
const REQUESTS_BY_ROUTE: [[&str; 4]; ROUTES.len() + 1] = [
    by_route!("/healthz"),
    by_route!("/v1/presets"),
    by_route!("/metrics"),
    by_route!("/v1/schedule"),
    by_route!("/debug/vars"),
    by_route!("/debug/trace"),
    by_route!("other"),
];

/// The `GET /v1/presets` body.
fn render_presets() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"presets\": [\n");
    let last = MeshPreset::ALL.len() - 1;
    for (i, p) in MeshPreset::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"paper_cells\": {}}}{}",
            p.name(),
            p.paper_cells(),
            if i == last { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// What both identity certifications start from: `req` served through
/// the service's full path, the artifact now resident under its digest
/// (unpacked), and the instance and artifact of a cold recomputation
/// outside the cache.
fn serve_and_recompute(
    service: &SweepService,
    req: &ScheduleRequest,
) -> Result<
    (
        ScheduleResponse,
        UncheckedArtifact,
        SweepInstance,
        UncheckedArtifact,
    ),
    String,
> {
    let served = service.schedule(req)?;
    let (resident, _) = service
        .cache()
        .schedule(served.digest, &TraceCtx::disabled(), || {
            Err("internal: artifact vanished after serving".to_string())
        })?;
    let (inst, cold) = service.compute_cold(req)?;
    Ok((served, resident.unpack(), inst, cold))
}

/// Runs the SW024 cache-identity certification for one request against
/// a service: serves it twice (the second **must** be a tier-2 hit),
/// recomputes it cold outside the cache, and diffs the two schedules
/// bit-for-bit through `sweep-analyze`.
pub fn certify_cache_identity(
    service: &SweepService,
    req: &ScheduleRequest,
) -> Result<sweep_analyze::Report, String> {
    service.schedule(req)?; // warm (miss or pre-existing)
    let (warm, cached, inst, cold) = serve_and_recompute(service, req)?;
    if !warm.cache_hit {
        return Err("second identical request did not hit the schedule cache".to_string());
    }
    Ok(sweep_analyze::analyze_cache_identity(
        &inst,
        &cached.schedule,
        &cold.schedule,
        sweep_analyze::CacheIdentityMeta {
            digest: warm.digest,
            cached_trial: cached.trial,
            cold_trial: cold.trial,
            cached_seed: cached.trial_seed,
            cold_seed: cold.trial_seed,
        },
    ))
}

/// Runs the SW029 cluster-identity certification for one request:
/// serves it through this shard's full cluster path — whichever way it
/// resolves (forwarded from the home shard, degraded to local compute,
/// plain local, or already cached) — then recomputes the request cold
/// on this node and diffs the served schedule against the cold one
/// bit-for-bit through `sweep-analyze`.
pub fn certify_cluster_identity(
    service: &SweepService,
    req: &ScheduleRequest,
) -> Result<sweep_analyze::Report, String> {
    let (served, artifact, inst, cold) = serve_and_recompute(service, req)?;
    let path = match served.cluster {
        Some(ClusterDisposition::Forwarded { .. }) => "forward",
        Some(ClusterDisposition::Fallback { .. }) => "fallback",
        None if served.cache_hit => "cached",
        None => "local",
    };
    Ok(sweep_analyze::analyze_cluster_identity(
        &inst,
        &artifact.schedule,
        &cold.schedule,
        sweep_analyze::ClusterIdentityMeta {
            digest: served.digest,
            path: path.to_string(),
            served_trial: artifact.trial,
            cold_trial: cold.trial,
            served_seed: artifact.trial_seed,
            cold_seed: cold.trial_seed,
        },
    ))
}

/// Bridges the telemetry trace type into the analyzer's plain-data form.
fn to_trace_data(t: &telemetry::RequestTrace) -> sweep_analyze::RequestTraceData {
    sweep_analyze::RequestTraceData {
        request_id: t.request_id,
        coalesced_onto: t.coalesced_onto,
        opened_spans: t.opened,
        spans: t
            .spans
            .iter()
            .map(|s| sweep_analyze::TraceSpanData {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                start_us: s.start_us,
                dur_us: s.dur_us,
            })
            .collect(),
    }
}

/// Runs the SW028 trace-tree certification over the slow-request
/// exemplars a service has kept: every span closed, parents before and
/// around their children, coalesce references resolving. A coalesced
/// follower may reference a leader that did not survive the
/// slow-buffer cut, so coalesce references are projected onto the
/// captured corpus.
pub fn certify_trace_trees(service: &SweepService) -> sweep_analyze::Report {
    let slow_traces = service.ops().slow_traces();
    let in_corpus: std::collections::BTreeSet<u64> =
        slow_traces.iter().map(|t| t.request_id).collect();
    let corpus: Vec<_> = slow_traces
        .iter()
        .map(|t| {
            let mut d = to_trace_data(t);
            d.coalesced_onto = d.coalesced_onto.filter(|l| in_corpus.contains(l));
            d
        })
        .collect();
    sweep_analyze::analyze_trace_trees(&corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny() -> ScheduleRequest {
        ScheduleRequest::preset("tetonly", 0.01, 2, 4)
    }

    #[test]
    fn route_counter_keys_equal_the_labeled_keys() {
        let routes = ROUTES.iter().copied().chain(["other"]);
        for (row, route) in REQUESTS_BY_ROUTE.iter().zip(routes) {
            for (key, status) in row.iter().zip(["2xx", "429", "4xx", "5xx"]) {
                assert_eq!(
                    *key,
                    telemetry::labeled(
                        "serve.http.requests_by_route",
                        &[("route", route), ("status", status)],
                    )
                );
            }
        }
    }

    const TINY_OBJ: &str = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2 4 3\n";

    fn mesh_req() -> ScheduleRequest {
        ScheduleRequest {
            mesh: MeshSource::Mesh {
                format: "auto".to_string(),
                text: TINY_OBJ.to_string(),
            },
            sn: 2,
            m: 2,
            algorithm: "greedy".to_string(),
            delays: false,
            seed: 1,
            b: 2,
        }
    }

    #[test]
    fn parses_minimal_and_full_bodies() {
        let r = ScheduleRequest::from_json(r#"{"preset": "tetonly", "m": 4}"#).unwrap();
        assert_eq!(r, {
            let mut want = ScheduleRequest::preset("tetonly", 0.02, 4, 4);
            want.b = 8;
            want
        });
        let r = ScheduleRequest::from_json(
            r#"{"preset": "long", "scale": 0.05, "sn": 2, "m": 16,
                "algorithm": "dfds", "delays": true, "seed": 7, "b": 3}"#,
        )
        .unwrap();
        assert_eq!(r.algorithm, "dfds");
        assert!(r.delays);
        assert_eq!((r.seed, r.b, r.sn, r.m), (7, 3, 2, 16));
    }

    #[test]
    fn rejects_bad_bodies() {
        for (body, needle) in [
            ("nonsense", "invalid JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"m": 4}"#, "missing mesh"),
            (r#"{"preset": "tetonly"}"#, "'m' must be a positive"),
            (r#"{"preset": "t", "instance": "x", "m": 1}"#, "exactly one"),
            (
                r#"{"preset": "tetonly", "m": 4, "typo": 1}"#,
                "unknown field",
            ),
            (r#"{"preset": "tetonly", "m": -2}"#, "non-negative"),
            (r#"{"preset": "tetonly", "m": 1048577}"#, "exceeds"),
            (r#"{"preset": "tetonly", "m": 4294967296}"#, "exceeds"),
            (r#"{"preset": 5, "m": 4}"#, "'preset' must be a string"),
        ] {
            let err = ScheduleRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn schedule_twice_hits_and_matches() {
        let svc = SweepService::new(ServiceConfig::default());
        let first = svc.schedule(&tiny()).unwrap();
        let second = svc.schedule(&tiny()).unwrap();
        assert!(!first.cache_hit && second.cache_hit);
        assert!(second.instance_cache_hit);
        assert_eq!(first.makespan, second.makespan);
        assert_eq!(first.digest, second.digest);
        assert!(first.makespan as u64 >= first.lower_bound);
    }

    #[test]
    fn different_content_means_different_digest_and_recompute() {
        let svc = SweepService::new(ServiceConfig::default());
        let a = svc.schedule(&tiny()).unwrap();
        let mut other = tiny();
        other.seed += 1;
        let b = svc.schedule(&other).unwrap();
        assert_ne!(a.digest, b.digest);
        assert!(!b.cache_hit);
        // Same mesh though: tier 1 must hit.
        assert!(b.instance_cache_hit);
    }

    #[test]
    fn inline_instance_round_trips() {
        let inst = SweepInstance::random_layered(30, 2, 4, 2, 5);
        let text = sweep_dag::to_text(&inst);
        let req = ScheduleRequest {
            mesh: MeshSource::Inline { text },
            sn: 0,
            m: 3,
            algorithm: "greedy".to_string(),
            delays: false,
            seed: 1,
            b: 2,
        };
        let svc = SweepService::new(ServiceConfig::default());
        let resp = svc.schedule(&req).unwrap();
        assert_eq!(resp.cells, 30);
        assert_eq!(resp.directions, 2);
    }

    #[test]
    fn oversized_requests_are_rejected_before_any_work_runs() {
        let svc = SweepService::new(ServiceConfig {
            max_tasks: 1000,
            ..ServiceConfig::default()
        });
        // Preset path: predicted cells × directions over budget is
        // refused before the mesh is generated (this test would take
        // visibly long otherwise).
        let err = svc
            .schedule(&ScheduleRequest::preset("prismtet", 1.0, 8, 4))
            .unwrap_err();
        assert!(err.contains("over the service limit"), "{err}");
        // Inline path: the header alone condemns the request — no edge
        // parsing, no O(cells × directions) allocation.
        let huge = "sweep-instance v1\nname huge\ncells 1000000000\ndirections 1000\n";
        let req = ScheduleRequest {
            mesh: MeshSource::Inline {
                text: huge.to_string(),
            },
            sn: 0,
            m: 4,
            algorithm: "greedy".to_string(),
            delays: false,
            seed: 1,
            b: 1,
        };
        assert!(svc
            .schedule(&req)
            .unwrap_err()
            .contains("over the service limit"));
        // A programmatically-built request with an absurd m is stopped
        // by the same guard the parser uses.
        let mut big_m = tiny();
        big_m.m = MAX_M + 1;
        assert!(svc.schedule(&big_m).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn unknown_preset_and_algorithm_are_client_errors() {
        let svc = SweepService::new(ServiceConfig::default());
        let mut req = tiny();
        req.algorithm = "quantum".to_string();
        assert!(svc
            .schedule(&req)
            .unwrap_err()
            .contains("unknown algorithm"));
        // Refused before either tier is consulted.
        assert_eq!(svc.cache().stats().misses, 0);
        let mut req = tiny();
        req.mesh = MeshSource::Preset {
            name: "nope".to_string(),
            scale: 0.01,
        };
        assert!(svc.schedule(&req).unwrap_err().contains("unknown preset"));
        // A request refused at induction has led a flight in each tier
        // (tier 1 is claimed inside the tier-2 leader closure): two
        // misses, like any cold request, and nothing left resident.
        let stats = svc.cache().stats();
        assert_eq!((stats.hits, stats.misses, stats.bytes), (0, 2, 0));
    }

    #[test]
    fn routing_matrix() {
        let svc = SweepService::new(ServiceConfig::default());
        let get = |path: &str| Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: None,
            headers: HashMap::new(),
            body: Vec::new(),
        };
        assert_eq!(svc.route(&get("/healthz")).status, 200);
        let presets = svc.route(&get("/v1/presets"));
        assert_eq!(presets.status, 200);
        assert!(presets.body.contains("well_logging"));
        assert_eq!(svc.route(&get("/metrics")).status, 200);
        assert_eq!(svc.route(&get("/nope")).status, 404);
        let mut post = get("/v1/schedule");
        post.method = "POST".to_string();
        post.body = br#"{"preset": "tetonly", "scale": 0.01, "sn": 2, "m": 4}"#.to_vec();
        let resp = svc.route(&post);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"cache\": \"miss\""));
        let again = svc.route(&post);
        assert!(again.body.contains("\"cache\": \"hit\""));
        let mut wrong = get("/v1/schedule");
        wrong.method = "GET".to_string();
        assert_eq!(svc.route(&wrong).status, 405);
        post.body = br#"{"preset": "tetonly", "m": 0}"#.to_vec();
        assert_eq!(svc.route(&post).status, 400);
        post.body = br#"{"preset": "mars", "m": 4}"#.to_vec();
        assert_eq!(svc.route(&post).status, 422);
    }

    #[test]
    fn mesh_body_parses_and_round_trips_canonically() {
        let body = format!(r#"{{"mesh": "{}", "m": 2}}"#, sweep_json::escape(TINY_OBJ));
        let r = ScheduleRequest::from_json(&body).unwrap();
        assert_eq!(
            r.mesh,
            MeshSource::Mesh {
                format: "auto".to_string(),
                text: TINY_OBJ.to_string(),
            }
        );
        let again = ScheduleRequest::from_json(&r.to_canonical_json()).unwrap();
        assert_eq!(again, r);
        // Explicit format survives too.
        let body = format!(
            r#"{{"mesh": "{}", "mesh_format": "obj", "m": 2}}"#,
            sweep_json::escape(TINY_OBJ)
        );
        let r = ScheduleRequest::from_json(&body).unwrap();
        assert_eq!(
            r.mesh,
            MeshSource::Mesh {
                format: "obj".to_string(),
                text: TINY_OBJ.to_string(),
            }
        );
    }

    #[test]
    fn mesh_body_misuse_is_rejected() {
        for (body, needle) in [
            (
                r#"{"mesh": "v 0 0 0", "preset": "tetonly", "m": 2}"#,
                "exactly one",
            ),
            (
                r#"{"preset": "tetonly", "mesh_format": "obj", "m": 2}"#,
                "only valid together with 'mesh'",
            ),
            (
                r#"{"mesh": "v 0 0 0", "mesh_format": "stl", "m": 2}"#,
                "'mesh_format' must be auto, obj, or msh",
            ),
            (r#"{"mesh": 7, "m": 2}"#, "'mesh' must be a string"),
        ] {
            let err = ScheduleRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn mesh_upload_schedules_hits_cache_and_certifies() {
        let svc = SweepService::new(ServiceConfig::default());
        let first = svc.schedule(&mesh_req()).unwrap();
        assert_eq!(first.cells, 2);
        assert_eq!(first.name, "imported-obj");
        assert!(!first.cache_hit);
        let second = svc.schedule(&mesh_req()).unwrap();
        assert!(second.cache_hit && second.instance_cache_hit);
        assert_eq!(first.digest, second.digest);
        assert_eq!(first.makespan, second.makespan);
        // SW024: the cached artifact is bit-identical to a cold compute.
        let report = certify_cache_identity(&svc, &mesh_req()).unwrap();
        assert!(!report.has_errors(), "{}", report.render_text());
        assert!(report.has_code(sweep_analyze::Code::Certified));
        // Same bytes under a different declared format = different digest.
        let mut explicit = mesh_req();
        explicit.mesh = MeshSource::Mesh {
            format: "obj".to_string(),
            text: TINY_OBJ.to_string(),
        };
        let third = svc.schedule(&explicit).unwrap();
        assert_ne!(third.digest, first.digest);
        assert_eq!(third.makespan, first.makespan);
    }

    #[test]
    fn mesh_route_maps_import_failures_to_400() {
        let svc = SweepService::new(ServiceConfig::default());
        let post = |mesh: &str| Request {
            method: "POST".to_string(),
            path: "/v1/schedule".to_string(),
            query: None,
            headers: HashMap::new(),
            body: format!(
                r#"{{"mesh": "{}", "m": 2, "sn": 2}}"#,
                sweep_json::escape(mesh)
            )
            .into_bytes(),
        };
        // Healthy upload serves.
        let ok = svc.route(&post(TINY_OBJ));
        assert_eq!(ok.status, 200, "{}", ok.body);
        // Truncated .msh: typed import error → 400, not 422 or 500.
        let bad = svc.route(&post("$MeshFormat\n4.1 0 8\n"));
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert!(bad.body.contains("mesh:"), "{}", bad.body);
        // Unrecognizable content → 400.
        let huh = svc.route(&post("hello world\n"));
        assert_eq!(huh.status, 400, "{}", huh.body);
        // Non-manifold mesh assembles but fails validation → 400.
        let nm = svc.route(&post(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 -1 0\nv 1 1 1\nf 1 2 3\nf 1 2 4\nf 1 2 5\n",
        ));
        assert_eq!(nm.status, 400, "{}", nm.body);
        assert!(nm.body.contains("non-manifold"), "{}", nm.body);
    }

    #[test]
    fn oversized_mesh_upload_is_rejected_from_headers() {
        let svc = SweepService::new(ServiceConfig {
            max_tasks: 10,
            ..ServiceConfig::default()
        });
        // 6 declared faces × 8 directions = 48 predicted tasks > 10; the
        // peek admits nothing proportional to the declared counts.
        let mut req = mesh_req();
        if let MeshSource::Mesh { text, .. } = &mut req.mesh {
            text.push_str("f 1 2 3\nf 1 2 3\nf 1 2 3\nf 1 2 3\n");
        }
        let err = svc.schedule(&req).unwrap_err();
        assert!(err.contains("over the service limit"), "{err}");
    }

    #[test]
    fn sw024_certifies_the_cache() {
        let svc = SweepService::new(ServiceConfig::default());
        let report = certify_cache_identity(&svc, &tiny()).unwrap();
        assert!(!report.has_errors(), "{}", report.render_text());
        assert!(report.has_code(sweep_analyze::Code::Certified));
    }
}
