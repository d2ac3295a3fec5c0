//! # sweep-serve — batched scheduling service with a content-addressed cache
//!
//! The serving layer of the sweep-scheduling workspace: a
//! dependency-free HTTP/1.1 service (std `TcpListener` + the shared
//! [`sweep_json`] codec) that answers scheduling requests for the
//! paper's mesh presets and inline instances, amortizing the expensive
//! parts — DAG induction and best-of-`b` trial scheduling — across
//! requests through a **content-addressed two-tier cache**.
//!
//! * `POST /v1/schedule` — mesh preset (or inline instance text) +
//!   quadrature + `m` + algorithm → schedule summary (makespan, bounds,
//!   C1/C2, winning trial, cache disposition).
//! * `GET /v1/presets` — the four paper meshes with their cell counts.
//! * `GET /metrics` — Prometheus text exposition via `sweep-telemetry`
//!   (request/latency/cache counters).
//! * `GET /debug/vars` — live operational snapshot: cache residency per
//!   tier, in-flight depth, shed count, pool work, per-stage latency
//!   quantiles.
//! * `GET /debug/trace` — Chrome `trace_event` export of the slowest
//!   recent requests' full span trees.
//! * `GET /healthz` — liveness.
//!
//! Every request is stamped with a deterministic 64-bit id (echoed in
//! `X-Sweep-Request-Id`) and, when sampled in, carries a request-scoped
//! span tree ([`sweep_telemetry::TraceCtx`]) through parse, cache
//! lookup, DAG induction, scheduling, and serialization — surfaced as a
//! `Server-Timing` response header, a structured JSON access log, and
//! the `/debug/trace` exemplar buffer ([`ops`]).
//!
//! Cache keys are [FxHash-style digests](digest) of the *content* of a
//! request — mesh spec bytes, quadrature order, `m`, algorithm, seed,
//! and trial count — so equal work is recognized no matter how it is
//! phrased. Tier 1 holds induced [`sweep_dag::SweepInstance`]s, tier 2
//! winning [`sweep_core::Schedule`] summaries, both LRU-bounded by
//! bytes. N concurrent identical requests trigger **one** computation
//! (single-flight coalescing); the accept loop bounds in-flight work
//! and sheds load with `429 Too Many Requests` + a backoff hint
//! (`sweep_faults::backoff`) when saturated.
//!
//! With `--cluster members.txt --self-id N` the same server runs as
//! one shard of a static, crash-surviving cluster ([`cluster`]): a
//! consistent-hash ring over the content digests assigns each request
//! a home shard, non-home shards forward at the artifact level over
//! the in-tree [`sweep_rpc`] framed protocol (single-flight stays
//! intact *cluster-wide*), a Suspect/Down failure detector with
//! background probing tracks peers, and an unreachable home shard
//! degrades gracefully to a bit-identical local compute — certified
//! by the SW029 `analyze_cluster_identity` analyzer. Cluster
//! disposition is reported only in response headers (`X-Sweep-Shard`,
//! `X-Sweep-Forwarded-From`, `X-Sweep-Degraded`), never in the body.
//!
//! The service core is plain Rust and fully testable without sockets:
//!
//! ```
//! use sweep_serve::{ScheduleRequest, SweepService, ServiceConfig};
//!
//! let svc = SweepService::new(ServiceConfig::default());
//! let req = ScheduleRequest::preset("tetonly", 0.01, 2, 4);
//! let first = svc.schedule(&req).unwrap();
//! let second = svc.schedule(&req).unwrap();
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.makespan, second.makespan);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod cluster;
pub mod digest;
pub mod http;
#[cfg(feature = "model-check")]
pub mod model;
pub mod ops;
mod packed;
pub mod ring;
pub mod server;
pub mod service;

pub use cache::{CacheStats, ScheduleCache, TierStats};
pub use cluster::{
    decode_artifact, encode_artifact, parse_members, ClusterConfig, ClusterState, Member,
    PeerStatus,
};
pub use digest::{fx_digest, instance_digest, schedule_digest};
pub use http::{Request, Response};
pub use ops::{access_log_line, AccessLogSink, OpsState};
pub use ring::Ring;
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use service::{
    certify_cache_identity, certify_cluster_identity, certify_trace_trees, ClusterDisposition,
    MeshSource, ScheduleRequest, ScheduleResponse, ServiceConfig, SweepService,
};
