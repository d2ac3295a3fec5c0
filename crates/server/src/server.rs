//! The socket layer: HTTP on `sweep-rpc`'s shared accept loop, with
//! overload shedding and cooperative graceful shutdown.
//!
//! Design notes:
//!
//! * **One listener, one stop flag.** HTTP and, in cluster mode, peer
//!   RPC each run on a [`sweep_rpc::Listener`]: a fixed worker pool fed
//!   until a shared [`StopFlag`] is set. That one flag is read by both
//!   accept loops and the cluster prober; [`ShutdownHandle::shutdown`]
//!   sets it and wakes both listeners.
//! * **Bounded in-flight work.** The HTTP `admit` step tracks how many
//!   connections are queued or being served; past
//!   [`ServerConfig::max_inflight`] it answers `429 Too Many Requests`
//!   *itself* (cheap — no scheduling work happens) with a `Retry-After`
//!   hint from [`sweep_faults::backoff`]: consecutive rejections walk up
//!   the same capped exponential curve the fault simulator's retry
//!   protocol was validated against. The threads that drain shed
//!   connections are capped at `max_inflight` too (see `shed`).
//! * **Graceful shutdown without signals.** The workspace forbids
//!   `unsafe`, so there is no signal handler; once the flag is set the
//!   loops stop accepting, and every queued connection is served before
//!   [`Server::run`] returns.
//! * **Per-connection timeouts.** Read and write timeouts bound how
//!   long a slow or dead peer can hold a worker; a timeout mid-request
//!   drops the connection (`ReadError::Io`), a malformed request gets a
//!   clean 4xx.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweep_rpc::{Listener, RpcServer, StopFlag};
use sweep_telemetry as telemetry;
use sweep_telemetry::{request_id_from_counter, server_timing_value, STAGES};

use crate::cluster::{ClusterConfig, ClusterState};
use crate::http::{ReadError, Request, Response};
use crate::ops::{access_log_line, AccessLogSink};
use crate::service::{ServiceConfig, SweepService};

/// Per-connection write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Base of the `Retry-After` backoff curve, in seconds.
const RETRY_BASE_SECS: f64 = 1.0;
/// Requests per slow-exemplar window.
const SLOW_WINDOW: u64 = 512;
/// Read (and answer-write) deadline for one inbound peer RPC frame: the
/// slow-loris bound.
const RPC_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket-level configuration; service semantics live in
/// [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7469`. Port `0` picks an ephemeral
    /// port (query it with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads serving requests.
    pub threads: usize,
    /// Byte budget per cache tier.
    pub cache_bytes: usize,
    /// Connections allowed in flight (queued + being served) before the
    /// accept loop sheds load with `429`.
    pub max_inflight: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Record a full span tree for 1 of every N requests (head-based
    /// sampling; 1 = trace everything, 0 = never). Untraced requests
    /// still get a request id and zero-valued `Server-Timing` stages.
    pub trace_sample_every: u64,
    /// Emit an access-log line for 1 of every N requests (1 = all,
    /// 0 = never).
    pub log_sample_every: u64,
    /// Where access-log lines go.
    pub access_log: AccessLogSink,
    /// Slow-request exemplars retained per window of 512 requests for
    /// `/debug/trace`.
    pub slow_keep: usize,
    /// Cluster membership; `None` (the default) runs a plain
    /// single-node server. `Some` makes [`Server::bind`] also bind this
    /// shard's peer RPC listener and [`Server::run`] route schedule
    /// requests across the consistent-hash ring.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7469".to_string(),
            threads: 4,
            cache_bytes: ServiceConfig::default().cache_bytes,
            max_inflight: 32,
            read_timeout: Duration::from_secs(10),
            trace_sample_every: 1,
            log_sample_every: 1,
            access_log: AccessLogSink::Stderr,
            slow_keep: 8,
            cluster: None,
        }
    }
}

/// A clonable handle that asks a running [`Server`] to stop.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: StopFlag,
    /// The HTTP listener and, in cluster mode, the peer RPC listener.
    wake: Vec<SocketAddr>,
}

impl ShutdownHandle {
    /// Requests shutdown: stops accepting new connections (HTTP and,
    /// in cluster mode, peer RPC) and drains the in-flight ones.
    /// Idempotent; returns immediately (join the thread running
    /// [`Server::run`] to wait for the drain).
    pub fn shutdown(&self) {
        self.stop.set(&self.wake);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.is_set()
    }
}

/// A bound (not yet running) server.
pub struct Server {
    listener: Listener,
    config: ServerConfig,
    service: Arc<SweepService>,
    stop: StopFlag,
    cluster: Option<Arc<ClusterState>>,
    rpc: Option<RpcServer>,
}

impl Server {
    /// Binds the listen socket and builds the service (empty caches).
    /// Telemetry collection is switched on so `/metrics` has data.
    ///
    /// In cluster mode (`config.cluster` is `Some`) this also builds
    /// the shared [`ClusterState`] and binds this shard's peer RPC
    /// listener at its own member's `rpc_addr`; a bad membership
    /// (self id absent, empty list) surfaces as `InvalidInput`.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let stop = StopFlag::default();
        let listener = Listener::bind(&config.addr, &stop)?;
        telemetry::set_enabled(true);
        let service = Arc::new(SweepService::new(ServiceConfig {
            cache_bytes: config.cache_bytes,
            ..ServiceConfig::default()
        }));
        let ops = service.ops();
        ops.set_trace_sampling(config.trace_sample_every);
        ops.set_log_sampling(config.log_sample_every);
        ops.set_access_log(config.access_log.clone());
        ops.set_slow_buffer(config.slow_keep, SLOW_WINDOW);
        let (cluster, rpc) = match &config.cluster {
            None => (None, None),
            Some(cluster_config) => {
                let bad = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
                let state = Arc::new(ClusterState::new(cluster_config.clone()).map_err(bad)?);
                let rpc_addr = cluster_config
                    .members
                    .iter()
                    .find(|m| m.id == cluster_config.self_id)
                    .map(|m| m.rpc_addr.clone())
                    .ok_or_else(|| bad("self id missing from members".to_string()))?;
                let handler_service = Arc::clone(&service);
                let rpc = RpcServer::bind(&rpc_addr, RPC_READ_TIMEOUT, &stop, move |frame| {
                    handler_service.serve_peer_rpc(frame)
                })?;
                service.set_cluster(Arc::clone(&state));
                (Some(state), Some(rpc))
            }
        };
        Ok(Server {
            listener,
            config,
            service,
            stop,
            cluster,
            rpc,
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound peer-RPC address in cluster mode (resolves port `0`),
    /// `None` on a single-node server.
    pub fn rpc_addr(&self) -> Option<SocketAddr> {
        self.rpc.as_ref().and_then(|r| r.local_addr().ok())
    }

    /// The shared cluster state in cluster mode (peer health, counters,
    /// the test-only fault hooks), `None` on a single-node server.
    pub fn cluster(&self) -> Option<Arc<ClusterState>> {
        self.cluster.as_ref().map(Arc::clone)
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        let mut wake = vec![self.local_addr()?];
        if let Some(rpc) = &self.rpc {
            wake.push(rpc.local_addr()?);
        }
        Ok(ShutdownHandle {
            stop: self.stop.clone(),
            wake,
        })
    }

    /// The shared service (cache stats introspection in tests/benches).
    pub fn service(&self) -> Arc<SweepService> {
        Arc::clone(&self.service)
    }

    /// Runs the accept loop until [`ShutdownHandle::shutdown`] is
    /// called, then drains in-flight connections and returns.
    ///
    /// Cluster mode also runs two more loops inside the same scope: the
    /// peer RPC accept loop (schedule requests forwarded from other
    /// shards) and a prober that pings Suspect/Down peers every
    /// `probe_interval` so a healed partition re-promotes them to Up.
    pub fn run(self) -> std::io::Result<()> {
        let inflight = AtomicUsize::new(0);
        // Consecutive sheds walk the Retry-After hint up the capped
        // exponential backoff curve; any admitted connection resets it.
        let mut sheds: u32 = 0;
        let drains = Drains::new(self.config.max_inflight);
        let admit = |stream: TcpStream| {
            if inflight.load(Ordering::SeqCst) >= self.config.max_inflight {
                let started = Instant::now();
                telemetry::counter_add("serve.http.requests", 1);
                telemetry::counter_add("serve.http.responses_429", 1);
                let hint = sweep_faults::backoff::retry_after_secs(RETRY_BASE_SECS, sheds);
                sheds = sheds.saturating_add(1);
                let ops = self.service.ops();
                ops.record_shed();
                let request_id = request_id_from_counter(ops.next_conn());
                shed(stream, request_id, hint, &drains);
                ops.log_shed(request_id, hint, started.elapsed().as_micros() as u64);
                return None;
            }
            sheds = 0;
            Some((stream, InflightSlot::take(&inflight)))
        };
        std::thread::scope(|scope| {
            if let Some(rpc) = &self.rpc {
                scope.spawn(|| rpc.run());
            }
            if let Some(cluster) = &self.cluster {
                scope.spawn(|| {
                    let interval = cluster.config().probe_interval;
                    let slice = Duration::from_millis(50);
                    loop {
                        // Sleep in short slices so shutdown is never
                        // blocked behind a full probe interval.
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if self.stop.is_set() {
                                return;
                            }
                            std::thread::sleep(slice);
                            slept += slice;
                        }
                        if self.stop.is_set() {
                            return;
                        }
                        cluster.probe_round();
                    }
                });
            }
            // The loop catches a panicking request, which costs only its
            // own connection. That is sound for the service: its state
            // stays consistent across an unwind (single-flight slots
            // publish on panic, mutexes recover from poisoning).
            self.listener.run(
                self.config.threads,
                admit,
                |(stream, _slot): (TcpStream, InflightSlot<'_>)| {
                    handle_connection(&self.service, &self.config, stream)
                },
            );
        });
        Ok(())
    }
}

/// One unit of server capacity, taken when a connection is admitted and
/// released on drop — including during a panic unwind, which it also
/// counts — so a poisoned request can't leak an in-flight slot and walk
/// the server into answering only `429`.
struct InflightSlot<'a>(&'a AtomicUsize);

impl<'a> InflightSlot<'a> {
    fn take(inflight: &'a AtomicUsize) -> InflightSlot<'a> {
        let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
        telemetry::gauge_set("serve.inflight", now as f64);
        InflightSlot(inflight)
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            telemetry::counter_add("serve.http.panics", 1);
        }
        let now = self.0.fetch_sub(1, Ordering::SeqCst) - 1;
        telemetry::gauge_set("serve.inflight", now as f64);
    }
}

/// Live shed-drain threads, capped so that a client flooding
/// connections and holding them open cannot grow the thread count
/// without bound.
struct Drains {
    live: AtomicUsize,
    cap: usize,
}

/// One drain thread's claim on [`Drains`], released on drop (a panic
/// unwind included).
struct DrainSlot(Arc<Drains>);

impl Drains {
    fn new(cap: usize) -> Arc<Drains> {
        Arc::new(Drains {
            live: AtomicUsize::new(0),
            cap,
        })
    }

    fn try_take(self: &Arc<Drains>) -> Option<DrainSlot> {
        self.live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .ok()?;
        Some(DrainSlot(Arc::clone(self)))
    }
}

impl Drop for DrainSlot {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers an over-capacity connection with `429`, `Retry-After` and
/// its `X-Sweep-Request-Id` without handing it to a worker. After writing the response the
/// connection must be drained until the peer closes — dropping a
/// socket with unread request bytes makes the kernel send RST, which
/// would discard the 429 from the client's receive buffer — and that
/// drain must not block the accept loop, so it runs on a detached
/// thread holding a [`DrainSlot`]. Past the cap the 429 is written on
/// the calling thread without blocking, whatever the peer has already
/// sent is discarded, and the socket is closed: a peer still sending
/// may then see a reset instead of the 429. Returns the drain thread,
/// if one was started.
fn shed(
    stream: TcpStream,
    request_id: u64,
    retry_after_secs: u64,
    drains: &Arc<Drains>,
) -> Option<std::thread::JoinHandle<()>> {
    use std::io::Read as _;
    let response = Response::error(429, "server is at its in-flight request limit")
        .with_header("Retry-After", retry_after_secs.to_string())
        .with_header("X-Sweep-Request-Id", format!("{request_id:016x}"));
    let Some(slot) = drains.try_take() else {
        let _ = stream.set_nonblocking(true);
        let _ = response.write_to(&mut &stream);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Non-blocking, so this stops at whatever has arrived, and
        // bounded (64 KiB) so a peer that keeps sending cannot hold the
        // accept thread.
        let mut scratch = [0u8; 4096];
        for _ in 0..16 {
            if !matches!((&stream).read(&mut scratch), Ok(n) if n > 0) {
                break;
            }
        }
        return None;
    };
    Some(std::thread::spawn(move || {
        let _slot = slot;
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let _ = stream.set_read_timeout(Some(WRITE_TIMEOUT));
        let _ = response.write_to(&mut &stream);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut scratch = [0u8; 4096];
        while let Ok(n) = (&stream).read(&mut scratch) {
            if n == 0 {
                break;
            }
        }
    }))
}

/// The per-stage latency histograms a traced request feeds,
/// `serve.stage.<stage>_us` in [`STAGES`] order — spelled out so the
/// per-request path formats no names.
const STAGE_HISTOGRAMS: [&str; STAGES.len()] = [
    "serve.stage.parse_us",
    "serve.stage.cache_us",
    "serve.stage.induce_us",
    "serve.stage.schedule_us",
    "serve.stage.serialize_us",
];

/// Serves exactly one request on `stream` (the protocol is
/// `Connection: close`): stamps a deterministic request id, traces the
/// sampled-in requests end to end, echoes `X-Sweep-Request-Id` and
/// `Server-Timing` on every response, and emits one access-log line.
fn handle_connection(service: &SweepService, config: &ServerConfig, stream: TcpStream) {
    let started = Instant::now();
    let ops = service.ops();
    let conn = ops.next_conn();
    let ctx = ops.trace_ctx(conn);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // `Read` and `Write` are implemented for `&TcpStream`, so one
    // socket serves both directions without a `dup`.
    let mut reader = BufReader::new(&stream);
    let root = ctx.span("request");
    let read_result = {
        let _parse = root.ctx().span("parse");
        Request::read_from(&mut reader)
    };
    match read_result {
        Ok(request) => {
            let response = service.route_traced(&request, root.ctx());
            drop(root);
            let trace = ctx.finish();
            // One walk of the span tree feeds the header and the stage
            // histograms; an untraced request reports five zeros.
            let stages_us = trace.as_ref().map(|t| t.stages_us());
            let response = response
                .with_header("X-Sweep-Request-Id", ctx.request_id_hex())
                .with_header(
                    "Server-Timing",
                    server_timing_value(stages_us.unwrap_or_default()),
                );
            let _ = response.write_to(&mut &stream);
            if let (Some(t), Some(stages_us)) = (&trace, stages_us) {
                telemetry::histogram_record_each(
                    STAGE_HISTOGRAMS
                        .iter()
                        .zip(stages_us)
                        .map(|(name, us)| (*name, us as f64)),
                );
                ops.offer_slow(t);
            }
            if ops.should_log(conn) {
                ops.log(&access_log_line(
                    ctx.request_id(),
                    &request.method,
                    &request.path,
                    response.status,
                    response.body.len(),
                    started.elapsed().as_micros() as u64,
                    ops.sheds(),
                    trace.as_ref(),
                ));
            }
        }
        Err(ReadError::Bad(status, message)) => {
            drop(root);
            // route() never saw this request, so count it here.
            telemetry::counter_add("serve.http.requests", 1);
            telemetry::counter_add("serve.http.responses_4xx", 1);
            let _ = Response::error(status, &message)
                .with_header("X-Sweep-Request-Id", ctx.request_id_hex())
                .write_to(&mut &stream);
            if ops.should_log(conn) {
                let trace = ctx.finish();
                ops.log(&access_log_line(
                    ctx.request_id(),
                    "-",
                    "-",
                    status,
                    0,
                    started.elapsed().as_micros() as u64,
                    ops.sheds(),
                    trace.as_ref(),
                ));
            }
            // The request was only partially read; drain it so closing
            // the socket doesn't RST the error reply away (see `shed`).
            use std::io::Read as _;
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut scratch = [0u8; 4096];
            while let Ok(n) = (&stream).read(&mut scratch) {
                if n == 0 {
                    break;
                }
            }
        }
        // Timeout or peer hangup mid-request: nothing to answer.
        Err(ReadError::Io(_)) => {}
    }
    telemetry::histogram_record(
        "serve.http.latency_us",
        started.elapsed().as_secs_f64() * 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    #[test]
    fn stage_histogram_names_follow_the_stage_list() {
        for (name, stage) in STAGE_HISTOGRAMS.iter().zip(STAGES) {
            assert_eq!(*name, format!("serve.stage.{stage}_us"));
        }
    }

    /// A config bound to an ephemeral port with a tiny worker pool and
    /// a quiet access log.
    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            max_inflight: 4,
            access_log: AccessLogSink::Null,
            ..ServerConfig::default()
        }
    }

    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_and_shuts_down() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run());

        let reply = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("ok\n"));

        let reply = raw_request(addr, "BROKEN\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");

        handle.shutdown();
        join.join().unwrap().unwrap();
        assert!(handle.is_shutdown());
    }

    #[test]
    fn every_response_carries_request_id_and_server_timing() {
        let (sink, lines) = AccessLogSink::memory();
        let server = Server::bind(ServerConfig {
            access_log: sink,
            ..test_config()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run());

        let reply = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.contains("X-Sweep-Request-Id: "), "{reply}");
        assert!(reply.contains("Server-Timing: "), "{reply}");
        for stage in STAGES {
            assert!(reply.contains(&format!("{stage};dur=")), "{reply}");
        }
        // Even a malformed request gets an id on its error reply.
        let reply = raw_request(addr, "BROKEN\r\n\r\n");
        assert!(reply.contains("X-Sweep-Request-Id: "), "{reply}");

        handle.shutdown();
        join.join().unwrap().unwrap();
        // One JSON access-log line per request, both parseable.
        let lines = lines.lock().unwrap().clone();
        assert_eq!(lines.len(), 2, "{lines:?}");
        for line in &lines {
            let doc = sweep_json::parse(line).expect(line);
            assert!(doc.get("request_id").is_some(), "{line}");
            assert!(doc.get("status").is_some(), "{line}");
        }
        assert_eq!(
            lines[0].matches("\"route\":\"/healthz\"").count(),
            1,
            "{lines:?}"
        );
    }

    #[test]
    fn debug_vars_and_trace_render_from_a_live_server() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let service = server.service();
        let join = std::thread::spawn(move || server.run());

        let _ = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let vars = raw_request(addr, "GET /debug/vars HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(vars.starts_with("HTTP/1.1 200 OK\r\n"), "{vars}");
        let body = vars.split("\r\n\r\n").nth(1).unwrap();
        let doc = sweep_json::parse(body).expect(body);
        assert!(doc.get("cache").and_then(|c| c.get("tier1")).is_some());
        assert!(doc.get("stages_us").and_then(|s| s.get("parse")).is_some());

        let trace = raw_request(addr, "GET /debug/trace HTTP/1.1\r\nHost: x\r\n\r\n");
        let body = trace.split("\r\n\r\n").nth(1).unwrap();
        telemetry::validate_chrome_trace(body).expect(body);

        handle.shutdown();
        join.join().unwrap().unwrap();
        // The healthz request was traced (sample-every-1) and so sits in
        // the slow buffer the /debug/trace body was rendered from.
        assert!(!service.ops().slow_traces().is_empty());
    }

    #[test]
    fn single_member_cluster_serves_and_reports_itself() {
        use crate::cluster::{ClusterConfig, Member};
        use sweep_rpc::{RpcClient, RpcClientConfig, RpcRequest, RpcResponse};
        let members = vec![Member {
            id: 3,
            http_addr: "127.0.0.1:0".to_string(),
            rpc_addr: "127.0.0.1:0".to_string(),
        }];
        let server = Server::bind(ServerConfig {
            cluster: Some(ClusterConfig::new(3, members)),
            ..test_config()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        assert!(server.rpc_addr().is_some());
        let cluster = server.cluster().unwrap();
        assert_eq!(cluster.self_id(), 3);
        let handle = server.shutdown_handle().unwrap();
        let rpc = RpcClient::new(
            &server.rpc_addr().unwrap().to_string(),
            RpcClientConfig::default(),
        );
        let ping = || {
            rpc.call(&RpcRequest::Ping.to_frame())
                .is_ok_and(|f| RpcResponse::from_frame(&f).is_ok_and(|r| r == RpcResponse::Pong))
        };
        let join = std::thread::spawn(move || server.run());
        // The peer RPC loop answers, and keeps the connection pooled.
        assert!(ping());
        assert_eq!(rpc.idle_connections(), 1);

        // Cluster healthz is a JSON document with the cluster fragment,
        // and every response names the shard that served it.
        let reply = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("X-Sweep-Shard: 3\r\n"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let doc = sweep_json::parse(body).expect(body);
        let c = doc.get("cluster").expect(body);
        assert_eq!(c.get("self_id").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(c.get("degraded").and_then(|v| v.as_bool()), Some(false));

        // A single-member ring homes everything locally: no cluster
        // disposition headers, identical schedule to a plain service.
        let body = r#"{"preset": "tetonly", "scale": 0.01, "sn": 2, "m": 4, "seed": 11, "b": 2}"#;
        let reply = raw_request(
            addr,
            &format!(
                "POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(!reply.contains("X-Sweep-Forwarded-From"), "{reply}");
        assert!(!reply.contains("X-Sweep-Degraded"), "{reply}");

        // One shutdown stops the RPC loop too, idle pooled connection
        // included: `run` returned, and no Pong comes back.
        handle.shutdown();
        join.join().unwrap().unwrap();
        assert!(!ping());
    }

    #[test]
    fn cluster_bind_rejects_a_bad_membership() {
        use crate::cluster::{ClusterConfig, Member};
        let members = vec![Member {
            id: 0,
            http_addr: "127.0.0.1:0".to_string(),
            rpc_addr: "127.0.0.1:0".to_string(),
        }];
        let err = Server::bind(ServerConfig {
            cluster: Some(ClusterConfig::new(9, members)),
            ..test_config()
        })
        .err()
        .expect("bind must fail when self id is absent");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn shed_writes_a_retry_after_hint() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            out
        });
        let (stream, _) = listener.accept().unwrap();
        let drain = shed(stream, 0xbeef, 3, &Drains::new(1)).expect("a free drain slot");
        let reply = client.join().unwrap();
        drain.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 429 "), "{reply}");
        assert!(reply.contains("Retry-After: 3\r\n"));
        assert!(reply.contains("X-Sweep-Request-Id: 000000000000beef\r\n"));
    }

    /// A peer holding a shed connection open keeps its drain thread
    /// alive; past the cap the next shed is answered on the calling
    /// thread and closed, and a finished drain frees its slot.
    #[test]
    fn shed_drain_threads_are_capped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let drains = Drains::new(1);
        let shed_next = |retry_after| {
            let client = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            (client, shed(stream, 1, retry_after, &drains))
        };
        let read_reply = |mut client: TcpStream| {
            let mut out = String::new();
            client.read_to_string(&mut out).unwrap();
            out
        };

        let (held, drain) = shed_next(1);
        let drain = drain.expect("the first shed takes the one slot");
        assert_eq!(drains.live.load(Ordering::SeqCst), 1);
        // The held connection pins the slot: the next shed starts no
        // thread, and its client still reads a whole 429 and EOF.
        let (inline, none) = shed_next(2);
        assert!(none.is_none());
        let reply = read_reply(inline);
        assert!(reply.starts_with("HTTP/1.1 429 "), "{reply}");
        assert!(reply.contains("Retry-After: 2\r\n"), "{reply}");
        assert_eq!(drains.live.load(Ordering::SeqCst), 1);

        // Closing the held peer ends its drain and frees the slot.
        let reply = read_reply(held);
        assert!(reply.contains("Retry-After: 1\r\n"), "{reply}");
        drain.join().unwrap();
        assert_eq!(drains.live.load(Ordering::SeqCst), 0);
        let (client, drain) = shed_next(3);
        let reply = read_reply(client);
        assert!(reply.contains("Retry-After: 3\r\n"), "{reply}");
        drain
            .expect("the freed slot is taken again")
            .join()
            .unwrap();
    }
}
