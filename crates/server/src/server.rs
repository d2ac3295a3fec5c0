//! The socket layer: a bounded accept loop feeding a fixed worker pool,
//! overload shedding, and cooperative graceful shutdown.
//!
//! Design notes:
//!
//! * **Bounded in-flight work.** The accept loop tracks how many
//!   connections are queued or being served; past
//!   [`ServerConfig::max_inflight`] it answers `429 Too Many Requests`
//!   *itself* (cheap — no scheduling work happens) with a `Retry-After`
//!   hint from [`sweep_faults::backoff`]: consecutive rejections walk up
//!   the same capped exponential curve the fault simulator's retry
//!   protocol was validated against.
//! * **Graceful shutdown without signals.** The workspace forbids
//!   `unsafe`, so there is no signal handler; instead a
//!   [`ShutdownHandle`] flips an atomic flag and pokes the listener with
//!   a throwaway local connection to wake the blocking `accept`. The
//!   loop then stops accepting, the channel to the workers is dropped,
//!   and every in-flight request is drained before `run` returns.
//! * **Per-connection timeouts.** Read and write timeouts bound how
//!   long a slow or dead peer can hold a worker; a timeout mid-request
//!   drops the connection (`ReadError::Io`), a malformed request gets a
//!   clean 4xx.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sweep_rpc::{RpcServer, RpcServerConfig, RpcShutdownHandle};
use sweep_telemetry as telemetry;
use sweep_telemetry::{server_timing_value, STAGES};

use crate::cluster::{ClusterConfig, ClusterState};
use crate::http::{ReadError, Request, Response};
use crate::ops::{access_log_line, AccessLogSink};
use crate::service::{ServiceConfig, SweepService};

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
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Base of the `Retry-After` backoff curve, in seconds.
    pub retry_base_secs: f64,
    /// Record a full span tree for 1 of every N requests (head-based
    /// sampling; 1 = trace everything, 0 = never). Untraced requests
    /// still get a request id and zero-valued `Server-Timing` stages.
    pub trace_sample_every: u64,
    /// Emit an access-log line for 1 of every N requests (1 = all,
    /// 0 = never).
    pub log_sample_every: u64,
    /// Where access-log lines go.
    pub access_log: AccessLogSink,
    /// Slow-request exemplars retained per window for `/debug/trace`.
    pub slow_keep: usize,
    /// Requests per slow-exemplar window.
    pub slow_window: u64,
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
            write_timeout: Duration::from_secs(10),
            retry_base_secs: 1.0,
            trace_sample_every: 1,
            log_sample_every: 1,
            access_log: AccessLogSink::Stderr,
            slow_keep: 8,
            slow_window: 512,
            cluster: None,
        }
    }
}

/// A clonable handle that asks a running [`Server`] to stop.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
    rpc: Option<RpcShutdownHandle>,
}

impl ShutdownHandle {
    /// Requests shutdown: stops accepting new connections (HTTP and,
    /// in cluster mode, peer RPC) and drains the in-flight ones.
    /// Idempotent; returns immediately (join the thread running
    /// [`Server::run`] to wait for the drain).
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(rpc) = &self.rpc {
            rpc.shutdown();
        }
        // Wake the blocking accept with a throwaway connection; if the
        // connect fails the listener is already gone, which is fine.
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    service: Arc<SweepService>,
    flag: Arc<AtomicBool>,
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
        let listener = TcpListener::bind(&config.addr)?;
        telemetry::set_enabled(true);
        let service = Arc::new(SweepService::new(ServiceConfig {
            cache_bytes: config.cache_bytes,
            ..ServiceConfig::default()
        }));
        let ops = service.ops();
        ops.set_trace_sampling(config.trace_sample_every);
        ops.set_log_sampling(config.log_sample_every);
        ops.set_access_log(config.access_log.clone());
        ops.set_slow_buffer(config.slow_keep, config.slow_window);
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
                let rpc = RpcServer::bind(
                    &rpc_addr,
                    RpcServerConfig {
                        threads: cluster_config.rpc_threads,
                        read_timeout: cluster_config.rpc_read_timeout,
                        write_timeout: cluster_config.rpc_read_timeout,
                    },
                    Arc::new(move |frame| handler_service.serve_peer_rpc(frame)),
                )?;
                service.set_cluster(Arc::clone(&state));
                (Some(state), Some(rpc))
            }
        };
        Ok(Server {
            listener,
            config,
            service,
            flag: Arc::new(AtomicBool::new(false)),
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
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.flag),
            addr: self.local_addr()?,
            rpc: match &self.rpc {
                None => None,
                Some(rpc) => Some(rpc.shutdown_handle()?),
            },
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
        let inflight = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = self.config.threads.max(1);
        let rpc_handle = match &self.rpc {
            None => None,
            Some(rpc) => Some(rpc.shutdown_handle()?),
        };
        std::thread::scope(|scope| {
            if let Some(rpc) = &self.rpc {
                scope.spawn(move || rpc.run());
            }
            if let Some(cluster) = &self.cluster {
                let flag = Arc::clone(&self.flag);
                let interval = cluster.config().probe_interval;
                scope.spawn(move || {
                    let slice = Duration::from_millis(50);
                    loop {
                        // Sleep in short slices so shutdown is never
                        // blocked behind a full probe interval.
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if flag.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::sleep(slice);
                            slept += slice;
                        }
                        if flag.load(Ordering::SeqCst) {
                            return;
                        }
                        cluster.probe_round();
                    }
                });
            }
            for _ in 0..threads {
                let rx = Arc::clone(&rx);
                let inflight = Arc::clone(&inflight);
                let service = Arc::clone(&self.service);
                let config = &self.config;
                scope.spawn(move || loop {
                    // Hold the lock only for the recv; hangup means the
                    // accept loop is done and the queue is drained.
                    let next = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                    let Ok(stream) = next else { break };
                    // The in-flight decrement lives in a drop guard and
                    // the handler runs under catch_unwind, so a
                    // panicking request costs only its own connection —
                    // never a worker thread or an in-flight slot.
                    // AssertUnwindSafe is sound here: the service's
                    // interior state stays consistent across an unwind
                    // (single-flight slots publish-on-panic, mutexes
                    // recover from poisoning with `into_inner`).
                    let _slot = InflightSlot(&inflight);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(&service, config, stream);
                    }));
                    if outcome.is_err() {
                        telemetry::counter_add("serve.http.panics", 1);
                    }
                });
            }

            // Consecutive sheds walk the Retry-After hint up the capped
            // exponential backoff curve; any accepted request resets it.
            let mut sheds: u32 = 0;
            for stream in self.listener.incoming() {
                if self.flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if inflight.load(Ordering::SeqCst) >= self.config.max_inflight {
                    telemetry::counter_add("serve.http.requests", 1);
                    telemetry::counter_add("serve.http.responses_429", 1);
                    let hint =
                        sweep_faults::backoff::retry_after_secs(self.config.retry_base_secs, sheds);
                    sheds = sheds.saturating_add(1);
                    self.service.ops().record_shed();
                    self.service.ops().log_shed(hint);
                    shed(stream, self.config.write_timeout, hint);
                    continue;
                }
                sheds = 0;
                let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                telemetry::gauge_set("serve.inflight", now as f64);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            drop(tx); // workers drain the queue, then exit
            if let Some(rpc) = &rpc_handle {
                // Idempotent: ensures the RPC accept loop exits even
                // when `run` stops for a reason other than the handle.
                rpc.shutdown();
            }
        });
        Ok(())
    }
}

/// Releases one unit of server capacity on drop — including during a
/// panic unwind — so a poisoned request can't leak an in-flight slot
/// and walk the server into answering only `429`.
struct InflightSlot<'a>(&'a AtomicUsize);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let now = self.0.fetch_sub(1, Ordering::SeqCst) - 1;
        telemetry::gauge_set("serve.inflight", now as f64);
    }
}

/// Answers an over-capacity connection with `429` + `Retry-After`
/// without handing it to a worker. Runs on a short-lived detached
/// thread: after writing the response the connection must be drained
/// until the peer closes — dropping a socket with unread request bytes
/// makes the kernel send RST, which would discard the 429 from the
/// client's receive buffer — and that drain must not block the accept
/// loop.
fn shed(stream: TcpStream, write_timeout: Duration, retry_after_secs: u64) {
    std::thread::spawn(move || {
        use std::io::Read as _;
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(write_timeout));
        let _ = stream.set_read_timeout(Some(write_timeout));
        let _ = Response::error(429, "server is at its in-flight request limit")
            .with_header("Retry-After", retry_after_secs.to_string())
            .write_to(&mut stream);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut scratch = [0u8; 4096];
        while let Ok(n) = stream.read(&mut scratch) {
            if n == 0 {
                break;
            }
        }
    });
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
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
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
            let _ = response.write_to(&mut writer);
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
                .write_to(&mut writer);
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
            let _ = writer.shutdown(std::net::Shutdown::Write);
            let mut scratch = [0u8; 4096];
            while let Ok(n) = writer.read(&mut scratch) {
                if n == 0 {
                    break;
                }
            }
        }
        // Timeout or peer hangup mid-request: nothing to answer.
        Err(ReadError::Io(_)) => {}
    }
    let _ = writer.flush();
    telemetry::histogram_record(
        "serve.http.latency_us",
        started.elapsed().as_secs_f64() * 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

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
        let join = std::thread::spawn(move || server.run());

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

        handle.shutdown();
        join.join().unwrap().unwrap();
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
        shed(stream, Duration::from_secs(1), 3);
        let reply = client.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 429 "), "{reply}");
        assert!(reply.contains("Retry-After: 3\r\n"));
    }
}
