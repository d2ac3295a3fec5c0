//! Per-peer RPC client: pooled connections, deadlines, jittered retries.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::frame::{Frame, FrameError};

#[cfg(feature = "fault-inject")]
use sweep_faults::FaultPlan;

/// Knobs for one peer's client.
#[derive(Debug, Clone)]
pub struct RpcClientConfig {
    /// Dial deadline.
    pub connect_timeout: Duration,
    /// Per-call read and write deadline on the socket.
    pub io_timeout: Duration,
    /// Total attempts per call (first try included); at least 1.
    pub attempts: u32,
    /// Base of the full-jitter retry curve, in seconds.
    pub retry_base: f64,
    /// Idle connections kept for reuse.
    pub pool_cap: usize,
    /// Seed for the deterministic retry jitter.
    pub seed: u64,
}

impl Default for RpcClientConfig {
    fn default() -> Self {
        RpcClientConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            attempts: 2,
            retry_base: 0.05,
            pool_cap: 4,
            seed: 0x5357_5250,
        }
    }
}

/// Why a call failed after exhausting its attempts.
#[derive(Debug)]
pub enum RpcError {
    /// Transport-level failure: dial refused, deadline expired,
    /// connection reset, or an injected fault. The peer may be down.
    Unavailable(String),
    /// The peer answered with bytes that violate the protocol.
    Bad(String),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Unavailable(msg) => write!(f, "peer unavailable: {msg}"),
            RpcError::Bad(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

#[cfg(feature = "fault-inject")]
struct FaultHook {
    plan: FaultPlan,
    self_id: u64,
    peer_id: u64,
}

/// A client for one peer address.
///
/// Connections are pooled: a call checks out an idle connection (or
/// dials a fresh one), writes exactly one request frame, reads exactly
/// one response frame, and returns the connection to the pool. Any
/// failure drops the connection — a stream that missed a frame boundary
/// can never be reused — and the call retries on a fresh dial after a
/// deterministic full-jitter delay.
pub struct RpcClient {
    addr: Mutex<String>,
    config: RpcClientConfig,
    idle: Mutex<Vec<TcpStream>>,
    calls: AtomicU64,
    #[cfg(feature = "fault-inject")]
    faults: Mutex<Option<FaultHook>>,
}

impl RpcClient {
    /// A client that will dial `addr` (a `host:port` string).
    pub fn new(addr: &str, config: RpcClientConfig) -> RpcClient {
        RpcClient {
            addr: Mutex::new(addr.to_string()),
            config,
            idle: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            faults: Mutex::new(None),
        }
    }

    /// The current peer address.
    pub fn addr(&self) -> String {
        match self.addr.lock() {
            Ok(a) => a.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Re-point the client (tests bind peers on ephemeral ports after
    /// construction). Pooled connections to the old address are dropped.
    pub fn set_addr(&self, addr: &str) {
        match self.addr.lock() {
            Ok(mut a) => *a = addr.to_string(),
            Err(p) => *p.into_inner() = addr.to_string(),
        }
        if let Ok(mut idle) = self.idle.lock() {
            idle.clear();
        }
    }

    /// Install a deterministic fault plan consulted before every send:
    /// partitions and per-attempt drops become transport errors, jitter
    /// becomes a real (bounded) delay. Logical time is the call counter.
    #[cfg(feature = "fault-inject")]
    pub fn set_fault_plan(&self, plan: FaultPlan, self_id: u64, peer_id: u64) {
        if let Ok(mut hook) = self.faults.lock() {
            *hook = Some(FaultHook {
                plan,
                self_id,
                peer_id,
            });
        }
    }

    /// Clear an installed fault plan.
    #[cfg(feature = "fault-inject")]
    pub fn clear_fault_plan(&self) {
        if let Ok(mut hook) = self.faults.lock() {
            *hook = None;
        }
    }

    #[cfg(feature = "fault-inject")]
    fn injected_failure(&self, call: u64, attempt: u32) -> Option<String> {
        let hook = match self.faults.lock() {
            Ok(h) => h,
            Err(p) => p.into_inner(),
        };
        let hook = hook.as_ref()?;
        let t = call as f64;
        if hook
            .plan
            .partitioned(hook.self_id as u32, hook.peer_id as u32, t)
        {
            return Some("injected: link partitioned".into());
        }
        if hook.plan.drops_attempt(hook.self_id, hook.peer_id, attempt) {
            return Some("injected: message dropped".into());
        }
        let jitter = hook.plan.jitter_of(hook.self_id, hook.peer_id, attempt);
        if jitter > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(jitter.min(0.2)));
        }
        None
    }

    #[cfg(not(feature = "fault-inject"))]
    #[inline]
    fn injected_failure(&self, _call: u64, _attempt: u32) -> Option<String> {
        None
    }

    fn checkout(&self) -> Option<TcpStream> {
        match self.idle.lock() {
            Ok(mut idle) => idle.pop(),
            Err(p) => p.into_inner().pop(),
        }
    }

    fn checkin(&self, stream: TcpStream) {
        if let Ok(mut idle) = self.idle.lock() {
            if idle.len() < self.config.pool_cap {
                idle.push(stream);
            }
        }
    }

    fn dial(&self) -> Result<TcpStream, String> {
        let addr_str = self.addr();
        let addrs = addr_str
            .to_socket_addrs()
            .map_err(|e| format!("resolve {addr_str}: {e}"))?;
        let mut last = format!("no addresses for {addr_str}");
        for a in addrs {
            match TcpStream::connect_timeout(&a, self.config.connect_timeout) {
                Ok(s) => {
                    let _ = s.set_read_timeout(Some(self.config.io_timeout));
                    let _ = s.set_write_timeout(Some(self.config.io_timeout));
                    let _ = s.set_nodelay(true);
                    return Ok(s);
                }
                Err(e) => last = format!("connect {a}: {e}"),
            }
        }
        Err(last)
    }

    /// One request/response exchange on one connection.
    fn exchange(&self, stream: &mut TcpStream, request: &Frame) -> Result<Frame, String> {
        request
            .write_to(stream)
            .map_err(|e| format!("write: {e}"))?;
        match Frame::read_from(stream) {
            Ok(frame) => Ok(frame),
            Err(FrameError::Bad(msg)) => Err(format!("bad response frame: {msg}")),
            Err(FrameError::Io(e)) => Err(format!("read: {e}")),
        }
    }

    /// Send `request`, return the peer's response frame.
    ///
    /// Transport failures retry up to `config.attempts` times total,
    /// sleeping `full_jitter(retry_base, attempt, seed ^ call)` between
    /// attempts; a decoded response frame — even `KIND_ERROR` — is a
    /// definitive answer and is returned as `Ok`.
    pub fn call(&self, request: &Frame) -> Result<Frame, RpcError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let attempts = self.config.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = sweep_faults::backoff::full_jitter(
                    self.config.retry_base,
                    attempt - 1,
                    self.config.seed ^ call,
                );
                if delay > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(delay));
                }
            }
            if let Some(msg) = self.injected_failure(call, attempt) {
                last = msg;
                continue;
            }
            let mut stream = match self.checkout() {
                Some(s) => s,
                None => match self.dial() {
                    Ok(s) => s,
                    Err(e) => {
                        last = e;
                        continue;
                    }
                },
            };
            match self.exchange(&mut stream, request) {
                Ok(frame) => {
                    self.checkin(stream);
                    return Ok(frame);
                }
                Err(e) => {
                    // The stream may be mid-frame: never reuse it.
                    drop(stream);
                    last = e;
                }
            }
        }
        Err(RpcError::Unavailable(last))
    }

    /// Number of idle pooled connections (test observability).
    pub fn idle_connections(&self) -> usize {
        match self.idle.lock() {
            Ok(idle) => idle.len(),
            Err(p) => p.into_inner().len(),
        }
    }
}
