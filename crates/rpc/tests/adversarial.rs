//! Adversarial RPC framing suite over real sockets (mirrors the
//! `peek_counts` adversarial tests): truncated frames, oversized
//! length prefixes, garbage magic, slow-loris partial writes, and
//! handler panics must produce a clean connection close and a counter
//! increment — never a panic or a wedged pool slot.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweep_rpc::{
    Frame, RpcClient, RpcClientConfig, RpcCounters, RpcRequest, RpcResponse, RpcServer, StopFlag,
    KIND_PING, MAX_FRAME_BYTES, VERSION,
};

/// Stops a running echo server: sets its stop flag and wakes its
/// listener.
struct Shutdown {
    stop: StopFlag,
    addr: std::net::SocketAddr,
}

impl Shutdown {
    fn shutdown(&self) {
        self.stop.set(&[self.addr]);
    }
}

/// A server whose handler pongs pings and echoes schedule bodies back
/// as artifacts; panics on the magic body `"boom"`. Its frame read
/// deadline is 500 ms.
fn spawn_echo_server() -> (
    String,
    Arc<RpcCounters>,
    Shutdown,
    std::thread::JoinHandle<()>,
) {
    let handler = |frame: &Frame| match RpcRequest::from_frame(frame) {
        Ok(RpcRequest::Ping) => RpcResponse::Pong.to_frame(),
        Ok(RpcRequest::Schedule { body, .. }) => {
            assert_ne!(body, "boom", "poisoned request");
            RpcResponse::Artifact(body.into_bytes()).to_frame()
        }
        Err(e) => RpcResponse::Error(format!("{e}")).to_frame(),
    };
    let stop = StopFlag::default();
    let server =
        RpcServer::bind("127.0.0.1:0", Duration::from_millis(500), &stop, handler).unwrap();
    let addr = server.local_addr().unwrap();
    let counters = server.counters();
    let join = std::thread::spawn(move || server.run());
    (addr.to_string(), counters, Shutdown { stop, addr }, join)
}

fn client_for(addr: &str) -> RpcClient {
    RpcClient::new(
        addr,
        RpcClientConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            attempts: 2,
            retry_base: 0.01,
            pool_cap: 4,
            seed: 7,
        },
    )
}

fn ping_ok(client: &RpcClient) {
    let resp = client.call(&RpcRequest::Ping.to_frame()).unwrap();
    assert_eq!(RpcResponse::from_frame(&resp).unwrap(), RpcResponse::Pong);
}

#[test]
fn well_formed_calls_roundtrip_and_pool_connections() {
    let (addr, counters, shutdown, join) = spawn_echo_server();
    let client = client_for(&addr);

    ping_ok(&client);
    assert_eq!(client.idle_connections(), 1, "connection returned to pool");
    let req = RpcRequest::Schedule {
        origin: 1,
        body: "{\"preset\":\"tetonly\"}".into(),
    };
    let resp = client.call(&req.to_frame()).unwrap();
    assert_eq!(
        RpcResponse::from_frame(&resp).unwrap(),
        RpcResponse::Artifact(b"{\"preset\":\"tetonly\"}".to_vec())
    );
    assert_eq!(client.idle_connections(), 1, "same connection reused");
    assert_eq!(counters.calls.load(Ordering::Relaxed), 2);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn garbage_magic_closes_cleanly_and_counts() {
    let (addr, counters, shutdown, join) = spawn_echo_server();

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    // The server closes without replying; read drains to EOF.
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let _ = raw.read_to_end(&mut buf);
    assert!(buf.is_empty(), "no bytes for a bad frame, got {buf:?}");

    // The worker slot is free again: a well-formed call still works.
    ping_ok(&client_for(&addr));
    assert_eq!(counters.bad_frames.load(Ordering::Relaxed), 1);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let (addr, counters, shutdown, join) = spawn_echo_server();

    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut evil = Vec::new();
    evil.extend_from_slice(b"SWRP");
    evil.extend_from_slice(&[VERSION, KIND_PING]);
    evil.extend_from_slice(&u64::MAX.to_le_bytes());
    raw.write_all(&evil).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf);
    assert!(buf.is_empty());

    // A length just over the cap is also refused.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut evil = Vec::new();
    evil.extend_from_slice(b"SWRP");
    evil.extend_from_slice(&[VERSION, KIND_PING]);
    evil.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    raw.write_all(&evil).unwrap();
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let _ = raw.read_to_end(&mut buf);
    assert!(buf.is_empty());

    assert_eq!(counters.bad_frames.load(Ordering::Relaxed), 2);
    ping_ok(&client_for(&addr));

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn truncated_frame_closes_cleanly() {
    let (addr, counters, shutdown, join) = spawn_echo_server();

    // Announce a 64-byte body, send 10, close.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut partial = Vec::new();
    partial.extend_from_slice(b"SWRP");
    partial.extend_from_slice(&[VERSION, 3]);
    partial.extend_from_slice(&64u64.to_le_bytes());
    partial.extend_from_slice(&[0u8; 10]);
    raw.write_all(&partial).unwrap();
    drop(raw);

    // Truncation is a transport failure, not a framing violation.
    ping_ok(&client_for(&addr));
    assert_eq!(counters.bad_frames.load(Ordering::Relaxed), 0);
    assert_eq!(counters.calls.load(Ordering::Relaxed), 1);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn slow_loris_partial_write_is_bounded_by_the_read_deadline() {
    let (addr, counters, shutdown, join) = spawn_echo_server();

    // Start a frame, then stall. The server (500ms read deadline)
    // must close the connection rather than pin the worker.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"SWRP").unwrap();
    let start = Instant::now();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // EOF when the server gives up
    assert!(buf.is_empty());
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "server did not enforce its read deadline: {:?}",
        start.elapsed()
    );

    // Both worker slots still answer.
    let client = client_for(&addr);
    ping_ok(&client);
    ping_ok(&client);
    assert_eq!(counters.panics.load(Ordering::Relaxed), 0);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn handler_panic_is_answered_with_a_typed_error() {
    let (addr, counters, shutdown, join) = spawn_echo_server();

    let client = client_for(&addr);
    let req = RpcRequest::Schedule {
        origin: 0,
        body: "boom".into(),
    };
    let resp = client.call(&req.to_frame()).unwrap();
    match RpcResponse::from_frame(&resp).unwrap() {
        RpcResponse::Error(msg) => assert!(msg.contains("panicked"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(counters.panics.load(Ordering::Relaxed), 1);

    // The worker survives the unwind.
    ping_ok(&client);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn unreachable_peer_reports_unavailable_after_retries() {
    // A port nothing listens on: the call must fail fast with
    // Unavailable, not hang.
    let client = RpcClient::new(
        "127.0.0.1:1",
        RpcClientConfig {
            connect_timeout: Duration::from_millis(200),
            attempts: 2,
            retry_base: 0.01,
            ..RpcClientConfig::default()
        },
    );
    match client.call(&RpcRequest::Ping.to_frame()) {
        Err(sweep_rpc::RpcError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
}

#[cfg(feature = "fault-inject")]
#[test]
fn injected_drops_and_partitions_are_deterministic_transport_errors() {
    use sweep_faults::{FaultPlan, LinkPartition};

    let (addr, _counters, shutdown, join) = spawn_echo_server();
    let client = client_for(&addr);

    // A link partition between shards 0 and 1 covering all logical
    // time: every attempt fails without touching the socket.
    let mut plan = FaultPlan::none();
    plan.partitions.push(LinkPartition {
        a: 0,
        b: 1,
        start: 0.0,
        end: 1.0e18,
    });
    client.set_fault_plan(plan, 0, 1);
    match client.call(&RpcRequest::Ping.to_frame()) {
        Err(sweep_rpc::RpcError::Unavailable(msg)) => {
            assert!(msg.contains("injected"), "{msg}")
        }
        other => panic!("expected injected Unavailable, got {other:?}"),
    }

    // drop_rate = 1 drops every attempt deterministically.
    let mut plan = FaultPlan::none();
    plan.drop_rate = 1.0;
    client.set_fault_plan(plan, 0, 1);
    match client.call(&RpcRequest::Ping.to_frame()) {
        Err(sweep_rpc::RpcError::Unavailable(msg)) => {
            assert!(msg.contains("injected"), "{msg}")
        }
        other => panic!("expected injected Unavailable, got {other:?}"),
    }

    // Clearing the plan restores service.
    client.clear_fault_plan();
    ping_ok(&client);

    shutdown.shutdown();
    join.join().unwrap();
}
