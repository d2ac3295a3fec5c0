//! End-to-end tests of the sharded serving layer over real loopback
//! sockets: two shards route schedule requests across the
//! consistent-hash ring, forwarding preserves single-flight
//! cluster-wide, a killed home shard degrades to bit-identical local
//! compute (certified by SW029), and a healed partition re-promotes
//! the peer.

#![allow(clippy::unwrap_used)]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sweep_serve::{
    certify_cluster_identity, instance_digest, schedule_digest, AccessLogSink, ClusterConfig,
    ClusterState, Member, PeerStatus, ScheduleRequest, Server, ServerConfig, SweepService,
};

/// One request/response exchange; returns (status, headers+body text).
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status = reply.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, reply)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_schedule(addr: SocketAddr, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST /v1/schedule HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The body after the blank line separating it from the headers.
fn body_of(reply: &str) -> &str {
    reply.split_once("\r\n\r\n").unwrap().1
}

/// The schedule body with its cache-disposition lines removed — the
/// part the cluster promises is bit-identical no matter which shard
/// answered or how.
fn stripped(reply: &str) -> String {
    body_of(reply)
        .lines()
        .filter(|l| !l.contains("\"cache\"") && !l.contains("\"instance_cache\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One running shard with everything the tests need to poke it.
struct Shard {
    addr: SocketAddr,
    handle: sweep_serve::ShutdownHandle,
    service: Arc<SweepService>,
    cluster: Arc<ClusterState>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Shard {
    fn stop(self) {
        self.handle.shutdown();
        self.join.join().unwrap().unwrap();
    }
}

/// Boots a two-shard cluster on ephemeral ports. Both servers bind
/// their RPC listeners at port 0 first; the resolved addresses are then
/// patched into the peers' clients before the accept loops start.
fn boot_pair(log0: AccessLogSink, log1: AccessLogSink) -> (Shard, Shard) {
    let members = vec![
        Member {
            id: 0,
            http_addr: "127.0.0.1:0".to_string(),
            rpc_addr: "127.0.0.1:0".to_string(),
        },
        Member {
            id: 1,
            http_addr: "127.0.0.1:0".to_string(),
            rpc_addr: "127.0.0.1:0".to_string(),
        },
    ];
    let config_for = |self_id: u64| {
        let mut c = ClusterConfig::new(self_id, members.clone());
        c.connect_timeout = Duration::from_millis(200);
        c.forward_timeout = Duration::from_secs(2);
        c.probe_interval = Duration::from_millis(200);
        c
    };
    let server_config = |cluster: ClusterConfig, log: AccessLogSink| ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        max_inflight: 16,
        access_log: log,
        cluster: Some(cluster),
        ..ServerConfig::default()
    };
    let s0 = Server::bind(server_config(config_for(0), log0)).unwrap();
    let s1 = Server::bind(server_config(config_for(1), log1)).unwrap();
    let rpc0 = s0.rpc_addr().unwrap();
    let rpc1 = s1.rpc_addr().unwrap();
    s0.cluster().unwrap().set_peer_addr(1, &rpc1.to_string());
    s1.cluster().unwrap().set_peer_addr(0, &rpc0.to_string());
    let boot = |server: Server| {
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let service = server.service();
        let cluster = server.cluster().unwrap();
        let join = std::thread::spawn(move || server.run());
        Shard {
            addr,
            handle,
            service,
            cluster,
            join,
        }
    };
    (boot(s0), boot(s1))
}

fn body_with_seed(seed: u64) -> String {
    format!(r#"{{"preset": "tetonly", "scale": 0.01, "sn": 2, "m": 4, "seed": {seed}, "b": 2}}"#)
}

/// Finds a request body whose schedule digest homes on `home`,
/// scanning seeds from `from` up — the same digest pipeline the
/// service itself routes by.
fn body_homed_on(cluster: &ClusterState, home: u64, from: u64) -> String {
    for seed in from..from + 64 {
        let body = body_with_seed(seed);
        let req = ScheduleRequest::from_json(&body).unwrap();
        let key = schedule_digest(
            instance_digest(&req.mesh_bytes(), req.sn),
            req.m,
            &req.algorithm,
            req.delays,
            req.seed,
            req.b,
        );
        if cluster.home_of(key) == home {
            return body;
        }
    }
    panic!("no seed in {from}..{} homes on shard {home}", from + 64);
}

#[test]
fn forwarded_requests_hit_the_home_shards_cache_and_certify_sw029() {
    let (s0, s1) = boot_pair(AccessLogSink::Null, AccessLogSink::Null);
    // A request whose digest homes on shard 1, posted to shard 0.
    let body = body_homed_on(&s0.cluster, 1, 0);

    let (status, first) = post_schedule(s0.addr, &body);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("X-Sweep-Shard: 0\r\n"), "{first}");
    assert!(first.contains("X-Sweep-Forwarded-From: 1\r\n"), "{first}");
    assert!(!first.contains("X-Sweep-Degraded"), "{first}");

    // The forwarded artifact was published into shard 0's local cache;
    // the identical second request is a plain local hit. Shard 1
    // computed it while serving the RPC, so it answers from cache too.
    let (_, second) = post_schedule(s0.addr, &body);
    assert!(!second.contains("X-Sweep-Forwarded-From"), "{second}");
    assert!(body_of(&second).contains("\"cache\": \"hit\""), "{second}");
    let (_, at_home) = post_schedule(s1.addr, &body);
    assert!(at_home.contains("X-Sweep-Shard: 1\r\n"), "{at_home}");
    assert!(
        body_of(&at_home).contains("\"cache\": \"hit\""),
        "{at_home}"
    );

    // The schedule itself is bit-identical on every path.
    assert_eq!(stripped(&first), stripped(&second));
    assert_eq!(stripped(&first), stripped(&at_home));

    // Healthy cluster: healthz is 200 with the cluster fragment and no
    // degraded peers on either shard.
    for shard in [&s0, &s1] {
        let (status, reply) = get(shard.addr, "/healthz");
        assert_eq!(status, 200);
        let doc = sweep_json::parse(body_of(&reply)).unwrap();
        let c = doc.get("cluster").expect(&reply);
        assert_eq!(c.get("degraded").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            c.get("peers").and_then(|p| p.as_array()).map(|p| p.len()),
            Some(1)
        );
    }
    // /debug/vars carries the same fragment with live counters.
    let (_, vars) = get(s0.addr, "/debug/vars");
    let doc = sweep_json::parse(body_of(&vars)).unwrap();
    let c = doc.get("cluster").expect(&vars);
    assert!(
        c.get("forwards").and_then(|v| v.as_u64()).unwrap() >= 1,
        "{vars}"
    );

    // SW029: whatever path served it, the artifact is bit-identical to
    // a single-node cold compute.
    let req = ScheduleRequest::from_json(&body).unwrap();
    for shard in [&s0, &s1] {
        let report = certify_cluster_identity(&shard.service, &req).unwrap();
        assert!(!report.has_errors(), "{}", report.render_text());
        assert!(report.has_code(sweep_analyze::Code::Certified));
        assert!(!report.has_code(sweep_analyze::Code::ClusterDivergence));
    }

    s0.stop();
    s1.stop();
}

#[test]
fn forwarded_artifact_is_resummarized_once_and_then_hit_without_recomputation() {
    let (s0, s1) = boot_pair(AccessLogSink::Null, AccessLogSink::Null);
    let body = body_homed_on(&s0.cluster, 1, 500);
    let req = ScheduleRequest::from_json(&body).unwrap();

    // The forwarding shard re-derives the summary from the bytes it
    // received and its own instance (the frame does not carry it); the
    // numbers are those of a plain local compute.
    let (status, forwarded) = post_schedule(s0.addr, &body);
    assert_eq!(status, 200, "{forwarded}");
    assert!(
        forwarded.contains("X-Sweep-Forwarded-From: 1\r\n"),
        "{forwarded}"
    );
    let local = SweepService::new(Default::default())
        .schedule(&req)
        .unwrap();
    let doc = sweep_json::parse(body_of(&forwarded)).unwrap();
    for (field, want) in [
        ("lower_bound", local.lower_bound),
        ("c1", local.c1),
        ("c2", local.c2),
    ] {
        assert_eq!(
            doc.get(field).and_then(|v| v.as_u64()),
            Some(want),
            "{field}"
        );
    }

    // The identical request again is a hit on the forwarding shard that
    // summarizes on neither shard: the constructor runs only inside a
    // tier-2 leader closure, and neither shard's cache counts a miss.
    // (`serve.summarize` is one counter for the whole process, so the
    // per-content count lives in `tests/serve_hit_path.rs`.)
    let misses = |shard: &Shard| shard.service.cache().stats().misses;
    let (misses0, misses1) = (misses(&s0), misses(&s1));
    let (_, again) = post_schedule(s0.addr, &body);
    assert!(!again.contains("X-Sweep-Forwarded-From"), "{again}");
    assert!(body_of(&again).contains("\"cache\": \"hit\""), "{again}");
    assert_eq!(stripped(&again), stripped(&forwarded));
    assert_eq!((misses(&s0), misses(&s1)), (misses0, misses1));

    s0.stop();
    s1.stop();
}

#[test]
fn forwarding_preserves_single_flight_cluster_wide() {
    let (log0, lines0) = AccessLogSink::memory();
    let (log1, lines1) = AccessLogSink::memory();
    let (s0, s1) = boot_pair(log0, log1);
    // Homed on shard 1, hammered on shard 0 from several clients at
    // once: the coalescing tier must collapse them onto one forward,
    // and the home shard must compute exactly once.
    let body = body_homed_on(&s0.cluster, 1, 100);

    let stripped_bodies: Vec<String> = {
        let results = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let results = Arc::clone(&results);
                let body = body.clone();
                scope.spawn(move || {
                    let (status, reply) = post_schedule(s0.addr, &body);
                    assert_eq!(status, 200, "{reply}");
                    results.lock().unwrap().push(stripped(&reply));
                });
            }
        });
        Arc::try_unwrap(results).unwrap().into_inner().unwrap()
    };
    assert_eq!(stripped_bodies.len(), 4);
    for b in &stripped_bodies[1..] {
        assert_eq!(b, &stripped_bodies[0]);
    }

    s0.stop();
    s1.stop();

    // Across *both* shards' access logs there is exactly one real
    // computation (a tier-2 miss that was not satisfied by forwarding)
    // and exactly one forward RPC issued — everything else hit a cache
    // or coalesced onto the in-flight leader.
    let all: Vec<String> = lines0
        .lock()
        .unwrap()
        .iter()
        .chain(lines1.lock().unwrap().iter())
        .cloned()
        .collect();
    let computes = all
        .iter()
        .filter(|l| l.contains("\"tier2\":\"miss\"") && !l.contains("\"cluster\":\"forward\""))
        .count();
    let forwards = all
        .iter()
        .filter(|l| l.contains("\"cluster\":\"forward\""))
        .count();
    let rpc_serves = all.iter().filter(|l| l.contains("/rpc/schedule")).count();
    assert_eq!(computes, 1, "{all:#?}");
    assert_eq!(forwards, 1, "{all:#?}");
    assert_eq!(rpc_serves, 1, "{all:#?}");
}

#[test]
fn killed_home_shard_degrades_to_bit_identical_local_compute() {
    let (s0, s1) = boot_pair(AccessLogSink::Null, AccessLogSink::Null);
    let body = body_homed_on(&s0.cluster, 1, 200);

    // Kill the home shard outright (HTTP and RPC listeners both gone),
    // then ask the surviving shard for a schedule homed on the corpse.
    s1.stop();
    let (status, reply) = post_schedule(s0.addr, &body);
    assert_eq!(status, 200, "{reply}");
    assert!(
        reply.contains("X-Sweep-Degraded: fallback; home=1"),
        "{reply}"
    );
    assert!(!reply.contains("X-Sweep-Forwarded-From"), "{reply}");

    // The degraded answer is bit-identical to what a plain single-node
    // server computes for the same request.
    let single = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        access_log: AccessLogSink::Null,
        ..ServerConfig::default()
    })
    .unwrap();
    let single_addr = single.local_addr().unwrap();
    let single_handle = single.shutdown_handle().unwrap();
    let single_join = std::thread::spawn(move || single.run());
    let (_, lone) = post_schedule(single_addr, &body);
    assert_eq!(stripped(&reply), stripped(&lone));
    single_handle.shutdown();
    single_join.join().unwrap().unwrap();

    // The failure detector saw the dead peer: healthz stays 200 (this
    // shard still serves everything) but reports itself degraded.
    let (status, health) = get(s0.addr, "/healthz");
    assert_eq!(status, 200);
    let doc = sweep_json::parse(body_of(&health)).unwrap();
    let c = doc.get("cluster").expect(&health);
    assert_eq!(c.get("degraded").and_then(|v| v.as_bool()), Some(true));
    assert!(
        c.get("fallbacks").and_then(|v| v.as_u64()).unwrap() >= 1,
        "{health}"
    );

    // SW029 holds on the fallback path too.
    let req = ScheduleRequest::from_json(&body).unwrap();
    let report = certify_cluster_identity(&s0.service, &req).unwrap();
    assert!(!report.has_errors(), "{}", report.render_text());
    assert!(report.has_code(sweep_analyze::Code::Certified));

    s0.stop();
}

#[test]
fn healed_partition_repromotes_the_peer() {
    let (s0, s1) = boot_pair(AccessLogSink::Null, AccessLogSink::Null);
    let first = body_homed_on(&s0.cluster, 1, 300);
    let second = body_homed_on(&s0.cluster, 1, 400);

    // A permanent link partition between shards 0 and 1, injected into
    // shard 0's peer clients (the `cluster-faults` test feature):
    // forwards fail deterministically and the request degrades to
    // local compute.
    let mut plan = sweep_faults::FaultPlan::none();
    plan.partitions.push(sweep_faults::LinkPartition {
        a: 0,
        b: 1,
        start: 0.0,
        end: 1.0e18,
    });
    s0.cluster.install_fault_plan(&plan);
    let (status, reply) = post_schedule(s0.addr, &first);
    assert_eq!(status, 200, "{reply}");
    assert!(
        reply.contains("X-Sweep-Degraded: fallback; home=1"),
        "{reply}"
    );
    let statuses = s0.cluster.peer_statuses();
    assert!(
        statuses
            .iter()
            .any(|&(id, s)| id == 1 && s != PeerStatus::Up),
        "{statuses:?}"
    );

    // Heal the partition; one successful probe re-promotes the peer
    // and the next request forwards again.
    s0.cluster.clear_fault_plan();
    s0.cluster.probe_round();
    let statuses = s0.cluster.peer_statuses();
    assert!(
        statuses
            .iter()
            .any(|&(id, s)| id == 1 && s == PeerStatus::Up),
        "{statuses:?}"
    );
    let (status, reply) = post_schedule(s0.addr, &second);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("X-Sweep-Forwarded-From: 1\r\n"), "{reply}");

    s0.stop();
    s1.stop();
}
