//! End-to-end tests of the request-tracing surface over real loopback
//! sockets: every response carries the deterministic request id and a
//! five-stage `Server-Timing` header; a traced cold schedule request's
//! stage self-times account for its total, the summary included (a
//! `schedule.summarize` sub-span on a miss, nothing on a hit); a
//! coalesced single-flight waiter's access-log line names its leader's
//! request id; the span trees of a cold request, a hit and a coalesced
//! follower certify under SW028; the `/debug/vars` snapshot agrees with
//! the SW024-certified cache state; and a traced cache hit costs no
//! more than a fixed per-request budget over an untraced one.

#![allow(clippy::unwrap_used)]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sweep_analyze::Code;
use sweep_serve::{
    certify_cache_identity, certify_trace_trees, AccessLogSink, ScheduleRequest, Server,
    ServerConfig,
};
use sweep_telemetry::STAGES;

/// One request/response exchange; returns the raw reply text.
fn exchange(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_schedule(addr: SocketAddr, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST /v1/schedule HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn schedule_body(seed: u64) -> String {
    schedule_body_at(0.01, seed)
}

fn schedule_body_at(scale: f64, seed: u64) -> String {
    format!("{{\"preset\": \"tetonly\", \"scale\": {scale}, \"sn\": 2, \"m\": 4, \"seed\": {seed}, \"b\": 2}}")
}

/// Case-insensitive header lookup in a raw HTTP/1.1 reply.
fn header(reply: &str, name: &str) -> Option<String> {
    let head = reply.split("\r\n\r\n").next()?;
    for line in head.lines().skip(1) {
        let (k, v) = line.split_once(':')?;
        if k.eq_ignore_ascii_case(name) {
            return Some(v.trim().to_string());
        }
    }
    None
}

fn spawn_server(config: ServerConfig) -> (SocketAddr, sweep_serve::ShutdownHandle, ServerGuard) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let service = server.service();
    let thread = std::thread::spawn(move || server.run());
    (
        addr,
        handle.clone(),
        ServerGuard {
            handle,
            thread: Some(thread),
            service,
        },
    )
}

/// Shuts the server down and joins its accept loop on drop.
struct ServerGuard {
    handle: sweep_serve::ShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    service: Arc<sweep_serve::SweepService>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn traced_config(sink: AccessLogSink) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 8,
        trace_sample_every: 1,
        log_sample_every: 1,
        access_log: sink,
        ..ServerConfig::default()
    }
}

/// Waits until the memory sink holds at least `n` lines (log lines are
/// written after the response bytes, so a client can observe the reply
/// before its line lands).
fn wait_for_lines(store: &Arc<Mutex<Vec<String>>>, n: usize) -> Vec<String> {
    for _ in 0..200 {
        let lines = store.lock().unwrap_or_else(|p| p.into_inner()).clone();
        if lines.len() >= n {
            return lines;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    store.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit())
}

#[test]
fn every_response_carries_request_id_and_five_stage_server_timing() {
    let (sink, store) = AccessLogSink::memory();
    let (addr, _h, guard) = spawn_server(traced_config(sink));

    let replies = [
        get(addr, "/healthz"),
        post_schedule(addr, &schedule_body(3)), // a miss
        post_schedule(addr, &schedule_body(3)), // and its hit
        get(addr, "/nope"),                     // 404 still gets an id + timing
    ];
    for reply in &replies {
        let id = header(reply, "X-Sweep-Request-Id").expect("request id header");
        assert!(is_hex16(&id), "malformed request id {id:?}");
        // Exactly the five stages: the summary is a sub-span of
        // `schedule`, not a sixth stage.
        let timing = header(reply, "Server-Timing").expect("server-timing header");
        let names: Vec<&str> = timing
            .split(", ")
            .map(|entry| entry.split(';').next().unwrap())
            .collect();
        assert_eq!(names, STAGES, "{timing}");
    }
    // Distinct connections get distinct ids.
    let ids: std::collections::BTreeSet<String> = replies
        .iter()
        .map(|r| header(r, "X-Sweep-Request-Id").unwrap())
        .collect();
    assert_eq!(ids.len(), replies.len());

    // One valid JSON access-log line per request, ids matching.
    let lines = wait_for_lines(&store, replies.len());
    assert_eq!(lines.len(), replies.len());
    for line in &lines {
        let v = sweep_json::parse(line).expect("access-log line is valid JSON");
        let logged = v.get("request_id").unwrap().as_str().unwrap().to_string();
        assert!(ids.contains(&logged), "unknown id {logged} in log");
        assert!(v.get("status").unwrap().as_u64().is_some());
        assert!(v.get("total_us").unwrap().as_u64().is_some());
    }

    // A trace is kept before its access-log line is written. The miss
    // computed the summary inside a span under `schedule`; the hit is a
    // lookup: nothing induced, scheduled or summarized.
    assert!(replies[1].contains("\"cache\": \"miss\""), "{}", replies[1]);
    assert!(replies[2].contains("\"cache\": \"hit\""), "{}", replies[2]);
    let traces = guard.service.ops().slow_traces();
    let trace_of = |reply: &str| {
        let id = header(reply, "X-Sweep-Request-Id").unwrap();
        let id = u64::from_str_radix(&id, 16).unwrap();
        traces.iter().find(|t| t.request_id == id).expect("trace")
    };
    let cold = trace_of(&replies[1]);
    let summarize = cold
        .spans
        .iter()
        .find(|s| s.name == "schedule.summarize")
        .expect("a miss computes the summary inside a span");
    let parent = cold.spans.iter().find(|s| s.id == summarize.parent);
    assert_eq!(parent.map(|s| s.name.as_ref()), Some("schedule"));
    let warm = trace_of(&replies[2]);
    assert!(
        !warm
            .spans
            .iter()
            .any(|s| s.name == "induce" || s.name.starts_with("schedule")),
        "{:?}",
        warm.spans
    );
}

#[test]
fn cold_schedule_stage_times_sum_close_to_request_total() {
    let (sink, store) = AccessLogSink::memory();
    let (addr, _h, _guard) = spawn_server(traced_config(sink));

    // Three cold requests: fresh seeds and fresh mesh scales, so each
    // misses the schedule tier and the instance tier. Self-time
    // attribution caps the stage sum at the total on every one of them.
    // A cold schedule spends nearly all its wall time inside the five
    // stages (induce, trials and the summary, which is part of
    // `schedule`, dominate), so the sum must also account for three
    // quarters of it (it reads 94-98 % on a quiet host) — on the
    // least-disturbed of the three: the time outside the stages is
    // accept/read/write, which a busy host stretches at will while the
    // stages stay a few milliseconds.
    let mut best = (0u64, 1u64);
    for attempt in 0..3usize {
        let scale = 0.01 + 0.002 * attempt as f64;
        let reply = post_schedule(addr, &schedule_body_at(scale, 41 + attempt as u64));
        assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
        let id = header(&reply, "X-Sweep-Request-Id").unwrap();

        let lines = wait_for_lines(&store, attempt + 1);
        let line = lines
            .iter()
            .find(|l| l.contains(&id))
            .expect("log line for the schedule request");
        let v = sweep_json::parse(line).unwrap();
        let total = v.get("total_us").unwrap().as_u64().unwrap();
        let stages = v.get("stages_us").expect("traced line has stages_us");
        let sum: u64 = STAGES
            .iter()
            .map(|s| stages.get(s).unwrap().as_u64().unwrap())
            .sum();
        assert!(sum <= total, "stage sum {sum} exceeds total {total}");
        if sum * best.1 > best.0 * total {
            best = (sum, total);
        }
    }
    let (sum, total) = best;
    assert!(
        sum * 4 >= total * 3,
        "stages account for too little in the best of three: {sum} of {total} µs"
    );
}

#[test]
fn coalesced_waiter_logs_its_leaders_request_id() {
    let (sink, store) = AccessLogSink::memory();
    let (addr, _h, _guard) = spawn_server(traced_config(sink));

    // Fire identical cold requests concurrently; the single-flight path
    // makes one connection lead and the rest coalesce onto it. Each
    // round uses a fresh seed (fresh content digest) so a rare round
    // with no overlap can simply be retried cold.
    for round in 0..5u64 {
        let body = schedule_body(1000 + round);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let body = &body;
                scope.spawn(move || {
                    let reply = post_schedule(addr, body);
                    assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
                });
            }
        });
        let lines = wait_for_lines(&store, (round as usize + 1) * 6);
        let parsed: Vec<_> = lines
            .iter()
            .map(|l| sweep_json::parse(l).unwrap())
            .collect();
        if let Some(waiter) = parsed.iter().find(|v| v.get("coalesced_onto").is_some()) {
            let leader = waiter
                .get("coalesced_onto")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert!(is_hex16(&leader));
            assert!(
                parsed
                    .iter()
                    .any(|v| v.get("request_id").unwrap().as_str() == Some(leader.as_str())),
                "leader {leader} has no access-log line of its own"
            );
            // The waiter is a distinct request with its own id.
            assert_ne!(waiter.get("request_id").unwrap().as_str().unwrap(), leader);
            return;
        }
        eprintln!("round {round}: no coalesced request observed, retrying");
    }
    panic!("no single-flight coalescing observed across 5 concurrent rounds");
}

#[test]
fn cold_hit_and_coalesced_trace_trees_certify_sw028() {
    // Every trace is kept (the default buffer holds the 8 slowest), so
    // the corpus provably contains the three shapes named below. A
    // trace is kept before its access-log line is written, so waiting
    // for a request's line is waiting for its trace.
    let (sink, store) = AccessLogSink::memory();
    let (addr, _h, guard) = spawn_server(ServerConfig {
        slow_keep: 64,
        ..traced_config(sink)
    });
    let request_id = |reply: &str| {
        let id = header(reply, "X-Sweep-Request-Id").expect("request id header");
        u64::from_str_radix(&id, 16).unwrap()
    };

    let cold = post_schedule(addr, &schedule_body(500));
    let hit = post_schedule(addr, &schedule_body(500));
    assert!(cold.contains("\"cache\": \"miss\""), "{cold}");
    assert!(hit.contains("\"cache\": \"hit\""), "{hit}");

    // Identical cold requests fired together: one leads, the rest
    // coalesce onto it. A round with no overlap is retried on a fresh
    // seed, as in `coalesced_waiter_logs_its_leaders_request_id`.
    let follower = (0..5u64).find_map(|round| {
        let body = schedule_body(2000 + round);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let body = &body;
                scope.spawn(move || {
                    let reply = post_schedule(addr, body);
                    assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
                });
            }
        });
        wait_for_lines(&store, 2 + 6 * (round as usize + 1));
        let traces = guard.service.ops().slow_traces();
        traces.into_iter().find(|t| t.coalesced_onto.is_some())
    });
    let follower = follower.expect("no single-flight coalescing across 5 concurrent rounds");

    let corpus = guard.service.ops().slow_traces();
    let spans_of = |id: u64| {
        let trace = corpus.iter().find(|t| t.request_id == id);
        let trace = trace.unwrap_or_else(|| panic!("request {id:016x} is not in the corpus"));
        trace
            .spans
            .iter()
            .map(|s| s.name.as_ref())
            .collect::<Vec<&str>>()
    };
    assert!(spans_of(request_id(&cold)).contains(&"induce"));
    assert!(!spans_of(request_id(&hit)).contains(&"induce"));
    assert!(spans_of(follower.request_id).contains(&"cache.wait"));
    spans_of(follower.coalesced_onto.unwrap()); // the leader was kept too

    let report = certify_trace_trees(&guard.service);
    assert!(
        !report.has_code(Code::TraceTreeMalformed) && report.has_code(Code::Certified),
        "{}",
        report.render_text()
    );

    let reply = get(addr, "/debug/trace");
    assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
    let body = reply.split("\r\n\r\n").nth(1).unwrap();
    sweep_telemetry::validate_chrome_trace(body).expect("/debug/trace is a Chrome trace");
}

#[test]
fn debug_vars_agrees_with_sw024_certified_cache_state() {
    let (addr, _h, guard) = spawn_server(traced_config(AccessLogSink::Null));

    // Warm the cache through the socket path, then certify hit identity
    // (SW024) directly against the same live service.
    for seed in [7u64, 7, 8] {
        let reply = post_schedule(addr, &schedule_body(seed));
        assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
    }
    let req = ScheduleRequest::preset("tetonly", 0.01, 2, 4);
    let report = certify_cache_identity(&guard.service, &req).expect("certify");
    assert!(!report.has_errors(), "{}", report.render_text());

    let reply = get(addr, "/debug/vars");
    assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
    let body = reply.split("\r\n\r\n").nth(1).unwrap();
    let v = sweep_json::parse(body).expect("/debug/vars is valid JSON");

    // The snapshot must agree with the cache the certification ran on.
    let stats = guard.service.cache().stats();
    let (t1, t2) = guard.service.cache().tier_stats();
    let cache = v.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").unwrap().as_u64().unwrap(), stats.hits);
    assert_eq!(cache.get("misses").unwrap().as_u64().unwrap(), stats.misses);
    let jt1 = cache.get("tier1").expect("tier1 section");
    let jt2 = cache.get("tier2").expect("tier2 section");
    assert_eq!(
        jt1.get("entries").unwrap().as_u64().unwrap(),
        t1.entries as u64
    );
    assert_eq!(jt1.get("bytes").unwrap().as_u64().unwrap(), t1.bytes as u64);
    assert_eq!(
        jt2.get("entries").unwrap().as_u64().unwrap(),
        t2.entries as u64
    );
    assert_eq!(jt2.get("bytes").unwrap().as_u64().unwrap(), t2.bytes as u64);
    // Three schedule POSTs with two distinct contents: at least one
    // entry per tier, and the repeat registered as a hit.
    assert!(t1.entries >= 1 && t2.entries >= 1);
    assert!(stats.hits >= 1);
}

/// What a traced cache hit may cost over an untraced one, per request.
/// It reads 6 µs in a quiet debug build (1.2 µs in release) and up to
/// 42 µs when the shared host runs the whole test three to four times
/// slower, so this is a tripwire for tracing that costs as much as the
/// 85–110 µs hit it traces — the number itself is the benchmark's
/// (`telemetry.trace_overhead_frac`, `driver.trace_overhead_frac`).
const TRACE_BUDGET_US: f64 = 100.0;

#[test]
fn traced_hit_stays_within_its_per_request_budget() {
    let hot_body = schedule_body(90);
    // One untraced and one fully traced server, both warm: the first
    // request pays induction, everything timed is pure cache-hit
    // traffic where per-request tracing cost would show.
    let servers = [0u64, 1].map(|trace_sample_every| {
        let server = spawn_server(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            trace_sample_every,
            log_sample_every: 0,
            access_log: AccessLogSink::Null,
            ..ServerConfig::default()
        });
        let reply = post_schedule(server.0, &hot_body);
        assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
        server
    });
    let timed_hit = |side: usize| {
        let started = Instant::now();
        let reply = post_schedule(servers[side].0, &hot_body);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        assert!(reply.starts_with("HTTP/1.1 200"));
        micros
    };

    // 1000 back-to-back (untraced, traced) pairs, the order within a
    // pair alternating: whatever the host does to one request it does
    // to its neighbour, so the median of the paired differences holds
    // still where two block totals (each 100 ms or more) do not.
    let mut extra: Vec<f64> = (0..1000)
        .map(|pair| {
            if pair % 2 == 0 {
                let untraced = timed_hit(0);
                timed_hit(1) - untraced
            } else {
                let traced = timed_hit(1);
                traced - timed_hit(0)
            }
        })
        .collect();
    extra.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = extra[extra.len() / 2];
    assert!(
        median <= TRACE_BUDGET_US,
        "a traced hit costs {median:.1} µs more than an untraced one (budget {TRACE_BUDGET_US} µs)"
    );
}
