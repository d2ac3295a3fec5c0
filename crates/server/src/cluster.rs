//! The cluster layer: static membership, a per-peer failure detector,
//! artifact forwarding over `sweep-rpc`, and the wire codec for
//! [`UncheckedArtifact`].
//!
//! Topology is a static membership file (no gossip, no coordinator):
//! every shard reads the same list of `<id> <http_addr> <rpc_addr>`
//! lines and derives the identical consistent-hash [`Ring`], so a
//! digest's home shard is agreed everywhere without a single byte of
//! agreement traffic.
//!
//! The failure detector is deliberately simple: any RPC failure against
//! a peer marks it `suspect`; [`ClusterConfig::down_after`] consecutive
//! failures mark it `down`, after which the forward path stops trying
//! it (requests degrade to local compute immediately instead of paying
//! a dial timeout). A background prober keeps pinging non-`ok` peers —
//! the half-open probe — and one success re-promotes the peer to `ok`.
//!
//! Forwarding moves *artifacts*, not rendered responses: the home shard
//! returns its cached (or freshly computed) artifact's schedule and
//! trial record, the edge shard checks them against its own instance
//! ([`UncheckedArtifact::check`], which also re-derives the summary),
//! inserts the result into its own tier-2 cache and renders locally.
//! Because the compute path is deterministic, a forwarded artifact and
//! a local fallback compute are bit-identical — forwarding is a
//! de-duplication optimisation, never a correctness dependency.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

use sweep_rpc::{RpcClient, RpcClientConfig, RpcRequest, RpcResponse};

use crate::cache::UncheckedArtifact;
use crate::ring::Ring;
use sweep_core::{Assignment, Schedule};

/// One line of the membership file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Stable shard id (the ring hashes these).
    pub id: u64,
    /// HTTP address clients talk to (`host:port`).
    pub http_addr: String,
    /// RPC address peers forward to (`host:port`).
    pub rpc_addr: String,
}

/// Parses a membership file: one `<id> <http_addr> <rpc_addr>` per
/// line, `#` comments and blank lines ignored, ids unique.
pub fn parse_members(text: &str) -> Result<Vec<Member>, String> {
    let mut members: Vec<Member> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(format!(
                "members line {}: want '<id> <http_addr> <rpc_addr>', got '{line}'",
                lineno + 1
            ));
        }
        let id: u64 = fields[0]
            .parse()
            .map_err(|_| format!("members line {}: bad shard id '{}'", lineno + 1, fields[0]))?;
        if members.iter().any(|m| m.id == id) {
            return Err(format!(
                "members line {}: duplicate shard id {id}",
                lineno + 1
            ));
        }
        members.push(Member {
            id,
            http_addr: fields[1].to_string(),
            rpc_addr: fields[2].to_string(),
        });
    }
    if members.is_empty() {
        return Err("members file names no shards".to_string());
    }
    members.sort_by_key(|m| m.id);
    Ok(members)
}

/// Cluster-mode knobs; [`ClusterConfig::new`] fills the defaults.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This shard's id (must appear in `members`).
    pub self_id: u64,
    /// The full static membership, self included.
    pub members: Vec<Member>,
    /// Threads serving inbound peer RPCs.
    pub rpc_threads: usize,
    /// Read deadline for one inbound RPC frame (slow-loris bound).
    pub rpc_read_timeout: Duration,
    /// Dial deadline per forward attempt.
    pub connect_timeout: Duration,
    /// Read/write deadline per forward attempt — the forward deadline:
    /// when it expires the request degrades to local compute.
    pub forward_timeout: Duration,
    /// Total attempts per forward call (retries ride the full-jitter
    /// backoff curve).
    pub forward_attempts: u32,
    /// Base of the retry jitter curve, in seconds.
    pub retry_base: f64,
    /// Interval between failure-detector probe rounds.
    pub probe_interval: Duration,
    /// Consecutive failures that demote a peer from `suspect` to
    /// `down`.
    pub down_after: u32,
}

impl ClusterConfig {
    /// A config with the service defaults for everything but identity.
    pub fn new(self_id: u64, members: Vec<Member>) -> ClusterConfig {
        ClusterConfig {
            self_id,
            members,
            rpc_threads: 2,
            rpc_read_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(500),
            forward_timeout: Duration::from_secs(2),
            forward_attempts: 2,
            retry_base: 0.05,
            probe_interval: Duration::from_secs(1),
            down_after: 3,
        }
    }
}

/// Peer health as the failure detector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerStatus {
    /// Last contact succeeded.
    Up,
    /// At least one recent failure; still tried on the forward path.
    Suspect,
    /// `down_after` consecutive failures; skipped by the forward path
    /// until a half-open probe succeeds.
    Down,
}

impl PeerStatus {
    /// The wire vocabulary used by `/healthz` and `/debug/vars`.
    pub fn as_str(self) -> &'static str {
        match self {
            PeerStatus::Up => "ok",
            PeerStatus::Suspect => "suspect",
            PeerStatus::Down => "down",
        }
    }
}

struct Peer {
    member: Member,
    status: AtomicU8, // PeerStatus discriminant
    fails: AtomicU32,
    client: RpcClient,
}

impl Peer {
    fn status(&self) -> PeerStatus {
        match self.status.load(Ordering::Relaxed) {
            0 => PeerStatus::Up,
            1 => PeerStatus::Suspect,
            _ => PeerStatus::Down,
        }
    }

    fn set_status(&self, s: PeerStatus) {
        let v = match s {
            PeerStatus::Up => 0,
            PeerStatus::Suspect => 1,
            PeerStatus::Down => 2,
        };
        self.status.store(v, Ordering::Relaxed);
    }
}

/// Live counters for the cluster surface (`/healthz`, `/debug/vars`).
#[derive(Debug, Default)]
pub struct ClusterCounters {
    /// Forward RPCs attempted against a home shard.
    pub forwards: AtomicU64,
    /// Forward RPCs that failed (transport, refusal, or bad artifact).
    pub forward_fails: AtomicU64,
    /// Requests that degraded to local compute (their home shard was
    /// down or the forward failed).
    pub fallbacks: AtomicU64,
    /// Inbound peer schedule RPCs served.
    pub rpc_serves: AtomicU64,
    /// Failure-detector probes sent.
    pub probes: AtomicU64,
}

/// Where a digest should be computed, as decided by the ring and the
/// failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// This shard is the home: compute locally.
    Local,
    /// Forward to the peer at this index in the peer table.
    Forward(usize),
    /// The home shard (by id) is marked down: degrade to local compute
    /// without paying a dial timeout.
    Degraded(u64),
}

/// The shared cluster state one shard carries: membership, ring, peer
/// clients with health, and the operational counters.
pub struct ClusterState {
    config: ClusterConfig,
    ring: Ring,
    peers: Vec<Peer>,
    counters: ClusterCounters,
}

impl ClusterState {
    /// Validates the membership and builds the per-peer clients.
    pub fn new(config: ClusterConfig) -> Result<ClusterState, String> {
        if config.members.is_empty() {
            return Err("cluster has no members".to_string());
        }
        if !config.members.iter().any(|m| m.id == config.self_id) {
            return Err(format!(
                "--self-id {} does not appear in the members file",
                config.self_id
            ));
        }
        let ids: Vec<u64> = config.members.iter().map(|m| m.id).collect();
        let ring = Ring::new(&ids);
        let peers = config
            .members
            .iter()
            .filter(|m| m.id != config.self_id)
            .map(|m| Peer {
                member: m.clone(),
                status: AtomicU8::new(0),
                fails: AtomicU32::new(0),
                client: RpcClient::new(
                    &m.rpc_addr,
                    RpcClientConfig {
                        connect_timeout: config.connect_timeout,
                        io_timeout: config.forward_timeout,
                        attempts: config.forward_attempts,
                        retry_base: config.retry_base,
                        pool_cap: 4,
                        // Fold both endpoints into the jitter seed so two
                        // shards retrying against the same recovered peer
                        // are decorrelated.
                        seed: 0x5357_5250 ^ (config.self_id << 16) ^ m.id,
                    },
                ),
            })
            .collect();
        Ok(ClusterState {
            config,
            ring,
            peers,
            counters: ClusterCounters::default(),
        })
    }

    /// This shard's id.
    pub fn self_id(&self) -> u64 {
        self.config.self_id
    }

    /// The cluster config.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The full membership (self included), sorted by id.
    pub fn members(&self) -> &[Member] {
        &self.config.members
    }

    /// The consistent-hash ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The live counters.
    pub fn counters(&self) -> &ClusterCounters {
        &self.counters
    }

    /// The home shard id for a digest.
    pub fn home_of(&self, digest: u64) -> u64 {
        self.ring.home_of(digest)
    }

    /// Routing decision for a digest: local, forward, or degraded.
    pub fn route_for(&self, digest: u64) -> Route {
        let home = self.ring.home_of(digest);
        if home == self.config.self_id {
            return Route::Local;
        }
        match self.peers.iter().position(|p| p.member.id == home) {
            // Unreachable with a validated membership, but never panic
            // on a routing decision.
            None => Route::Local,
            Some(i) => {
                if self.peers[i].status() == PeerStatus::Down {
                    Route::Degraded(home)
                } else {
                    Route::Forward(i)
                }
            }
        }
    }

    fn record_success(&self, peer: &Peer) {
        peer.fails.store(0, Ordering::Relaxed);
        peer.set_status(PeerStatus::Up);
    }

    fn record_failure(&self, peer: &Peer) {
        let fails = peer.fails.fetch_add(1, Ordering::Relaxed) + 1;
        peer.set_status(if fails >= self.config.down_after {
            PeerStatus::Down
        } else {
            PeerStatus::Suspect
        });
    }

    /// Forwards a canonical request JSON to the peer at `peer_index`
    /// and decodes the artifact it returns. Any failure is reported to
    /// the failure detector; the caller degrades to local compute.
    pub fn forward_schedule(
        &self,
        peer_index: usize,
        request_json: String,
        want_digest: u64,
    ) -> Result<UncheckedArtifact, String> {
        let peer = &self.peers[peer_index];
        self.counters.forwards.fetch_add(1, Ordering::Relaxed);
        let rpc = RpcRequest::Schedule {
            origin: self.config.self_id,
            body: request_json,
        };
        match peer.client.call(&rpc.to_frame()) {
            Ok(frame) => match RpcResponse::from_frame(&frame) {
                Ok(RpcResponse::Artifact(bytes)) => {
                    self.record_success(peer);
                    let artifact = decode_artifact(&bytes)?;
                    if artifact.digest != want_digest {
                        return Err(format!(
                            "peer {} returned digest {:016x}, wanted {:016x}",
                            peer.member.id, artifact.digest, want_digest
                        ));
                    }
                    Ok(artifact)
                }
                Ok(RpcResponse::Error(msg)) => {
                    // The peer is alive and answering; the refusal is a
                    // service-level error, not a detector event.
                    self.record_success(peer);
                    Err(format!("peer {} refused: {msg}", peer.member.id))
                }
                Ok(RpcResponse::Pong) => {
                    self.record_failure(peer);
                    Err(format!("peer {} answered out of protocol", peer.member.id))
                }
                Err(e) => {
                    self.record_failure(peer);
                    Err(format!("peer {}: {e}", peer.member.id))
                }
            },
            Err(e) => {
                self.record_failure(peer);
                Err(format!("peer {}: {e}", peer.member.id))
            }
        }
    }

    /// One failure-detector round: ping every peer. A success
    /// re-promotes the peer to `ok` (the half-open recovery path); a
    /// failure walks it toward `down`.
    pub fn probe_round(&self) {
        for peer in &self.peers {
            self.counters.probes.fetch_add(1, Ordering::Relaxed);
            match peer.client.call(&RpcRequest::Ping.to_frame()) {
                Ok(frame) => match RpcResponse::from_frame(&frame) {
                    Ok(RpcResponse::Pong) => self.record_success(peer),
                    _ => self.record_failure(peer),
                },
                Err(_) => self.record_failure(peer),
            }
        }
    }

    /// Whether any peer is not `ok`. Health checks report this as
    /// `"degraded": true` with a 200 status — a shard that can still
    /// compute locally is healthy, just slower on remote-homed digests.
    pub fn degraded(&self) -> bool {
        self.peers.iter().any(|p| p.status() != PeerStatus::Up)
    }

    /// Per-peer `(id, status)` pairs, sorted by id.
    pub fn peer_statuses(&self) -> Vec<(u64, PeerStatus)> {
        self.peers
            .iter()
            .map(|p| (p.member.id, p.status()))
            .collect()
    }

    /// Count an inbound peer schedule RPC.
    pub fn record_rpc_serve(&self) {
        self.counters.rpc_serves.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a degrade-to-local-compute decision.
    pub fn record_fallback(&self) {
        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a failed forward.
    pub fn record_forward_fail(&self) {
        self.counters.forward_fails.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-points the client for peer `id` (tests bind shards on
    /// ephemeral ports after the membership file is written).
    pub fn set_peer_addr(&self, id: u64, addr: &str) {
        if let Some(peer) = self.peers.iter().find(|p| p.member.id == id) {
            peer.client.set_addr(addr);
        }
    }

    /// The cluster object rendered into `/healthz` and `/debug/vars`:
    /// self id, ring size, per-peer status, and the forward/fallback
    /// counters.
    pub fn status_json_fragment(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"self_id\": {}, \"members\": {}, \"ring_points\": {}, \"degraded\": {}, ",
            self.config.self_id,
            self.config.members.len(),
            self.ring.len_points(),
            self.degraded()
        );
        out.push_str("\"peers\": [");
        for (i, (id, status)) in self.peer_statuses().iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\": {id}, \"status\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                status.as_str()
            );
        }
        let _ = write!(
            out,
            "], \"forwards\": {}, \"forward_fails\": {}, \"fallbacks\": {}, \
             \"rpc_serves\": {}, \"probes\": {}}}",
            self.counters.forwards.load(Ordering::Relaxed),
            self.counters.forward_fails.load(Ordering::Relaxed),
            self.counters.fallbacks.load(Ordering::Relaxed),
            self.counters.rpc_serves.load(Ordering::Relaxed),
            self.counters.probes.load(Ordering::Relaxed),
        );
        out
    }

    /// Installs a deterministic fault plan on every peer client: link
    /// partitions, per-attempt drops, and delivery jitter from the plan
    /// apply to all outbound forwards and probes.
    #[cfg(feature = "cluster-faults")]
    pub fn install_fault_plan(&self, plan: &sweep_faults::FaultPlan) {
        for peer in &self.peers {
            peer.client
                .set_fault_plan(plan.clone(), self.config.self_id, peer.member.id);
        }
    }

    /// Clears any installed fault plan from every peer client.
    #[cfg(feature = "cluster-faults")]
    pub fn clear_fault_plan(&self) {
        for peer in &self.peers {
            peer.client.clear_fault_plan();
        }
    }
}

const ARTIFACT_MAGIC: [u8; 4] = *b"SART";
const ARTIFACT_VERSION: u8 = 1;

/// Serializes an artifact for the RPC wire: magic, version, digest,
/// trial metadata, then the assignment and start times as raw `u32`
/// arrays. Everything little-endian, fully length-checked on decode.
/// The frame carries exactly an [`UncheckedArtifact`] — a
/// [`ScheduleArtifact`](crate::cache::ScheduleArtifact)'s summary stays
/// behind; the receiver re-derives it.
pub fn encode_artifact(artifact: &UncheckedArtifact) -> Vec<u8> {
    let starts = artifact.schedule.starts();
    let assignment = artifact.schedule.assignment();
    let cells = assignment.num_cells();
    let mut out = Vec::with_capacity(64 + 4 * (starts.len() + cells));
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.push(ARTIFACT_VERSION);
    out.extend_from_slice(&artifact.digest.to_le_bytes());
    out.extend_from_slice(&(artifact.trial as u64).to_le_bytes());
    out.extend_from_slice(&artifact.trial_seed.to_le_bytes());
    out.extend_from_slice(&(artifact.trial_makespans.len() as u32).to_le_bytes());
    for &mk in &artifact.trial_makespans {
        out.extend_from_slice(&mk.to_le_bytes());
    }
    out.extend_from_slice(&(assignment.num_procs() as u32).to_le_bytes());
    out.extend_from_slice(&(cells as u32).to_le_bytes());
    for v in 0..cells as u32 {
        out.extend_from_slice(&assignment.proc_of(v).to_le_bytes());
    }
    out.extend_from_slice(&(starts.len() as u32).to_le_bytes());
    for &s in starts {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "artifact truncated".to_string())?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, String> {
        let raw = self.take(n.checked_mul(4).ok_or("artifact length overflow")?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Decodes an artifact off the wire, validating every length and every
/// processor id before touching the panicking constructors — a
/// malicious or corrupt peer yields `Err`, never a panic. What comes
/// back is well-formed, not yet feasible for any instance: that is
/// [`UncheckedArtifact::check`]'s job.
pub fn decode_artifact(bytes: &[u8]) -> Result<UncheckedArtifact, String> {
    let mut cur = Cursor { bytes, at: 0 };
    if cur.take(4)? != ARTIFACT_MAGIC {
        return Err("artifact: bad magic".to_string());
    }
    if cur.take(1)? != [ARTIFACT_VERSION] {
        return Err("artifact: unknown version".to_string());
    }
    let digest = cur.u64()?;
    let trial = cur.u64()? as usize;
    let trial_seed = cur.u64()?;
    let n_makespans = cur.u32()? as usize;
    let trial_makespans = cur.u32_vec(n_makespans)?;
    let m = cur.u32()? as usize;
    if m == 0 {
        return Err("artifact: zero processors".to_string());
    }
    let cells = cur.u32()? as usize;
    let proc_of_cell = cur.u32_vec(cells)?;
    if let Some(&bad) = proc_of_cell.iter().find(|&&p| p as usize >= m) {
        return Err(format!("artifact: cell assigned to processor {bad} of {m}"));
    }
    let n_starts = cur.u32()? as usize;
    let starts = cur.u32_vec(n_starts)?;
    if cur.at != bytes.len() {
        return Err(format!("artifact: {} trailing bytes", bytes.len() - cur.at));
    }
    if cells == 0 || !n_starts.is_multiple_of(cells) {
        return Err(format!(
            "artifact: {n_starts} starts not a multiple of {cells} cells"
        ));
    }
    let assignment = Assignment::from_vec(proc_of_cell, m);
    let schedule = Schedule::new(starts, assignment).map_err(|e| format!("artifact: {e}"))?;
    Ok(UncheckedArtifact {
        schedule,
        trial,
        trial_seed,
        trial_makespans,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_members_file() {
        let text =
            "# two shards\n0 127.0.0.1:7469 127.0.0.1:7470\n\n1 127.0.0.1:7471 127.0.0.1:7472\n";
        let members = parse_members(text).unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].id, 0);
        assert_eq!(members[1].rpc_addr, "127.0.0.1:7472");
    }

    #[test]
    fn rejects_bad_members_files() {
        for (text, needle) in [
            ("", "no shards"),
            ("0 a\n", "want '<id>"),
            ("x a b\n", "bad shard id"),
            ("0 a b\n0 c d\n", "duplicate shard id"),
        ] {
            let err = parse_members(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn cluster_state_validates_self_id() {
        let members = parse_members("0 a b\n1 c d\n").unwrap();
        assert!(ClusterState::new(ClusterConfig::new(2, members.clone())).is_err());
        let state = ClusterState::new(ClusterConfig::new(0, members)).unwrap();
        assert_eq!(state.self_id(), 0);
        assert_eq!(state.peer_statuses(), vec![(1, PeerStatus::Up)]);
        assert!(!state.degraded());
    }

    #[test]
    fn failure_detector_walks_suspect_then_down_then_recovers() {
        let members = parse_members("0 a b\n1 c d\n").unwrap();
        let state = ClusterState::new(ClusterConfig::new(0, members)).unwrap();
        let peer = &state.peers[0];
        state.record_failure(peer);
        assert_eq!(peer.status(), PeerStatus::Suspect);
        assert!(state.degraded());
        assert!(matches!(state.route_for_peer_test(1), Route::Forward(0)));
        state.record_failure(peer);
        state.record_failure(peer);
        assert_eq!(peer.status(), PeerStatus::Down);
        assert!(matches!(state.route_for_peer_test(1), Route::Degraded(1)));
        state.record_success(peer);
        assert_eq!(peer.status(), PeerStatus::Up);
        assert!(!state.degraded());
    }

    impl ClusterState {
        /// A digest homed on `shard` (tests only).
        fn route_for_peer_test(&self, shard: u64) -> Route {
            let mut d = 0u64;
            while self.ring.home_of(d) != shard {
                d = d.wrapping_add(0x9E37_79B9_7F4A_7C15);
            }
            self.route_for(d)
        }
    }

    #[test]
    fn status_fragment_is_valid_json() {
        let members = parse_members("0 a b\n1 c d\n2 e f\n").unwrap();
        let state = ClusterState::new(ClusterConfig::new(1, members)).unwrap();
        let doc = sweep_json::parse(&state.status_json_fragment()).unwrap();
        assert_eq!(doc.get("self_id").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("members").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn artifact_codec_round_trips() {
        let assignment = Assignment::from_vec(vec![0, 1, 1, 0], 2);
        let schedule = Schedule::new(vec![0, 1, 2, 3, 4, 5, 6, 7], assignment).unwrap();
        let artifact = UncheckedArtifact {
            schedule,
            trial: 3,
            trial_seed: 0xDEAD_BEEF,
            trial_makespans: vec![9, 8, 7, 6],
            digest: 0x0123_4567_89AB_CDEF,
        };
        let bytes = encode_artifact(&artifact);
        let back = decode_artifact(&bytes).unwrap();
        assert_eq!(back.digest, artifact.digest);
        assert_eq!(back.trial, 3);
        assert_eq!(back.trial_seed, 0xDEAD_BEEF);
        assert_eq!(back.trial_makespans, artifact.trial_makespans);
        assert_eq!(back.schedule.starts(), artifact.schedule.starts());
        assert_eq!(
            back.schedule.assignment().num_procs(),
            artifact.schedule.assignment().num_procs()
        );
        assert_eq!(back.schedule.makespan(), artifact.schedule.makespan());
    }

    #[test]
    fn artifact_decode_rejects_corruption_without_panicking() {
        let assignment = Assignment::from_vec(vec![0, 1], 2);
        let schedule = Schedule::new(vec![0, 1], assignment).unwrap();
        let artifact = UncheckedArtifact {
            schedule,
            trial: 0,
            trial_seed: 1,
            trial_makespans: vec![1],
            digest: 42,
        };
        let good = encode_artifact(&artifact);
        // Every truncation fails cleanly.
        for cut in 0..good.len() {
            assert!(decode_artifact(&good[..cut]).is_err(), "cut {cut}");
        }
        // Bad magic.
        let mut evil = good.clone();
        evil[0] = b'X';
        assert!(decode_artifact(&evil).unwrap_err().contains("magic"));
        // Out-of-range processor id: the byte after magic+version+3×u64
        // +len+1×u32 starts the m field; corrupt an assignment entry
        // instead via a rebuilt buffer.
        let mut evil = Vec::new();
        evil.extend_from_slice(&ARTIFACT_MAGIC);
        evil.push(ARTIFACT_VERSION);
        evil.extend_from_slice(&42u64.to_le_bytes());
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.extend_from_slice(&1u64.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes()); // no makespans
        evil.extend_from_slice(&2u32.to_le_bytes()); // m = 2
        evil.extend_from_slice(&1u32.to_le_bytes()); // 1 cell
        evil.extend_from_slice(&9u32.to_le_bytes()); // proc 9 >= m
        evil.extend_from_slice(&1u32.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_artifact(&evil).unwrap_err().contains("processor"));
        // Trailing garbage.
        let mut evil = good.clone();
        evil.push(0);
        assert!(decode_artifact(&evil).unwrap_err().contains("trailing"));
    }
}
