//! # sweep-rpc — typed length-prefixed RPC over std TCP
//!
//! The cluster layer of `sweep-serve` needs exactly one thing from its
//! transport: move a schedule request to the digest's home shard and
//! bring the computed artifact back, without ever wedging the caller.
//! This crate is that transport, built on nothing but
//! `std::net::TcpStream` to preserve the workspace's offline-build
//! policy.
//!
//! * [`Frame`] — the wire unit: 4-byte magic `SWRP`, a version byte, a
//!   kind byte, a little-endian `u64` body length (checked against
//!   [`MAX_FRAME_BYTES`] *before* any allocation), then the body.
//!   Garbage magic, unknown versions, and absurd lengths are rejected
//!   as [`FrameError::Bad`] and the connection is closed — a malformed
//!   peer can never panic the process or pin a pool slot.
//! * [`RpcRequest`] / [`RpcResponse`] — the typed layer: `Ping`/`Pong`
//!   for failure-detector probes, `Schedule { origin, body }` carrying
//!   a canonical request JSON to the home shard, `Artifact` carrying
//!   the serialized schedule artifact back, `Error` for typed refusals.
//! * [`RpcClient`] — one per peer: a small idle-connection pool,
//!   connect/read/write deadlines, and bounded retries spaced by
//!   `sweep_faults::backoff::full_jitter` so retry storms against a
//!   recovering shard decorrelate deterministically.
//! * [`Listener`] — the one accept loop: a fixed worker pool fed until
//!   a shared [`StopFlag`] is set, with panics in `serve` caught so a
//!   worker never dies. `sweep-serve`'s HTTP server runs on it too.
//! * [`RpcServer`] — persistent framed connections on a [`Listener`];
//!   handler panics are caught and answered with a typed error, bad
//!   frames increment a counter and close the connection.
//!
//! Under the test-only `fault-inject` feature the client consults a
//! deterministic [`sweep_faults::FaultPlan`] before every send (link
//! partitions, per-attempt drops, delivery jitter), so degraded-mode
//! behaviour upstack is reproducible and certifiable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod client;
mod frame;
mod listener;
mod message;
mod server;

pub use client::{RpcClient, RpcClientConfig, RpcError};
pub use frame::{
    Frame, FrameError, KIND_ARTIFACT, KIND_ERROR, KIND_PING, KIND_PONG, KIND_SCHEDULE,
    MAX_FRAME_BYTES, VERSION,
};
pub use listener::{Listener, StopFlag};
pub use message::{RpcRequest, RpcResponse};
pub use server::{RpcCounters, RpcServer};
