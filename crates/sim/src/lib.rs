//! # sweep-sim — execution simulators and the transport application
//!
//! The paper evaluates schedules by *simulation* (§5: "we will simulate
//! the sweeps, instead of actually running them on a distributed
//! machine"); this crate provides that simulator and two extensions:
//!
//! * [`simulate`] — step-synchronous replay under explicit compute/comm
//!   cost models ([`CommModel::Ignore`], the paper's C2 measure
//!   [`CommModel::MaxSend`], and [`CommModel::EdgeColoring`] based on the
//!   distributed edge-coloring idea the paper cites);
//! * [`coloring`] — greedy message edge coloring (≤ 2Δ−1 rounds);
//! * [`latency_makespan`] — an overlap-capable message-latency model
//!   sitting between the paper's two communication extremes;
//! * [`async_makespan`] / [`async_makespan_faulty`] — the event-driven
//!   distributed execution (local priority queues, message latency). One
//!   engine, in [`faulty`]: the latter runs it under a deterministic
//!   `sweep-faults` plan — lossy retried messaging, stragglers, link
//!   partitions, crash recovery by whole-cell reassignment — and the
//!   former is that call on the empty plan;
//! * [`TransportSolver`] — a toy one-group S_n source-iteration solver,
//!   the application sweeps exist for, and the crate's only code that
//!   sweeps a mesh: [`TransportSolver::solve_scheduled`] runs its sweeps
//!   in a certified schedule's order on a `sweep-pool` pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod async_exec;
pub mod coloring;
pub mod faulty;
pub mod latency;
pub mod sync_sim;
pub mod transport;

pub use async_exec::{
    async_makespan, async_makespan_traced, publish_trace, AsyncReport, AsyncTrace, TraceExec,
    TraceMessage,
};
pub use coloring::{color_edges, is_proper_coloring, max_degree};
pub use faulty::{
    async_makespan_faulty, degradation_csv, degradation_curve, publish_fault_report,
    DegradationPoint,
};
pub use latency::{latency_makespan, LatencyReport};
pub use sync_sim::{simulate, CommModel, SimConfig, SimReport};
pub use transport::{Material, TransportResult, TransportSolver};
