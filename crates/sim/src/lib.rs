//! # sweep-sim — execution simulators and the transport application
//!
//! The paper evaluates schedules by *simulation* (§5: "we will simulate
//! the sweeps, instead of actually running them on a distributed
//! machine"). Its step-synchronous measures — makespan, C1 and C2 — are
//! a schedule's `sweep_core::certify` certificate; this crate adds what
//! the certificate does not carry:
//!
//! * [`coloring`] — greedy message edge coloring (≤ 2Δ−1 rounds) and
//!   [`coloring_rounds`], a schedule's communication rounds when each
//!   step's messages are edge-colored, the distributed realisation of C2
//!   the paper cites;
//! * [`latency_makespan`] — an overlap-capable message-latency model
//!   sitting between the paper's two communication extremes;
//! * [`async_makespan`] / [`async_makespan_faulty`] — the event-driven
//!   distributed execution (local priority queues, message latency). One
//!   engine, in [`faulty`]: the latter runs it under a deterministic
//!   `sweep-faults` plan — lossy retried messaging, stragglers, link
//!   partitions, crash recovery by whole-cell reassignment — and the
//!   former is that call on the empty plan;
//! * [`weighted`] — non-uniform cell costs: weighted list scheduling
//!   (the same engine on the empty plan at latency 0), its independent
//!   validator, and weighted lower bounds;
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
pub mod transport;
pub mod weighted;

pub use async_exec::{
    async_makespan, async_makespan_traced, publish_trace, AsyncReport, AsyncTrace, TraceExec,
    TraceMessage,
};
pub use coloring::{color_edges, coloring_rounds, is_proper_coloring, max_degree};
pub use faulty::{
    async_makespan_faulty, degradation_csv, degradation_curve, publish_fault_report,
    DegradationPoint,
};
pub use latency::latency_makespan;
pub use transport::{Material, MaterialError, TransportResult, TransportSolver};
pub use weighted::{
    validate_weighted, weighted_list_schedule, weighted_lower_bound,
    weighted_random_delay_priorities, WeightedSchedule, WeightedViolation,
};
