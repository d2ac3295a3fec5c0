//! Model-check bodies for the single-flight protocol (compiled only
//! under the `model-check` feature; run by `sweep check` and the
//! model-check test suite).
//!
//! These run the *production* [`SingleFlight`](crate::cache) code —
//! claim/lead/wait/publish, including the leader-panic drop guard —
//! under `sweep-check`'s controllable scheduler. A clean, complete
//! exploration here is what stands between the cache's condvar
//! protocol and the SW026/SW027 failure modes the fixtures
//! demonstrate.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use crate::cache::{Claim, SingleFlight};

/// One request against the flight table: lead (computing `41` and
/// tallying on the out-of-model `computations` counter) or wait.
fn serve(
    flights: &SingleFlight<u32>,
    computations: &std::sync::atomic::AtomicUsize,
) -> Result<u32, String> {
    match flights.claim(9, 0) {
        Claim::Leader(f) => flights.lead(9, &f, || {
            computations.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(41)
        }),
        Claim::Follower(f) => flights.wait(&f),
    }
}

/// Two identical requests race on a cold key: under every
/// interleaving both get the right answer, nobody wedges, and the
/// computation runs once when the requests overlap (twice only when
/// the first flight fully completed before the second claim — correct
/// single-flight semantics, which coalesces *concurrent* requests).
pub fn single_flight_coalesce() {
    let flights = Arc::new(SingleFlight::<u32>::new());
    let computations = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let (f2, c2) = (Arc::clone(&flights), Arc::clone(&computations));
    let t = sweep_check::thread::spawn(move || serve(&f2, &c2));
    let mine = serve(&flights, &computations);
    let theirs = t
        .join()
        .unwrap_or_else(|_| Err("request thread panicked".to_string()));
    assert_eq!(mine, Ok(41), "single-flight model: wrong value for main");
    assert_eq!(theirs, Ok(41), "single-flight model: wrong value for peer");
    let n = computations.load(std::sync::atomic::Ordering::SeqCst);
    assert!(
        (1..=2).contains(&n),
        "single-flight model: {n} computations for 2 requests"
    );
}

/// The leader *panics* mid-computation: the drop guard must publish an
/// error and clear the flight during the unwind, so a concurrent
/// follower unblocks with `Err` (never wedges), and a late claimer
/// becomes a fresh leader. This drives the exact unwind path the
/// SW027 diagnostic certifies.
pub fn single_flight_leader_panic() {
    let flights = Arc::new(SingleFlight::<u32>::new());
    // Claim before spawning the peer, so this thread is the leader
    // deterministically and the peer's role is the explored variable.
    let Claim::Leader(flight) = flights.claim(7, 0) else {
        unreachable!("first claim on a cold key must lead")
    };
    let f2 = Arc::clone(&flights);
    let peer = sweep_check::thread::spawn(move || match f2.claim(7, 0) {
        Claim::Follower(f) => {
            let r = f2.wait(&f);
            assert!(
                r.is_err(),
                "single-flight model: follower of a panicked leader got {r:?}"
            );
        }
        Claim::Leader(f) => {
            // The panicked flight was already cleared: this thread
            // leads a fresh one and must be able to complete it.
            let r = f2.lead(7, &f, || Ok(1));
            assert_eq!(r, Ok(1));
        }
    });
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        flights.lead(7, &flight, || panic!("leader exploded"))
    }));
    assert!(
        caught.is_err(),
        "leader's panic must propagate to its caller"
    );
    let _ = peer.join();
}

/// Two requests with *different* tier-2 keys over the *same* tier-1
/// key: each leads its own schedule flight and, inside that leader
/// closure, claims the shared instance flight — the nesting
/// `SweepService::artifact_with` has since a tier-2 hit stopped
/// consulting tier 1. A tier-1 leader never waits on tier 2, so no
/// interleaving may cycle or wedge; both get their schedule, and the
/// instance is induced once when the two overlap.
pub fn single_flight_nested_tiers() {
    fn request(
        schedules: &SingleFlight<u32>,
        instances: &SingleFlight<u32>,
        inductions: &std::sync::atomic::AtomicUsize,
        key: u64,
    ) -> Result<u32, String> {
        let Claim::Leader(flight) = schedules.claim(key, 0) else {
            unreachable!("distinct tier-2 keys never coalesce")
        };
        schedules.lead(key, &flight, || {
            let inst = serve(instances, inductions)?;
            Ok(inst + key as u32)
        })
    }
    let schedules = Arc::new(SingleFlight::<u32>::new());
    let instances = Arc::new(SingleFlight::<u32>::new());
    let inductions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let (s2, i2, n2) = (
        Arc::clone(&schedules),
        Arc::clone(&instances),
        Arc::clone(&inductions),
    );
    let t = sweep_check::thread::spawn(move || request(&s2, &i2, &n2, 2));
    let mine = request(&schedules, &instances, &inductions, 1);
    let theirs = t
        .join()
        .unwrap_or_else(|_| Err("request thread panicked".to_string()));
    assert_eq!(mine, Ok(42), "nested-tier model: wrong value for main");
    assert_eq!(theirs, Ok(43), "nested-tier model: wrong value for peer");
    let n = inductions.load(std::sync::atomic::Ordering::SeqCst);
    assert!(
        (1..=2).contains(&n),
        "nested-tier model: {n} inductions for 2 requests"
    );
}

#[cfg(test)]
mod tests {
    /// The production single-flight comes back clean and *complete*
    /// under exhaustive exploration (plus a few random schedules).
    #[test]
    fn single_flight_models_explore_clean_and_complete() {
        let cfg = sweep_check::Config {
            max_executions: 50_000,
            random_schedules: 16,
            ..sweep_check::Config::default()
        };
        let scenarios: [(&str, fn()); 3] = [
            (
                "serve.single-flight.coalesce",
                super::single_flight_coalesce,
            ),
            (
                "serve.single-flight.leader-panic",
                super::single_flight_leader_panic,
            ),
            (
                "serve.single-flight.nested-tiers",
                super::single_flight_nested_tiers,
            ),
        ];
        for (name, body) in scenarios {
            let report = sweep_check::explore(name, &cfg, body);
            assert!(report.finding.is_none(), "{name}: {:?}", report.finding);
            assert!(report.lock_cycles.is_empty(), "{name} cycled");
            assert!(report.complete, "{name} did not exhaust: {report:?}");
        }
    }
}
