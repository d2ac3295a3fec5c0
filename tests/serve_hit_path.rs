//! Structural tests of the tier-2 hit path, socket-free: a hit is a
//! lookup. The artifact's summary (lower bounds, C1, C2) is computed
//! once per distinct content, and a hit whose instance has left tier 1
//! induces nothing. Asserted on counters and span counts, never on a
//! stopwatch.

#![allow(clippy::unwrap_used)]

use std::sync::Mutex;

use sweep_serve::{ScheduleRequest, ScheduleResponse, ServiceConfig, SweepService};
use sweep_telemetry as telemetry;

/// The counters and spans read here are process-global, so the tests of
/// this file take turns.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// The rendered body minus its two cache-disposition lines — the part
/// that must not depend on how the request was served.
fn stripped(resp: &ScheduleResponse) -> String {
    resp.render_json()
        .lines()
        .filter(|l| !l.contains("\"cache\"") && !l.contains("\"instance_cache\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn induce_spans() -> usize {
    telemetry::snapshot()
        .span_summaries()
        .iter()
        .find(|s| s.name == "serve.induce")
        .map_or(0, |s| s.count)
}

#[test]
fn twenty_hits_summarize_once_and_render_the_same_body() {
    let _turn = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    let svc = SweepService::new(ServiceConfig::default());
    let req = ScheduleRequest::preset("tetonly", 0.01, 2, 4);

    let before = telemetry::counter_value("serve.summarize");
    let miss = svc.schedule(&req).unwrap();
    assert!(!miss.cache_hit && !miss.instance_cache_hit);
    assert!(miss.makespan as u64 >= miss.lower_bound && miss.lower_bound > 0);
    for _ in 0..20 {
        let hit = svc.schedule(&req).unwrap();
        assert!(hit.cache_hit && hit.instance_cache_hit);
        assert_eq!(stripped(&hit), stripped(&miss));
    }
    assert_eq!(telemetry::counter_value("serve.summarize") - before, 1);
}

#[test]
fn a_hit_whose_instance_was_evicted_induces_nothing() {
    let _turn = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    let a = ScheduleRequest::preset("tetonly", 0.01, 2, 4);
    let b = ScheduleRequest::preset("tetonly", 0.012, 2, 4);

    // A per-tier budget of exactly A's instance: B's instance pushes
    // A's out of tier 1, while tier 2 (schedules are an order of
    // magnitude smaller) keeps both artifacts.
    let probe = SweepService::new(ServiceConfig::default());
    probe.schedule(&a).unwrap();
    let svc = SweepService::new(ServiceConfig {
        cache_bytes: probe.cache().tier_stats().0.bytes,
        ..ServiceConfig::default()
    });

    let first = svc.schedule(&a).unwrap();
    svc.schedule(&b).unwrap();
    let (t1, t2) = svc.cache().tier_stats();
    assert_eq!((t1.entries, t2.entries), (1, 2));
    assert_eq!(svc.cache().stats().evictions, 1);

    let (misses, induced, summarized) = (
        svc.cache().stats().misses,
        induce_spans(),
        telemetry::counter_value("serve.summarize"),
    );
    let third = svc.schedule(&a).unwrap();
    assert!(third.cache_hit);
    assert!(!third.instance_cache_hit);
    assert_eq!(svc.cache().stats().misses, misses);
    assert_eq!(induce_spans(), induced);
    assert_eq!(telemetry::counter_value("serve.summarize"), summarized);
    assert_eq!(svc.cache().tier_stats().0.entries, 1);
    assert_eq!(stripped(&third), stripped(&first));
}

#[test]
fn one_topological_walk_per_induced_dag_and_none_afterwards() {
    let _turn = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    let svc = SweepService::new(ServiceConfig::default());
    let walks = || telemetry::counter_value("dag.levels.computed");

    // Cold: S4 induces 24 DAGs, each peeled once by its constructor.
    let before = walks();
    let cold = svc
        .schedule(&ScheduleRequest::preset("tetonly", 0.01, 4, 4))
        .unwrap();
    assert!(!cold.cache_hit && !cold.instance_cache_hit);
    assert_eq!(walks() - before, 24);

    // Same mesh, new schedule content (tier-1 hit, tier-2 miss): the
    // trial context, the trials, the winner's re-run, `lower_bounds` and
    // every priority family read the stored levels.
    let before = walks();
    for (algorithm, delays, seed, m) in [
        ("rdp", false, 7, 4),
        ("rdp", false, 2005, 6),
        ("rd", false, 2005, 4),
        ("dfds", true, 2005, 4),
        ("level", false, 2005, 4),
        ("level", true, 2005, 4),
        ("improved", false, 2005, 4),
    ] {
        let req = ScheduleRequest {
            algorithm: algorithm.to_string(),
            delays,
            seed,
            m,
            b: 4,
            ..ScheduleRequest::preset("tetonly", 0.01, 4, 4)
        };
        let resp = svc.schedule(&req).unwrap();
        assert!(!resp.cache_hit && resp.instance_cache_hit, "{algorithm}");
        assert_eq!(walks() - before, 0, "{algorithm} walked a DAG again");
    }
}
