//! Property-style tests for the extension modules, run as deterministic
//! parameter sweeps: weighted scheduling, the latency/async execution
//! models, the exact optimizer, edge coloring, KBA, and schedule
//! serialization.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sweep_scheduling::core::{
    delayed_level_priorities, from_csv, optimal_makespan_fixed_assignment, optimal_sweep_makespan,
    random_delays, to_csv,
};
use sweep_scheduling::prelude::*;
use sweep_scheduling::sim::{
    async_makespan, async_makespan_traced, color_edges, is_proper_coloring, max_degree,
    weighted_list_schedule, AsyncTrace,
};

/// Deterministic `(instance, m, seed)` cases mirroring the old proptest
/// `small_instance()` strategy.
fn small_cases(count: usize) -> Vec<(SweepInstance, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(0xeeee_0001);
    (0..count)
        .map(|_| {
            let n = rng.random_range(2..40usize);
            let k = rng.random_range(1..4usize);
            let depth = rng.random_range(2..6usize);
            let seed = rng.random_range(0..500u64);
            let m = rng.random_range(1..8usize);
            (SweepInstance::random_layered(n, k, depth, 2, seed), m, seed)
        })
        .collect()
}

#[test]
fn weighted_schedules_always_feasible_and_bounded() {
    let mut rng = StdRng::seed_from_u64(3);
    for (inst, m, seed) in small_cases(40) {
        let wmax = rng.random_range(2..12u64);
        let n = inst.num_cells();
        let weights: Vec<u64> = (0..n as u64).map(|v| 1 + (v * 7 + seed) % wmax).collect();
        let a = Assignment::random_cells(n, m, seed);
        let s = weighted_random_delay_priorities(&inst, a, &weights, seed);
        assert!(validate_weighted(&inst, &s, &weights).is_ok());
        let lb = weighted_lower_bound(&inst, &weights, m);
        assert!(s.makespan >= lb);
        // Work-conserving upper bound: total work.
        let total: u64 = weights.iter().sum::<u64>() * inst.num_directions() as u64;
        assert!(s.makespan <= total);
    }
}

#[test]
fn weighted_single_proc_exact() {
    for (inst, _m, _seed) in small_cases(20) {
        let n = inst.num_cells();
        let weights: Vec<u64> = (0..n as u64).map(|v| 1 + v % 5).collect();
        let prio = vec![0i64; inst.num_tasks()];
        let s = weighted_list_schedule(&inst, Assignment::single(n), &weights, &prio);
        let total: u64 = weights.iter().sum::<u64>() * inst.num_directions() as u64;
        assert_eq!(s.makespan, total);
    }
}

#[test]
fn async_zero_latency_bounded_by_serial() {
    for (inst, m, seed) in small_cases(40) {
        let n = inst.num_cells();
        let a = Assignment::random_cells(n, m, seed);
        let d = random_delays(inst.num_directions(), seed);
        let prio = delayed_level_priorities(&inst, &d);
        let r = async_makespan(&inst, &a, &prio, None, 0.0);
        assert!(r.makespan <= inst.num_tasks() as f64 + 1e-9);
        assert!(r.makespan >= (inst.num_tasks() as f64 / m as f64).floor());
        assert_eq!(r.messages, c1_interprocessor_edges(&inst, &a));
    }
}

/// Latency cannot collapse the makespan below half its zero-latency
/// value. (Strict monotonicity is *not* a theorem — greedy dispatch has
/// Graham-style anomalies where extra delay reorders work beneficially —
/// but the list-scheduling 2-approximation gives
/// `r0 ≤ 2·OPT_0 ≤ 2·OPT_lat ≤ 2·r_lat`.)
#[test]
fn async_latency_never_halves_makespan() {
    let mut rng = StdRng::seed_from_u64(8);
    for (inst, m, seed) in small_cases(40) {
        let lat: f64 = rng.random_range(0.0..8.0);
        let n = inst.num_cells();
        let a = Assignment::random_cells(n, m, seed);
        let prio = vec![0i64; inst.num_tasks()];
        let r0 = async_makespan(&inst, &a, &prio, None, 0.0);
        let r1 = async_makespan(&inst, &a, &prio, None, lat);
        assert!(2.0 * r1.makespan + 1e-9 >= r0.makespan);
    }
}

#[test]
fn schedule_csv_round_trips() {
    for (inst, m, seed) in small_cases(30) {
        let a = Assignment::random_cells(inst.num_cells(), m, seed);
        let s = Algorithm::RandomDelayPriorities.run(&inst, a, seed);
        let text = to_csv(&inst, &s);
        let back = from_csv(&text, inst.num_cells(), inst.num_directions()).unwrap();
        assert_eq!(back.starts(), s.starts());
        assert!(validate(&inst, &back).is_ok());
    }
}

#[test]
fn coloring_always_proper_and_bounded() {
    let mut rng = StdRng::seed_from_u64(40);
    for _ in 0..40 {
        let m = rng.random_range(2..12usize);
        let ne = rng.random_range(0..80usize);
        let edges: Vec<(u32, u32)> = (0..ne)
            .map(|_| (rng.random_range(0..m as u32), rng.random_range(0..m as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        let (colors, nc) = color_edges(m, &edges);
        assert!(is_proper_coloring(m, &edges, &colors));
        let delta = max_degree(m, &edges);
        if delta > 0 {
            assert!(nc < 2 * delta);
            assert!(nc >= delta);
        } else {
            assert_eq!(nc, 0);
        }
    }
}

/// OPT is sandwiched between every lower bound and every feasible
/// schedule, and the fixed-assignment optimum dominates the free one.
#[test]
fn exact_optimum_sandwich() {
    let mut rng = StdRng::seed_from_u64(60);
    for _ in 0..12 {
        let n = rng.random_range(2..7usize);
        let k = rng.random_range(1..3usize);
        let m = rng.random_range(1..4usize);
        let seed = rng.random_range(0..60u64);
        let inst = SweepInstance::random_layered(n, k, 2, 2, seed);
        let opt = optimal_sweep_makespan(&inst, m);
        let lb = lower_bounds(&inst, m).best() as u32;
        assert!(opt >= lb);
        let a = Assignment::random_cells(n, m, seed);
        let fixed = optimal_makespan_fixed_assignment(&inst, &a);
        assert!(fixed >= opt, "free optimum beats fixed");
        let s = greedy_schedule(&inst, a);
        assert!(s.makespan() >= fixed, "greedy beats its own fixed optimum");
    }
}

#[test]
fn kba_assignment_matches_manual_grid_math() {
    use sweep_scheduling::mesh::{generate, Carve};
    let mut cfg = GeneratorConfig::cube(3, 1);
    cfg.jitter = 0.0;
    cfg.carve = Carve::None;
    let mesh = generate(&cfg).unwrap();
    let a = kba_assignment(3, 3, 3, mesh.num_cells(), 9);
    // 3x3 processor grid over 3x3 columns: column (i, j) -> proc i*3+j.
    for i in 0..3usize {
        for j in 0..3usize {
            for kz in 0..3usize {
                let hex = (i * 3 + j) * 3 + kz;
                assert_eq!(a.proc_of((hex * 12) as u32), (i * 3 + j) as u32);
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`, in order.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        x.to_le_bytes()
            .into_iter()
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// FNV-1a over every field of the trace, in trace order.
fn trace_fnv(trace: &AsyncTrace) -> u64 {
    let execs = trace
        .execs
        .iter()
        .flat_map(|e| [e.task, e.proc as u64, e.start.to_bits(), e.finish.to_bits()]);
    let messages = trace.messages.iter().flat_map(|m| {
        [m.from_task, m.from_proc as u64, m.send.to_bits()]
            .into_iter()
            .chain([m.to_task, m.to_proc as u64, m.arrive.to_bits()])
    });
    fnv1a(execs.chain(messages))
}

/// `(makespan, messages, execs.len(), messages.len(), trace_fnv)` of the
/// fault-free event loop this table outlived, captured from it row by
/// row before `async_makespan` became the empty `FaultPlan`: tetonly /
/// long / prismtet (scale 0.01, S2, m = 8) × seeds 1–3 × latency
/// {0, 0.5, 1.5} × {unit, weighted}, innermost last.
const ASYNC_PINNED: [(f64, u64, usize, usize, u64); 54] = [
    (381.0, 3752, 2520, 3752, 0x3b9b60f77c1478f5),
    (1194.0, 3752, 2520, 3752, 0x0939e3d13c0cec5c),
    (383.0, 3752, 2520, 3752, 0x9f84a017014e3a84),
    (1195.0, 3752, 2520, 3752, 0xd2d357d37f9dd33d),
    (387.5, 3752, 2520, 3752, 0x8a525e9d5ed3e76f),
    (1197.5, 3752, 2520, 3752, 0xa53f2e70381d83e7),
    (387.0, 3720, 2520, 3720, 0xe637aa2fb487bb81),
    (1180.0, 3720, 2520, 3720, 0x61b16985f5abfb63),
    (388.0, 3720, 2520, 3720, 0xf90f269cf6e5f790),
    (1180.5, 3720, 2520, 3720, 0x9286aa8fa76d5b64),
    (390.5, 3720, 2520, 3720, 0x3a5e3cb9a9fa56b7),
    (1182.0, 3720, 2520, 3720, 0xeebbcbcdd8de22c5),
    (420.0, 3784, 2520, 3784, 0xdc73fb415efa7895),
    (1124.0, 3784, 2520, 3784, 0xc96f3ff20d851b42),
    (420.5, 3784, 2520, 3784, 0x31d05f37ad8f9c3c),
    (1125.0, 3784, 2520, 3784, 0xc3dc68f2ead6b0f2),
    (423.5, 3784, 2520, 3784, 0x9b6fdd6ea78b98c8),
    (1127.5, 3784, 2520, 3784, 0xf88fd51dc6f963e2),
    (762.0, 7952, 4944, 7952, 0xc17480ba041cc536),
    (2196.0, 7952, 4944, 7952, 0xeaca300cf5d4543e),
    (763.0, 7952, 4944, 7952, 0xe04812fc2f7da3b8),
    (2197.5, 7952, 4944, 7952, 0x5a776d2ca83ee110),
    (768.0, 7952, 4944, 7952, 0x380d493f2ced7139),
    (2195.5, 7952, 4944, 7952, 0x6a6145cdeeda106f),
    (704.0, 7824, 4944, 7824, 0xd1d1f40f81af1a89),
    (2098.0, 7824, 4944, 7824, 0x06abb4d1dabce468),
    (705.5, 7824, 4944, 7824, 0x52e9fc4fb7ec7b40),
    (2099.0, 7824, 4944, 7824, 0x5da56ea90a8d6823),
    (708.5, 7824, 4944, 7824, 0xffbcc6330f9dc4ca),
    (2102.0, 7824, 4944, 7824, 0xac19bd2f3f67e396),
    (666.0, 7928, 4944, 7928, 0x037907212867f247),
    (2207.0, 7928, 4944, 7928, 0x2cd4aec65ba965cd),
    (668.0, 7928, 4944, 7928, 0xe1a02722a6d3967a),
    (2209.0, 7928, 4944, 7928, 0x1b14c05527ed997a),
    (672.0, 7928, 4944, 7928, 0xee20e2dfbc4bb670),
    (2213.0, 7928, 4944, 7928, 0x8b5237c197c92b87),
    (1289.0, 15328, 9464, 15328, 0x72d734ee6a93066c),
    (3739.0, 15328, 9464, 15328, 0x6e06935d1afdb7ee),
    (1291.0, 15328, 9464, 15328, 0x3bcafb332b0f201d),
    (3743.5, 15328, 9464, 15328, 0xb8597f9331144278),
    (1297.0, 15328, 9464, 15328, 0xc410f51eb773b110),
    (3748.5, 15328, 9464, 15328, 0xa94967fdcdf4c730),
    (1364.0, 14984, 9464, 14984, 0xa29afe41fbae9775),
    (4068.0, 14984, 9464, 14984, 0xaba27aa728563eba),
    (1365.0, 14984, 9464, 14984, 0x32563f8b36aadbb7),
    (4069.0, 14984, 9464, 14984, 0xab372af1e1db7675),
    (1367.0, 14984, 9464, 14984, 0x0338a0c3584c449a),
    (4071.0, 14984, 9464, 14984, 0x4e723cba4f22eb09),
    (1298.0, 15160, 9464, 15160, 0xf6c99ce3b82596f9),
    (4138.0, 15160, 9464, 15160, 0x93d9d5486bc367f0),
    (1299.0, 15160, 9464, 15160, 0x70ec4daaf2a8613f),
    (4140.5, 15160, 9464, 15160, 0x82c1b9a9aeb0fa3a),
    (1303.5, 15160, 9464, 15160, 0x81d0d33c93d3e4a2),
    (4145.5, 15160, 9464, 15160, 0x84f6cc597a72ace3),
];

#[test]
fn async_execution_reproduces_the_pinned_table() {
    let mut pinned = ASYNC_PINNED.iter();
    for preset in [MeshPreset::Tetonly, MeshPreset::Long, MeshPreset::Prismtet] {
        let mesh = preset.build_scaled(0.01).unwrap();
        let quad = QuadratureSet::level_symmetric(2).unwrap();
        let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, preset.name());
        let n = inst.num_cells();
        let weights: Vec<u64> = (0..n as u64).map(|v| 1 + v % 5).collect();
        for seed in [1u64, 2, 3] {
            let a = Assignment::random_cells(n, 8, seed);
            let delays = random_delays(inst.num_directions(), seed ^ 0x9E37);
            let prio = delayed_level_priorities(&inst, &delays);
            for latency in [0.0, 0.5, 1.5] {
                for w in [None, Some(&weights[..])] {
                    let (r, tr) = async_makespan_traced(&inst, &a, &prio, w, latency);
                    let got = (
                        r.makespan,
                        r.messages,
                        tr.execs.len(),
                        tr.messages.len(),
                        trace_fnv(&tr),
                    );
                    let weighted = w.is_some();
                    let case = format!("{preset:?} seed {seed} latency {latency} {weighted}");
                    assert_eq!(Some(&got), pinned.next(), "{case}");
                }
            }
        }
    }
    assert!(pinned.next().is_none());
}

/// `(makespan, FNV-1a of the start vector)` of weighted Algorithm 2,
/// read off the weighted scheduler before it ran on the event engine:
/// tetonly 0.02 × S2 with weights `1 + (13v + s) mod 32`, random cells
/// (seed `s`) and delay seed `s ^ 9`, m ∈ {8, 32, 128} × s ∈ 0..4 (s
/// innermost), then three `random_layered` instances.
const WEIGHTED_PINNED: [(u64, u64); 15] = [
    (12986, 0xaa887c9bfe4bc599),
    (13257, 0x7693cb6ffe72c872),
    (12416, 0x82369fe1535374e2),
    (11960, 0x5096680903a9452d),
    (4227, 0xa54084e13d4d9695),
    (3743, 0xd1326d8712ff9cea),
    (4493, 0x7bb71b3d04231b40),
    (4703, 0x2acb95a1cb8f7281),
    (1719, 0x2ea967cd08c5d1e2),
    (1770, 0x28f178c211cdaf0c),
    (1783, 0xc9f038af2f9c1a6d),
    (1878, 0x5f4037761440e314),
    (1058, 0xee964631be069621),
    (2155, 0x0560895f9f6444ed),
    (1281, 0xbbd8ca903b319557),
];

#[test]
fn weighted_schedules_are_pinned() {
    let weights_for =
        |n: usize, s: u64| -> Vec<u64> { (0..n as u64).map(|v| 1 + (v * 13 + s) % 32).collect() };
    let mut got = Vec::new();
    let mesh = MeshPreset::Tetonly.build_scaled(0.02).unwrap();
    let quad = QuadratureSet::level_symmetric(2).unwrap();
    let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, "tetonly");
    let n = inst.num_cells();
    for m in [8usize, 32, 128] {
        for s in 0..4u64 {
            let w = weights_for(n, s);
            let a = Assignment::random_cells(n, m, s);
            let sched = weighted_random_delay_priorities(&inst, a, &w, s ^ 9);
            got.push((sched.makespan, fnv1a(sched.start.iter().copied())));
        }
    }
    for (n, k, depth, m, s) in [(60, 3, 6, 4, 1u64), (150, 5, 12, 8, 2), (209, 6, 9, 32, 3)] {
        let inst = SweepInstance::random_layered(n, k, depth, 2, s);
        let w = weights_for(n, s);
        let a = Assignment::random_cells(n, m, s);
        let sched = weighted_random_delay_priorities(&inst, a, &w, s ^ 9);
        got.push((sched.makespan, fnv1a(sched.start.iter().copied())));
    }
    assert_eq!(got, WEIGHTED_PINNED);
}
