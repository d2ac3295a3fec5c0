//! Property-style tests over the core invariants, run as deterministic
//! parameter sweeps (no external property-testing dependency): every
//! scheduler always emits feasible schedules, bounds always hold,
//! partitions stay balanced, cycle breaking always yields DAGs.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sweep_scheduling::dag::break_cycles;
use sweep_scheduling::prelude::*;

/// Deterministic case generator mirroring the old proptest strategy:
/// `(instance, m, seed)` tuples drawn from a seeded RNG.
fn instance_cases(count: usize) -> Vec<(SweepInstance, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    (0..count)
        .map(|_| {
            let n = rng.random_range(2..80usize);
            let k = rng.random_range(1..6usize);
            let depth = rng.random_range(2..10usize);
            let preds = rng.random_range(1..4usize);
            let seed = rng.random_range(0..1000u64);
            let m = rng.random_range(1..17usize);
            (
                SweepInstance::random_layered(n, k, depth, preds, seed),
                m,
                seed,
            )
        })
        .collect()
}

#[test]
fn all_schedulers_always_feasible() {
    for (inst, m, seed) in instance_cases(48) {
        let n = inst.num_cells();
        let schedules = [
            Algorithm::RandomDelay.run(&inst, Assignment::random_cells(n, m, seed), seed),
            Algorithm::RandomDelayPriorities.run(&inst, Assignment::random_cells(n, m, seed), seed),
            Algorithm::ImprovedRandomDelay.run(&inst, Assignment::random_cells(n, m, seed), seed),
            greedy_schedule(&inst, Assignment::random_cells(n, m, seed)),
            Algorithm::Dfds { delays: true }.run(&inst, Assignment::random_cells(n, m, seed), seed),
            Algorithm::DescendantPriority { delays: false }.run(
                &inst,
                Assignment::random_cells(n, m, seed),
                seed,
            ),
            Algorithm::LevelPriority { delays: true }.run(
                &inst,
                Assignment::random_cells(n, m, seed),
                seed,
            ),
        ];
        for s in &schedules {
            assert!(validate(&inst, s).is_ok(), "{} seed {seed}", inst.name());
        }
    }
}

#[test]
fn makespan_never_beats_lower_bounds() {
    for (inst, m, seed) in instance_cases(48) {
        let lb = lower_bounds(&inst, m);
        let s = Algorithm::RandomDelayPriorities.run(
            &inst,
            Assignment::random_cells(inst.num_cells(), m, seed),
            seed,
        );
        assert!(s.makespan() as u64 >= lb.best());
        assert!(lb.best() >= lb.paper());
    }
}

#[test]
fn single_processor_makespan_is_exactly_nk() {
    for (inst, _m, _seed) in instance_cases(24) {
        let s = greedy_schedule(&inst, Assignment::single(inst.num_cells()));
        assert_eq!(s.makespan() as usize, inst.num_tasks());
    }
}

#[test]
fn c1_zero_iff_single_processor() {
    for (inst, m, seed) in instance_cases(32) {
        let single = Assignment::single(inst.num_cells());
        assert_eq!(c1_interprocessor_edges(&inst, &single), 0);
        let multi = Assignment::random_cells(inst.num_cells(), m, seed);
        let c1 = c1_interprocessor_edges(&inst, &multi);
        assert!(c1 as usize <= inst.total_edges());
    }
}

#[test]
fn c2_never_exceeds_c1() {
    for (inst, m, seed) in instance_cases(32) {
        let a = Assignment::random_cells(inst.num_cells(), m, seed);
        let s = greedy_schedule(&inst, a.clone());
        assert!(c2_comm_delay(&inst, &s) <= c1_interprocessor_edges(&inst, &a));
    }
}

#[test]
fn priority_compaction_never_loses_feasibility_and_rarely_loses_quality() {
    // Algorithm 2 vs Algorithm 1 with identical randomness: compaction
    // fills idle slots, so it should essentially never be slower. We
    // assert a weak envelope (≤ 1.25x) rather than strict dominance,
    // which is not a theorem.
    for (inst, m, seed) in instance_cases(48) {
        let a = Assignment::random_cells(inst.num_cells(), m, seed);
        let delays = sweep_scheduling::core::random_delays(inst.num_directions(), seed);
        let s1 = sweep_scheduling::core::random_delay_with(&inst, a.clone(), &delays);
        let s2 = sweep_scheduling::core::random_delay_priorities_with(&inst, a, &delays);
        assert!(validate(&inst, &s2).is_ok());
        assert!(
            (s2.makespan() as f64) <= (s1.makespan() as f64) * 1.25 + 2.0,
            "compaction much worse: {} vs {}",
            s2.makespan(),
            s1.makespan()
        );
    }
}

#[test]
fn break_cycles_always_yields_dag() {
    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..40 {
        let n = rng.random_range(2..40usize);
        let ne = rng.random_range(0..160usize);
        let edges: Vec<(u32, u32)> = (0..ne)
            .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        let seed = rng.random_range(0..100u64);
        // Arbitrary but deterministic heights.
        let height: Vec<f64> = (0..n)
            .map(|v| ((v as u64 * 2654435761 + seed) % 1000) as f64)
            .collect();
        let (kept, dropped, _) = break_cycles(n, edges.clone(), &height);
        assert!(
            TaskDag::from_edges(n, &kept).is_acyclic(),
            "round {round}: cyclic after break_cycles"
        );
        assert!(kept.len() + dropped == edges.len());
    }
}

#[test]
fn partition_balance_and_cut_sanity() {
    // Grid graph partitioning: parts stay balanced, cut below the total
    // edge count.
    for (w, h, nparts) in [
        (2usize, 2usize, 2usize),
        (3, 5, 3),
        (4, 4, 2),
        (6, 7, 5),
        (8, 8, 4),
        (11, 9, 7),
        (10, 3, 6),
        (5, 11, 2),
    ] {
        let id = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let g = CsrGraph::from_edges(w * h, &edges);
        let nparts = nparts.min(w * h);
        let part = sweep_scheduling::partition::partition(&g, nparts, &PartitionOptions::default());
        assert_eq!(part.len(), w * h);
        assert!(part.iter().all(|&p| (p as usize) < nparts));
        let cut = sweep_scheduling::partition::edge_cut(&g, &part);
        assert!(cut <= edges.len() as u64);
        if w * h >= 4 * nparts {
            let imb = sweep_scheduling::partition::imbalance(&g, &part, nparts);
            assert!(imb <= 1.6, "{w}x{h}/{nparts}: imbalance {imb}");
        }
    }
}

#[test]
fn task_id_roundtrip() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..200 {
        let n = rng.random_range(1..100_000usize);
        let cell = rng.random_range(0..100_000u32) % n as u32;
        let dir = rng.random_range(0..512u32);
        let t = TaskId::pack(cell, dir, n);
        assert_eq!(t.unpack(n), (cell, dir));
    }
}

#[test]
fn random_delays_well_distributed() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..60 {
        let k = rng.random_range(1..64usize);
        let seed = rng.random_range(0..500u64);
        let d = sweep_scheduling::core::random_delays(k, seed);
        assert_eq!(d.len(), k);
        assert!(d.iter().all(|&x| (x as usize) < k));
    }
}

#[test]
fn mesh_generation_invariants() {
    for (n, seed) in [(2usize, 0u64), (2, 17), (3, 5), (3, 31), (4, 2), (4, 44)] {
        let cfg = GeneratorConfig::cube(n, seed);
        let mesh = sweep_scheduling::mesh::generate(&cfg).unwrap();
        // Face count identity: every tet has 4 faces.
        assert_eq!(
            2 * mesh.interior_faces().len() + mesh.boundary_faces().len(),
            4 * mesh.num_cells()
        );
        assert_eq!(mesh.connected_component_size(), mesh.num_cells());
        // All normals unit, all volumes positive.
        for f in mesh.interior_faces() {
            assert!((f.normal.norm() - 1.0).abs() < 1e-9);
        }
        assert!(mesh.volumes().iter().all(|&v| v > 0.0));
    }
}

#[test]
fn induced_dags_acyclic_for_random_directions() {
    for seed in [0u64, 7, 19, 23, 42, 49] {
        let mesh = TriMesh2d::unit_square(6, 6, 0.25, seed).unwrap();
        let quad = QuadratureSet::random_unit(6, seed).unwrap();
        let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, "prop");
        for d in inst.dags() {
            assert!(d.is_acyclic(), "seed {seed}");
        }
    }
}
