//! Best-of-`b` outputs of the fixed-priority families (Level, Descendant,
//! DFDS, Greedy) and their priority passes, pinned bit for bit. The
//! values were read off the per-trial-ranking code these families ran
//! on before they ranked once per call; a change to how they rank, or to
//! how the priority passes walk a DAG, must leave every one unmoved.

#![allow(clippy::unwrap_used)]

use sweep_core::{best_of_trials, descendant_priorities, dfds_priorities, Algorithm, Assignment};
use sweep_dag::{DescendantMode, SweepInstance};
use sweep_quadrature::QuadratureSet;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a<T: Copy>(words: &[T], bytes: impl Fn(T) -> Vec<u8>) -> u64 {
    let all = words.iter().flat_map(|&w| bytes(w));
    all.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_u32(words: &[u32]) -> u64 {
    fnv1a(words, |w| w.to_le_bytes().to_vec())
}

fn digest_i64(words: &[i64]) -> u64 {
    fnv1a(words, |w| w.to_le_bytes().to_vec())
}

fn tetonly_s4() -> SweepInstance {
    let mesh = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.05).unwrap();
    let quad = QuadratureSet::level_symmetric(4).unwrap();
    SweepInstance::from_mesh(&mesh, &quad, "tetonly").0
}

/// `warped.msh` × S4: cyclic as induced, acyclic after cycle breaking.
fn warped_s4() -> SweepInstance {
    let bytes = include_bytes!("../../../examples/meshes/warped.msh");
    let mesh = sweep_mesh::import_bytes(bytes, sweep_mesh::ImportFormat::Msh)
        .unwrap()
        .mesh;
    let quad = QuadratureSet::level_symmetric(4).unwrap();
    let (instance, stats) = SweepInstance::from_mesh(&mesh, &quad, "warped");
    assert!(
        stats.iter().any(|s| s.dropped_edges > 0),
        "warped.msh × S4 is cyclic"
    );
    instance
}

const FAMILIES: [Algorithm; 5] = [
    Algorithm::LevelPriority { delays: false },
    Algorithm::LevelPriority { delays: true },
    Algorithm::DescendantPriority { delays: true },
    Algorithm::Dfds { delays: true },
    Algorithm::Greedy,
];

/// `(winning trial, makespan, FNV-1a of the starts)` of best-of-4 for
/// every family, in `FAMILIES` order.
fn best_of_4(instance: &SweepInstance, m: usize) -> Vec<(usize, u32, u64)> {
    let a = Assignment::random_cells(instance.num_cells(), m, 1);
    let run = |&alg: &Algorithm| {
        let best = best_of_trials(instance, &a, alg, 4, 7);
        (
            best.trial,
            best.schedule.makespan(),
            digest_u32(best.schedule.starts()),
        )
    };
    FAMILIES.iter().map(run).collect()
}

#[test]
fn best_of_trials_outputs_are_pinned_on_tetonly() {
    let inst = tetonly_s4();
    // Descendant's path counts span ~5.4e9 values and rank by comparison
    // sort; Level (59), DFDS (120) and Greedy rank by counting sort, whose
    // budget is 2·n·k/m values: 4 725 at m = 16, 1 181 at m = 64.
    let want_16 = vec![
        (0, 2664, 0x3482_c43d_62d8_7f95),
        (0, 2664, 0xb2ca_7b94_c3b9_5b5d),
        (0, 2664, 0x738a_9a74_ea44_3166),
        (0, 2664, 0x9564_d75b_8b63_f6ff),
        (0, 2723, 0x3bbd_e1cd_c273_f423),
    ];
    let want_64 = vec![
        (0, 890, 0x7e31_0a76_6aef_7442),
        (1, 890, 0xfb33_2535_a5cf_2f30),
        (1, 888, 0x3059_3263_e5ec_e039),
        (1, 888, 0xa425_777a_4460_b829),
        (0, 927, 0x25c1_b720_cb88_8caf),
    ];
    assert_eq!(best_of_4(&inst, 16), want_16, "m = 16");
    assert_eq!(best_of_4(&inst, 64), want_64, "m = 64");
}

#[test]
fn best_of_trials_outputs_are_pinned_on_a_random_layered_instance() {
    let inst = SweepInstance::random_layered(300, 6, 12, 3, 5);
    let want = vec![
        (0, 96, 0xce52_8b53_7866_11dd),
        (0, 96, 0xe831_4958_6223_d235),
        (0, 97, 0x9101_1804_373b_7e89),
        (0, 96, 0x75d6_6734_b052_dace),
        (0, 105, 0xd763_163c_6c94_0252),
    ];
    assert_eq!(best_of_4(&inst, 40), want);
}

/// `(exact descendants, approximate descendants, DFDS)` digests.
fn priority_digests(instance: &SweepInstance, m: usize) -> [u64; 3] {
    let a = Assignment::random_cells(instance.num_cells(), m, 1);
    [
        digest_i64(&descendant_priorities(instance, DescendantMode::Exact)),
        digest_i64(&descendant_priorities(
            instance,
            DescendantMode::Approximate,
        )),
        digest_i64(&dfds_priorities(instance, &a)),
    ]
}

#[test]
fn priority_passes_are_pinned() {
    assert_eq!(
        priority_digests(&tetonly_s4(), 16),
        [
            0x9bf1_7226_6fc6_87f8,
            0x5cca_f3ae_654d_2499,
            0xb895_26fe_e42d_5d1a
        ],
        "tetonly"
    );
    assert_eq!(
        priority_digests(&warped_s4(), 4),
        [
            0x3412_87b4_dd12_eb25,
            0x5622_4002_34fd_4ca5,
            0x7ca1_6314_be93_fd7e
        ],
        "warped"
    );
}
