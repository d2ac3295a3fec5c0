//! The mesh generator's output, pinned bit for bit: a 64-bit FNV-1a of
//! every preset mesh at three scales and of one untrimmed scaffold. The
//! table was read off the tree *before* the mesh build was reworked and
//! never changes: any rework of `TetMesh::new` or the generator must
//! reproduce the same vertices, cells, volumes and faces, in order.
//!
//! Boundary faces are hashed as a sorted multiset: before the rework their
//! order within a cell came from a randomly seeded hash map.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use sweep_scheduling::mesh::generate;
use sweep_scheduling::prelude::*;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn vec(&mut self, v: Vec3) {
        self.word(v.x.to_bits());
        self.word(v.y.to_bits());
        self.word(v.z.to_bits());
    }
}

/// `[vertices, cells, interior faces, boundary faces]` and the FNV-1a of
/// `[vertices + cells + volumes, interior faces, boundary multiset]`.
type Digest = ([usize; 4], [u64; 3]);

fn digest(mesh: &TetMesh) -> Digest {
    let mut geo = Fnv::new();
    for &v in mesh.vertices() {
        geo.vec(v);
    }
    for c in mesh.cells() {
        c.iter().for_each(|&v| geo.word(v as u64));
    }
    for vol in mesh.volumes() {
        geo.word(vol.to_bits());
    }
    let mut interior = Fnv::new();
    for f in mesh.interior_faces() {
        interior.word(f.a.0 as u64);
        interior.word(f.b.0 as u64);
        interior.vec(f.normal);
        interior.word(f.area.to_bits());
    }
    let mut faces: Vec<[u64; 5]> = mesh
        .boundary_faces()
        .iter()
        .map(|f| {
            let n = f.normal;
            [
                f.cell.0 as u64,
                n.x.to_bits(),
                n.y.to_bits(),
                n.z.to_bits(),
                f.area.to_bits(),
            ]
        })
        .collect();
    faces.sort_unstable();
    let mut boundary = Fnv::new();
    faces.iter().flatten().for_each(|&w| boundary.word(w));
    (
        [
            mesh.vertices().len(),
            mesh.num_cells(),
            mesh.interior_faces().len(),
            mesh.boundary_faces().len(),
        ],
        [geo.0, interior.0, boundary.0],
    )
}

const SCALES: [f64; 3] = [0.01, 0.05, 0.125];

/// One row per preset (in `MeshPreset::ALL` order), one digest per scale.
const PRESETS: [[Digest; 3]; 4] = [
    // tetonly
    [
        (
            [111, 315, 536, 188],
            [
                0x92e9_1453_d8d2_bcd4,
                0x168f_90a4_66e3_f516,
                0x5a31_d68e_5266_36ea,
            ],
        ),
        (
            [410, 1575, 2892, 516],
            [
                0x8b75_bb89_84df_3343,
                0x4935_d2a3_dd09_e769,
                0xfbca_b35a_9b83_9e37,
            ],
        ),
        (
            [916, 3936, 7403, 938],
            [
                0xdcf1_1ed1_2fbf_2183,
                0x7096_80c1_b8cc_5f70,
                0xaf64_387f_9e1a_4312,
            ],
        ),
    ],
    // well_logging
    [
        (
            [142, 431, 752, 220],
            [
                0xab5d_3732_91da_0f5b,
                0xedf4_49b9_7499_d0db,
                0xcfe6_6357_7197_e498,
            ],
        ),
        (
            [546, 2151, 3972, 660],
            [
                0xc849_626e_625d_ed7a,
                0x6abe_25d6_aeed_58d6,
                0xf85f_d33c_8e02_0c88,
            ],
        ),
        (
            [1211, 5377, 10191, 1126],
            [
                0x8e4a_4ccf_cd50_92ac,
                0x108e_efba_27c8_a44e,
                0x8667_7e23_c645_6535,
            ],
        ),
    ],
    // long
    [
        (
            [174, 618, 1125, 222],
            [
                0xaae1_6e32_7a2e_e917,
                0xb016_003b_30dd_055d,
                0x3972_1ad3_ad43_6edd,
            ],
        ),
        (
            [697, 3087, 5853, 642],
            [
                0xd8b9_5cad_20e4_182e,
                0xd463_9fa7_7974_0d6d,
                0x1697_41c2_2d66_bef9,
            ],
        ),
        (
            [1612, 7718, 14847, 1178],
            [
                0xf839_4d30_3093_d265,
                0x01dd_d593_3fb7_d65a,
                0xa041_996b_94dc_b3ed,
            ],
        ),
    ],
    // prismtet
    [
        (
            [313, 1183, 2169, 394],
            [
                0xf384_7186_59cd_40f7,
                0x94e8_8d60_bf2f_9b89,
                0xe9ac_7e92_7918_6b63,
            ],
        ),
        (
            [1325, 5911, 11195, 1254],
            [
                0x1430_f3e2_7ce8_171b,
                0x53e1_c445_5cde_d7d4,
                0xe4b4_7932_7a37_9652,
            ],
        ),
        (
            [3029, 14777, 28479, 2150],
            [
                0x8b2c_0d0b_ad60_e8d7,
                0x8ea7_7d30_2bd8_6c89,
                0xc391_a6b7_0c80_f00f,
            ],
        ),
    ],
];

/// `generate(&GeneratorConfig::cube(4, 7))`, untrimmed.
const CUBE: Digest = (
    [189, 768, 1440, 192],
    [
        0x1d28_1b6a_c01a_1704,
        0x75d0_f905_0028_9dae,
        0x9545_834b_86ed_1482,
    ],
);

/// `None` when `got == want`, otherwise a line naming the mesh and `got`.
fn mismatch(what: &str, got: Digest, want: Digest) -> Option<String> {
    (got != want).then(|| {
        format!(
            "{what}: got ({:?}, [{:#018x}, {:#018x}, {:#018x}])",
            got.0, got.1[0], got.1[1], got.1[2]
        )
    })
}

#[test]
fn preset_meshes_are_bit_identical() {
    let mut bad = Vec::new();
    for (preset, row) in MeshPreset::ALL.into_iter().zip(PRESETS) {
        for (scale, want) in SCALES.into_iter().zip(row) {
            let mesh = preset.build_scaled(scale).expect("mesh");
            bad.extend(mismatch(
                &format!("{} {scale}", preset.name()),
                digest(&mesh),
                want,
            ));
        }
    }
    assert!(bad.is_empty(), "\n{}", bad.join("\n"));
}

#[test]
fn untrimmed_scaffold_is_bit_identical() {
    let mesh = generate(&GeneratorConfig::cube(4, 7)).expect("mesh");
    let bad = mismatch("cube(4, 7)", digest(&mesh), CUBE);
    assert!(bad.is_none(), "{}", bad.unwrap_or_default());
}
