//! The mesh builders' output, pinned bit for bit: a 64-bit FNV-1a of
//! every preset mesh at three scales, of one untrimmed scaffold, of the
//! importers' meshes and reports, and of `TriMesh2d`. The tables were read
//! off the tree *before* the face grouping they cover was reworked and
//! never change: any rework of `TetMesh::new`, the generator, the `.msh` /
//! `.obj` assemblers or `TriMesh2d::new` must reproduce the same vertices,
//! cells, volumes, faces and diagnostics, in order.
//!
//! Preset boundary faces are hashed as a sorted multiset: before the first
//! rework their order within a cell came from a randomly seeded hash map.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

use sweep_scheduling::mesh::import::{import_bytes, ImportFormat, ImportReport};
use sweep_scheduling::mesh::{generate, CellId, Point3};
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

/// `[cells, interior faces, boundary faces]` and the FNV-1a of
/// `[centroids, interior faces in order, boundary faces in order, extra]`:
/// `extra` is the import report, or a `TriMesh2d`'s vertices and cells.
type FaceDigest = ([usize; 3], [u64; 4]);

fn face_digest(mesh: &impl SweepMesh, extra: Fnv) -> FaceDigest {
    let n = mesh.num_cells();
    let mut centroids = Fnv::new();
    (0..n as u32).for_each(|c| centroids.vec(mesh.centroid(CellId(c))));
    let mut interior = Fnv::new();
    for f in mesh.interior_faces() {
        interior.word(f.a.0 as u64);
        interior.word(f.b.0 as u64);
        interior.vec(f.normal);
        interior.word(f.area.to_bits());
    }
    let mut boundary = Fnv::new();
    for f in mesh.boundary_faces() {
        boundary.word(f.cell.0 as u64);
        boundary.vec(f.normal);
        boundary.word(f.area.to_bits());
    }
    (
        [n, mesh.interior_faces().len(), mesh.boundary_faces().len()],
        [centroids.0, interior.0, boundary.0, extra.0],
    )
}

/// Every field of an import report, lists length-prefixed.
fn report_hash(r: &ImportReport) -> Fnv {
    let mut h = Fnv::new();
    h.word(match r.format {
        Some(ImportFormat::Obj) => 1,
        Some(ImportFormat::Msh) => 2,
        _ => 0,
    });
    for n in [
        r.vertices,
        r.cells,
        r.interior_faces,
        r.boundary_faces,
        r.hanging_resolved,
        r.resolution_skipped as usize,
    ] {
        h.word(n as u64);
    }
    let lists =
        r.non_manifold
            .iter()
            .chain([&r.inverted_cells, &r.degenerate_cells, &r.hanging_vertices]);
    h.word(r.non_manifold.len() as u64);
    for list in lists {
        h.word(list.len() as u64);
        list.iter().for_each(|&v| h.word(v as u64));
    }
    h
}

fn imported(bytes: &[u8]) -> FaceDigest {
    let got = import_bytes(bytes, ImportFormat::Auto).expect("import");
    face_digest(&got.mesh, report_hash(&got.report))
}

fn tri_digest(mesh: &TriMesh2d) -> FaceDigest {
    let mut extra = Fnv::new();
    mesh.vertices().iter().for_each(|&v| extra.vec(v));
    for c in mesh.cells() {
        c.iter().for_each(|&v| extra.word(v as u64));
    }
    face_digest(mesh, extra)
}

/// One-block Gmsh v4.1 ASCII text of `vertices` and `tets` (tags 1-based).
fn msh_text(vertices: &[Point3], tets: &[[u32; 4]]) -> String {
    let (nv, nt) = (vertices.len(), tets.len());
    let mut s = String::from("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n");
    let _ = write!(s, "1 {nv} 1 {nv}\n3 1 0 {nv}\n");
    (1..=nv).for_each(|t| {
        let _ = writeln!(s, "{t}");
    });
    for p in vertices {
        let _ = writeln!(s, "{} {} {}", p.x, p.y, p.z);
    }
    let _ = write!(s, "$EndNodes\n$Elements\n1 {nt} 1 {nt}\n3 1 4 {nt}\n");
    for (i, t) in tets.iter().enumerate() {
        let [a, b, c, d] = t.map(|v| v + 1);
        let _ = writeln!(s, "{} {a} {b} {c} {d}", i + 1);
    }
    s.push_str("$EndElements\n");
    s
}

/// Wavefront text of `vertices` and `tris` (indices 1-based).
fn obj_text(vertices: &[Point3], tris: &[[u32; 3]]) -> String {
    let mut s = String::new();
    for p in vertices {
        let _ = writeln!(s, "v {} {} {}", p.x, p.y, p.z);
    }
    for t in tris {
        let [a, b, c] = t.map(|v| v + 1);
        let _ = writeln!(s, "f {a} {b} {c}");
    }
    s
}

/// Two fans of three triangles each, on edges (0, 1) and (5, 6); the
/// second fan's triangles come first.
fn two_fan_obj() -> String {
    let fan = |dx: f64| {
        [
            Point3::new(dx, 0.0, 0.0),
            Point3::new(dx + 1.0, 0.0, 0.0),
            Point3::new(dx + 0.5, 1.0, 0.0),
            Point3::new(dx + 0.5, -1.0, 0.0),
            Point3::new(dx + 0.5, 0.0, 1.0),
        ]
    };
    let vertices: Vec<Point3> = fan(0.0).into_iter().chain(fan(5.0)).collect();
    let tris = [
        [5, 6, 7],
        [5, 6, 8],
        [5, 6, 9],
        [0, 1, 2],
        [0, 1, 3],
        [0, 1, 4],
    ];
    obj_text(&vertices, &tris)
}

/// Three tets sharing the triangle (0, 1, 2), plus a fourth glued to the
/// first one's top face.
fn fan_msh() -> String {
    let vertices = [
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(1.0, 0.0, 0.0),
        Point3::new(0.0, 1.0, 0.0),
        Point3::new(0.3, 0.3, 1.0),
        Point3::new(0.3, 0.3, -1.0),
        Point3::new(0.9, 0.9, 1.0),
        Point3::new(0.8, 0.8, 1.5),
    ];
    let tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5], [1, 2, 3, 6]];
    msh_text(&vertices, &tets)
}

fn example(name: &str) -> Vec<u8> {
    let path = format!("{}/examples/meshes/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn face_mismatch(what: &str, got: FaceDigest, want: FaceDigest) -> Option<String> {
    (got != want).then(|| {
        let h = got.1.map(|w| format!("{w:#018x}")).join(", ");
        format!("{what}: got ({:?}, [{h}])", got.0)
    })
}

/// The inputs [`IMPORTS`] pins, in order.
fn import_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let tets = MeshPreset::Tetonly.build_scaled(0.05).expect("mesh");
    let tris = TriMesh2d::unit_square(6, 5, 0.2, 3).expect("mesh");
    vec![
        ("cube.msh", example("cube.msh")),
        ("plate.obj", example("plate.obj")),
        ("warped.msh", example("warped.msh")),
        (
            "tetonly 0.05 as .msh",
            msh_text(tets.vertices(), tets.cells()).into_bytes(),
        ),
        (
            "unit_square(6, 5) as .obj",
            obj_text(tris.vertices(), tris.cells()).into_bytes(),
        ),
        ("two non-manifold edges", two_fan_obj().into_bytes()),
        ("a non-manifold fan", fan_msh().into_bytes()),
    ]
}

const IMPORTS: [FaceDigest; 7] = [
    (
        [6, 6, 12],
        [
            0x0ea6_32c8_d3fb_81d5,
            0x48c2_d206_c0ce_0185,
            0x258d_f1cb_7006_e925,
            0x5f3a_5613_3d59_0983,
        ],
    ),
    (
        [8, 8, 8],
        [
            0xfa38_9fc7_1d9e_2131,
            0x8c79_5556_c307_bcaa,
            0x8fe3_b63a_b6fb_ded1,
            0x40e9_8119_6d9a_97e5,
        ],
    ),
    (
        [148, 198, 198],
        [
            0x6e99_65ec_2c44_8a48,
            0xd453_888d_4d5b_0532,
            0xbca2_9cfd_3c52_1a77,
            0xa2ba_2db8_cce8_5f93,
        ],
    ),
    (
        [1575, 2897, 506],
        [
            0x4d36_fe91_38de_3f2e,
            0x0cd6_1c98_0267_c402,
            0x22ac_9d95_216f_86a5,
            0x1549_122a_e898_4b85,
        ],
    ),
    (
        [60, 79, 22],
        [
            0x6b2e_ee3b_bbb2_0485,
            0x44d6_b61e_5d9e_6209,
            0x1ba2_cca5_c3ef_bf0b,
            0x9cb9_ac81_8581_e92b,
        ],
    ),
    (
        [6, 0, 18],
        [
            0x2da0_b62a_5259_ebfa,
            0xcbf2_9ce4_8422_2325,
            0x1c04_11ed_816d_cb6c,
            0xa3e3_7190_9aef_a599,
        ],
    ),
    (
        [4, 2, 12],
        [
            0x4e4e_5567_af22_c031,
            0xb5d9_08b5_4c72_2b63,
            0xa5f6_07f5_70f9_8a3e,
            0x112a_f773_a1a6_c40e,
        ],
    ),
];

#[test]
fn imported_meshes_and_reports_are_bit_identical() {
    let bad: Vec<String> = import_inputs()
        .into_iter()
        .zip(IMPORTS)
        .filter_map(|((what, bytes), want)| face_mismatch(what, imported(&bytes), want))
        .collect();
    assert!(bad.is_empty(), "\n{}", bad.join("\n"));
}

/// `TriMesh2d::unit_square(nx, ny, jitter, seed)` arguments.
const SQUARES: [(usize, usize, f64, u64); 3] = [(4, 3, 0.2, 1), (12, 9, 0.25, 7), (40, 30, 0.2, 5)];

const TRIS: [FaceDigest; 3] = [
    (
        [24, 29, 14],
        [
            0x8168_9ea2_420c_a247,
            0xea05_bd66_8e7d_f072,
            0x11d2_e296_3372_9619,
            0xcc62_816a_9529_2b2d,
        ],
    ),
    (
        [216, 303, 42],
        [
            0x3101_dd6e_40c1_de5e,
            0x5778_6dc3_d881_7e74,
            0x2906_0920_da91_66cb,
            0x9796_d5c2_3fc7_e250,
        ],
    ),
    (
        [2400, 3530, 140],
        [
            0x2f36_146b_3a7d_01e8,
            0xa081_8532_e803_08af,
            0x5c2e_f8b5_1f6a_e79e,
            0xc2b0_1094_6a27_3264,
        ],
    ),
];

#[test]
fn triangle_meshes_are_bit_identical() {
    let bad: Vec<String> = SQUARES
        .into_iter()
        .zip(TRIS)
        .filter_map(|((nx, ny, jitter, seed), want)| {
            let mesh = TriMesh2d::unit_square(nx, ny, jitter, seed).expect("mesh");
            face_mismatch(&format!("unit_square({nx}, {ny})"), tri_digest(&mesh), want)
        })
        .collect();
    assert!(bad.is_empty(), "\n{}", bad.join("\n"));
}
