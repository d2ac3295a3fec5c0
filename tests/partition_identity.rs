//! The partitioner's output, pinned bit for bit: a 64-bit FNV-1a of the
//! part vector (and the edge cut) of 22 partitions, each at pool widths
//! 1, 2 and 4. The table was read off the tree *before* the partitioner's
//! data structures were touched and never changes: any rework of
//! `sweep-partition` must reproduce the same blocks, not merely blocks as
//! good, and the worker count must not show in them.

// Integration tests assert via unwrap/expect by design.
#![allow(clippy::unwrap_used)]

use std::sync::Mutex;

use sweep_scheduling::partition::{edge_cut, partition};
use sweep_scheduling::prelude::*;

/// Runs `check` at every pool width, one test at a time: the width is
/// process-global.
fn at_every_width(check: impl Fn(usize)) {
    static WIDTH: Mutex<()> = Mutex::new(());
    let _one_at_a_time = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 4] {
        set_global_threads(threads);
        check(threads);
    }
    set_global_threads(0);
}

fn fnv1a(part: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in part.iter().flat_map(|p| p.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const BLOCKS: [usize; 4] = [4, 16, 64, 256];

/// (preset, scale, cells, [(fnv1a, edge cut); one per block size]).
type MeshRow = (MeshPreset, f64, usize, [(u64, u64); 4]);

const MESHES: [MeshRow; 4] = [
    (
        MeshPreset::Tetonly,
        0.125,
        3936,
        [
            (0x717c_27f5_ff89_5d5a, 3631),
            (0xc48c_ce9f_b1d5_7ea7, 2001),
            (0xbbb7_0cda_5597_8730, 1222),
            (0x2439_22a5_ae43_9edd, 674),
        ],
    ),
    (
        MeshPreset::Tetonly,
        0.05,
        1575,
        [
            (0x7f0c_2225_cd6c_3dcb, 1387),
            (0x9186_f20d_c04a_eb81, 752),
            (0x0a2d_d4a0_114d_5351, 432),
            (0xe20b_b88f_899c_00b3, 218),
        ],
    ),
    (
        MeshPreset::WellLogging,
        0.05,
        2151,
        [
            (0x543b_9abc_ef67_5e9f, 1909),
            (0x7527_5754_e586_7f82, 984),
            (0xf54d_9d56_0689_689f, 517),
            (0x7e76_55c5_00f7_d916, 237),
        ],
    ),
    (
        MeshPreset::Tetonly,
        0.02,
        630,
        [
            (0x7830_e85e_e8a8_52b5, 533),
            (0x5532_98a1_18bc_673a, 272),
            (0x0ac8_d101_51f6_4c8c, 168),
            (0x2d4e_8164_1444_94d6, 66),
        ],
    ),
];

/// Tetonly 0.02 in blocks of 2, the block-size ablation's effective
/// block: the one row where some subset has no more vertices than parts.
const TETONLY_002_BLOCK_2: (u64, u64) = (0x21ab_d78d_9331_8167, 724);

#[test]
fn mesh_blocks_are_bit_identical() {
    let mut rows = Vec::new();
    for (preset, scale, cells, expect) in MESHES {
        let mesh = preset.build_scaled(scale).expect("mesh");
        assert_eq!(mesh.num_cells(), cells, "{preset:?} at {scale}");
        let (xadj, adjncy) = mesh.adjacency_csr();
        let graph = CsrGraph::from_csr_parts(xadj, adjncy);
        let mut blocks: Vec<(usize, (u64, u64))> = BLOCKS.into_iter().zip(expect).collect();
        if (preset, scale) == (MeshPreset::Tetonly, 0.02) {
            blocks.push((2, TETONLY_002_BLOCK_2));
        }
        rows.push((preset, scale, graph, blocks));
    }
    at_every_width(|threads| {
        for (preset, scale, graph, blocks) in &rows {
            for &(block, (hash, cut)) in blocks {
                let part = block_partition(graph, block, &PartitionOptions::default());
                let got = (fnv1a(&part), edge_cut(graph, &part));
                assert_eq!(
                    got,
                    (hash, cut),
                    "{preset:?} {scale} b={block} width {threads}: got ({:#018x}, {})",
                    got.0,
                    got.1
                );
            }
        }
    });
}

/// A `w × h` grid with `vwgt[v] = 1 + 7v mod 5`.
fn weighted_grid(w: usize, h: usize) -> CsrGraph {
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
    let mut g = CsrGraph::from_edges(w * h, &edges);
    for (v, wgt) in g.vwgt.iter_mut().enumerate() {
        *wgt = 1 + (7 * v as u32) % 5;
    }
    g
}

#[test]
fn weighted_grid_parts_are_bit_identical() {
    // (w, h, nparts, fnv1a, edge cut)
    let rows: [(usize, usize, usize, u64, u64); 3] = [
        (16, 16, 7, 0x0b29_9237_e34a_7391, 64),
        (30, 17, 13, 0xb151_854b_b4eb_d730, 124),
        (5, 5, 3, 0xbe07_afce_a035_2165, 8),
    ];
    at_every_width(|threads| {
        for (w, h, nparts, hash, cut) in rows {
            let g = weighted_grid(w, h);
            let part = partition(&g, nparts, &PartitionOptions::default());
            let got = (fnv1a(&part), edge_cut(&g, &part));
            assert_eq!(
                got,
                (hash, cut),
                "{w}x{h} / {nparts} width {threads}: got ({:#018x}, {})",
                got.0,
                got.1
            );
        }
    });
}

/// A `w × h` grid whose `e`-th edge weighs `1 + 7919·e mod 4096`: at the
/// fine level the weighted degrees run to ~16 000, so gains reach far past
/// any bounded window of gain buckets.
fn edge_weighted_grid(w: usize, h: usize) -> CsrGraph {
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
    let weighted: Vec<(u32, u32, u32)> = edges
        .iter()
        .enumerate()
        .map(|(e, &(a, b))| (a, b, 1 + (7919 * e as u32) % 4096))
        .collect();
    CsrGraph::from_weighted_edges(w * h, &weighted)
}

#[test]
fn edge_weighted_grid_parts_are_bit_identical() {
    // (w, h, nparts, fnv1a, edge cut)
    let rows: [(usize, usize, usize, u64, u64); 2] = [
        (30, 17, 13, 0x5788_32d6_157d_7280, 192_333),
        (64, 40, 40, 0x8ba6_cf69_ef15_b25d, 866_900),
    ];
    at_every_width(|threads| {
        for (w, h, nparts, hash, cut) in rows {
            let g = edge_weighted_grid(w, h);
            let part = partition(&g, nparts, &PartitionOptions::default());
            let got = (fnv1a(&part), edge_cut(&g, &part));
            assert_eq!(
                got,
                (hash, cut),
                "{w}x{h} / {nparts} width {threads}: got ({:#018x}, {})",
                got.0,
                got.1
            );
        }
    });
}
