//! KBA-style columnar assignment — the classical algorithm for *regular*
//! meshes (Koch–Baker–Alcouffe, the paper's reference \[6\]).
//!
//! KBA decomposes a structured grid into vertical columns, assigns each
//! column of cells to one processor arranged in a 2-D processor grid, and
//! pipelines the sweep as a wavefront: with level priorities the sweep
//! front marches diagonally and every processor stays busy once the
//! pipeline fills. The paper cites KBA as "essentially optimal" on
//! regular meshes — this module lets the repository check that statement
//! against the random-delay algorithms (see the `kba_regular` bench) and
//! provides the natural baseline a transport practitioner would ask for.
//!
//! The synthetic mesh generator emits cells in hex-major order (12 tets
//! per hex, hexes ordered x-major, then y, then z), so on *uncarved*
//! meshes `hex = cell / 12` and the column coordinates recover directly;
//! [`kba_assignment`] encapsulates that arithmetic.

use sweep_telemetry as telemetry;

use crate::assignment::Assignment;

/// Chooses a processor-grid factorization `px × py = m` with `px` as
/// close to `√m` as possible.
pub fn processor_grid(m: usize) -> (usize, usize) {
    assert!(m > 0);
    let mut best = (1usize, m);
    let mut px = 1usize;
    while px * px <= m {
        if m.is_multiple_of(px) {
            best = (px, m / px);
        }
        px += 1;
    }
    best
}

/// KBA assignment for a structured scaffold of `nx × ny × nz` hexes with
/// 12 tetrahedra per hex (the uncarved output of
/// `sweep_mesh::generate`). Cells of the grid column `(i, j)` — all `z`
/// — map to one processor of the `px × py` grid.
///
/// ```
/// use sweep_core::kba_assignment;
///
/// let a = kba_assignment(4, 4, 4, 4 * 4 * 4 * 12, 16);
/// // All 12 tets of hex 0 — and the whole z-column above it — share
/// // processor 0.
/// assert!((0..12).all(|t| a.proc_of(t) == 0));
/// ```
///
/// # Panics
/// Panics when `num_cells != nx·ny·nz·12` (the mesh was carved or
/// trimmed, so the hex arithmetic no longer applies) or `m == 0`.
pub fn kba_assignment(nx: usize, ny: usize, nz: usize, num_cells: usize, m: usize) -> Assignment {
    let _span = telemetry::span!("sched.kba.assignment");
    assert!(m > 0, "need at least one processor");
    assert_eq!(
        num_cells,
        nx * ny * nz * 12,
        "KBA needs the full structured scaffold (no carving/trimming)"
    );
    let (px, py) = processor_grid(m);
    let proc_of_cell: Vec<u32> = (0..num_cells)
        .map(|cell| {
            let hex = cell / 12;
            // Generator hex order: i outer, then j, then k (z fastest).
            let i = hex / (ny * nz);
            let j = (hex / nz) % ny;
            let pi = i * px / nx;
            let pj = j * py / ny;
            (pi * py + pj) as u32
        })
        .collect();
    Assignment::from_vec(proc_of_cell, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::metrics::c1_interprocessor_edges;
    use crate::schedule::validate;
    use sweep_dag::SweepInstance;
    use sweep_mesh::{generate, GeneratorConfig};
    use sweep_quadrature::QuadratureSet;

    #[test]
    fn processor_grid_factors() {
        assert_eq!(processor_grid(16), (4, 4));
        assert_eq!(processor_grid(12), (3, 4));
        assert_eq!(processor_grid(7), (1, 7));
        assert_eq!(processor_grid(1), (1, 1));
        for m in 1..60usize {
            let (a, b) = processor_grid(m);
            assert_eq!(a * b, m);
            assert!(a <= b);
        }
    }

    fn structured(n: usize) -> (sweep_mesh::TetMesh, GeneratorConfig) {
        let mut cfg = GeneratorConfig::cube(n, 3);
        cfg.jitter = 0.0; // regular mesh: KBA's home turf
        (generate(&cfg).unwrap(), cfg)
    }

    #[test]
    fn kba_assignment_is_columnar() {
        let (mesh, cfg) = structured(4);
        use sweep_mesh::SweepMesh;
        let a = kba_assignment(cfg.nx, cfg.ny, cfg.nz, mesh.num_cells(), 4);
        // All 12 tets of a hex share a processor, and the whole z-column of
        // hexes above a given (i, j) shares it too.
        for hex in 0..(4 * 4 * 4) {
            let p0 = a.proc_of((hex * 12) as u32);
            for t in 0..12 {
                assert_eq!(a.proc_of((hex * 12 + t) as u32), p0);
            }
        }
        for i in 0..4usize {
            for j in 0..4usize {
                let col0 = (i * 16 + j * 4) * 12;
                let p = a.proc_of(col0 as u32);
                for k in 0..4usize {
                    let cell = ((i * 4 + j) * 4 + k) * 12;
                    assert_eq!(a.proc_of(cell as u32), p, "column ({i},{j}) split");
                }
            }
        }
    }

    #[test]
    fn kba_beats_random_on_communication() {
        let (mesh, cfg) = structured(6);
        use sweep_mesh::SweepMesh;
        let quad = QuadratureSet::level_symmetric(2).unwrap();
        let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, "kba");
        let m = 9;
        let kba = kba_assignment(cfg.nx, cfg.ny, cfg.nz, mesh.num_cells(), m);
        let rnd = Assignment::random_cells(mesh.num_cells(), m, 1);
        let c1_kba = c1_interprocessor_edges(&inst, &kba);
        let c1_rnd = c1_interprocessor_edges(&inst, &rnd);
        assert!(
            c1_kba * 3 < c1_rnd,
            "KBA columns should slash C1: {c1_kba} vs {c1_rnd}"
        );
    }

    #[test]
    fn kba_pipeline_is_competitive_on_regular_meshes() {
        let (mesh, cfg) = structured(6);
        use sweep_mesh::SweepMesh;
        let quad = QuadratureSet::level_symmetric(2).unwrap();
        let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, "kba");
        let m = 9;
        let kba = kba_assignment(cfg.nx, cfg.ny, cfg.nz, mesh.num_cells(), m);
        let s = Algorithm::LevelPriority { delays: false }.run(&inst, kba, 0);
        validate(&inst, &s).unwrap();
        let lb = crate::bounds::lower_bounds(&inst, m).best();
        assert!(
            (s.makespan() as u64) < 3 * lb,
            "KBA wavefront should be near-optimal on a regular mesh: {} vs lb {}",
            s.makespan(),
            lb
        );
    }

    #[test]
    #[should_panic(expected = "full structured scaffold")]
    fn carved_mesh_rejected() {
        kba_assignment(4, 4, 4, 100, 4);
    }
}
