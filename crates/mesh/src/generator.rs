//! Synthetic unstructured tetrahedral mesh generator.
//!
//! The paper evaluates on four proprietary LANL/Sandia tetrahedral meshes
//! which we cannot obtain; this module synthesizes unstructured stand-ins
//! (see DESIGN.md §5). The construction:
//!
//! 1. lay down a structured hexahedral scaffold over the requested domain,
//!    optionally *carving* hexes away with a shape predicate (e.g. the
//!    borehole of the `well_logging` mesh);
//! 2. jitter interior grid vertices by a fraction of the spacing so
//!    geometry — and hence face normals and sweep DAGs — is irregular;
//! 3. split every hex into 12 tetrahedra around its center vertex, choosing
//!    each quad face's diagonal through the face corner of minimum *random
//!    rank*. Because the rank is a property of the shared corners, the two
//!    hexes adjacent to a face pick the same diagonal and the mesh is
//!    conforming, while the diagonal pattern is spatially random;
//! 4. trim to an exact target cell count by keeping a breadth-first ball
//!    around the domain center, which preserves connectivity.
//!
//! The result has the properties the scheduling experiments stress: ≤4 face
//! neighbours per cell, irregular per-direction level widths, and DAG depth
//! `D = Θ(n^{1/3})`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use sweep_telemetry as telemetry;

use crate::geometry::{Point3, Vec3};
use crate::tet::{match_faces, measure_cells, MeshError, TetMesh, BOUNDARY};

/// Shape predicates used to carve hexes out of the scaffold.
#[derive(Debug, Clone)]
pub enum Carve {
    /// Keep everything (plain box domain).
    None,
    /// Remove hexes whose center lies within `radius` of the vertical axis
    /// through `(cx, cy)` — models the borehole of the `well_logging` mesh.
    CylinderHole {
        /// Axis x position.
        cx: f64,
        /// Axis y position.
        cy: f64,
        /// Hole radius.
        radius: f64,
    },
    /// Keep only hexes whose center lies inside the ellipsoid inscribed in
    /// the domain box (rounded domain).
    Ellipsoid,
}

impl Carve {
    fn keeps(&self, p: Point3, extent: Vec3) -> bool {
        match *self {
            Carve::None => true,
            Carve::CylinderHole { cx, cy, radius } => {
                let dx = p.x - cx;
                let dy = p.y - cy;
                dx * dx + dy * dy > radius * radius
            }
            Carve::Ellipsoid => {
                let u = (p.x - extent.x / 2.0) / (extent.x / 2.0);
                let v = (p.y - extent.y / 2.0) / (extent.y / 2.0);
                let w = (p.z - extent.z / 2.0) / (extent.z / 2.0);
                u * u + v * v + w * w <= 1.0
            }
        }
    }
}

/// Configuration for the synthetic mesh generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Hex count along x.
    pub nx: usize,
    /// Hex count along y.
    pub ny: usize,
    /// Hex count along z.
    pub nz: usize,
    /// Physical domain extent; spacing is `extent / n` per axis.
    pub extent: Vec3,
    /// Vertex jitter as a fraction of the local spacing, in `[0, 0.35)`.
    /// `0.0` yields a geometrically structured (but still randomly
    /// triangulated) mesh.
    pub jitter: f64,
    /// Carving predicate applied to hex centers.
    pub carve: Carve,
    /// RNG seed — the generator is fully deterministic given the config.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A unit-cube config with `n` hexes per side and default jitter.
    pub fn cube(n: usize, seed: u64) -> Self {
        GeneratorConfig {
            nx: n,
            ny: n,
            nz: n,
            extent: Vec3::new(1.0, 1.0, 1.0),
            jitter: 0.2,
            carve: Carve::None,
            seed,
        }
    }

    /// Number of tetrahedra the scaffold would produce before carving.
    pub fn max_cells(&self) -> usize {
        self.nx * self.ny * self.nz * 12
    }
}

/// Errors from the generator.
#[derive(Debug)]
pub enum GenerateError {
    /// Underlying mesh assembly failed (should not happen for valid configs).
    Mesh(MeshError),
    /// The carved scaffold has fewer cells than the requested target.
    TargetTooLarge {
        /// Cells available after carving.
        available: usize,
        /// Requested cell count.
        target: usize,
    },
    /// Degenerate configuration (zero hexes, excessive jitter, ...).
    BadConfig(String),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::Mesh(e) => write!(f, "mesh assembly failed: {e}"),
            GenerateError::TargetTooLarge { available, target } => {
                write!(
                    f,
                    "cannot trim to {target} cells, only {available} available"
                )
            }
            GenerateError::BadConfig(s) => write!(f, "bad generator config: {s}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<MeshError> for GenerateError {
    fn from(e: MeshError) -> Self {
        GenerateError::Mesh(e)
    }
}

/// Generates the full (untrimmed) synthetic mesh for `cfg`.
pub fn generate(cfg: &GeneratorConfig) -> Result<TetMesh, GenerateError> {
    let (vertices, cells) = scaffold(cfg)?;
    Ok(TetMesh::new(vertices, cells)?)
}

/// The raw connectivity of `cfg`'s scaffold: jittered corners and hex
/// centres, and the 12-tet split of every kept hex.
fn scaffold(cfg: &GeneratorConfig) -> Result<(Vec<Point3>, Vec<[u32; 4]>), GenerateError> {
    let _span = telemetry::span!("mesh.generate");
    let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(GenerateError::BadConfig(
            "hex counts must be positive".into(),
        ));
    }
    if !(0.0..0.35).contains(&cfg.jitter) {
        return Err(GenerateError::BadConfig(format!(
            "jitter {} outside [0, 0.35)",
            cfg.jitter
        )));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let h = Vec3::new(
        cfg.extent.x / nx as f64,
        cfg.extent.y / ny as f64,
        cfg.extent.z / nz as f64,
    );

    // Grid corner vertices, jittered in the interior.
    let corner_id = |i: usize, j: usize, k: usize| (i * (ny + 1) + j) * (nz + 1) + k;
    let ncorners = (nx + 1) * (ny + 1) * (nz + 1);
    let mut vertices: Vec<Point3> = Vec::with_capacity(ncorners);
    for i in 0..=nx {
        for j in 0..=ny {
            for k in 0..=nz {
                let mut p = Point3::new(i as f64 * h.x, j as f64 * h.y, k as f64 * h.z);
                if cfg.jitter > 0.0 {
                    if i > 0 && i < nx {
                        p.x += rng.random_range(-cfg.jitter..cfg.jitter) * h.x;
                    }
                    if j > 0 && j < ny {
                        p.y += rng.random_range(-cfg.jitter..cfg.jitter) * h.y;
                    }
                    if k > 0 && k < nz {
                        p.z += rng.random_range(-cfg.jitter..cfg.jitter) * h.z;
                    }
                }
                vertices.push(p);
            }
        }
    }

    // Random rank per corner: drives face-diagonal selection. A random
    // permutation guarantees distinct ranks, so the diagonal choice is
    // unambiguous and identical from both sides of a face.
    let mut rank: Vec<u32> = (0..ncorners as u32).collect();
    rank.shuffle(&mut rng);

    // 12-tet split of every kept hex.
    let mut cells: Vec<[u32; 4]> = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let center_geo = Point3::new(
                    (i as f64 + 0.5) * h.x,
                    (j as f64 + 0.5) * h.y,
                    (k as f64 + 0.5) * h.z,
                );
                if !cfg.carve.keeps(center_geo, cfg.extent) {
                    continue;
                }
                // The 8 corners, labelled cXYZ.
                let c = [
                    corner_id(i, j, k),             // c000
                    corner_id(i + 1, j, k),         // c100
                    corner_id(i, j + 1, k),         // c010
                    corner_id(i + 1, j + 1, k),     // c110
                    corner_id(i, j, k + 1),         // c001
                    corner_id(i + 1, j, k + 1),     // c101
                    corner_id(i, j + 1, k + 1),     // c011
                    corner_id(i + 1, j + 1, k + 1), // c111
                ];
                // Center vertex: mean of the (jittered) corners, so it stays
                // strictly inside the hex.
                let cp = c.iter().fold(Point3::ZERO, |sum, &v| sum + vertices[v]);
                let center = vertices.len() as u32;
                vertices.push(cp / 8.0);

                // Six quad faces in cyclic corner order (indices into `c`).
                const QUADS: [[usize; 4]; 6] = [
                    [0, 1, 3, 2], // z-
                    [4, 5, 7, 6], // z+
                    [0, 1, 5, 4], // y-
                    [2, 3, 7, 6], // y+
                    [0, 2, 6, 4], // x-
                    [1, 3, 7, 5], // x+
                ];
                for q in QUADS {
                    let mut vq = q.map(|l| c[l] as u32);
                    // Diagonal through the minimum-rank corner, rotated to
                    // position 0 or 2.
                    let min_pos = (0..4)
                        .min_by_key(|&p| rank[vq[p] as usize])
                        .expect("quad has 4 corners");
                    if min_pos % 2 == 1 {
                        vq.rotate_left(1);
                    }
                    cells.push([vq[0], vq[1], vq[2], center]);
                    cells.push([vq[0], vq[2], vq[3], center]);
                }
            }
        }
    }
    if cells.is_empty() {
        return Err(GenerateError::BadConfig("carve removed every hex".into()));
    }
    Ok((vertices, cells))
}

/// Builds `cfg`'s scaffold and keeps exactly `target` cells: the
/// breadth-first ball (over face adjacency) around the cell nearest the
/// barycenter of all centroids, chosen before anything is assembled.
/// Connected by construction whenever the scaffold's main component holds
/// at least `target` cells.
pub fn generate_with_target(
    cfg: &GeneratorConfig,
    target: usize,
) -> Result<TetMesh, GenerateError> {
    let (vertices, cells) = scaffold(cfg)?;
    let (centroids, volumes) = measure_cells(&vertices, &cells)?;
    let partners = match_faces(vertices.len(), &cells)?;
    let n = cells.len();
    if n == target {
        let full = TetMesh::assemble(vertices, cells, centroids, volumes, &partners);
        return Ok(full);
    }

    // Start BFS at the cell whose centroid is nearest the barycenter of all
    // centroids (robust against carved holes at the geometric center).
    let bary = centroids.iter().fold(Point3::ZERO, |sum, &c| sum + c) / n as f64;
    let start = (0..n)
        .min_by(|&a, &b| {
            let da = centroids[a].distance(bary);
            let db = centroids[b].distance(bary);
            da.partial_cmp(&db).expect("finite centroid distances")
        })
        .expect("non-empty mesh");

    let mut keep: Vec<u32> = Vec::with_capacity(target);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([start as u32]);
    seen[start] = true;
    while let Some(c) = queue.pop_front() {
        keep.push(c);
        if keep.len() == target {
            break;
        }
        // Slots ascending = neighbours ascending, as in `adjacency_csr`.
        let mut slots = [0, 1, 2, 3].map(|f| partners[4 * c as usize + f]);
        slots.sort_unstable();
        for nb in slots
            .into_iter()
            .take_while(|&p| p != BOUNDARY)
            .map(|p| p / 4)
        {
            if !seen[nb as usize] {
                seen[nb as usize] = true;
                queue.push_back(nb);
            }
        }
    }
    if keep.len() < target {
        // A scaffold smaller than `target` reports its own size.
        return Err(GenerateError::TargetTooLarge {
            available: if n < target { n } else { keep.len() },
            target,
        });
    }

    // Kept cells renumbered in ascending scaffold order, vertices in order of
    // first appearance; `u32::MAX` marks what was dropped. A face whose
    // partner was dropped becomes a boundary face.
    keep.sort_unstable();
    let mut new_cell = vec![u32::MAX; n];
    let mut new_vertex = vec![u32::MAX; vertices.len()];
    let mut kept_vertices = Vec::new();
    let mut kept_cells = Vec::with_capacity(target);
    for (i, &c) in keep.iter().enumerate() {
        new_cell[c as usize] = i as u32;
        kept_cells.push(cells[c as usize].map(|v| {
            if new_vertex[v as usize] == u32::MAX {
                new_vertex[v as usize] = kept_vertices.len() as u32;
                kept_vertices.push(vertices[v as usize]);
            }
            new_vertex[v as usize]
        }));
    }
    let partners: Vec<u32> = keep
        .iter()
        .flat_map(|&c| &partners[4 * c as usize..][..4])
        .map(|&p| match new_cell.get((p / 4) as usize) {
            Some(&b) if b != u32::MAX => 4 * b + p % 4,
            _ => BOUNDARY, // `BOUNDARY / 4` is past every cell
        })
        .collect();
    let pick = |c: &u32| (centroids[*c as usize], volumes[*c as usize]);
    let (centroids, volumes) = keep.iter().map(pick).unzip();
    let kept = TetMesh::assemble(kept_vertices, kept_cells, centroids, volumes, &partners);
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::SweepMesh;

    #[test]
    fn cube_generator_produces_expected_count() {
        let cfg = GeneratorConfig::cube(3, 42);
        let m = generate(&cfg).unwrap();
        assert_eq!(m.num_cells(), 3 * 3 * 3 * 12);
        assert_eq!(m.num_cells(), cfg.max_cells());
    }

    #[test]
    fn generated_mesh_is_connected_and_manifold() {
        let m = generate(&GeneratorConfig::cube(4, 7)).unwrap();
        assert_eq!(m.connected_component_size(), m.num_cells());
        // Every tet has exactly 4 faces; interior faces are counted once per
        // incident pair.
        let total_face_slots: usize = 2 * m.interior_faces().len() + m.boundary_faces().len();
        assert_eq!(total_face_slots, 4 * m.num_cells());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(&GeneratorConfig::cube(3, 99)).unwrap();
        let b = generate(&GeneratorConfig::cube(3, 99)).unwrap();
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(a.vertices().len(), b.vertices().len());
        for (va, vb) in a.vertices().iter().zip(b.vertices()) {
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::cube(3, 1)).unwrap();
        let b = generate(&GeneratorConfig::cube(3, 2)).unwrap();
        let same = a.vertices().iter().zip(b.vertices()).all(|(x, y)| x == y);
        assert!(!same, "jitter should depend on the seed");
    }

    #[test]
    fn trim_to_exact_target_preserves_connectivity() {
        let cfg = GeneratorConfig::cube(4, 5);
        let m = generate_with_target(&cfg, 500).unwrap();
        assert_eq!(m.num_cells(), 500);
        assert_eq!(m.connected_component_size(), 500);
    }

    #[test]
    fn trim_keeps_a_connected_subset_of_the_scaffold() {
        let cfg = GeneratorConfig::cube(3, 5);
        let full = generate(&cfg).unwrap();
        let corners = |m: &TetMesh, c: &[u32; 4]| {
            c.map(|v| {
                let p = m.vertices()[v as usize];
                [p.x, p.y, p.z].map(f64::to_bits)
            })
        };
        let scaffold: Vec<_> = full.cells().iter().map(|c| corners(&full, c)).collect();
        for target in [1, 2, 57, 300] {
            let m = generate_with_target(&cfg, target).unwrap();
            assert_eq!(m.num_cells(), target);
            assert_eq!(m.connected_component_size(), target);
            // Every kept cell is a scaffold cell, and no vertex is unused.
            assert!(m.cells().iter().all(|c| scaffold.contains(&corners(&m, c))));
            let mut used = vec![false; m.vertices().len()];
            m.cells()
                .iter()
                .flatten()
                .for_each(|&v| used[v as usize] = true);
            assert!(used.iter().all(|&u| u), "target {target}: unused vertex");
            let slots = 2 * m.interior_faces().len() + m.boundary_faces().len();
            assert_eq!(slots, 4 * target);
        }
        let one = generate_with_target(&cfg, 1).unwrap();
        assert_eq!(one.interior_faces().len(), 0);
        assert_eq!(one.boundary_faces().len(), 4);
        assert_eq!(one.vertices().len(), 4);
    }

    #[test]
    fn trim_target_equal_to_full_size_is_identity() {
        let cfg = GeneratorConfig::cube(2, 5);
        let m = generate_with_target(&cfg, 2 * 2 * 2 * 12).unwrap();
        assert_eq!(m.num_cells(), 96);
    }

    #[test]
    fn target_too_large_rejected() {
        let cfg = GeneratorConfig::cube(2, 5);
        let err = generate_with_target(&cfg, 10_000).unwrap_err();
        assert!(matches!(err, GenerateError::TargetTooLarge { .. }));
    }

    #[test]
    fn cylinder_carve_removes_cells() {
        let mut cfg = GeneratorConfig::cube(5, 11);
        cfg.carve = Carve::CylinderHole {
            cx: 0.5,
            cy: 0.5,
            radius: 0.25,
        };
        let carved = generate(&cfg).unwrap();
        let full = generate(&GeneratorConfig::cube(5, 11)).unwrap();
        assert!(carved.num_cells() < full.num_cells());
        assert!(carved.num_cells() > 0);
    }

    #[test]
    fn ellipsoid_carve_rounds_the_domain() {
        let mut cfg = GeneratorConfig::cube(6, 3);
        cfg.carve = Carve::Ellipsoid;
        let carved = generate(&cfg).unwrap();
        // The inscribed ball removes the corners: ~ (1 - pi/6) of the volume.
        let frac = carved.num_cells() as f64 / (6.0 * 6.0 * 6.0 * 12.0);
        assert!(frac < 0.75 && frac > 0.3, "kept fraction {frac}");
    }

    #[test]
    fn zero_jitter_allowed_excessive_rejected() {
        let mut cfg = GeneratorConfig::cube(2, 0);
        cfg.jitter = 0.0;
        assert!(generate(&cfg).is_ok());
        cfg.jitter = 0.5;
        assert!(matches!(generate(&cfg), Err(GenerateError::BadConfig(_))));
    }

    #[test]
    fn bad_dims_rejected() {
        let mut cfg = GeneratorConfig::cube(0, 0);
        cfg.nx = 0;
        assert!(matches!(generate(&cfg), Err(GenerateError::BadConfig(_))));
    }
}
