//! Unstructured tetrahedral mesh representation.
//!
//! Built from raw `(vertices, cells)` connectivity; face adjacency, outward
//! normals, and centroids are derived here. This mirrors the inputs the paper
//! uses (unstructured tetrahedral meshes from LANL transport codes), which we
//! synthesize in [`crate::generator`].

use crate::face::{group_incidences, BoundaryFace, CellId, InteriorFace, SweepMesh};
use crate::geometry::{tet_centroid, tet_signed_volume, triangle_area_normal, Point3, Vec3};

/// Errors raised while assembling a [`TetMesh`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// A cell references a vertex index `>= vertices.len()`.
    VertexOutOfRange {
        /// Offending cell.
        cell: u32,
        /// Out-of-range vertex index.
        vertex: u32,
    },
    /// A cell has (numerically) zero volume, so no outward normals exist.
    DegenerateCell {
        /// Offending cell.
        cell: u32,
    },
    /// More than two cells share one triangular face — broken connectivity.
    NonManifoldFace {
        /// The cells incident to the face.
        cells: Vec<u32>,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::VertexOutOfRange { cell, vertex } => {
                write!(f, "cell {cell} references out-of-range vertex {vertex}")
            }
            MeshError::DegenerateCell { cell } => write!(f, "cell {cell} has zero volume"),
            MeshError::NonManifoldFace { cells } => {
                write!(f, "face shared by more than two cells: {cells:?}")
            }
        }
    }
}

impl std::error::Error for MeshError {}

/// An unstructured conforming tetrahedral mesh.
#[derive(Debug, Clone)]
pub struct TetMesh {
    vertices: Vec<Point3>,
    cells: Vec<[u32; 4]>,
    centroids: Vec<Point3>,
    volumes: Vec<f64>,
    interior: Vec<InteriorFace>,
    boundary: Vec<BoundaryFace>,
}

/// The four triangular faces of tet `(v0,v1,v2,v3)`, each listed with the
/// index of the opposite vertex.
pub(crate) const TET_FACES: [([usize; 3], usize); 4] = [
    ([1, 2, 3], 0),
    ([0, 2, 3], 1),
    ([0, 1, 3], 2),
    ([0, 1, 2], 3),
];

impl TetMesh {
    /// Assembles a mesh from raw connectivity. Derives centroids, volumes,
    /// and face adjacency with outward unit normals.
    pub fn new(vertices: Vec<Point3>, cells: Vec<[u32; 4]>) -> Result<TetMesh, MeshError> {
        let (centroids, volumes) = measure_cells(&vertices, &cells)?;
        let partners = match_faces(vertices.len(), &cells)?;
        let mesh = TetMesh::assemble(vertices, cells, centroids, volumes, &partners);
        Ok(mesh)
    }

    /// Derives the faces from measured connectivity and its [`match_faces`]
    /// partners: interior faces in `(a, b)` order (each cell's larger
    /// neighbours sorted), boundary faces in `(cell, local face)` order.
    pub(crate) fn assemble(
        vertices: Vec<Point3>,
        cells: Vec<[u32; 4]>,
        centroids: Vec<Point3>,
        volumes: Vec<f64>,
        partners: &[u32],
    ) -> TetMesh {
        let mut interior = Vec::with_capacity(2 * cells.len());
        let mut boundary = Vec::new();
        for (a, (c, slots)) in cells.iter().zip(partners.chunks_exact(4)).enumerate() {
            let (a, from) = (a as u32, interior.len());
            for (f, &p) in slots.iter().enumerate() {
                if p != BOUNDARY && p / 4 < a {
                    continue; // listed with the smaller cell
                }
                // Out of cell a: into cell b, on an interior face.
                let (normal, area) = face_normal(&vertices, c, f);
                if p == BOUNDARY {
                    boundary.push(BoundaryFace {
                        cell: CellId(a),
                        normal,
                        area,
                    });
                } else {
                    interior.push(InteriorFace {
                        a: CellId(a),
                        b: CellId(p / 4),
                        normal,
                        area,
                    });
                }
            }
            interior[from..].sort_unstable_by_key(|f| f.b);
        }
        TetMesh {
            vertices,
            cells,
            centroids,
            volumes,
            interior,
            boundary,
        }
    }

    /// Vertex coordinates.
    pub fn vertices(&self) -> &[Point3] {
        &self.vertices
    }

    /// Cell connectivity (vertex quadruples).
    pub fn cells(&self) -> &[[u32; 4]] {
        &self.cells
    }

    /// Cell volumes.
    pub fn volumes(&self) -> &[f64] {
        &self.volumes
    }

    /// All cell centroids (indexable by `CellId::index`).
    pub fn centroids(&self) -> &[Point3] {
        &self.centroids
    }

    /// Total mesh volume.
    pub fn total_volume(&self) -> f64 {
        self.volumes.iter().sum()
    }
}

/// The partner of a face slot on the boundary (see [`match_faces`]).
pub(crate) const BOUNDARY: u32 = u32::MAX;

/// Checks every vertex index, then measures every cell: its centroid and
/// volume, or the first out-of-range vertex / zero-volume cell.
pub(crate) fn measure_cells(
    vertices: &[Point3],
    cells: &[[u32; 4]],
) -> Result<(Vec<Point3>, Vec<f64>), MeshError> {
    let nv = vertices.len() as u32;
    for (ci, c) in cells.iter().enumerate() {
        if let Some(&v) = c.iter().find(|&&v| v >= nv) {
            return Err(MeshError::VertexOutOfRange {
                cell: ci as u32,
                vertex: v,
            });
        }
    }
    let mut centroids = Vec::with_capacity(cells.len());
    let mut volumes = Vec::with_capacity(cells.len());
    for (ci, c) in cells.iter().enumerate() {
        let [a, b, cc, d] = c.map(|v| vertices[v as usize]);
        let vol = tet_signed_volume(a, b, cc, d).abs();
        if vol < 1e-14 {
            return Err(MeshError::DegenerateCell { cell: ci as u32 });
        }
        centroids.push(tet_centroid(a, b, cc, d));
        volumes.push(vol);
    }
    Ok((centroids, volumes))
}

/// The sorted vertex triple of face slot `s = 4·cell + local face`.
pub(crate) fn face_key(cells: &[[u32; 4]], s: usize) -> [u32; 3] {
    let c = &cells[s / 4];
    let mut k = TET_FACES[s % 4].0.map(|l| c[l]);
    k.sort_unstable();
    k
}

/// Pairs the face slots `4·cell + local face` by triangle: `partners[s]` is
/// the slot sharing `s`'s vertices, or [`BOUNDARY`]. The first group of three
/// or more in key order is non-manifold. Vertex indices must be `< nv`
/// ([`measure_cells`] checks).
pub(crate) fn match_faces(nv: usize, cells: &[[u32; 4]]) -> Result<Vec<u32>, MeshError> {
    let slots = 4 * cells.len();
    let mut partners = vec![BOUNDARY; slots];
    let mut non_manifold = None;
    group_incidences(
        nv,
        slots,
        |s| face_key(cells, s),
        |_, group| match *group {
            [_] => {}
            [x, y] => (partners[x as usize], partners[y as usize]) = (y, x),
            _ => {
                non_manifold.get_or_insert_with(|| group.iter().map(|s| s / 4).collect());
            }
        },
    );
    match non_manifold {
        Some(cells) => Err(MeshError::NonManifoldFace { cells }),
        None => Ok(partners),
    }
}

/// Unit normal (out of cell `c`, away from the opposite vertex) and area of face `f`.
fn face_normal(vertices: &[Point3], c: &[u32; 4], f: usize) -> (Vec3, f64) {
    let (fv, opp) = TET_FACES[f];
    let tri = fv.map(|l| vertices[c[l] as usize]);
    let mut an = triangle_area_normal(tri[0], tri[1], tri[2]);
    let area = 0.5 * an.norm();
    if an.dot(vertices[c[opp] as usize] - tri[0]) > 0.0 {
        an = -an;
    }
    (an.normalized(), area)
}

impl SweepMesh for TetMesh {
    fn num_cells(&self) -> usize {
        self.cells.len()
    }
    fn interior_faces(&self) -> &[InteriorFace] {
        &self.interior
    }
    fn boundary_faces(&self) -> &[BoundaryFace] {
        &self.boundary
    }
    fn centroid(&self, c: CellId) -> Point3 {
        self.centroids[c.index()]
    }
    fn dim(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec3;

    /// Two unit-ish tets sharing the triangle (0,1,2).
    fn two_tets() -> TetMesh {
        let vertices = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.3, 0.3, 1.0),  // above
            Point3::new(0.3, 0.3, -1.0), // below
        ];
        let cells = vec![[0, 1, 2, 3], [0, 1, 2, 4]];
        TetMesh::new(vertices, cells).unwrap()
    }

    #[test]
    fn two_tets_share_one_interior_face() {
        let m = two_tets();
        assert_eq!(m.num_cells(), 2);
        assert_eq!(m.interior_faces().len(), 1);
        assert_eq!(m.boundary_faces().len(), 6);
        let f = m.interior_faces()[0];
        // Normal must point from cell a into cell b.
        let dir = m.centroid(f.b) - m.centroid(f.a);
        assert!(f.normal.dot(dir) > 0.0, "interior normal not oriented a->b");
        assert!((f.normal.norm() - 1.0).abs() < 1e-12);
        assert!((f.area - 0.5).abs() < 1e-12);
    }

    fn tetonly() -> TetMesh {
        crate::presets::MeshPreset::Tetonly
            .build_scaled(0.01)
            .unwrap()
    }

    #[test]
    fn boundary_normals_point_outward() {
        let m = tetonly();
        let partners = match_faces(m.vertices().len(), m.cells()).unwrap();
        let open: Vec<usize> = (0..partners.len())
            .filter(|&s| partners[s] == BOUNDARY)
            .collect();
        assert_eq!(open.len(), m.boundary_faces().len());
        // Boundary faces are listed in `(cell, local face)` order, so the
        // unmatched slots name each one's triangle.
        for (&s, bf) in open.iter().zip(m.boundary_faces()) {
            assert_eq!(bf.cell.index(), s / 4);
            let c = m.cells()[s / 4];
            let [p, q, r] = TET_FACES[s % 4].0.map(|l| m.vertices()[c[l] as usize]);
            let out = (p + q + r) / 3.0 - m.centroid(bf.cell);
            assert!(bf.normal.dot(out) > 0.0, "slot {s}: normal points inward");
            assert!((bf.normal.norm() - 1.0).abs() < 1e-12);
        }
        for f in m.interior_faces() {
            let dir = m.centroid(f.b) - m.centroid(f.a);
            assert!(
                f.normal.dot(dir) > 0.0,
                "{} -> {} not oriented a -> b",
                f.a,
                f.b
            );
        }
    }

    #[test]
    fn repeated_builds_list_faces_in_the_same_order() {
        let bits = |m: &TetMesh| -> Vec<(u32, [u64; 4])> {
            let n = |v: Vec3, a: f64| [v.x, v.y, v.z, a].map(f64::to_bits);
            let interior = m
                .interior_faces()
                .iter()
                .map(|f| (f.a.0, n(f.normal, f.area)));
            let boundary = m
                .boundary_faces()
                .iter()
                .map(|f| (f.cell.0, n(f.normal, f.area)));
            interior.chain(boundary).collect()
        };
        let first = bits(&tetonly());
        for _ in 0..3 {
            assert_eq!(bits(&tetonly()), first);
        }
    }

    #[test]
    fn volume_is_sum_of_cell_volumes() {
        let m = two_tets();
        assert!((m.total_volume() - m.volumes().iter().sum::<f64>()).abs() < 1e-15);
        assert!(m.total_volume() > 0.0);
    }

    #[test]
    fn vertex_out_of_range_detected() {
        let vertices = vec![Point3::ZERO; 3];
        let err = TetMesh::new(vertices, vec![[0, 1, 2, 9]]).unwrap_err();
        assert!(matches!(err, MeshError::VertexOutOfRange { vertex: 9, .. }));
    }

    #[test]
    fn degenerate_cell_detected() {
        let vertices = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(3.0, 0.0, 0.0), // collinear: zero volume
        ];
        let err = TetMesh::new(vertices, vec![[0, 1, 2, 3]]).unwrap_err();
        assert!(matches!(err, MeshError::DegenerateCell { cell: 0 }));
    }

    #[test]
    fn non_manifold_face_detected() {
        // Three tets all sharing triangle (0,1,2).
        let vertices = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.3, 0.3, 1.0),
            Point3::new(0.3, 0.3, -1.0),
            Point3::new(0.9, 0.9, 1.0),
        ];
        let cells = vec![[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]];
        let err = TetMesh::new(vertices, cells).unwrap_err();
        assert!(matches!(err, MeshError::NonManifoldFace { .. }));
    }

    #[test]
    fn non_manifold_report_is_the_first_group_in_key_order() {
        // Two fans of three tets, on triangles (0,1,2) and (6,7,8); the
        // second fan's cells come first.
        let fan = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.3, 0.3, 1.0),
            Point3::new(0.3, 0.3, -1.0),
            Point3::new(0.9, 0.9, 1.0),
        ];
        let shifted = fan.map(|p| p + Vec3::new(5.0, 0.0, 0.0));
        let vertices: Vec<Point3> = fan.into_iter().chain(shifted).collect();
        let cells = vec![
            [6, 7, 8, 9],
            [6, 7, 8, 10],
            [6, 7, 8, 11],
            [0, 1, 2, 3],
            [0, 1, 2, 4],
            [0, 1, 2, 5],
        ];
        for _ in 0..4 {
            let err = TetMesh::new(vertices.clone(), cells.clone()).unwrap_err();
            assert_eq!(
                err,
                MeshError::NonManifoldFace {
                    cells: vec![3, 4, 5]
                }
            );
        }
    }

    #[test]
    fn adjacency_csr_symmetric() {
        let m = two_tets();
        let (xadj, adjncy) = m.adjacency_csr();
        assert_eq!(xadj, vec![0, 1, 2]);
        assert_eq!(adjncy, vec![1, 0]);
    }

    #[test]
    fn mesh_error_display() {
        let e = MeshError::DegenerateCell { cell: 3 };
        assert!(e.to_string().contains("cell 3"));
        let v = Vec3::ZERO;
        assert_eq!(v.norm(), 0.0);
    }
}
