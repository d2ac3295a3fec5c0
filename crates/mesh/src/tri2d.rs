//! 2-D unstructured triangular meshes (the setting of the paper's Figure 1).
//!
//! Used mainly in tests, documentation examples, and the quickstart, where a
//! small planar mesh is easier to reason about than a tetrahedral one. The
//! construction mirrors [`crate::generator`]: a structured quad grid whose
//! quads are split along a randomly-ranked diagonal, with jittered interior
//! vertices. Embedded in the `z = 0` plane; face "normals" are in-plane edge
//! normals.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::face::{group_incidences, BoundaryFace, CellId, InteriorFace, SweepMesh};
use crate::geometry::{Point3, Vec3};

/// The sorted endpoints of edge slot `s = 3·cell + e`, the edge from a
/// triangle's vertex `e` to vertex `e + 1 (mod 3)`.
pub(crate) fn edge_key(tris: &[[u32; 3]], s: usize) -> [u32; 2] {
    let (t, e) = (&tris[s / 3], s % 3);
    let (u, v) = (t[e], t[(e + 1) % 3]);
    [u.min(v), u.max(v)]
}

/// An unstructured conforming triangle mesh in the plane.
#[derive(Debug, Clone)]
pub struct TriMesh2d {
    vertices: Vec<Point3>,
    cells: Vec<[u32; 3]>,
    centroids: Vec<Point3>,
    interior: Vec<InteriorFace>,
    boundary: Vec<BoundaryFace>,
}

impl TriMesh2d {
    /// Assembles a triangle mesh from raw connectivity, deriving edge
    /// adjacency and in-plane unit normals oriented `a → b`.
    pub fn new(vertices: Vec<Point3>, cells: Vec<[u32; 3]>) -> Result<TriMesh2d, String> {
        for (ci, c) in cells.iter().enumerate() {
            for &v in c {
                if v as usize >= vertices.len() {
                    return Err(format!("cell {ci} references out-of-range vertex {v}"));
                }
            }
        }
        let mut centroids = Vec::with_capacity(cells.len());
        for c in &cells {
            let [a, b, cc] = c.map(|v| vertices[v as usize]);
            let area2 = (b - a).cross(cc - a).z;
            if area2.abs() < 1e-14 {
                return Err(format!("degenerate (zero-area) triangle {:?}", c));
            }
            centroids.push((a + b + cc) / 3.0);
        }

        // Unit normal (in-plane, away from the cell centroid) and length of
        // edge slot `s = 3·cell + local edge`, oriented as the cell lists it.
        let edge_normal = |s: u32| -> (Vec3, f64) {
            let (ci, e) = (s as usize / 3, s as usize % 3);
            let pu = vertices[cells[ci][e] as usize];
            let pv = vertices[cells[ci][(e + 1) % 3] as usize];
            let t = pv - pu;
            // In-plane normal candidates: (t.y, -t.x) and (-t.y, t.x);
            // pick the one pointing away from the cell centroid.
            let nrm = Vec3::new(t.y, -t.x, 0.0);
            let mid = (pu + pv) / 2.0;
            let nrm = if nrm.dot(mid - centroids[ci]) >= 0.0 {
                nrm
            } else {
                -nrm
            };
            (nrm.normalized(), t.norm())
        };
        let mut interior = Vec::new();
        let mut boundary = Vec::new();
        let mut non_manifold: Option<Vec<u32>> = None;
        let slots = 3 * cells.len();
        group_incidences(
            vertices.len(),
            slots,
            |s| edge_key(&cells, s),
            |_, group| match *group {
                [s] => {
                    let (normal, area) = edge_normal(s);
                    let cell = CellId(s / 3);
                    boundary.push((s, BoundaryFace { cell, normal, area }));
                }
                [s, t] => {
                    let (normal, area) = edge_normal(s);
                    let (a, b) = (CellId(s / 3), CellId(t / 3));
                    interior.push(InteriorFace { a, b, normal, area });
                }
                _ => {
                    non_manifold.get_or_insert_with(|| group.iter().map(|s| s / 3).collect());
                }
            },
        );
        if let Some(cells) = non_manifold {
            return Err(format!("edge shared by more than two triangles: {cells:?}"));
        }
        interior.sort_unstable_by_key(|f| (f.a, f.b));
        boundary.sort_unstable_by_key(|&(s, _)| s);
        let boundary = boundary.into_iter().map(|(_, f)| f).collect();
        Ok(TriMesh2d {
            vertices,
            cells,
            centroids,
            interior,
            boundary,
        })
    }

    /// Generates an `nx × ny` jittered random-diagonal grid over
    /// `[0,1] × [0,1]` with `2·nx·ny` triangles.
    pub fn unit_square(nx: usize, ny: usize, jitter: f64, seed: u64) -> Result<TriMesh2d, String> {
        if nx == 0 || ny == 0 {
            return Err("grid dimensions must be positive".into());
        }
        if !(0.0..0.5).contains(&jitter) {
            return Err(format!("jitter {jitter} outside [0, 0.5)"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (hx, hy) = (1.0 / nx as f64, 1.0 / ny as f64);
        let vid = |i: usize, j: usize| (i * (ny + 1) + j) as u32;
        let mut vertices = Vec::with_capacity((nx + 1) * (ny + 1));
        for i in 0..=nx {
            for j in 0..=ny {
                let mut p = Point3::new(i as f64 * hx, j as f64 * hy, 0.0);
                if jitter > 0.0 {
                    if i > 0 && i < nx {
                        p.x += rng.random_range(-jitter..jitter) * hx;
                    }
                    if j > 0 && j < ny {
                        p.y += rng.random_range(-jitter..jitter) * hy;
                    }
                }
                vertices.push(p);
            }
        }
        let mut rank: Vec<u32> = (0..vertices.len() as u32).collect();
        rank.shuffle(&mut rng);

        let mut cells = Vec::with_capacity(2 * nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                // Quad corners in cyclic order.
                let q = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)];
                let min_pos = (0..4)
                    .min_by_key(|&p| rank[q[p] as usize])
                    .expect("quad has 4 corners");
                if min_pos == 0 || min_pos == 2 {
                    cells.push([q[0], q[1], q[2]]);
                    cells.push([q[0], q[2], q[3]]);
                } else {
                    cells.push([q[1], q[2], q[3]]);
                    cells.push([q[1], q[3], q[0]]);
                }
            }
        }
        TriMesh2d::new(vertices, cells)
    }

    /// Vertex coordinates.
    pub fn vertices(&self) -> &[Point3] {
        &self.vertices
    }

    /// Triangle connectivity.
    pub fn cells(&self) -> &[[u32; 3]] {
        &self.cells
    }
}

impl SweepMesh for TriMesh2d {
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
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square_counts() {
        let m = TriMesh2d::unit_square(4, 3, 0.2, 1).unwrap();
        assert_eq!(m.num_cells(), 2 * 4 * 3);
        // Euler-ish sanity: every triangle has 3 edges, interior counted
        // twice, boundary once.
        assert_eq!(
            2 * m.interior_faces().len() + m.boundary_faces().len(),
            3 * m.num_cells()
        );
        assert_eq!(m.connected_component_size(), m.num_cells());
    }

    #[test]
    fn normals_are_unit_in_plane_and_oriented() {
        let m = TriMesh2d::unit_square(3, 3, 0.15, 2).unwrap();
        for f in m.interior_faces() {
            assert!((f.normal.norm() - 1.0).abs() < 1e-12);
            assert_eq!(f.normal.z, 0.0);
            let d = m.centroid(f.b) - m.centroid(f.a);
            assert!(f.normal.dot(d) > 0.0, "normal must point a -> b");
        }
        for f in m.boundary_faces() {
            assert!((f.normal.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = TriMesh2d::unit_square(5, 5, 0.2, 9).unwrap();
        let b = TriMesh2d::unit_square(5, 5, 0.2, 9).unwrap();
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn repeated_builds_list_boundary_edges_in_the_same_order() {
        let bits = |m: &TriMesh2d| -> Vec<(u32, [u64; 3])> {
            let faces = m.boundary_faces().iter();
            faces
                .map(|f| (f.cell.0, [f.normal.x, f.normal.y, f.area].map(f64::to_bits)))
                .collect()
        };
        let first = bits(&TriMesh2d::unit_square(5, 4, 0.2, 3).unwrap());
        for _ in 0..3 {
            let again = TriMesh2d::unit_square(5, 4, 0.2, 3).unwrap();
            assert_eq!(bits(&again), first);
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(TriMesh2d::unit_square(0, 3, 0.1, 0).is_err());
        assert!(TriMesh2d::unit_square(3, 3, 0.9, 0).is_err());
    }

    #[test]
    fn rejects_degenerate_triangle() {
        let verts = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
        ];
        assert!(TriMesh2d::new(verts, vec![[0, 1, 2]]).is_err());
    }

    #[test]
    fn rejects_nonmanifold_edge() {
        let verts = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.5, 1.0, 0.0),
            Point3::new(0.5, -1.0, 0.0),
            Point3::new(1.5, 1.0, 0.0),
        ];
        // Three triangles all containing edge (0,1).
        let cells = vec![[0, 1, 2], [0, 1, 3], [0, 1, 4]];
        assert!(TriMesh2d::new(verts, cells).is_err());
    }

    #[test]
    fn non_manifold_report_is_the_first_group_in_key_order() {
        // Two fans of three triangles, on edges (0,1) and (5,6); the second
        // fan's triangles come first.
        let fan = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.5, 1.0, 0.0),
            Point3::new(0.5, -1.0, 0.0),
            Point3::new(1.5, 1.0, 0.0),
        ];
        let shifted = fan.map(|p| p + Vec3::new(5.0, 0.0, 0.0));
        let verts: Vec<Point3> = fan.into_iter().chain(shifted).collect();
        let cells = vec![
            [5, 6, 7],
            [5, 6, 8],
            [5, 6, 9],
            [0, 1, 2],
            [0, 1, 3],
            [0, 1, 4],
        ];
        for _ in 0..8 {
            let err = TriMesh2d::new(verts.clone(), cells.clone()).unwrap_err();
            assert_eq!(err, "edge shared by more than two triangles: [3, 4, 5]");
        }
    }

    #[test]
    fn dim_is_two() {
        let m = TriMesh2d::unit_square(2, 2, 0.0, 0).unwrap();
        assert_eq!(m.dim(), 2);
    }
}
