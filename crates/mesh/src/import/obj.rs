//! Wavefront `.obj` triangle-surface parser and assembler.
//!
//! Accepted subset (see `MESHES.md`): `v` records with ≥3 coordinates, `f`
//! records with ≥3 vertices in any of the `i`, `i/t`, `i//n`, `i/t/n` forms
//! (1-based or negative relative indices), whole-line `#` comments. Polygons
//! are fan-triangulated; `vn`/`vt`/grouping/material records are ignored;
//! unknown keywords are ignored (the format is extensible). Each resulting
//! triangle is one cell; dependence flows across shared edges, giving the
//! "2-D style" instances of [`crate::TriMesh2d`] but over arbitrary, possibly
//! non-flat surfaces.

use super::{check_entity_count, ImportError, ImportReport, MAX_UNMATCHED_FOR_RESOLUTION};
use crate::face::{group_incidences, BoundaryFace, CellId, InteriorFace};
use crate::geometry::{bbox_diag, triangle_area_normal, triangle_centroid, Point3};
use crate::poly::PolyMesh;
use crate::tri2d::edge_key;

/// Parses `.obj` text into vertices and fan-triangulated faces.
pub(crate) fn parse(text: &str) -> Result<(Vec<Point3>, Vec<[u32; 3]>), ImportError> {
    let mut vertices: Vec<Point3> = Vec::new();
    let mut tris: Vec<[u32; 3]> = Vec::new();
    for (li, raw) in text.lines().enumerate() {
        let line = li + 1;
        let mut fields = raw.split_whitespace();
        let Some(keyword) = fields.next() else {
            continue;
        };
        match keyword {
            "#" => {}
            k if k.starts_with('#') => {}
            "v" => {
                let mut coords = [0.0f64; 3];
                for (i, c) in coords.iter_mut().enumerate() {
                    let tok = fields.next().ok_or_else(|| ImportError::Syntax {
                        line,
                        msg: format!("vertex record has {i} coordinates, need 3"),
                    })?;
                    *c = tok.parse::<f64>().map_err(|_| ImportError::Syntax {
                        line,
                        msg: format!("bad vertex coordinate {tok:?}"),
                    })?;
                    if !c.is_finite() {
                        return Err(ImportError::Syntax {
                            line,
                            msg: format!("non-finite vertex coordinate {tok:?}"),
                        });
                    }
                }
                check_entity_count("vertex count", vertices.len() as u64 + 1, text.len())?;
                vertices.push(Point3::new(coords[0], coords[1], coords[2]));
            }
            "f" => {
                let mut idx: Vec<u32> = Vec::new();
                for tok in fields {
                    idx.push(face_index(tok, vertices.len(), line)?);
                }
                if idx.len() < 3 {
                    return Err(ImportError::Syntax {
                        line,
                        msg: format!("face record has {} vertices, need at least 3", idx.len()),
                    });
                }
                for w in 1..idx.len() - 1 {
                    check_entity_count("cell count", tris.len() as u64 + 1, text.len())?;
                    tris.push([idx[0], idx[w], idx[w + 1]]);
                }
            }
            // Normals, texture coords, grouping, materials, lines, points:
            // legal .obj records that carry no cell connectivity.
            _ => {}
        }
    }
    if vertices.is_empty() {
        return Err(ImportError::EmptyMesh { what: "nodes" });
    }
    if tris.is_empty() {
        return Err(ImportError::EmptyMesh { what: "cells" });
    }
    Ok((vertices, tris))
}

/// Resolves one `f`-record token (`i`, `i/t`, `i//n`, `i/t/n`) to a 0-based
/// vertex index against the `n_verts` vertices seen so far.
fn face_index(tok: &str, n_verts: usize, line: usize) -> Result<u32, ImportError> {
    let first = tok.split('/').next().unwrap_or("");
    let raw: i64 = first.parse().map_err(|_| ImportError::Syntax {
        line,
        msg: format!("bad face index {tok:?}"),
    })?;
    let resolved = if raw > 0 {
        raw - 1
    } else if raw < 0 {
        n_verts as i64 + raw
    } else {
        return Err(ImportError::Syntax {
            line,
            msg: "face index 0 is invalid (.obj indices are 1-based)".to_string(),
        });
    };
    if resolved < 0 || resolved >= n_verts as i64 {
        return Err(ImportError::Syntax {
            line,
            msg: format!("face index {raw} out of range (have {n_verts} vertices)"),
        });
    }
    Ok(resolved as u32)
}

/// Cheap `(vertices, cells)` upper bound: one pass counting `v`/`f` records.
pub(crate) fn peek(text: &str) -> Result<(usize, usize), ImportError> {
    let mut verts = 0u64;
    let mut cells = 0u64;
    for raw in text.lines() {
        let mut fields = raw.split_whitespace();
        match fields.next() {
            Some("v") => verts += 1,
            Some("f") => {
                let corners = fields.count() as u64;
                cells += corners.saturating_sub(2).max(1);
            }
            _ => {}
        }
    }
    let v = check_entity_count("vertex count", verts, text.len())?;
    let c = check_entity_count("cell count", cells, text.len())?;
    Ok((v, c))
}

/// Derives edge adjacency for a triangle soup: shared edges become interior
/// faces with in-surface unit normals (oriented first-cell → second-cell),
/// unshared edges become boundary faces, and edges shared by more than two
/// triangles are recorded as non-manifold (no dependence edges). T-junction
/// hanging vertices are detected and reported but not stitched.
pub(crate) fn assemble_surface(
    vertices: &[Point3],
    tris: &[[u32; 3]],
    report: &mut ImportReport,
) -> Result<PolyMesh, ImportError> {
    let scale = bbox_diag(vertices).max(1e-30);
    let mut centroids = Vec::with_capacity(tris.len());
    let mut plane_normals = Vec::with_capacity(tris.len());
    for (ci, t) in tris.iter().enumerate() {
        let [a, b, c] = t.map(|v| vertices[v as usize]);
        centroids.push(triangle_centroid(a, b, c));
        let an = triangle_area_normal(a, b, c);
        if an.norm() <= 1e-12 * scale * scale {
            report.degenerate_cells.push(ci as u32);
        }
        plane_normals.push(an);
    }

    // Edge `key`'s in-surface normal and length as seen from cell `c`.
    let normal_of = |key, c: u32| {
        let c = c as usize;
        edge_normal(vertices, key, plane_normals[c], centroids[c])
    };
    let mut interior = Vec::new();
    let mut boundary = Vec::new();
    let mut unmatched: Vec<([u32; 2], u32)> = Vec::new();
    let slots = 3 * tris.len();
    group_incidences(
        vertices.len(),
        slots,
        |s| edge_key(tris, s),
        |key, group| match *group {
            [s] => unmatched.push((key, s / 3)),
            [s, t] => {
                if let Some((normal, len)) = normal_of(key, s / 3) {
                    interior.push(InteriorFace {
                        a: CellId(s / 3),
                        b: CellId(t / 3),
                        normal,
                        area: len,
                    });
                }
            }
            _ => {
                let cells: Vec<u32> = group.iter().map(|s| s / 3).collect();
                for &c in &cells {
                    if let Some((normal, len)) = normal_of(key, c) {
                        boundary.push(BoundaryFace {
                            cell: CellId(c),
                            normal,
                            area: len,
                        });
                    }
                }
                report.non_manifold.push(cells);
            }
        },
    );

    // Hanging-vertex detection: an unmatched edge endpoint lying strictly
    // inside another unmatched edge is a T-junction node.
    if unmatched.len() <= MAX_UNMATCHED_FOR_RESOLUTION {
        let mut hanging: Vec<u32> = Vec::new();
        for &([a, b], _) in &unmatched {
            let (pa, pb) = (vertices[a as usize], vertices[b as usize]);
            let len = pa.distance(pb);
            if len <= 1e-12 * scale {
                continue;
            }
            for &([u, v], _) in &unmatched {
                for w in [u, v] {
                    if w == a || w == b {
                        continue;
                    }
                    let p = vertices[w as usize];
                    let t = (p - pa).dot(pb - pa) / (len * len);
                    if !(0.01..=0.99).contains(&t) {
                        continue;
                    }
                    let off = (p - (pa + (pb - pa) * t)).norm();
                    if off <= 0.05 * len {
                        hanging.push(w);
                    }
                }
            }
        }
        hanging.sort_unstable();
        hanging.dedup();
        report.hanging_vertices = hanging;
    } else {
        report.resolution_skipped = true;
    }

    for (key, c) in unmatched {
        if let Some((normal, len)) = normal_of(key, c) {
            boundary.push(BoundaryFace {
                cell: CellId(c),
                normal,
                area: len,
            });
        }
    }

    let mesh = PolyMesh::from_parts(2, centroids, interior, boundary)
        .map_err(|msg| ImportError::Structure { msg })?;
    mesh.with_surface(vertices.to_vec(), tris.to_vec())
        .map_err(|msg| ImportError::Structure { msg })
}

/// In-surface unit normal of edge `key` for the cell with the given plane
/// normal and centroid: perpendicular to the edge, tangent to the cell's
/// plane, pointing away from the cell centroid. `None` when the edge or the
/// cell is degenerate. Second component is the edge length ("area" in the
/// 2-D sense).
fn edge_normal(
    vertices: &[Point3],
    [a, b]: [u32; 2],
    plane_normal: crate::Vec3,
    centroid: Point3,
) -> Option<(crate::Vec3, f64)> {
    let (pa, pb) = (vertices[a as usize], vertices[b as usize]);
    let edge = pb - pa;
    let len = edge.norm();
    let mut m = edge.cross(plane_normal);
    let mn = m.norm();
    if len <= 1e-300 || mn <= 1e-300 {
        return None;
    }
    m = m / mn;
    let mid = (pa + pb) / 2.0;
    if m.dot(mid - centroid) < 0.0 {
        m = -m;
    }
    Some((m, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::SweepMesh;
    use crate::import::{import_bytes, ImportFormat};

    fn import(text: &str) -> crate::import::Imported {
        import_bytes(text.as_bytes(), ImportFormat::Obj).unwrap()
    }

    #[test]
    fn two_triangles_share_one_edge() {
        let got = import("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2 4 3\n");
        assert_eq!(got.mesh.num_cells(), 2);
        assert_eq!(got.mesh.interior_faces().len(), 1);
        assert_eq!(got.mesh.boundary_faces().len(), 4);
        let f = got.mesh.interior_faces()[0];
        let dir = got.mesh.centroid(f.b) - got.mesh.centroid(f.a);
        assert!(f.normal.dot(dir) > 0.0, "interior normal not oriented a->b");
    }

    #[test]
    fn quad_faces_fan_triangulate() {
        let got = import("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n");
        assert_eq!(got.mesh.num_cells(), 2);
        assert_eq!(got.mesh.interior_faces().len(), 1);
    }

    #[test]
    fn slash_forms_and_negative_indices() {
        let got = import("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\nf 1/1/1 2//1 -1\n");
        assert_eq!(got.mesh.num_cells(), 1);
    }

    #[test]
    fn syntax_errors_are_typed() {
        for bad in [
            "v 0 0\nf 1 2 3\n",                     // short vertex
            "v a b c\n",                            // non-numeric coordinate
            "v 0 0 inf\nf 1 1 1\n",                 // non-finite coordinate
            "v 0 0 0\nf 1 2 3\n",                   // out-of-range index
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", // index 0
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n",   // short face
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf x y z\n", // non-numeric index
        ] {
            let err = import_bytes(bad.as_bytes(), ImportFormat::Obj).unwrap_err();
            assert!(
                matches!(err, ImportError::Syntax { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn empty_inputs_are_typed() {
        assert!(matches!(
            import_bytes(b"# nothing\n", ImportFormat::Obj).unwrap_err(),
            ImportError::EmptyMesh { what: "nodes" }
        ));
        assert!(matches!(
            import_bytes(b"v 0 0 0\n", ImportFormat::Obj).unwrap_err(),
            ImportError::EmptyMesh { what: "cells" }
        ));
    }

    #[test]
    fn non_manifold_edge_reported_without_dependence() {
        // Three triangles sharing edge (1,2).
        let got =
            import("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 -1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\nf 1 2 5\n");
        assert_eq!(got.report.non_manifold.len(), 1);
        assert_eq!(got.report.non_manifold[0].len(), 3);
        assert_eq!(got.mesh.interior_faces().len(), 0);
        assert!(got.report.has_errors());
    }

    #[test]
    fn degenerate_triangle_reported() {
        let got = import("v 0 0 0\nv 1 0 0\nv 2 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 4\n");
        assert_eq!(got.report.degenerate_cells, vec![0]);
        assert!(got.report.has_errors());
    }

    #[test]
    fn t_junction_hanging_vertex_detected() {
        // Coarse triangle (0,0)-(2,0)-(1,2) above, two fine triangles below
        // splitting the base edge at (1,0): vertex 4 hangs on edge 1-2.
        let got = import(
            "v 0 0 0\nv 2 0 0\nv 1 2 0\nv 1 0 0\nv 0 -1 0\nv 2 -1 0\nf 1 2 3\nf 1 4 5\nf 4 2 6\n",
        );
        assert_eq!(got.report.hanging_vertices, vec![3]); // 0-based vertex id
        assert!(!got.report.has_errors()); // hanging nodes are a warning
    }

    #[test]
    fn peek_counts_obj() {
        let (v, c) = peek("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n").unwrap();
        assert_eq!((v, c), (4, 2));
    }
}
