//! Gmsh `.msh` version 4 ASCII parser and tetrahedral assembler.
//!
//! Accepted subset (see `MESHES.md`): `$MeshFormat` version 4.x, file-type 0
//! (ASCII); sparse node tags in `$Nodes` entity blocks; `$Elements` blocks
//! whose 3-D elements are 4-node tetrahedra (type 4). Lower-dimensional
//! elements (points, lines, surface triangles — commonly present as boundary
//! markers) are skipped; any other 3-D element type is a typed
//! [`ImportError::UnsupportedElement`]. Unknown sections are skipped whole.
//!
//! Assembly generalizes [`crate::TetMesh`]: faces are grouped by sorted
//! vertex triple, but instead of *rejecting* non-conforming connectivity the
//! assembler records diagnostics and — uniquely here — **stitches
//! hanging-node T-junctions**: an unmatched fine face whose vertices all lie
//! within a coarse unmatched face (projected, with a generous off-plane
//! slab to admit warped refinement) becomes an interior face between the two
//! cells, using the fine face's own geometry for the normal. Meshes stitched
//! this way are precisely the ones whose induced sweep digraphs can contain
//! cycles.

use std::collections::HashMap;

use super::{check_entity_count, ImportError, ImportReport, MAX_UNMATCHED_FOR_RESOLUTION};
use crate::face::{group_incidences, BoundaryFace, CellId, InteriorFace};
use crate::geometry::{
    bbox_diag, tet_centroid, tet_signed_volume, triangle_area_normal, triangle_centroid, Point3,
    Vec3,
};
use crate::poly::PolyMesh;
use crate::tet::{face_key, TET_FACES};

/// Line cursor carrying 1-based line numbers and skipping blank lines.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    input_len: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            lines: text.lines().enumerate(),
            input_len: text.len(),
        }
    }

    fn next_content(&mut self) -> Option<(usize, &'a str)> {
        for (i, raw) in self.lines.by_ref() {
            let t = raw.trim();
            if !t.is_empty() {
                return Some((i + 1, t));
            }
        }
        None
    }

    fn expect(&mut self, section: &'static str, want: &str) -> Result<(), ImportError> {
        let (line, got) = self
            .next_content()
            .ok_or(ImportError::Truncated { section })?;
        if got != want {
            return Err(ImportError::Syntax {
                line,
                msg: format!("expected {want:?}, found {got:?}"),
            });
        }
        Ok(())
    }
}

fn fields_u64<const N: usize>(line_no: usize, line: &str) -> Result<[u64; N], ImportError> {
    let mut out = [0u64; N];
    let mut it = line.split_whitespace();
    for (i, slot) in out.iter_mut().enumerate() {
        let tok = it.next().ok_or_else(|| ImportError::Syntax {
            line: line_no,
            msg: format!("expected {N} integer fields, found {i}"),
        })?;
        *slot = tok.parse::<u64>().map_err(|_| ImportError::Syntax {
            line: line_no,
            msg: format!("bad integer {tok:?}"),
        })?;
    }
    Ok(out)
}

/// Parses `.msh` v4 ASCII text into vertices and tetrahedra.
pub(crate) fn parse(text: &str) -> Result<(Vec<Point3>, Vec<[u32; 4]>), ImportError> {
    let mut cur = Cursor::new(text);
    cur.expect("$MeshFormat", "$MeshFormat")?;
    let (hline, header) = cur.next_content().ok_or(ImportError::Truncated {
        section: "$MeshFormat",
    })?;
    let mut hf = header.split_whitespace();
    let version: f64 =
        hf.next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ImportError::Syntax {
                line: hline,
                msg: "bad $MeshFormat header".to_string(),
            })?;
    if !(4.0..5.0).contains(&version) {
        return Err(ImportError::Syntax {
            line: hline,
            msg: format!("unsupported .msh version {version} (need 4.x)"),
        });
    }
    let file_type: u64 =
        hf.next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ImportError::Syntax {
                line: hline,
                msg: "bad $MeshFormat header".to_string(),
            })?;
    if file_type != 0 {
        return Err(ImportError::Syntax {
            line: hline,
            msg: "binary .msh is not supported (file-type must be 0)".to_string(),
        });
    }
    cur.expect("$MeshFormat", "$EndMeshFormat")?;

    let mut vertices: Vec<Point3> = Vec::new();
    let mut tag_map: HashMap<u64, u32> = HashMap::new();
    let mut cells: Vec<[u32; 4]> = Vec::new();
    let mut saw_nodes = false;
    let mut saw_elements = false;

    while let Some((line, l)) = cur.next_content() {
        match l {
            "$Nodes" => {
                if saw_nodes {
                    return Err(ImportError::Syntax {
                        line,
                        msg: "duplicate $Nodes section".to_string(),
                    });
                }
                saw_nodes = true;
                parse_nodes(&mut cur, &mut vertices, &mut tag_map)?;
            }
            "$Elements" => {
                if saw_elements {
                    return Err(ImportError::Syntax {
                        line,
                        msg: "duplicate $Elements section".to_string(),
                    });
                }
                saw_elements = true;
                parse_elements(&mut cur, &tag_map, &mut cells)?;
            }
            other => {
                let Some(name) = other.strip_prefix('$') else {
                    return Err(ImportError::Syntax {
                        line,
                        msg: format!("expected a $-section header, found {other:?}"),
                    });
                };
                if name.starts_with("End") {
                    return Err(ImportError::Syntax {
                        line,
                        msg: format!("unexpected section terminator ${name}"),
                    });
                }
                // Skip unknown sections ($PhysicalNames, $Entities, ...).
                let end = format!("$End{name}");
                loop {
                    match cur.next_content() {
                        Some((_, l)) if l == end => break,
                        Some(_) => continue,
                        None => {
                            return Err(ImportError::Truncated {
                                section: "skipped section",
                            })
                        }
                    }
                }
            }
        }
    }
    if !saw_nodes || vertices.is_empty() {
        return Err(ImportError::EmptyMesh { what: "nodes" });
    }
    if !saw_elements || cells.is_empty() {
        return Err(ImportError::EmptyMesh { what: "cells" });
    }
    Ok((vertices, cells))
}

fn parse_nodes(
    cur: &mut Cursor<'_>,
    vertices: &mut Vec<Point3>,
    tag_map: &mut HashMap<u64, u32>,
) -> Result<(), ImportError> {
    const SEC: &str = "$Nodes";
    let input_len = cur.input_len;
    let (hline, header) = cur
        .next_content()
        .ok_or(ImportError::Truncated { section: SEC })?;
    let [num_blocks, num_nodes, _min_tag, _max_tag] = fields_u64::<4>(hline, header)?;
    let num_blocks = check_entity_count("declared node entity blocks", num_blocks, input_len)?;
    let declared = check_entity_count("declared node count", num_nodes, input_len)?;
    vertices.reserve(declared.min(1 << 16));
    for _ in 0..num_blocks {
        let (bline, bheader) = cur
            .next_content()
            .ok_or(ImportError::Truncated { section: SEC })?;
        let [_dim, _tag, parametric, in_block] = fields_u64::<4>(bline, bheader)?;
        if parametric != 0 {
            return Err(ImportError::Syntax {
                line: bline,
                msg: "parametric nodes are not supported".to_string(),
            });
        }
        let in_block = check_entity_count("declared block node count", in_block, input_len)?;
        let mut tags = Vec::with_capacity(in_block.min(1 << 16));
        for _ in 0..in_block {
            let (tline, tl) = cur
                .next_content()
                .ok_or(ImportError::Truncated { section: SEC })?;
            let [tag] = fields_u64::<1>(tline, tl)?;
            tags.push((tline, tag));
        }
        for (tline, tag) in tags {
            let (cline, cl) = cur
                .next_content()
                .ok_or(ImportError::Truncated { section: SEC })?;
            let mut coords = [0.0f64; 3];
            let mut it = cl.split_whitespace();
            for c in coords.iter_mut() {
                let tok = it.next().ok_or_else(|| ImportError::Syntax {
                    line: cline,
                    msg: "node needs 3 coordinates".to_string(),
                })?;
                *c = tok.parse::<f64>().map_err(|_| ImportError::Syntax {
                    line: cline,
                    msg: format!("bad coordinate {tok:?}"),
                })?;
                if !c.is_finite() {
                    return Err(ImportError::Syntax {
                        line: cline,
                        msg: format!("non-finite coordinate {tok:?}"),
                    });
                }
            }
            check_entity_count("node count", vertices.len() as u64 + 1, input_len)?;
            if tag_map.insert(tag, vertices.len() as u32).is_some() {
                return Err(ImportError::Syntax {
                    line: tline,
                    msg: format!("duplicate node tag {tag}"),
                });
            }
            vertices.push(Point3::new(coords[0], coords[1], coords[2]));
        }
    }
    if vertices.len() as u64 != declared as u64 {
        return Err(ImportError::CountMismatch {
            what: "nodes",
            declared: declared as u64,
            actual: vertices.len() as u64,
        });
    }
    cur.expect(SEC, "$EndNodes")
}

fn parse_elements(
    cur: &mut Cursor<'_>,
    tag_map: &HashMap<u64, u32>,
    cells: &mut Vec<[u32; 4]>,
) -> Result<(), ImportError> {
    const SEC: &str = "$Elements";
    let input_len = cur.input_len;
    let (hline, header) = cur
        .next_content()
        .ok_or(ImportError::Truncated { section: SEC })?;
    let [num_blocks, num_elements, _min_tag, _max_tag] = fields_u64::<4>(hline, header)?;
    let num_blocks = check_entity_count("declared element entity blocks", num_blocks, input_len)?;
    let declared = check_entity_count("declared element count", num_elements, input_len)?;
    let mut total = 0usize;
    for _ in 0..num_blocks {
        let (bline, bheader) = cur
            .next_content()
            .ok_or(ImportError::Truncated { section: SEC })?;
        let [dim, _tag, etype, in_block] = fields_u64::<4>(bline, bheader)?;
        let in_block = check_entity_count("declared block element count", in_block, input_len)?;
        let is_tet = dim == 3 && etype == 4;
        if dim == 3 && etype != 4 {
            return Err(ImportError::UnsupportedElement {
                line: bline,
                element_type: etype as u32,
            });
        }
        for _ in 0..in_block {
            let (eline, el) = cur
                .next_content()
                .ok_or(ImportError::Truncated { section: SEC })?;
            total += 1;
            if !is_tet {
                continue;
            }
            let mut it = el.split_whitespace();
            let _etag = it.next(); // element tag, unused
            let mut conn = [0u32; 4];
            for slot in conn.iter_mut() {
                let tok = it.next().ok_or_else(|| ImportError::Syntax {
                    line: eline,
                    msg: "tetrahedron needs 4 node tags".to_string(),
                })?;
                let tag: u64 = tok.parse().map_err(|_| ImportError::Syntax {
                    line: eline,
                    msg: format!("bad node tag {tok:?}"),
                })?;
                *slot = *tag_map.get(&tag).ok_or_else(|| ImportError::Syntax {
                    line: eline,
                    msg: format!("unknown node tag {tag}"),
                })?;
            }
            check_entity_count("cell count", cells.len() as u64 + 1, input_len)?;
            cells.push(conn);
        }
    }
    if total != declared {
        return Err(ImportError::CountMismatch {
            what: "elements",
            declared: declared as u64,
            actual: total as u64,
        });
    }
    cur.expect(SEC, "$EndElements")
}

/// Cheap `(nodes, elements)` upper bound from the `$Nodes` / `$Elements`
/// headers, without resolving tags or allocating entity storage.
pub(crate) fn peek(text: &str) -> Result<(usize, usize), ImportError> {
    let mut cur = Cursor::new(text);
    let mut nodes: Option<usize> = None;
    let mut elements: Option<usize> = None;
    while let Some((_, l)) = cur.next_content() {
        let want_nodes = l == "$Nodes";
        let want_elements = l == "$Elements";
        if !(want_nodes || want_elements) {
            continue;
        }
        let (hline, header) = cur.next_content().ok_or(ImportError::Truncated {
            section: if want_nodes { "$Nodes" } else { "$Elements" },
        })?;
        let [_, count, _, _] = fields_u64::<4>(hline, header)?;
        if want_nodes {
            nodes = Some(check_entity_count(
                "declared node count",
                count,
                text.len(),
            )?);
        } else {
            elements = Some(check_entity_count(
                "declared element count",
                count,
                text.len(),
            )?);
        }
    }
    match (nodes, elements) {
        (Some(n), Some(e)) => Ok((n, e)),
        (None, _) => Err(ImportError::EmptyMesh { what: "nodes" }),
        (_, None) => Err(ImportError::EmptyMesh { what: "cells" }),
    }
}

/// One unmatched (single-incidence) face awaiting hanging-node resolution.
struct Unmatched {
    key: [u32; 3],
    cell: u32,
    opp: u32,
    area_normal: Vec3,
    area: f64,
    centroid: Point3,
}

/// Derives face adjacency for an arbitrary (possibly non-conforming) tet
/// soup. See the module docs for the diagnostic and stitching semantics.
pub(crate) fn assemble_tets(
    vertices: &[Point3],
    cells: &[[u32; 4]],
    report: &mut ImportReport,
) -> Result<PolyMesh, ImportError> {
    let nv = vertices.len() as u32;
    for (ci, c) in cells.iter().enumerate() {
        for &v in c {
            if v >= nv {
                return Err(ImportError::Structure {
                    msg: format!("cell {ci} references out-of-range vertex {v}"),
                });
            }
        }
    }
    let scale = bbox_diag(vertices).max(1e-30);
    let vol_tol = 1e-12 * scale * scale * scale;
    let area_tol = 1e-12 * scale * scale;

    let mut centroids = Vec::with_capacity(cells.len());
    for (ci, c) in cells.iter().enumerate() {
        let [a, b, cc, d] = c.map(|v| vertices[v as usize]);
        let vol = tet_signed_volume(a, b, cc, d);
        if vol < 0.0 {
            report.inverted_cells.push(ci as u32);
        }
        if vol.abs() <= vol_tol {
            report.degenerate_cells.push(ci as u32);
        }
        centroids.push(tet_centroid(a, b, cc, d));
    }

    // The vertex opposite face slot `s = 4·cell + local face`.
    let opp = |s: u32| cells[s as usize / 4][TET_FACES[s as usize % 4].1];
    let face_geom = |key: [u32; 3]| {
        let [a, b, c] = key.map(|v| vertices[v as usize]);
        let an = triangle_area_normal(a, b, c);
        (an, 0.5 * an.norm(), triangle_centroid(a, b, c))
    };
    // Unit normal of face `key`, oriented away from the point `away`.
    // `None` when the face is degenerate.
    let oriented = |key: [u32; 3], an: Vec3, away: Point3| -> Option<Vec3> {
        let n = an.norm();
        if n <= area_tol {
            return None;
        }
        let mut unit = an / n;
        if unit.dot(away - vertices[key[0] as usize]) > 0.0 {
            unit = -unit;
        }
        Some(unit)
    };

    let mut interior = Vec::new();
    let mut boundary = Vec::new();
    let mut unmatched: Vec<Unmatched> = Vec::new();
    let mut degenerate_faces: Vec<u32> = Vec::new();
    let slots = 4 * cells.len();
    group_incidences(
        vertices.len(),
        slots,
        |s| face_key(cells, s),
        |key, group| {
            let (an, area, centroid) = face_geom(key);
            match *group {
                [s] => unmatched.push(Unmatched {
                    key,
                    cell: s / 4,
                    opp: opp(s),
                    area_normal: an,
                    area,
                    centroid,
                }),
                [s, t] => match oriented(key, an, vertices[opp(s) as usize]) {
                    Some(normal) => interior.push(InteriorFace {
                        a: CellId(s / 4),
                        b: CellId(t / 4),
                        normal,
                        area,
                    }),
                    None => degenerate_faces.push(s / 4),
                },
                _ => {
                    report
                        .non_manifold
                        .push(group.iter().map(|s| s / 4).collect());
                    for &s in group {
                        if let Some(normal) = oriented(key, an, vertices[opp(s) as usize]) {
                            boundary.push(BoundaryFace {
                                cell: CellId(s / 4),
                                normal,
                                area,
                            });
                        } else {
                            degenerate_faces.push(s / 4);
                        }
                    }
                }
            }
        },
    );

    // Hanging-node stitching over the unmatched faces. Each fine face is
    // matched to the containing coarse face with the smallest normalized
    // off-plane deviation (deterministic: candidates scanned in sorted key
    // order, strict improvement required to switch).
    let mut consumed = vec![false; unmatched.len()];
    let mut covered = vec![false; unmatched.len()];
    if unmatched.len() <= MAX_UNMATCHED_FOR_RESOLUTION {
        let mut hanging: Vec<u32> = Vec::new();
        for t in 0..unmatched.len() {
            if unmatched[t].area <= area_tol {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for big in 0..unmatched.len() {
                let (f, cf) = (&unmatched[t], &unmatched[big]);
                if t == big
                    || f.cell == cf.cell
                    || cf.area <= area_tol
                    || f.area >= cf.area * (1.0 - 1e-9)
                {
                    continue;
                }
                if let Some(score) = containment_score(vertices, cf, f) {
                    if best.is_none_or(|(_, s)| score < s) {
                        best = Some((big, score));
                    }
                }
            }
            let Some((big, _)) = best else {
                continue;
            };
            // Stitch: the fine face becomes an interior face between the
            // coarse cell and the fine cell, with the fine geometry.
            let (f, cf) = (&unmatched[t], &unmatched[big]);
            let coarse_centroid = centroids[cf.cell as usize];
            let mut normal = f.area_normal / f.area_normal.norm();
            if normal.dot(f.centroid - coarse_centroid) < 0.0 {
                normal = -normal;
            }
            interior.push(InteriorFace {
                a: CellId(cf.cell),
                b: CellId(f.cell),
                normal,
                area: f.area,
            });
            consumed[t] = true;
            covered[big] = true;
            report.hanging_resolved += 1;
            for v in f.key {
                if !cf.key.contains(&v) {
                    hanging.push(v);
                }
            }
        }
        hanging.sort_unstable();
        hanging.dedup();
        report.hanging_vertices = hanging;
    } else {
        report.resolution_skipped = true;
    }

    for (i, f) in unmatched.iter().enumerate() {
        if consumed[i] || covered[i] {
            continue;
        }
        match oriented(f.key, f.area_normal, vertices[f.opp as usize]) {
            Some(normal) => boundary.push(BoundaryFace {
                cell: CellId(f.cell),
                normal,
                area: f.area,
            }),
            None => degenerate_faces.push(f.cell),
        }
    }

    report.degenerate_cells.extend(degenerate_faces);
    report.degenerate_cells.sort_unstable();
    report.degenerate_cells.dedup();

    PolyMesh::from_parts(3, centroids, interior, boundary)
        .map_err(|msg| ImportError::Structure { msg })
}

/// Containment test for hanging-node stitching: `Some(score)` when every
/// vertex of fine face `f`, projected onto coarse face `cf`'s plane, lies
/// inside `cf` (barycentric tolerance 0.05) with off-plane distance at most
/// `0.6·√area(cf)` — a deliberately generous slab so warped (non-planar)
/// refinements still stitch. The score is the worst off-plane distance
/// normalized by `√area(cf)` (smaller is a better fit).
fn containment_score(vertices: &[Point3], cf: &Unmatched, f: &Unmatched) -> Option<f64> {
    let [a, b, c] = cf.key.map(|v| vertices[v as usize]);
    let n = cf.area_normal;
    let nn = n.norm();
    if nn <= 1e-300 {
        return None;
    }
    let unit = n / nn;
    let span = cf.area.sqrt();
    let slab = 0.6 * span;
    let (e1, e2) = (b - a, c - a);
    let (d11, d12, d22) = (e1.dot(e1), e1.dot(e2), e2.dot(e2));
    let det = d11 * d22 - d12 * d12;
    if det.abs() <= 1e-300 {
        return None;
    }
    let mut worst = 0.0f64;
    for vp in f.key {
        let p = vertices[vp as usize];
        let off = (p - a).dot(unit);
        if off.abs() > slab {
            return None;
        }
        worst = worst.max(off.abs());
        let d = p - a - unit * off;
        let (r1, r2) = (d.dot(e1), d.dot(e2));
        let u = (d22 * r1 - d12 * r2) / det;
        let v = (d11 * r2 - d12 * r1) / det;
        if u < -0.05 || v < -0.05 || u + v > 1.05 {
            return None;
        }
    }
    Some(worst / span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::SweepMesh;
    use crate::import::{import_bytes, ImportFormat, Imported};

    /// Minimal valid wrapper: two tets sharing face (1,2,3), tags 1-based.
    fn two_tet_msh() -> String {
        msh_of(
            &[
                (1, [0.0, 0.0, 0.0]),
                (2, [1.0, 0.0, 0.0]),
                (3, [0.0, 1.0, 0.0]),
                (4, [0.3, 0.3, 1.0]),
                (5, [0.3, 0.3, -1.0]),
            ],
            &[[1, 2, 3, 4], [2, 1, 3, 5]],
        )
    }

    /// Renders a tag/coordinate list and tet list as one-block v4.1 ASCII.
    fn msh_of(nodes: &[(u64, [f64; 3])], tets: &[[u64; 4]]) -> String {
        let mut s = String::from("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n");
        s.push_str(&format!("1 {} 1 {}\n", nodes.len(), nodes.len()));
        s.push_str(&format!("3 1 0 {}\n", nodes.len()));
        for (tag, _) in nodes {
            s.push_str(&format!("{tag}\n"));
        }
        for (_, [x, y, z]) in nodes {
            s.push_str(&format!("{x} {y} {z}\n"));
        }
        s.push_str("$EndNodes\n$Elements\n");
        s.push_str(&format!("1 {} 1 {}\n", tets.len(), tets.len()));
        s.push_str(&format!("3 1 4 {}\n", tets.len()));
        for (i, t) in tets.iter().enumerate() {
            s.push_str(&format!("{} {} {} {} {}\n", i + 1, t[0], t[1], t[2], t[3]));
        }
        s.push_str("$EndElements\n");
        s
    }

    fn import(text: &str) -> Imported {
        import_bytes(text.as_bytes(), ImportFormat::Msh).unwrap()
    }

    #[test]
    fn two_tets_round_trip() {
        let got = import(&two_tet_msh());
        assert_eq!(got.mesh.num_cells(), 2);
        assert_eq!(got.mesh.interior_faces().len(), 1);
        assert_eq!(got.mesh.boundary_faces().len(), 6);
        let f = got.mesh.interior_faces()[0];
        let dir = got.mesh.centroid(f.b) - got.mesh.centroid(f.a);
        assert!(f.normal.dot(dir) > 0.0);
        assert!(!got.report.has_errors());
    }

    #[test]
    fn sparse_tags_resolve() {
        let got = import(&msh_of(
            &[
                (10, [0.0, 0.0, 0.0]),
                (20, [1.0, 0.0, 0.0]),
                (30, [0.0, 1.0, 0.0]),
                (77, [0.3, 0.3, 1.0]),
            ],
            &[[10, 20, 30, 77]],
        ));
        assert_eq!(got.mesh.num_cells(), 1);
        assert_eq!(got.mesh.boundary_faces().len(), 4);
    }

    #[test]
    fn surface_elements_are_skipped_and_hexes_rejected() {
        // A triangle block (dim 2, type 2) alongside the tet block parses.
        let base = two_tet_msh();
        let with_tri = base.replace(
            "$Elements\n1 2 1 2\n",
            "$Elements\n2 3 1 3\n2 1 2 1\n9 1 2 3\n",
        );
        let got = import(&with_tri);
        assert_eq!(got.mesh.num_cells(), 2);
        // A hex block (dim 3, type 5) is a typed error.
        let with_hex = base.replace("3 1 4 2\n", "3 1 5 2\n");
        let err = import_bytes(with_hex.as_bytes(), ImportFormat::Msh).unwrap_err();
        assert!(matches!(
            err,
            ImportError::UnsupportedElement {
                element_type: 5,
                ..
            }
        ));
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let full = two_tet_msh();
        // Cut the file at every line boundary; all prefixes must fail with a
        // typed error (and never panic).
        let mut at = 0usize;
        while let Some(nl) = full[at..].find('\n') {
            at += nl + 1;
            if at >= full.len() {
                break;
            }
            let err = import_bytes(&full.as_bytes()[..at], ImportFormat::Msh).unwrap_err();
            assert!(
                matches!(
                    err,
                    ImportError::Truncated { .. }
                        | ImportError::Syntax { .. }
                        | ImportError::EmptyMesh { .. }
                        | ImportError::CountMismatch { .. }
                ),
                "prefix of {at} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn huge_declared_counts_rejected_cheaply() {
        for huge in ["18446744073709551615", "4294967296", "123456789123"] {
            let text = format!("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n1 {huge} 1 {huge}\n");
            let err = import_bytes(text.as_bytes(), ImportFormat::Msh).unwrap_err();
            assert!(
                matches!(err, ImportError::TooLarge { .. }),
                "{huge}: {err:?}"
            );
        }
        // Larger than u64 entirely: a syntax error, not a wrapped panic.
        let text =
            "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n1 99999999999999999999999999 1 1\n";
        assert!(matches!(
            import_bytes(text.as_bytes(), ImportFormat::Msh).unwrap_err(),
            ImportError::Syntax { .. }
        ));
    }

    #[test]
    fn count_mismatch_detected() {
        // Declare 6 nodes but provide 5.
        let text = two_tet_msh().replace("1 5 1 5\n3 1 0 5\n", "1 6 1 6\n3 1 0 5\n");
        let err = import_bytes(text.as_bytes(), ImportFormat::Msh).unwrap_err();
        assert!(
            matches!(err, ImportError::CountMismatch { what: "nodes", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn zero_node_and_unknown_tag_files() {
        let empty = "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n0 0 0 0\n$EndNodes\n$Elements\n0 0 0 0\n$EndElements\n";
        assert!(matches!(
            import_bytes(empty.as_bytes(), ImportFormat::Msh).unwrap_err(),
            ImportError::EmptyMesh { what: "nodes" }
        ));
        let bad_tag = two_tet_msh().replace("2 2 1 3 5\n", "2 2 1 3 99\n");
        assert!(matches!(
            import_bytes(bad_tag.as_bytes(), ImportFormat::Msh).unwrap_err(),
            ImportError::Syntax { .. }
        ));
    }

    #[test]
    fn binary_and_v2_headers_rejected() {
        for header in ["2.2 0 8", "4.1 1 8"] {
            let text = format!("$MeshFormat\n{header}\n$EndMeshFormat\n");
            assert!(matches!(
                import_bytes(text.as_bytes(), ImportFormat::Msh).unwrap_err(),
                ImportError::Syntax { .. }
            ));
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let text = two_tet_msh().replace(
            "$Nodes\n",
            "$PhysicalNames\n1\n3 1 \"domain\"\n$EndPhysicalNames\n$Nodes\n",
        );
        assert_eq!(import(&text).mesh.num_cells(), 2);
    }

    #[test]
    fn inverted_cell_reported_not_rejected() {
        // Swap two vertices of the second tet: negative signed volume.
        let text = two_tet_msh().replace("2 2 1 3 5\n", "2 1 2 3 5\n");
        let got = import(&text);
        assert_eq!(got.report.inverted_cells, vec![1]);
        assert!(!got.report.has_errors());
        // Geometry-derived orientation is unchanged: still one interior face.
        assert_eq!(got.mesh.interior_faces().len(), 1);
    }

    #[test]
    fn non_manifold_face_reported_without_dependence() {
        let got = import(&msh_of(
            &[
                (1, [0.0, 0.0, 0.0]),
                (2, [1.0, 0.0, 0.0]),
                (3, [0.0, 1.0, 0.0]),
                (4, [0.3, 0.3, 1.0]),
                (5, [0.3, 0.3, -1.0]),
                (6, [0.9, 0.9, 1.0]),
            ],
            &[[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6]],
        ));
        assert_eq!(got.report.non_manifold.len(), 1);
        assert!(got.report.has_errors());
        assert_eq!(got.mesh.interior_faces().len(), 0);
    }

    #[test]
    fn hanging_node_t_junction_is_stitched() {
        // Coarse tet under z=0 with top face (1,2,3); three fine tets above
        // sharing apex node 6 and hanging node 5 at the face centroid.
        let nodes = [
            (1, [0.0, 0.0, 0.0]),
            (2, [1.0, 0.0, 0.0]),
            (3, [0.0, 1.0, 0.0]),
            (4, [0.33, 0.33, -1.0]),  // coarse apex below
            (5, [0.333, 0.333, 0.0]), // hanging node on the coarse face
            (6, [0.33, 0.33, 0.8]),   // fine apex above
        ];
        let tets = [
            [1, 2, 3, 4], // coarse
            [1, 2, 5, 6],
            [2, 3, 5, 6],
            [3, 1, 5, 6],
        ];
        let got = import(&msh_of(&nodes, &tets));
        assert_eq!(got.report.hanging_resolved, 3);
        assert_eq!(got.report.hanging_vertices, vec![4]); // dense id of tag 5
        assert!(!got.report.has_errors());
        // 3 stitched + 3 fine-fine interior faces.
        assert_eq!(got.mesh.interior_faces().len(), 6);
        assert_eq!(got.mesh.connected_component_size(), 4);
        // Each stitched face runs coarse -> fine.
        let stitched: Vec<_> = got
            .mesh
            .interior_faces()
            .iter()
            .filter(|f| f.a == CellId(0))
            .collect();
        assert_eq!(stitched.len(), 3);
        for f in stitched {
            assert!(
                f.normal.z > 0.5,
                "stitched normal should point up: {:?}",
                f.normal
            );
        }
    }

    #[test]
    fn peek_counts_msh() {
        let (v, c) = peek(&two_tet_msh()).unwrap();
        assert_eq!((v, c), (5, 2));
        assert!(matches!(
            peek("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n"),
            Err(ImportError::EmptyMesh { .. })
        ));
    }
}
