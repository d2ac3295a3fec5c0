//! Face-level view of a mesh: the only mesh information sweep scheduling
//! actually consumes.
//!
//! A sweep direction `ω` induces a dependence edge across every interior face
//! whose unit normal `n` (oriented from cell [`InteriorFace::a`] towards cell
//! [`InteriorFace::b`]) satisfies `n · ω > 0` — cell `a` is then *upstream*
//! of cell `b` in that direction. Everything else about the mesh (vertex
//! coordinates, element shapes) is irrelevant to the scheduler, so the
//! [`SweepMesh`] trait exposes exactly this view and lets the DAG-induction
//! code work uniformly over 3-D tetrahedral and 2-D triangular meshes.

use crate::geometry::{Point3, Vec3};

/// Identifier of a mesh cell. Cells are densely numbered `0..num_cells`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell's dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A face shared by two cells.
#[derive(Debug, Clone, Copy)]
pub struct InteriorFace {
    /// First incident cell; `normal` points from `a` into `b`.
    pub a: CellId,
    /// Second incident cell.
    pub b: CellId,
    /// Unit normal oriented from `a` towards `b`.
    pub normal: Vec3,
    /// Face area (length in 2-D).
    pub area: f64,
}

/// A face on the domain boundary, incident to exactly one cell.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryFace {
    /// The unique incident cell.
    pub cell: CellId,
    /// Unit outward normal (pointing out of the domain).
    pub normal: Vec3,
    /// Face area (length in 2-D).
    pub area: f64,
}

/// The mesh interface consumed by DAG induction, partitioning, and the toy
/// transport solver.
pub trait SweepMesh {
    /// Number of cells; cells are identified by `CellId(0..num_cells)`.
    fn num_cells(&self) -> usize;

    /// All interior (two-cell) faces.
    fn interior_faces(&self) -> &[InteriorFace];

    /// All boundary (one-cell) faces.
    fn boundary_faces(&self) -> &[BoundaryFace];

    /// Centroid of a cell — used for geometric cycle breaking and plots.
    fn centroid(&self, c: CellId) -> Point3;

    /// Spatial dimension (2 or 3).
    fn dim(&self) -> usize;

    /// Undirected cell-adjacency graph in CSR form:
    /// `(xadj, adjncy)` with neighbours of cell `c` in
    /// `adjncy[xadj[c]..xadj[c+1]]`. This is the graph handed to the
    /// partitioner (the paper's METIS input).
    fn adjacency_csr(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.num_cells();
        let faces = self.interior_faces();
        let mut deg = vec![0u32; n];
        for f in faces {
            deg[f.a.index()] += 1;
            deg[f.b.index()] += 1;
        }
        let mut xadj = vec![0u32; n + 1];
        for c in 0..n {
            xadj[c + 1] = xadj[c] + deg[c];
        }
        let mut adjncy = vec![0u32; xadj[n] as usize];
        let mut cursor: Vec<u32> = xadj[..n].to_vec();
        for f in faces {
            adjncy[cursor[f.a.index()] as usize] = f.b.0;
            cursor[f.a.index()] += 1;
            adjncy[cursor[f.b.index()] as usize] = f.a.0;
            cursor[f.b.index()] += 1;
        }
        (xadj, adjncy)
    }

    /// Number of cells reachable from cell 0 by face adjacency; equals
    /// `num_cells` iff the mesh is connected.
    fn connected_component_size(&self) -> usize {
        let (xadj, adjncy) = self.adjacency_csr();
        let n = self.num_cells();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 0usize;
        while let Some(c) = stack.pop() {
            count += 1;
            let (s, e) = (xadj[c as usize] as usize, xadj[c as usize + 1] as usize);
            for &nb in &adjncy[s..e] {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    stack.push(nb);
                }
            }
        }
        count
    }
}

/// Groups incidence slots (`K·cell + local` face or edge) by their sorted
/// `N`-vertex keys, vertex indices `< nv`: `each(key, slots)` runs once
/// per distinct key, in key order, with that key's slots ascending. Keys
/// are counting-sorted on their smallest vertex and each bucket is sorted
/// on `(rest of key, slot)`: no hashing and no allocation per key.
pub(crate) fn group_incidences<const N: usize>(
    nv: usize,
    slots: usize,
    key: impl Fn(usize) -> [u32; N],
    mut each: impl FnMut([u32; N], &[u32]),
) {
    let mut start = vec![0u32; nv + 1];
    for s in 0..slots {
        start[key(s)[0] as usize + 1] += 1;
    }
    for v in 0..nv {
        start[v + 1] += start[v];
    }
    // A bucket entry is the key past its smallest vertex, then the slot.
    let mut next = start.clone();
    let mut bucketed = vec![[0u32; N]; slots];
    for s in 0..slots {
        let k = key(s);
        let entry = &mut bucketed[next[k[0] as usize] as usize];
        entry[..N - 1].copy_from_slice(&k[1..]);
        entry[N - 1] = s as u32;
        next[k[0] as usize] += 1;
    }
    let (mut k, mut group) = ([0u32; N], Vec::new());
    for v in 0..nv {
        let bucket = &mut bucketed[start[v] as usize..start[v + 1] as usize];
        bucket.sort_unstable();
        for run in bucket.chunk_by(|x, y| x[..N - 1] == y[..N - 1]) {
            k[0] = v as u32;
            k[1..].copy_from_slice(&run[0][..N - 1]);
            group.clear();
            group.extend(run.iter().map(|e| e[N - 1]));
            each(k, &group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-cell mesh: cells 0 and 1 share one face with normal
    /// +x (pointing from 0 into 1).
    struct TwoCells;

    impl SweepMesh for TwoCells {
        fn num_cells(&self) -> usize {
            2
        }
        fn interior_faces(&self) -> &[InteriorFace] {
            const F: [InteriorFace; 1] = [InteriorFace {
                a: CellId(0),
                b: CellId(1),
                normal: Vec3 {
                    x: 1.0,
                    y: 0.0,
                    z: 0.0,
                },
                area: 1.0,
            }];
            &F
        }
        fn boundary_faces(&self) -> &[BoundaryFace] {
            &[]
        }
        fn centroid(&self, c: CellId) -> Point3 {
            Point3::new(c.0 as f64, 0.0, 0.0)
        }
        fn dim(&self) -> usize {
            3
        }
    }

    #[test]
    fn adjacency_of_two_cells() {
        let m = TwoCells;
        let (xadj, adjncy) = m.adjacency_csr();
        assert_eq!(xadj, vec![0, 1, 2]);
        assert_eq!(adjncy, vec![1, 0]);
        assert_eq!(m.connected_component_size(), 2);
    }

    #[test]
    fn cell_id_display_and_index() {
        assert_eq!(CellId(7).to_string(), "c7");
        assert_eq!(CellId(7).index(), 7);
    }

    #[test]
    fn groups_come_in_key_order_with_slots_ascending() {
        let keys = [[2, 3], [0, 4], [2, 3], [0, 1], [0, 4], [2, 3], [1, 2]];
        let mut got = Vec::new();
        group_incidences(5, keys.len(), |s| keys[s], |k, g| got.push((k, g.to_vec())));
        let want = vec![
            ([0, 1], vec![3]),
            ([0, 4], vec![1, 4]),
            ([1, 2], vec![6]),
            ([2, 3], vec![0, 2, 5]),
        ];
        assert_eq!(got, want);
    }
}
