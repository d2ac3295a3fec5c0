//! The sweep-scheduling *instance*: a shared cell set plus one DAG per
//! direction (paper §3).
//!
//! Tasks are the pairs `(v, i)` of cell `v` and direction `i`, identified
//! densely as `task = i·n + v` (see [`TaskId`]). Besides mesh-induced
//! instances, this module provides synthetic generators used by tests,
//! property tests, and the adversarial experiment family.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sweep_mesh::SweepMesh;
use sweep_quadrature::QuadratureSet;
use sweep_telemetry as telemetry;

use crate::graph::TaskDag;
use crate::induce::{induce_all, InduceStats};
use crate::levels::{levels, Levels};

/// Dense identifier of a task `(cell, direction)`: `task = dir·n + cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Packs `(cell, dir)` given the instance's cell count.
    #[inline]
    pub fn pack(cell: u32, dir: u32, n: usize) -> TaskId {
        TaskId(dir as u64 * n as u64 + cell as u64)
    }

    /// Unpacks into `(cell, dir)`.
    #[inline]
    pub fn unpack(self, n: usize) -> (u32, u32) {
        ((self.0 % n as u64) as u32, (self.0 / n as u64) as u32)
    }

    /// Raw index for dense arrays of size `n·k`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A sweep-scheduling instance: `n` cells and `k` precedence DAGs over them.
#[derive(Debug, Clone)]
pub struct SweepInstance {
    n: usize,
    dags: Vec<TaskDag>,
    name: String,
}

impl SweepInstance {
    /// Builds an instance from explicit DAGs.
    ///
    /// # Panics
    /// Panics if any DAG has a node count different from `n`, if `k = 0`,
    /// or if any DAG is cyclic.
    pub fn new(n: usize, dags: Vec<TaskDag>, name: impl Into<String>) -> SweepInstance {
        let instance = SweepInstance::new_unchecked(n, dags, name);
        for (i, d) in instance.dags.iter().enumerate() {
            assert!(d.is_acyclic(), "DAG {i} is cyclic");
        }
        instance
    }

    /// Builds an instance **without** the acyclicity check (node counts
    /// are still enforced). Schedulers require acyclic DAGs, so only hand
    /// instances built this way to `sweep-analyze`, which detects cycles
    /// and reports a witness instead of panicking.
    ///
    /// # Panics
    /// Panics if any DAG has a node count different from `n` or `k = 0`.
    pub fn new_unchecked(n: usize, dags: Vec<TaskDag>, name: impl Into<String>) -> SweepInstance {
        assert!(!dags.is_empty(), "instance needs at least one direction");
        for (i, d) in dags.iter().enumerate() {
            assert_eq!(d.num_nodes(), n, "DAG {i} has wrong node count");
        }
        SweepInstance {
            n,
            dags,
            name: name.into(),
        }
    }

    /// Induces the instance from a mesh and a quadrature set (cycles broken
    /// geometrically); also returns per-direction induction statistics.
    ///
    /// Per-direction inductions run on the global thread pool (see
    /// [`induce_all`]); the `Sync` bound lets workers share the mesh.
    pub fn from_mesh(
        mesh: &(impl SweepMesh + Sync),
        quadrature: &QuadratureSet,
        name: impl Into<String>,
    ) -> (SweepInstance, Vec<InduceStats>) {
        let _span = telemetry::span!("dag.instance.from_mesh");
        let (dags, stats) = induce_all(mesh, quadrature);
        (
            SweepInstance {
                n: mesh.num_cells(),
                dags,
                name: name.into(),
            },
            stats,
        )
    }

    /// Number of cells `n`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.n
    }

    /// Number of directions `k`.
    #[inline]
    pub fn num_directions(&self) -> usize {
        self.dags.len()
    }

    /// Total number of tasks `n·k`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.n * self.dags.len()
    }

    /// The DAG of direction `i`.
    #[inline]
    pub fn dag(&self, i: usize) -> &TaskDag {
        &self.dags[i]
    }

    /// All DAGs.
    #[inline]
    pub fn dags(&self) -> &[TaskDag] {
        &self.dags
    }

    /// Instance name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Level decompositions of every direction.
    pub fn all_levels(&self) -> Vec<Levels> {
        self.dags.iter().map(levels).collect()
    }

    /// The paper's `D`: maximum number of layers over all directions
    /// (`O(k)`: every DAG stores its depth).
    pub fn max_depth(&self) -> usize {
        self.dags.iter().map(TaskDag::depth).max().unwrap_or(0)
    }

    /// Total number of precedence edges over all directions.
    pub fn total_edges(&self) -> usize {
        self.dags.iter().map(TaskDag::num_edges).sum()
    }

    // ---------------------------------------------------------------
    // Synthetic generators
    // ---------------------------------------------------------------

    /// Random layered instance: each direction partitions the cells into
    /// `depth` layers uniformly at random and adds up to `max_preds` edges
    /// from the previous layer to every node. Acyclic by construction.
    ///
    /// # Panics
    /// Panics when `n == 0`, `k == 0` or `depth == 0`.
    pub fn random_layered(
        n: usize,
        k: usize,
        depth: usize,
        max_preds: usize,
        seed: u64,
    ) -> SweepInstance {
        assert!(n > 0 && k > 0 && depth > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dags = Vec::with_capacity(k);
        for _ in 0..k {
            // Random layer for every node; layer sets are then compacted.
            let layer_of: Vec<usize> = (0..n).map(|_| rng.random_range(0..depth)).collect();
            let mut by_layer: Vec<Vec<u32>> = vec![Vec::new(); depth];
            for (v, &l) in layer_of.iter().enumerate() {
                by_layer[l].push(v as u32);
            }
            by_layer.retain(|l| !l.is_empty());
            let mut edges = Vec::new();
            for w in 1..by_layer.len() {
                let prev = &by_layer[w - 1];
                for &v in &by_layer[w] {
                    let preds = rng.random_range(1..=max_preds.max(1));
                    for _ in 0..preds {
                        let u = prev[rng.random_range(0..prev.len())];
                        edges.push((u, v));
                    }
                }
            }
            dags.push(TaskDag::from_edges(n, &edges));
        }
        SweepInstance::new(n, dags, format!("random_layered(n={n},k={k},d={depth})"))
    }

    /// Every direction is an independent random permutation *chain* over all
    /// cells — the fully sequential worst case mentioned in the paper's
    /// introduction ("if all the cells in some direction form a chain, the
    /// computation has to proceed sequentially").
    pub fn random_chains(n: usize, k: usize, seed: u64) -> SweepInstance {
        assert!(n > 0 && k > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dags = Vec::with_capacity(k);
        for _ in 0..k {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            rand::seq::SliceRandom::shuffle(perm.as_mut_slice(), &mut rng);
            let edges: Vec<(u32, u32)> = perm.windows(2).map(|w| (w[0], w[1])).collect();
            dags.push(TaskDag::from_edges(n, &edges));
        }
        SweepInstance::new(n, dags, format!("random_chains(n={n},k={k})"))
    }

    /// Adversarial family: **all `k` directions share one identical chain**
    /// over the `n` cells.
    ///
    /// Layer-sequential scheduling *without* random delays needs `≈ n·k`
    /// steps (the `k` copies of each cell live in the same combined layer
    /// and serialize on the cell's processor, and layers are processed one
    /// at a time), while the same algorithm *with* random delays — and any
    /// list schedule — pipelines to `≈ n + k`. This realizes the separation
    /// the Figure 3(a) ablation probes.
    pub fn identical_chains(n: usize, k: usize) -> SweepInstance {
        assert!(n > 0 && k > 0);
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let dag = TaskDag::from_edges(n, &edges);
        let dags = vec![dag; k];
        SweepInstance::new(n, dags, format!("identical_chains(n={n},k={k})"))
    }

    /// Wide-layer instance with a single bottleneck cell between
    /// consecutive layers, shared by every direction. Stresses both the
    /// same-processor constraint (the bottleneck's `k` copies serialize)
    /// and layer-width imbalance.
    pub fn bottleneck(width: usize, depth: usize, k: usize) -> SweepInstance {
        assert!(width > 0 && depth > 0 && k > 0);
        // Layout: depth blocks of `width` wide cells, with a bottleneck
        // cell after each block: [w cells][b][w cells][b]...
        let n = depth * (width + 1);
        let mut edges = Vec::new();
        for d in 0..depth {
            let base = (d * (width + 1)) as u32;
            let bott = base + width as u32;
            for w in 0..width as u32 {
                edges.push((base + w, bott));
                if d + 1 < depth {
                    let next_base = bott + 1;
                    edges.push((bott, next_base + w));
                }
            }
        }
        let dag = TaskDag::from_edges(n, &edges);
        let dags = vec![dag; k];
        SweepInstance::new(n, dags, format!("bottleneck(w={width},d={depth},k={k})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_mesh::TriMesh2d;

    #[test]
    fn task_id_round_trips() {
        let n = 1000;
        for (c, d) in [(0u32, 0u32), (999, 0), (0, 23), (123, 7)] {
            let t = TaskId::pack(c, d, n);
            assert_eq!(t.unpack(n), (c, d));
        }
    }

    #[test]
    fn from_mesh_builds_k_dags() {
        let mesh = TriMesh2d::unit_square(4, 4, 0.2, 1).unwrap();
        let quad = QuadratureSet::uniform_2d(6).unwrap();
        let (inst, stats) = SweepInstance::from_mesh(&mesh, &quad, "t");
        assert_eq!(inst.num_cells(), 32);
        assert_eq!(inst.num_directions(), 6);
        assert_eq!(inst.num_tasks(), 192);
        assert_eq!(stats.len(), 6);
        assert!(inst.max_depth() >= 2);
        assert!(inst.total_edges() > 0);
    }

    #[test]
    fn random_layered_is_acyclic_and_deterministic() {
        let a = SweepInstance::random_layered(100, 4, 10, 3, 42);
        let b = SweepInstance::random_layered(100, 4, 10, 3, 42);
        for i in 0..4 {
            assert!(a.dag(i).is_acyclic());
            assert_eq!(a.dag(i).num_edges(), b.dag(i).num_edges());
        }
        assert!(a.max_depth() <= 10);
    }

    #[test]
    fn random_chains_have_full_depth() {
        let inst = SweepInstance::random_chains(50, 3, 7);
        assert_eq!(inst.max_depth(), 50);
        for i in 0..3 {
            assert_eq!(inst.dag(i).num_edges(), 49);
            assert_eq!(inst.dag(i).sources().len(), 1);
            assert_eq!(inst.dag(i).sinks().len(), 1);
        }
    }

    #[test]
    fn identical_chains_share_structure() {
        let inst = SweepInstance::identical_chains(20, 5);
        assert_eq!(inst.num_directions(), 5);
        for i in 0..5 {
            assert_eq!(inst.dag(i).num_edges(), 19);
        }
        assert_eq!(inst.max_depth(), 20);
    }

    #[test]
    fn bottleneck_structure() {
        let inst = SweepInstance::bottleneck(4, 3, 2);
        assert_eq!(inst.num_cells(), 15);
        // Depth: w -> b -> w -> b -> w -> b = 6 levels.
        assert_eq!(inst.max_depth(), 6);
        let lv = inst.all_levels();
        assert_eq!(lv[0].max_width(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one direction")]
    fn empty_direction_set_panics() {
        SweepInstance::new(3, vec![], "bad");
    }

    #[test]
    #[should_panic(expected = "wrong node count")]
    fn mismatched_dag_panics() {
        SweepInstance::new(3, vec![TaskDag::edgeless(4)], "bad");
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cyclic_dag_panics() {
        let g = TaskDag::from_edges(2, &[(0, 1), (1, 0)]);
        SweepInstance::new(2, vec![g], "bad");
    }
}
