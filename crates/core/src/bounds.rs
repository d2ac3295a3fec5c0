//! Lower bounds on the optimal sweep makespan: the paper's
//! `OPT ≥ max{nk/m, k, D}` (proof of Lemma 4; its experiments compare
//! against `nk/m`, "Lower Bound of the Makespan", §5). `k` holds because
//! all `k` copies of a cell share one processor. A Graham witness,
//! `⌈T·m/(2m − 1)⌉` for the greedy makespan `T` of the union DAG, never
//! beats `max(⌈nk/m⌉, D)`, because greedy unit tasks obey
//! `T·m ≤ nk + (m − 1)·D`; it is not computed.

use sweep_dag::SweepInstance;

/// The individual lower bounds for an instance on `m` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBounds {
    /// `⌈nk/m⌉` — average load per processor.
    pub avg_load: u64,
    /// `k` — each cell's copies serialize on one processor.
    pub directions: u64,
    /// `D` — the deepest critical path over all directions.
    pub depth: u64,
}

impl LowerBounds {
    /// The best (largest) of the bounds: what a makespan is certified
    /// against.
    pub fn best(&self) -> u64 {
        self.paper()
    }

    /// The paper's bound `max{nk/m, k, D}` — what the experimental
    /// sections normalize against.
    pub fn paper(&self) -> u64 {
        self.avg_load.max(self.directions).max(self.depth)
    }
}

/// Computes all lower bounds in `O(k)`: a read of the task count, `k`
/// and the depth every DAG stores.
///
/// ```
/// use sweep_core::lower_bounds;
/// use sweep_dag::SweepInstance;
///
/// let inst = SweepInstance::identical_chains(20, 4); // 80 tasks, depth 20
/// let lb = lower_bounds(&inst, 8);
/// assert_eq!(lb.avg_load, 10);    // ⌈80/8⌉
/// assert_eq!(lb.depth, 20);       // the chain
/// assert_eq!(lb.best(), 20);
/// ```
///
/// # Panics
/// Panics when `m == 0`.
pub fn lower_bounds(instance: &SweepInstance, m: usize) -> LowerBounds {
    assert!(m > 0, "need at least one processor");
    LowerBounds {
        avg_load: (instance.num_tasks() as u64).div_ceil(m as u64),
        directions: instance.num_directions() as u64,
        depth: instance.max_depth() as u64,
    }
}

/// Convenience: the ratio of a makespan to the paper's lower bound
/// (`nk/m`-style), the quantity plotted in Figures 2–3.
pub fn approx_ratio(instance: &SweepInstance, m: usize, makespan: u32) -> f64 {
    let lb = lower_bounds(instance, m).paper();
    if lb == 0 {
        return 1.0;
    }
    makespan as f64 / lb as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::assignment::Assignment;
    use crate::list_schedule::greedy_schedule;
    use sweep_dag::TaskDag;

    #[test]
    fn bounds_on_chain_instance() {
        let inst = SweepInstance::identical_chains(20, 4);
        let b = lower_bounds(&inst, 8);
        assert_eq!(b.avg_load, 10); // 80/8
        assert_eq!(b.directions, 4);
        assert_eq!(b.depth, 20);
        assert_eq!(b.paper(), 20);
        assert!(b.best() >= 20);
    }

    #[test]
    fn single_processor_bound_is_exact() {
        let inst = SweepInstance::random_layered(30, 3, 4, 2, 1);
        let b = lower_bounds(&inst, 1);
        // m = 1: ⌈nk/m⌉ = nk, which one processor meets exactly.
        assert_eq!(b.avg_load, 90);
        let s = greedy_schedule(&inst, Assignment::single(30));
        assert_eq!(s.makespan() as u64, b.best());
    }

    #[test]
    fn every_schedule_respects_the_bounds() {
        for seed in 0..5u64 {
            let inst = SweepInstance::random_layered(60, 4, 6, 2, seed);
            for m in [2usize, 4, 16] {
                let b = lower_bounds(&inst, m);
                let a = Assignment::random_cells(60, m, seed);
                let s = Algorithm::RandomDelayPriorities.run(&inst, a, seed);
                assert!(
                    s.makespan() as u64 >= b.best(),
                    "makespan {} below lower bound {}",
                    s.makespan(),
                    b.best()
                );
            }
        }
    }

    #[test]
    fn avg_load_binds_on_wide_shallow_instances() {
        // Wide instance with one dependency layer: depth small, k small,
        // avg load the binding constraint, and greedy meets it exactly.
        let inst = SweepInstance::new(64, vec![TaskDag::edgeless(64)], "wide");
        let b = lower_bounds(&inst, 8);
        assert_eq!((b.avg_load, b.directions, b.depth), (8, 1, 1));
        assert_eq!(b.best(), 8);
        let s = greedy_schedule(&inst, Assignment::round_robin(64, 8));
        assert_eq!(s.makespan() as u64, b.best());
    }

    #[test]
    fn approx_ratio_normalizes() {
        let inst = SweepInstance::identical_chains(10, 2);
        let r = approx_ratio(&inst, 4, 20);
        assert!((r - 2.0).abs() < 1e-12); // lb = depth = 10
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_panics() {
        lower_bounds(&SweepInstance::identical_chains(4, 1), 0);
    }
}
