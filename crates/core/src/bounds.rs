//! Lower bounds on the optimal sweep makespan.
//!
//! The paper's analysis uses `OPT ≥ max{nk/m, k, D}` (proof of Lemma 4)
//! and its experiments compare against `nk/m` ("Lower Bound of the
//! Makespan", §5). Two further sound bounds are implemented:
//!
//! * **per-cell serialization** — all `k` copies of a cell share one
//!   processor, so `OPT ≥ k` (subsumed by the paper's `k` bound, listed
//!   separately for clarity);
//! * **Graham witness** — relaxing the same-processor constraint can only
//!   help, so `OPT_sweep ≥ OPT_relaxed ≥ graham/(2 − 1/m)` where `graham`
//!   is the greedy makespan of the union DAG on `m` machines \[Graham\].

use sweep_dag::SweepInstance;

use crate::improved::graham_union_steps;

/// The individual lower bounds for an instance on `m` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBounds {
    /// `⌈nk/m⌉` — average load per processor.
    pub avg_load: u64,
    /// `k` — each cell's copies serialize on one processor.
    pub directions: u64,
    /// `D` — the deepest critical path over all directions.
    pub depth: u64,
    /// `⌈graham · m / (2m − 1)⌉` — Graham-witness bound on the relaxed
    /// problem.
    pub graham: u64,
}

impl LowerBounds {
    /// The best (largest) of the bounds.
    pub fn best(&self) -> u64 {
        self.avg_load
            .max(self.directions)
            .max(self.depth)
            .max(self.graham)
    }

    /// The paper's bound `max{nk/m, k, D}` (without the Graham witness) —
    /// what the experimental sections normalize against.
    pub fn paper(&self) -> u64 {
        self.avg_load.max(self.directions).max(self.depth)
    }
}

/// Computes all lower bounds. `O(n·k + |E| + T·⌈nk/4096⌉)`, `T` the
/// Graham witness's makespan (see [`graham_union_steps`]).
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
    let nk = instance.num_tasks() as u64;
    let avg_load = nk.div_ceil(m as u64);
    let directions = instance.num_directions() as u64;
    let depth = instance.max_depth() as u64;
    let (_, graham_t) = graham_union_steps(instance, m);
    // graham ≤ (2 - 1/m)·OPT  ⇒  OPT ≥ graham·m/(2m - 1).
    let graham = (graham_t as u64 * m as u64).div_ceil(2 * m as u64 - 1);
    LowerBounds {
        avg_load,
        directions,
        depth,
        graham,
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
    use crate::assignment::Assignment;
    use crate::list_schedule::greedy_schedule;
    use crate::random_delay::random_delay_priorities;
    use sweep_dag::TaskDag;

    #[test]
    fn bounds_on_chain_instance() {
        let inst = SweepInstance::identical_chains(20, 4);
        let b = lower_bounds(&inst, 8);
        assert_eq!(b.avg_load, 10); // 80/8
        assert_eq!(b.directions, 4);
        assert_eq!(b.depth, 20);
        assert!(b.graham >= 20 / 2);
        assert_eq!(b.paper(), 20);
        assert!(b.best() >= 20);
    }

    #[test]
    fn single_processor_bound_is_exact() {
        let inst = SweepInstance::random_layered(30, 3, 4, 2, 1);
        let b = lower_bounds(&inst, 1);
        assert_eq!(b.avg_load, 90);
        // m = 1: graham bound = graham makespan = nk.
        assert_eq!(b.graham, 90);
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
                let s = random_delay_priorities(&inst, a, seed);
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
    fn graham_bound_dominates_on_wide_shallow_instances() {
        // Wide instance with one dependency layer: depth small, k small,
        // avg load the binding constraint; graham should agree with it.
        let inst = SweepInstance::new(64, vec![TaskDag::edgeless(64)], "wide");
        let b = lower_bounds(&inst, 8);
        assert_eq!(b.avg_load, 8);
        assert!(b.graham >= 5); // graham = 8 steps ⇒ 8·8/15 = 4.27 → 5
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
