//! The probabilistic machinery of §4 — Chernoff–Hoeffding bound helpers
//! (Lemma 1, equation (3)) and empirical congestion measurements for the
//! quantities bounded by Lemmas 2 and 3.
//!
//! The analytic functions are used by tests and the `lemma_congestion`
//! experiment to check that on real instances the per-layer copy counts
//! and per-processor layer loads indeed stay within the proven envelopes.

use sweep_dag::SweepInstance;

use crate::assignment::Assignment;
use crate::random_delay::{base_task_levels, LayerBuckets};

/// The Chernoff tail `G(μ, δ) = (e^δ / (1+δ)^{1+δ})^μ` of Lemma 1(a).
pub fn chernoff_g(mu: f64, delta: f64) -> f64 {
    assert!(mu >= 0.0 && delta >= 0.0);
    if mu == 0.0 {
        return 1.0;
    }
    // Compute in log space for numerical stability; ln_1p is accurate for
    // small δ.
    let ln_g = mu * (delta - (1.0 + delta) * delta.ln_1p());
    ln_g.exp()
}

/// The threshold `F(μ, p)` of Lemma 1(b): a load level exceeded with
/// probability below `p`. Uses the paper's two-regime formula with
/// constant `a`.
pub fn chernoff_f(mu: f64, p: f64, a: f64) -> f64 {
    assert!(mu > 0.0 && (0.0..1.0).contains(&p) && p > 0.0);
    let lnp = (1.0 / p).ln();
    if mu <= lnp / std::f64::consts::E {
        a * lnp / (lnp / mu).ln()
    } else {
        mu + a * (lnp / mu).sqrt() * mu // a·sqrt(ln(p⁻¹)·μ) written as a·μ·sqrt(lnp/μ)
    }
}

/// The function `H(μ, p)` of equation (3) with constant `C`: the expected
/// balls-in-bins max-load envelope used in the Theorem 3 analysis.
pub fn balls_in_bins_h(mu: f64, p: f64, c: f64) -> f64 {
    assert!(mu > 0.0 && (0.0..1.0).contains(&p) && p > 0.0);
    let lnp = (1.0 / p).ln();
    if mu <= lnp / std::f64::consts::E {
        c * lnp / (lnp / mu).ln()
    } else {
        c * std::f64::consts::E * mu
    }
}

/// Empirical congestion of a delayed layering: for combined layers
/// `r = level_i(v) + X_i`, reports per-layer statistics of the quantity
/// bounded by **Lemma 2** — the number of copies of a single cell in a
/// layer — and by **Lemma 3** — the number of tasks of one layer assigned
/// to one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionStats {
    /// `max_{r,v} |{i : (v,i) ∈ L_r}|` — Lemma 2's random variable.
    pub max_copies_per_cell_layer: u32,
    /// `max_{r,P} |{(v,i) ∈ L_r : proc(v) = P}|` — Lemma 3's variable.
    pub max_tasks_per_proc_layer: u32,
    /// Number of combined layers `R ≤ D + k`.
    pub num_layers: u32,
    /// Widest combined layer.
    pub max_layer_width: u32,
}

/// Measures the congestion of the combined layering induced by `delays`
/// under `assignment`.
pub fn layer_congestion(
    instance: &SweepInstance,
    assignment: &Assignment,
    delays: &[u32],
) -> CongestionStats {
    let n = instance.num_cells();
    let k = instance.num_directions();
    assert_eq!(delays.len(), k);
    assert_eq!(assignment.num_cells(), n);
    let m = assignment.num_procs();

    let mut buckets = LayerBuckets::default();
    let num_layers = buckets.fill(n, &base_task_levels(instance), delays);
    // One pass per layer, reusing scratch arrays across layers.
    let mut copies = vec![0u32; n];
    let mut loads = vec![0u32; m];
    let mut max_copies = 0u32;
    let mut max_load = 0u32;
    let mut max_width = 0u32;
    for tasks in buckets.layers() {
        let cell = |t: u64| (t % n as u64) as usize;
        for &t in tasks {
            let p = assignment.proc_of(cell(t) as u32) as usize;
            copies[cell(t)] += 1;
            loads[p] += 1;
            max_copies = max_copies.max(copies[cell(t)]);
            max_load = max_load.max(loads[p]);
        }
        max_width = max_width.max(tasks.len() as u32);
        // Reset only the touched entries.
        for &t in tasks {
            copies[cell(t)] = 0;
            loads[assignment.proc_of(cell(t) as u32) as usize] = 0;
        }
    }
    CongestionStats {
        max_copies_per_cell_layer: max_copies,
        max_tasks_per_proc_layer: max_load,
        num_layers: num_layers as u32,
        max_layer_width: max_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_delay::random_delays;

    #[test]
    fn chernoff_g_basics() {
        // G(μ, 0) = 1; decreasing in δ; decreasing in μ for fixed δ > 0.
        assert!((chernoff_g(5.0, 0.0) - 1.0).abs() < 1e-12);
        assert!(chernoff_g(5.0, 1.0) < chernoff_g(5.0, 0.5));
        assert!(chernoff_g(10.0, 1.0) < chernoff_g(5.0, 1.0));
        // Known value: G(1, 1) = e/4.
        assert!((chernoff_g(1.0, 1.0) - std::f64::consts::E / 4.0).abs() < 1e-9);
    }

    #[test]
    fn chernoff_f_exceeds_mean() {
        for (mu, p) in [(0.5, 0.01), (2.0, 0.001), (50.0, 1e-6)] {
            let f = chernoff_f(mu, p, 1.0);
            assert!(f > 0.0);
            if mu > (1.0f64 / p).ln() / std::f64::consts::E {
                assert!(f >= mu, "F({mu},{p}) = {f} < μ");
            }
        }
    }

    #[test]
    fn chernoff_f_tail_actually_small() {
        // Sanity-check Lemma 1(b) numerically: P[X > F(μ,p)] < p for a
        // Poisson-ish binomial via the G bound.
        let (mu, p) = (1.0, 1e-4);
        let f = chernoff_f(mu, p, 2.0);
        let delta = f / mu - 1.0;
        assert!(delta > 0.0);
        assert!(chernoff_g(mu, delta) < p * 10.0, "tail bound too weak");
    }

    #[test]
    fn h_is_concave_like_and_monotone() {
        let p = 1e-4;
        let c = 2.0;
        // Non-decreasing in μ.
        let mut prev = 0.0;
        for mu in [0.01, 0.1, 0.5, 1.0, 5.0, 50.0] {
            let h = balls_in_bins_h(mu, p, c);
            assert!(h >= prev, "H not monotone at μ={mu}");
            prev = h;
        }
    }

    #[test]
    fn congestion_on_identical_chains_without_delays_is_k() {
        // Lemma 2's quantity degenerates to k when all delays are zero on
        // identical chains.
        let (n, k) = (30usize, 6usize);
        let inst = SweepInstance::identical_chains(n, k);
        let a = Assignment::random_cells(n, 4, 1);
        let zero = vec![0u32; k];
        let s = layer_congestion(&inst, &a, &zero);
        assert_eq!(s.max_copies_per_cell_layer, k as u32);
        assert_eq!(s.num_layers, n as u32);
    }

    #[test]
    fn congestion_with_delays_is_small() {
        // With random delays the per-layer copy count collapses to O(log)
        // — here just assert it is far below k.
        let (n, k) = (30usize, 16usize);
        let inst = SweepInstance::identical_chains(n, k);
        let a = Assignment::random_cells(n, 4, 1);
        let d = random_delays(k, 7);
        let s = layer_congestion(&inst, &a, &d);
        assert!(
            s.max_copies_per_cell_layer <= 6,
            "delays should spread copies: {}",
            s.max_copies_per_cell_layer
        );
        assert!(s.num_layers as usize <= n + k);
    }

    #[test]
    fn proc_load_bounded_by_width() {
        let inst = SweepInstance::random_layered(100, 4, 8, 2, 3);
        let a = Assignment::random_cells(100, 8, 4);
        let d = random_delays(4, 5);
        let s = layer_congestion(&inst, &a, &d);
        assert!(s.max_tasks_per_proc_layer <= s.max_layer_width);
        assert!(s.max_copies_per_cell_layer >= 1);
    }
}
