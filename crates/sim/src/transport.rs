//! A toy one-group S_n radiation-transport solver — the application that
//! motivates sweep scheduling (paper §1).
//!
//! Source iteration on a first-order upwind discretization: each outer
//! iteration performs one *sweep* per direction (solving cells in
//! DAG-topological order, exactly the computation the schedules
//! orchestrate), then updates the scalar flux
//! `φ(v) = Σ_i w_i ψ(v, i)`. With scattering ratio `σ_s/σ_t < 1` the
//! iteration is a contraction and converges geometrically.
//!
//! One loop sweeps: it runs the tasks `(v, d)` in a claim order on a
//! [`ThreadPool`], each task waiting on its upwind faces' ready flags.
//! [`TransportSolver::solve`] claims in topological order on one worker;
//! [`TransportSolver::solve_scheduled`] claims in a certified
//! [`Schedule`]'s start order on any pool, with bit-identical results.
//!
//! The discretization is deliberately simple (area-weighted upwind
//! average, uniform characteristic cell size `h`): the point is to
//! exercise the sweep machinery end-to-end — mesh → quadrature →
//! per-direction DAGs → ordered cell solves — not to compete with
//! production discretizations. A cell's upwind faces are those
//! [`sweep_dag::upwind`] orients into it whose DAG edge survived cycle
//! breaking: a cut face is deleted from the stencil, not lagged to the
//! previous iterate, so a cyclic mesh converges to that stencil's fixed
//! point.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use sweep_core::{validate, Schedule, ScheduleViolation};
use sweep_dag::{levels, upwind, SweepInstance};
use sweep_mesh::SweepMesh;
use sweep_pool::ThreadPool;
use sweep_quadrature::{DirectionId, QuadratureSet};

/// Claim-order positions a worker takes from the shared cursor at once.
const CHUNK: usize = 64;

/// Material and source description (uniform over the mesh).
#[derive(Debug, Clone, Copy)]
pub struct Material {
    /// Total cross section `σ_t > 0`.
    pub sigma_t: f64,
    /// Scattering cross section `0 ≤ σ_s < σ_t`.
    pub sigma_s: f64,
    /// Isotropic fixed source strength `q ≥ 0`.
    pub source: f64,
}

/// A [`Material`] field outside its physical range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterialError {
    /// `sigma_t`, `sigma_s`, `source` or `scattering ratio`.
    pub field: &'static str,
    /// The field's value.
    pub value: f64,
    /// What it must be: `finite`, `positive`, `in [0,1)` or `non-negative`.
    pub expected: &'static str,
}

impl std::fmt::Display for MaterialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, value, expected) = (self.field, self.value, self.expected);
        write!(f, "{field} must be {expected}, got {value}")
    }
}

impl std::error::Error for MaterialError {}

impl Material {
    /// Validates physical constraints: every field finite, then `σ_t > 0`,
    /// `0 ≤ σ_s/σ_t < 1` and `q ≥ 0`. The first one broken is the error.
    pub fn validated(self) -> Result<Material, MaterialError> {
        let (t, s, q) = (self.sigma_t, self.sigma_s, self.source);
        let ratio_ok = (0.0..1.0).contains(&(s / t));
        let checks = [
            ("sigma_t", t, "finite", t.is_finite()),
            ("sigma_s", s, "finite", s.is_finite()),
            ("source", q, "finite", q.is_finite()),
            ("sigma_t", t, "positive", t > 0.0),
            ("scattering ratio", s / t, "in [0,1)", ratio_ok),
            ("source", q, "non-negative", q >= 0.0),
        ];
        match checks.into_iter().find(|check| !check.3) {
            None => Ok(self),
            Some((field, value, expected, _)) => Err(MaterialError {
                field,
                value,
                expected,
            }),
        }
    }
}

/// Convergence report of a transport solve.
#[derive(Debug, Clone)]
pub struct TransportResult {
    /// Scalar flux per cell.
    pub phi: Vec<f64>,
    /// Outer (source) iterations performed.
    pub iterations: usize,
    /// Final iteration's max-norm flux change.
    pub residual: f64,
    /// Whether `residual ≤ tol` was reached within the iteration budget.
    pub converged: bool,
}

/// One-group S_n transport solver over a mesh and quadrature set.
pub struct TransportSolver<'m, M: SweepMesh> {
    mesh: &'m M,
    quadrature: &'m QuadratureSet,
    instance: SweepInstance,
    /// Per-cell materials (uniform problems repeat one entry).
    materials: Vec<Material>,
    /// Characteristic cell size `h ≈ n^{-1/dim}` of the unit-ish domain.
    h: f64,
    /// [`Self::solve`]'s claim order: every direction's stored layers in
    /// order (a topological order), concatenated, as task ids `d·n + cell`.
    topo: Vec<u32>,
    /// CSR offsets into the stencil arrays, indexed by `d·n + cell`
    /// (length `k·n + 1`).
    stencil_xadj: Vec<u32>,
    /// Upstream cell of each stencil entry (parallel to
    /// [`Self::stencil_w`]).
    stencil_up: Vec<u32>,
    /// Normalized area weight of each stencil entry, consistent with
    /// the (cycle-broken) DAG.
    stencil_w: Vec<f64>,
}

impl<'m, M: SweepMesh + Sync> TransportSolver<'m, M> {
    /// Builds the solver for a uniform material (induces the
    /// per-direction DAGs internally).
    pub fn new(
        mesh: &'m M,
        quadrature: &'m QuadratureSet,
        material: Material,
    ) -> Result<TransportSolver<'m, M>, String> {
        Self::with_materials(mesh, quadrature, vec![material; mesh.num_cells()])
    }

    /// Builds the solver for a heterogeneous problem: one [`Material`] per
    /// cell (regions with different cross sections / sources, as in the
    /// borehole and shielding configurations transport codes model).
    pub fn with_materials(
        mesh: &'m M,
        quadrature: &'m QuadratureSet,
        materials: Vec<Material>,
    ) -> Result<TransportSolver<'m, M>, String> {
        let (n, got) = (mesh.num_cells(), materials.len());
        if got != n {
            return Err(format!("need one material per cell: {got} for {n} cells"));
        }
        for m in &materials {
            m.validated().map_err(|e| e.to_string())?;
        }
        let (instance, stats) = SweepInstance::from_mesh(mesh, quadrature, "transport");
        let k = quadrature.len();
        let h = 1.0 / (n as f64).powf(1.0 / mesh.dim() as f64);
        // Flat arrays, so the sweep streams contiguous memory: the claim
        // order, and CSR stencils (offsets indexed by `d·n + cell`, one
        // upstream-cell array, one weight array).
        let mut topo = Vec::with_capacity(k * n);
        for (base, dag) in (0..).step_by(n.max(1)).zip(instance.dags()) {
            topo.extend(levels(dag).layer_nodes.into_iter().map(|v| base + v));
        }
        let mut stencil_xadj = vec![0u32; k * n + 1];
        let (mut stencil_up, mut stencil_w) = (Vec::new(), Vec::new());
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();
        for (d, (dag, st)) in instance.dags().iter().zip(&stats).enumerate() {
            // One pass over the faces: `(downwind, upwind, area·|n·ω|)` of
            // each face whose edge survived cycle breaking (every oriented
            // face, unless the direction had edges cut), in face order.
            let omega = quadrature.direction(DirectionId(d as u32));
            let cut = st.dropped_edges > 0;
            entries.clear();
            entries.extend(mesh.interior_faces().iter().filter_map(|f| {
                let (up, down, dot) = upwind(f, omega)?;
                let kept = !cut || dag.successors(up.0).any(|w| w == down.0);
                kept.then_some((down.0, up.0, f.area * dot))
            }));
            // Counting sort by downwind cell, keeping face order in a row.
            let xadj = &mut stencil_xadj[d * n..=(d + 1) * n];
            for &(down, ..) in &entries {
                xadj[down as usize + 1] += 1;
            }
            for r in 0..n {
                xadj[r + 1] += xadj[r];
            }
            let mut cursor = xadj[..n].to_vec();
            stencil_up.resize(xadj[n] as usize, 0);
            stencil_w.resize(xadj[n] as usize, 0.0);
            for &(down, up, w) in &entries {
                let at = &mut cursor[down as usize];
                (stencil_up[*at as usize], stencil_w[*at as usize]) = (up, w);
                *at += 1;
            }
            // Normalise each row over its own slice, summing in face order.
            for r in xadj.windows(2) {
                let row = &mut stencil_w[r[0] as usize..r[1] as usize];
                let total: f64 = row.iter().sum();
                if total > 0.0 {
                    row.iter_mut().for_each(|w| *w /= total);
                }
            }
        }
        Ok(TransportSolver {
            mesh,
            quadrature,
            instance,
            materials,
            h,
            topo,
            stencil_xadj,
            stencil_up,
            stencil_w,
        })
    }

    /// The solver's sweep instance (schedulable with `sweep-core`).
    pub fn instance(&self) -> &SweepInstance {
        &self.instance
    }

    /// Runs source iteration until the max-norm change of `φ` drops below
    /// `tol` or `max_iters` is hit.
    pub fn solve(&self, max_iters: usize, tol: f64) -> TransportResult {
        self.iterate(&self.topo, &ThreadPool::new(1), max_iters, tol)
    }

    /// [`Self::solve`], sweeping the tasks in `schedule`'s start order
    /// (ties by task id) on `pool`. A schedule [`validate`] rejects
    /// against [`Self::instance`], for its shape or its feasibility, is
    /// returned as that violation before anything runs. `φ`, the
    /// iteration count and the residual equal `solve`'s bit for bit.
    pub fn solve_scheduled(
        &self,
        schedule: &Schedule,
        pool: &ThreadPool,
        max_iters: usize,
        tol: f64,
    ) -> Result<TransportResult, ScheduleViolation> {
        validate(&self.instance, schedule)?;
        let starts = schedule.starts();
        let mut order: Vec<u32> = (0..starts.len() as u32).collect();
        order.sort_by_key(|&t| starts[t as usize]);
        Ok(self.iterate(&order, pool, max_iters, tol))
    }

    /// Source iteration whose sweeps run the tasks `d·n + v` of `order` on
    /// `pool`, [`CHUNK`] positions a claim, each task waiting on its upwind
    /// faces' ready flags. A feasible `order` never blocks, and the bits do
    /// not depend on it or on the width (DESIGN.md §12, "The transport
    /// sweep on the pool").
    fn iterate(
        &self,
        order: &[u32],
        pool: &ThreadPool,
        max_iters: usize,
        tol: f64,
    ) -> TransportResult {
        let n = self.mesh.num_cells();
        let ordinates = self.quadrature.ordinates();
        let weight_total: f64 = ordinates.iter().map(|o| o.weight).sum();
        // ψ per task as `f64` bits, and the parity of the iteration that
        // last wrote it: every task is written once an iteration, so the
        // flags never need a reset.
        let psi: Vec<AtomicU64> = order.iter().map(|_| AtomicU64::new(0)).collect();
        let ready: Vec<AtomicU8> = order.iter().map(|_| AtomicU8::new(0)).collect();
        let (mut phi, mut iterations, mut residual) = (vec![0.0f64; n], 0, f64::INFINITY);
        while iterations < max_iters {
            iterations += 1;
            let parity = (iterations & 1) as u8;
            // The cursor hands out positions and publishes nothing, so it
            // is `Relaxed`; the pool's join orders the sweep before the sum.
            let cursor = AtomicUsize::new(0);
            pool.par_map_range(pool.threads(), |_| loop {
                let from = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if from >= order.len() {
                    break;
                }
                let tasks = &order[from..order.len().min(from + CHUNK)];
                self.sweep_tasks(tasks, &psi, &ready, &phi, parity, weight_total);
            });
            let mut phi_new = vec![0.0f64; n];
            for (o, psi_d) in ordinates.iter().zip(psi.chunks_exact(n.max(1))) {
                for (p, x) in phi_new.iter_mut().zip(psi_d) {
                    *p += o.weight * f64::from_bits(x.load(Ordering::Relaxed));
                }
            }
            // A NaN change (an overflowed `φ`) sticks: `f64::max` would drop it.
            residual = phi
                .iter()
                .zip(&phi_new)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, |r, d| if d > r || d.is_nan() { d } else { r });
            phi = phi_new;
            if residual <= tol {
                break;
            }
        }
        TransportResult {
            phi,
            iterations,
            residual,
            converged: iterations > 0 && residual <= tol,
        }
    }

    /// Solves `tasks` in order, each after its upwind `ψ` is written this
    /// iteration, then marks it written with `parity`.
    fn sweep_tasks(
        &self,
        tasks: &[u32],
        psi: &[AtomicU64],
        ready: &[AtomicU8],
        phi: &[f64],
        parity: u8,
        weight_total: f64,
    ) {
        // Plain locals: the acquire loads below would otherwise make every
        // read through `self` reload.
        let (xadj, ups, ws) = (
            &self.stencil_xadj[..],
            &self.stencil_up[..],
            &self.stencil_w[..],
        );
        let (materials, h, n) = (&self.materials[..], self.h, phi.len());
        for &t in tasks {
            let t = t as usize;
            let (v, base) = (t % n, t - t % n);
            let mat = materials[v];
            let atten = 1.0 + mat.sigma_t * h;
            let mut inflow = 0.0f64;
            let (s, e) = (xadj[t] as usize, xadj[t + 1] as usize);
            for (u, w) in ups[s..e].iter().zip(&ws[s..e]) {
                let up = base + *u as usize;
                if ready[up].load(Ordering::Acquire) != parity {
                    spin_until(&ready[up], parity);
                }
                inflow += w * f64::from_bits(psi[up].load(Ordering::Relaxed));
            }
            // Upwind balance: attenuated inflow plus the cell's isotropic
            // emission (fixed source + scattering of the previous
            // iterate's scalar flux).
            let emission = (mat.source + mat.sigma_s * phi[v]) / weight_total;
            let psi_t = (inflow + emission * h) / atten;
            // `Release` publishes `ψ` to the readers' `Acquire` flag loads.
            psi[t].store(psi_t.to_bits(), Ordering::Relaxed);
            ready[t].store(parity, Ordering::Release);
        }
    }
}

/// Spins, yielding every 64 tries, until `flag` holds `parity`: the mark
/// of a `ψ` written this iteration. Kept out of line, so the sweep's
/// fast path is one load and a compare.
#[cold]
#[inline(never)]
fn spin_until(flag: &AtomicU8, parity: u8) {
    let mut spins = 0u32;
    while flag.load(Ordering::Acquire) != parity {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{Algorithm, Assignment};
    use sweep_mesh::{CellId, TriMesh2d};

    fn solver_on(
        mesh: &TriMesh2d,
        quad: &QuadratureSet,
        sigma_s: f64,
    ) -> TransportSolver<'static, TriMesh2d> {
        // Tests construct with leaked refs for lifetime simplicity.
        let mesh: &'static TriMesh2d = Box::leak(Box::new(mesh.clone()));
        let quad: &'static QuadratureSet = Box::leak(Box::new(quad.clone()));
        TransportSolver::new(
            mesh,
            quad,
            Material {
                sigma_t: 1.0,
                sigma_s,
                source: 1.0,
            },
        )
        .unwrap()
    }

    /// The sequential sweep `solve` ran before the claim-order loop: one
    /// `ψ` workspace per direction, cells in topological order.
    fn reference_solve<M: SweepMesh + Sync>(
        s: &TransportSolver<M>,
        max_iters: usize,
        tol: f64,
    ) -> TransportResult {
        let n = s.mesh.num_cells();
        let k = s.quadrature.len();
        let weight_total: f64 = s.quadrature.ordinates().iter().map(|o| o.weight).sum();
        let mut phi = vec![0.0f64; n];
        let mut psi = vec![0.0f64; n];
        let mut iterations = 0usize;
        let mut residual = f64::INFINITY;
        for _ in 0..max_iters {
            iterations += 1;
            let mut phi_new = vec![0.0f64; n];
            for d in 0..k {
                let w_d = s.quadrature.ordinates()[d].weight;
                let base = d * n;
                for &t in &s.topo[base..base + n] {
                    let v = t as usize - base;
                    let mat = s.materials[v];
                    let atten = 1.0 + mat.sigma_t * s.h;
                    let mut inflow = 0.0f64;
                    let (b, e) = (
                        s.stencil_xadj[base + v] as usize,
                        s.stencil_xadj[base + v + 1] as usize,
                    );
                    for (u, w) in s.stencil_up[b..e].iter().zip(&s.stencil_w[b..e]) {
                        inflow += w * psi[*u as usize];
                    }
                    let emission = (mat.source + mat.sigma_s * phi[v]) / weight_total;
                    psi[v] = (inflow + emission * s.h) / atten;
                }
                for v in 0..n {
                    phi_new[v] += w_d * psi[v];
                }
            }
            // A NaN change (an overflowed `φ`) sticks: `f64::max` would drop it.
            residual = phi
                .iter()
                .zip(&phi_new)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, |r, d| if d > r || d.is_nan() { d } else { r });
            phi = phi_new;
            if residual <= tol {
                break;
            }
        }
        TransportResult {
            phi,
            iterations,
            residual,
            converged: residual <= tol,
        }
    }

    /// Mean scalar flux over the mesh.
    fn mean_flux(phi: &[f64]) -> f64 {
        phi.iter().sum::<f64>() / phi.len() as f64
    }

    /// FNV-1a over the bit pattern of every `φ` entry.
    fn phi_digest(phi: &[f64]) -> u64 {
        let bytes = phi.iter().flat_map(|x| x.to_bits().to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `(iterations, residual bits, φ digest)`: everything a solve returns.
    fn pin(r: &TransportResult) -> (usize, u64, u64) {
        (r.iterations, r.residual.to_bits(), phi_digest(&r.phi))
    }

    fn uniform(sigma_s: f64) -> Material {
        Material {
            sigma_t: 1.0,
            sigma_s,
            source: 1.0,
        }
    }

    fn warped_msh() -> sweep_mesh::PolyMesh {
        let bytes = include_bytes!("../../../examples/meshes/warped.msh");
        let imported = sweep_mesh::import_bytes(bytes, sweep_mesh::ImportFormat::Msh);
        imported.unwrap().mesh
    }

    /// A source in the left half of the unit square, a purer absorber in
    /// the right.
    fn split_materials(mesh: &TriMesh2d) -> Vec<Material> {
        (0..mesh.num_cells() as u32)
            .map(|c| match mesh.centroid(CellId(c)).x < 0.5 {
                true => uniform(0.3),
                false => Material {
                    sigma_t: 2.0,
                    sigma_s: 0.6,
                    source: 0.0,
                },
            })
            .collect()
    }

    /// The solves' outputs, bit for bit, as read before the sweep moved
    /// onto the claim-order loop: a tetrahedral mesh, the cyclic
    /// `warped.msh` (cut faces drop out of the stencil), a heterogeneous
    /// problem and the Pillow preset (29 faces over 11 cell pairs, cut in
    /// every direction: parallel faces merge in the DAG but stay separate
    /// stencil entries).
    #[test]
    fn solve_outputs_are_pinned() {
        let tet = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.005).unwrap();
        let s2 = QuadratureSet::level_symmetric(2).unwrap();
        let warped = warped_msh();
        let s4 = QuadratureSet::level_symmetric(4).unwrap();
        let (_, stats) = SweepInstance::from_mesh(&warped, &s4, "warped");
        assert!(
            stats.iter().any(|s| s.dropped_edges > 0),
            "warped.msh × S4 is cyclic"
        );
        let square = TriMesh2d::unit_square(8, 8, 0.1, 4).unwrap();
        let dirs = QuadratureSet::uniform_2d(8).unwrap();
        let pillow = sweep_mesh::PolyPreset::Pillow.build(12).unwrap();
        let got = [
            pin(&TransportSolver::new(&tet, &s2, uniform(0.5))
                .unwrap()
                .solve(300, 1e-8)),
            pin(&TransportSolver::new(&warped, &s4, uniform(0.9))
                .unwrap()
                .solve(500, 1e-10)),
            pin(
                &TransportSolver::with_materials(&square, &dirs, split_materials(&square))
                    .unwrap()
                    .solve(300, 1e-9),
            ),
            pin(&TransportSolver::new(&pillow, &s4, uniform(0.9))
                .unwrap()
                .solve(500, 1e-10)),
        ];
        let want = [
            (17, 0x3e31_7f82_b000_0000, 0x27c7_46c5_c631_b9ca),
            (33, 0x3dd8_957c_0000_0000, 0x7e41_c689_be7f_0e7a),
            (13, 0x3e10_a09b_2800_0000, 0x8672_0578_b537_9cc1),
            (62, 0x3dd4_ee38_0000_0000, 0x2a51_554d_2945_02e0),
        ];
        assert_eq!(got, want);
    }

    /// Per direction, the stencil holds exactly the faces whose edge
    /// survived induction, `raw_edges − dropped_edges` of them (faces
    /// parallel to the direction and cut faces drop out), and each entry
    /// `up → v` is an edge of that direction's DAG: the premise of the
    /// sweep's deadlock freedom (DESIGN.md §12). Returns the faces cut.
    fn check_stencil<M: SweepMesh + Sync>(mesh: &M, quad: &QuadratureSet) -> usize {
        let s = TransportSolver::new(mesh, quad, uniform(0.5)).unwrap();
        let (_, stats) = SweepInstance::from_mesh(mesh, quad, "stencil");
        let n = mesh.num_cells();
        for (d, st) in stats.iter().enumerate() {
            let (dag, xadj) = (s.instance().dag(d), &s.stencil_xadj[d * n..=(d + 1) * n]);
            let entries = (xadj[n] - xadj[0]) as usize;
            assert_eq!(entries, st.raw_edges - st.dropped_edges, "direction {d}");
            for (v, r) in (0u32..).zip(xadj.windows(2)) {
                for &up in &s.stencil_up[r[0] as usize..r[1] as usize] {
                    assert!(dag.successors(up).any(|w| w == v), "{up} -> {v} in {d}");
                }
            }
        }
        stats.iter().map(|st| st.dropped_edges).sum()
    }

    #[test]
    fn stencil_entries_are_the_faces_induction_kept() {
        use sweep_mesh::PolyPreset;
        let warped = warped_msh();
        let s4 = QuadratureSet::level_symmetric(4).unwrap();
        let mut cut: Vec<usize> = [2, 4, 6]
            .map(|sn| check_stencil(&warped, &QuadratureSet::level_symmetric(sn).unwrap()))
            .to_vec();
        for preset in [PolyPreset::Pillow, PolyPreset::TripleRing] {
            cut.push(check_stencil(&preset.build(12).unwrap(), &s4));
        }
        let tet = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.05).unwrap();
        cut.push(check_stencil(&tet, &s4));
        assert_eq!(cut, [48, 312, 576, 288, 144, 0]);
    }

    /// Everything a solve returns, `φ` as bit patterns.
    fn bits(r: &TransportResult) -> (Vec<u64>, usize, u64, bool) {
        let phi = r.phi.iter().map(|x| x.to_bits()).collect();
        (phi, r.iterations, r.residual.to_bits(), r.converged)
    }

    #[test]
    fn solve_matches_the_sequential_reference() {
        let warped = warped_msh();
        let square = TriMesh2d::unit_square(8, 8, 0.1, 4).unwrap();
        let dirs = QuadratureSet::uniform_2d(8).unwrap();
        for sn in [2, 4, 6] {
            let quad = QuadratureSet::level_symmetric(sn).unwrap();
            let s = TransportSolver::new(&warped, &quad, uniform(0.9)).unwrap();
            assert_eq!(
                bits(&s.solve(500, 1e-10)),
                bits(&reference_solve(&s, 500, 1e-10))
            );
        }
        let s = TransportSolver::with_materials(&square, &dirs, split_materials(&square)).unwrap();
        for (iters, tol) in [(0, 0.0), (3, 0.0), (300, 1e-9)] {
            assert_eq!(
                bits(&s.solve(iters, tol)),
                bits(&reference_solve(&s, iters, tol))
            );
        }
    }

    /// Every algorithm in the §5.2 comparison set and the three outside it.
    fn all_algorithms() -> Vec<Algorithm> {
        let mut all = Algorithm::COMPARISON_SET.to_vec();
        all.extend([
            Algorithm::LevelPriority { delays: true },
            Algorithm::ImprovedRandomDelay,
            Algorithm::ImprovedWithPriorities,
        ]);
        all
    }

    /// The schedule-driven sweep on worker pools: any feasible order at
    /// any width gives `solve`'s bits. Also the ThreadSanitizer target for
    /// the ready flags' release/acquire pairs.
    #[test]
    fn solve_scheduled_matches_solve_for_every_algorithm_and_width() {
        let mesh = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.05).unwrap();
        let quad = QuadratureSet::level_symmetric(4).unwrap();
        let s = TransportSolver::new(&mesh, &quad, uniform(0.5)).unwrap();
        let want = bits(&s.solve(3, 0.0));
        let assignment = Assignment::random_cells(mesh.num_cells(), 16, 1);
        for algorithm in all_algorithms() {
            let schedule = algorithm.run(s.instance(), assignment.clone(), 7);
            for width in [1, 2, 4] {
                let pool = ThreadPool::new(width);
                let got = s.solve_scheduled(&schedule, &pool, 3, 0.0).unwrap();
                assert!(bits(&got) == want, "{} at width {width}", algorithm.name());
            }
        }
    }

    #[test]
    fn infeasible_or_foreign_schedules_are_errors_not_hangs() {
        let mesh = TriMesh2d::unit_square(6, 6, 0.15, 1).unwrap();
        let (s2, s4) = (
            QuadratureSet::uniform_2d(2).unwrap(),
            QuadratureSet::uniform_2d(4).unwrap(),
        );
        let s = TransportSolver::new(&mesh, &s4, uniform(0.5)).unwrap();
        let assignment = Assignment::round_robin(mesh.num_cells(), 4);
        let pool = ThreadPool::new(2);
        let good = Algorithm::Greedy.run(s.instance(), assignment.clone(), 1);
        // Swap the starts across one edge of direction 0.
        let dag = s.instance().dag(0);
        let u = (0..mesh.num_cells() as u32)
            .find(|&u| dag.out_degree(u) > 0)
            .unwrap();
        let v = dag.successors(u).next().unwrap();
        let mut starts = good.starts().to_vec();
        starts.swap(u as usize, v as usize);
        let inverted = Schedule::new(starts, assignment.clone()).unwrap();
        let err = s.solve_scheduled(&inverted, &pool, 5, 0.0).unwrap_err();
        assert!(
            matches!(err, ScheduleViolation::Precedence { dir: 0, .. }),
            "{err}"
        );
        // A schedule of the same mesh under another quadrature.
        let other = TransportSolver::new(&mesh, &s2, uniform(0.5)).unwrap();
        let foreign = Algorithm::Greedy.run(other.instance(), assignment, 1);
        let err = s.solve_scheduled(&foreign, &pool, 5, 0.0).unwrap_err();
        let (expected, actual) = (4 * mesh.num_cells(), 2 * mesh.num_cells());
        assert_eq!(err, ScheduleViolation::WrongTaskCount { expected, actual });
        // A schedule of another mesh.
        let small = TriMesh2d::unit_square(3, 3, 0.15, 1).unwrap();
        let other = TransportSolver::new(&small, &s4, uniform(0.5)).unwrap();
        let foreign = Algorithm::Greedy.run(
            other.instance(),
            Assignment::round_robin(small.num_cells(), 4),
            1,
        );
        let err = s.solve_scheduled(&foreign, &pool, 5, 0.0).unwrap_err();
        let (cells, assigned) = (mesh.num_cells(), small.num_cells());
        assert_eq!(
            err,
            ScheduleViolation::AssignmentMismatch { cells, assigned }
        );
    }

    #[test]
    fn pure_absorber_converges_fast() {
        let mesh = TriMesh2d::unit_square(6, 6, 0.15, 1).unwrap();
        let quad = QuadratureSet::uniform_2d(8).unwrap();
        let s = solver_on(&mesh, &quad, 0.0);
        let r = s.solve(60, 1e-10);
        assert!(r.converged, "residual {}", r.residual);
        assert!(r.phi.iter().all(|&x| x >= 0.0));
        assert!(mean_flux(&r.phi) > 0.0);
        // No scattering ⇒ no φ feedback into ψ… except through the fixed
        // point detection; convergence must be quick.
        assert!(r.iterations <= 5, "{} iterations", r.iterations);
    }

    #[test]
    fn scattering_converges_and_needs_more_iterations() {
        let mesh = TriMesh2d::unit_square(6, 6, 0.15, 2).unwrap();
        let quad = QuadratureSet::uniform_2d(8).unwrap();
        let none = solver_on(&mesh, &quad, 0.0).solve(300, 1e-8);
        let some = solver_on(&mesh, &quad, 0.8).solve(300, 1e-8);
        assert!(none.converged && some.converged);
        assert!(
            some.iterations > none.iterations,
            "scattering {} vs absorber {}",
            some.iterations,
            none.iterations
        );
        // Scattering re-emits: flux must be higher.
        let m_none = mean_flux(&none.phi);
        let m_some = mean_flux(&some.phi);
        assert!(m_some > m_none, "{m_some} !> {m_none}");
    }

    #[test]
    fn flux_scales_linearly_with_source() {
        let mesh = TriMesh2d::unit_square(5, 5, 0.1, 3).unwrap();
        let quad = QuadratureSet::uniform_2d(4).unwrap();
        let mesh1: &'static TriMesh2d = Box::leak(Box::new(mesh.clone()));
        let quad1: &'static QuadratureSet = Box::leak(Box::new(quad.clone()));
        let s1 = TransportSolver::new(
            mesh1,
            quad1,
            Material {
                sigma_t: 1.0,
                sigma_s: 0.3,
                source: 1.0,
            },
        )
        .unwrap();
        let s2 = TransportSolver::new(
            mesh1,
            quad1,
            Material {
                sigma_t: 1.0,
                sigma_s: 0.3,
                source: 2.0,
            },
        )
        .unwrap();
        let r1 = s1.solve(300, 1e-12);
        let r2 = s2.solve(300, 1e-12);
        let m1 = mean_flux(&r1.phi);
        let m2 = mean_flux(&r2.phi);
        assert!((m2 / m1 - 2.0).abs() < 1e-6, "ratio {}", m2 / m1);
    }

    #[test]
    fn bad_materials_rejected() {
        assert!(Material {
            sigma_t: 0.0,
            sigma_s: 0.0,
            source: 1.0
        }
        .validated()
        .is_err());
        assert!(Material {
            sigma_t: 1.0,
            sigma_s: 1.0,
            source: 1.0
        }
        .validated()
        .is_err());
        assert!(Material {
            sigma_t: 1.0,
            sigma_s: 0.5,
            source: -1.0
        }
        .validated()
        .is_err());
        assert!(Material {
            sigma_t: 1.0,
            sigma_s: 0.5,
            source: 1.0
        }
        .validated()
        .is_ok());
        // Non-finite fields: a NaN source once solved to a "converged"
        // NaN flux, and an infinite σ_t to a converged zero.
        let ok = uniform(0.5);
        for (bad, name) in [
            (
                Material {
                    source: f64::NAN,
                    ..ok
                },
                "source",
            ),
            (
                Material {
                    source: f64::INFINITY,
                    ..ok
                },
                "source",
            ),
            (
                Material {
                    sigma_t: f64::INFINITY,
                    ..ok
                },
                "sigma_t",
            ),
            (
                Material {
                    sigma_t: f64::NAN,
                    ..ok
                },
                "sigma_t",
            ),
            (
                Material {
                    sigma_s: f64::NEG_INFINITY,
                    ..ok
                },
                "sigma_s",
            ),
        ] {
            let err = bad.validated().unwrap_err();
            assert_eq!((err.field, err.expected), (name, "finite"), "{bad:?}");
        }
    }

    /// A finite source large enough to overflow `φ` gives a NaN change,
    /// which must not read as convergence.
    #[test]
    fn overflowing_flux_does_not_converge() {
        let mesh = TriMesh2d::unit_square(3, 3, 0.1, 1).unwrap();
        let quad = QuadratureSet::uniform_2d(4).unwrap();
        let huge = Material {
            source: f64::MAX,
            ..uniform(0.9)
        };
        let r = TransportSolver::new(&mesh, &quad, huge)
            .unwrap()
            .solve(5, 1e-8);
        assert!(r.phi.iter().any(|x| !x.is_finite()), "{:?}", r.phi);
        assert!(r.residual.is_nan() && !r.converged, "{r:?}");
        assert_eq!(r.iterations, 5);
    }

    #[test]
    fn instance_is_exposed_for_scheduling() {
        let mesh = TriMesh2d::unit_square(4, 4, 0.1, 5).unwrap();
        let quad = QuadratureSet::uniform_2d(4).unwrap();
        let s = solver_on(&mesh, &quad, 0.2);
        assert_eq!(s.instance().num_cells(), 32);
        assert_eq!(s.instance().num_directions(), 4);
    }

    #[test]
    fn heterogeneous_source_region_has_higher_flux() {
        // Source only in the left half of the domain: flux there must be
        // larger than in the purely absorbing right half.
        let mesh = TriMesh2d::unit_square(8, 8, 0.1, 4).unwrap();
        let mesh: &'static TriMesh2d = Box::leak(Box::new(mesh));
        let quad: &'static QuadratureSet =
            Box::leak(Box::new(QuadratureSet::uniform_2d(8).unwrap()));
        let mats: Vec<Material> = (0..mesh.num_cells())
            .map(|c| {
                let left = mesh.centroid(CellId(c as u32)).x < 0.5;
                Material {
                    sigma_t: 1.0,
                    sigma_s: 0.3,
                    source: if left { 1.0 } else { 0.0 },
                }
            })
            .collect();
        let s = TransportSolver::with_materials(mesh, quad, mats).unwrap();
        let r = s.solve(300, 1e-9);
        assert!(r.converged);
        let (mut left_sum, mut left_n, mut right_sum, mut right_n) =
            (0.0f64, 0usize, 0.0f64, 0usize);
        for c in 0..mesh.num_cells() {
            if mesh.centroid(CellId(c as u32)).x < 0.5 {
                left_sum += r.phi[c];
                left_n += 1;
            } else {
                right_sum += r.phi[c];
                right_n += 1;
            }
        }
        let (left_mean, right_mean) = (left_sum / left_n as f64, right_sum / right_n as f64);
        assert!(
            left_mean > 2.0 * right_mean,
            "source region flux {left_mean:.4} vs void {right_mean:.4}"
        );
        assert!(right_mean > 0.0, "transport must carry flux into the void");
    }

    #[test]
    fn with_materials_validates_input() {
        let mesh = TriMesh2d::unit_square(3, 3, 0.1, 1).unwrap();
        let mesh: &'static TriMesh2d = Box::leak(Box::new(mesh));
        let quad: &'static QuadratureSet =
            Box::leak(Box::new(QuadratureSet::uniform_2d(4).unwrap()));
        // Wrong length.
        let too_few = vec![
            Material {
                sigma_t: 1.0,
                sigma_s: 0.0,
                source: 1.0
            };
            3
        ];
        match TransportSolver::with_materials(mesh, quad, too_few) {
            Err(e) => assert!(e.contains("one material per cell"), "{e}"),
            Ok(_) => panic!("length mismatch must be rejected"),
        }
        // Invalid entry.
        let mut mats = vec![
            Material {
                sigma_t: 1.0,
                sigma_s: 0.0,
                source: 1.0
            };
            mesh.num_cells()
        ];
        mats[0].sigma_s = 2.0;
        assert!(TransportSolver::with_materials(mesh, quad, mats).is_err());
    }

    #[test]
    fn works_on_3d_tet_meshes() {
        let mesh = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.005).unwrap();
        let mesh: &'static sweep_mesh::TetMesh = Box::leak(Box::new(mesh));
        let quad: &'static QuadratureSet =
            Box::leak(Box::new(QuadratureSet::level_symmetric(2).unwrap()));
        let s = TransportSolver::new(
            mesh,
            quad,
            Material {
                sigma_t: 1.0,
                sigma_s: 0.5,
                source: 1.0,
            },
        )
        .unwrap();
        let r = s.solve(300, 1e-8);
        assert!(r.converged);
        assert!(r.phi.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }
}
