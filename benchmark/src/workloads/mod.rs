//! The five workloads and what they share: the op/receipt/check
//! contract the harness drives, and the *reference path* every timed
//! answer is compared against.

pub mod kernel;
pub mod pipeline;
pub mod serve;

use sweep_core::{lower_bounds, trial_seeds, validate, Algorithm, Assignment, Schedule};
use sweep_dag::SweepInstance;
use sweep_mesh::{MeshPreset, TetMesh};
use sweep_quadrature::QuadratureSet;

use crate::layers::ProbeSpec;
use crate::spans::Tracer;

/// The workload names, in the order every table lists them.
pub const NAMES: [&str; 5] = [
    "kernel_rdp",
    "kernel_mix",
    "pipeline_cold",
    "serve_hot",
    "serve_cold",
];

/// What one checked op delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpOutcome {
    /// Tasks `n·k` summed over the schedules the op delivered.
    pub tasks: u64,
    /// Schedules the op delivered.
    pub schedules: u32,
    /// `Σ makespan ÷ lower_bounds(..).best()` over those schedules.
    pub ratio_sum: f64,
    /// Whether every answer matched its reference.
    pub ok: bool,
}

/// A workload after set-up: a fixed, seed-generated cycle of ops.
///
/// `op` is the timed region — calls into the program and nothing else;
/// it hands back a receipt that `check` compares with the reference
/// after the op's clock has stopped, so correctness costs nothing
/// inside the timed region. Passes `0..harness::WARMUP_PASSES` are the
/// untimed warm-up; the timed passes count on from there.
pub trait Workload: Sync {
    /// What a timed op hands to its check.
    type Receipt: Send;

    /// Ops per pass, sized so that a pass takes about
    /// `harness::NOMINAL_PASS_S` on the reference host.
    fn cycle_len(&self) -> usize;

    /// Closed-loop clients driving the cycle (op `i` belongs to client
    /// `i % clients`).
    fn clients(&self) -> usize {
        1
    }

    /// Runs op `i` of pass `pass`.
    fn op(&self, pass: usize, i: usize, tr: &mut Tracer) -> Self::Receipt;

    /// Compares a receipt with the op's reference.
    fn check(&self, pass: usize, i: usize, receipt: Self::Receipt) -> OpOutcome;

    /// Checked after the warm-up passes: `Err` says why the timed passes
    /// would not measure the steady state.
    fn steady_state(&self) -> Result<(), String> {
        Ok(())
    }

    /// Switches the program's own request tracing with the driver's
    /// (only the server has any).
    fn set_program_tracing(&self, _on: bool) {}

    /// The instance shape the traced run's layer probes use.
    fn probe_spec(&self) -> ProbeSpec;

    /// The server under test, where there is one.
    fn server(&self) -> Option<&serve::Booted> {
        None
    }

    /// What one op is made of, as the program's source says: per-layer
    /// metric name × how many of that metric's units (in ns) one op
    /// spends. The traced run holds the sum against the measured op
    /// (`driver.layers_explained_frac`).
    fn composition(&self) -> Vec<(&'static str, f64)>;

    /// The composition metrics whose units the program hands to its
    /// pool (the probes time them on one thread): at pool width `w`
    /// they cost between `1/w` and all of their serial price.
    fn pooled(&self) -> &'static [&'static str] {
        &[]
    }
}

/// 64-bit digest of a start-time table (FxHash-style multiply-rotate):
/// all a reference keeps of a schedule, so set-up never holds more live
/// memory than a timed op does.
pub fn digest_u32(values: &[u32]) -> u64 {
    let mut h = values.len() as u64;
    for &v in values {
        h = (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// [`digest_u32`] over bytes (CSV renderings).
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// The reference answer for one best-of-`b` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Winning makespan.
    pub makespan: u32,
    /// Winning trial (ties to the lowest index).
    pub trial: usize,
    /// [`digest_u32`] of the winner's start times.
    pub starts: u64,
}

impl Reference {
    /// Whether a delivered schedule is the reference schedule.
    pub fn matches(&self, schedule: &Schedule, trial: usize) -> bool {
        schedule.makespan() == self.makespan
            && trial == self.trial
            && digest_u32(schedule.starts()) == self.starts
    }
}

/// Computes a reference by the independent path: one allocating
/// [`Algorithm::run`] per child seed (never `best_of_trials`, its
/// context hoist or its scratch arenas), every candidate
/// [`validate`]d, the winner picked here. Only two schedules are alive
/// at a time. Returns the reference and the winning schedule.
///
/// # Panics
/// Panics when a candidate is infeasible — a wrong reference must stop
/// the run, not be compared against.
pub fn reference_schedule(
    instance: &SweepInstance,
    assignment: &Assignment,
    algorithm: Algorithm,
    b: usize,
    master_seed: u64,
) -> (Reference, Schedule) {
    let mut best: Option<(usize, Schedule)> = None;
    for (trial, seed) in trial_seeds(master_seed, b).into_iter().enumerate() {
        let candidate = algorithm.run(instance, assignment.clone(), seed);
        validate(instance, &candidate).expect("reference candidate is feasible");
        if best
            .as_ref()
            .is_none_or(|(_, s)| candidate.makespan() < s.makespan())
        {
            best = Some((trial, candidate));
        }
    }
    let (trial, schedule) = best.expect("b > 0");
    (
        Reference {
            makespan: schedule.makespan(),
            trial,
            starts: digest_u32(schedule.starts()),
        },
        schedule,
    )
}

/// [`reference_schedule`] keeping only the comparison record.
pub fn reference(
    instance: &SweepInstance,
    assignment: &Assignment,
    algorithm: Algorithm,
    b: usize,
    master_seed: u64,
) -> Reference {
    reference_schedule(instance, assignment, algorithm, b, master_seed).0
}

/// The S4 level-symmetric set: the paper's 24 directions.
pub fn s4() -> QuadratureSet {
    QuadratureSet::level_symmetric(4).expect("S4 exists")
}

/// Builds the tetonly stand-in at `scale` and induces its S4 instance.
pub fn tetonly_instance(scale: f64) -> (TetMesh, SweepInstance) {
    let mesh = MeshPreset::Tetonly
        .build_scaled(scale)
        .expect("tetonly builds at every benchmark scale");
    let (instance, _) = SweepInstance::from_mesh(&mesh, &s4(), "tetonly");
    (mesh, instance)
}

/// `lower_bounds(..).best()` as the ratio denominator.
pub fn best_bound(instance: &SweepInstance, m: usize) -> u64 {
    lower_bounds(instance, m).best().max(1)
}
