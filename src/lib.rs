//! # sweep-scheduling — provable parallel sweep scheduling on unstructured meshes
//!
//! A full reproduction of Anil Kumar, Marathe, Parthasarathy, Srinivasan &
//! Zust, *Provable Algorithms for Parallel Sweep Scheduling on Unstructured
//! Meshes* (IPPS 2005), including every substrate the paper depends on:
//!
//! | crate | contents |
//! |---|---|
//! | [`mesh`] | synthetic unstructured tetrahedral/triangular meshes, presets for the paper's four evaluation meshes |
//! | [`quadrature`] | level-symmetric S_n and random direction sets |
//! | [`dag`] | per-direction dependence DAGs, levels, descendant counts, instance generators |
//! | [`partition`] | multilevel graph partitioner (METIS stand-in) for block assignment |
//! | [`core`] | Algorithms 1–3 (Random Delay family), Level/Descendant/DFDS heuristics, list-scheduling engine, C1/C2 metrics, lower bounds |
//! | [`sim`] | edge-coloring communication rounds, latency and asynchronous execution models, weighted list scheduling on the asynchronous engine, toy S_n transport solver whose sweeps run in a certified schedule's order |
//! | [`analyze`] | static analysis: SW0xx diagnostics (cycle witnesses, collect-all schedule validation, bound certification, message-race detection, parallel-determinism certification) with text/JSON/SARIF output |
//! | [`pool`] | dependency-free work-stealing thread pool backing parallel DAG induction, best-of-`b` trials, and the bench grids |
//!
//! ## Quickstart
//!
//! ```
//! use sweep_scheduling::prelude::*;
//!
//! // A small unstructured mesh and an S2 (8-direction) quadrature.
//! let mesh = MeshPreset::Tetonly.build_scaled(0.02).unwrap();
//! let quad = QuadratureSet::level_symmetric(2).unwrap();
//! let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "quickstart");
//!
//! // Schedule on 16 processors with the paper's practical algorithm.
//! let assignment = Assignment::random_cells(instance.num_cells(), 16, 1);
//! let schedule = Algorithm::RandomDelayPriorities.run(&instance, assignment, 2);
//! validate(&instance, &schedule).unwrap();
//!
//! // Empirically the makespan stays within ~3x of the lower bound.
//! let lb = lower_bounds(&instance, 16);
//! assert!((schedule.makespan() as u64) < 4 * lb.best());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub use sweep_analyze as analyze;
pub use sweep_core as core;
pub use sweep_dag as dag;
pub use sweep_mesh as mesh;
pub use sweep_partition as partition;
pub use sweep_pool as pool;
pub use sweep_quadrature as quadrature;
pub use sweep_sim as sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use sweep_analyze::{
        analyze_all, analyze_assignment, analyze_instance, analyze_schedule, AnalyzeOptions, Code,
        Report, Severity,
    };
    pub use sweep_core::{
        approx_ratio, c1_interprocessor_edges, c2_comm_delay, greedy_schedule, kba_assignment,
        list_schedule, lower_bounds, optimal_sweep_makespan, render_gantt, validate, Algorithm,
        Assignment, BestOfTrials, Schedule,
    };
    pub use sweep_core::{best_of_trials, best_of_trials_seq};
    pub use sweep_dag::{dag_stats, instance_stats, SweepInstance, TaskDag, TaskId};
    pub use sweep_mesh::{
        quality_report, to_vtk, GeneratorConfig, MeshPreset, SweepMesh, TetMesh, TriMesh2d, Vec3,
    };
    pub use sweep_partition::{block_partition, CsrGraph, PartitionOptions};
    pub use sweep_pool::{set_global_threads, ThreadPool};
    pub use sweep_quadrature::{DirectionId, QuadratureSet};
    pub use sweep_sim::{
        latency_makespan, validate_weighted, weighted_lower_bound,
        weighted_random_delay_priorities, Material, TransportSolver,
    };
}
