//! # sweep-dag — task-DAG substrate for sweep scheduling
//!
//! Everything between the mesh and the schedulers:
//!
//! * [`TaskDag`] — one direction's precedence constraints: two bit planes
//!   over a neighbour graph every direction of a mesh shares;
//! * [`induce_dag`] / [`induce_all`] — induction of per-direction DAGs
//!   from face normals, with geometric cycle breaking (paper §3);
//! * [`levels()`](levels()) / [`b_levels`] — the layer structure `L_{i,j}` that both
//!   the Random Delay algorithms and the Level/DFDS priorities consume;
//! * [`descendant_counts_approx`] — the path-count descendants behind the
//!   Plimpton-style priority, and [`descendant_counts_exact`], the
//!   distinct-node count they upper-bound;
//! * [`SweepInstance`] — the full instance (`n` cells, `k` DAGs) plus
//!   synthetic and adversarial generators.
//!
//! ```
//! use sweep_mesh::TriMesh2d;
//! use sweep_quadrature::QuadratureSet;
//! use sweep_dag::SweepInstance;
//!
//! let mesh = TriMesh2d::unit_square(6, 6, 0.2, 1).unwrap();
//! let quad = QuadratureSet::uniform_2d(8).unwrap();
//! let (inst, _) = SweepInstance::from_mesh(&mesh, &quad, "demo");
//! assert_eq!(inst.num_tasks(), 72 * 8);
//! assert!(inst.dags().iter().all(|d| d.is_acyclic()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bitset;
pub mod descendants;
pub mod graph;
pub mod induce;
pub mod instance;
pub mod levels;
pub mod serialize;
pub mod stats;

pub use bitset::BitSet;
pub use descendants::{descendant_counts_approx, descendant_counts_exact};
pub use graph::{Edges, Neighbours, TaskDag};
pub use induce::{
    break_cycles, cyclic_components, induce_all, induce_dag, induce_raw, upwind, InduceStats,
};
pub use instance::{SweepInstance, TaskId};
pub use levels::{b_levels, levels, Levels};
pub use serialize::{from_text, from_text_unchecked, peek_counts, to_text};
pub use stats::{dag_stats, instance_stats, to_dot, DagStats, InstanceStats};
