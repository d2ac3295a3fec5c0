//! # sweep-partition — multilevel graph partitioner (METIS stand-in)
//!
//! The paper lowers communication cost by partitioning the mesh into blocks
//! with METIS and assigning a *processor per block* instead of per cell
//! (§5.1). METIS is proprietary-adjacent and external, so this crate
//! implements the same multilevel scheme from scratch:
//!
//! 1. **coarsening** by heavy-edge matching (`coarsen`);
//! 2. **initial bisection** by greedy region growing (`bisect`);
//! 3. **uncoarsening** with Fiduccia–Mattheyses boundary refinement;
//! 4. **k-way** partitions by recursive bisection with proportional weight
//!    targets ([`partition`]).
//!
//! ```
//! use sweep_partition::{CsrGraph, PartitionOptions, block_partition, edge_cut, imbalance};
//!
//! // An 8x8 grid graph, cut into blocks of ~16 cells.
//! let id = |x: u32, y: u32| y * 8 + x;
//! let mut edges = Vec::new();
//! for y in 0..8u32 {
//!     for x in 0..8u32 {
//!         if x + 1 < 8 { edges.push((id(x, y), id(x + 1, y))); }
//!         if y + 1 < 8 { edges.push((id(x, y), id(x, y + 1))); }
//!     }
//! }
//! let g = CsrGraph::from_edges(64, &edges);
//! let part = block_partition(&g, 16, &PartitionOptions::default());
//! assert!(imbalance(&g, &part, 4) < 1.2);
//! assert!(edge_cut(&g, &part) < 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod bisect;
mod coarsen;
pub mod csr;
mod kway;
pub mod multilevel;

pub use csr::CsrGraph;
pub use multilevel::{block_partition, edge_cut, imbalance, partition, PartitionOptions};
