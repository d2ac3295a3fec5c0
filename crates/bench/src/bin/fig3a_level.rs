//! **Figure 3(a)** — Level priorities versus Random Delays with
//! Priorities on the `long` mesh with block partitioning (paper block
//! size 64): the effect of random delays on top of level-prioritized
//! list scheduling, plotted as makespan / lower-bound.
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin fig3a_level -- --scale 0.05
//! ```

use sweep_bench::{run_fig3, BenchArgs};
use sweep_core::Algorithm;
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    run_fig3(
        &args,
        MeshPreset::Long,
        64,
        |delays| Algorithm::LevelPriority { delays },
        "fig3a_level",
    );
}
