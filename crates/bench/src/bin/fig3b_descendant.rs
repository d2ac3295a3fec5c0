//! **Figure 3(b)** — Descendant priorities (Plimpton et al.) without and
//! with random delays, versus Random Delays with Priorities, on the
//! `tetonly` mesh with block partitioning (paper block size 256).
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin fig3b_descendant -- --scale 0.05
//! ```

use sweep_bench::{run_fig3, BenchArgs};
use sweep_core::Algorithm;
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    run_fig3(
        &args,
        MeshPreset::Tetonly,
        256,
        |delays| Algorithm::DescendantPriority { delays },
        "fig3b_descendant",
    );
}
