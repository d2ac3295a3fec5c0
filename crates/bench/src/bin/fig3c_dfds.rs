//! **Figure 3(c)** — DFDS priorities (Pautz) without and with random
//! delays, versus Random Delays with Priorities, on the `well_logging`
//! mesh with block partitioning (paper block size 128).
//!
//! ```sh
//! cargo run --release -p sweep-bench --bin fig3c_dfds -- --scale 0.05
//! ```

use sweep_bench::{run_fig3, BenchArgs};
use sweep_core::Algorithm;
use sweep_mesh::MeshPreset;

fn main() {
    let args = BenchArgs::parse();
    run_fig3(
        &args,
        MeshPreset::WellLogging,
        128,
        |delays| Algorithm::Dfds { delays },
        "fig3c_dfds",
    );
}
