//! The paper's Figure 1, recreated: a small 2-D unstructured mesh, the
//! digraph one sweep direction induces on it, and the level (wavefront)
//! structure — rendered as SVG files you can open in a browser, plus the
//! DOT source of the induced DAG for Graphviz.
//!
//! ```sh
//! cargo run --release --example figure1_2d
//! ```

use sweep_scheduling::dag::{levels, to_dot};
use sweep_scheduling::mesh::{levels_svg, to_svg_2d, ColorMap};
use sweep_scheduling::prelude::*;

fn main() {
    // A small jittered triangulation like the paper's Figure 1(a).
    let mesh = TriMesh2d::unit_square(6, 6, 0.25, 2).expect("mesh");
    let quad = QuadratureSet::uniform_2d(8).expect("fan");
    let (instance, stats) = SweepInstance::from_mesh(&mesh, &quad, "figure1");
    println!(
        "mesh: {} triangles; direction 0 induces {} edges ({} dropped by cycle breaking)",
        mesh.num_cells(),
        instance.dag(0).num_edges(),
        stats[0].dropped_edges
    );

    // Figure 1(b): the level structure of direction 0.
    let lv = levels(instance.dag(0));
    println!("levels (D = {}):", lv.depth());
    for (j, layer) in lv.iter().enumerate().take(6) {
        println!("  L{}: {} cells", j + 1, layer.len());
    }
    if lv.depth() > 6 {
        println!("  … {} more layers", lv.depth() - 6);
    }

    // SVG renderings: the sweep wavefront and a 4-processor assignment.
    let svg_levels = levels_svg(&mesh, instance.dag(0).level_of(), 480).expect("svg");
    std::fs::write("figure1_levels.svg", &svg_levels).expect("write svg");
    let assignment = Assignment::random_cells(mesh.num_cells(), 4, 3);
    let procs: Vec<f64> = assignment.as_slice().iter().map(|&p| p as f64).collect();
    let svg_procs = to_svg_2d(&mesh, &procs, ColorMap::Categorical, 480).expect("svg");
    std::fs::write("figure1_processors.svg", &svg_procs).expect("write svg");
    println!("wrote figure1_levels.svg and figure1_processors.svg");

    // Graphviz DOT of the induced DAG (small enough to lay out).
    match to_dot(instance.dag(0), "figure1_direction0", 200) {
        Ok(dot) => {
            std::fs::write("figure1_dag.dot", &dot).expect("write dot");
            println!(
                "wrote figure1_dag.dot ({} ranks) — render with `dot -Tpng`",
                lv.depth()
            );
        }
        Err(e) => println!("skipping DOT export: {e}"),
    }

    // And of course: schedule it.
    let schedule = Algorithm::RandomDelayPriorities.run(&instance, assignment, 5);
    validate(&instance, &schedule).expect("feasible");
    println!(
        "schedule on 4 processors: makespan {} (lower bound {})",
        schedule.makespan(),
        lower_bounds(&instance, 4).best()
    );
}
