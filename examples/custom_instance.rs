//! Non-geometric instances: the paper notes its algorithms "assume no
//! relation between the DAGs in different directions, and thus are
//! applicable even to non-geometric instances". This example schedules
//! (a) a random-layered instance, (b) random chains, and (c) the
//! adversarial identical-chains family on which running *without* random
//! delays collapses to full serialization.
//!
//! ```sh
//! cargo run --release --example custom_instance
//! ```

use sweep_scheduling::core::random_delay_with;
use sweep_scheduling::prelude::*;

fn report(label: &str, instance: &SweepInstance, m: usize) {
    let assignment = Assignment::random_cells(instance.num_cells(), m, 21);
    let schedule = Algorithm::RandomDelayPriorities.run(instance, assignment, 22);
    validate(instance, &schedule).expect("feasible");
    let lb = lower_bounds(instance, m);
    println!(
        "{label:<28} n={:<6} k={:<3} D={:<5} makespan={:<6} lb={:<6} ratio={:.2}",
        instance.num_cells(),
        instance.num_directions(),
        instance.max_depth(),
        schedule.makespan(),
        lb.best(),
        schedule.makespan() as f64 / lb.best() as f64
    );
}

fn main() {
    let m = 32;
    println!("scheduling non-geometric instances on {m} processors:\n");

    report(
        "random layered",
        &SweepInstance::random_layered(4000, 16, 40, 3, 1),
        m,
    );
    report("random chains", &SweepInstance::random_chains(800, 8, 2), m);
    report(
        "bottleneck (w=64, d=20)",
        &SweepInstance::bottleneck(64, 20, 8),
        m,
    );

    // The adversarial family: identical chains in every direction.
    println!("\nidentical chains (n=200, k=16) — why random delays matter:");
    let inst = SweepInstance::identical_chains(200, 16);
    let a = Assignment::random_cells(200, m, 5);
    let no_delay = random_delay_with(&inst, a.clone(), &[0; 16]);
    let with_delay = Algorithm::RandomDelay.run(&inst, a.clone(), 7);
    let compacted = Algorithm::RandomDelayPriorities.run(&inst, a, 7);
    println!(
        "  layer-sequential, zero delays : {:>6}  (= n·k, full serialization)",
        no_delay.makespan()
    );
    println!(
        "  layer-sequential, random delays: {:>6}",
        with_delay.makespan()
    );
    println!(
        "  with priority compaction       : {:>6}  (lower bound {})",
        compacted.makespan(),
        lower_bounds(&inst, m).best()
    );
}
