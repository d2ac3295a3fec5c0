//! The partitioner's spans with recording on — a binary of its own,
//! because the collector is process-global and every other test that
//! partitions would add to the same spans.

use sweep_partition::{block_partition, partition, CsrGraph, PartitionOptions};
use sweep_telemetry as telemetry;

/// A `w × h` grid graph.
fn grid(w: u32, h: u32) -> CsrGraph {
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((y * w + x, y * w + x + 1));
            }
            if y + 1 < h {
                edges.push((y * w + x, (y + 1) * w + x));
            }
        }
    }
    CsrGraph::from_edges((w * h) as usize, &edges)
}

/// How many spans named `name` the collector holds.
fn count(name: &str) -> usize {
    let snap = telemetry::snapshot();
    snap.spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn spans_count_bisections_exactly() {
    sweep_pool::set_global_threads(1);
    // 576 vertices in 9 parts: every subset the recursion meets has far
    // more vertices than parts, so each of the 8 bisections runs in full.
    let g = grid(24, 24);
    let opts = PartitionOptions::default();

    telemetry::set_enabled(false);
    telemetry::reset();
    let quiet = partition(&g, 9, &opts);
    assert!(telemetry::snapshot().spans.is_empty());

    telemetry::set_enabled(true);
    let traced = partition(&g, 9, &opts);
    assert_eq!(traced, quiet, "recording does not move a block");
    assert_eq!(count("partition.block"), 1);
    assert_eq!(count("partition.kway"), 1);
    for per_bisection in [
        "partition.coarsen",
        "partition.initial_bisection",
        "partition.refine",
    ] {
        assert_eq!(count(per_bisection), 8, "{per_bisection}");
    }

    // `block_partition` is one `partition` call: ⌈576 / 64⌉ = 9 parts.
    telemetry::reset();
    assert_eq!(block_partition(&g, 64, &opts), traced);
    assert_eq!(count("partition.block"), 1);
    assert_eq!(count("partition.refine"), 8);
    telemetry::set_enabled(false);
}
