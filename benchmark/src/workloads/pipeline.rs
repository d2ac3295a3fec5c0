//! `pipeline_cold`: the whole library path from nothing at pool width
//! 2 — build, induce, partition, block assignment, a short best-of-2,
//! validate, bounds, C1/C2, CSV — then the cycle-rich imported mesh.
//! The kernel does under a third of the work; `mesh`, `dag`,
//! `partition`, `pool` and serialisation do the rest.

use sweep_core::{
    best_of_trials, c1_interprocessor_edges, c2_comm_delay, lower_bounds, to_csv, validate,
    Algorithm, Assignment, BestOfTrials,
};
use sweep_dag::{induce_all, SweepInstance};
use sweep_mesh::{import_bytes, ImportFormat, MeshPreset, SweepMesh as _};
use sweep_partition::{block_partition, CsrGraph, PartitionOptions};

use super::{digest_bytes, reference_schedule, s4, OpOutcome, Reference, Workload};
use crate::layers::ProbeSpec;
use crate::spans::Tracer;

/// The benchmark's own copy of `examples/meshes/warped.msh` (the
/// spiral-cut hanging-node specimen: all 24 S4 directions cyclic).
pub const WARPED_MSH: &[u8] = include_bytes!("../../data/warped.msh");

/// Tetonly scale: where the issue asked for 0.2 (a 214 ms op on this
/// host), so that 11 passes of 10 ops fit the run length.
pub const SCALE: f64 = 0.125;
/// Cells per partition block.
pub const BLOCK: usize = 64;
/// Processors for the tetonly schedule.
pub const M: usize = 16;
/// Processors for the (144-cell) warped schedule.
pub const M_WARPED: usize = 4;
/// Trials per schedule: short, so the kernel stays under a third.
pub const B: usize = 2;
/// Pool width of the timed ops.
pub const WIDTH: usize = 2;
const CYCLE: usize = 10;
const ALGORITHM: Algorithm = Algorithm::RandomDelayPriorities;

/// Everything one cold pipeline run delivered.
pub struct PipelineReceipt {
    tet: BestOfTrials,
    tet_tasks: usize,
    lower_bound: u64,
    c1: u64,
    c2: u64,
    csv: String,
    blocks: usize,
    warped: BestOfTrials,
    warped_tasks: usize,
    dropped_edges: usize,
}

/// Seed of op `i`'s block assignment: the cycle position, not the run
/// seed. 99 blocks on 16 processors balance so unevenly that another
/// draw moves an op's makespan by ±12 %; the run seed draws the delays
/// (see `kernel::ASSIGNMENT_SEED`).
fn assignment_seed(i: usize) -> u64 {
    i as u64
}

/// What the reference path says op `i` must deliver.
struct PipelineRef {
    tet: Reference,
    c1: u64,
    c2: u64,
    csv: u64,
    warped: Reference,
}

/// `pipeline_cold` after set-up.
pub struct Pipeline {
    seeds: Vec<u64>,
    refs: Vec<PipelineRef>,
    lower_bound: u64,
    blocks: usize,
    dropped_edges: usize,
    /// Cells and tasks of the tetonly instance, tasks of the warped one.
    cells: usize,
    tasks: usize,
    warped_tasks: usize,
}

/// The partition step as the CLI's `--block` path does it, from the
/// mesh's `adjacency_csr` parts.
pub fn partition_blocks(xadj: Vec<u32>, adjncy: Vec<u32>) -> (CsrGraph, Vec<u32>) {
    let graph = CsrGraph::from_csr_parts(xadj, adjncy);
    let blocks = block_partition(&graph, BLOCK, &PartitionOptions::default());
    (graph, blocks)
}

/// Number of blocks a partition uses.
fn block_count(blocks: &[u32]) -> usize {
    blocks.iter().copied().max().map_or(0, |b| b as usize + 1)
}

impl Pipeline {
    /// Computes every op's reference at pool width 1, replays the whole
    /// cycle through the real op at width 1 (the SW023 property: the
    /// width-2 timed ops must deliver the same digests), then widens
    /// the pool to 2.
    ///
    /// # Panics
    /// Panics when a width-1 op disagrees with its reference.
    pub fn set_up(seed: u64) -> Pipeline {
        sweep_pool::set_global_threads(1);
        let quad = s4();
        let mesh = MeshPreset::Tetonly
            .build_scaled(SCALE)
            .expect("tetonly builds");
        let (instance, _) = SweepInstance::from_mesh(&mesh, &quad, "tetonly");
        let (xadj, adjncy) = mesh.adjacency_csr();
        let (_, blocks) = partition_blocks(xadj, adjncy);
        let imported = import_bytes(WARPED_MSH, ImportFormat::Msh).expect("warped.msh imports");
        let (warped, stats) = SweepInstance::from_mesh(&imported.mesh, &quad, "warped");
        let seeds: Vec<u64> = (0..CYCLE as u64)
            .map(|i| rand::split_seed(seed, i))
            .collect();
        let refs = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let assignment = Assignment::random_blocks(&blocks, M, assignment_seed(i));
                let (tet, schedule) = reference_schedule(&instance, &assignment, ALGORITHM, B, s);
                let wassign =
                    Assignment::random_cells(warped.num_cells(), M_WARPED, assignment_seed(i));
                PipelineRef {
                    tet,
                    c1: c1_interprocessor_edges(&instance, &assignment),
                    c2: c2_comm_delay(&instance, &schedule),
                    csv: digest_bytes(to_csv(&instance, &schedule).as_bytes()),
                    warped: reference_schedule(&warped, &wassign, ALGORITHM, B, s).0,
                }
            })
            .collect();
        let pipeline = Pipeline {
            seeds,
            refs,
            lower_bound: lower_bounds(&instance, M).best(),
            blocks: block_count(&blocks),
            dropped_edges: stats.iter().map(|s| s.dropped_edges).sum(),
            cells: instance.num_cells(),
            tasks: instance.num_tasks(),
            warped_tasks: warped.num_tasks(),
        };
        let mut off = Tracer::new(false, std::time::Instant::now(), 0);
        for i in 0..CYCLE {
            let receipt = pipeline.op(0, i, &mut off);
            assert!(
                pipeline.check(0, i, receipt).ok,
                "SW023: pipeline op {i} at pool width 1 disagrees with its reference"
            );
        }
        sweep_pool::set_global_threads(WIDTH);
        pipeline
    }
}

impl Workload for Pipeline {
    type Receipt = PipelineReceipt;

    fn cycle_len(&self) -> usize {
        self.seeds.len()
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            scale: SCALE,
            m: M,
            blocks: true,
            width: WIDTH,
            ctx: ALGORITHM,
        }
    }

    /// `best_of_trials` runs its `B` trials through the pool.
    fn pooled(&self) -> &'static [&'static str] {
        &["core.trial_rdp.ns_per_task_trial"]
    }

    fn composition(&self) -> Vec<(&'static str, f64)> {
        let (cells, tasks) = (self.cells as f64, self.tasks as f64);
        // Both schedules: the warped instance is 2 % of the tasks, so
        // its per-task costs are taken as the tetonly ones.
        let scheduled = tasks + self.warped_tasks as f64;
        vec![
            ("mesh.build.ns_per_cell", cells),
            ("dag.induce.ns_per_task", tasks),
            ("mesh.adjacency.ns_per_cell", cells),
            ("partition.block.ns_per_cell", cells),
            ("core.assign.ns_per_cell", cells),
            ("core.ctx.ns_per_task", scheduled),
            ("core.trial_rdp.ns_per_task_trial", B as f64 * scheduled),
            ("core.rematerialize.ns_per_task", scheduled),
            ("core.validate.ns_per_task", scheduled),
            ("core.bounds.ns_per_task", tasks),
            ("core.c1c2.ns_per_task", tasks),
            ("core.csv.ns_per_task", tasks),
            ("mesh.import.ns_per_byte", WARPED_MSH.len() as f64),
            ("dag.induce_cyclic.ns_per_task", self.warped_tasks as f64),
        ]
    }

    fn op(&self, _pass: usize, i: usize, tr: &mut Tracer) -> PipelineReceipt {
        let seed = self.seeds[i];
        let quad = s4();
        let mesh = tr.leaf("mesh.build", || {
            MeshPreset::Tetonly
                .build_scaled(SCALE)
                .expect("tetonly builds")
        });
        let instance = tr.leaf("dag.induce", || {
            let (dags, _) = induce_all(&mesh, &quad);
            SweepInstance::new(mesh.num_cells(), dags, "tetonly")
        });
        let (xadj, adjncy) = tr.leaf("mesh.adjacency", || mesh.adjacency_csr());
        let (_, blocks) = tr.leaf("partition.block", || partition_blocks(xadj, adjncy));
        let assignment = tr.leaf("core.assign", || {
            Assignment::random_blocks(&blocks, M, assignment_seed(i))
        });
        let tet = tr.leaf("core.bot.rdp", || {
            best_of_trials(&instance, &assignment, ALGORITHM, B, seed)
        });
        tr.leaf("core.validate", || validate(&instance, &tet.schedule))
            .expect("delivered schedule is feasible");
        let lower_bound = tr.leaf("core.bounds", || lower_bounds(&instance, M).best());
        let (c1, c2) = tr.leaf("core.c1c2", || {
            (
                c1_interprocessor_edges(&instance, &assignment),
                c2_comm_delay(&instance, &tet.schedule),
            )
        });
        let csv = tr.leaf("core.csv", || to_csv(&instance, &tet.schedule));

        let imported = tr.leaf("mesh.import", || {
            import_bytes(WARPED_MSH, ImportFormat::Msh).expect("warped.msh imports")
        });
        let (winst, stats) = tr.leaf("dag.induce_cyclic", || {
            SweepInstance::from_mesh(&imported.mesh, &quad, "warped")
        });
        let wassign = tr.leaf("core.assign", || {
            Assignment::random_cells(winst.num_cells(), M_WARPED, assignment_seed(i))
        });
        let warped = tr.leaf("core.bot.rdp", || {
            best_of_trials(&winst, &wassign, ALGORITHM, B, seed)
        });
        tr.leaf("core.validate", || validate(&winst, &warped.schedule))
            .expect("delivered schedule is feasible");
        PipelineReceipt {
            tet,
            tet_tasks: instance.num_tasks(),
            lower_bound,
            c1,
            c2,
            csv,
            blocks: block_count(&blocks),
            warped,
            warped_tasks: winst.num_tasks(),
            dropped_edges: stats.iter().map(|s| s.dropped_edges).sum(),
        }
    }

    fn check(&self, _pass: usize, i: usize, r: PipelineReceipt) -> OpOutcome {
        let want = &self.refs[i];
        let ok = want.tet.matches(&r.tet.schedule, r.tet.trial)
            && want.warped.matches(&r.warped.schedule, r.warped.trial)
            && r.lower_bound == self.lower_bound
            && (r.c1, r.c2) == (want.c1, want.c2)
            && digest_bytes(r.csv.as_bytes()) == want.csv
            && r.blocks == self.blocks
            && r.dropped_edges == self.dropped_edges;
        // The ratio is the tetonly schedule's: the 144-cell warped
        // instance is critical-path bound and would only dilute it.
        OpOutcome {
            tasks: (r.tet_tasks + r.warped_tasks) as u64,
            schedules: 1,
            ratio_sum: f64::from(r.tet.schedule.makespan()) / self.lower_bound.max(1) as f64,
            ok,
        }
    }
}
