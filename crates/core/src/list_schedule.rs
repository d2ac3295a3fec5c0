//! Priority-based list scheduling under the sweep constraints (paper §3,
//! "List Scheduling").
//!
//! Every task is pre-assigned to a processor (through the cell
//! [`Assignment`]); at each timestep every processor runs its *ready*
//! task of minimum `(priority, task id)`. Optional per-direction *release
//! times* delay the whole direction — that is how "adding random delays"
//! composes with the Descendant and DFDS heuristics in §5.2.
//!
//! # The rank kernel
//!
//! Priorities are fixed for the length of a run, so the order a priority
//! queue would pop in is known before the first step. A run reads a
//! *ranking*: tasks are sorted by `(processor, priority, task id)`, which
//! gives every task a dense `u32` rank and every processor a contiguous
//! block of ranks. The ready set is one bit per rank in a word-packed
//! bitset plus a summary level (one bit per non-zero word): a push sets
//! two bits and flags the processor, a step visits only the flagged
//! processors, and a processor's pop is the lowest set bit of its block —
//! two `trailing_zeros`. `(priority, task id)` is a total order, so "lowest
//! ready rank of the block" and "minimum of a binary heap keyed by
//! `(priority, task id)`" are the same task at every step: the start times
//! are exactly those of the per-processor heaps this replaced (kept under
//! `#[cfg(test)]` as the differential oracle).
//!
//! Ranking is one stable counting sort on `(processor, priority − min)`
//! while that key space has at most `COUNTING_BUCKETS_PER_TASK` buckets
//! per task (level-like priorities: random delays, levels, FIFO,
//! compaction); otherwise a counting sort on the processor alone, then one
//! `sort_unstable` per block over packed `(priority − min, task id)` keys.
//! The choice is read from the observed priority range and nothing else.
//! A ranking also groups every direction's sources for its release. Where
//! no seed moves the priorities (Level, Descendant, DFDS, Greedy),
//! [`crate::TrialContext`] ranks once and every trial borrows it.
//!
//! A run costs `O(T·⌈m/8⌉ + n·k + |E|)` plus its ranking, `O(n·k +
//! m·range)` or `O(n·k·log(n·k/m) + m)` — inside Theorem 2's `O(T·m +
//! n·k·log(n·k))` (`T` is the produced makespan) — plus `c / 4096`
//! summary words scanned per pop on a processor holding `c` tasks. Ranks
//! and task ids are `u32`: an instance may have at most `2³² − 1` tasks
//! (asserted; the service admits 8 M).

use sweep_dag::{SweepInstance, TaskDag};
use sweep_telemetry as telemetry;

use crate::assignment::Assignment;
use crate::schedule::Schedule;

/// Runs prioritized list scheduling.
///
/// * `priority[task]` — smaller values run first (negate for largest-first
///   schemes such as Descendant/DFDS); any `i64` is valid;
/// * `release` — optional per-direction earliest start times (the
///   "random delays applied to a heuristic" mechanism).
///
/// # Panics
/// Panics when `priority.len() != n·k`, when the assignment covers a
/// different cell count, when `release` (if given) has fewer than `k`
/// entries, or when the instance has more than `u32::MAX` tasks.
pub fn list_schedule(
    instance: &SweepInstance,
    assignment: Assignment,
    priority: &[i64],
    release: Option<&[u32]>,
) -> Schedule {
    let tasks = instance.num_tasks();
    assert_eq!(priority.len(), tasks, "one priority per task");
    schedule_by(instance, assignment, |t, _| priority[t], release)
}

/// [`list_schedule`] for a priority given as a function of `(task,
/// direction)` — the allocating wrapper around [`list_schedule_core`].
pub(crate) fn schedule_by(
    instance: &SweepInstance,
    assignment: Assignment,
    priority: impl Fn(usize, usize) -> i64,
    release: Option<&[u32]>,
) -> Schedule {
    let mut bufs = ListBuffers::default();
    list_schedule_core(instance, &assignment, priority, release, &mut bufs);
    Schedule::new_checked(std::mem::take(&mut bufs.start), assignment)
}

/// The counting sort ranks a run while its histogram — one bucket per
/// `(processor, priority value)` — has at most this many buckets per
/// task; wider priority ranges are ranked by comparison sort.
const COUNTING_BUCKETS_PER_TASK: usize = 2;

/// Most distinct priority values the counting sort takes.
fn max_counting_width(nk: usize, m: usize) -> usize {
    (COUNTING_BUCKETS_PER_TASK * nk / m).max(1)
}

/// The task count `n·k`, checked against the `u32` rank and id space.
fn checked_num_tasks(n: usize, k: usize) -> usize {
    let nk = n.checked_mul(k).filter(|&nk| nk <= u32::MAX as usize);
    nk.unwrap_or_else(|| panic!("task ids are u32: {n} cells x {k} directions is over 2^32 - 1"))
}

/// The `(processor, priority, task id)` order: all a run reads.
#[derive(Default)]
pub(crate) struct Ranking {
    /// `(in-degree, rank)` per task: the template a run counts down.
    nodes: Vec<Node>,
    /// The task at every rank.
    task_at: Vec<u32>,
    /// Where every processor's block starts (`m + 1` entries).
    blocks: Vec<Block>,
    /// `(processor, rank)` of every source, direction `d`'s at
    /// `source_xadj[d]..source_xadj[d + 1]`.
    sources: Vec<(u32, u32)>,
    source_xadj: Vec<u32>,
    /// Counting-sort histogram, then write cursors.
    counts: Vec<u32>,
    /// One block's sort keys (wide priority ranges only).
    keys: Vec<u128>,
}

/// Reusable buffers for [`list_schedule_core`] — the arena the trial
/// scratch ([`crate::scratch::TrialScratch`]) keeps warm so repeated
/// trials never reallocate. All buffers are reset, not freed, at the
/// start of every run.
#[derive(Default)]
pub(crate) struct ListBuffers {
    /// The ranking of a run that ranks its own tasks.
    pub ranking: Ranking,
    /// The run's `(predecessors left, rank)` per task.
    nodes: Vec<Node>,
    /// Start times per task (the run's output).
    pub start: Vec<u32>,
    ready: ReadySet,
    /// Direction of the first of every `2^s ≤ n` consecutive task ids.
    dir_hint: Vec<u32>,
    /// Tasks scheduled in the current step.
    completed: Vec<u32>,
}

/// What releasing an edge into a task touches, side by side so that it
/// is one cache line, not two.
#[derive(Clone, Copy)]
struct Node {
    /// Predecessors that have not run yet.
    waiting: u32,
    /// Position in the `(processor, priority, task id)` order.
    rank: u32,
}

/// Start of one processor's block: its first rank, and the first word of
/// its slice of the ready bitset and of the summary level (slices are
/// padded to whole words, so processors share none).
#[derive(Clone, Copy, Default)]
pub(crate) struct Block {
    rank: usize,
    word: usize,
    summary: usize,
}

/// The ready tasks of a run, by rank: one bit per rank and one bit per
/// non-zero word. Beside them one flag byte per processor that a push may
/// have given work, so a step visits only the flagged processors.
#[derive(Default)]
struct ReadySet {
    words: Vec<u64>,
    summary: Vec<u64>,
    flagged: Vec<u8>,
}

impl ReadySet {
    /// Empties the set for a run whose last block ends at `end`, on `m`
    /// processors.
    fn reset(&mut self, end: Block, m: usize) {
        for (bits, len) in [
            (&mut self.words, end.word),
            (&mut self.summary, end.summary),
        ] {
            bits.clear();
            bits.resize(len, 0);
        }
        self.flagged.clear();
        self.flagged.resize(m.div_ceil(8) * 8, 0);
    }

    /// Marks rank `r` of processor `p`'s block ready — if `ready` — and
    /// flags `p` either way: a store, where setting a bit only when
    /// `ready` would be a read-modify-write that makes every push of a
    /// step wait on the one before it.
    #[inline]
    fn push_if(&mut self, ready: bool, blocks: &[Block], p: u32, r: u32) {
        push_if(
            ready,
            &mut self.words,
            &mut self.summary,
            blocks[p as usize],
            r,
        );
        self.flagged[p as usize] = 1;
    }

    /// Removes and returns the lowest ready rank of processor `p`; unflags
    /// `p` if it has none.
    #[inline]
    fn pop_lowest(&mut self, blocks: &[Block], p: usize) -> Option<usize> {
        let (block, next) = (blocks[p], blocks[p + 1]);
        for s in block.summary..next.summary {
            let nonzero = self.summary[s];
            if nonzero != 0 {
                let w = (s - block.summary) << 6 | nonzero.trailing_zeros() as usize;
                let word = self.words[block.word + w];
                let rest = word & (word - 1);
                self.words[block.word + w] = rest;
                if rest == 0 {
                    self.summary[s] = nonzero & (nonzero - 1);
                }
                return Some(block.rank + (w << 6 | word.trailing_zeros() as usize));
            }
        }
        self.flagged[p] = 0;
        None
    }
}

/// Calls `f(task, direction, cell)` for every task in id order.
#[inline]
fn for_each_task(n: usize, k: usize, mut f: impl FnMut(usize, usize, usize)) {
    for dir in 0..k {
        for v in 0..n {
            f(dir * n + v, dir, v);
        }
    }
}

pub(crate) fn reserve<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        v.reserve_exact(cap - v.len());
    }
}

impl Ranking {
    /// A ranking made once and shared by many runs, its sort buffers freed.
    pub(crate) fn new(
        instance: &SweepInstance,
        assignment: &Assignment,
        priority: impl Fn(usize, usize) -> i64,
    ) -> Ranking {
        let mut ranking = Ranking::default();
        ranking.rank_tasks(instance, assignment, priority);
        (ranking.counts, ranking.keys) = Default::default();
        ranking
    }

    /// The one ranking function: ranks by `priority(task, direction)`,
    /// read here and never again, and groups each direction's sources as
    /// `(processor, rank)`.
    pub(crate) fn rank_tasks(
        &mut self,
        instance: &SweepInstance,
        assignment: &Assignment,
        priority: impl Fn(usize, usize) -> i64,
    ) {
        let _span = telemetry::span!("sched.list_schedule.rank");
        let (n, k) = (instance.num_cells(), instance.num_directions());
        let cells = assignment.num_cells();
        assert_eq!(cells, n, "assignment covers the instance cells");
        self.nodes.clear();
        reserve(&mut self.nodes, checked_num_tasks(n, k));
        for dag in instance.dags() {
            let indeg = dag.in_degrees();
            self.nodes
                .extend(indeg.map(|waiting| Node { waiting, rank: 0 }));
        }
        self.rank(n, k, assignment, priority);
        self.sources.clear();
        self.source_xadj.clear();
        self.source_xadj.push(0);
        for tasks in self.nodes.chunks(n.max(1)) {
            let sources = tasks.iter().zip(assignment.as_slice());
            let sources = sources.filter(|(node, _)| node.waiting == 0);
            self.sources
                .extend(sources.map(|(node, &p)| (p, node.rank)));
            self.source_xadj.push(self.sources.len() as u32);
        }
    }

    /// Fills `nodes[..].rank`, `task_at` and `blocks` with the
    /// `(processor, priority, task id)` order (`nodes` already has one
    /// entry per task).
    fn rank(
        &mut self,
        n: usize,
        k: usize,
        assignment: &Assignment,
        priority: impl Fn(usize, usize) -> i64,
    ) {
        let (m, nk) = (assignment.num_procs(), n * k);
        let procs = assignment.as_slice();
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for_each_task(n, k, |t, dir, _| {
            lo = lo.min(priority(t, dir));
            hi = hi.max(priority(t, dir));
        });
        // The difference of two `i64` fits a `u64`, and is the wrapping
        // difference read as unsigned: no priority range overflows.
        let offset = |p: i64| p.wrapping_sub(lo) as u64;
        let counting = offset(hi) < max_counting_width(nk, m) as u64;
        let width = if counting { offset(hi) as usize + 1 } else { 1 };
        let key = |t: usize, dir: usize, v: usize| {
            let value = if counting {
                offset(priority(t, dir))
            } else {
                0
            };
            procs[v] as usize * width + value as usize
        };

        // Stable counting sort: tasks are visited in id order, so equal
        // keys keep ascending ids.
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(m * width + 1, 0);
        for_each_task(n, k, |t, dir, v| counts[key(t, dir, v) + 1] += 1);
        for b in 1..counts.len() {
            counts[b] += counts[b - 1];
        }
        self.blocks.clear();
        let mut block = Block::default();
        for p in 0..=m {
            let rank = counts[p * width] as usize;
            let words = (rank - block.rank).div_ceil(64);
            block.rank = rank;
            block.word += words;
            block.summary += words.div_ceil(64);
            self.blocks.push(block);
        }
        let (nodes, task_at) = (&mut self.nodes, &mut self.task_at);
        task_at.clear();
        task_at.resize(nk, 0);
        for_each_task(n, k, |t, dir, v| {
            let slot = &mut counts[key(t, dir, v)];
            nodes[t].rank = *slot;
            task_at[*slot as usize] = t as u32;
            *slot += 1;
        });
        if counting {
            return;
        }
        // Every block holds its processor's tasks in id order; sort each
        // by `(priority − min, id)` packed into one integer.
        for block in self.blocks.windows(2) {
            let block = block[0].rank..block[1].rank;
            let tasks = task_at[block.clone()].iter().map(|&t| t as usize);
            self.keys.clear();
            self.keys
                .extend(tasks.map(|t| (offset(priority(t, t / n)) as u128) << 32 | t as u128));
            self.keys.sort_unstable();
            for (r, &key) in block.zip(&self.keys) {
                task_at[r] = key as u32;
                nodes[key as u32 as usize].rank = r as u32;
            }
        }
    }
}

impl ListBuffers {
    /// Reserves every buffer for any run over `n·k` tasks on `m`
    /// processors that ranks its own, by priorities that span at most
    /// `max_span` (max − min), on DAGs with `sources` sources in all.
    pub fn reserve(&mut self, n: usize, k: usize, m: usize, max_span: usize, sources: usize) {
        let (nk, ranking) = (n * k, &mut self.ranking);
        reserve(&mut ranking.task_at, nk);
        reserve(&mut ranking.blocks, m + 1);
        reserve(&mut ranking.sources, sources);
        reserve(&mut ranking.source_xadj, k + 1);
        let width = max_counting_width(nk, m);
        let values = max_span.saturating_add(1);
        reserve(&mut ranking.counts, m * width.min(values) + 1);
        if max_span >= width {
            reserve(&mut ranking.keys, nk);
        }
        self.reserve_run(n, k, m);
    }

    /// Reserves the buffers a run on a borrowed ranking uses.
    pub fn reserve_run(&mut self, n: usize, k: usize, m: usize) {
        let nk = n * k;
        reserve(&mut self.nodes, nk);
        reserve(&mut self.start, nk);
        reserve(&mut self.ready.words, nk / 64 + m);
        reserve(&mut self.ready.summary, (nk / 64 + m) / 64 + m);
        reserve(&mut self.ready.flagged, m.div_ceil(8) * 8);
        reserve(&mut self.dir_hint, 2 * k + 1);
        reserve(&mut self.completed, m);
    }

    /// Fingerprint of every buffer's capacity (capacities never shrink,
    /// so inequality means something grew).
    pub fn capacity_cells(&self) -> usize {
        let ranking = &self.ranking;
        ranking.nodes.capacity()
            + ranking.task_at.capacity()
            + ranking.blocks.capacity()
            + ranking.sources.capacity()
            + ranking.source_xadj.capacity()
            + ranking.counts.capacity()
            + ranking.keys.capacity()
            + self.nodes.capacity()
            + self.start.capacity()
            + self.ready.words.capacity()
            + self.ready.summary.capacity()
            + self.ready.flagged.capacity()
            + self.dir_hint.capacity()
            + self.completed.capacity()
    }
}

/// Marks rank `r` of `block` ready — if `ready`. Branch-free on purpose:
/// whether an edge releases its head is a coin toss the branch predictor
/// loses, and that misprediction was the step loop's largest cost.
#[inline]
pub(crate) fn push_if(ready: bool, words: &mut [u64], summary: &mut [u64], block: Block, r: u32) {
    let bit = r as usize - block.rank;
    let w = bit >> 6;
    words[block.word + w] |= (ready as u64) << (bit & 63);
    summary[block.summary + (w >> 6)] |= (ready as u64) << (w & 63);
}

/// In-degree of every task, in id order — what every engine (the list
/// scheduler, the Graham pass, the weighted scheduler, the simulators)
/// counts down to find ready tasks.
pub fn task_in_degrees(instance: &SweepInstance) -> impl Iterator<Item = u32> + '_ {
    instance.dags().iter().flat_map(TaskDag::in_degrees)
}

/// The per-task table (indexed by `TaskId::index`: direction-major) of a
/// per-direction function: `per_dir(i, G_i)` yields one value per cell.
pub(crate) fn per_task_table<'a, T, I: IntoIterator<Item = T>>(
    instance: &'a SweepInstance,
    mut per_dir: impl FnMut(usize, &'a TaskDag) -> I,
) -> Vec<T> {
    let mut table = Vec::with_capacity(instance.num_tasks());
    for (i, dag) in instance.dags().iter().enumerate() {
        table.extend(per_dir(i, dag));
        debug_assert_eq!(table.len(), (i + 1) * instance.num_cells());
    }
    table
}

/// The list-scheduling engine proper: ranks, then runs; fills
/// `bufs.start` and returns the makespan. Both the allocating wrappers
/// ([`list_schedule`] and friends) and the arena-reusing trial path run
/// *this* code, so the two can never diverge.
pub(crate) fn list_schedule_core(
    instance: &SweepInstance,
    assignment: &Assignment,
    priority: impl Fn(usize, usize) -> i64,
    release: Option<&[u32]>,
    bufs: &mut ListBuffers,
) -> u32 {
    // No other run reads this template: rank it in the run's node buffer.
    let mut ranking = std::mem::take(&mut bufs.ranking);
    ranking.nodes = std::mem::take(&mut bufs.nodes);
    ranking.rank_tasks(instance, assignment, priority);
    std::mem::swap(&mut ranking.nodes, &mut bufs.nodes);
    let makespan = run_steps(instance, assignment.as_slice(), release, &ranking, bufs);
    bufs.ranking = ranking;
    makespan
}

/// One run on a ranking made once for many: copies its template, steps.
pub(crate) fn run_ranked(
    instance: &SweepInstance,
    assignment: &Assignment,
    release: Option<&[u32]>,
    ranking: &Ranking,
    bufs: &mut ListBuffers,
) -> u32 {
    bufs.nodes.clone_from(&ranking.nodes);
    run_steps(instance, assignment.as_slice(), release, ranking, bufs)
}

/// The step loop over `ranking`, counting down `bufs.nodes` (which holds
/// its template); `procs` is the cell → processor map.
fn run_steps(
    instance: &SweepInstance,
    procs: &[u32],
    release: Option<&[u32]>,
    ranking: &Ranking,
    bufs: &mut ListBuffers,
) -> u32 {
    let _span = telemetry::span!("sched.list_schedule");
    let (n, k) = (instance.num_cells(), instance.num_directions());
    if let Some(r) = release {
        assert!(r.len() >= k, "one release time per direction");
    }
    let ListBuffers {
        nodes,
        start,
        ready,
        dir_hint,
        completed,
        ..
    } = bufs;
    start.clear();
    start.resize(n * k, 0);
    if n == 0 {
        return 0;
    }
    let Ranking {
        task_at, blocks, ..
    } = ranking;
    ready.reset(blocks[blocks.len() - 1], blocks.len() - 1);
    // Task → direction without dividing: `2^shift ≤ n` consecutive ids
    // span at most two directions, so the direction of the first of them
    // is the task's own or the one before it.
    let shift = n.ilog2();
    dir_hint.clear();
    dir_hint.extend((0..=(n * k) >> shift).map(|run| ((run << shift) / n) as u32));

    // Only sources wait for their direction's release (see the step
    // loop): releasing the directions due at `now` pushes their sources.
    let release_of = |dir: usize| release.map_or(0, |r| r[dir]);
    let max_release = (0..k).map(release_of).max().unwrap_or(0);
    let (sources, xadj) = (&ranking.sources, &ranking.source_xadj);
    let release_at = |now, ready: &mut ReadySet| {
        let due = (0..k).filter(|&dir| release_of(dir) == now);
        let due = due.flat_map(|d| &sources[xadj[d] as usize..xadj[d + 1] as usize]);
        due.map(|&(p, r)| ready.push_if(true, blocks, p, r)).count()
    };
    // `waiting` counts the ranks in the ready set.
    let mut waiting = release_at(0, ready);

    let mut pending = n * k;
    let mut ready_peak = 0usize;
    let mut t_now: u32 = 0;
    while pending > 0 {
        ready_peak = ready_peak.max(waiting);
        if (1..=max_release).contains(&t_now) {
            waiting += release_at(t_now, ready);
        }
        completed.clear();
        for i in 0..ready.flagged.len() / 8 {
            let flags = ready.flagged[8 * i..8 * i + 8].try_into();
            let mut flags = u64::from_le_bytes(flags.expect("eight flags"));
            while flags != 0 {
                let p = i << 3 | (flags.trailing_zeros() >> 3) as usize;
                flags &= flags - 1;
                if let Some(r) = ready.pop_lowest(blocks, p) {
                    start[task_at[r] as usize] = t_now;
                    completed.push(task_at[r]);
                }
            }
        }
        waiting -= completed.len();
        pending -= completed.len();
        let cells = completed.iter().map(|&task| {
            let hint = dir_hint[(task >> shift) as usize] as usize;
            let dir = hint + usize::from(task as usize >= (hint + 1) * n);
            (dir, task - (dir * n) as u32)
        });
        for (dir, successors) in instance.successors_of(cells) {
            // A task that ran was released, and so are its successors:
            // they share its direction. Only sources wait for a release.
            debug_assert!(release.map_or(0, |r| r[dir]) <= t_now);
            successors.for_each(|w| {
                let node = &mut nodes[dir * n + w as usize];
                node.waiting -= 1;
                let now_ready = node.waiting == 0;
                ready.push_if(now_ready, blocks, procs[w as usize], node.rank);
                waiting += now_ready as usize;
            });
        }
        t_now += 1;
        // Safety net: after the last release some processor runs a task
        // every step, so n·k + max_release bounds any feasible run.
        debug_assert!(
            (t_now as u64) <= (n * k) as u64 + max_release as u64 + 1,
            "list scheduler failed to make progress"
        );
    }
    if telemetry::enabled() {
        telemetry::counter_add("sched.tasks_scheduled", (n * k) as u64);
        telemetry::counter_add("sched.list_schedule.steps", t_now as u64);
        telemetry::gauge_max("sched.list_schedule.ready_peak", ready_peak as f64);
    }
    // The loop exits the iteration that schedules the last pending
    // task, so the final step count is `max start + 1` — exactly
    // `Schedule::makespan`.
    t_now
}

/// FIFO list scheduling (all priorities equal) — the greedy baseline.
pub fn greedy_schedule(instance: &SweepInstance, assignment: Assignment) -> Schedule {
    schedule_by(instance, assignment, |_, _| 0, None)
}

/// Left-shift compaction: replays the schedule as a list schedule whose
/// priorities are the original start times. By the standard left-shift
/// argument every task starts no later than before, so the makespan never
/// increases — useful as a post-pass on layer-sequential schedules
/// (Algorithms 1 and 3), where it recovers exactly the "with priorities"
/// variants.
pub fn compact(instance: &SweepInstance, schedule: &Schedule) -> Schedule {
    let (starts, assignment) = (schedule.starts(), schedule.assignment().clone());
    schedule_by(instance, assignment, |t, _| starts[t] as i64, None)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schedule::validate;
    use sweep_dag::{TaskDag, TaskId};

    fn chain_instance(n: usize, k: usize) -> SweepInstance {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let dag = TaskDag::from_edges(n, &edges);
        SweepInstance::new(n, vec![dag; k], "chain")
    }

    #[test]
    fn single_proc_schedules_everything_sequentially() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 1);
        let s = greedy_schedule(&inst, Assignment::single(40));
        validate(&inst, &s).unwrap();
        assert_eq!(s.makespan() as usize, inst.num_tasks());
    }

    #[test]
    fn chain_pipelines_across_directions() {
        // Identical chains pipeline: makespan ≈ n + k - 1 with enough procs.
        let inst = chain_instance(20, 4);
        let a = Assignment::round_robin(20, 8);
        let s = greedy_schedule(&inst, a);
        validate(&inst, &s).unwrap();
        assert_eq!(s.makespan(), 20 + 4 - 1);
    }

    #[test]
    fn priorities_steer_tie_breaks() {
        // Two independent cells on one processor; priority picks the order.
        let inst = SweepInstance::new(2, vec![TaskDag::edgeless(2)], "i");
        let a = Assignment::single(2);
        let s = list_schedule(&inst, a.clone(), &[5, 1], None);
        assert_eq!(s.start_of(TaskId::pack(1, 0, 2)), 0);
        assert_eq!(s.start_of(TaskId::pack(0, 0, 2)), 1);
        let s2 = list_schedule(&inst, a, &[1, 5], None);
        assert_eq!(s2.start_of(TaskId::pack(0, 0, 2)), 0);
    }

    #[test]
    fn release_times_delay_directions() {
        let inst = SweepInstance::new(1, vec![TaskDag::edgeless(1), TaskDag::edgeless(1)], "i");
        let a = Assignment::single(1);
        let s = list_schedule(&inst, a, &[0, 0], Some(&[0, 3]));
        assert_eq!(s.start_of(TaskId::pack(0, 0, 1)), 0);
        assert_eq!(s.start_of(TaskId::pack(0, 1, 1)), 3);
    }

    #[test]
    fn release_respected_for_late_ready_tasks() {
        // Chain 0->1 in direction 1 released at time 1: task (0,1) waits
        // for the release, (1,1) only for its predecessor.
        let inst = SweepInstance::new(
            2,
            vec![TaskDag::edgeless(2), TaskDag::from_edges(2, &[(0, 1)])],
            "i",
        );
        let a = Assignment::from_vec(vec![0, 1], 2);
        let s = list_schedule(&inst, a, &[0; 4], Some(&[0, 1]));
        validate(&inst, &s).unwrap();
        assert!(s.start_of(TaskId::pack(0, 1, 2)) >= 1);
        assert!(s.start_of(TaskId::pack(1, 1, 2)) > s.start_of(TaskId::pack(0, 1, 2)));
    }

    #[test]
    fn no_idle_when_work_available() {
        // Greedy list schedules are non-idling: with one direction, one
        // processor, and plenty of independent tasks, makespan = n.
        let inst = SweepInstance::new(10, vec![TaskDag::edgeless(10)], "i");
        let s = greedy_schedule(&inst, Assignment::single(10));
        assert_eq!(s.makespan(), 10);
    }

    #[test]
    fn all_schedules_valid_on_random_instances() {
        for seed in 0..5u64 {
            let inst = SweepInstance::random_layered(60, 4, 8, 3, seed);
            for m in [1usize, 2, 7, 16] {
                let a = Assignment::random_cells(60, m, seed ^ 0xabc);
                let s = greedy_schedule(&inst, a);
                validate(&inst, &s).unwrap();
                // Trivial bounds.
                assert!(s.makespan() as usize >= inst.num_tasks() / m);
                assert!(s.makespan() as usize <= inst.num_tasks());
            }
        }
    }

    #[test]
    fn compaction_never_increases_makespan() {
        for seed in 0..6u64 {
            let inst = SweepInstance::random_layered(70, 4, 7, 2, seed);
            let a = crate::assignment::Assignment::random_cells(70, 8, seed);
            // Layer-sequential schedules have idle gaps to reclaim.
            let s = crate::Algorithm::RandomDelay.run(&inst, a, seed ^ 5);
            let c = compact(&inst, &s);
            validate(&inst, &c).unwrap();
            assert!(
                c.makespan() <= s.makespan(),
                "seed {seed}: compacted {} > original {}",
                c.makespan(),
                s.makespan()
            );
            // Per-task: nothing moves later.
            for (orig, new) in s.starts().iter().zip(c.starts()) {
                assert!(new <= orig, "task moved later: {new} > {orig}");
            }
        }
    }

    #[test]
    fn compaction_is_idempotent_on_greedy() {
        let inst = SweepInstance::random_layered(40, 3, 5, 2, 2);
        let a = crate::assignment::Assignment::random_cells(40, 4, 3);
        let s = greedy_schedule(&inst, a);
        let c = compact(&inst, &s);
        assert_eq!(c.makespan(), s.makespan());
    }

    #[test]
    #[should_panic(expected = "one priority per task")]
    fn wrong_priority_len_panics() {
        let inst = chain_instance(3, 1);
        list_schedule(&inst, Assignment::single(3), &[0, 0], None);
    }

    #[test]
    fn empty_instance() {
        let inst = SweepInstance::new(0, vec![TaskDag::edgeless(0)], "empty");
        let s = greedy_schedule(&inst, Assignment::single(0));
        assert_eq!(s.makespan(), 0);
    }

    /// The scheduler this module replaced — one binary heap of
    /// `(priority, task id)` per processor — kept as the oracle the rank
    /// kernel must agree with start for start.
    fn heap_reference(
        instance: &SweepInstance,
        assignment: &Assignment,
        priority: &[i64],
        release: Option<&[u32]>,
    ) -> Vec<u32> {
        use std::{cmp::Reverse, collections::BTreeMap, collections::BinaryHeap};
        let (n, k) = (instance.num_cells(), instance.num_directions());
        let proc_of = |t: usize| assignment.proc_of((t % n) as u32) as usize;
        let release_of = |t: usize| release.map_or(0, |r| r[t / n]) as usize;
        let mut indeg: Vec<u32> = task_in_degrees(instance).collect();
        let mut start = vec![0u32; n * k];
        // One heap per processor that holds a cell: `m` may be 2^20.
        let mut heaps: BTreeMap<usize, BinaryHeap<_>> =
            (0..n).map(|v| (proc_of(v), BinaryHeap::new())).collect();
        let mut held = vec![Vec::new(); (0..n * k).map(release_of).max().unwrap_or(0) + 1];
        for t in (0..n * k).filter(|&t| indeg[t] == 0) {
            match release_of(t) {
                0 => heaps
                    .get_mut(&proc_of(t))
                    .unwrap()
                    .push(Reverse((priority[t], t))),
                rel => held[rel].push(t),
            }
        }
        let (mut pending, mut now) = (n * k, 0usize);
        while pending > 0 {
            for t in held.get_mut(now).map(std::mem::take).unwrap_or_default() {
                heaps
                    .get_mut(&proc_of(t))
                    .unwrap()
                    .push(Reverse((priority[t], t)));
            }
            let ran: Vec<usize> = heaps
                .values_mut()
                .filter_map(BinaryHeap::pop)
                .map(|r| r.0 .1)
                .collect();
            pending -= ran.len();
            for t in ran {
                start[t] = now as u32;
                for w in instance.dag(t / n).successors((t % n) as u32) {
                    let wt = t - t % n + w as usize;
                    indeg[wt] -= 1;
                    if indeg[wt] == 0 && release_of(wt) > now + 1 {
                        held[release_of(wt)].push(wt);
                    } else if indeg[wt] == 0 {
                        heaps
                            .get_mut(&proc_of(wt))
                            .unwrap()
                            .push(Reverse((priority[wt], wt)));
                    }
                }
            }
            now += 1;
        }
        start
    }

    fn tetonly_s2() -> SweepInstance {
        let mesh = sweep_mesh::MeshPreset::Tetonly.build_scaled(0.01).unwrap();
        let quad = sweep_quadrature::QuadratureSet::level_symmetric(2).unwrap();
        SweepInstance::from_mesh(&mesh, &quad, "tetonly").0
    }

    /// Random, chain, edgeless, one-cell, empty and mesh instances: what
    /// every kernel oracle in this crate runs on.
    pub(crate) fn oracle_instances() -> Vec<SweepInstance> {
        vec![
            SweepInstance::random_layered(60, 4, 6, 2, 3),
            SweepInstance::random_layered(130, 3, 9, 3, 8),
            SweepInstance::identical_chains(17, 5),
            SweepInstance::new(9, vec![TaskDag::edgeless(9); 3], "edgeless"),
            SweepInstance::new(1, vec![TaskDag::edgeless(1); 4], "one cell"),
            SweepInstance::new(0, vec![TaskDag::edgeless(0)], "empty"),
            tetonly_s2(),
        ]
    }

    /// Priority vectors that take the counting sort (few values, ties),
    /// the comparison sort (wide), and the extremes of `i64`.
    fn oracle_priorities(inst: &SweepInstance, seed: u64) -> Vec<(&'static str, Vec<i64>)> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let nk = inst.num_tasks();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw =
            |lo: i64, hi: i64| -> Vec<i64> { (0..nk).map(|_| rng.random_range(lo..hi)).collect() };
        let mut extremes = draw(-1, 2);
        for p in &mut extremes {
            *p = [i64::MIN, 0, i64::MAX][(*p + 1) as usize];
        }
        vec![
            ("all equal", vec![7; nk]),
            ("tied", draw(0, 3)),
            ("negative", draw(-40, -5)),
            ("levels", crate::priorities::level_priorities(inst)),
            ("negated counts", draw(-(nk as i64) * 1000, 1)),
            ("wide", draw(i64::MIN / 2, i64::MAX / 2)),
            ("extremes", extremes),
        ]
    }

    #[test]
    fn differential_core_matches_heap_reference() {
        for (i, inst) in oracle_instances().iter().enumerate() {
            let (n, k) = (inst.num_cells(), inst.num_directions());
            // Off; drawn as the algorithms draw them; and one direction
            // released only after every other direction has long finished.
            let mut late = vec![0u32; k];
            late[k - 1] = (n * k) as u32 + 5;
            let releases = [None, Some(crate::random_delays(k, 11)), Some(late)];
            // 2^20 processors, almost all idle, on the small instances;
            // every priority but "all equal" takes the comparison sort
            // there, so two of them stand for the rest.
            let huge = (n * k < 1000).then_some(1 << 20);
            for m in [1, 2, 7, 64, n + 3].into_iter().chain(huge) {
                let a = Assignment::random_cells(n, m, 5 + i as u64);
                let priorities = oracle_priorities(inst, m as u64).into_iter();
                let priorities = priorities
                    .filter(|(name, _)| m < 1 << 20 || ["all equal", "extremes"].contains(name));
                for (name, prio) in priorities {
                    for release in &releases {
                        let s = list_schedule(inst, a.clone(), &prio, release.as_deref());
                        let want = heap_reference(inst, &a, &prio, release.as_deref());
                        assert_eq!(s.starts(), want, "{} m={m} {name} {release:?}", inst.name());
                    }
                }
            }
        }
    }

    #[test]
    fn differential_every_algorithm_agrees_across_run_trial_and_pool() {
        use crate::priorities::{descendant_priorities, dfds_priorities, level_priorities};
        use crate::{best_of_trials_with_pool, trial_seeds, Algorithm, TrialContext, TrialScratch};
        let mut algorithms = Algorithm::COMPARISON_SET.to_vec();
        algorithms.extend([
            Algorithm::LevelPriority { delays: true },
            Algorithm::ImprovedRandomDelay,
            Algorithm::ImprovedWithPriorities,
        ]);
        for inst in [SweepInstance::random_layered(70, 4, 7, 2, 21), tetonly_s2()] {
            let (n, k) = (inst.num_cells(), inst.num_directions());
            for m in [3, n + 3] {
                let a = Assignment::random_cells(n, m, 4);
                for &alg in &algorithms {
                    let ctx = TrialContext::new(&inst, &a, alg);
                    let mut scratch = TrialScratch::new();
                    let seeds = trial_seeds(77, 5);
                    let runs: Vec<Schedule> = seeds
                        .iter()
                        .map(|&s| alg.run(&inst, a.clone(), s))
                        .collect();
                    for (run, &seed) in runs.iter().zip(&seeds) {
                        assert_eq!(
                            ctx.run_trial(seed, &mut scratch),
                            run.makespan(),
                            "{alg:?} trial"
                        );
                        // Where the algorithm is a list schedule, its
                        // priorities and releases go through the oracle.
                        let delays = crate::random_delays(k, seed);
                        let (prio, release) = match alg {
                            Algorithm::RandomDelayPriorities => {
                                (crate::delayed_level_priorities(&inst, &delays), false)
                            }
                            Algorithm::Greedy => (vec![0; n * k], false),
                            Algorithm::ImprovedWithPriorities => (
                                crate::improved::tests::improved_priorities(&inst, m, &delays),
                                false,
                            ),
                            Algorithm::LevelPriority { delays } => {
                                (level_priorities(&inst), delays)
                            }
                            Algorithm::DescendantPriority { delays } => {
                                (descendant_priorities(&inst), delays)
                            }
                            Algorithm::Dfds { delays } => (dfds_priorities(&inst, &a), delays),
                            Algorithm::RandomDelay | Algorithm::ImprovedRandomDelay => continue,
                        };
                        let want = heap_reference(&inst, &a, &prio, release.then_some(&delays[..]));
                        assert_eq!(run.starts(), want, "{alg:?} seed {seed}");
                    }
                    let best = (0..5).min_by_key(|&i| (runs[i].makespan(), i)).unwrap();
                    for width in [1, 2, 4] {
                        let pool = sweep_pool::ThreadPool::new(width);
                        let got = best_of_trials_with_pool(&pool, &inst, &a, alg, 5, 77);
                        assert_eq!(got.trial, best, "{alg:?} width {width}");
                        assert_eq!(
                            got.schedule.starts(),
                            runs[best].starts(),
                            "{alg:?} width {width}"
                        );
                    }
                }
            }
        }
    }

    /// `task_at` after ranking `prio` on `a`.
    fn ranked(n: usize, k: usize, a: &Assignment, prio: &[i64]) -> Vec<u32> {
        let mut bufs = Ranking::default();
        bufs.nodes.resize(
            n * k,
            Node {
                waiting: 0,
                rank: 0,
            },
        );
        bufs.rank(n, k, a, |t, _| prio[t]);
        for (r, &t) in bufs.task_at.iter().enumerate() {
            assert_eq!(
                bufs.nodes[t as usize].rank as usize, r,
                "rank_of inverts task_at"
            );
        }
        bufs.task_at
    }

    #[test]
    fn ranking_orders_full_range_i64_priorities() {
        let (n, k) = (37, 3);
        let inst = SweepInstance::random_layered(n, k, 5, 2, 1);
        for m in [1, 4, n + 3] {
            let a = Assignment::random_cells(n, m, 2);
            for (name, prio) in oracle_priorities(&inst, 9) {
                let mut want: Vec<u32> = (0..(n * k) as u32).collect();
                want.sort_by_key(|&t| (a.proc_of(t % n as u32), prio[t as usize], t));
                assert_eq!(ranked(n, k, &a, &prio), want, "m={m} {name}");
            }
        }
    }

    #[test]
    fn reserved_buffers_never_grow_on_either_ranking_path() {
        let inst = SweepInstance::random_layered(90, 4, 6, 2, 5);
        let (n, k, m) = (90, 4, 40);
        let a = Assignment::random_cells(n, m, 1);
        assert_eq!(max_counting_width(n * k, m), 18);
        let mut bufs = ListBuffers::default();
        bufs.reserve(n, k, m, 30, n * k);
        let reserved = bufs.capacity_cells();
        // Spans 0, 17 (the widest counting sort) and 18, 30 (comparison sort).
        for span in [0, 17, 18, 30] {
            let priority = |t: usize, _| (t * 7 % (span + 1)) as i64 - 9;
            let makespan = list_schedule_core(&inst, &a, priority, None, &mut bufs);
            assert!(makespan > 0);
            assert_eq!(bufs.capacity_cells(), reserved, "span {span}");
        }
    }

    #[test]
    fn task_count_must_fit_u32() {
        assert_eq!(checked_num_tasks(u32::MAX as usize, 1), u32::MAX as usize);
        assert_eq!(checked_num_tasks(0, 1 << 40), 0);
        let over = std::panic::catch_unwind(|| checked_num_tasks(1 << 16, 1 << 16));
        let message = *over.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("task ids are u32"), "{message}");
        assert!(std::panic::catch_unwind(|| checked_num_tasks(usize::MAX, 3)).is_err());
    }
}
