//! Tasks in processor-step slot order, without a comparison sort.
//!
//! [`certify`](crate::certify) reads a schedule slot by slot, for one
//! task per slot and for the busiest sender of each step (C2).
//! [`SlotSort`] puts its tasks
//! in ascending `(step, proc)` order with stable counting passes: the
//! cells by processor first, then their tasks, cell by cell, by start
//! step. A key is cut into as few digits of at most 16 bits as cover its
//! range, one pass per digit, so `m = 64` or a makespan of 10^4 takes one
//! pass and starts near `u32::MAX` take two. The buffers hold
//! `O(n·k + 2^16)` entries, whatever the start times and `m`.

use crate::schedule::Schedule;

/// The widest digit of one counting pass.
const DIGIT_BITS: u32 = 16;

/// A task in slot order: it starts at `step` on `proc` and weighs `weight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotTask {
    pub step: u32,
    pub proc: u32,
    pub weight: u32,
}

impl SlotTask {
    /// Whether the two tasks occupy one processor-step slot.
    pub fn same_slot(&self, other: &SlotTask) -> bool {
        (self.step, self.proc) == (other.step, other.proc)
    }
}

/// The buffers of a slot sort.
#[derive(Debug, Default)]
pub(crate) struct SlotSort {
    cells: Vec<u32>,
    cells_spare: Vec<u32>,
    tasks: Vec<SlotTask>,
    spare: Vec<SlotTask>,
    next: Vec<usize>,
}

impl SlotSort {
    /// The tasks of `schedule`, each weighing `weight(task index)`, in
    /// ascending `(step, proc)` order: the tasks of one slot are adjacent.
    pub fn sort(&mut self, schedule: &Schedule, weight: impl Fn(usize) -> u32) -> &[SlotTask] {
        let (procs, starts) = (schedule.assignment().as_slice(), schedule.starts());
        let n = procs.len();
        self.cells.clear();
        self.cells.extend(0..n as u32);
        let (passes, width) = digits(schedule.num_procs() as u64);
        for pass in 0..passes {
            let digit = |&v: &u32| digit(procs[v as usize], pass, width);
            counting_pass(
                &self.cells,
                &mut self.cells_spare,
                &mut self.next,
                width,
                digit,
            );
            std::mem::swap(&mut self.cells, &mut self.cells_spare);
        }
        // The first pass by step scatters straight from the schedule, cell
        // by cell in processor order (one buffer, where materialising the
        // tasks first would take two); any second pass goes through `spare`.
        let (passes, width) = digits(u64::from(schedule.makespan()));
        let low = |step: u32| digit(step, 0, width);
        bucket_starts(&mut self.next, width, starts.iter().map(|&step| low(step)));
        self.tasks.clear();
        self.tasks.resize(starts.len(), SlotTask::default());
        for &v in &self.cells {
            let proc = procs[v as usize];
            for t in (v as usize..starts.len()).step_by(n) {
                let (step, weight) = (starts[t], weight(t));
                let at = &mut self.next[low(step)];
                self.tasks[*at] = SlotTask { step, proc, weight };
                *at += 1;
            }
        }
        for pass in 1..passes {
            let digit = |s: &SlotTask| digit(s.step, pass, width);
            counting_pass(&self.tasks, &mut self.spare, &mut self.next, width, digit);
            std::mem::swap(&mut self.tasks, &mut self.spare);
        }
        &self.tasks
    }
}

/// `(passes, width)` for keys below `range`: the key's bits cut into as
/// few digits of at most [`DIGIT_BITS`] as cover them (no pass when
/// every key is 0).
fn digits(range: u64) -> (u32, u32) {
    let bits = (u64::BITS - range.saturating_sub(1).leading_zeros()).min(u32::BITS);
    let passes = bits.div_ceil(DIGIT_BITS);
    (passes, bits.div_ceil(passes.max(1)))
}

/// Digit `pass` of `key`, `width` bits wide, low digit first.
fn digit(key: u32, pass: u32, width: u32) -> usize {
    (key >> (pass * width)) as usize & ((1 << width) - 1)
}

/// Fills `next` with where each of the `2^width` buckets starts, given
/// every item's bucket; `next[2^width]` is the item count.
fn bucket_starts(next: &mut Vec<usize>, width: u32, buckets: impl Iterator<Item = usize>) {
    next.clear();
    next.resize((1 << width) + 1, 0);
    for b in buckets {
        next[b + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
}

/// One stable counting pass: `out` receives `items` ordered by
/// `digit(item)`, a bucket below `2^width`.
fn counting_pass<T: Copy + Default>(
    items: &[T],
    out: &mut Vec<T>,
    next: &mut Vec<usize>,
    width: u32,
    digit: impl Fn(&T) -> usize,
) {
    bucket_starts(next, width, items.iter().map(&digit));
    out.clear();
    out.resize(items.len(), T::default());
    for x in items {
        let at = &mut next[digit(x)];
        out[*at] = *x;
        *at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::bounds::LowerBounds;
    use crate::list_schedule::tests::oracle_instances;
    use crate::metrics::{c1_interprocessor_edges, c2_comm_delay, tests::c2_reference};
    use crate::schedule::{certify_in, tests::validate_reference, validate, Certificate};
    use crate::scratch::tests::all_algorithms;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use sweep_dag::SweepInstance;

    /// Start vectors derived from a feasible schedule: itself, the
    /// corruptions of `tests/validator_oracle.rs` (a swapped dependent
    /// pair, every start collapsed to 0, one duplicated slot, single tasks
    /// moved earlier), tasks moved inside their precedence windows (which
    /// double-books slots with every precedence intact) and random starts.
    fn corruptions(
        inst: &SweepInstance,
        s: &Schedule,
        rng: &mut StdRng,
    ) -> Vec<(&'static str, Vec<u32>)> {
        let (n, starts) = (inst.num_cells(), s.starts());
        let proc = |t: usize| s.proc_of_cell((t % n) as u32);
        let mut out = vec![
            ("as scheduled", starts.to_vec()),
            ("collapsed", vec![0; starts.len()]),
        ];
        let edge = (0..inst.num_directions())
            .find_map(|d| inst.dag(d).edges().next().map(|(u, v)| (d * n, u, v)));
        if let Some((base, u, v)) = edge {
            let mut x = starts.to_vec();
            x.swap(base + u as usize, base + v as usize);
            out.push(("swapped pair", x));
        }
        let mut first_on = std::collections::HashMap::new();
        if let Some((a, b)) = (0..starts.len()).find_map(|b| {
            let a = *first_on.entry(proc(b)).or_insert(b);
            (a != b).then_some((a, b))
        }) {
            let mut x = starts.to_vec();
            x[b] = x[a];
            out.push(("duplicated slot", x));
        }
        for _ in 0..4 {
            let mut x = starts.to_vec();
            if !x.is_empty() {
                let t = rng.random_range(0..x.len());
                x[t] = x[t].saturating_sub(rng.random_range(1..10));
            }
            out.push(("moved earlier", x));
        }
        let mut x = starts.to_vec();
        for t in 0..x.len() {
            let (dag, base, v) = (inst.dag(t / n), t - t % n, (t % n) as u32);
            let preds = dag.predecessors(v).map(|u| x[base + u as usize] + 1);
            let succs = dag.successors(v).map(|w| x[base + w as usize]);
            let (lo, hi) = (
                preds.max().unwrap_or(0),
                succs.min().unwrap_or(s.makespan()),
            );
            if lo < hi && rng.random_bool(0.3) {
                x[t] = rng.random_range(lo..hi);
            }
        }
        out.push(("moved in window", x));
        let top = s.makespan().max(1);
        out.push((
            "random",
            starts.iter().map(|_| rng.random_range(0..top)).collect(),
        ));
        out
    }

    /// The starts as given, shifted so the last is `u32::MAX − 1`, and
    /// spread over the whole `u32` range: monotone maps, so precedence and
    /// slot sharing are kept while the sort keys widen to two passes.
    fn widened(starts: Vec<u32>) -> [(&'static str, Vec<u32>); 3] {
        let last = starts.iter().copied().max().unwrap_or(0);
        let top = starts.iter().map(|&t| t + (u32::MAX - 1 - last)).collect();
        let stride = (u32::MAX - 1) / last.max(1);
        let spread = starts.iter().map(|&t| t * stride).collect();
        [("", starts), ("at the top", top), ("spread", spread)]
    }

    /// `validate` returns the reference's whole `Result`, violation
    /// payload included, and `c2_comm_delay` the reference's value.
    fn check(inst: &SweepInstance, s: &Schedule, what: &str, label: &str) {
        let got = validate(inst, s);
        assert_eq!(got, validate_reference(inst, s), "{label}");
        assert!(got.is_ok() || what != "as scheduled", "{label}");
        assert_eq!(c2_comm_delay(inst, s), c2_reference(inst, s), "{label}");
    }

    /// Bytes a slot sort's buffers hold.
    fn heap_bytes(slots: &SlotSort) -> usize {
        use std::mem::size_of;
        slots.next.capacity() * size_of::<usize>()
            + (slots.cells.capacity() + slots.cells_spare.capacity()) * size_of::<u32>()
            + (slots.tasks.capacity() + slots.spare.capacity()) * size_of::<SlotTask>()
    }

    /// The kernel oracle instances and `tests/validator_oracle.rs`'s.
    fn instances() -> Vec<SweepInstance> {
        let mut all = oracle_instances();
        all.push(SweepInstance::random_layered(40, 3, 6, 2, 9));
        all
    }

    /// Every algorithm's schedule at m ∈ {1, 5, n + 3}, and each of its
    /// corruptions, feasible or not.
    #[test]
    fn linear_checks_match_the_sort_references() {
        let mut rng = StdRng::seed_from_u64(0x5107);
        for inst in &instances() {
            let n = inst.num_cells();
            for m in [1, 5, n + 3] {
                let a = Assignment::random_cells(n, m, m as u64);
                for alg in all_algorithms() {
                    let s = alg.run(inst, a.clone(), 3);
                    for (what, starts) in corruptions(inst, &s, &mut rng) {
                        let s = Schedule::new(starts, a.clone()).unwrap();
                        let label = format!("{} m={m} {alg:?} {what}", inst.name());
                        check(inst, &s, what, &label);
                    }
                }
            }
        }
    }

    /// The adversarial rows: starts at the top of the `u32` range or
    /// spread over all of it, and processor ids spread over `m = 2^20`
    /// (the `n + 3` schedules renumbered, which keeps them feasible
    /// without running the kernels on 2^20 processors). The checks still
    /// match the references, and the slot sort equals a comparison sort
    /// of `(start, proc)` in `O(n·k + 2^16)` bytes, free of `m` and of
    /// the start times.
    #[test]
    fn adversarial_rows_match_in_bounded_memory() {
        let mut rng = StdRng::seed_from_u64(0xad5e);
        for inst in &instances() {
            let (n, nk) = (inst.num_cells(), inst.num_tasks());
            let a = Assignment::random_cells(n, n + 3, 7);
            let stride = (1 << 20) / (n as u32 + 3);
            let wide = a.as_slice().iter().map(|&p| p * stride).collect();
            let wide = Assignment::from_vec(wide, 1 << 20);
            let bound = 2 * std::mem::size_of::<SlotTask>() * (nk + 4)
                + 2 * std::mem::size_of::<u32>() * (n + 4)
                + std::mem::size_of::<usize>() * ((1 << DIGIT_BITS) + 1);
            for alg in all_algorithms() {
                let s = alg.run(inst, a.clone(), 3);
                let kept = ["as scheduled", "moved in window", "random"];
                let rows = corruptions(inst, &s, &mut rng).into_iter();
                for (what, starts) in rows.filter(|(what, _)| kept.contains(what)) {
                    for (how, starts) in widened(starts) {
                        for a in [&a, &wide] {
                            let s = Schedule::new(starts.clone(), a.clone()).unwrap();
                            let m = a.num_procs();
                            let label = format!("{} m={m} {alg:?} {what} {how}", inst.name());
                            check(inst, &s, what, &label);
                            let slot = |(t, &start)| (start, s.proc_of_cell((t % n) as u32));
                            let mut want: Vec<_> =
                                s.starts().iter().enumerate().map(slot).collect();
                            want.sort_unstable();
                            let mut slots = SlotSort::default();
                            let got = slots.sort(&s, |_| 1).iter().map(|x| (x.step, x.proc));
                            assert!(got.eq(want), "{label}");
                            let bytes = heap_bytes(&slots);
                            assert!(bytes <= bound, "{label}: {bytes} bytes");
                        }
                    }
                }
            }
        }
    }

    /// `certify` on one row equals the references: its verdict is
    /// `validate_reference`'s whole `Result`, its C2 `c2_reference`'s, its
    /// C1 `c1_interprocessor_edges`', its bounds the paper's three terms
    /// (`D` read off the levels), and the rest counted from the schedule.
    fn check_certificate(inst: &SweepInstance, s: &Schedule, slots: &mut SlotSort, label: &str) {
        let (nk, m) = (inst.num_tasks() as u64, s.num_procs());
        let makespan = s.starts().iter().max().map_or(0, |&t| t + 1);
        let mut loads = vec![0; m];
        for &p in s.assignment().as_slice() {
            loads[p as usize] += 1;
        }
        let levels = inst.dags().iter().map(sweep_dag::TaskDag::level_of);
        let depth = levels.map(|l| l.iter().max().map_or(0, |&j| j + 1));
        let want = Certificate {
            verdict: validate_reference(inst, s),
            makespan,
            c1: c1_interprocessor_edges(inst, s.assignment()),
            c2: c2_reference(inst, s),
            idle_slots: (m as u64 * u64::from(makespan)).saturating_sub(nk),
            loads,
            bounds: LowerBounds {
                avg_load: nk.div_ceil(m as u64),
                directions: inst.num_directions() as u64,
                depth: depth.max().map_or(0, u64::from),
            },
        };
        assert_eq!(certify_in(inst, s, slots, |_| {}), want, "{label}");
    }

    /// `certify` on the first corpus: every algorithm's schedule at
    /// m ∈ {1, 5, n + 3} and each of its corruptions.
    #[test]
    fn certificate_matches_the_references() {
        let mut rng = StdRng::seed_from_u64(0xce27);
        let mut slots = SlotSort::default();
        for inst in &instances() {
            let n = inst.num_cells();
            for m in [1, 5, n + 3] {
                let a = Assignment::random_cells(n, m, m as u64);
                for alg in all_algorithms() {
                    let s = alg.run(inst, a.clone(), 3);
                    for (what, starts) in corruptions(inst, &s, &mut rng) {
                        let s = Schedule::new(starts, a.clone()).unwrap();
                        let label = format!("{} m={m} {alg:?} {what}", inst.name());
                        check_certificate(inst, &s, &mut slots, &label);
                    }
                }
            }
        }
    }

    /// `certify` on the adversarial rows, starts near `u32::MAX` and
    /// `m = 2^20`, with its slot sort in the same byte bound.
    #[test]
    fn certificate_on_adversarial_rows_stays_in_bounded_memory() {
        let mut rng = StdRng::seed_from_u64(0xce28);
        for inst in &instances() {
            let (n, nk) = (inst.num_cells(), inst.num_tasks());
            let a = Assignment::random_cells(n, n + 3, 7);
            let stride = (1 << 20) / (n as u32 + 3);
            let wide = a.as_slice().iter().map(|&p| p * stride).collect();
            let wide = Assignment::from_vec(wide, 1 << 20);
            let bound = 2 * std::mem::size_of::<SlotTask>() * (nk + 4)
                + 2 * std::mem::size_of::<u32>() * (n + 4)
                + std::mem::size_of::<usize>() * ((1 << DIGIT_BITS) + 1);
            for alg in all_algorithms() {
                let s = alg.run(inst, a.clone(), 3);
                let kept = ["as scheduled", "moved in window", "random"];
                let rows = corruptions(inst, &s, &mut rng).into_iter();
                for (what, starts) in rows.filter(|(what, _)| kept.contains(what)) {
                    for (how, starts) in widened(starts) {
                        for a in [&a, &wide] {
                            let s = Schedule::new(starts.clone(), a.clone()).unwrap();
                            let m = a.num_procs();
                            let label = format!("{} m={m} {alg:?} {what} {how}", inst.name());
                            let mut slots = SlotSort::default();
                            check_certificate(inst, &s, &mut slots, &label);
                            let bytes = heap_bytes(&slots);
                            assert!(bytes <= bound, "{label}: {bytes} bytes");
                        }
                    }
                }
            }
        }
    }
}
