//! Schedule inspection: per-processor timelines, ASCII Gantt rendering,
//! and CSV export.
//!
//! Debugging a scheduler almost always starts with "what was processor P
//! doing at time t?" — this module answers that without external tooling.

use std::sync::Mutex;

use sweep_dag::{SweepInstance, TaskId};
use sweep_telemetry as telemetry;

use crate::schedule::Schedule;

/// Per-processor timeline: `timeline[p][t]` is the task run by processor
/// `p` at time `t` (`None` = idle).
pub fn timelines(instance: &SweepInstance, schedule: &Schedule) -> Vec<Vec<Option<TaskId>>> {
    let m = schedule.num_procs();
    let span = schedule.makespan() as usize;
    let n = instance.num_cells();
    let mut tl = vec![vec![None; span]; m];
    for dir in 0..instance.num_directions() as u32 {
        for v in 0..n as u32 {
            let task = TaskId::pack(v, dir, n);
            let t = schedule.start_of(task) as usize;
            let p = schedule.proc_of_cell(v) as usize;
            debug_assert!(tl[p][t].is_none(), "feasible schedules have no conflicts");
            tl[p][t] = Some(task);
        }
    }
    tl
}

/// ASCII Gantt chart: one row per processor, `#` busy / `.` idle,
/// compressed to at most `max_cols` columns (each column then covers a
/// time window and shows its busy fraction as `#`, `+`, `-`, `.`).
pub fn render_gantt(instance: &SweepInstance, schedule: &Schedule, max_cols: usize) -> String {
    assert!(max_cols > 0);
    let tl = timelines(instance, schedule);
    let span = schedule.makespan() as usize;
    let mut out = String::new();
    if span == 0 {
        out.push_str("(empty schedule)\n");
        return out;
    }
    let window = span.div_ceil(max_cols);
    let cols = span.div_ceil(window);
    out.push_str(&format!(
        "makespan {} on {} processors ({} step(s) per column)\n",
        span,
        tl.len(),
        window
    ));
    for (p, row) in tl.iter().enumerate() {
        out.push_str(&format!("p{p:<4}|"));
        for c in 0..cols {
            let lo = c * window;
            let hi = ((c + 1) * window).min(span);
            let busy = row[lo..hi].iter().filter(|x| x.is_some()).count();
            let frac = busy as f64 / (hi - lo) as f64;
            out.push(match frac {
                f if f >= 0.999 => '#',
                f if f >= 0.5 => '+',
                f if f > 0.0 => '-',
                _ => '.',
            });
        }
        out.push('\n');
    }
    out
}

/// CSV export of a schedule: `cell,direction,processor,start` per line,
/// with a header. Readable back by any analysis stack.
///
/// Lines run direction by direction, cells ascending within each. Every
/// cell's `v,` and `p,` text is rendered once, a digit count over the
/// start times sizes the output exactly, and each direction's lines are
/// written into their own slice of that one buffer on
/// [`sweep_pool::global`]: the bytes are the same at every pool width.
pub fn to_csv(instance: &SweepInstance, schedule: &Schedule) -> String {
    const HEADER: &str = "cell,direction,processor,start\n";
    let _span = telemetry::span!("core.csv");
    let n = instance.num_cells();
    let k = instance.num_directions();
    if n == 0 || k == 0 {
        return HEADER.to_owned();
    }
    // Cell `v`'s `v,` is `cells[at[2v]..at[2v + 1]]`, its `p,` runs on to
    // `at[2v + 2]`.
    let (mut cells, mut at, buf) = (Vec::with_capacity(n * 8), vec![0], &mut [0; 11]);
    for v in 0..n as u32 {
        for x in [v, schedule.proc_of_cell(v)] {
            cells.extend_from_slice(decimal(x, b',', buf));
            at.push(cells.len());
        }
    }
    // Direction `d`'s line for a cell: `v,`, `d,`, `p,`, the start and a
    // newline.
    let starts = &schedule.starts()[..n * k];
    let lens: Vec<usize> = starts
        .chunks(n)
        .zip(0u32..)
        .map(|(dir, d)| {
            cells.len() + n * (digits(d) + 1) + dir.iter().map(|&t| digits(t) + 1).sum::<usize>()
        })
        .collect();
    let mut out = vec![0u8; HEADER.len() + lens.iter().sum::<usize>()];
    let mut rest = &mut out[..];
    put(&mut rest, HEADER.as_bytes());
    let slices: Vec<Mutex<&mut [u8]>> = lens
        .iter()
        .map(|&len| Mutex::new(take(&mut rest, len)))
        .collect();
    sweep_pool::global().par_for_each(&slices, |d, slice| {
        let mut slice = slice
            .lock()
            .expect("each slice is locked once, so never poisoned");
        let (buf, dir) = (&mut [0; 11], &mut [0; 11]);
        let dir = decimal(d as u32, b',', dir);
        let mut line = &mut **slice;
        for (v, &t) in starts[d * n..][..n].iter().enumerate() {
            put(&mut line, &cells[at[2 * v]..at[2 * v + 1]]);
            put(&mut line, dir);
            put(&mut line, &cells[at[2 * v + 1]..at[2 * v + 2]]);
            put(&mut line, decimal(t, b'\n', buf));
        }
        debug_assert!(
            line.is_empty(),
            "the digit count sized direction {d} exactly"
        );
    });
    drop(slices);
    String::from_utf8(out).expect("the CSV is ASCII")
}

/// Decimal digits of `x`.
fn digits(x: u32) -> usize {
    x.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// The first `len` bytes of `out`, moving `out` past them.
fn take<'a>(out: &mut &'a mut [u8], len: usize) -> &'a mut [u8] {
    let (head, tail) = std::mem::take(out).split_at_mut(len);
    *out = tail;
    head
}

/// Copies `bytes` to the front of `out` and moves `out` past them.
fn put(out: &mut &mut [u8], bytes: &[u8]) {
    take(out, bytes.len()).copy_from_slice(bytes);
}

/// `x` in decimal, as `{x}` formats it, then `end`: rendered at the back
/// of `buf`.
fn decimal(mut x: u32, end: u8, buf: &mut [u8; 11]) -> &[u8] {
    let mut at = buf.len() - 1;
    buf[at] = end;
    loop {
        at -= 1;
        buf[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    &buf[at..]
}

/// Parses a schedule back from [`to_csv`] output (inverse operation).
/// Returns `(starts indexed by TaskId, proc per cell, m)`.
pub fn from_csv(text: &str, n: usize, k: usize) -> Result<Schedule, String> {
    let mut starts = vec![u32::MAX; n * k];
    let mut proc = vec![u32::MAX; n];
    let mut max_proc = 0u32;
    for (lineno, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(format!("line {}: expected 4 fields", lineno + 1));
        }
        let parse = |s: &str, what: &str| {
            s.trim()
                .parse::<u32>()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
        };
        let (v, dir, p, t) = (
            parse(fields[0], "cell")?,
            parse(fields[1], "direction")?,
            parse(fields[2], "processor")?,
            parse(fields[3], "start")?,
        );
        if v as usize >= n || dir as usize >= k {
            return Err(format!(
                "line {}: task ({v},{dir}) out of range",
                lineno + 1
            ));
        }
        if proc[v as usize] != u32::MAX && proc[v as usize] != p {
            return Err(format!(
                "line {}: cell {v} assigned to two processors",
                lineno + 1
            ));
        }
        proc[v as usize] = p;
        max_proc = max_proc.max(p);
        starts[TaskId::pack(v, dir, n).index()] = t;
    }
    if starts.contains(&u32::MAX) {
        return Err("missing tasks in CSV".into());
    }
    if proc.contains(&u32::MAX) {
        return Err("missing cell assignments in CSV".into());
    }
    let assignment = crate::assignment::Assignment::from_vec(proc, max_proc as usize + 1);
    Schedule::new(starts, assignment).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::list_schedule::greedy_schedule;
    use crate::schedule::validate;
    use sweep_dag::SweepInstance;

    fn sample() -> (SweepInstance, Schedule) {
        let inst = SweepInstance::random_layered(30, 3, 5, 2, 4);
        let a = Assignment::random_cells(30, 4, 1);
        let s = greedy_schedule(&inst, a);
        (inst, s)
    }

    #[test]
    fn timeline_covers_all_tasks_once() {
        let (inst, s) = sample();
        let tl = timelines(&inst, &s);
        let busy: usize = tl
            .iter()
            .map(|row| row.iter().filter(|x| x.is_some()).count())
            .sum();
        assert_eq!(busy, inst.num_tasks());
    }

    #[test]
    fn gantt_renders_every_processor() {
        let (inst, s) = sample();
        let g = render_gantt(&inst, &s, 40);
        assert_eq!(g.lines().count(), 1 + 4);
        assert!(g.contains("makespan"));
        assert!(g.contains("p0"));
        // Single-processor schedules are fully busy.
        let inst1 = SweepInstance::random_layered(10, 2, 3, 1, 0);
        let s1 = greedy_schedule(&inst1, Assignment::single(10));
        let g1 = render_gantt(&inst1, &s1, 20);
        assert!(g1.lines().nth(1).unwrap().chars().all(|c| c != '.'));
    }

    #[test]
    fn csv_round_trip_preserves_schedule() {
        let (inst, s) = sample();
        let csv = to_csv(&inst, &s);
        let back = from_csv(&csv, inst.num_cells(), inst.num_directions()).unwrap();
        assert_eq!(back.starts(), s.starts());
        assert_eq!(back.makespan(), s.makespan());
        validate(&inst, &back).unwrap();
    }

    /// `to_csv` writes its digits itself: the bytes are those of the
    /// `format!` rendering, through every digit-count boundary.
    #[test]
    fn csv_digits_match_format_and_round_trip() {
        let inst = SweepInstance::new(5, vec![sweep_dag::TaskDag::edgeless(5)], "digits");
        let starts = vec![0, 9, 10, 99_999, u32::MAX - 1];
        let procs = Assignment::from_vec(starts.clone(), u32::MAX as usize);
        let s = Schedule::new(starts.clone(), procs).unwrap();
        let csv = to_csv(&inst, &s);
        let mut expect = String::from("cell,direction,processor,start\n");
        for (v, t) in starts.iter().enumerate() {
            expect.push_str(&format!("{v},0,{t},{t}\n"));
        }
        assert_eq!(csv, expect);
        let back = from_csv(&csv, 5, 1).unwrap();
        assert_eq!(back.starts(), &starts[..]);
        assert_eq!(back.assignment().proc_of(4), u32::MAX - 1);

        let (inst, s) = sample();
        let mut expect = String::from("cell,direction,processor,start\n");
        for dir in 0..inst.num_directions() as u32 {
            for v in 0..inst.num_cells() as u32 {
                let t = s.start_of(TaskId::pack(v, dir, inst.num_cells()));
                expect.push_str(&format!("{v},{dir},{},{t}\n", s.proc_of_cell(v)));
            }
        }
        assert_eq!(to_csv(&inst, &s), expect);
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(from_csv("header\n1,2\n", 2, 1).is_err()); // wrong arity
        assert!(from_csv("header\nx,0,0,0\n", 2, 1).is_err()); // bad number
        assert!(from_csv("header\n5,0,0,0\n", 2, 1).is_err()); // out of range
                                                               // Cell on two processors.
        let bad = "h\n0,0,0,0\n0,1,1,1\n1,0,1,2\n1,1,1,3\n";
        assert!(from_csv(bad, 2, 2).unwrap_err().contains("two processors"));
        // Missing task.
        assert!(from_csv("h\n0,0,0,0\n", 2, 1).is_err());
    }

    #[test]
    fn empty_schedule_renders() {
        let inst = SweepInstance::new(0, vec![sweep_dag::TaskDag::edgeless(0)], "e");
        let s = greedy_schedule(&inst, Assignment::single(0));
        assert!(render_gantt(&inst, &s, 10).contains("empty"));
    }
}
