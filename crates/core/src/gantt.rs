//! Schedule inspection: per-processor timelines, ASCII Gantt rendering,
//! and CSV export.
//!
//! Debugging a scheduler almost always starts with "what was processor P
//! doing at time t?" — this module answers that without external tooling.

use sweep_dag::{SweepInstance, TaskId};

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
pub fn to_csv(instance: &SweepInstance, schedule: &Schedule) -> String {
    let n = instance.num_cells();
    let mut out = String::with_capacity(instance.num_tasks() * 16);
    out.push_str("cell,direction,processor,start\n");
    for dir in 0..instance.num_directions() as u32 {
        for v in 0..n as u32 {
            let t = TaskId::pack(v, dir, n);
            let row = [v, dir, schedule.proc_of_cell(v), schedule.start_of(t)];
            for (x, end) in row.into_iter().zip([',', ',', ',', '\n']) {
                push_u32(&mut out, x);
                out.push(end);
            }
        }
    }
    out
}

/// Appends `x` in decimal, as `{x}` formats it.
fn push_u32(out: &mut String, mut x: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
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
