//! Minimal wall-clock microbenchmark harness (criterion stand-in).
//!
//! The workspace builds offline with no external crates, so the
//! `benches/` targets use this instead of criterion: each benchmark is
//! timed over enough iterations to pass a floor wall-time, then the
//! median, min, and max per-iteration times are reported on stdout in a
//! fixed-width table. Not statistically rigorous — good enough to watch
//! the "almost linear time" scaling claims and catch order-of-magnitude
//! regressions.

use std::time::{Duration, Instant};

/// Groups related benchmarks under one heading.
pub struct Group {
    name: String,
    /// Minimum total measuring time per benchmark.
    pub floor: Duration,
    /// Hard cap on measuring iterations.
    pub max_iters: u32,
}

impl Group {
    /// Starts a group and prints its heading.
    pub fn new(name: &str) -> Group {
        println!("\n== {name} ==");
        println!(
            "{:<40} {:>12} {:>12} {:>12} {:>8}",
            "benchmark", "median", "min", "max", "iters"
        );
        Group {
            name: name.to_string(),
            floor: Duration::from_millis(200),
            max_iters: 1000,
        }
    }

    /// Times `f`, discarding its result, and prints one table row.
    pub fn bench<T>(&self, label: &str, mut f: impl FnMut() -> T) {
        // One warm-up call, then measure until the floor is met.
        let warm = Instant::now();
        std::hint::black_box(f());
        let estimate = warm.elapsed();
        let target = self
            .floor
            .as_nanos()
            .div_ceil(estimate.as_nanos().max(1))
            .min(self.max_iters as u128) as u32;
        let iters = target.max(3);
        let mut samples: Vec<Duration> = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(f());
            samples.push(t.elapsed());
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        println!(
            "{:<40} {:>12} {:>12} {:>12} {:>8}",
            format!("{}/{}", self.name, label),
            fmt_duration(median),
            fmt_duration(samples[0]),
            fmt_duration(*samples.last().expect("non-empty")),
            iters,
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_formats() {
        let g = Group::new("smoke");
        g.bench("noop", || 1 + 1);
        assert_eq!(fmt_duration(Duration::from_nanos(50)), "50 ns");
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs(50)), "50.00 s");
    }
}
