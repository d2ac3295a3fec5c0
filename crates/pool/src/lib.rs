//! # sweep-pool
//!
//! A dependency-free, `unsafe`-free lock-free thread pool for the
//! sweep-scheduling workspace.
//!
//! The pool parallelizes *index spaces*: [`ThreadPool::par_map`] splits
//! `0..n` into one contiguous range per worker, each worker claims the
//! front of its own range with a relaxed `fetch_add`, and idle workers
//! CAS-steal the **back half** of the largest remaining victim range —
//! work-stealing with a single packed `AtomicU64` per worker instead of
//! a lock or a Chase–Lev ring buffer (see [`range::RangeQueues`] for
//! the protocol and its linearization argument). No mutex is taken on
//! any task path: the common case is one uncontended `fetch_add` per
//! task.
//!
//! Workers run under [`std::thread::scope`], so closures may borrow the
//! caller's stack (no `'static` bound, no `Arc` plumbing), every worker
//! thread is joined — exited, not just done — before `par_map` returns
//! (a pool can never shut down with queued tasks still pending), and a
//! panicking task propagates to the caller instead of being lost.
//!
//! ## Determinism
//!
//! Results are returned **ordered by input index**, regardless of which
//! worker executed which index or in what interleaving. As long as the
//! task closure is a pure function of its index (the per-trial
//! seed-splitting in `sweep-core` guarantees this for RNG-bearing
//! work), the output of `par_map` is bit-identical at every worker
//! count, including the sequential `threads == 1` path.
//!
//! ## Per-worker scratch
//!
//! [`ThreadPool::par_map_scratch`] additionally threads one mutable
//! scratch value per worker through every task that worker executes —
//! the hook `sweep-core` uses to reuse trial arenas across trials so
//! steady state allocates nothing per trial. Determinism is unaffected:
//! scratch is an allocation cache, never data flow between indices.
//!
//! ```
//! let pool = sweep_pool::ThreadPool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::sync::mpsc;
use std::thread;

use sweep_check::sync::atomic::{AtomicUsize, Ordering};
use sweep_telemetry as telemetry;

#[cfg(feature = "model-check")]
pub mod model;
pub mod range;

pub use range::{RangeQueues, StealStats};

/// Requested global worker count; `0` means "not set, use the machine".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads reported by the OS (at least 1).
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the process-wide default worker count used by [`global`].
///
/// `1` forces every pool consumer onto the inline sequential path;
/// `0` resets to [`available_threads`]. The CLI's `--threads N` flag
/// and the bench harness both route through here.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// The process-wide default worker count: the last
/// [`set_global_threads`] value, or [`available_threads`] if unset.
pub fn global_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => available_threads(),
        n => n,
    }
}

/// A pool sized by the process-wide default (see [`set_global_threads`]).
pub fn global() -> ThreadPool {
    ThreadPool::new(global_threads())
}

/// A handle describing how many workers to fan scoped parallel calls
/// across.
///
/// The handle itself owns no threads: each [`par_map`](Self::par_map)
/// call spawns its workers under [`std::thread::scope`] and joins them
/// before returning. That is what makes borrowing task closures legal
/// under `unsafe_code = "deny"`, and it bounds the cost of the design:
/// one thread-spawn per worker per call, irrelevant for the
/// millisecond-scale tasks this workspace feeds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to [`available_threads`].
    pub fn auto() -> ThreadPool {
        ThreadPool::new(available_threads())
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool runs everything inline on the caller thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f` over `items`, returning results ordered by input index.
    ///
    /// `f` receives `(index, &item)` and may borrow from the caller's
    /// stack. Execution order across workers is nondeterministic; the
    /// returned `Vec` is not — element `i` is always `f(i, &items[i])`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), &|| (), &|i, _: &mut ()| f(i, &items[i]))
    }

    /// Maps `f` over the index range `0..n`, ordered by index.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run(n, &|| (), &|i, _: &mut ()| f(i))
    }

    /// Runs `f` for every item; results (if any) are discarded.
    pub fn par_for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(usize, &T) + Sync,
    {
        self.run(items.len(), &|| (), &|i, _: &mut ()| f(i, &items[i]));
    }

    /// Maps `f` over `0..n` with one reusable scratch value per worker.
    ///
    /// `init` builds a fresh scratch for each worker (and once for the
    /// sequential path); `f(i, &mut scratch)` may fill and reuse it
    /// freely across the indices that worker happens to execute. The
    /// result for index `i` must remain a pure function of `i` — the
    /// scratch is an allocation cache, not a communication channel —
    /// and then the output is bit-identical at every worker count.
    pub fn par_map_scratch<S, R, FI, F>(&self, n: usize, init: FI, f: F) -> Vec<R>
    where
        R: Send,
        FI: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        self.run(n, &init, &f)
    }

    fn run<S, R, FI, F>(&self, n: usize, init: &FI, f: &F) -> Vec<R>
    where
        R: Send,
        FI: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            // Sequential reference path: same closure, same order. The
            // parallel path must be bit-identical to this one.
            let mut scratch = init();
            return (0..n).map(|i| f(i, &mut scratch)).collect();
        }

        // One packed range per worker, seeded with a contiguous chunk
        // of the index space (see `range::RangeQueues` for the lock-free
        // discipline — and for how the model checker explores it).
        let queues = RangeQueues::chunked(n, workers);

        let (tx, rx) = mpsc::channel::<Batch<R>>();
        thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let tx = tx.clone();
                    let queues = &queues;
                    scope.spawn(move || {
                        let _ = tx.send(drain_ranges(w, queues, init, f));
                    })
                })
                .collect();
            // The caller thread is worker 0 — it participates instead
            // of blocking, so `threads == 2` really means two workers.
            let _ = tx.send(drain_ranges(0, &queues, init, f));
            drop(tx);
            // Join every OS thread, not just its closure: the scope's own
            // join returns once the closures finish, and a thread that has
            // not exited yet still holds its malloc arena, so the next
            // call's spawn would open (and keep) a fresh one.
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        // Every worker has exited and any task panic is re-raised by
        // this point; the channel is fully drained below.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        for batch in rx {
            for (i, r) in batch.results {
                debug_assert!(slots[i].is_none(), "pool executed index {i} twice");
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| unreachable!("pool lost index {i}")))
            .collect()
    }
}

impl Default for ThreadPool {
    /// Equivalent to [`global`]: sized by the process-wide setting.
    fn default() -> ThreadPool {
        global()
    }
}

struct Batch<R> {
    results: Vec<(usize, R)>,
}

/// Worker loop: claim the front of our own range, then CAS-steal the
/// back half of the largest victim range (see
/// [`RangeQueues::next_task`]). Exits when every range is empty — no
/// task spawns further tasks, so an empty sweep means the index space
/// is exhausted. On exit the worker records its counters and returns its
/// batch:
///
/// * `pool.tasks` — indices executed by this worker;
/// * `pool.steals` — successful back-half steals;
/// * `pool.steal_attempts` / `pool.steal_failures` — CAS splits tried
///   and CAS splits lost to a race (a failure is not wasted work: it
///   means somebody else made progress);
/// * `pool.parked` — workers that finished their sweep (one per worker
///   per parallel call; `parked / tasks` ≫ 0 means tasks are too small
///   to be worth fanning out).
fn drain_ranges<S, R, FI, F>(me: usize, queues: &RangeQueues, init: &FI, f: &F) -> Batch<R>
where
    FI: Fn() -> S,
    F: Fn(usize, &mut S) -> R,
{
    let mut scratch = init();
    let mut results = Vec::new();
    let mut steals = 0u64;
    let mut stats = StealStats::default();
    while let Some((i, stolen)) = queues.next_task(me, &mut stats) {
        steals += u64::from(stolen);
        results.push((i, f(i, &mut scratch)));
    }
    telemetry::counter_add("pool.tasks", results.len() as u64);
    if steals > 0 {
        telemetry::counter_add("pool.steals", steals);
    }
    if stats.attempts > 0 {
        telemetry::counter_add("pool.steal_attempts", stats.attempts);
    }
    if stats.failures > 0 {
        telemetry::counter_add("pool.steal_failures", stats.failures);
    }
    telemetry::counter_add("pool.parked", 1);
    Batch { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn mix(i: usize) -> u64 {
        // SplitMix64 finalizer: cheap, but unpredictable enough that a
        // lost or duplicated index would change the checksum.
        let mut z = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn par_map_matches_sequential_at_every_width() {
        for n in [0usize, 1, 2, 7, 64, 257, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let expect: Vec<u64> = items.iter().enumerate().map(|(i, &x)| mix(i) ^ x).collect();
            for threads in [1usize, 2, 3, 4, 8] {
                let got = ThreadPool::new(threads).par_map(&items, |i, &x| mix(i) ^ x);
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_range_is_index_ordered() {
        let got = ThreadPool::new(4).par_map_range(100, |i| i * 2);
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_for_each_visits_every_index_once() {
        let items: Vec<u32> = (0..500).collect();
        let sum = AtomicU64::new(0);
        ThreadPool::new(4).par_for_each(&items, |i, &x| {
            sum.fetch_add(mix(i).wrapping_add(x as u64), Ordering::Relaxed);
        });
        let expect: u64 = items.iter().enumerate().fold(0u64, |a, (i, &x)| {
            a.wrapping_add(mix(i).wrapping_add(x as u64))
        });
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn borrows_caller_stack() {
        let base = [10u64, 20, 30];
        let pool = ThreadPool::new(2);
        let got = pool.par_map_range(3, |i| base[i] + 1);
        assert_eq!(got, vec![11, 21, 31]);
    }

    #[test]
    fn par_map_scratch_matches_sequential_and_reuses_buffers() {
        // Scratch carries a buffer across tasks; the result for each
        // index must still be a pure function of the index, and the
        // scratch must visibly persist within a worker (its capacity
        // only grows).
        for threads in [1usize, 2, 4, 8] {
            let got = ThreadPool::new(threads).par_map_scratch(
                300,
                Vec::<u64>::new,
                |i, buf: &mut Vec<u64>| {
                    buf.clear();
                    buf.extend((0..=i as u64).map(|x| mix(x as usize)));
                    buf.iter().fold(0u64, |a, &x| a.wrapping_add(x))
                },
            );
            let expect: Vec<u64> = (0..300)
                .map(|i| (0..=i).fold(0u64, |a, x| a.wrapping_add(mix(x))))
                .collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn stress_pool_100_rounds() {
        // The loom-free CI smoke: hammer the pool with uneven task
        // sizes so stealing actually happens, and checksum every round.
        let pool = ThreadPool::new(4);
        for round in 0..100usize {
            let n = 1 + (round * 37) % 211;
            let got = pool.par_map_range(n, |i| {
                // Skew task cost so early workers finish first and steal.
                let spin = (mix(i) % 64) as u32;
                let mut acc = mix(i ^ round);
                for _ in 0..spin {
                    acc = acc.rotate_left(7) ^ mix(acc as usize & 0xffff);
                }
                acc
            });
            let expect: Vec<u64> = (0..n)
                .map(|i| {
                    let spin = (mix(i) % 64) as u32;
                    let mut acc = mix(i ^ round);
                    for _ in 0..spin {
                        acc = acc.rotate_left(7) ^ mix(acc as usize & 0xffff);
                    }
                    acc
                })
                .collect();
            assert_eq!(got, expect, "round {round} n={n}");
        }
    }

    #[test]
    fn steal_storm_front_loaded_100_rounds() {
        // Adversarial steal pressure: every index starts in worker 0's
        // range, so workers 1..w can make progress only by CAS-stealing.
        // Checksummed against the sequential oracle every round.
        for round in 0..100usize {
            let n = 1 + (round * 53) % 181;
            let workers = 2 + round % 7;
            let queues = RangeQueues::front_loaded(n, workers);
            let (tx, rx) = mpsc::channel::<Vec<(usize, u64)>>();
            thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let queues = &queues;
                    scope.spawn(move || {
                        let mut stats = StealStats::default();
                        let mut got = Vec::new();
                        while let Some((i, _)) = queues.next_task(w, &mut stats) {
                            got.push((i, mix(i ^ round)));
                        }
                        let _ = tx.send(got);
                    });
                }
                drop(tx);
            });
            let mut seen = vec![0u32; n];
            for batch in rx {
                for (i, v) in batch {
                    assert_eq!(v, mix(i ^ round), "round {round} index {i}");
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "round {round}: indices executed other than once: {seen:?}"
            );
        }
    }

    // Whichever worker executes index 13, the caller sees its payload:
    // worker 0 unwinds through the scope, the others through `join`.
    #[test]
    #[should_panic(expected = "task 13 exploded")]
    fn task_panic_propagates() {
        ThreadPool::new(4).par_map_range(64, |i| {
            if i == 13 {
                panic!("task 13 exploded");
            }
            i
        });
    }

    #[test]
    fn global_threads_roundtrip() {
        // Other tests use explicit pools, so toggling the global here
        // is safe; restore the auto default before returning.
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(global().threads(), 3);
        set_global_threads(0);
        assert_eq!(global_threads(), available_threads());
        assert!(available_threads() >= 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert!(pool.is_sequential());
        assert_eq!(pool.par_map_range(4, |i| i), vec![0, 1, 2, 3]);
    }
}
