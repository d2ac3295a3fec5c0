//! The thread-safe span/metric collector and its RAII span guard.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::metrics::{Histogram, HistogramSnapshot};

/// Which clock a span's timestamps live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real monotonic time, microseconds since the collector's epoch.
    Wall,
    /// Simulated time (e.g. the async executor's event clock), scaled to
    /// microseconds so trace viewers render it alongside wall time.
    Virtual,
}

/// One closed span: a named interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Dotted taxonomy name, e.g. `sched.random_delay.delay_draw`.
    pub name: Cow<'static, str>,
    /// Lane: the recording thread (wall clock) or simulated processor
    /// (virtual clock).
    pub track: u32,
    /// Clock the timestamps are on.
    pub clock: Clock,
    /// Start, microseconds since epoch (wall) or since t=0 (virtual).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth at open time (0 = top level). Virtual spans are
    /// always depth 0.
    pub depth: u32,
}

impl SpanEvent {
    /// The taxonomy category: the segment before the first `.`
    /// (`sched.random_delay` → `sched`).
    pub fn category(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// Point-in-time copy of a collector's contents, consumed by the
/// exporters in [`crate::export`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The closed spans still retained (the latest [`SPAN_CAPACITY`] at
    /// most), in close order.
    pub spans: Vec<SpanEvent>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Aggregate over all closed spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// The shared span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: usize,
    /// Total duration, microseconds.
    pub total_us: u64,
    /// Median duration, microseconds.
    pub p50_us: u64,
    /// 99th-percentile duration, microseconds.
    pub p99_us: u64,
}

impl Snapshot {
    /// Distinct span categories present, sorted.
    pub fn categories(&self) -> Vec<String> {
        let mut cats: Vec<String> = self
            .spans
            .iter()
            .map(|s| s.category().to_string())
            .collect();
        cats.sort();
        cats.dedup();
        cats
    }

    /// Per-name span aggregates (count, total, p50, p99), sorted by name.
    pub fn span_summaries(&self) -> Vec<SpanSummary> {
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(&s.name).or_default().push(s.dur_us);
        }
        by_name
            .into_iter()
            .map(|(name, mut durs)| {
                durs.sort_unstable();
                let count = durs.len();
                let q = |p: f64| durs[((p * (count - 1) as f64).round() as usize).min(count - 1)];
                SpanSummary {
                    name: name.to_string(),
                    count,
                    total_us: durs.iter().sum(),
                    p50_us: q(0.50),
                    p99_us: q(0.99),
                }
            })
            .collect()
    }
}

#[derive(Default)]
struct Inner {
    spans: VecDeque<SpanEvent>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe telemetry sink. Most code uses the process-global
/// instance through [`crate::global`] and the free functions / the
/// [`crate::span!`] macro; tests may build private collectors.
pub struct Collector {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

/// Counter that tallies histogram samples rejected for being
/// non-finite (see [`Collector::histogram_record`]).
pub const DROPPED_SAMPLES: &str = "telemetry.dropped_samples";

/// Most span events a collector retains. A long-lived process (the
/// server records for its whole life) would otherwise grow, and clone
/// on every snapshot, a list of everything it ever did; past this many
/// the oldest event is dropped and tallied in
/// `telemetry.dropped_spans`. Only the event list is bounded: the
/// `span.*` histograms and every counter still see every span.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// Counter that tallies span events dropped from a full ring (see
/// [`SPAN_CAPACITY`]).
pub const DROPPED_SPANS: &str = "telemetry.dropped_spans";

/// Distinct wall-clock track ids, one per recording thread.
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACK: Cell<Option<u32>> = const { Cell::new(None) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn thread_track() -> u32 {
    TRACK.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

impl Collector {
    /// An empty, *disabled* collector whose epoch is "now".
    pub fn new() -> Collector {
        Collector {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the collector is recording. One relaxed atomic load — this
    /// is the entire disabled-path cost of every instrumentation point.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds elapsed since the collector's epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock poisons it; the data is plain
        // values, so recovering the guard is always safe here.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a wall-clock span; it records when the guard drops. When the
    /// collector is disabled this returns an inert guard without touching
    /// any shared state.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                collector: None,
                name,
                start_us: 0,
                track: 0,
                depth: 0,
            };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            collector: Some(self),
            name,
            start_us: self.now_us(),
            track: thread_track(),
            depth,
        }
    }

    fn record_span(&self, ev: SpanEvent) {
        // Auto-aggregate wall-span durations so Prometheus output always
        // carries latency histograms wherever spans fire.
        let wall = (ev.clock == Clock::Wall).then(|| format!("span.{}", ev.name));
        let mut inner = self.lock();
        if let Some(key) = wall {
            let secs = ev.dur_us as f64 / 1e6;
            inner.histograms.entry(key).or_default().record(secs);
        }
        if inner.spans.len() == SPAN_CAPACITY {
            inner.spans.pop_front();
            // No `entry`: that would allocate the key on every drop.
            match inner.counters.get_mut(DROPPED_SPANS) {
                Some(v) => *v += 1,
                None => {
                    inner.counters.insert(DROPPED_SPANS.to_string(), 1);
                }
            }
        }
        inner.spans.push_back(ev);
    }

    /// Records a closed span on the simulated clock (`start_s`/`dur_s`
    /// in simulated seconds, `track` = simulated processor).
    pub fn virtual_span(
        &self,
        name: impl Into<Cow<'static, str>>,
        track: u32,
        start_s: f64,
        dur_s: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record_span(SpanEvent {
            name: name.into(),
            track,
            clock: Clock::Virtual,
            start_us: (start_s * 1e6).round().max(0.0) as u64,
            dur_us: (dur_s * 1e6).round().max(0.0) as u64,
            depth: 0,
        });
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Raises the named gauge to `value` if larger — peak tracking
    /// (e.g. maximum ready-queue depth).
    #[inline]
    pub fn gauge_max(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = v.max(value),
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records one sample into the named histogram. Non-finite samples
    /// (NaN, ±inf — typically from a zero-duration division upstream)
    /// are **dropped** rather than recorded, and tallied in the
    /// `telemetry.dropped_samples` counter so the loss is visible.
    #[inline]
    pub fn histogram_record(&self, name: &str, value: f64) {
        self.histogram_record_each([(name, value)]);
    }

    /// [`Collector::histogram_record`] for each `(name, value)` under one
    /// lock acquisition — for a site that reports a fixed set of
    /// histograms per event (the server's five stage times per traced
    /// request).
    #[inline]
    pub fn histogram_record_each<'a>(&self, samples: impl IntoIterator<Item = (&'a str, f64)>) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        for (name, value) in samples {
            if !value.is_finite() {
                match inner.counters.get_mut(DROPPED_SAMPLES) {
                    Some(v) => *v += 1,
                    None => {
                        inner.counters.insert(DROPPED_SAMPLES.to_string(), 1);
                    }
                }
                continue;
            }
            match inner.histograms.get_mut(name) {
                Some(h) => h.record(value),
                None => {
                    let mut h = Histogram::default();
                    h.record(value);
                    inner.histograms.insert(name.to_string(), h);
                }
            }
        }
    }

    /// Reads the current value of a counter (0 if it has never been
    /// incremented). Used for cheap before/after attribution — e.g.
    /// charging `pool.tasks` deltas to a request.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Clones the current contents of one histogram, if present.
    pub fn histogram_value(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().histograms.get(name).map(Histogram::snapshot)
    }

    /// Clones the current contents.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            spans: inner.spans.iter().cloned().collect(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Clears everything recorded so far; the enabled flag is unchanged.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }
}

/// RAII wall-clock span handle returned by [`Collector::span`]; records
/// the interval when dropped. Inert (and allocation-free) when the
/// collector was disabled at open time.
pub struct SpanGuard<'a> {
    collector: Option<&'a Collector>,
    name: &'static str,
    start_us: u64,
    track: u32,
    depth: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(c) = self.collector else {
            return;
        };
        DEPTH.with(|d| d.set(self.depth));
        let end = c.now_us();
        c.record_span(SpanEvent {
            name: Cow::Borrowed(self.name),
            track: self.track,
            clock: Clock::Wall,
            start_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            depth: self.depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_collector_spans_nest_and_time() {
        let c = Collector::new();
        c.set_enabled(true);
        {
            let _a = c.span("a.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = c.span("a.outer.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Inner closes first.
        let inner = &snap.spans[0];
        let outer = &snap.spans[1];
        assert_eq!(inner.name, "a.outer.inner");
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(inner.start_us >= outer.start_us);
        assert_eq!(inner.track, outer.track);
        assert_eq!(outer.category(), "a");
    }

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::new();
        {
            let _s = c.span("x.y");
            c.counter_add("c", 1);
            c.gauge_max("g", 2.0);
            c.histogram_record("h", 3.0);
            c.virtual_span("v", 0, 0.0, 1.0);
        }
        let snap = c.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let c = Collector::new();
        c.set_enabled(true);
        c.counter_add("c", 1);
        c.counter_add("c", 4);
        c.gauge_set("g", 7.0);
        c.gauge_set("g", 3.0);
        c.gauge_max("p", 1.0);
        c.gauge_max("p", 9.0);
        c.gauge_max("p", 2.0);
        for v in [1.0, 2.0, 3.0] {
            c.histogram_record("h", v);
        }
        let snap = c.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 3.0);
        assert_eq!(snap.gauges["p"], 9.0);
        assert_eq!(snap.histograms["h"].count(), 3);
    }

    #[test]
    fn virtual_spans_scale_to_microseconds() {
        let c = Collector::new();
        c.set_enabled(true);
        c.virtual_span("sim.task", 3, 1.5, 0.25);
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.clock, Clock::Virtual);
        assert_eq!(s.track, 3);
        assert_eq!(s.start_us, 1_500_000);
        assert_eq!(s.dur_us, 250_000);
    }

    #[test]
    fn non_finite_histogram_samples_are_dropped_and_counted() {
        let c = Collector::new();
        c.set_enabled(true);
        c.histogram_record("h", 1.0);
        c.histogram_record("h", f64::NAN);
        c.histogram_record("h", f64::INFINITY);
        c.histogram_record("h", f64::NEG_INFINITY);
        c.histogram_record("h", 2.0);
        let snap = c.snapshot();
        // Only the two finite samples landed; bucket math stays honest.
        assert_eq!(snap.histograms["h"].count(), 2);
        assert_eq!(snap.counters[DROPPED_SAMPLES], 3);
        assert_eq!(c.counter_value(DROPPED_SAMPLES), 3);
    }

    #[test]
    fn span_ring_drops_the_oldest_events_and_nothing_else() {
        let c = Collector::new();
        c.set_enabled(true);
        let total = 10 * SPAN_CAPACITY;
        for _ in 0..total - 1 {
            drop(c.span("ring.wall"));
        }
        c.virtual_span("ring.last", 0, 0.0, 1.0);
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), SPAN_CAPACITY);
        assert_eq!(snap.spans[SPAN_CAPACITY - 1].name, "ring.last");
        assert_eq!(snap.counters[DROPPED_SPANS], (total - SPAN_CAPACITY) as u64);
        // The aggregate saw every wall span, dropped or not.
        assert_eq!(
            snap.histograms["span.ring.wall"].count(),
            (total - 1) as u64
        );
        c.reset();
        assert!(c.snapshot().spans.is_empty());
    }

    #[test]
    fn counter_and_histogram_value_accessors() {
        let c = Collector::new();
        c.set_enabled(true);
        assert_eq!(c.counter_value("absent"), 0);
        c.counter_add("c", 7);
        assert_eq!(c.counter_value("c"), 7);
        assert!(c.histogram_value("absent").is_none());
        c.histogram_record("h", 0.5);
        assert_eq!(c.histogram_value("h").map(|h| h.count()), Some(1));
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let c = Collector::new();
        c.set_enabled(true);
        c.counter_add("c", 1);
        c.reset();
        assert!(c.is_enabled());
        assert!(c.snapshot().counters.is_empty());
    }

    #[test]
    fn span_summaries_aggregate_by_name() {
        let c = Collector::new();
        c.set_enabled(true);
        for i in 0..5 {
            c.virtual_span("sim.step", 0, i as f64, 1.0 + i as f64);
        }
        let snap = c.snapshot();
        let sums = snap.span_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].name, "sim.step");
        assert_eq!(sums[0].count, 5);
        assert_eq!(
            sums[0].total_us,
            (1.0f64 + 2.0 + 3.0 + 4.0 + 5.0) as u64 * 1_000_000
        );
        assert_eq!(sums[0].p50_us, 3_000_000);
        assert_eq!(sums[0].p99_us, 5_000_000);
    }
}
