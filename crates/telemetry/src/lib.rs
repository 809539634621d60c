//! # nm-telemetry — unified observability core for the `nmcache` workspace
//!
//! Before this crate, instrumentation was scattered: the memoizing
//! evaluator kept private `EvalStats` counters, the sweep executor kept
//! its own statistics registry, and the benches hand-formatted JSON.
//! There was no single place to answer *where did this study spend its
//! time, which surfaces were cache hits, how many items faulted?*
//!
//! This crate is that place: a **zero-external-dependency, thread-safe**
//! global registry of
//!
//! * **spans** — RAII guards ([`span`]) recording wall time on monotonic
//!   clocks, with parent/child nesting tracked per thread and per-label
//!   aggregation in the run report;
//! * **counters** ([`counter_add`]) and **gauges** ([`set_gauge`]) —
//!   memo hits/misses, surfaces built, device evaluations, trace records
//!   parsed, sweep items and faults;
//! * **histograms** ([`observe_seconds`]) — per-item sweep latency,
//!   surface build latency, with log₂ buckets for quantile estimates;
//! * **sweep records** ([`record_sweep`]) — the executor's per-sweep
//!   accounting, stored here so `--stats` is a view over the same
//!   registry as everything else.
//!
//! ## Disabled by default, drainable for tests
//!
//! Every entry point first checks one relaxed atomic ([`enabled`]); when
//! telemetry is off the whole crate costs one load per call site and
//! records nothing, so golden outputs stay byte-identical. Tests (and
//! the CLI) use [`enable`] / [`drain`] / [`reset`]: draining removes
//! and returns everything recorded so far, isolating one measured
//! region from the next.
//!
//! ## Exportable run reports
//!
//! A [`report::RunReport`] snapshots the registry into a
//! schema-versioned, stable-key-order JSON document (for `--metrics`
//! and golden testing), and [`report::chrome_trace_json`] renders the
//! recorded span tree as a Chrome `chrome://tracing` / Perfetto
//! compatible trace-event file (for `--trace-out`).
//!
//! ```
//! nm_telemetry::reset();
//! nm_telemetry::enable();
//! {
//!     let _outer = nm_telemetry::span("demo.outer");
//!     let _inner = nm_telemetry::span("demo.inner");
//!     nm_telemetry::counter_add("demo.widgets", 3);
//! }
//! let snap = nm_telemetry::drain();
//! nm_telemetry::disable();
//! assert_eq!(snap.counters["demo.widgets"], 3);
//! assert_eq!(snap.spans.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
mod registry;
pub mod report;
mod span;

pub use clock::Stopwatch;
pub use registry::{HistogramSummary, Snapshot, SweepRecord};
pub use report::{RunReport, SCHEMA_VERSION};
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Verbosity of the human-readable one-line span summaries on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// No logging (the default).
    #[default]
    Off,
    /// Top-level spans only.
    Info,
    /// Every span, indented by nesting depth.
    Debug,
}

impl LogLevel {
    /// Parses the CLI spelling (`off` / `info` / `debug`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(LogLevel::Off),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Starts recording into the global registry.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording (already-recorded data is kept until drained).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` while the registry is recording. This is the single gate every
/// instrumentation site checks first; when `false`, instrumented code
/// pays one relaxed atomic load and nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the stderr span-logging verbosity.
pub fn set_log_level(level: LogLevel) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current stderr span-logging verbosity.
pub fn log_level() -> LogLevel {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        1 => LogLevel::Info,
        2 => LogLevel::Debug,
        _ => LogLevel::Off,
    }
}

/// Adds `delta` to the named counter (no-op while disabled).
///
/// Increments are serialised through the registry lock, so concurrent
/// callers (e.g. sweep workers) never lose updates.
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        registry::counter_add(name, delta);
    }
}

/// Increments the named counter by one (no-op while disabled).
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// The current value of a counter (0 when absent or disabled-from-birth).
pub fn counter_value(name: &str) -> u64 {
    registry::counter_value(name)
}

/// Sets the named gauge to `value`, replacing any previous value
/// (no-op while disabled).
pub fn set_gauge(name: &str, value: f64) {
    if enabled() {
        registry::set_gauge(name, value);
    }
}

/// Attaches a free-text note to the run report (no-op while disabled).
pub fn set_note(name: &str, text: &str) {
    if enabled() {
        registry::set_note(name, text);
    }
}

/// Records one observation (in seconds) into the named histogram
/// (no-op while disabled).
pub fn observe_seconds(name: &str, seconds: f64) {
    if enabled() {
        registry::observe(name, seconds);
    }
}

/// Opens a timed span; the returned RAII guard records the span into the
/// registry when dropped. Spans opened while a guard is live on the same
/// thread nest under it (parent/child tracking is per thread).
///
/// While disabled this returns an inert guard and records nothing — the
/// label is not even converted, so a disabled call site costs one
/// relaxed load and no allocation.
#[must_use = "a span measures until the guard is dropped"]
pub fn span(label: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return span::inert();
    }
    span::open(label.into())
}

/// Records one completed sweep from the executor (no-op while disabled).
pub fn record_sweep(record: SweepRecord) {
    if enabled() {
        registry::record_sweep(record);
    }
}

/// A non-destructive copy of everything recorded so far.
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

/// Removes and returns everything recorded so far (counters, gauges,
/// notes, histograms, spans, sweeps), leaving the registry empty.
pub fn drain() -> Snapshot {
    registry::drain()
}

/// Removes and returns only the recorded sweep entries, in recording
/// order, leaving counters, spans and histograms in place.
pub fn drain_sweeps() -> Vec<SweepRecord> {
    registry::drain_sweeps()
}

/// Clears the registry without returning its contents.
pub fn reset() {
    let _ = registry::drain();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Serialises tests that touch the process-global registry.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = lock();
        reset();
        disable();
        counter_add("t.ignored", 5);
        set_gauge("t.ignored", 1.0);
        observe_seconds("t.ignored", 0.5);
        {
            let _s = span("t.ignored");
        }
        record_sweep(SweepRecord {
            label: "t.ignored".into(),
            items: 1,
            workers: 1,
            wall_ns: 1,
            faults: 0,
        });
        let snap = drain();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.sweeps.is_empty());
    }

    #[test]
    fn counters_accumulate_and_drain_isolates() {
        let _guard = lock();
        reset();
        enable();
        counter_inc("t.count");
        counter_add("t.count", 9);
        assert_eq!(counter_value("t.count"), 10);
        let first = drain();
        assert_eq!(first.counters["t.count"], 10);
        // Drained: a fresh region starts from zero.
        counter_inc("t.count");
        let second = drain();
        disable();
        assert_eq!(second.counters["t.count"], 1);
    }

    #[test]
    fn nested_spans_record_depth_parent_and_monotonic_times() {
        let _guard = lock();
        reset();
        enable();
        {
            let _outer = span("t.outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("t.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = drain();
        disable();
        let inner = snap.spans.iter().find(|s| s.label == "t.inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.label == "t.outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent.as_deref(), Some("t.outer"));
        // Containment: the child starts no earlier than the parent and
        // ends no later; durations are strictly positive.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.duration_ns <= outer.start_ns + outer.duration_ns);
        assert!(inner.duration_ns > 0 && outer.duration_ns > inner.duration_ns);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _guard = lock();
        reset();
        enable();
        {
            let _outer = span("t.root");
            {
                let _a = span("t.a");
            }
            {
                let _b = span("t.b");
            }
        }
        let snap = drain();
        disable();
        for label in ["t.a", "t.b"] {
            let s = snap.spans.iter().find(|s| s.label == label).unwrap();
            assert_eq!(s.parent.as_deref(), Some("t.root"), "{label}");
            assert_eq!(s.depth, 1);
        }
    }

    #[test]
    fn spans_on_different_threads_do_not_nest() {
        let _guard = lock();
        reset();
        enable();
        let _outer = span("t.main-thread");
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _s = span("t.worker-thread");
                })
                .join()
                .unwrap();
        });
        drop(_outer);
        let snap = drain();
        disable();
        let worker = snap
            .spans
            .iter()
            .find(|s| s.label == "t.worker-thread")
            .unwrap();
        assert_eq!(worker.depth, 0);
        assert_eq!(worker.parent, None);
        let main = snap
            .spans
            .iter()
            .find(|s| s.label == "t.main-thread")
            .unwrap();
        assert_ne!(worker.thread, main.thread);
    }

    #[test]
    fn histogram_summarises_observations() {
        let _guard = lock();
        reset();
        enable();
        for v in [0.001, 0.002, 0.004, 0.008] {
            observe_seconds("t.lat", v);
        }
        let snap = drain();
        disable();
        let h = &snap.histograms["t.lat"];
        assert_eq!(h.count, 4);
        assert!((h.sum - 0.015).abs() < 1e-12);
        assert_eq!(h.min, 0.001);
        assert_eq!(h.max, 0.008);
        let p50 = h.quantile(0.5);
        assert!((0.001..=0.008).contains(&p50), "{p50}");
    }

    #[test]
    fn gauges_replace_and_notes_stick() {
        let _guard = lock();
        reset();
        enable();
        set_gauge("t.g", 1.0);
        set_gauge("t.g", 2.5);
        set_note("t.n", "hello");
        let snap = drain();
        disable();
        assert_eq!(snap.gauges["t.g"], 2.5);
        assert_eq!(snap.notes["t.n"], "hello");
    }

    #[test]
    fn concurrent_counter_increments_never_lose_updates() {
        let _guard = lock();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter_inc("t.atomic");
                    }
                });
            }
        });
        let snap = drain();
        disable();
        assert_eq!(snap.counters["t.atomic"], 8000);
    }

    #[test]
    fn log_level_round_trips() {
        assert_eq!(LogLevel::from_name("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::from_name("info"), Some(LogLevel::Info));
        assert_eq!(LogLevel::from_name("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::from_name("verbose"), None);
        let _guard = lock();
        let before = log_level();
        set_log_level(LogLevel::Debug);
        assert_eq!(log_level(), LogLevel::Debug);
        set_log_level(before);
    }

    #[test]
    fn drain_sweeps_takes_only_sweeps() {
        let _guard = lock();
        reset();
        enable();
        counter_inc("t.keep");
        record_sweep(SweepRecord {
            label: "t.sweep".into(),
            items: 4,
            workers: 2,
            wall_ns: 1000,
            faults: 1,
        });
        let sweeps = drain_sweeps();
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].label, "t.sweep");
        assert_eq!(sweeps[0].faults, 1);
        // Counters survive a sweeps-only drain.
        let snap = drain();
        disable();
        assert_eq!(snap.counters["t.keep"], 1);
        assert!(snap.sweeps.is_empty());
    }
}
