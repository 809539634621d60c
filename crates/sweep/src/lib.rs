//! Bounded, deterministic, panic-containing parallel-sweep executor.
//!
//! Every study in this workspace is embarrassingly parallel along some
//! axis — (L1, L2) size pairs, AMAT targets, Monte-Carlo die corners,
//! subarray foldings, Figure 2 tuple-curve cells. Before this crate each hot
//! path either ran serially or spawned one OS thread per work item; a
//! 16×16 size grid meant 256 simultaneous simulator threads.
//!
//! [`ParallelSweep`] replaces both patterns with a scoped worker pool:
//!
//! * **Bounded** — at most `workers` threads run at once, defaulting to
//!   [`std::thread::available_parallelism`], overridable per sweep with
//!   [`ParallelSweep::with_workers`], per process with
//!   [`set_global_workers`], or per environment with `NMCACHE_THREADS`.
//! * **Deterministic** — work items are pulled from an index-based queue
//!   and results are reduced in *submission order*, so the output is
//!   bit-identical no matter how many workers ran or how the scheduler
//!   interleaved them.
//! * **Contained** — every item runs inside [`std::panic::catch_unwind`]
//!   in one drain loop shared by both entry points.
//!   [`try_map`](ParallelSweep::try_map) returns each panic as a typed
//!   [`ItemFault`] and keeps the rest of the sweep;
//!   [`map`](ParallelSweep::map) finishes the sweep and then re-raises
//!   the lowest-index panic. Items are pure functions of their input,
//!   so a failed item is never re-run, and since no item panic can
//!   escape its containment, no worker dies mid-sweep.
//! * **Observable** — while [`nm_telemetry`] records, each sweep adds a
//!   [`SweepRecord`] (items, workers, wall time, faults) and the
//!   `sweep.*` counters to the unified registry, which the CLI prints
//!   with `--stats`.
//!
//! ```
//! use nm_sweep::ParallelSweep;
//!
//! let squares = ParallelSweep::new().map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! Containment keeps one poisoned item from sinking the run:
//!
//! ```
//! use nm_sweep::ParallelSweep;
//!
//! let results = ParallelSweep::new().try_map(&[1u64, 0, 3], |&x| {
//!     assert!(x != 0, "zero is not invertible");
//!     1.0 / x as f64
//! });
//! assert!(results[0].is_ok() && results[2].is_ok());
//! assert!(results[1].as_ref().unwrap_err().message.contains("zero"));
//! ```
//!
//! The `faultinject` feature adds a deterministic fault-injection plan
//! (panics, stalls, NaN poisoning) keyed by sweep label and item index,
//! so all of the above is testable in CI without wall-clock randomness.

use nm_telemetry::{Stopwatch, SweepRecord};
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod names;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "NMCACHE_THREADS";

/// Process-wide worker-count override (`0` = unset). Set by the CLI's
/// `--threads` flag so deep call sites that build their own
/// [`ParallelSweep`] pick it up without plumbing.
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequently constructed
/// [`ParallelSweep`] in this process (`None` restores the default
/// resolution order). Explicit [`ParallelSweep::with_workers`] calls
/// still win.
pub fn set_global_workers(workers: Option<usize>) {
    GLOBAL_WORKERS.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// The current process-wide override, if any.
pub fn global_workers() -> Option<usize> {
    match GLOBAL_WORKERS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

thread_local! {
    /// Set on every thread a sweep spawns, so a sweep opened inside one
    /// of its items drains inline on that worker instead of spawning a
    /// second pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Resolves the default worker count: process override, then
/// `NMCACHE_THREADS`, then [`std::thread::available_parallelism`].
fn default_workers() -> usize {
    if let Some(n) = global_workers() {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A contained per-item failure: the item panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFault {
    /// Submission-order index of the failed item.
    pub index: usize,
    /// The item's panic message (best-effort extraction).
    pub message: String,
}

impl std::fmt::Display for ItemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} failed: {}", self.index, self.message)
    }
}

impl std::error::Error for ItemFault {}

/// Faults the executor can inject (always compiled; the `faultinject`
/// feature only adds the machinery that *arms* them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(feature = "faultinject"), allow(dead_code))]
enum ExecFault {
    Panic,
    Stall(u32),
}

/// The armed execution fault for `(label, index)`, if any. Compiles to
/// a constant `None` without the `faultinject` feature.
fn exec_fault(label: Option<&str>, index: usize) -> Option<ExecFault> {
    #[cfg(feature = "faultinject")]
    {
        faultinject::next_exec_fault(label, index)
    }
    #[cfg(not(feature = "faultinject"))]
    {
        let _ = (label, index);
        None
    }
}

/// Deterministic busy loop standing in for a stalled worker (no
/// wall-clock sleeps, so CI timing stays reproducible).
fn spin(spins: u32) {
    for i in 0..spins {
        std::hint::black_box(i);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// A bounded worker pool that maps a closure over a slice of work items
/// and returns the results in submission order.
///
/// Construction is cheap (no threads are created until
/// [`map`](Self::map) or [`try_map`](Self::try_map) runs); build one per
/// sweep.
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    workers: usize,
    label: Option<String>,
}

impl ParallelSweep {
    /// A sweep with the default worker count (see [`set_global_workers`]
    /// and [`THREADS_ENV`] for the resolution order).
    pub fn new() -> Self {
        ParallelSweep {
            workers: default_workers(),
            label: None,
        }
    }

    /// Overrides the worker count for this sweep (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Labels this sweep's [`SweepRecord`] (unlabelled sweeps record
    /// as `"sweep"`).
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The configured worker bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// At most `min(workers, items.len())` threads run concurrently,
    /// pulling indices from a shared queue; the output at position `i`
    /// is always `f(&items[i])`, so results are bit-identical for any
    /// worker count.
    ///
    /// This is the fail-fast path: every item still runs, and a
    /// panicking item then unwinds the calling thread. Use
    /// [`try_map`](Self::try_map) where one poisoned item must not sink
    /// the run.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-index item's panic, with its original
    /// payload, on the calling thread — the same panic for any worker
    /// count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items, f)
            .into_iter()
            .map(|outcome| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Applies `f` to every item with per-item panic containment and
    /// returns one `Result` per item in submission order.
    ///
    /// A panicking item is recorded as a typed [`ItemFault`] carrying
    /// its panic message; the remaining items always complete. A failed
    /// item is not re-run: items are pure functions of their input, so
    /// its panic would only repeat.
    ///
    /// Determinism: successful results are bit-identical to
    /// [`map`](Self::map) for any worker count.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, ItemFault>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items, f)
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| {
                outcome.map_err(|payload| ItemFault {
                    index,
                    message: panic_message(payload.as_ref()),
                })
            })
            .collect()
    }

    /// The one drain loop behind [`map`](Self::map) and
    /// [`try_map`](Self::try_map): every item runs under
    /// [`catch_unwind`], and its outcome — value or panic payload —
    /// comes back at its submission index. A one-worker pool drains on
    /// the calling thread with no spawn; on a single-CPU host that is
    /// the cold path's executor. So does a sweep opened inside another
    /// sweep's item: the outer pool already occupies the workers.
    fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<std::thread::Result<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let start = Stopwatch::start();
        let n = items.len();
        let asked = self.workers.min(n.max(1));
        let workers = if IN_WORKER.get() {
            if asked > 1 {
                nm_telemetry::counter_inc(names::NESTED_INLINE);
            }
            1
        } else {
            asked
        };
        let label = self.label.as_deref();
        // Per-item latency is only timed while telemetry records; with it
        // off the hot loop is untouched (one relaxed load per sweep).
        let item_hist =
            nm_telemetry::enabled().then(|| format!("sweep.item.{}", label.unwrap_or("sweep")));
        let _sweep_span = item_hist
            .as_ref()
            .map(|_| nm_telemetry::span(format!("sweep.{}", label.unwrap_or("sweep"))));

        let run_item = |i: usize| -> std::thread::Result<R> {
            let t0 = item_hist.as_ref().map(|_| Stopwatch::start());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                match exec_fault(label, i) {
                    Some(ExecFault::Panic) => panic!("faultinject: item {i} panics"),
                    Some(ExecFault::Stall(spins)) => spin(spins),
                    None => {}
                }
                f(&items[i])
            }));
            if let (Some(hist), Some(t0), Ok(_)) = (&item_hist, t0, &outcome) {
                nm_telemetry::observe_seconds(hist, t0.elapsed_seconds());
            }
            outcome
        };
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut claimed = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                claimed.push((i, run_item(i)));
            }
            claimed
        };

        let mut claimed = if workers == 1 {
            drain()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            IN_WORKER.set(true);
                            drain()
                        })
                    })
                    .collect();
                // Items panic inside `catch_unwind`, so a join fails only
                // if the loop itself did; that is re-raised, not absorbed.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                    .collect::<Vec<_>>()
            })
        };
        // Each index was claimed exactly once; ordering by it restores
        // submission order whatever the interleaving.
        claimed.sort_unstable_by_key(|&(i, _)| i);
        let outcomes: Vec<_> = claimed.into_iter().map(|(_, outcome)| outcome).collect();

        self.record(
            n,
            workers,
            &start,
            outcomes.iter().filter(|o| o.is_err()).count(),
        );
        outcomes
    }

    /// Adds this finished sweep's [`SweepRecord`] and the `sweep.*`
    /// counters to the telemetry registry. The gate is checked first, so
    /// a run that is not recording skips even the label clone.
    fn record(&self, items: usize, workers: usize, start: &Stopwatch, faults: usize) {
        if !nm_telemetry::enabled() {
            return;
        }
        nm_telemetry::counter_add(names::ITEMS, items as u64);
        nm_telemetry::counter_add(names::FAULTS, faults as u64);
        nm_telemetry::record_sweep(SweepRecord {
            label: self.label.clone().unwrap_or_else(|| "sweep".to_owned()),
            items,
            workers,
            wall_ns: start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            faults,
        });
    }
}

impl Default for ParallelSweep {
    fn default() -> Self {
        ParallelSweep::new()
    }
}

#[cfg(feature = "faultinject")]
pub mod faultinject {
    //! Deterministic fault injection keyed by sweep label and item index.
    //!
    //! Enabled only under the `faultinject` cargo feature; production
    //! builds compile none of this. Faults are *armed* ahead of a run
    //! and *consumed* as the executor (or a metric-producing layer, for
    //! [`Fault::Nan`]) reaches the matching `(label, index)` — each
    //! armed fault fires a bounded number of times and then disarms, so
    //! a sweep run N + 1 times fails deterministically on the first N.
    //! No wall-clock randomness anywhere.
    //!
    //! The plan is process-global: tests that arm faults must serialise
    //! against each other (e.g. with a shared mutex) and [`clear`] the
    //! plan when done.

    use std::sync::Mutex;

    /// A fault to inject at one `(label, index)` coordinate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// The item's closure panics (contained by
        /// [`try_map`](crate::ParallelSweep::try_map)).
        Panic,
        /// The worker busy-spins this many iterations before the item
        /// runs (the item still succeeds).
        Stall(u32),
        /// Value poisoning: a metric-producing layer that polls
        /// [`take_nan`] replaces the item's computed values with NaN.
        /// The executor itself ignores this kind.
        Nan,
    }

    #[derive(Debug)]
    struct Armed {
        label: Option<String>,
        index: usize,
        fault: Fault,
        remaining: usize,
    }

    static PLAN: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

    fn plan() -> std::sync::MutexGuard<'static, Vec<Armed>> {
        PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Arms `fault` for item `index` of sweeps labelled `label` (`None`
    /// matches any label). The fault fires on the next `times` matching
    /// attempts, then disarms.
    pub fn arm(label: Option<&str>, index: usize, fault: Fault, times: usize) {
        if times == 0 {
            return;
        }
        plan().push(Armed {
            label: label.map(str::to_owned),
            index,
            fault,
            remaining: times,
        });
    }

    /// Disarms every armed fault.
    pub fn clear() {
        plan().clear();
    }

    /// Number of armed (not yet fully fired) faults.
    pub fn armed() -> usize {
        plan().len()
    }

    fn consume(label: Option<&str>, index: usize, exec: bool) -> Option<Fault> {
        let mut plan = plan();
        let pos = plan.iter().position(|a| {
            a.index == index
                && (a.label.is_none() || a.label.as_deref() == label)
                && (matches!(a.fault, Fault::Nan) != exec)
        })?;
        let fault = plan[pos].fault;
        plan[pos].remaining -= 1;
        if plan[pos].remaining == 0 {
            plan.remove(pos);
        }
        Some(fault)
    }

    /// Consumes the next armed execution fault (panic / stall) for
    /// `(label, index)`, if any.
    pub(crate) fn next_exec_fault(label: Option<&str>, index: usize) -> Option<super::ExecFault> {
        match consume(label, index, true)? {
            Fault::Panic => Some(super::ExecFault::Panic),
            Fault::Stall(spins) => Some(super::ExecFault::Stall(spins)),
            Fault::Nan => None,
        }
    }

    /// Consumes an armed [`Fault::Nan`] for `(label, index)`. Layers
    /// that produce floating-point metrics call this once per item and
    /// poison their output when it returns `true`.
    pub fn take_nan(label: Option<&str>, index: usize) -> bool {
        matches!(consume(label, index, false), Some(Fault::Nan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn map_preserves_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 7, 64] {
            let out = ParallelSweep::new()
                .with_workers(workers)
                .map(&items, |&x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn identical_results_for_any_worker_count() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let run = |w: usize| {
            ParallelSweep::new()
                .with_workers(w)
                .map(&items, |&x| (x.sin() * 1e9).to_bits())
        };
        let reference = run(1);
        for w in [2, 3, 8] {
            assert_eq!(run(w), reference, "workers = {w}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = ParallelSweep::new().map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn peak_concurrency_respects_the_bound() {
        use std::sync::atomic::AtomicUsize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        ParallelSweep::new().with_workers(3).map(&items, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let seen = peak.load(Ordering::SeqCst);
        assert!(seen <= 3, "peak concurrency {seen} exceeded 3 workers");
        assert!(seen >= 1);
    }

    /// Serialises tests that poke the process-wide stats registry.
    fn stats_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn worker_bound_never_exceeds_item_count() {
        // A 2-item sweep on a 64-worker pool must not spawn 64 threads;
        // the recorded stats expose the actual worker count.
        let _guard = stats_lock();
        nm_telemetry::enable();
        nm_telemetry::drain_sweeps();
        ParallelSweep::new()
            .with_workers(64)
            .labeled("tiny")
            .map(&[1, 2], |&x: &i32| x);
        let recorded = nm_telemetry::drain_sweeps();
        nm_telemetry::disable();
        let entry = recorded
            .iter()
            .find(|s| s.label == "tiny")
            .expect("tiny sweep recorded");
        assert_eq!(entry.items, 2);
        assert!(entry.workers <= 2);
        assert_eq!(entry.faults, 0);
    }

    #[test]
    fn a_sweep_nested_in_a_worker_runs_on_that_worker() {
        let _guard = stats_lock();
        nm_telemetry::enable();
        let before = nm_telemetry::counter_value(names::NESTED_INLINE);
        let outer: Vec<u32> = (0..8).collect();
        let inner: Vec<u32> = (0..16).collect();
        let seen = ParallelSweep::new().with_workers(2).map(&outer, |_| {
            let parent = std::thread::current().id();
            let ids = ParallelSweep::new()
                .with_workers(4)
                .map(&inner, |_| std::thread::current().id());
            // A nested sweep that asks for one worker is not counted.
            ParallelSweep::new().with_workers(1).map(&inner, |&x| x);
            (parent, ids)
        });
        let nested = nm_telemetry::counter_value(names::NESTED_INLINE) - before;
        nm_telemetry::disable();
        let caller = std::thread::current().id();
        for (parent, ids) in seen {
            assert_ne!(parent, caller, "the outer items run on spawned workers");
            assert!(ids.iter().all(|&id| id == parent), "{ids:?} vs {parent:?}");
        }
        assert_eq!(nested, 8, "one count per multi-worker sweep drained inline");
    }

    #[test]
    fn with_workers_zero_clamps_to_one() {
        assert_eq!(ParallelSweep::new().with_workers(0).workers(), 1);
    }

    #[test]
    fn global_override_applies_to_new_sweeps() {
        set_global_workers(Some(5));
        assert_eq!(ParallelSweep::new().workers(), 5);
        set_global_workers(None);
        assert!(ParallelSweep::new().workers() >= 1);
    }

    #[test]
    fn stats_disabled_by_default_and_drain_clears() {
        let _guard = stats_lock();
        nm_telemetry::drain_sweeps();
        ParallelSweep::new().labeled("ignored").map(&[1u8], |&x| x);
        assert!(
            nm_telemetry::drain_sweeps()
                .iter()
                .all(|s| s.label != "ignored"),
            "recorded while disabled"
        );

        nm_telemetry::enable();
        ParallelSweep::new().labeled("a").map(&[1u8, 2], |&x| x);
        ParallelSweep::new().labeled("b").map(&[3u8], |&x| x);
        let got = nm_telemetry::drain_sweeps();
        nm_telemetry::disable();
        let labels: Vec<&str> = got
            .iter()
            .map(|s| s.label.as_str())
            .filter(|l| *l == "a" || *l == "b")
            .collect();
        assert!(labels.contains(&"a") && labels.contains(&"b"), "{labels:?}");
        assert!(nm_telemetry::drain_sweeps().iter().all(|s| s.label != "a"));
    }

    #[test]
    fn worker_panics_propagate_with_their_message() {
        let result = std::panic::catch_unwind(|| {
            ParallelSweep::new().with_workers(2).map(&[0, 1, 2], |&x| {
                assert!(x != 1, "item {x} is bad");
                x
            });
        });
        let payload = result.expect_err("sweep must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("item 1 is bad"), "lost panic message: {msg}");
    }

    #[test]
    fn map_reraises_the_lowest_index_panic() {
        let items: Vec<u32> = (0..16).collect();
        for workers in [1, 2, 8] {
            let result = std::panic::catch_unwind(|| {
                ParallelSweep::new()
                    .with_workers(workers)
                    .map(&items, |&x| {
                        assert!(x != 3 && x != 9, "item {x} is bad");
                        x
                    })
            });
            let payload = result.expect_err("sweep must propagate a panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "item 3 is bad", "workers = {workers}");
        }
    }

    #[test]
    fn try_map_contains_a_panicking_item() {
        for workers in [1, 2, 8] {
            let items: Vec<u32> = (0..16).collect();
            let results = ParallelSweep::new()
                .with_workers(workers)
                .try_map(&items, |&x| {
                    assert!(x != 5, "item {x} is poisoned");
                    x * 2
                });
            let faults: Vec<&ItemFault> = results.iter().filter_map(|r| r.as_ref().err()).collect();
            assert_eq!(faults.len(), 1, "workers = {workers}");
            let fault = faults[0];
            assert_eq!(fault.index, 5);
            assert!(fault.message.contains("poisoned"), "{fault}");
            for (i, r) in results.iter().enumerate() {
                if i != 5 {
                    assert_eq!(*r.as_ref().expect("healthy item"), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn try_map_matches_map_on_the_healthy_path() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 * 0.71).collect();
        let via_map = ParallelSweep::new()
            .with_workers(4)
            .map(&items, |&x| (x.cos() * 1e9).to_bits());
        let via_try = ParallelSweep::new()
            .with_workers(4)
            .try_map(&items, |&x| (x.cos() * 1e9).to_bits())
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("no faults");
        assert_eq!(via_map, via_try);
    }

    #[test]
    fn try_map_empty_input() {
        let results = ParallelSweep::new().try_map(&[] as &[u8], |&x| x);
        assert!(results.is_empty());
    }

    #[test]
    fn try_map_records_fault_stats() {
        let _guard = stats_lock();
        nm_telemetry::enable();
        nm_telemetry::drain_sweeps();
        ParallelSweep::new()
            .with_workers(2)
            .labeled("faulty")
            .try_map(&[0, 1, 2], |&x: &i32| {
                assert!(x != 1, "bad");
                x
            });
        let recorded = nm_telemetry::drain_sweeps();
        nm_telemetry::disable();
        let entry = recorded
            .iter()
            .find(|s| s.label == "faulty")
            .expect("faulty sweep recorded");
        assert_eq!(entry.faults, 1);
    }

    #[test]
    fn item_fault_displays_context() {
        let f = ItemFault {
            index: 7,
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "item 7 failed: boom");
    }
}
