//! The process-global store behind the public API: counters, gauges,
//! notes, histograms, span records and sweep records, all behind one
//! mutex (telemetry writes are rare relative to the work they measure,
//! and a single lock makes drain/reset atomic across sections).

use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One completed sweep as the executor reports it; the CLI's `--stats`
/// table renders one row per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRecord {
    /// Sweep label.
    pub label: String,
    /// Work items submitted.
    pub items: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep, in nanoseconds.
    pub wall_ns: u64,
    /// Items that panicked.
    pub faults: usize,
}

/// Log₂-bucketed summary of a stream of observations (seconds).
///
/// Buckets span `2^-30 s` (≈ 1 ns) to `2^33 s`; observations outside
/// that range clamp to the end buckets. `count`/`sum`/`min`/`max` are
/// exact; [`quantile`](Self::quantile) is a bucket-resolution estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    buckets: Vec<u64>,
}

const BUCKETS: usize = 64;
const BUCKET_OFFSET: i32 = 30; // bucket 0 holds values < 2^-30 s

impl HistogramSummary {
    fn new() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; BUCKETS],
        }
    }

    fn bucket_of(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let idx = value.log2().floor() as i64 + i64::from(BUCKET_OFFSET);
        idx.clamp(0, BUCKETS as i64 - 1) as usize
    }

    fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate with log-linear interpolation inside the
    /// winning log₂ bucket: the target rank `⌈q · count⌉` selects a
    /// bucket, and the estimate is placed at the matching geometric
    /// fraction of that bucket's `[2^k, 2^(k+1))` span, clamped to the
    /// observed `[min, max]`. Returns `0.0` when empty. The result is
    /// monotone in `q` and never more than one bucket away from the
    /// exact sample quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if before + n >= target {
                // Rank fraction within this bucket, in (0, 1]; a full
                // fraction lands exactly on the bucket's upper bound.
                let rank_fraction = (target - before) as f64 / n as f64;
                let log2_lower = f64::from(i as i32 - BUCKET_OFFSET);
                let estimate = (log2_lower + rank_fraction).exp2();
                return estimate.clamp(self.min, self.max);
            }
            before += n;
        }
        self.max
    }
}

/// A point-in-time copy of the registry (see [`crate::snapshot`] /
/// [`crate::drain`]). Maps are `BTreeMap`s so iteration — and therefore
/// every exported report — has stable key order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Free-text annotations by name.
    pub notes: BTreeMap<String, String>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Completed sweeps, in completion order.
    pub sweeps: Vec<SweepRecord>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
    histograms: BTreeMap<String, HistogramSummary>,
    spans: Vec<SpanRecord>,
    sweeps: Vec<SweepRecord>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn registry() -> MutexGuard<'static, Option<Registry>> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = registry();
    f(guard.get_or_insert_with(Registry::default))
}

/// The process-wide monotonic epoch all span timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn counter_add(name: &str, delta: u64) {
    with(|r| {
        let slot = r.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    });
}

pub(crate) fn counter_value(name: &str) -> u64 {
    registry()
        .as_ref()
        .and_then(|r| r.counters.get(name).copied())
        .unwrap_or(0)
}

pub(crate) fn set_gauge(name: &str, value: f64) {
    with(|r| {
        r.gauges.insert(name.to_owned(), value);
    });
}

pub(crate) fn set_note(name: &str, text: &str) {
    with(|r| {
        r.notes.insert(name.to_owned(), text.to_owned());
    });
}

pub(crate) fn observe(name: &str, value: f64) {
    with(|r| {
        r.histograms
            .entry(name.to_owned())
            .or_insert_with(HistogramSummary::new)
            .record(value);
    });
}

pub(crate) fn record_span(record: SpanRecord) {
    with(|r| r.spans.push(record));
}

pub(crate) fn record_sweep(record: SweepRecord) {
    with(|r| r.sweeps.push(record));
}

pub(crate) fn snapshot() -> Snapshot {
    registry()
        .as_ref()
        .map(|r| Snapshot {
            counters: r.counters.clone(),
            gauges: r.gauges.clone(),
            notes: r.notes.clone(),
            histograms: r.histograms.clone(),
            spans: r.spans.clone(),
            sweeps: r.sweeps.clone(),
        })
        .unwrap_or_default()
}

pub(crate) fn drain() -> Snapshot {
    registry()
        .take()
        .map(|r| Snapshot {
            counters: r.counters,
            gauges: r.gauges,
            notes: r.notes,
            histograms: r.histograms,
            spans: r.spans,
            sweeps: r.sweeps,
        })
        .unwrap_or_default()
}

pub(crate) fn drain_sweeps() -> Vec<SweepRecord> {
    registry()
        .as_mut()
        .map(|r| std::mem::take(&mut r.sweeps))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_clamps_and_orders() {
        assert_eq!(HistogramSummary::bucket_of(0.0), 0);
        assert_eq!(HistogramSummary::bucket_of(-1.0), 0);
        assert_eq!(HistogramSummary::bucket_of(f64::NAN), 0);
        let tiny = HistogramSummary::bucket_of(1e-12);
        let small = HistogramSummary::bucket_of(1e-6);
        let one = HistogramSummary::bucket_of(1.0);
        let huge = HistogramSummary::bucket_of(1e30);
        assert!(tiny <= small && small < one && one < huge);
        assert_eq!(huge, BUCKETS - 1);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = HistogramSummary::new();
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        let p10 = h.quantile(0.1);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p10 <= p50 && p50 <= p99);
        assert!(p10 >= h.min && p99 <= h.max);
        assert_eq!(HistogramSummary::new().quantile(0.5), 0.0);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = HistogramSummary::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 2.0);
    }

    #[test]
    fn quantile_of_constant_stream_is_that_constant() {
        // 1.5 sits strictly inside bucket [1, 2); the interpolated
        // estimate clamps to the degenerate [min, max] = [1.5, 1.5].
        let mut h = HistogramSummary::new();
        for _ in 0..100 {
            h.record(1.5);
        }
        assert_eq!(h.quantile(0.01), 1.5);
        assert_eq!(h.quantile(0.5), 1.5);
        assert_eq!(h.quantile(1.0), 1.5);
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // 50 observations at 1.0 (bucket [1, 2)) and 50 at 4.0
        // (bucket [4, 8)).
        let mut h = HistogramSummary::new();
        for _ in 0..50 {
            h.record(1.0);
        }
        for _ in 0..50 {
            h.record(4.0);
        }
        // p50 exhausts the low bucket: rank fraction 1.0 lands exactly
        // on its upper bound.
        assert_eq!(h.quantile(0.5), 2.0);
        // p100 exhausts the high bucket; 2^3 = 8 clamps to max = 4.
        assert_eq!(h.quantile(1.0), 4.0);
        // Rank 1 of 50 in [1, 2) interpolates to 2^(1/50), above min.
        let low = h.quantile(1e-9);
        assert!(low >= 1.0 && low <= 2f64.powf(0.02), "{low}");
        // A power-of-two observation lands at the bottom of its bucket
        // and the clamp still pins the estimate to the sample.
        let mut single = HistogramSummary::new();
        single.record(2.0);
        assert_eq!(single.quantile(0.5), 2.0);
    }

    #[test]
    fn quantile_handles_subnormal_bucket_zero() {
        // Values below 2^-30 collapse into bucket 0; the clamp keeps
        // the estimate inside the observed range.
        let mut h = HistogramSummary::new();
        h.record(1e-12);
        h.record(2e-12);
        let p50 = h.quantile(0.5);
        assert!((1e-12..=2e-12).contains(&p50), "{p50}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The interpolated estimate never lands more than one log₂
        /// bucket away from the exact quantile of the recorded sample.
        #[test]
        fn quantile_tracks_exact_sample_quantile_within_one_bucket(
            samples in proptest::collection::vec(1e-12f64..1e3, 1..200),
            q in 0.0f64..=1.0,
        ) {
            let mut h = HistogramSummary::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
            let exact = sorted[rank - 1];
            let estimate = h.quantile(q);
            let eb = HistogramSummary::bucket_of(estimate) as i64;
            let xb = HistogramSummary::bucket_of(exact) as i64;
            proptest::prop_assert!(
                (eb - xb).abs() <= 1,
                "estimate {} (bucket {}) vs exact {} (bucket {})",
                estimate, eb, exact, xb
            );
            proptest::prop_assert!(estimate >= h.min && estimate <= h.max);
        }
    }
}
