//! Deterministic query-mix load generation and SLO regression gating
//! for the nmcache evaluation engine.
//!
//! Three pieces:
//!
//! * [`mix`] — seeded synthesis of a five-class query mix (cold, warm,
//!   tuple-search, adversarial, mixed-technology) that is byte-stable
//!   for a fixed `(seed, count)`;
//! * [`mod@run`] — replay of a mix against one shared in-process
//!   [`Evaluator`](nm_cache_core::eval::Evaluator) through the bounded
//!   `nm-sweep` pool, in closed- or open-loop mode, recording per-class
//!   latency histograms and throughput into the telemetry registry (the
//!   CLI publishes the drained registry as `BENCH_serve.json`);
//! * [`benchdiff`] — comparison of two published reports with a
//!   host-speed-normalized p99 gate, backing the `nmcache benchdiff`
//!   subcommand and its CI job.
//!
//! All timing goes through `nm_telemetry::Stopwatch` (rule D3) and all
//! parallelism through `nm_sweep::ParallelSweep` (rule D5); every
//! telemetry name this crate records is declared in [`names`] and
//! mirrored in the workspace manifest (rule D6).

pub mod benchdiff;
pub mod mix;
pub mod names;
pub mod run;

pub use benchdiff::{diff, DiffError, DiffReport, DEFAULT_MAX_RATIO};
pub use mix::{Query, QueryClass, QueryMix};
pub use run::{run, LoadgenConfig, LoadgenSummary, Mode};
