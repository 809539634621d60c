//! Mix replay: prime, fire, tally.
//!
//! The runner drives one shared in-process [`Evaluator`] with a
//! synthesized [`QueryMix`] through the bounded [`ParallelSweep`] pool
//! and records per-class latency histograms plus throughput gauges into
//! the live telemetry registry (the caller arms, drains and publishes
//! the registry — typically as `BENCH_serve.json`).
//!
//! Counter determinism: for a fixed `(seed, query count, thread count)`
//! every counter in the drained snapshot is identical across runs.
//! Shared-spec classes (warm / tuple / adversarial) all target one base
//! spec whose front is built *serially before* the parallel replay, so
//! cache hit/built counters cannot race; cold and mixed specs are unique
//! per query index, so each builds its own surfaces exactly once
//! regardless of interleaving.

use crate::mix::{Query, QueryMix};
use crate::names;
use nm_cache_core::eval::Evaluator;
use nm_cache_core::StudyError;
use nm_device::KnobGrid;
use nm_opt::objective::Deadline;
use nm_sweep::ParallelSweep;
use nm_telemetry::Stopwatch;
use std::time::Duration;

/// Replay discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fire every query as soon as a worker is free.
    Closed,
    /// Schedule query *i* to arrive at `i / rate` seconds; latency is
    /// measured from the scheduled arrival, so a backlog shows up as
    /// tail latency instead of being silently absorbed (no coordinated
    /// omission).
    Open {
        /// Target arrival rate, queries per second.
        rate_qps: f64,
    },
}

/// A load-generation run request.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Mix seed; fixes the class sequence and every spec.
    pub seed: u64,
    /// Number of queries to synthesize and replay.
    pub queries: usize,
    /// Closed- or open-loop replay.
    pub mode: Mode,
    /// Use the coarse knob grid (CI-sized work items).
    pub quick: bool,
}

/// What happened, in aggregate (details live in the registry).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenSummary {
    /// Queries replayed.
    pub queries: usize,
    /// Queries with a satisfiable constraint.
    pub feasible: u64,
    /// Queries whose constraint was infeasible.
    pub infeasible: u64,
    /// Queries that failed with an evaluation error.
    pub errors: u64,
    /// Wall-clock seconds for the parallel replay phase.
    pub wall_seconds: f64,
    /// Achieved throughput, queries per second.
    pub throughput_qps: f64,
    /// First evaluation error message, when any occurred.
    pub first_error: Option<String>,
}

enum Outcome {
    Feasible,
    Infeasible,
    Error(String),
}

/// Synthesizes the mix for `config`, primes shared state, replays the
/// queries through the bounded pool, and tallies results into the live
/// telemetry registry.
///
/// # Errors
///
/// Propagates mix-synthesis errors and evaluation failures from the
/// serial prime phase. Errors *during* replay are counted
/// (`loadgen.errors`), not propagated — one bad query must not sink a
/// load test.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenSummary, StudyError> {
    let grid = if config.quick {
        KnobGrid::coarse()
    } else {
        KnobGrid::paper()
    };
    let mix = QueryMix::synthesize(config.seed, config.queries, &grid)?;
    let eval = Evaluator::new(grid);

    nm_telemetry::set_note(names::LOADGEN_SEED, &config.seed.to_string());
    nm_telemetry::set_note(names::LOADGEN_MIX, &mix.composition());
    match config.mode {
        Mode::Closed => {
            nm_telemetry::set_note(names::LOADGEN_MODE, "closed");
            nm_telemetry::set_gauge(names::LOADGEN_TARGET_QPS, 0.0);
        }
        Mode::Open { rate_qps } => {
            nm_telemetry::set_note(names::LOADGEN_MODE, &format!("open@{rate_qps}"));
            nm_telemetry::set_gauge(names::LOADGEN_TARGET_QPS, rate_qps);
        }
    }
    nm_telemetry::set_gauge(names::SLO_MACHINE_SCALE, machine_scale_seconds());

    // Serial prime: build the shared base front (warm / adversarial
    // queries then always hit it, and tuple queries find its surfaces).
    eval.try_front(&mix.base_spec)?;

    let run_clock = Stopwatch::start();
    let outcomes: Vec<Outcome> = ParallelSweep::new()
        .labeled("loadgen")
        .map(&mix.queries, |q| {
            if let Mode::Open { rate_qps } = config.mode {
                let scheduled = q.index as f64 / rate_qps;
                let now = run_clock.elapsed_seconds();
                if scheduled > now {
                    std::thread::sleep(Duration::from_secs_f64(scheduled - now));
                }
            }
            let begin = run_clock.elapsed_seconds();
            let result = solve(&eval, &mix, q);
            let end = run_clock.elapsed_seconds();
            let latency = match config.mode {
                Mode::Open { rate_qps } => end - (q.index as f64 / rate_qps).min(begin),
                Mode::Closed => end - begin,
            };
            nm_telemetry::observe_seconds(q.class.latency_name(), latency);
            nm_telemetry::observe_seconds(names::LOADGEN_LATENCY_ALL, latency);
            result
        });
    let wall_seconds = run_clock.elapsed_seconds();

    // Serial tally: counters are incremented in submission order, never
    // from workers, so the counter section is interleaving-independent.
    let mut summary = LoadgenSummary {
        queries: outcomes.len(),
        feasible: 0,
        infeasible: 0,
        errors: 0,
        wall_seconds,
        throughput_qps: if wall_seconds > 0.0 {
            outcomes.len() as f64 / wall_seconds
        } else {
            0.0
        },
        first_error: None,
    };
    for (q, outcome) in mix.queries.iter().zip(&outcomes) {
        nm_telemetry::counter_inc(q.class.counter_name());
        match outcome {
            Outcome::Feasible => summary.feasible += 1,
            Outcome::Infeasible => summary.infeasible += 1,
            Outcome::Error(msg) => {
                summary.errors += 1;
                if summary.first_error.is_none() {
                    summary.first_error = Some(msg.clone());
                }
            }
        }
    }
    nm_telemetry::counter_add(names::LOADGEN_QUERIES, summary.queries as u64);
    nm_telemetry::counter_add(names::LOADGEN_FEASIBLE, summary.feasible);
    nm_telemetry::counter_add(names::LOADGEN_INFEASIBLE, summary.infeasible);
    nm_telemetry::counter_add(names::LOADGEN_ERRORS, summary.errors);
    nm_telemetry::set_gauge(names::LOADGEN_WALL_SECONDS, summary.wall_seconds);
    nm_telemetry::set_gauge(names::LOADGEN_THROUGHPUT_QPS, summary.throughput_qps);
    Ok(summary)
}

fn solve(eval: &Evaluator, mix: &QueryMix, q: &Query) -> Outcome {
    let result = if q.restricted {
        eval.try_solve_restricted(
            &q.spec,
            &[(&mix.restriction.vths, &mix.restriction.toxes)],
            &Deadline(q.budget),
        )
    } else {
        eval.try_solve(&q.spec, &Deadline(q.budget))
    };
    match result {
        Ok(Some(_)) => Outcome::Feasible,
        Ok(None) => Outcome::Infeasible,
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Times a fixed floating-point kernel with the telemetry stopwatch and
/// returns its wall seconds — an absolute host-speed probe. `benchdiff`
/// divides the candidate report's probe by the baseline's, cancelling
/// machine speed out of the p99 regression gate.
fn machine_scale_seconds() -> f64 {
    let clock = Stopwatch::start();
    let mut acc = 0.0f64;
    let mut x = 1.0f64;
    for _ in 0..2_000_000 {
        acc += x.sqrt();
        x += 1e-9;
    }
    std::hint::black_box(acc);
    clock.elapsed_seconds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The telemetry registry is process-global; serialize the tests
    /// that arm it.
    fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn quick_config(seed: u64, queries: usize) -> LoadgenConfig {
        LoadgenConfig {
            seed,
            queries,
            mode: Mode::Closed,
            quick: true,
        }
    }

    #[test]
    fn closed_loop_replay_accounts_for_every_query() {
        let _guard = registry_lock();
        nm_telemetry::reset();
        let summary = run(&quick_config(2005, 12)).expect("run");
        assert_eq!(summary.queries, 12);
        assert_eq!(
            summary.feasible + summary.infeasible + summary.errors,
            12,
            "{summary:?}"
        );
        assert_eq!(summary.errors, 0, "{:?}", summary.first_error);
        assert!(summary.wall_seconds >= 0.0);
    }

    #[test]
    fn counters_are_replay_deterministic() {
        let _guard = registry_lock();
        nm_telemetry::reset();
        nm_telemetry::enable();
        run(&quick_config(42, 16)).expect("first run");
        let first = nm_telemetry::drain().counters;
        nm_telemetry::enable();
        run(&quick_config(42, 16)).expect("second run");
        let second = nm_telemetry::drain().counters;
        nm_telemetry::disable();
        assert_eq!(first, second);
    }

    #[test]
    fn open_loop_mode_records_target_rate() {
        let _guard = registry_lock();
        nm_telemetry::reset();
        nm_telemetry::enable();
        let summary = run(&LoadgenConfig {
            seed: 3,
            queries: 6,
            mode: Mode::Open { rate_qps: 500.0 },
            quick: true,
        })
        .expect("run");
        let snap = nm_telemetry::drain();
        nm_telemetry::disable();
        assert_eq!(summary.queries, 6);
        assert!(snap
            .gauges
            .get(names::LOADGEN_TARGET_QPS)
            .is_some_and(|&g| g.total_cmp(&500.0).is_eq()));
        assert!(snap
            .notes
            .get(names::LOADGEN_MODE)
            .is_some_and(|m| m.starts_with("open@")));
    }
}
