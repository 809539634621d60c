//! Monotonic timing, centralized.
//!
//! Reading a wall clock inside a result-producing crate is a
//! determinism hazard: it invites time-dependent control flow and it
//! scatters `Instant::now()` call sites that the D3 static-analysis
//! rule (`nm-analyze`) would have to audit one by one. Instead, every
//! crate that needs to *measure* something — the sweep executor's wall
//! and per-item timings, the evaluator's surface-build histogram — goes
//! through this [`Stopwatch`], so the only crate that touches
//! `std::time` clocks is `nm-telemetry` itself.
//!
//! A `Stopwatch` is always live (it does not check the registry gate):
//! callers that feed durations into their own data structures need real
//! readings whether or not telemetry records. The [`observe`](Stopwatch::observe) convenience
//! *is* gated, like every other registry entry point.

use std::time::{Duration, Instant};

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in seconds, for histogram observations.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records the elapsed time into the named histogram (no-op while
    /// telemetry is disabled).
    pub fn observe(&self, name: &str) {
        crate::observe_seconds(name, self.elapsed_seconds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_monotonically() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        std::thread::sleep(Duration::from_millis(1));
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_seconds() > 0.0);
    }
}
