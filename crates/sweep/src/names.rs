//! Telemetry names emitted by the sweep executor.
//!
//! Every fixed metric name this crate records lives here as a `pub
//! const`, and each one must also appear in the workspace-root
//! `telemetry_names.txt` manifest — the D6 static-analysis rule
//! (`nmcache analyze`) checks both directions, so a typo'd literal can
//! never silently fork a time series. Per-sweep dynamic names
//! (`sweep.<label>`, `sweep.item.<label>`) are derived from user labels
//! and are exempt by design.

/// Counter: total work items submitted across all sweeps.
pub const ITEMS: &str = "sweep.items";
/// Counter: items that panicked (contained by `try_map`, re-raised by
/// `map`).
pub const FAULTS: &str = "sweep.faults";
/// Counter: sweeps opened inside a sweep worker that asked for more than
/// one worker and drained inline on that worker instead.
pub const NESTED_INLINE: &str = "sweep.nested_inline";
