//! Telemetry names emitted by the evaluation engine.
//!
//! Every fixed metric name this crate records lives here as a `pub
//! const`, and each one must also appear in the workspace-root
//! `telemetry_names.txt` manifest — the D6 static-analysis rule
//! (`nmcache analyze`) checks both directions, so a typo'd literal can
//! never silently fork a time series. The per-technology counters
//! (`device.tech.<name>`) are derived from profile names at runtime and
//! are exempt by design.

/// Span: one `try_ensure_surfaces` bulk build.
pub const EVAL_ENSURE_SURFACES: &str = "eval.ensure_surfaces";
/// Span: one memoized front lookup or build (inside `try_front` and
/// `try_solve`).
pub const EVAL_FRONT: &str = "eval.front";
/// Span: one `try_solve` constrained query.
pub const EVAL_SOLVE: &str = "eval.solve";
/// Counter: memoized surface lookups served from the cache.
pub const EVAL_SURFACE_HIT: &str = "eval.surface_hit";
/// Counter: component surfaces computed and installed.
pub const EVAL_SURFACE_BUILT: &str = "eval.surface_built";
/// Counter: surfaces rejected by validation before install.
pub const EVAL_SURFACE_REJECTED: &str = "eval.surface_rejected";
/// Histogram: seconds spent building one component surface.
pub const EVAL_SURFACE_BUILD_SECONDS: &str = "eval.surface_build_seconds";
/// Counter: knob points stored across installed SoA surfaces.
pub const SURFACE_SOA_POINTS: &str = "surface.soa.points";
/// Counter: memoized fronts served from the cache.
pub const EVAL_FRONT_HIT: &str = "eval.front_hit";
/// Counter: system fronts merged and memoized.
pub const EVAL_FRONT_BUILT: &str = "eval.front_built";
/// Counter: merge layers reused from a shared group prefix.
pub const FRONT_MERGE_INCREMENTAL: &str = "front.merge.incremental";
/// Counter: heap pops spent merging the layers that were not reused.
pub const FRONT_MERGE_HEAP_POPS: &str = "front.merge.heap_pops";
/// Counter: front points resolved from merge bases — one per solve, a
/// whole front per `try_front`.
pub const FRONT_POINTS_RESOLVED: &str = "front.points_resolved";
/// Counter: hierarchy levels across freshly built fronts.
pub const EVAL_LEVELS: &str = "eval.levels";
/// Counter: cells in the campaign's cross product.
pub const CAMPAIGN_CELLS_TOTAL: &str = "campaign.cells_total";
/// Counter: campaign cells priced to a table row.
pub const CAMPAIGN_CELLS_COMPUTED: &str = "campaign.cells_computed";
/// Counter: campaign cells whose computation failed (left out of the
/// table; the campaign continued).
pub const CAMPAIGN_CELLS_FAILED: &str = "campaign.cells_failed";
/// Histogram: seconds spent computing one campaign cell (success or
/// failure), the per-cell tail-latency companion to the totals above.
pub const CAMPAIGN_CELL_LATENCY: &str = "campaign.cell.latency";
