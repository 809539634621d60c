//! The shared evaluation engine behind every study pipeline.
//!
//! Historically each study (Section 4 single-cache, Section 5 two-level,
//! the split-L1 extension, the Figure 2 memory system) wired its own
//! copy of the same pipeline: enumerate the knob grid per component
//! group, price candidates, merge to a system Pareto front, read the
//! optimum off it, and reconstruct knob assignments from the winning
//! choice vector. This module owns that pipeline once:
//!
//! * a [`HierarchySpec`] *describes* the problem — cache levels, their
//!   [`Scheme`](crate::groups::Scheme) grouping, delay weights and
//!   [`CostKind`](crate::groups::CostKind) pricing;
//! * any [`Constraint`] describes what
//!   "optimal" means (a [`Deadline`](nm_opt::objective::Deadline) for the
//!   iso-delay/iso-AMAT studies);
//! * the [`Evaluator`] runs the pipeline, **memoizing** component metric
//!   surfaces per `(circuit, component)` and Pareto fronts per spec, so
//!   each `(component, knob point)` is analysed exactly once no matter
//!   how many schemes, deadlines or tuple restrictions ride on it.
//!
//! Results are bit-identical to the direct pipeline: the circuit model is
//! pure, so cached metrics equal freshly computed ones, and the engine
//! routes pricing through the same `groups::candidate_from_metrics` path
//! with the same summation order as [`crate::groups::cache_groups`].

mod cache;
mod spec;

pub use spec::{HierarchySpec, LevelSpec};

use crate::groups::candidate_from_metrics;
use crate::StudyError;
use cache::MetricsCache;
use nm_device::{KnobGrid, KnobPoint, PrimsTable, TechnologyNode};
use nm_geometry::{
    CacheCircuit, CacheMetrics, ComponentId, ComponentKnobs, ComponentMetrics, ComponentSurface,
    COMPONENT_IDS,
};
use nm_opt::merge::{FrontPoint, MergeBase};
use nm_opt::objective::Constraint;
use nm_opt::{Candidate, Group};
use nm_sweep::ParallelSweep;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// A constrained optimum produced by [`Evaluator::try_solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Weighted system delay of the winning point (seconds).
    pub delay: f64,
    /// Total system cost of the winning point (watts or joules, per the
    /// spec's [`CostKind`](crate::groups::CostKind)s).
    pub cost: f64,
    /// The winning per-group knob choice, in spec group order.
    pub choice: Vec<KnobPoint>,
    /// The choice resolved to one [`ComponentKnobs`] per level, via the
    /// canonical [`HierarchySpec::try_knobs_from_choice`].
    pub knobs: Vec<ComponentKnobs>,
}

/// Memoization counters of one [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Component surfaces computed (grid-wide `analyze_component` passes).
    pub surfaces_built: usize,
    /// Surface requests served from the cache.
    pub surface_hits: usize,
    /// System Pareto fronts merged.
    pub fronts_built: usize,
    /// Front requests served from the cache.
    pub front_hits: usize,
    /// Front merges that reused at least one cached merge layer instead
    /// of folding every group from scratch.
    pub fronts_incremental: usize,
    /// Computed surfaces rejected by validation (never cached).
    pub surfaces_rejected: usize,
    /// Surfaces and fronts loaded from the persistent store instead of
    /// being recomputed.
    pub store_loaded: usize,
    /// Persisted payloads rejected (decode or validation failure) and
    /// recomputed.
    pub store_rejected: usize,
    /// Store read/write failures absorbed by the in-memory fallback.
    pub store_errors: usize,
}

/// One evaluator event. Each indexes the evaluator's counter array (read
/// back by [`Evaluator::stats`]) and names the registry counter it also
/// bumps, so every event is counted in exactly one place.
#[derive(Debug, Clone, Copy)]
enum Event {
    SurfaceBuilt,
    /// A `(circuit, component)` surface a spec needs found already
    /// cached (built, installed or loaded earlier).
    SurfaceHit,
    FrontBuilt,
    FrontHit,
    /// A merge that reused cached layers; its registry counter tallies
    /// the layers reused, not the merges.
    FrontIncremental,
    SurfaceRejected,
    StoreLoaded,
    StoreRejected,
    StoreError,
}

impl Event {
    const COUNT: usize = Event::StoreError as usize + 1;

    fn counter(self) -> &'static str {
        use crate::names;
        match self {
            Event::SurfaceBuilt => names::EVAL_SURFACE_BUILT,
            Event::SurfaceHit => names::EVAL_SURFACE_HIT,
            Event::FrontBuilt => names::EVAL_FRONT_BUILT,
            Event::FrontHit => names::EVAL_FRONT_HIT,
            Event::FrontIncremental => names::FRONT_MERGE_INCREMENTAL,
            Event::SurfaceRejected => names::EVAL_SURFACE_REJECTED,
            Event::StoreLoaded => names::EVAL_STORE_LOADED,
            Event::StoreRejected => names::EVAL_STORE_REJECTED,
            Event::StoreError => names::EVAL_STORE_ERRORS,
        }
    }
}

/// One memoized front: the spec it answers, the merged front served to
/// queries, and the merge base later specs extend incrementally. Fronts
/// loaded from the persistent store carry no base — they skipped the
/// merge, so there are no layers to extend (later specs simply merge
/// from scratch, which is bit-identical).
type FrontEntry = (HierarchySpec, Arc<Vec<FrontPoint>>, Option<Arc<MergeBase>>);

/// The front memo: entries bucketed under [`FrontMemo::bucket`], so a
/// lookup costs one `O(log n)` map probe plus one structural `==` per
/// spec in the bucket instead of one `==` per cached spec.
///
/// The bucket word only narrows the search; a hit is still confirmed
/// with `HierarchySpec`'s `==`. Since `a == b` implies
/// `bucket(a) == bucket(b)`, an equal spec is always found in its bucket
/// (no hit is lost), and a colliding word never serves another spec's
/// front.
#[derive(Default)]
struct FrontMemo(BTreeMap<u64, Vec<FrontEntry>>);

impl FrontMemo {
    /// The bucket word of a spec: its level count plus, per level, the
    /// cache size, block size, associativity, scheme and delay weight —
    /// all fields `HierarchySpec`'s `PartialEq` compares, so equal specs
    /// share a word. The weight enters as the bits of `weight + 0.0`,
    /// which maps `-0.0` to `0.0` (equal under `==`, distinct bit
    /// patterns). Fields left out (labels, technology node, cost kind)
    /// only make more specs share a bucket.
    ///
    /// Deliberately not [`persist::front_key`](crate::persist::front_key):
    /// that key formats every circuit and hashes every grid point, which
    /// costs more than the scan this memo replaced.
    fn bucket(spec: &HierarchySpec) -> u64 {
        // FxHash-style mixing: cheap, and only needs to spread the words.
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        spec.levels()
            .iter()
            .fold(spec.levels().len() as u64, |h, level| {
                let config = level.circuit().config();
                [
                    config.size_bytes(),
                    config.block_bytes(),
                    config.associativity(),
                    level.scheme() as u64,
                    (level.delay_weight() + 0.0).to_bits(),
                ]
                .into_iter()
                .fold(h, mix)
            })
    }

    /// The memoized front of `spec`, if any.
    fn get(&self, spec: &HierarchySpec) -> Option<Arc<Vec<FrontPoint>>> {
        self.0
            .get(&Self::bucket(spec))?
            .iter()
            .find(|(s, _, _)| s == spec)
            .map(|(_, front, _)| Arc::clone(front))
    }

    /// Memoizes `front` for `spec`; callers check [`get`](Self::get)
    /// first under the same write lock.
    fn insert(
        &mut self,
        spec: &HierarchySpec,
        front: Arc<Vec<FrontPoint>>,
        base: Option<MergeBase>,
    ) {
        self.0.entry(Self::bucket(spec)).or_default().push((
            spec.clone(),
            front,
            base.map(Arc::new),
        ));
    }

    /// Every memoized merge base, for incremental merges to extend.
    fn bases(&self) -> Vec<Arc<MergeBase>> {
        self.0
            .values()
            .flatten()
            .filter_map(|(_, _, base)| base.clone())
            .collect()
    }
}

/// The memoizing evaluation pipeline. One evaluator owns one knob grid;
/// every query against it shares the same metric-surface and front
/// caches.
pub struct Evaluator {
    grid: KnobGrid,
    points: Vec<KnobPoint>,
    cache: MetricsCache,
    prims: RwLock<Vec<(TechnologyNode, Arc<PrimsTable>)>>,
    fronts: RwLock<FrontMemo>,
    /// Optional write-through persistence tier under the memo caches.
    /// Content-addressed and strictly best-effort: a missing, corrupt
    /// or failing store degrades to recompute — never to an abort.
    store: Option<Arc<nm_store::Store>>,
    events: [AtomicUsize; Event::COUNT],
}

/// `true` when every value in a metric buffer is finite and
/// non-negative. Written as a branch-free accumulating scan so the
/// healthy case (all of them, outside fault injection) vectorizes over
/// the surface's contiguous buffers instead of branching per value.
fn buffer_ok(values: &[f64]) -> bool {
    let mut ok = true;
    for &v in values {
        ok &= v.is_finite() & (v >= 0.0);
    }
    ok
}

/// Checks every metric of a freshly computed surface before it may enter
/// the memo cache: delay, each leakage component, both dynamic energies
/// and area must be finite and non-negative. The paper's Eq.1/Eq.2
/// exponential fits can overflow to `inf`/NaN when driven outside their
/// characterized `Vth`/`Tox` region; a poisoned surface cached here would
/// corrupt every study that later shares it.
///
/// The healthy path is a flat scan over the surface's
/// structure-of-arrays buffers; only a failed scan falls back to the
/// point-major walk that names the first offending `(point, metric)` in
/// the same order the pre-SoA validator reported it.
fn validate_surface(
    circuit: &CacheCircuit,
    component: ComponentId,
    surface: &ComponentSurface,
) -> Result<(), StudyError> {
    let buffers: [&[f64]; 7] = [
        surface.delays(),
        surface.subthreshold_leakages(),
        surface.gate_leakages(),
        surface.junction_leakages(),
        surface.read_energies(),
        surface.write_energies(),
        surface.areas(),
    ];
    if buffers.iter().all(|b| buffer_ok(b)) {
        return Ok(());
    }
    for (p, m) in surface.iter() {
        let checks: [(&'static str, f64); 7] = [
            ("delay", m.delay.0),
            ("subthreshold leakage", m.leakage.subthreshold.0),
            ("gate leakage", m.leakage.gate.0),
            ("junction leakage", m.leakage.junction.0),
            ("read energy", m.read_energy.0),
            ("write energy", m.write_energy.0),
            ("area", m.area.0),
        ];
        for (metric, value) in checks {
            if !value.is_finite() || value < 0.0 {
                return Err(StudyError::InvalidSurface {
                    circuit: circuit.config().to_string(),
                    component,
                    vth: p.vth().0,
                    tox: p.tox().0,
                    metric,
                    value,
                });
            }
        }
    }
    unreachable!("buffer scan flagged a surface the point walk found healthy")
}

/// Logs a persistence-tier degradation to stderr when span logging is
/// on. Store failures are absorbed (counted + fallback), so this is the
/// only place they become visible interactively.
fn log_store_event(message: &str) {
    if nm_telemetry::log_level() != nm_telemetry::LogLevel::Off {
        eprintln!("nmcache: {message}");
    }
}

/// Swaps in a NaN-delay metric record when a [`Fault::Nan`]
/// (`nm_sweep::faultinject::Fault::Nan`) is armed for this
/// `eval-surfaces` job index — the injection point proving that
/// validation keeps poisoned surfaces out of the memo cache.
#[cfg(feature = "faultinject")]
fn poison_if_armed(surface: ComponentSurface, job_index: usize) -> ComponentSurface {
    if !nm_sweep::faultinject::take_nan(Some("eval-surfaces"), job_index) {
        return surface;
    }
    let points = surface.points().to_vec();
    let mut metrics = surface.metrics_vec();
    if let Some(m) = metrics.first_mut() {
        m.delay = nm_device::units::Seconds(f64::NAN);
    }
    ComponentSurface::from_parts(points, metrics)
}

impl Evaluator {
    /// Creates an evaluator over a knob grid with empty caches.
    pub fn new(grid: KnobGrid) -> Self {
        let points = grid.points().collect();
        Evaluator {
            grid,
            points,
            cache: MetricsCache::default(),
            prims: RwLock::new(Vec::new()),
            fronts: RwLock::new(FrontMemo::default()),
            store: None,
            events: Default::default(),
        }
    }

    /// Creates an evaluator backed by a persistent store: surfaces and
    /// fronts are looked up by content key before being computed, and
    /// fresh computations are written through. The store is strictly a
    /// cache tier below the in-memory memo caches — every load is
    /// re-validated before install, rejected or unreadable records fall
    /// back to recompute, and write failures are counted, not raised.
    pub fn with_store(grid: KnobGrid, store: Arc<nm_store::Store>) -> Self {
        let mut e = Evaluator::new(grid);
        e.store = Some(store);
        e
    }

    /// The persistent store backing this evaluator, if any.
    pub fn store(&self) -> Option<&Arc<nm_store::Store>> {
        self.store.as_ref()
    }

    /// The knob grid every surface and front is enumerated over.
    pub fn grid(&self) -> &KnobGrid {
        &self.grid
    }

    /// Memoization counters so far.
    pub fn stats(&self) -> EvalStats {
        let count = |event: Event| self.events[event as usize].load(Ordering::Relaxed);
        EvalStats {
            surfaces_built: count(Event::SurfaceBuilt),
            surface_hits: count(Event::SurfaceHit),
            fronts_built: count(Event::FrontBuilt),
            front_hits: count(Event::FrontHit),
            fronts_incremental: count(Event::FrontIncremental),
            surfaces_rejected: count(Event::SurfaceRejected),
            store_loaded: count(Event::StoreLoaded),
            store_rejected: count(Event::StoreRejected),
            store_errors: count(Event::StoreError),
        }
    }

    /// Counts one `event` and adds `amount` to its registry counter
    /// (1 for every event but [`Event::FrontIncremental`]).
    fn record(&self, event: Event, amount: u64) {
        self.events[event as usize].fetch_add(1, Ordering::Relaxed);
        nm_telemetry::counter_add(event.counter(), amount);
    }

    /// Tries to satisfy one missing surface job from the persistent
    /// store. A loaded surface passes the same validation gate as a
    /// computed one before it may enter the memo cache; any failure —
    /// read error, decode error, validation reject — degrades to
    /// recompute and is counted.
    fn surface_from_store(&self, circuit: &CacheCircuit, id: ComponentId) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let key = crate::persist::surface_key(circuit, id, &self.points);
        let bytes = match store.get(key) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return false,
            Err(e) => {
                self.record(Event::StoreError, 1);
                log_store_event(&format!("store read failed, recomputing: {e}"));
                return false;
            }
        };
        let surface = match crate::persist::decode_surface(&bytes) {
            Ok(surface) => surface,
            Err(e) => {
                self.record(Event::StoreRejected, 1);
                log_store_event(&format!("persisted surface rejected, recomputing: {e}"));
                return false;
            }
        };
        if surface.points() != self.points.as_slice()
            || validate_surface(circuit, id, &surface).is_err()
        {
            self.record(Event::StoreRejected, 1);
            return false;
        }
        // Loaded, not computed: `surfaces_built` keeps meaning "circuit
        // model passes actually run".
        self.cache.install(circuit, id, surface);
        self.record(Event::StoreLoaded, 1);
        true
    }

    /// Tries to satisfy a front query from the persistent store. A
    /// loaded front is sanity-checked against the spec before it is
    /// installed: every choice has one entry per group, every metric is
    /// finite, and delay strictly ascends while cost strictly descends
    /// (the order every merged front has and the binary-search selects
    /// rely on). It carries no merge base, so later specs extending it
    /// fold every group anew (bit-identical).
    fn front_from_store(&self, spec: &HierarchySpec) -> Option<Arc<Vec<FrontPoint>>> {
        self.store.as_ref()?;
        let key = crate::persist::front_key(spec, &self.points);
        let bytes = match self.store.as_ref()?.get(key) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return None,
            Err(e) => {
                self.record(Event::StoreError, 1);
                log_store_event(&format!("store read failed, recomputing: {e}"));
                return None;
            }
        };
        let front = match crate::persist::decode_front(&bytes) {
            Ok(front) => front,
            Err(e) => {
                self.record(Event::StoreRejected, 1);
                log_store_event(&format!("persisted front rejected, recomputing: {e}"));
                return None;
            }
        };
        let groups = spec.group_count();
        let fault = if !front
            .iter()
            .all(|p| p.choice.len() == groups && p.delay.is_finite() && p.cost.is_finite())
        {
            Some("shape mismatch")
        } else if !front
            .windows(2)
            .all(|w| w[0].delay < w[1].delay && w[0].cost > w[1].cost)
        {
            Some("delay must strictly ascend and cost strictly descend")
        } else {
            None
        };
        if let Some(fault) = fault {
            self.record(Event::StoreRejected, 1);
            log_store_event(&format!("persisted front rejected, recomputing: {fault}"));
            return None;
        }
        let front = Arc::new(front);
        let mut fronts = self
            .fronts
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(existing) = fronts.get(spec) {
            return Some(existing);
        }
        fronts.insert(spec, Arc::clone(&front), None);
        self.record(Event::StoreLoaded, 1);
        Some(front)
    }

    /// Best-effort write-through of a payload already installed in the
    /// memo caches. Failures are counted and noted, never raised.
    fn store_put(&self, key: u128, payload: &[u8]) {
        let Some(store) = &self.store else { return };
        if let Err(e) = store.put(key, payload) {
            self.record(Event::StoreError, 1);
            log_store_event(&format!("store write failed, continuing in memory: {e}"));
        }
    }

    /// The hoisted-primitives table for `tech` over this evaluator's
    /// grid, built on first request and cached for the evaluator's
    /// lifetime. The table depends only on `(tech, points)` — both fixed
    /// per evaluator — so rebuilding it per `ensure_surfaces` call was
    /// pure cold-path overhead.
    fn prims_table(&self, tech: &TechnologyNode) -> Arc<PrimsTable> {
        if let Some(table) = self
            .prims
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .find(|(t, _)| t == tech)
            .map(|(_, table)| Arc::clone(table))
        {
            return table;
        }
        let table = Arc::new(PrimsTable::new(tech, &self.points));
        let mut cached = self
            .prims
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A racing builder may have won; keep the installed one so every
        // caller shares a single allocation per node.
        if let Some(existing) = cached.iter().find(|(t, _)| t == tech) {
            return Arc::clone(&existing.1);
        }
        cached.push((tech.clone(), Arc::clone(&table)));
        table
    }

    /// Builds every not-yet-cached component surface a spec needs, fanning
    /// the builds out through one bounded [`ParallelSweep`] with per-item
    /// panic containment, and validates each one *before* it is
    /// installed, so a failed or poisoned computation never enters the
    /// memo cache.
    ///
    /// Calling this before spawning parallel per-query jobs (the Figure 2
    /// tuple sweep) pre-warms the cache so the jobs never start nested
    /// sweeps; it is also called internally by
    /// [`try_groups`](Self::try_groups), where an all-cached spec skips
    /// the sweep entirely.
    ///
    /// Every healthy surface is still installed even when some jobs fail
    /// (partial progress is kept); the first failure, in job order, is
    /// returned as [`StudyError::WorkerPanic`] (contained panic) or
    /// [`StudyError::InvalidSurface`] (NaN/Inf/negative metric, also
    /// counted in [`EvalStats::surfaces_rejected`]).
    ///
    /// # Errors
    ///
    /// The first failed or rejected surface build, in job order.
    pub fn try_ensure_surfaces(&self, spec: &HierarchySpec) -> Result<(), StudyError> {
        let _span = nm_telemetry::span(crate::names::EVAL_ENSURE_SURFACES);
        let mut jobs: Vec<(CacheCircuit, ComponentId)> = Vec::new();
        for level in spec.levels() {
            for id in COMPONENT_IDS {
                if self.cache.peek(level.circuit(), id).is_some() {
                    self.record(Event::SurfaceHit, 1);
                } else if !jobs.iter().any(|(c, i)| *i == id && c == level.circuit()) {
                    jobs.push((level.circuit().clone(), id));
                }
            }
        }
        // Persistence tier: satisfy what the store already holds before
        // spending compute. Loads are re-validated inside; any failure
        // leaves the job in place for the sweep below.
        if self.store.is_some() {
            jobs.retain(|(circuit, id)| !self.surface_from_store(circuit, *id));
        }
        if jobs.is_empty() {
            return Ok(());
        }
        // One hoisted-primitives table per distinct technology node,
        // resolved up front (and cached for the evaluator's lifetime) so
        // every component surface of the same node shares it. Jobs keep
        // their per-(circuit, component) granularity and submission
        // order — fault-injection indices and `WorkerPanic` indices stay
        // stable.
        let mut tables: Vec<(TechnologyNode, Arc<PrimsTable>)> = Vec::new();
        for (circuit, _) in &jobs {
            if !tables.iter().any(|(t, _)| t == circuit.tech()) {
                tables.push((circuit.tech().clone(), self.prims_table(circuit.tech())));
            }
        }
        #[allow(clippy::expect_used)]
        // fingerprinted in analyze.allow: table built in the loop above
        let table_for = |circuit: &CacheCircuit| -> &PrimsTable {
            tables
                .iter()
                .find(|(t, _)| t == circuit.tech())
                .map(|(_, prims)| prims.as_ref())
                .expect("every job's technology node has a precomputed table")
        };
        let out = ParallelSweep::new()
            .labeled("eval-surfaces")
            .try_map(&jobs, |(circuit, id)| {
                let prims = table_for(circuit);
                if nm_telemetry::enabled() {
                    let t0 = nm_telemetry::Stopwatch::start();
                    let surface = circuit.component_surface_with(*id, &self.points, prims);
                    t0.observe(crate::names::EVAL_SURFACE_BUILD_SECONDS);
                    surface
                } else {
                    circuit.component_surface_with(*id, &self.points, prims)
                }
            });

        let mut first_error: Option<StudyError> = None;
        for (job_index, ((circuit, id), outcome)) in jobs.iter().zip(out).enumerate() {
            match outcome {
                Ok(surface) => {
                    #[cfg(feature = "faultinject")]
                    let surface = poison_if_armed(surface, job_index);
                    #[cfg(not(feature = "faultinject"))]
                    let _ = job_index;
                    match validate_surface(circuit, *id, &surface) {
                        Ok(()) => {
                            nm_telemetry::counter_add(
                                crate::names::SURFACE_SOA_POINTS,
                                surface.len() as u64,
                            );
                            if self.store.is_some() {
                                self.store_put(
                                    crate::persist::surface_key(circuit, *id, &self.points),
                                    &crate::persist::encode_surface(&surface),
                                );
                            }
                            if self.cache.install(circuit, *id, surface) {
                                self.record(Event::SurfaceBuilt, 1);
                            }
                        }
                        Err(e) => {
                            self.record(Event::SurfaceRejected, 1);
                            first_error.get_or_insert(e);
                        }
                    }
                }
                Err(fault) => {
                    first_error.get_or_insert(StudyError::WorkerPanic {
                        label: "eval-surfaces".to_owned(),
                        index: fault.index,
                        message: fault.message,
                    });
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The optimiser groups of a spec — bit-identical to concatenating
    /// [`cache_groups`](crate::groups::cache_groups) per level, but the
    /// metric surfaces behind the candidates are memoized.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_groups(&self, spec: &HierarchySpec) -> Result<Vec<Group>, StudyError> {
        self.try_ensure_surfaces(spec)?;
        Ok(spec
            .levels()
            .iter()
            .flat_map(|level| self.level_groups(level))
            .collect())
    }

    fn level_groups(&self, level: &LevelSpec) -> Vec<Group> {
        // `try_ensure_surfaces` filled every slot; the direct build is its
        // bit-identical stand-in and never runs after a successful ensure.
        let surfaces: [Arc<ComponentSurface>; 4] = COMPONENT_IDS.map(|id| {
            self.cache
                .peek(level.circuit(), id)
                .unwrap_or_else(|| Arc::new(level.circuit().component_surface(id, &self.points)))
        });
        // Materialize each surface's point-major metric column once per
        // level, so pricing reads the exact per-point records the pre-SoA
        // layout stored and `candidate_from_metrics` sums them in the
        // identical order.
        let columns: [Vec<ComponentMetrics>; 4] =
            COMPONENT_IDS.map(|id| surfaces[id.index()].metrics_vec());
        level
            .scheme()
            .layout()
            .iter()
            .map(|(ids, suffix)| {
                let candidates: Vec<Candidate> = self
                    .points
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        candidate_from_metrics(
                            ids.iter().map(|id| &columns[id.index()][i]),
                            p,
                            level.delay_weight(),
                            level.cost(),
                        )
                    })
                    .collect();
                // Non-SRAM levels carry the technology in the group name so
                // diagnostics distinguish, say, an eDRAM L3 from an SRAM
                // one of the same shape (identity profiles keep the
                // original names, and merge reuse compares candidates, not
                // names).
                let name = if level.technology().is_identity() {
                    format!("{}:{suffix}", level.circuit().config())
                } else {
                    format!(
                        "{}[{}]:{suffix}",
                        level.circuit().config(),
                        level.technology().name
                    )
                };
                Group::new(name, candidates)
            })
            .collect()
    }

    /// The system Pareto front of a spec, memoized per spec. A failed
    /// build memoizes nothing — neither the rejected surface nor the
    /// front — so a later retry starts from a clean cache.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_front(&self, spec: &HierarchySpec) -> Result<Arc<Vec<FrontPoint>>, StudyError> {
        let _span = nm_telemetry::span(crate::names::EVAL_FRONT);
        if let Some(front) = self.cached_front(spec) {
            self.record(Event::FrontHit, 1);
            return Ok(front);
        }
        if let Some(front) = self.front_from_store(spec) {
            return Ok(front);
        }
        let groups = self.try_groups(spec)?;
        // Offer every cached spec's merge base: a spec sharing a group
        // prefix (same circuits, weights and costs on its leading levels)
        // re-merges only the layers past the shared prefix.
        let bases = self
            .fronts
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .bases();
        let (base, reused) = MergeBase::try_new_with_bases(&groups, bases.iter().map(Arc::as_ref))?;
        self.record_merge(&base, reused);
        let front = Arc::new(base.front());
        let mut fronts = self
            .fronts
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Keep the first-stored front if another thread raced us there —
        // both are bit-identical, but callers may compare Arc pointers.
        if let Some(existing) = fronts.get(spec) {
            return Ok(existing);
        }
        if self.store.is_some() {
            self.store_put(
                crate::persist::front_key(spec, &self.points),
                &crate::persist::encode_front(&front),
            );
        }
        fronts.insert(spec, Arc::clone(&front), Some(base));
        self.record(Event::FrontBuilt, 1);
        // Hierarchy shape of this run, for `--metrics` reports: depth per
        // freshly-built front plus the per-level technology mix.
        if nm_telemetry::enabled() {
            nm_telemetry::counter_add(crate::names::EVAL_LEVELS, spec.levels().len() as u64);
            for level in spec.levels() {
                nm_telemetry::counter_inc(&format!("device.tech.{}", level.technology().name));
            }
        }
        Ok(front)
    }

    /// Tallies one merge: the layers it reused from a cached base and the
    /// heap pops it spent on the rest.
    fn record_merge(&self, base: &MergeBase, reused: usize) {
        if reused > 0 {
            self.record(Event::FrontIncremental, reused as u64);
        }
        if base.heap_pops() > 0 {
            nm_telemetry::counter_add(crate::names::FRONT_MERGE_HEAP_POPS, base.heap_pops());
        }
    }

    fn cached_front(&self, spec: &HierarchySpec) -> Option<Arc<Vec<FrontPoint>>> {
        self.fronts
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(spec)
    }

    /// Reads a constrained optimum off the spec's (memoized) front:
    /// `Ok(None)` means the constraint is infeasible; `Err` means
    /// evaluation itself failed.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_solve<C: Constraint>(
        &self,
        spec: &HierarchySpec,
        constraint: &C,
    ) -> Result<Option<Solution>, StudyError> {
        let _span = nm_telemetry::span(crate::names::EVAL_SOLVE);
        let front = self.try_front(spec)?;
        constraint
            .select(&front)
            .map(|point| self.try_solution(spec, point))
            .transpose()
    }

    /// [`try_solve`](Self::try_solve) over a family of knob restrictions:
    /// for each `(vths, toxes)` value set, every group keeps only the
    /// candidates whose knobs are drawn from those values (the
    /// single-knob ablation passes one set, the Figure 2 tuple search
    /// every combination). Returns the cheapest feasible optimum over
    /// the family, the first set winning a tie. A set that empties a
    /// group is skipped; `Ok(None)` means no set is feasible, `Err` that
    /// evaluation itself failed.
    ///
    /// The spec is priced once per call. Restricted fronts are not
    /// memoized — value-set families are exponentially large — but the
    /// metric surfaces they re-price are.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces),
    /// or [`StudyError::EmptySystem`] when a set is merged over a spec
    /// without groups.
    pub fn try_solve_restricted<C: Constraint>(
        &self,
        spec: &HierarchySpec,
        value_sets: &[(&[f64], &[f64])],
        constraint: &C,
    ) -> Result<Option<Solution>, StudyError> {
        let groups = self.try_groups(spec)?;
        let mut best: Option<FrontPoint> = None;
        for &(vths, toxes) in value_sets {
            let restricted: Option<Vec<Group>> =
                groups.iter().map(|g| g.restricted(vths, toxes)).collect();
            let Some(restricted) = restricted else {
                continue;
            };
            let base = MergeBase::try_new(&restricted)?;
            self.record_merge(&base, 0);
            let front = base.front();
            if let Some(point) = constraint.select(&front) {
                if best.as_ref().is_none_or(|b| point.cost < b.cost) {
                    best = Some(point.clone());
                }
            }
        }
        best.map(|point| self.try_solution(spec, &point))
            .transpose()
    }

    fn try_solution(
        &self,
        spec: &HierarchySpec,
        point: &FrontPoint,
    ) -> Result<Solution, StudyError> {
        Ok(Solution {
            delay: point.delay,
            cost: point.cost,
            choice: point.choice.clone(),
            knobs: spec.try_knobs_from_choice(&point.choice)?,
        })
    }

    /// Analyses a whole cache under an assignment, reading per-component
    /// metrics from already-built surfaces where the knob pair is on the
    /// grid and falling back to direct analysis where it is not. Both
    /// paths are bit-identical — the circuit model is pure.
    pub fn analyze(&self, circuit: &CacheCircuit, knobs: &ComponentKnobs) -> CacheMetrics {
        let per_component = COMPONENT_IDS.map(|id| {
            let p = knobs.get(id);
            self.cache
                .peek(circuit, id)
                .and_then(|s| s.lookup(p))
                .unwrap_or_else(|| circuit.analyze_component(id, p))
        });
        CacheMetrics::from_components(per_component)
    }
}

impl Clone for Evaluator {
    /// A fresh evaluator over the same grid; memoized state is not
    /// carried over (it regrows on first use). The persistence tier is
    /// shared — it is content-addressed, so sharing is always safe.
    fn clone(&self) -> Self {
        let mut e = Evaluator::new(self.grid.clone());
        e.store = self.store.clone();
        e
    }
}

impl fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("grid", &self.grid)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{cache_groups, CostKind, Scheme};
    use nm_device::TechnologyNode;
    use nm_geometry::CacheConfig;
    use nm_opt::constraint::best_under_deadline;
    use nm_opt::merge::try_system_front;
    use nm_opt::objective::Deadline;

    fn circuit(bytes: u64) -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), &tech)
    }

    fn eval() -> Evaluator {
        Evaluator::new(KnobGrid::coarse())
    }

    #[test]
    fn groups_match_direct_cache_groups_exactly() {
        let e = eval();
        let c = circuit(16 * 1024);
        for scheme in Scheme::ALL {
            let spec = HierarchySpec::single(c.clone(), scheme, 1.0, CostKind::LeakagePower);
            let direct = cache_groups(&c, scheme, e.grid(), 1.0, CostKind::LeakagePower);
            assert_eq!(
                e.try_groups(&spec).expect("healthy build"),
                direct,
                "{scheme}"
            );
        }
        // All three schemes priced the same four surfaces: 4 builds.
        assert_eq!(e.stats().surfaces_built, 4);
    }

    #[test]
    fn front_is_memoized_per_spec() {
        let e = eval();
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        );
        let a = e.try_front(&spec).expect("healthy build");
        let b = e.try_front(&spec).expect("healthy build");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(e.stats().fronts_built, 1);
        assert_eq!(e.stats().front_hits, 1);
        // A different weight is a different spec.
        let other = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            0.5,
            CostKind::LeakagePower,
        );
        let c = e.try_front(&other).expect("healthy build");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(e.stats().fronts_built, 2);
    }

    #[test]
    fn solve_matches_manual_pipeline() {
        let e = eval();
        let c = circuit(16 * 1024);
        let spec = HierarchySpec::single(c.clone(), Scheme::Split, 1.0, CostKind::LeakagePower);
        let front = try_system_front(&cache_groups(
            &c,
            Scheme::Split,
            e.grid(),
            1.0,
            CostKind::LeakagePower,
        ))
        .expect("non-empty system");
        let deadline = front.last().expect("non-empty front").delay;
        let manual = best_under_deadline(&front, deadline).expect("feasible");
        let sol = e
            .try_solve(&spec, &Deadline(deadline))
            .expect("healthy build")
            .expect("feasible");
        assert_eq!(sol.delay, manual.delay);
        assert_eq!(sol.cost, manual.cost);
        assert_eq!(sol.choice, manual.choice);
        assert_eq!(sol.knobs.len(), 1);
        // Infeasible deadline: None.
        assert!(e
            .try_solve(&spec, &Deadline(front[0].delay * 0.5))
            .expect("healthy build")
            .is_none());
    }

    #[test]
    fn ensure_surfaces_prewarms_and_is_idempotent() {
        let e = eval();
        let spec = HierarchySpec::new()
            .level(
                "L1",
                circuit(16 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                circuit(64 * 1024),
                Scheme::Split,
                0.05,
                CostKind::LeakagePower,
            );
        e.try_ensure_surfaces(&spec).expect("healthy build");
        assert_eq!(e.stats().surfaces_built, 8);
        e.try_ensure_surfaces(&spec).expect("healthy build");
        assert_eq!(e.stats().surfaces_built, 8);
        // Repeated levels of the same circuit build only once.
        let dup = HierarchySpec::new()
            .level(
                "a",
                circuit(32 * 1024),
                Scheme::Uniform,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "b",
                circuit(32 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            );
        e.try_ensure_surfaces(&dup).expect("healthy build");
        assert_eq!(e.stats().surfaces_built, 12);
    }

    #[test]
    fn second_spec_over_the_same_circuit_hits_its_surfaces() {
        let e = eval();
        let c = circuit(16 * 1024);
        let spec = |scheme| HierarchySpec::single(c.clone(), scheme, 1.0, CostKind::LeakagePower);
        e.try_front(&spec(Scheme::Uniform)).expect("healthy build");
        assert_eq!((e.stats().surfaces_built, e.stats().surface_hits), (4, 0));
        e.try_front(&spec(Scheme::Split)).expect("healthy build");
        assert_eq!((e.stats().surfaces_built, e.stats().surface_hits), (4, 4));
    }

    #[test]
    fn analyze_agrees_with_direct_analysis() {
        let e = eval();
        let c = circuit(16 * 1024);
        // Off-grid (cache cold): pure fallback.
        let knobs = ComponentKnobs::default();
        assert_eq!(e.analyze(&c, &knobs), c.analyze(&knobs));
        // On-grid after warming: served from surfaces, still identical.
        let spec = HierarchySpec::single(c.clone(), Scheme::Uniform, 1.0, CostKind::LeakagePower);
        e.try_ensure_surfaces(&spec).expect("healthy build");
        let p = e.grid().snap(KnobPoint::nominal());
        let on_grid = ComponentKnobs::uniform(p);
        assert_eq!(e.analyze(&c, &on_grid), c.analyze(&on_grid));
    }

    #[test]
    fn try_solve_matches_a_select_on_the_front() {
        let e = eval();
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        );
        let front = e.try_front(&spec).expect("healthy build");
        let deadline = Deadline(front.last().expect("non-empty front").delay);
        let via_try = e
            .try_solve(&spec, &deadline)
            .expect("healthy build")
            .expect("feasible");
        let point = deadline.select(&front).expect("feasible");
        let via_select = Solution {
            delay: point.delay,
            cost: point.cost,
            choice: point.choice.clone(),
            knobs: spec
                .try_knobs_from_choice(&point.choice)
                .expect("choice fits the spec"),
        };
        assert_eq!(via_try, via_select);
        // Infeasible is Ok(None), not Err.
        let infeasible = e.try_solve(&spec, &Deadline(front[0].delay * 0.5));
        assert_eq!(infeasible, Ok(None));
        assert_eq!(e.stats().surfaces_rejected, 0);
    }

    #[test]
    fn healthy_surfaces_pass_validation() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        for id in COMPONENT_IDS {
            let s = c.component_surface(id, &points);
            assert_eq!(validate_surface(&c, id, &s), Ok(()), "{id}");
        }
    }

    #[test]
    fn validation_rejects_nan_with_the_offending_coordinate() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        let healthy = c.component_surface(ComponentId::Decoder, &points);
        let mut metrics = healthy.metrics_vec();
        metrics[2].delay = nm_device::units::Seconds(f64::NAN);
        let poisoned = ComponentSurface::from_parts(healthy.points().to_vec(), metrics);
        let err = validate_surface(&c, ComponentId::Decoder, &poisoned)
            .expect_err("NaN delay must be rejected");
        match err {
            StudyError::InvalidSurface {
                component,
                vth,
                tox,
                metric,
                value,
                ..
            } => {
                assert_eq!(component, ComponentId::Decoder);
                assert_eq!(metric, "delay");
                assert!(value.is_nan());
                assert_eq!(vth, points[2].vth().0);
                assert_eq!(tox, points[2].tox().0);
            }
            other => panic!("wrong error class: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_negative_leakage_and_infinite_energy() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        let healthy = c.component_surface(ComponentId::DataBus, &points);

        let mut negative = healthy.metrics_vec();
        negative[0].leakage.gate = nm_device::units::Watts(-1e-6);
        let s = ComponentSurface::from_parts(healthy.points().to_vec(), negative);
        let err = validate_surface(&c, ComponentId::DataBus, &s).expect_err("negative leakage");
        assert!(matches!(
            err,
            StudyError::InvalidSurface {
                metric: "gate leakage",
                ..
            }
        ));

        let mut infinite = healthy.metrics_vec();
        infinite[1].read_energy = nm_device::units::Joules(f64::INFINITY);
        let s = ComponentSurface::from_parts(healthy.points().to_vec(), infinite);
        let err = validate_surface(&c, ComponentId::DataBus, &s).expect_err("infinite energy");
        assert!(matches!(
            err,
            StudyError::InvalidSurface {
                metric: "read energy",
                ..
            }
        ));
    }

    #[test]
    fn zero_level_spec_is_a_typed_error_not_a_panic() {
        let e = eval();
        let empty = HierarchySpec::new();
        assert_eq!(e.try_front(&empty).unwrap_err(), StudyError::EmptySystem);
        let err = e
            .try_solve(&empty, &Deadline(1.0))
            .expect_err("no groups to merge");
        assert_eq!(err, StudyError::EmptySystem);
        let err = e
            .try_solve_restricted(&empty, &[(&[0.3], &[12.0])], &Deadline(1.0))
            .expect_err("no groups to merge");
        assert_eq!(err, StudyError::EmptySystem);
        // Nothing was memoized for the failed spec.
        assert_eq!(e.stats().fronts_built, 0);
    }

    #[test]
    fn shared_prefix_specs_remerge_incrementally() {
        let e = eval();
        let l1 = circuit(16 * 1024);
        let full = HierarchySpec::new()
            .level("L1", l1.clone(), Scheme::Split, 1.0, CostKind::LeakagePower)
            .level(
                "L2",
                circuit(64 * 1024),
                Scheme::Split,
                0.05,
                CostKind::LeakagePower,
            );
        let _ = e.try_front(&full).expect("healthy build");
        assert_eq!(e.stats().fronts_incremental, 0);
        // Same L1 level, different L2: the L1 merge layers are reused and
        // the front still matches a from-scratch merge.
        let changed = HierarchySpec::new()
            .level("L1", l1, Scheme::Split, 1.0, CostKind::LeakagePower)
            .level(
                "L2",
                circuit(128 * 1024),
                Scheme::Split,
                0.05,
                CostKind::LeakagePower,
            );
        let incremental = e.try_front(&changed).expect("healthy build");
        assert_eq!(e.stats().fronts_incremental, 1);
        assert_eq!(
            *incremental,
            try_system_front(&e.try_groups(&changed).expect("healthy build"))
                .expect("non-empty system")
        );
    }

    /// A two-level spec whose L2 carries `weight`, built independently.
    fn two_level(l1_label: &str, tech: &TechnologyNode, weight: f64) -> HierarchySpec {
        let at = |bytes| CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), tech);
        HierarchySpec::new()
            .level(
                l1_label,
                at(16 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                at(64 * 1024),
                Scheme::Split,
                weight,
                CostKind::LeakagePower,
            )
    }

    #[test]
    fn equal_specs_built_apart_share_one_memo_entry() {
        let tech = TechnologyNode::bptm65();
        for (first, second) in [(0.05, 0.05), (0.0, -0.0)] {
            let e = eval();
            let a = two_level("L1", &tech, first);
            let b = two_level("L1", &tech, second);
            assert_eq!(a, b);
            assert_eq!(
                FrontMemo::bucket(&a),
                FrontMemo::bucket(&b),
                "{first} vs {second}"
            );
            let fa = e.try_front(&a).expect("healthy build");
            let fb = e.try_front(&b).expect("healthy build");
            assert!(Arc::ptr_eq(&fa, &fb), "{first} vs {second}");
            assert_eq!(e.stats().fronts_built, 1);
            assert_eq!(e.stats().front_hits, 1);
        }
    }

    #[test]
    fn specs_differing_outside_the_bucket_word_keep_their_own_fronts() {
        let cool = TechnologyNode::bptm65();
        let hot = cool.at_temperature(nm_device::units::Kelvin::from_celsius(110.0));
        let base = two_level("L1", &cool, 0.05);
        let relabelled = two_level("D$", &cool, 0.05);
        let heated = two_level("L1", &hot, 0.05);
        // All three collide on the bucket word but are distinct specs.
        for other in [&relabelled, &heated] {
            assert_eq!(FrontMemo::bucket(&base), FrontMemo::bucket(other));
            assert_ne!(&base, other);
        }
        let e = eval();
        let f_base = e.try_front(&base).expect("healthy build");
        let f_relabelled = e.try_front(&relabelled).expect("healthy build");
        let f_heated = e.try_front(&heated).expect("healthy build");
        assert_eq!(e.stats().fronts_built, 3);
        assert_eq!(e.stats().front_hits, 0);
        assert!(!Arc::ptr_eq(&f_base, &f_relabelled));
        assert!(!Arc::ptr_eq(&f_base, &f_heated));
        // Leakage rises with temperature, so the heated front differs.
        assert_ne!(*f_base, *f_heated);
        // Each spec then hits its own entry.
        assert!(Arc::ptr_eq(
            &e.try_front(&base).expect("healthy build"),
            &f_base
        ));
        assert!(Arc::ptr_eq(
            &e.try_front(&relabelled).expect("healthy build"),
            &f_relabelled
        ));
        assert!(Arc::ptr_eq(
            &e.try_front(&heated).expect("healthy build"),
            &f_heated
        ));
        assert_eq!(e.stats().fronts_built, 3);
        assert_eq!(e.stats().front_hits, 3);
    }

    #[test]
    fn clone_starts_cold() {
        let e = eval();
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Uniform,
            1.0,
            CostKind::LeakagePower,
        );
        let _ = e.try_front(&spec).expect("healthy build");
        let fresh = e.clone();
        assert_eq!(fresh.stats(), EvalStats::default());
        assert_eq!(fresh.grid().len(), e.grid().len());
    }
}
