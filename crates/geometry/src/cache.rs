//! Whole-cache composition: per-component metrics and their sums.
//!
//! Following the paper's Section 3, "we can approximate both the total
//! leakage and the delay of a cache system by summing up the leakage and
//! delay of each cache component", with each component's delay and leakage
//! depending **only on its own knob pair**. The component boundaries are
//! drawn so this independence holds exactly in the model:
//!
//! * the decoder's wordline driver sees a *fixed nominal* wordline load,
//! * the array's wordline propagation assumes a *fixed nominal* driver
//!   resistance,
//! * bus wire lengths come from a *fixed floorplan* sized at the nominal
//!   process corner (routing is planned once; cell-area growth with `Tox`
//!   is charged to the area metric, not re-routed per candidate).

use crate::array::ArrayPlan;
use crate::assignment::{ComponentId, ComponentKnobs, COMPONENT_IDS};
use crate::bus::BusPlan;
use crate::config::CacheConfig;
use crate::decoder::DecoderPlan;
use crate::sram::SramCell;
use nm_device::leakage::LeakageBreakdown;
use nm_device::units::{Joules, Seconds, SquareMicrons, Watts};
use nm_device::{HoistedPrims, KnobPoint, PrimsTable, TechProfile, TechnologyNode};
use std::fmt;
use std::sync::Arc;

/// Metrics of one cache component under one knob pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentMetrics {
    /// Contribution to the access-path delay.
    pub delay: Seconds,
    /// Standby leakage power.
    pub leakage: LeakageBreakdown,
    /// Dynamic energy this component dissipates per read access.
    pub read_energy: Joules,
    /// Dynamic energy per write access (full-rail bitline swing in the
    /// array; identical to a read elsewhere).
    pub write_energy: Joules,
    /// Transistor count.
    pub transistors: u64,
    /// Silicon area.
    pub area: SquareMicrons,
}

impl ComponentMetrics {
    /// A zero-valued metrics record.
    pub const ZERO: Self = ComponentMetrics {
        delay: Seconds(0.0),
        leakage: LeakageBreakdown::ZERO,
        read_energy: Joules(0.0),
        write_energy: Joules(0.0),
        transistors: 0,
        area: SquareMicrons(0.0),
    };
}

/// Full analysis of a cache under a component-knob assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheMetrics {
    per_component: [ComponentMetrics; 4],
}

impl CacheMetrics {
    /// Metrics of one component.
    pub fn component(&self, id: ComponentId) -> &ComponentMetrics {
        &self.per_component[id.index()]
    }

    /// Access time: the sum of the four component delays (the paper's
    /// additive delay model).
    pub fn access_time(&self) -> Seconds {
        self.per_component.iter().map(|m| m.delay).sum()
    }

    /// Total standby leakage across components.
    pub fn leakage(&self) -> LeakageBreakdown {
        self.per_component.iter().map(|m| m.leakage).sum()
    }

    /// Dynamic energy per read access.
    pub fn read_energy(&self) -> Joules {
        self.per_component.iter().map(|m| m.read_energy).sum()
    }

    /// Dynamic energy per write access.
    pub fn write_energy(&self) -> Joules {
        self.per_component.iter().map(|m| m.write_energy).sum()
    }

    /// Total transistor count.
    pub fn transistors(&self) -> u64 {
        self.per_component.iter().map(|m| m.transistors).sum()
    }

    /// Total silicon area.
    pub fn area(&self) -> SquareMicrons {
        self.per_component.iter().map(|m| m.area).sum()
    }
}

impl fmt::Display for CacheMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access {:.0} ps, leakage {:.3} mW, read {:.2} pJ, {:.3} mm²",
            self.access_time().picos(),
            self.leakage().total().milli(),
            self.read_energy().picos(),
            self.area().0 / 1e6
        )
    }
}

/// A cache organisation bound to a technology node, ready to be analysed
/// under any number of knob assignments.
///
/// Construction precomputes the physical organisation; [`analyze`] and the
/// per-component [`analyze_component`] are pure functions of the knob
/// assignment, which is what the optimisers exploit (the separable
/// delay-budget search evaluates single components thousands of times).
///
/// [`analyze`]: CacheCircuit::analyze
/// [`analyze_component`]: CacheCircuit::analyze_component
#[derive(Debug, Clone, PartialEq)]
pub struct CacheCircuit {
    config: CacheConfig,
    tech: TechnologyNode,
    cell: SramCell,
    org: crate::config::Organization,
    profile: TechProfile,
}

impl CacheCircuit {
    /// Binds a configuration to a technology node with the default 65 nm
    /// cell and the default subarray folding.
    pub fn new(config: CacheConfig, tech: &TechnologyNode) -> Self {
        CacheCircuit {
            config,
            tech: tech.clone(),
            cell: SramCell::default_65nm(),
            org: config.organization(),
            profile: TechProfile::sram(),
        }
    }

    /// Binds a configuration with a custom cell design.
    pub fn with_cell(config: CacheConfig, tech: &TechnologyNode, cell: SramCell) -> Self {
        CacheCircuit {
            config,
            tech: tech.clone(),
            cell,
            org: config.organization(),
            profile: TechProfile::sram(),
        }
    }

    /// Binds a configuration to a technology node under a non-SRAM cell
    /// technology: the periphery (decoder, buses) stays CMOS at `tech`,
    /// while the memory array's metrics are transformed by `profile`
    /// (energy/leakage/delay/area scaling plus refresh power). The SRAM
    /// identity profile reproduces [`new`](Self::new) exactly.
    pub fn with_technology(
        config: CacheConfig,
        tech: &TechnologyNode,
        profile: TechProfile,
    ) -> Self {
        CacheCircuit {
            config,
            tech: tech.clone(),
            cell: SramCell::default_65nm(),
            org: config.organization(),
            profile,
        }
    }

    /// Binds a configuration with an explicit subarray folding (see
    /// [`crate::explore`] for choosing one).
    ///
    /// # Panics
    ///
    /// Panics when the organisation does not tile this configuration's
    /// cells exactly — pass foldings produced by
    /// [`Organization::custom`](crate::config::Organization::custom).
    pub fn with_organization(
        config: CacheConfig,
        tech: &TechnologyNode,
        org: crate::config::Organization,
    ) -> Self {
        assert_eq!(
            org.rows * org.cols * org.subarrays,
            config.size_bytes() * 8,
            "organisation does not tile the configured capacity"
        );
        CacheCircuit {
            config,
            tech: tech.clone(),
            cell: SramCell::default_65nm(),
            org,
            profile: TechProfile::sram(),
        }
    }

    /// The subarray folding in use.
    pub fn organization(&self) -> crate::config::Organization {
        self.org
    }

    /// The architectural configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The bound technology node.
    pub fn tech(&self) -> &TechnologyNode {
        &self.tech
    }

    /// The cell design.
    pub fn cell(&self) -> &SramCell {
        &self.cell
    }

    /// The cell-technology profile the memory array is transformed by.
    pub fn technology(&self) -> &TechProfile {
        &self.profile
    }

    /// The per-circuit half of one component's model: everything that
    /// does not depend on the component's knob pair, computed once per
    /// surface (or per pointwise call).
    fn plan(&self, id: ComponentId) -> ComponentPlan<'_> {
        let (tech, org, cell) = (&self.tech, &self.org, &self.cell);
        match id {
            ComponentId::MemoryArray => ComponentPlan::Array(
                ArrayPlan::new(tech, org, cell),
                ProfileTransform::new(&self.profile, self.config),
            ),
            ComponentId::Decoder => ComponentPlan::Decoder(DecoderPlan::new(tech, org)),
            ComponentId::AddressBus => ComponentPlan::Bus(BusPlan::address(tech, org, cell)),
            ComponentId::DataBus => ComponentPlan::Bus(BusPlan::data(tech, org, cell)),
        }
    }

    /// Analyses a single component under a knob pair. Component metrics
    /// depend only on `(id, knobs)` — the independence the optimisers
    /// rely on.
    pub fn analyze_component(&self, id: ComponentId, knobs: KnobPoint) -> ComponentMetrics {
        self.plan(id).at(&HoistedPrims::new(&self.tech, knobs))
    }

    /// Analyses the whole cache under a component-knob assignment.
    pub fn analyze(&self, knobs: &ComponentKnobs) -> CacheMetrics {
        let mut per_component = [ComponentMetrics::ZERO; 4];
        for id in COMPONENT_IDS {
            per_component[id.index()] = self.analyze_component(id, knobs.get(id));
        }
        CacheMetrics { per_component }
    }

    /// Analyses one component across a whole set of knob points in one
    /// call, returning a dense [`ComponentSurface`] aligned with the
    /// input order.
    ///
    /// This is the cache-friendly bulk entry point the evaluation engine
    /// memoizes: one contiguous pass per `(component, point set)` instead
    /// of scattered [`analyze_component`](Self::analyze_component) calls.
    pub fn component_surface(&self, id: ComponentId, points: &[KnobPoint]) -> ComponentSurface {
        let prims = PrimsTable::new(&self.tech, points);
        self.component_surface_with(id, points, &prims)
    }

    /// [`component_surface`](Self::component_surface) over a prebuilt
    /// [`PrimsTable`], so callers sweeping several components of the same
    /// circuit over the same point set pay the per-point device-primitive
    /// hoisting once instead of once per component.
    ///
    /// # Panics
    ///
    /// Panics when `prims` was not built over exactly `points`.
    pub fn component_surface_with(
        &self,
        id: ComponentId,
        points: &[KnobPoint],
        prims: &PrimsTable,
    ) -> ComponentSurface {
        self.component_surface_over(id, &Arc::new(points.to_vec()), prims)
    }

    /// [`component_surface_with`](Self::component_surface_with) over a
    /// shared point set: every surface built over one set shares its
    /// points instead of copying them.
    ///
    /// The component's plan is built once; each point then only finishes
    /// the model from its [`HoistedPrims`], writing straight into the
    /// surface's columns.
    ///
    /// # Panics
    ///
    /// Panics when `prims` was not built over exactly `points`.
    pub fn component_surface_over(
        &self,
        id: ComponentId,
        points: &Arc<Vec<KnobPoint>>,
        prims: &PrimsTable,
    ) -> ComponentSurface {
        assert_eq!(
            points.len(),
            prims.len(),
            "prims table must be built over the surface's point set"
        );
        let plan = self.plan(id);
        let mut columns = Columns::with_capacity(points.len());
        columns.extend(prims.items().iter().map(|h| plan.at(h)));
        ComponentSurface {
            points: Arc::clone(points),
            columns,
        }
    }

    /// The fastest achievable access time (every component at the
    /// fastest legal corner) — the tightest meaningful delay constraint.
    pub fn fastest_access_time(&self) -> Seconds {
        self.analyze(&ComponentKnobs::uniform(KnobPoint::fastest()))
            .access_time()
    }

    /// The slowest access time on the legal knob range (every component
    /// at the lowest-leakage corner) — beyond this a delay constraint is
    /// not binding.
    pub fn slowest_access_time(&self) -> Seconds {
        self.analyze(&ComponentKnobs::uniform(KnobPoint::lowest_leakage()))
            .access_time()
    }
}

/// One component's model planned for one circuit (see
/// [`CacheCircuit::analyze_component`]).
enum ComponentPlan<'a> {
    /// The memory array, with the cell-technology transform of a
    /// non-SRAM profile.
    Array(ArrayPlan<'a>, Option<ProfileTransform<'a>>),
    Decoder(DecoderPlan),
    Bus(BusPlan),
}

impl ComponentPlan<'_> {
    /// The component's metrics at one knob point.
    fn at(&self, prims: &HoistedPrims) -> ComponentMetrics {
        match self {
            ComponentPlan::Array(plan, None) => plan.at(prims),
            ComponentPlan::Array(plan, Some(profile)) => profile.apply(plan.at(prims)),
            ComponentPlan::Decoder(plan) => plan.at(prims),
            ComponentPlan::Bus(plan) => plan.at(prims),
        }
    }
}

/// A non-SRAM cell technology's transform of the memory array's metrics.
/// The periphery is CMOS regardless of what the cells are made of, so
/// only the array is transformed.
struct ProfileTransform<'a> {
    profile: &'a TechProfile,
    /// Refresh power of the whole array.
    refresh: Watts,
}

impl<'a> ProfileTransform<'a> {
    /// The transform of `profile` for a cache of `config`'s capacity, or
    /// `None` for the identity profile — which leaves every metric
    /// untouched (bit-for-bit), keeping all-SRAM studies byte-identical
    /// to the pre-technology engine.
    fn new(profile: &'a TechProfile, config: CacheConfig) -> Option<Self> {
        if profile.is_identity() {
            return None;
        }
        // Refresh is knob-independent static power charged per stored bit.
        let refresh = profile.refresh_power_per_bit * (config.size_bytes() * 8) as f64;
        Some(ProfileTransform { profile, refresh })
    }

    fn apply(&self, m: ComponentMetrics) -> ComponentMetrics {
        let p = self.profile;
        ComponentMetrics {
            delay: m.delay * p.delay_scale,
            leakage: LeakageBreakdown {
                // Refresh lands in the subthreshold bucket (the "cell
                // standby" channel).
                subthreshold: m.leakage.subthreshold * p.leakage_scale + self.refresh,
                gate: m.leakage.gate * p.leakage_scale,
                junction: m.leakage.junction * p.leakage_scale,
            },
            read_energy: m.read_energy * p.read_energy_scale,
            write_energy: m.write_energy * p.write_energy_scale,
            transistors: m.transistors,
            area: m.area * p.area_scale,
        }
    }
}

/// One component's metrics evaluated over a fixed set of knob points —
/// the dense, memoizable form of repeated
/// [`CacheCircuit::analyze_component`] calls.
///
/// Stored structure-of-arrays: one contiguous buffer per scalar metric,
/// in input-point order, so bulk consumers (candidate pricing) read only
/// the flat `f64` slices they need instead of striding through an
/// array-of-structs. Every value is checked as it is written (see
/// [`is_healthy`](Self::is_healthy)), so validating a surface never
/// re-reads its columns. The points are shared by every surface built
/// over the same set.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSurface {
    points: Arc<Vec<KnobPoint>>,
    columns: Columns,
}

/// The metric columns of a [`ComponentSurface`], one per scalar metric,
/// plus the health record kept as they are written.
#[derive(Debug, Clone, PartialEq)]
struct Columns {
    delay: Vec<f64>,
    sub_leakage: Vec<f64>,
    gate_leakage: Vec<f64>,
    junction_leakage: Vec<f64>,
    read_energy: Vec<f64>,
    write_energy: Vec<f64>,
    area: Vec<f64>,
    transistors: Vec<u64>,
    /// `true` while every f64 value written so far is finite and
    /// non-negative.
    healthy: bool,
}

impl Columns {
    fn with_capacity(n: usize) -> Self {
        Columns {
            delay: Vec::with_capacity(n),
            sub_leakage: Vec::with_capacity(n),
            gate_leakage: Vec::with_capacity(n),
            junction_leakage: Vec::with_capacity(n),
            read_energy: Vec::with_capacity(n),
            write_energy: Vec::with_capacity(n),
            area: Vec::with_capacity(n),
            transistors: Vec::with_capacity(n),
            healthy: true,
        }
    }

    /// Appends one row per record and folds its seven f64 metrics into
    /// the health record in the same pass. `(v + 0.0).to_bits()` is below
    /// `f64::INFINITY.to_bits()` exactly when `v` is finite and
    /// non-negative: `+ 0.0` turns `-0.0` into `+0.0`, and every negative
    /// value, infinity and NaN sits at or above the bound. So a running
    /// `max` of those bits checks every value without a branch.
    fn extend(&mut self, metrics: impl Iterator<Item = ComponentMetrics>) {
        let mut max_bits = 0u64;
        for m in metrics {
            for v in [
                m.delay.0,
                m.leakage.subthreshold.0,
                m.leakage.gate.0,
                m.leakage.junction.0,
                m.read_energy.0,
                m.write_energy.0,
                m.area.0,
            ] {
                max_bits = max_bits.max((v + 0.0).to_bits());
            }
            self.delay.push(m.delay.0);
            self.sub_leakage.push(m.leakage.subthreshold.0);
            self.gate_leakage.push(m.leakage.gate.0);
            self.junction_leakage.push(m.leakage.junction.0);
            self.read_energy.push(m.read_energy.0);
            self.write_energy.push(m.write_energy.0);
            self.area.push(m.area.0);
            self.transistors.push(m.transistors);
        }
        self.healthy &= max_bits < f64::INFINITY.to_bits();
    }
}

impl ComponentSurface {
    /// Assembles a surface from aligned point and metric vectors.
    ///
    /// Exists so validation layers and fault-injection harnesses can
    /// construct (possibly deliberately malformed) surfaces without
    /// re-running the circuit model; normal callers obtain surfaces from
    /// [`CacheCircuit::component_surface`].
    ///
    /// # Panics
    ///
    /// Panics when `points` and `metrics` differ in length.
    pub fn from_parts(points: Vec<KnobPoint>, metrics: Vec<ComponentMetrics>) -> Self {
        assert_eq!(
            points.len(),
            metrics.len(),
            "surface points and metrics must be aligned"
        );
        let mut columns = Columns::with_capacity(metrics.len());
        columns.extend(metrics.into_iter());
        ComponentSurface {
            points: Arc::new(points),
            columns,
        }
    }

    /// The knob points the surface was evaluated at, in input order.
    pub fn points(&self) -> &[KnobPoint] {
        &self.points
    }

    /// Reassembles the metrics record at row `i` (input-point order).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn metric_at(&self, i: usize) -> ComponentMetrics {
        let c = &self.columns;
        ComponentMetrics {
            delay: Seconds(c.delay[i]),
            leakage: LeakageBreakdown {
                subthreshold: Watts(c.sub_leakage[i]),
                gate: Watts(c.gate_leakage[i]),
                junction: Watts(c.junction_leakage[i]),
            },
            read_energy: Joules(c.read_energy[i]),
            write_energy: Joules(c.write_energy[i]),
            transistors: c.transistors[i],
            area: SquareMicrons(c.area[i]),
        }
    }

    /// Materializes the full metrics vector aligned with
    /// [`points`](Self::points) (the array-of-structs view, for callers
    /// that need owned records — e.g. surface mutation harnesses).
    pub fn metrics_vec(&self) -> Vec<ComponentMetrics> {
        (0..self.len()).map(|i| self.metric_at(i)).collect()
    }

    /// `true` when every delay, leakage, energy and area value on the
    /// surface is finite and non-negative (`-0.0` counts as
    /// non-negative). Recorded while the columns are written, so reading
    /// it costs nothing; transistor counts are integers and not covered.
    pub fn is_healthy(&self) -> bool {
        self.columns.healthy
    }

    /// Per-point delays, seconds, in input order.
    pub fn delays(&self) -> &[f64] {
        &self.columns.delay
    }

    /// Per-point subthreshold leakage, watts, in input order.
    pub fn subthreshold_leakages(&self) -> &[f64] {
        &self.columns.sub_leakage
    }

    /// Per-point gate-tunnelling leakage, watts, in input order.
    pub fn gate_leakages(&self) -> &[f64] {
        &self.columns.gate_leakage
    }

    /// Per-point junction leakage, watts, in input order.
    pub fn junction_leakages(&self) -> &[f64] {
        &self.columns.junction_leakage
    }

    /// Per-point read energies, joules, in input order.
    pub fn read_energies(&self) -> &[f64] {
        &self.columns.read_energy
    }

    /// Per-point write energies, joules, in input order.
    pub fn write_energies(&self) -> &[f64] {
        &self.columns.write_energy
    }

    /// Per-point silicon areas, µm², in input order.
    pub fn areas(&self) -> &[f64] {
        &self.columns.area
    }

    /// Per-point transistor counts, in input order.
    pub fn transistor_counts(&self) -> &[u64] {
        &self.columns.transistors
    }

    /// Number of evaluated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the surface holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates `(point, metrics)` pairs in input order.
    pub fn iter(&self) -> impl Iterator<Item = (KnobPoint, ComponentMetrics)> + '_ {
        self.points()
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (p, self.metric_at(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::{Angstroms, Volts};

    fn circuit(size: u64) -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(size, 64, 4).unwrap(), &tech)
    }

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    #[test]
    fn sums_equal_component_sums() {
        let c = circuit(16 * 1024);
        let m = c.analyze(&ComponentKnobs::default());
        let manual: Seconds = COMPONENT_IDS.iter().map(|&id| m.component(id).delay).sum();
        assert!((m.access_time().0 - manual.0).abs() < 1e-18);
    }

    #[test]
    fn fastest_corner_is_fastest_and_leakiest() {
        let c = circuit(16 * 1024);
        let fast = c.analyze(&ComponentKnobs::uniform(KnobPoint::fastest()));
        let slow = c.analyze(&ComponentKnobs::uniform(KnobPoint::lowest_leakage()));
        assert!(fast.access_time().0 < slow.access_time().0);
        assert!(fast.leakage().total().0 > slow.leakage().total().0);
        assert!((c.fastest_access_time().0 - fast.access_time().0).abs() < 1e-18);
        assert!((c.slowest_access_time().0 - slow.access_time().0).abs() < 1e-18);
    }

    #[test]
    fn sixteen_kb_lands_in_paper_bands() {
        // Figure 1 plots a 16 KB cache between ~800–2200 ps and 0–60 mW.
        let c = circuit(16 * 1024);
        let fast = c.analyze(&ComponentKnobs::uniform(KnobPoint::fastest()));
        let slow = c.analyze(&ComponentKnobs::uniform(KnobPoint::lowest_leakage()));
        let t_lo = fast.access_time().picos();
        let t_hi = slow.access_time().picos();
        assert!((400.0..1600.0).contains(&t_lo), "fastest = {t_lo} ps");
        assert!(t_hi / t_lo > 1.5, "knobs span only {:.2}x", t_hi / t_lo);
        let p_hi = fast.leakage().total().milli();
        assert!((10.0..120.0).contains(&p_hi), "max leakage = {p_hi} mW");
        let p_lo = slow.leakage().total().milli();
        assert!(p_hi / p_lo > 20.0, "leakage span only {:.1}x", p_hi / p_lo);
    }

    #[test]
    fn bigger_cache_is_slower_bigger_leakier() {
        let small = circuit(16 * 1024).analyze(&ComponentKnobs::default());
        let big = circuit(1024 * 1024).analyze(&ComponentKnobs::default());
        assert!(big.access_time().0 > small.access_time().0);
        assert!(big.leakage().total().0 > small.leakage().total().0);
        assert!(big.area().0 > small.area().0);
        assert!(big.transistors() > small.transistors());
        assert!(big.read_energy().0 > small.read_energy().0);
    }

    #[test]
    fn array_dominates_leakage() {
        // The cell array is by far the leakiest component (the premise of
        // the paper's Scheme II).
        let c = circuit(64 * 1024);
        let m = c.analyze(&ComponentKnobs::default());
        let array = m.component(ComponentId::MemoryArray).leakage.total().0;
        let periph: f64 = COMPONENT_IDS
            .iter()
            .filter(|id| id.is_peripheral())
            .map(|&id| m.component(id).leakage.total().0)
            .sum();
        assert!(array > 2.0 * periph, "array {array} vs periphery {periph}");
    }

    #[test]
    fn component_independence() {
        // Changing one component's knobs must not change another's metrics.
        let c = circuit(16 * 1024);
        let base = ComponentKnobs::uniform(k(0.3, 12.0));
        let tweaked = base.with(ComponentId::Decoder, k(0.5, 14.0));
        let m0 = c.analyze(&base);
        let m1 = c.analyze(&tweaked);
        for id in [
            ComponentId::MemoryArray,
            ComponentId::AddressBus,
            ComponentId::DataBus,
        ] {
            assert_eq!(m0.component(id), m1.component(id), "{id} changed");
        }
        assert_ne!(
            m0.component(ComponentId::Decoder),
            m1.component(ComponentId::Decoder)
        );
    }

    #[test]
    fn analyze_component_matches_full_analysis() {
        let c = circuit(32 * 1024);
        let knobs = ComponentKnobs::split(k(0.45, 13.0), k(0.25, 10.5));
        let full = c.analyze(&knobs);
        for id in COMPONENT_IDS {
            let single = c.analyze_component(id, knobs.get(id));
            assert_eq!(&single, full.component(id));
        }
    }

    #[test]
    fn component_surface_matches_pointwise_analysis() {
        let c = circuit(16 * 1024);
        let points = [k(0.2, 10.0), k(0.35, 12.0), k(0.5, 14.0)];
        let surface = c.component_surface(ComponentId::Decoder, &points);
        assert_eq!(surface.len(), 3);
        assert!(!surface.is_empty());
        for (i, (p, m)) in surface.iter().enumerate() {
            assert_eq!(p, points[i]);
            assert_eq!(m, c.analyze_component(ComponentId::Decoder, p));
            assert_eq!(surface.metric_at(i), m);
        }
        assert_eq!(surface.points(), &points);
        assert_eq!(surface.metrics_vec().len(), 3);
    }

    #[test]
    fn soa_buffers_align_with_metrics() {
        let c = circuit(16 * 1024);
        let points = [k(0.2, 10.0), k(0.5, 14.0)];
        let s = c.component_surface(ComponentId::DataBus, &points);
        for (i, m) in s.metrics_vec().into_iter().enumerate() {
            assert_eq!(s.delays()[i], m.delay.0);
            assert_eq!(s.subthreshold_leakages()[i], m.leakage.subthreshold.0);
            assert_eq!(s.gate_leakages()[i], m.leakage.gate.0);
            assert_eq!(s.junction_leakages()[i], m.leakage.junction.0);
            assert_eq!(s.read_energies()[i], m.read_energy.0);
            assert_eq!(s.write_energies()[i], m.write_energy.0);
            assert_eq!(s.areas()[i], m.area.0);
            assert_eq!(s.transistor_counts()[i], m.transistors);
        }
    }

    #[test]
    fn component_surface_with_shares_one_prims_table() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = nm_device::KnobGrid::coarse().points().collect();
        let prims = PrimsTable::new(c.tech(), &points);
        for id in COMPONENT_IDS {
            let shared = c.component_surface_with(id, &points, &prims);
            let direct = c.component_surface(id, &points);
            assert_eq!(shared, direct, "{id} surface diverged");
        }
    }

    #[test]
    fn identity_profile_is_bitwise_transparent() {
        let size = 64 * 1024;
        let tech = TechnologyNode::bptm65();
        let plain = circuit(size);
        let explicit = CacheCircuit::with_technology(
            CacheConfig::new(size, 64, 4).unwrap(),
            &tech,
            TechProfile::sram(),
        );
        let knobs = ComponentKnobs::split(k(0.45, 13.0), k(0.25, 10.5));
        assert_eq!(plain.analyze(&knobs), explicit.analyze(&knobs));
        assert!(plain.technology().is_identity());
    }

    #[test]
    fn non_sram_profiles_transform_only_the_array() {
        let size = 1024 * 1024;
        let tech = TechnologyNode::bptm65();
        let sram = circuit(size);
        let edram = CacheCircuit::with_technology(
            CacheConfig::new(size, 64, 4).unwrap(),
            &tech,
            TechProfile::edram(),
        );
        let knobs = ComponentKnobs::default();
        let s = sram.analyze(&knobs);
        let e = edram.analyze(&knobs);
        // Periphery untouched.
        for id in COMPONENT_IDS.iter().filter(|id| id.is_peripheral()) {
            assert_eq!(s.component(*id), e.component(*id), "{id} changed");
        }
        // Array: slower, denser, lower leakage despite refresh, costlier
        // per access.
        let (sa, ea) = (
            s.component(ComponentId::MemoryArray),
            e.component(ComponentId::MemoryArray),
        );
        assert!(ea.delay.0 > sa.delay.0);
        assert!(ea.area.0 < sa.area.0);
        assert!(ea.leakage.total().0 < sa.leakage.total().0);
        assert!(ea.read_energy.0 > sa.read_energy.0);
        assert_eq!(ea.transistors, sa.transistors);
        // Refresh makes the static floor knob-independent: even the
        // lowest-leakage corner keeps at least the refresh power.
        let refresh = TechProfile::edram().refresh_power_per_bit.0 * (size * 8) as f64;
        let low = edram
            .analyze(&ComponentKnobs::uniform(KnobPoint::lowest_leakage()))
            .component(ComponentId::MemoryArray)
            .leakage
            .total()
            .0;
        assert!(
            low >= refresh,
            "low corner {low} under refresh floor {refresh}"
        );
    }

    #[test]
    fn mram_write_read_asymmetry_survives_the_transform() {
        let size = 256 * 1024;
        let tech = TechnologyNode::bptm65();
        let mram = CacheCircuit::with_technology(
            CacheConfig::new(size, 64, 8).unwrap(),
            &tech,
            TechProfile::stt_mram(),
        );
        let m = mram
            .analyze(&ComponentKnobs::default())
            .component(ComponentId::MemoryArray)
            .to_owned();
        assert!(
            m.write_energy.0 / m.read_energy.0 > 2.0,
            "write/read = {}",
            m.write_energy.0 / m.read_energy.0
        );
    }

    #[test]
    fn profiled_surfaces_match_pointwise_analysis() {
        let tech = TechnologyNode::bptm65();
        let c = CacheCircuit::with_technology(
            CacheConfig::new(512 * 1024, 64, 8).unwrap(),
            &tech,
            TechProfile::stt_mram(),
        );
        let points: Vec<KnobPoint> = nm_device::KnobGrid::coarse().points().collect();
        let surface = c.component_surface(ComponentId::MemoryArray, &points);
        for (i, &p) in points.iter().enumerate().take(5) {
            assert_eq!(
                surface.metric_at(i),
                c.analyze_component(ComponentId::MemoryArray, p)
            );
        }
    }

    /// Metric values for the health-record oracle: the first six are
    /// finite and non-negative (`-0.0` included), the rest are not.
    const HEALTH_POOL: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        1e-300,
        1.0,
        f64::MAX,
        -5e-324,
        -1e-300,
        -1.0,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The health record kept while the columns are written equals
        /// `is_finite() && >= 0.0` over all seven f64 metrics of every
        /// row. Rows start from the healthy part of the pool; up to two
        /// values are then overwritten from the whole pool, so a lone
        /// bad value of each kind is common.
        #[test]
        fn health_record_matches_the_finite_non_negative_oracle(
            rows in proptest::collection::vec(proptest::collection::vec(0usize..6, 7), 1..6),
            overwrites in proptest::collection::vec(
                (0usize..1000, 0usize..7, 0usize..HEALTH_POOL.len()),
                0..3,
            ),
            transistors in proptest::arbitrary::any::<u64>(),
        ) {
            let mut values: Vec<[f64; 7]> = rows
                .iter()
                .map(|row| std::array::from_fn(|m| HEALTH_POOL[row[m]]))
                .collect();
            for &(row, metric, pick) in &overwrites {
                let n = values.len();
                values[row % n][metric] = HEALTH_POOL[pick];
            }
            let metrics: Vec<ComponentMetrics> = values
                .iter()
                .map(|v| ComponentMetrics {
                    delay: Seconds(v[0]),
                    leakage: LeakageBreakdown {
                        subthreshold: Watts(v[1]),
                        gate: Watts(v[2]),
                        junction: Watts(v[3]),
                    },
                    read_energy: Joules(v[4]),
                    write_energy: Joules(v[5]),
                    area: SquareMicrons(v[6]),
                    transistors,
                })
                .collect();
            let points: Vec<KnobPoint> = nm_device::KnobGrid::coarse()
                .points()
                .take(metrics.len())
                .collect();
            let surface = ComponentSurface::from_parts(points, metrics);
            let oracle = values.iter().flatten().all(|&v| v.is_finite() && v >= 0.0);
            proptest::prop_assert_eq!(surface.is_healthy(), oracle, "{:?}", values);
        }
    }

    #[test]
    fn display_shows_headline_numbers() {
        let c = circuit(16 * 1024);
        let s = c.analyze(&ComponentKnobs::default()).to_string();
        assert!(
            s.contains("ps") && s.contains("mW") && s.contains("pJ"),
            "{s}"
        );
    }
}
