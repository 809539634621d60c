//! Bridging the circuit model to the optimiser: assignment schemes and
//! candidate-group construction.

use nm_device::units::Watts;
use nm_device::{KnobGrid, KnobPoint, LeakageBreakdown};
use nm_geometry::{CacheCircuit, ComponentId, ComponentMetrics, ComponentSurface, COMPONENT_IDS};
use nm_opt::{Candidate, Group};
use std::fmt;

/// The paper's three `Vth`/`Tox` assignment schemes (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Scheme I: independent pairs for each of the four components.
    PerComponent,
    /// Scheme II: one pair for the memory cell array, one for the three
    /// peripheral components.
    Split,
    /// Scheme III: a single pair for the whole cache.
    Uniform,
}

impl Scheme {
    /// All schemes, in paper order.
    pub const ALL: [Scheme; 3] = [Scheme::PerComponent, Scheme::Split, Scheme::Uniform];

    /// Paper name ("I", "II", "III").
    pub fn numeral(self) -> &'static str {
        match self {
            Scheme::PerComponent => "I",
            Scheme::Split => "II",
            Scheme::Uniform => "III",
        }
    }

    /// Number of knob-sharing groups the scheme creates per cache — the
    /// length of the per-cache slice of a front point's choice vector.
    pub fn group_count(self) -> usize {
        match self {
            Scheme::PerComponent => 4,
            Scheme::Split => 2,
            Scheme::Uniform => 1,
        }
    }

    /// The scheme's group layout, in group order: each entry is the tied
    /// component set and the group-name suffix (the full group name is
    /// `"{config}:{suffix}"`).
    ///
    /// This is the single source of truth shared by [`cache_groups`], the
    /// evaluation engine ([`crate::eval`]) and
    /// [`HierarchySpec::try_knobs_from_choice`](crate::eval::HierarchySpec::try_knobs_from_choice)
    /// — the three must agree on group order or knob reconstruction
    /// silently permutes assignments.
    pub fn layout(self) -> Vec<(Vec<ComponentId>, String)> {
        match self {
            Scheme::PerComponent => COMPONENT_IDS
                .iter()
                .map(|&id| (vec![id], id.to_string()))
                .collect(),
            Scheme::Split => {
                let periphery: Vec<ComponentId> = COMPONENT_IDS
                    .into_iter()
                    .filter(|id| id.is_peripheral())
                    .collect();
                vec![
                    (
                        vec![ComponentId::MemoryArray],
                        ComponentId::MemoryArray.to_string(),
                    ),
                    (periphery, "periphery".to_owned()),
                ]
            }
            Scheme::Uniform => vec![(COMPONENT_IDS.to_vec(), "uniform".to_owned())],
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scheme {}", self.numeral())
    }
}

/// What a candidate's `cost` field measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostKind {
    /// Standby leakage power, watts (Sections 4–5 leakage studies).
    LeakagePower,
    /// Per-access energy, joules: `leakage · t_ref + access_rate ·
    /// dynamic` (the Figure 2 total-energy study), with the dynamic term
    /// mixing read and write energy by the stream's store fraction.
    Energy {
        /// Reference interval the leakage is integrated over (the AMAT
        /// target), seconds.
        t_ref: f64,
        /// Accesses reaching this cache per CPU reference (1 for L1, the
        /// L1 miss rate plus writeback rate for L2).
        access_rate: f64,
        /// Store fraction of the accesses reaching this cache.
        write_fraction: f64,
    },
}

impl CostKind {
    /// The cost of one group sample (additive across groups).
    pub(crate) fn cost(&self, sample: &MetricSample) -> f64 {
        match *self {
            CostKind::LeakagePower => sample.leakage,
            CostKind::Energy {
                t_ref,
                access_rate,
                write_fraction,
            } => {
                let dynamic = (1.0 - write_fraction) * sample.read_energy
                    + write_fraction * sample.write_energy;
                sample.leakage * t_ref + access_rate * dynamic
            }
        }
    }
}

/// Raw metric sums of one component group under one knob pair, before a
/// [`CostKind`] prices them. All fields are plain SI values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct MetricSample {
    /// Summed delay contribution, seconds (unweighted).
    pub(crate) delay: f64,
    /// Summed standby leakage power, watts.
    pub(crate) leakage: f64,
    /// Summed dynamic energy per read access, joules.
    pub(crate) read_energy: f64,
    /// Summed dynamic energy per write access, joules.
    pub(crate) write_energy: f64,
}

impl MetricSample {
    /// Adds one component's contribution: the one accumulation rule
    /// behind both [`cache_groups`] (whole metric records) and the
    /// evaluation engine (surface columns), so both produce bit-identical
    /// candidates when they add components in the same order.
    fn add(&mut self, delay: f64, leakage: LeakageBreakdown, read_energy: f64, write_energy: f64) {
        self.delay += delay;
        self.leakage += leakage.total().0;
        self.read_energy += read_energy;
        self.write_energy += write_energy;
    }

    /// Adds row `i` of a component's surface, reading only the columns a
    /// price needs (delay, the three leakages and both energies).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub(crate) fn add_row(&mut self, surface: &ComponentSurface, i: usize) {
        let leakage = LeakageBreakdown {
            subthreshold: Watts(surface.subthreshold_leakages()[i]),
            gate: Watts(surface.gate_leakages()[i]),
            junction: Watts(surface.junction_leakages()[i]),
        };
        self.add(
            surface.delays()[i],
            leakage,
            surface.read_energies()[i],
            surface.write_energies()[i],
        );
    }

    /// Prices the summed sample as the candidate at knob pair `p`.
    pub(crate) fn candidate(&self, p: KnobPoint, delay_weight: f64, cost: CostKind) -> Candidate {
        Candidate::new(p, delay_weight * self.delay, cost.cost(self))
    }
}

/// Sums per-component metrics (in the given iteration order) into the raw
/// [`MetricSample`] a [`CostKind`] prices.
pub(crate) fn sample_over(metrics: impl Iterator<Item = ComponentMetrics>) -> MetricSample {
    let mut sample = MetricSample::default();
    for m in metrics {
        sample.add(m.delay.0, m.leakage, m.read_energy.0, m.write_energy.0);
    }
    sample
}

/// Evaluates a *tied* set of components (sharing one knob pair) over the
/// grid as a single group.
///
/// `delay_weight` scales the set's delay contribution in the system
/// objective (1 for an L1 component, the L1 miss rate for an L2 component
/// in an AMAT study).
pub fn tied_group(
    circuit: &CacheCircuit,
    ids: &[ComponentId],
    name: &str,
    grid: &KnobGrid,
    delay_weight: f64,
    cost: CostKind,
) -> Group {
    let candidates: Vec<Candidate> = grid
        .points()
        .map(|p| make_candidate(circuit, ids, p, delay_weight, cost))
        .collect();
    Group::new(format!("{}:{name}", circuit.config()), candidates)
}

fn make_candidate(
    circuit: &CacheCircuit,
    ids: &[ComponentId],
    p: KnobPoint,
    delay_weight: f64,
    cost: CostKind,
) -> Candidate {
    let metrics = ids.iter().map(|&id| circuit.analyze_component(id, p));
    sample_over(metrics).candidate(p, delay_weight, cost)
}

/// Builds the optimiser groups for one cache under a scheme.
///
/// Group order (used to reconstruct
/// [`ComponentKnobs`](nm_geometry::ComponentKnobs) from a front point's
/// choice):
///
/// * Scheme I — the four components in [`COMPONENT_IDS`] order;
/// * Scheme II — `[memory array, periphery]`;
/// * Scheme III — a single all-components group.
pub fn cache_groups(
    circuit: &CacheCircuit,
    scheme: Scheme,
    grid: &KnobGrid,
    delay_weight: f64,
    cost: CostKind,
) -> Vec<Group> {
    scheme
        .layout()
        .iter()
        .map(|(ids, suffix)| tied_group(circuit, ids, suffix, grid, delay_weight, cost))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::TechnologyNode;
    use nm_geometry::{CacheConfig, ComponentKnobs};

    fn circuit() -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).unwrap(), &tech)
    }

    #[test]
    fn group_counts_per_scheme() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        assert_eq!(
            cache_groups(&c, Scheme::PerComponent, &grid, 1.0, CostKind::LeakagePower).len(),
            4
        );
        assert_eq!(
            cache_groups(&c, Scheme::Split, &grid, 1.0, CostKind::LeakagePower).len(),
            2
        );
        assert_eq!(
            cache_groups(&c, Scheme::Uniform, &grid, 1.0, CostKind::LeakagePower).len(),
            1
        );
    }

    #[test]
    fn candidates_match_direct_analysis() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        let g = tied_group(
            &c,
            &[ComponentId::Decoder],
            &ComponentId::Decoder.to_string(),
            &grid,
            1.0,
            CostKind::LeakagePower,
        );
        for cand in g.candidates() {
            let m = c.analyze_component(ComponentId::Decoder, cand.knobs);
            assert!((cand.delay - m.delay.0).abs() < 1e-18);
            assert!((cand.cost - m.leakage.total().0).abs() < 1e-15);
        }
    }

    #[test]
    fn tied_group_sums_components() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        let g = tied_group(
            &c,
            &COMPONENT_IDS,
            "all",
            &grid,
            1.0,
            CostKind::LeakagePower,
        );
        let p = KnobPoint::nominal();
        let cand = g
            .candidates()
            .iter()
            .find(|cand| cand.knobs == grid.snap(p))
            .expect("nominal snaps to grid");
        let m = c.analyze(&ComponentKnobs::uniform(grid.snap(p)));
        assert!((cand.delay - m.access_time().0).abs() < 1e-15);
        assert!((cand.cost - m.leakage().total().0).abs() < 1e-12);
    }

    #[test]
    fn delay_weight_scales_delay_only() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        let g1 = tied_group(
            &c,
            &[ComponentId::DataBus],
            &ComponentId::DataBus.to_string(),
            &grid,
            1.0,
            CostKind::LeakagePower,
        );
        let g2 = tied_group(
            &c,
            &[ComponentId::DataBus],
            &ComponentId::DataBus.to_string(),
            &grid,
            0.05,
            CostKind::LeakagePower,
        );
        for (a, b) in g1.candidates().iter().zip(g2.candidates()) {
            assert!((b.delay - 0.05 * a.delay).abs() < 1e-18);
            assert_eq!(a.cost, b.cost);
        }
    }

    #[test]
    fn energy_cost_combines_leakage_and_dynamic() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        let t_ref = 1.5e-9;
        let g = tied_group(
            &c,
            &[ComponentId::MemoryArray],
            &ComponentId::MemoryArray.to_string(),
            &grid,
            1.0,
            CostKind::Energy {
                t_ref,
                access_rate: 1.0,
                write_fraction: 0.25,
            },
        );
        for cand in g.candidates() {
            let m = c.analyze_component(ComponentId::MemoryArray, cand.knobs);
            let dynamic = 0.75 * m.read_energy.0 + 0.25 * m.write_energy.0;
            let expected = m.leakage.total().0 * t_ref + dynamic;
            assert!((cand.cost - expected).abs() < 1e-18);
        }
    }

    #[test]
    fn layout_partitions_components_and_matches_group_names() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        for scheme in Scheme::ALL {
            let layout = scheme.layout();
            assert_eq!(layout.len(), scheme.group_count(), "{scheme}");
            // Every component appears exactly once across the layout.
            let mut seen: Vec<ComponentId> =
                layout.iter().flat_map(|(ids, _)| ids.clone()).collect();
            seen.sort_by_key(|id| id.index());
            assert_eq!(seen, COMPONENT_IDS.to_vec(), "{scheme}");
            // Group names derive from the layout suffixes.
            let groups = cache_groups(&c, scheme, &grid, 1.0, CostKind::LeakagePower);
            for (g, (_, suffix)) in groups.iter().zip(&layout) {
                assert_eq!(g.name(), format!("{}:{suffix}", c.config()));
            }
        }
    }

    #[test]
    fn cost_kind_objective_matches_candidate_cost() {
        let c = circuit();
        let grid = KnobGrid::coarse();
        let energy = CostKind::Energy {
            t_ref: 1.5e-9,
            access_rate: 0.07,
            write_fraction: 0.25,
        };
        for cost in [CostKind::LeakagePower, energy] {
            let g = tied_group(&c, &COMPONENT_IDS, "all", &grid, 1.0, cost);
            for cand in g.candidates() {
                let metrics: Vec<ComponentMetrics> = COMPONENT_IDS
                    .iter()
                    .map(|&id| c.analyze_component(id, cand.knobs))
                    .collect();
                let sample = sample_over(metrics.iter().copied());
                assert_eq!(cand.cost, cost.cost(&sample));
                assert_eq!(cand.delay, sample.delay);
            }
        }
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::PerComponent.to_string(), "scheme I");
        assert_eq!(Scheme::Split.numeral(), "II");
        assert_eq!(Scheme::Uniform.numeral(), "III");
    }
}
