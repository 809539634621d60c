//! Per-component knob assignments — the decision variables of the paper.

use nm_device::KnobPoint;
use std::fmt;
use std::ops::{Index, IndexMut};

/// The paper's four cache components (Section 3): "internally, the cache
/// consists of four components: memory cell array and sense amplifier,
/// decoder, address bus drivers, and data bus drivers."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentId {
    /// Memory cell array plus sense amplifiers.
    MemoryArray,
    /// Row decoder (predecode + wordline drive).
    Decoder,
    /// Address bus drivers into the cache.
    AddressBus,
    /// Data bus drivers out of the cache.
    DataBus,
}

/// All four components in canonical order.
pub const COMPONENT_IDS: [ComponentId; 4] = [
    ComponentId::MemoryArray,
    ComponentId::Decoder,
    ComponentId::AddressBus,
    ComponentId::DataBus,
];

impl ComponentId {
    /// Canonical index of this component in [`COMPONENT_IDS`].
    pub fn index(self) -> usize {
        match self {
            ComponentId::MemoryArray => 0,
            ComponentId::Decoder => 1,
            ComponentId::AddressBus => 2,
            ComponentId::DataBus => 3,
        }
    }

    /// `true` for the components the paper groups as "peripheral
    /// circuitry" (everything but the cell array).
    pub fn is_peripheral(self) -> bool {
        !matches!(self, ComponentId::MemoryArray)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ComponentId::MemoryArray => "memory-array",
            ComponentId::Decoder => "decoder",
            ComponentId::AddressBus => "address-bus",
            ComponentId::DataBus => "data-bus",
        };
        f.write_str(name)
    }
}

/// A complete (`Vth`, `Tox`) assignment: one [`KnobPoint`] per component.
///
/// The three assignment schemes of Section 4 are expressed through the
/// constructors:
///
/// * Scheme I — [`ComponentKnobs::per_component`] (independent pairs),
/// * Scheme II — [`ComponentKnobs::split`] (cell array vs. periphery),
/// * Scheme III — [`ComponentKnobs::uniform`] (one pair for everything).
///
/// ```
/// use nm_device::KnobPoint;
/// use nm_geometry::{ComponentKnobs, ComponentId};
///
/// let split = ComponentKnobs::split(KnobPoint::lowest_leakage(), KnobPoint::fastest());
/// assert_eq!(split[ComponentId::MemoryArray], KnobPoint::lowest_leakage());
/// assert_eq!(split[ComponentId::Decoder], KnobPoint::fastest());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentKnobs {
    knobs: [KnobPoint; 4],
}

impl ComponentKnobs {
    /// Scheme III: the same pair everywhere.
    pub fn uniform(p: KnobPoint) -> Self {
        ComponentKnobs { knobs: [p; 4] }
    }

    /// Scheme II: one pair for the memory cell array, another for the
    /// three peripheral components.
    pub fn split(cells: KnobPoint, periphery: KnobPoint) -> Self {
        ComponentKnobs {
            knobs: [cells, periphery, periphery, periphery],
        }
    }

    /// Scheme I: an independent pair per component, in
    /// [`COMPONENT_IDS`] order.
    pub fn per_component(
        array: KnobPoint,
        decoder: KnobPoint,
        address_bus: KnobPoint,
        data_bus: KnobPoint,
    ) -> Self {
        ComponentKnobs {
            knobs: [array, decoder, address_bus, data_bus],
        }
    }

    /// Knob pair assigned to a component.
    pub fn get(&self, id: ComponentId) -> KnobPoint {
        self.knobs[id.index()]
    }

    /// Replaces the pair of one component, returning the new assignment.
    #[must_use]
    pub fn with(&self, id: ComponentId, p: KnobPoint) -> Self {
        let mut knobs = self.knobs;
        knobs[id.index()] = p;
        ComponentKnobs { knobs }
    }

    /// Iterates `(component, knobs)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, KnobPoint)> + '_ {
        COMPONENT_IDS
            .iter()
            .map(move |&id| (id, self.knobs[id.index()]))
    }

    /// The distinct `Vth` values used, sorted ascending.
    pub fn distinct_vths(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.knobs.iter().map(|p| p.vth().0).collect();
        v.sort_by(f64::total_cmp);
        v.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        v
    }

    /// The distinct `Tox` values used, sorted ascending.
    pub fn distinct_toxes(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.knobs.iter().map(|p| p.tox().0).collect();
        v.sort_by(f64::total_cmp);
        v.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        v
    }
}

impl Default for ComponentKnobs {
    fn default() -> Self {
        Self::uniform(KnobPoint::nominal())
    }
}

impl Index<ComponentId> for ComponentKnobs {
    type Output = KnobPoint;
    fn index(&self, id: ComponentId) -> &KnobPoint {
        &self.knobs[id.index()]
    }
}

impl IndexMut<ComponentId> for ComponentKnobs {
    fn index_mut(&mut self, id: ComponentId) -> &mut KnobPoint {
        &mut self.knobs[id.index()]
    }
}

impl fmt::Display for ComponentKnobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (id, p) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{id}={p}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::{Angstroms, Volts};

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    #[test]
    fn uniform_assigns_everywhere() {
        let u = ComponentKnobs::uniform(k(0.3, 11.0));
        for id in COMPONENT_IDS {
            assert_eq!(u[id], k(0.3, 11.0));
        }
    }

    #[test]
    fn split_separates_array_from_periphery() {
        let s = ComponentKnobs::split(k(0.5, 14.0), k(0.2, 10.0));
        assert_eq!(s[ComponentId::MemoryArray], k(0.5, 14.0));
        for id in COMPONENT_IDS.into_iter().filter(|i| i.is_peripheral()) {
            assert_eq!(s[id], k(0.2, 10.0));
        }
    }

    #[test]
    fn with_replaces_one_component() {
        let u = ComponentKnobs::uniform(k(0.3, 11.0));
        let m = u.with(ComponentId::DataBus, k(0.2, 10.0));
        assert_eq!(m[ComponentId::DataBus], k(0.2, 10.0));
        assert_eq!(m[ComponentId::Decoder], k(0.3, 11.0));
        // Original untouched.
        assert_eq!(u[ComponentId::DataBus], k(0.3, 11.0));
    }

    #[test]
    fn distinct_value_counting() {
        let s =
            ComponentKnobs::per_component(k(0.5, 14.0), k(0.2, 10.0), k(0.2, 10.0), k(0.3, 10.0));
        assert_eq!(s.distinct_vths(), vec![0.2, 0.3, 0.5]);
        assert_eq!(s.distinct_toxes(), vec![10.0, 14.0]);
    }

    #[test]
    fn index_mut_works() {
        let mut u = ComponentKnobs::default();
        u[ComponentId::MemoryArray] = k(0.5, 14.0);
        assert_eq!(u[ComponentId::MemoryArray], k(0.5, 14.0));
    }

    #[test]
    fn peripheral_classification_matches_paper() {
        assert!(!ComponentId::MemoryArray.is_peripheral());
        assert!(ComponentId::Decoder.is_peripheral());
        assert!(ComponentId::AddressBus.is_peripheral());
        assert!(ComponentId::DataBus.is_peripheral());
    }

    #[test]
    fn display_lists_all_components() {
        let s = ComponentKnobs::default().to_string();
        for id in COMPONENT_IDS {
            assert!(s.contains(&id.to_string()), "{s}");
        }
    }
}
