//! Compute-once storage for per-component metric surfaces.
//!
//! The studies repeatedly evaluate the same circuits over the same knob
//! grid — E3 and E4 share every surface across schemes, the Figure 2
//! tuple sweep re-prices identical surfaces at every (tuple, target)
//! cell. [`MetricsCache`] keys a [`ComponentSurface`] per
//! `(circuit, component)` so [`CacheCircuit::analyze_component`] runs at
//! most once per `(component, knob point)` within one
//! [`Evaluator`](crate::eval::Evaluator).

use nm_geometry::{CacheCircuit, ComponentId, ComponentSurface};
use std::sync::{Arc, OnceLock, RwLock};

/// One cached circuit: the circuit identity plus a compute-once slot per
/// component surface.
#[derive(Debug, Default)]
struct Surfaces {
    slots: [OnceLock<Arc<ComponentSurface>>; 4],
}

/// Write-once store of component surfaces, shared across every query
/// an evaluator answers. Circuits are matched structurally (`PartialEq`)
/// by linear scan — a study touches a handful of circuits, never enough
/// to need hashing.
#[derive(Debug, Default)]
pub(crate) struct MetricsCache {
    entries: RwLock<Vec<(CacheCircuit, Arc<Surfaces>)>>,
}

impl MetricsCache {
    /// The compute-once slot set for a circuit, inserting an empty entry
    /// on first sight.
    fn surfaces_of(&self, circuit: &CacheCircuit) -> Arc<Surfaces> {
        if let Some((_, s)) = self
            .entries
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .find(|(c, _)| c == circuit)
        {
            return Arc::clone(s);
        }
        let mut entries = self
            .entries
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Re-check under the write lock: another thread may have inserted.
        if let Some((_, s)) = entries.iter().find(|(c, _)| c == circuit) {
            return Arc::clone(s);
        }
        let surfaces = Arc::new(Surfaces::default());
        entries.push((circuit.clone(), Arc::clone(&surfaces)));
        surfaces
    }

    /// The already-built surface for `(circuit, id)`, if any.
    pub(crate) fn peek(
        &self,
        circuit: &CacheCircuit,
        id: ComponentId,
    ) -> Option<Arc<ComponentSurface>> {
        self.entries
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .find(|(c, _)| c == circuit)
            .and_then(|(_, s)| s.slots[id.index()].get().cloned())
    }

    /// Installs a surface built outside the cache and returns
    /// whether it won the slot. A concurrently installed surface wins the
    /// race and this one is dropped — both are bit-identical by purity of
    /// the circuit model.
    pub(crate) fn install(
        &self,
        circuit: &CacheCircuit,
        id: ComponentId,
        surface: ComponentSurface,
    ) -> bool {
        self.surfaces_of(circuit).slots[id.index()]
            .set(Arc::new(surface))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::{KnobGrid, KnobPoint, TechnologyNode};
    use nm_geometry::CacheConfig;

    fn circuit(bytes: u64) -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), &tech)
    }

    fn build(c: &CacheCircuit, id: ComponentId) -> ComponentSurface {
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        c.component_surface(id, &points)
    }

    #[test]
    fn second_install_loses_the_slot() {
        let cache = MetricsCache::default();
        let c = circuit(16 * 1024);
        assert!(cache.install(&c, ComponentId::Decoder, build(&c, ComponentId::Decoder)));
        let a = cache.peek(&c, ComponentId::Decoder).expect("installed");
        assert!(!cache.install(&c, ComponentId::Decoder, build(&c, ComponentId::Decoder)));
        let b = cache.peek(&c, ComponentId::Decoder).expect("installed");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_circuits_get_distinct_surfaces() {
        let cache = MetricsCache::default();
        let (small, big) = (circuit(16 * 1024), circuit(64 * 1024));
        let id = ComponentId::MemoryArray;
        assert!(cache.install(&small, id, build(&small, id)));
        assert!(cache.install(&big, id, build(&big, id)));
        let small = cache.peek(&small, id).expect("installed");
        let big = cache.peek(&big, id).expect("installed");
        assert_ne!(small.metric_at(0), big.metric_at(0));
    }

    #[test]
    fn peek_and_install_round_trip() {
        let cache = MetricsCache::default();
        let c = circuit(16 * 1024);
        assert!(cache.peek(&c, ComponentId::DataBus).is_none());
        assert!(cache.install(&c, ComponentId::DataBus, build(&c, ComponentId::DataBus)));
        let peeked = cache.peek(&c, ComponentId::DataBus).expect("installed");
        assert_eq!(peeked.len(), KnobGrid::coarse().points().count());
        assert!(cache.peek(&c, ComponentId::Decoder).is_none());
    }
}
