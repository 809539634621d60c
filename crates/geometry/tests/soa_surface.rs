//! Property tests: the structure-of-arrays surface layout, built over a
//! deduplicated prims table, is bit-identical to per-point analysis.

use nm_device::units::{Angstroms, Volts};
use nm_device::{KnobPoint, PrimsTable, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, COMPONENT_IDS};
use proptest::prelude::*;

/// Strategy over legal (size, block, associativity) triples.
fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (10u32..24, 5u32..8, 0u32..4).prop_filter_map(
        "config must be internally consistent",
        |(size_log2, block_log2, ways_log2)| {
            CacheConfig::new(1 << size_log2, 1 << block_log2, 1 << ways_log2).ok()
        },
    )
}

/// Strategy over arbitrary in-range point sets — deliberately not grid
/// shaped, so the surface's hash-map index path is exercised too.
fn arb_points() -> impl Strategy<Value = Vec<KnobPoint>> {
    prop::collection::vec(
        (0.2f64..=0.5, 10.0f64..=14.0)
            .prop_map(|(v, t)| KnobPoint::new(Volts(v), Angstroms(t)).expect("in range")),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every metric buffer of a SoA surface carries the exact bits the
    /// per-point `analyze_component` computes, for random circuits over
    /// random point sets.
    #[test]
    fn soa_surface_is_bitwise_identical_to_pointwise_analysis(
        config in arb_config(),
        points in arb_points(),
    ) {
        let tech = TechnologyNode::bptm65();
        let c = CacheCircuit::new(config, &tech);
        for id in COMPONENT_IDS {
            let surface = c.component_surface(id, &points);
            prop_assert_eq!(surface.len(), points.len());
            for (i, &p) in points.iter().enumerate() {
                let direct = c.analyze_component(id, p);
                prop_assert_eq!(surface.delays()[i].to_bits(), direct.delay.0.to_bits());
                prop_assert_eq!(
                    surface.subthreshold_leakages()[i].to_bits(),
                    direct.leakage.subthreshold.0.to_bits()
                );
                prop_assert_eq!(
                    surface.gate_leakages()[i].to_bits(),
                    direct.leakage.gate.0.to_bits()
                );
                prop_assert_eq!(
                    surface.junction_leakages()[i].to_bits(),
                    direct.leakage.junction.0.to_bits()
                );
                prop_assert_eq!(
                    surface.read_energies()[i].to_bits(),
                    direct.read_energy.0.to_bits()
                );
                prop_assert_eq!(
                    surface.write_energies()[i].to_bits(),
                    direct.write_energy.0.to_bits()
                );
                prop_assert_eq!(surface.areas()[i].to_bits(), direct.area.0.to_bits());
                prop_assert_eq!(surface.transistor_counts()[i], direct.transistors);
                prop_assert_eq!(surface.metric_at(i), direct);
            }
        }
    }

    /// One prims table shared across all four components of a circuit
    /// produces the same surfaces as a fresh table per component. (That
    /// the table's primitives match the device reference functions is
    /// checked in `nm_device::prims`.)
    #[test]
    fn shared_prims_table_matches_per_component_tables(
        config in arb_config(),
        points in arb_points(),
    ) {
        let tech = TechnologyNode::bptm65();
        let c = CacheCircuit::new(config, &tech);
        let table = PrimsTable::new(&tech, &points);
        for id in COMPONENT_IDS {
            let via_table = c.component_surface_with(id, &points, &table);
            let per_component = c.component_surface(id, &points);
            prop_assert_eq!(via_table, per_component);
        }
    }
}
