//! Property tests of the persist encodings' bit-level fidelity.
//!
//! The store tier must reproduce *exactly* the values it was handed:
//! every `f64` round-trips by bit pattern — signed zeros, subnormals,
//! infinities and NaN payloads included — because the evaluator's memo
//! caches key on bit-identical inputs and a canonicalising codec would
//! silently fork cache entries after a reload.

use nm_cache_core::persist::{decode_front, decode_surface, encode_front, encode_surface};
use nm_device::leakage::LeakageBreakdown;
use nm_device::units::{Joules, Seconds, SquareMicrons, Watts};
use nm_device::{KnobGrid, KnobPoint};
use nm_geometry::{ComponentMetrics, ComponentSurface};
use nm_opt::merge::FrontPoint;
use proptest::prelude::*;

/// Reinterprets raw bits as an `f64`, biasing toward the adversarial
/// corners: signed zeros, subnormals, infinities and NaNs with varied
/// payloads all appear alongside ordinary values.
fn bits_to_f64(bits: u64, corner: u8) -> f64 {
    match corner % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::from_bits(0x7ff8_0000_0000_0000 | (bits >> 12)), // NaN payload
        5 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff),         // subnormal
        _ => f64::from_bits(bits),
    }
}

/// A legal knob point picked from the paper grid by index.
fn grid_point(index: u8) -> KnobPoint {
    let points: Vec<KnobPoint> = KnobGrid::paper().points().collect();
    points[index as usize % points.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn front_round_trips_every_f64_bit_pattern(
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u64>(), any::<u8>(), any::<u8>()),
            0..12),
    ) {
        let front: Vec<FrontPoint> = raw
            .iter()
            .map(|&(dbits, dcorner, cbits, ccorner, knob)| FrontPoint {
                delay: bits_to_f64(dbits, dcorner),
                cost: bits_to_f64(cbits, ccorner),
                choice: vec![grid_point(knob), grid_point(knob.wrapping_add(7))],
            })
            .collect();
        let decoded = decode_front(&encode_front(&front)).expect("round trip");
        prop_assert_eq!(decoded.len(), front.len());
        for (a, b) in front.iter().zip(&decoded) {
            prop_assert_eq!(a.delay.to_bits(), b.delay.to_bits());
            prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            prop_assert_eq!(&a.choice, &b.choice);
        }
    }

    #[test]
    fn surface_round_trips_every_f64_bit_pattern(
        raw in proptest::collection::vec(
            ((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
             (any::<u64>(), any::<u64>(), any::<u64>()),
             any::<u8>(),
             any::<u64>()),
            1..10),
    ) {
        // Distinct grid points per row (the surface index maps a point
        // to one row), with adversarial metric bit patterns.
        let points: Vec<KnobPoint> = KnobGrid::paper().points().take(raw.len()).collect();
        let metrics: Vec<ComponentMetrics> = raw
            .iter()
            .enumerate()
            .map(|(i, &((b0, b1, b2, b3), (b4, b5, b6), corner, transistors))| ComponentMetrics {
                delay: Seconds(bits_to_f64(b0, corner)),
                leakage: LeakageBreakdown {
                    subthreshold: Watts(bits_to_f64(b1, corner.wrapping_add(1))),
                    gate: Watts(bits_to_f64(b2, corner.wrapping_add(2))),
                    junction: Watts(bits_to_f64(b3, corner.wrapping_add(3))),
                },
                read_energy: Joules(bits_to_f64(b4, corner.wrapping_add(4))),
                write_energy: Joules(bits_to_f64(b5, corner.wrapping_add(5))),
                transistors,
                area: SquareMicrons(bits_to_f64(b6, i as u8)),
            })
            .collect();
        let surface = ComponentSurface::from_parts(points.clone(), metrics);
        let decoded = decode_surface(&encode_surface(&surface)).expect("round trip");
        prop_assert_eq!(decoded.points(), surface.points());
        for (ours, theirs) in [
            (surface.delays(), decoded.delays()),
            (surface.subthreshold_leakages(), decoded.subthreshold_leakages()),
            (surface.gate_leakages(), decoded.gate_leakages()),
            (surface.junction_leakages(), decoded.junction_leakages()),
            (surface.read_energies(), decoded.read_energies()),
            (surface.write_energies(), decoded.write_energies()),
            (surface.areas(), decoded.areas()),
        ] {
            prop_assert_eq!(ours.len(), theirs.len());
            for (a, b) in ours.iter().zip(theirs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        prop_assert_eq!(surface.transistor_counts(), decoded.transistor_counts());
    }
}
