//! Round-trip tests of the `serde` implementations on the workspace's
//! data-structure types (C-SERDE). `serde_json` is a dev-dependency used
//! only here.

use nmcache::archsim::{Access, CacheParams, PairStats, Replacement};
use nmcache::core::report::{Series, Table};
use nmcache::device::fit::{DelayFit, LeakageFit};
use nmcache::device::leakage::LeakageBreakdown;
use nmcache::device::units::{Angstroms, Seconds, Volts, Watts};
use nmcache::device::variation::VariationDistribution;
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheConfig, ComponentKnobs, Organization};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::Debug;

fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: &T) {
    let json = serde_json::to_string(value).expect("serialises");
    let back: T = serde_json::from_str(&json).expect("deserialises");
    assert_eq!(&back, value, "{json}");
}

#[test]
fn units_roundtrip() {
    roundtrip(&Volts(0.3));
    roundtrip(&Angstroms(12.5));
    roundtrip(&Seconds(1.5e-9));
    roundtrip(&Watts(0.005));
}

#[test]
fn knobs_roundtrip() {
    roundtrip(&KnobPoint::nominal());
    roundtrip(&KnobGrid::paper());
    roundtrip(&ComponentKnobs::split(
        KnobPoint::lowest_leakage(),
        KnobPoint::fastest(),
    ));
}

#[test]
fn technology_and_geometry_roundtrip() {
    roundtrip(&TechnologyNode::bptm65());
    let config = CacheConfig::new(64 * 1024, 64, 4).unwrap();
    roundtrip(&config);
    roundtrip(&config.organization());
    let custom = Organization::custom(config, 128, 64).unwrap();
    roundtrip(&custom);
}

#[test]
fn metrics_roundtrip() {
    let tech = TechnologyNode::bptm65();
    let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).unwrap(), &tech);
    let metrics = circuit.analyze(&ComponentKnobs::default());
    roundtrip(&metrics);
    roundtrip(&LeakageBreakdown::ZERO);
}

#[test]
fn archsim_types_roundtrip() {
    roundtrip(&Access::read(0x40));
    roundtrip(&Access::write(u64::MAX));
    // Serialise-only: `CacheParams::new` is the one way to build
    // parameters, so decoded bytes cannot bypass its power-of-two checks.
    let params = serde_json::to_string(&CacheParams::new(16 * 1024, 64, 4).unwrap()).unwrap();
    assert!(params.contains("16384"), "{params}");
    roundtrip(&Replacement::Lru);
    roundtrip(&PairStats {
        l1_miss_rate: 0.05,
        l2_local_miss_rate: 0.25,
        l1_writeback_rate: 0.01,
        write_fraction: 0.3,
        measured: 1000,
    });
}

#[test]
fn fits_and_distributions_roundtrip() {
    roundtrip(&LeakageFit {
        a0: 1e-4,
        a1: 3e-2,
        exp_vth: -22.0,
        a2: 800.0,
        exp_tox: -1.3,
        r_squared: 0.999,
    });
    roundtrip(&DelayFit {
        k0: 50.0,
        k1: 2.0,
        exp_vth: 5.5,
        k2: 12.0,
        r_squared: 0.9999,
    });
    roundtrip(&VariationDistribution::from_samples(vec![1.0, 2.0, 3.0]));
}

#[test]
fn report_types_roundtrip() {
    let mut t = Table::new("demo", &["a", "b"]);
    t.push_row(vec!["1".into(), "2".into()]);
    roundtrip(&t);
    let mut s = Series::new("curve");
    s.points = vec![(1.0, 2.0), (3.0, 4.0)];
    roundtrip(&s);
}

#[test]
fn json_is_stable_for_knob_points() {
    // The wire format is part of the public contract: KnobPoint keeps its
    // named fields.
    let json = serde_json::to_value(KnobPoint::nominal()).unwrap();
    assert!(json.get("vth").is_some(), "{json}");
    assert!(json.get("tox").is_some(), "{json}");
}
