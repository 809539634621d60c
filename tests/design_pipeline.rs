//! Integration test of the full designer pipeline: organisation
//! exploration → stability check → knob optimisation → variation stress
//! (the `design_flow` example as assertions).

use nmcache::core::groups::Scheme;
use nmcache::core::sensitivity::{all_components, component_sensitivity};
use nmcache::core::single::SingleCacheStudy;
use nmcache::core::variation::VariationStudy;
use nmcache::device::snm::{is_stable, read_snm};
use nmcache::device::units::{Angstroms, Volts};
use nmcache::device::variation::VariationModel;
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::explore::{best, explore, Objective};
use nmcache::geometry::{CacheCircuit, CacheConfig, ComponentId};

#[test]
fn explore_then_optimize_then_stress() {
    let tech = TechnologyNode::bptm65();
    let config = CacheConfig::new(32 * 1024, 64, 4).expect("valid");

    // Exploration yields a folding at least as good as the heuristic.
    let chosen = best(config, &tech, Objective::EnergyDelay).expect("foldings exist");
    let heuristic = CacheCircuit::new(config, &tech);
    let knobs = nmcache::geometry::ComponentKnobs::default();
    let chosen_circuit = CacheCircuit::with_organization(config, &tech, chosen.org);
    let edp = |c: &CacheCircuit| {
        let m = c.analyze(&knobs);
        m.access_time().0 * m.read_energy().0
    };
    assert!(edp(&chosen_circuit) <= edp(&heuristic) + 1e-30);

    // The cell stays stable across the whole Tox range under scaling.
    for tox in [10.0, 12.0, 14.0] {
        let p = KnobPoint::new(Volts(0.3), Angstroms(tox)).expect("legal");
        let snm = read_snm(&tech, 0.2 / 0.15, p, tech.drawn_length(p.tox()));
        assert!(is_stable(snm), "Tox {tox}: {} mV", snm.0 * 1e3);
    }

    // Optimisation on the explored circuit meets its deadline.
    let study = SingleCacheStudy::with_circuit(chosen_circuit.clone(), KnobGrid::coarse());
    let deadline = chosen_circuit.fastest_access_time() * 1.15;
    let sol = study
        .optimize(Scheme::Split, deadline)
        .expect("healthy build")
        .expect("15% slack feasible");
    assert!(sol.access_time.0 <= deadline.0 + 1e-15);

    // The optimum parks the cells conservatively.
    let cells = sol.knobs[ComponentId::MemoryArray];
    let periph = sol.knobs[ComponentId::Decoder];
    assert!(cells.vth().0 >= periph.vth().0);
    assert!(cells.tox().0 >= periph.tox().0);

    // Variation lands the mean in a sane band around nominal. (It can dip
    // *below* nominal when an optimum sits on the knob-range edge: die
    // corners clamp asymmetrically toward lower leakage.)
    let vs = VariationStudy::new(study, VariationModel::typical_65nm(), 100, 5);
    let rows = vs.evaluate(&[deadline]).expect("healthy build");
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    assert!(r.distribution.mean >= r.nominal.0 * 0.6);
    assert!(r.distribution.mean <= r.nominal.0 * 2.0);
    assert!(r.distribution.p95 >= r.distribution.p50);
}

#[test]
fn exploration_is_consistent_with_sensitivities() {
    // At the fastest corner every component's Tox exchange rate is strong
    // (the gate floor is huge), matching why all optima move Tox first.
    let tech = TechnologyNode::bptm65();
    let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).expect("valid"), &tech);
    let s = component_sensitivity(&circuit, ComponentId::MemoryArray, KnobPoint::fastest());
    assert!(
        s.tox_exchange_rate() > 1.0,
        "tox deal = {}",
        s.tox_exchange_rate()
    );
    // And every component agrees on the signs everywhere we sample.
    for at in [
        KnobPoint::fastest(),
        KnobPoint::nominal(),
        KnobPoint::lowest_leakage(),
    ] {
        for s in all_components(&circuit, at) {
            assert!(s.leak_per_vth <= 0.0 && s.leak_per_tox <= 0.0);
        }
    }
}

#[test]
fn every_folding_the_explorer_returns_is_analyzable() {
    let tech = TechnologyNode::bptm65();
    let config = CacheConfig::new(16 * 1024, 64, 4).expect("valid");
    let all = explore(config, &tech, Objective::AccessTime);
    assert!(!all.is_empty());
    for e in &all {
        assert!(e.metrics.access_time().0 > 0.0);
        assert!(e.metrics.leakage().total().0 > 0.0);
        assert!(e.score.is_finite());
    }
}
