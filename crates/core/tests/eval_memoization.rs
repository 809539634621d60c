//! Memoization soundness: metrics served from the evaluation engine's
//! cached surfaces must agree **bit-for-bit** with direct
//! `analyze_component` calls, across the whole knob grid, and the groups
//! the engine assembles from those surfaces must equal the direct
//! `cache_groups` pipeline exactly.

use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{cache_groups, CostKind, Scheme};
use nm_device::units::{Angstroms, Volts};
use nm_device::{KnobGrid, KnobPoint, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs, COMPONENT_IDS};
use nm_opt::constraint::best_under_deadline;
use nm_opt::merge::try_system_front;
use nm_opt::objective::Deadline;
use proptest::prelude::*;

fn circuit(bytes: u64, ways: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::new(CacheConfig::new(bytes, 64, ways).unwrap(), &tech)
}

/// Exhaustive: every `(component, knob point)` of the paper's fine grid,
/// memoized vs direct, compared with `==` on raw f64 fields (no epsilon).
#[test]
fn surfaces_agree_bitwise_with_direct_analysis_on_full_grid() {
    let grid = KnobGrid::paper();
    let points: Vec<KnobPoint> = grid.points().collect();
    let c = circuit(16 * 1024, 4);
    for id in COMPONENT_IDS {
        let surface = c.component_surface(id, &points);
        assert_eq!(surface.len(), points.len());
        for (p, cached) in surface.iter() {
            assert_eq!(cached, c.analyze_component(id, p), "{id} at {p}");
            assert_eq!(surface.lookup(p), Some(cached));
        }
    }
}

/// The engine's whole-cache analysis equals the circuit's, whether the
/// assignment is on-grid (surface-served) or off-grid (fallback).
#[test]
fn evaluator_analyze_is_bitwise_identical() {
    let grid = KnobGrid::coarse();
    let eval = Evaluator::new(grid.clone());
    let c = circuit(16 * 1024, 4);
    eval.try_ensure_surfaces(&HierarchySpec::single(
        c.clone(),
        Scheme::Uniform,
        1.0,
        CostKind::LeakagePower,
    ))
    .expect("healthy build");
    // On-grid, per-component mixed assignment.
    let pts: Vec<KnobPoint> = grid.points().collect();
    let mixed = ComponentKnobs::per_component(
        pts[0],
        pts[1 % pts.len()],
        pts[2 % pts.len()],
        pts[3 % pts.len()],
    );
    assert_eq!(eval.analyze(&c, &mixed), c.analyze(&mixed));
    // Off-grid fallback.
    let off = ComponentKnobs::uniform(KnobPoint::new(Volts(0.317), Angstroms(11.3)).unwrap());
    assert_eq!(eval.analyze(&c, &off), c.analyze(&off));
}

/// Engine-assembled groups equal the direct pipeline for a multi-level
/// spec, and the memoized front yields the same optimum.
#[test]
fn two_level_groups_and_front_match_direct_pipeline() {
    let grid = KnobGrid::coarse();
    let eval = Evaluator::new(grid.clone());
    let l1 = circuit(16 * 1024, 4);
    let l2 = circuit(256 * 1024, 8);
    let m1 = 0.04;

    let spec = HierarchySpec::new()
        .level("L1", l1.clone(), Scheme::Split, 1.0, CostKind::LeakagePower)
        .level("L2", l2.clone(), Scheme::Split, m1, CostKind::LeakagePower);

    let mut direct = cache_groups(&l1, Scheme::Split, &grid, 1.0, CostKind::LeakagePower);
    direct.extend(cache_groups(
        &l2,
        Scheme::Split,
        &grid,
        m1,
        CostKind::LeakagePower,
    ));
    assert_eq!(eval.try_groups(&spec).expect("healthy build"), direct);

    let front = try_system_front(&direct).expect("non-empty system");
    assert_eq!(*eval.try_front(&spec).expect("healthy build"), front);

    let deadline = front.last().expect("non-empty").delay * 0.9;
    let manual = best_under_deadline(&front, deadline);
    let solved = eval
        .try_solve(&spec, &Deadline(deadline))
        .expect("healthy build");
    match (manual, solved) {
        (Some(p), Some(s)) => {
            assert_eq!(s.delay, p.delay);
            assert_eq!(s.cost, p.cost);
            assert_eq!(s.choice, p.choice);
        }
        (None, None) => {}
        (m, s) => panic!("feasibility disagreement: manual={m:?} solved={s:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: at any grid point (picked by random axis indices) and
    /// any component, the memoized surface serves the exact bits direct
    /// analysis produces — for two different circuit geometries.
    #[test]
    fn memoized_metrics_match_direct_at_random_grid_points(
        vi in 0usize..100,
        ti in 0usize..100,
        comp in 0usize..4,
        big in proptest::bool::ANY,
    ) {
        let grid = KnobGrid::paper();
        let vths = grid.vth_values();
        let toxes = grid.tox_values();
        let p = KnobPoint::new(vths[vi % vths.len()], toxes[ti % toxes.len()]).expect("grid point");
        let c = if big { circuit(1024 * 1024, 8) } else { circuit(8 * 1024, 4) };
        let id = COMPONENT_IDS[comp];

        let points: Vec<KnobPoint> = grid.points().collect();
        let surface = c.component_surface(id, &points);
        let cached = surface.lookup(p).expect("every grid point is on the surface");
        let direct = c.analyze_component(id, p);
        prop_assert_eq!(cached, direct);
        // Bit-level, not just PartialEq: delays and leakages are raw f64s.
        prop_assert_eq!(cached.delay.0.to_bits(), direct.delay.0.to_bits());
        prop_assert_eq!(
            cached.leakage.total().0.to_bits(),
            direct.leakage.total().0.to_bits()
        );
        prop_assert_eq!(cached.read_energy.0.to_bits(), direct.read_energy.0.to_bits());
        prop_assert_eq!(cached.write_energy.0.to_bits(), direct.write_energy.0.to_bits());
    }

    /// Property: single-cache groups assembled from memoized surfaces
    /// equal `cache_groups` bit for bit for every scheme, random delay
    /// weight and both cost kinds — the energy cost with random `t_ref`,
    /// access rate and store fraction, so the read and write energy
    /// columns are priced too.
    #[test]
    fn evaluator_groups_equal_direct_groups(
        scheme_idx in 0usize..3,
        weight in 0.01f64..1.0,
        energy in proptest::bool::ANY,
        (t_ref, access_rate, write_fraction) in (1e-10f64..1e-8, 0.001f64..1.0, 0.0f64..1.0),
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let cost = if energy {
            CostKind::Energy { t_ref, access_rate, write_fraction }
        } else {
            CostKind::LeakagePower
        };
        let grid = KnobGrid::coarse();
        let eval = Evaluator::new(grid.clone());
        let c = circuit(32 * 1024, 4);
        let spec = HierarchySpec::single(c.clone(), scheme, weight, cost);
        let memoized = eval.try_groups(&spec).expect("healthy build");
        let direct = cache_groups(&c, scheme, &grid, weight, cost);
        prop_assert_eq!(&memoized, &direct);
        let bits = |groups: &[nm_opt::Group]| -> Vec<(u64, u64)> {
            groups
                .iter()
                .flat_map(|g| g.candidates())
                .map(|cand| (cand.delay.to_bits(), cand.cost.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(&memoized), bits(&direct));
    }
}
