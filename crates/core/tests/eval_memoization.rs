//! Memoization soundness: metrics served from the evaluation engine's
//! cached surfaces must agree **bit-for-bit** with direct
//! `analyze_component` calls, across the whole knob grid, and the groups
//! the engine assembles from those surfaces must equal groups priced by
//! direct analysis exactly.

use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_device::{KnobGrid, KnobPoint, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, COMPONENT_IDS};
use nm_opt::constraint::best_under_deadline;
use nm_opt::merge::MergeBase;
use nm_opt::objective::Deadline;
use nm_opt::{Candidate, Group};
use proptest::prelude::*;

fn circuit(bytes: u64, ways: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::new(CacheConfig::new(bytes, 64, ways).unwrap(), &tech)
}

/// The pricing oracle: one cache's groups under a scheme, each candidate
/// summing direct `analyze_component` calls over the group's layout in
/// order and pricing the sums by the [`CostKind`] definition.
fn direct_groups(
    c: &CacheCircuit,
    scheme: Scheme,
    grid: &KnobGrid,
    delay_weight: f64,
    cost: CostKind,
) -> Vec<Group> {
    scheme
        .layout()
        .iter()
        .map(|(ids, suffix)| {
            let candidates = grid
                .points()
                .map(|p| {
                    let (mut delay, mut leakage, mut read, mut write) = (0.0, 0.0, 0.0, 0.0);
                    for &id in ids {
                        let m = c.analyze_component(id, p);
                        delay += m.delay.0;
                        leakage += m.leakage.total().0;
                        read += m.read_energy.0;
                        write += m.write_energy.0;
                    }
                    let price = match cost {
                        CostKind::LeakagePower => leakage,
                        CostKind::Energy {
                            t_ref,
                            access_rate,
                            write_fraction,
                        } => {
                            let dynamic = (1.0 - write_fraction) * read + write_fraction * write;
                            leakage * t_ref + access_rate * dynamic
                        }
                    };
                    Candidate::new(p, delay_weight * delay, price)
                })
                .collect();
            Group::new(format!("{}:{suffix}", c.config()), candidates)
        })
        .collect()
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
        }
    }
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

    let mut direct = direct_groups(&l1, Scheme::Split, &grid, 1.0, CostKind::LeakagePower);
    direct.extend(direct_groups(
        &l2,
        Scheme::Split,
        &grid,
        m1,
        CostKind::LeakagePower,
    ));
    assert_eq!(eval.try_groups(&spec).expect("healthy build"), direct);

    let front = MergeBase::try_new(&direct)
        .expect("non-empty system")
        .front();
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
        let row = points
            .iter()
            .position(|&q| q == p)
            .expect("every grid point is on the surface");
        let cached = surface.metric_at(row);
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
    /// equal directly priced groups bit for bit for every scheme, random delay
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
        let direct = direct_groups(&c, scheme, &grid, weight, cost);
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
