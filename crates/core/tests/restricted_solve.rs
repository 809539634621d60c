//! The engine's restricted solve, `Evaluator::try_solve_restricted`,
//! over families of (`Vth`, `Tox`) value sets — the Figure 2 tuple
//! search and the single-knob ablation. The family optimum must respect
//! the tuple's value counts, improve monotonically as the counts grow,
//! reduce to the unrestricted solve on the full axes, and equal the
//! cheapest of the per-set solves bit for bit.

use nm_cache_core::eval::{Evaluator, HierarchySpec, Solution};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_cache_core::StudyError;
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::objective::Deadline;
use nm_opt::tuple::combinations;
use proptest::prelude::*;

fn circuit(bytes: u64, ways: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::new(CacheConfig::new(bytes, 64, ways).unwrap(), &tech)
}

/// A two-level spec: L1 of `l1_kb` KB, L2 of `l2_kb` KB weighted by the
/// L1 miss rate `m1`, each level under its own scheme.
fn two_level(l1_kb: u64, l2_kb: u64, m1: f64, schemes: (usize, usize)) -> HierarchySpec {
    HierarchySpec::new()
        .level(
            "L1",
            circuit(l1_kb * 1024, 4),
            Scheme::ALL[schemes.0],
            1.0,
            CostKind::LeakagePower,
        )
        .level(
            "L2",
            circuit(l2_kb * 1024, 8),
            Scheme::ALL[schemes.1],
            m1,
            CostKind::LeakagePower,
        )
}

/// The grid's axes as plain values.
fn axes(grid: &KnobGrid) -> (Vec<f64>, Vec<f64>) {
    (
        grid.vth_values().iter().map(|v| v.0).collect(),
        grid.tox_values().iter().map(|t| t.0).collect(),
    )
}

/// Every `n_vth`-subset of the `Vth` axis and `n_tox`-subset of the
/// `Tox` axis.
fn subsets(grid: &KnobGrid, n_vth: usize, n_tox: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (vth_axis, tox_axis) = axes(grid);
    (
        combinations(&vth_axis, n_vth),
        combinations(&tox_axis, n_tox),
    )
}

/// The family of a tuple's value sets, `Vth` set outer and `Tox` set
/// inner (the order Figure 2's tuple search uses).
fn family<'a>(vth_sets: &'a [Vec<f64>], tox_sets: &'a [Vec<f64>]) -> Vec<(&'a [f64], &'a [f64])> {
    vth_sets
        .iter()
        .flat_map(|v| tox_sets.iter().map(move |t| (v.as_slice(), t.as_slice())))
        .collect()
}

/// Distinct values in `values`, compared by bits.
fn distinct(values: impl Iterator<Item = f64>) -> usize {
    let mut bits: Vec<u64> = values.map(f64::to_bits).collect();
    bits.sort_unstable();
    bits.dedup();
    bits.len()
}

/// `true` when two optional solutions are equal bit for bit.
fn bit_equal(a: &Option<Solution>, b: &Option<Solution>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.delay.to_bits() == b.delay.to_bits()
                && a.cost.to_bits() == b.cost.to_bits()
                && a.choice == b.choice
                && a.knobs == b.knobs
        }
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: on random two-level specs over the coarse grid, the
    /// (`n_tox`, `n_vth`) family optimum uses at most `n_vth` distinct
    /// `Vth` and `n_tox` distinct `Tox` values, its cost falls from
    /// (1, 1) to (2, 2) to the full axes, the one-set family of the full
    /// axes is the unrestricted solve, and the family optimum is the
    /// first cheapest of the per-set solves.
    #[test]
    fn family_optimum_respects_counts_and_matches_per_set_solves(
        l1 in 0usize..3,
        l2 in 0usize..3,
        m1 in 0.01f64..0.2,
        s1 in 0usize..3,
        s2 in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        let grid = KnobGrid::coarse();
        let eval = Evaluator::new(grid.clone());
        let spec = two_level([4, 16, 64][l1], [256, 512, 1024][l2], m1, (s1, s2));
        let front = eval.try_front(&spec).expect("healthy build");
        let lo = front.first().expect("non-empty front").delay;
        let hi = front.last().expect("non-empty front").delay;
        let deadline = Deadline(lo + (hi - lo) * frac);

        let mut previous: Option<Solution> = None;
        for (n_vth, n_tox) in [(1, 1), (2, 2)] {
            let (vth_sets, tox_sets) = subsets(&grid, n_vth, n_tox);
            let sets = family(&vth_sets, &tox_sets);
            let sol = eval
                .try_solve_restricted(&spec, &sets, &deadline)
                .expect("healthy build");
            if let Some(s) = &sol {
                prop_assert!(distinct(s.choice.iter().map(|p| p.vth().0)) <= n_vth);
                prop_assert!(distinct(s.choice.iter().map(|p| p.tox().0)) <= n_tox);
            }
            // More values never hurt: a feasible smaller tuple stays
            // feasible, and no dearer.
            if let Some(p) = &previous {
                let s = sol.as_ref().expect("a larger tuple keeps every smaller set's optimum");
                prop_assert!(s.cost <= p.cost, "({n_vth}, {n_tox}): {} > {}", s.cost, p.cost);
            }

            // The family optimum is the first strictly cheapest per-set
            // optimum, bit for bit.
            let mut cheapest: Option<Solution> = None;
            for set in &sets {
                let one = eval
                    .try_solve_restricted(&spec, std::slice::from_ref(set), &deadline)
                    .expect("healthy build");
                if let Some(one) = one {
                    if cheapest.as_ref().is_none_or(|c| one.cost < c.cost) {
                        cheapest = Some(one);
                    }
                }
            }
            prop_assert!(bit_equal(&sol, &cheapest), "({n_vth}, {n_tox}): {sol:?} vs {cheapest:?}");
            previous = sol.or(previous);
        }

        let (vth_axis, tox_axis) = axes(&grid);
        let full = eval
            .try_solve_restricted(&spec, &[(&vth_axis, &tox_axis)], &deadline)
            .expect("healthy build");
        let unrestricted = eval.try_solve(&spec, &deadline).expect("healthy build");
        prop_assert!(bit_equal(&full, &unrestricted), "{full:?} vs {unrestricted:?}");
        if let Some(p) = &previous {
            let f = full.as_ref().expect("the full axes keep every restricted optimum");
            prop_assert!(f.cost <= p.cost, "full axes: {} > {}", f.cost, p.cost);
        }
    }
}

#[test]
fn empty_spec_is_a_typed_error() {
    let eval = Evaluator::new(KnobGrid::coarse());
    let (vth_axis, tox_axis) = axes(eval.grid());
    let err = eval
        .try_solve_restricted(
            &HierarchySpec::new(),
            &[(&vth_axis, &tox_axis)],
            &Deadline(1.0),
        )
        .expect_err("no groups to merge");
    assert_eq!(err, StudyError::EmptySystem);
}

#[test]
fn infeasible_deadline_is_none() {
    let grid = KnobGrid::coarse();
    let eval = Evaluator::new(grid.clone());
    let spec = two_level(16, 1024, 0.05, (1, 1));
    let fastest = eval.try_front(&spec).expect("healthy build")[0].delay;
    let (vth_sets, tox_sets) = subsets(&grid, 1, 1);
    let sol = eval.try_solve_restricted(
        &spec,
        &family(&vth_sets, &tox_sets),
        &Deadline(fastest * 0.5),
    );
    assert_eq!(sol, Ok(None));
}

#[test]
fn sets_that_empty_a_group_are_skipped() {
    let grid = KnobGrid::coarse();
    let eval = Evaluator::new(grid.clone());
    let spec = two_level(16, 1024, 0.05, (1, 1));
    let deadline = Deadline(eval.try_front(&spec).expect("healthy build")[0].delay * 1.5);
    let (vth_axis, tox_axis) = axes(&grid);
    // No grid point has a negative `Vth`, so the first set empties every
    // group; the second is the full axes.
    let off_grid = [-1.0];
    let sets: [(&[f64], &[f64]); 2] = [(&off_grid, &tox_axis), (&vth_axis, &tox_axis)];
    let sol = eval.try_solve_restricted(&spec, &sets, &deadline);
    assert_eq!(sol, eval.try_solve(&spec, &deadline));
    assert!(sol.expect("healthy build").is_some());
    assert_eq!(
        eval.try_solve_restricted(&spec, &sets[..1], &deadline),
        Ok(None)
    );
    assert_eq!(eval.try_solve_restricted(&spec, &[], &deadline), Ok(None));
}
