//! The evaluator's solves select on a merge base's delay and cost
//! columns and resolve only the winning point. They must answer exactly
//! what a linear scan over the fully resolved front answers: the
//! cheapest point within a deadline, the fastest point within a budget,
//! and for a restricted family the first strictly cheapest per-set
//! optimum, bit for bit.

use nm_cache_core::eval::{Evaluator, HierarchySpec, Solution};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::merge::{FrontPoint, MergeBase};
use nm_opt::objective::{CostBudget, Deadline};
use nm_opt::Group;
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

/// Which limit a query puts on the front.
#[derive(Debug, Clone, Copy)]
enum Limit {
    Deadline(f64),
    Budget(f64),
}

/// The linear-scan oracle: the last point meeting a deadline, or the
/// first point within a budget.
fn scan(front: &[FrontPoint], limit: Limit) -> Option<&FrontPoint> {
    match limit {
        Limit::Deadline(d) => front.iter().take_while(|p| p.delay <= d).last(),
        Limit::Budget(b) => front.iter().find(|p| p.cost <= b),
    }
}

fn solution(spec: &HierarchySpec, point: &FrontPoint) -> Solution {
    Solution {
        delay: point.delay,
        cost: point.cost,
        choice: point.choice.clone(),
        knobs: spec
            .try_knobs_from_choice(&point.choice)
            .expect("choice fits the spec"),
    }
}

fn solve(eval: &Evaluator, spec: &HierarchySpec, limit: Limit) -> Option<Solution> {
    match limit {
        Limit::Deadline(d) => eval.try_solve(spec, &Deadline(d)),
        Limit::Budget(b) => eval.try_solve(spec, &CostBudget(b)),
    }
    .expect("healthy build")
}

fn solve_restricted(
    eval: &Evaluator,
    spec: &HierarchySpec,
    sets: &[(&[f64], &[f64])],
    limit: Limit,
) -> Option<Solution> {
    match limit {
        Limit::Deadline(d) => eval.try_solve_restricted(spec, sets, &Deadline(d)),
        Limit::Budget(b) => eval.try_solve_restricted(spec, sets, &CostBudget(b)),
    }
    .expect("healthy build")
}

/// The restricted-solve oracle: resolve every set's whole front, scan
/// it, and keep the first strictly cheapest optimum.
fn restricted_oracle(
    groups: &[Group],
    spec: &HierarchySpec,
    sets: &[(&[f64], &[f64])],
    limit: Limit,
) -> Option<Solution> {
    let mut best: Option<FrontPoint> = None;
    for &(vths, toxes) in sets {
        let Some(restricted) = groups
            .iter()
            .map(|g| g.restricted(vths, toxes))
            .collect::<Option<Vec<Group>>>()
        else {
            continue;
        };
        let front = MergeBase::try_new(&restricted)
            .expect("non-empty system")
            .front();
        if let Some(p) = scan(&front, limit) {
            if best.as_ref().is_none_or(|b| p.cost < b.cost) {
                best = Some(p.clone());
            }
        }
    }
    best.map(|p| solution(spec, &p))
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

/// The axis values whose bit is set in `mask`.
fn pick(axis: &[f64], mask: u32) -> Vec<f64> {
    axis.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, &v)| v)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random two-level specs over the coarse grid, at deadlines and
    /// budgets from below the front to past it, `try_solve` equals the
    /// scan over `try_front`'s resolved front and `try_solve_restricted`
    /// equals the scan over each set's resolved front, bit for bit.
    #[test]
    fn solves_match_a_scan_over_the_resolved_fronts(
        l1 in 0usize..3,
        l2 in 0usize..3,
        m1 in 0.01f64..0.2,
        schemes in (0usize..3, 0usize..3),
        fracs in prop::collection::vec(-0.2f64..1.2, 1..4),
        masks in prop::collection::vec((0u32..128, 0u32..32), 1..6),
    ) {
        let eval = Evaluator::new(KnobGrid::coarse());
        let spec = two_level([4, 16, 64][l1], [256, 512, 1024][l2], m1, schemes);
        let front = eval.try_front(&spec).expect("healthy build");
        let groups = eval.try_groups(&spec).expect("healthy build");
        let (first, last) = (&front[0], &front[front.len() - 1]);
        let vth_axis: Vec<f64> = eval.grid().vth_values().iter().map(|v| v.0).collect();
        let tox_axis: Vec<f64> = eval.grid().tox_values().iter().map(|t| t.0).collect();
        // Random value sets, some of which empty a group and some repeat.
        let picked: Vec<(Vec<f64>, Vec<f64>)> = masks
            .iter()
            .map(|&(v, t)| (pick(&vth_axis, v), pick(&tox_axis, t)))
            .collect();
        let sets: Vec<(&[f64], &[f64])> = picked
            .iter()
            .map(|(v, t)| (v.as_slice(), t.as_slice()))
            .collect();
        for &t in &fracs {
            let deadline = first.delay + t * (last.delay - first.delay);
            let budget = last.cost + t * (first.cost - last.cost);
            for limit in [Limit::Deadline(deadline), Limit::Budget(budget)] {
                let want = scan(&front, limit).map(|p| solution(&spec, p));
                let got = solve(&eval, &spec, limit);
                prop_assert!(bit_equal(&got, &want), "{limit:?}: {got:?} vs {want:?}");
                let want = restricted_oracle(&groups, &spec, &sets, limit);
                let got = solve_restricted(&eval, &spec, &sets, limit);
                prop_assert!(bit_equal(&got, &want), "{limit:?} restricted: {got:?} vs {want:?}");
            }
        }
    }
}
