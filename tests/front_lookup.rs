//! Warm front lookups through the facade: the memoized fronts the
//! evaluator serves, and the binary-search selects that read optima off
//! them.
//!
//! Contracts:
//! * every front the engine produces has strictly ascending delay and
//!   strictly descending cost, the order the selects rely on;
//! * `best_under_deadline` returns the cheapest point within the
//!   deadline and `fastest_under_budget` the fastest point within the
//!   budget, exactly as a scan over the whole front would;
//! * `==`-equal specs share one memo entry, and specs that differ in any
//!   compared field keep their own;
//! * answers served warm are bit-identical to answers served cold.

use nmcache::core::eval::{Evaluator, HierarchySpec};
use nmcache::core::groups::{CostKind, Scheme};
use nmcache::device::units::Kelvin;
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheConfig};
use nmcache::opt::constraint::{best_under_deadline, fastest_under_budget};
use nmcache::opt::merge::{FrontPoint, MergeBase};
use nmcache::opt::objective::{CostBudget, Deadline};
use nmcache::opt::{Candidate, Group};
use proptest::prelude::*;

fn circuit(bytes: u64, tech: &TechnologyNode) -> CacheCircuit {
    CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), tech)
}

/// An L1/L2 spec built from scratch each call, so two calls give equal
/// but separately owned specs.
fn two_level(l1_label: &str, tech: &TechnologyNode, l2_weight: f64) -> HierarchySpec {
    HierarchySpec::new()
        .level(
            l1_label,
            circuit(16 * 1024, tech),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        )
        .level(
            "L2",
            circuit(64 * 1024, tech),
            Scheme::Split,
            l2_weight,
            CostKind::LeakagePower,
        )
}

fn point(delay: f64, cost: f64) -> FrontPoint {
    FrontPoint {
        delay,
        cost,
        choice: vec![KnobPoint::nominal()],
    }
}

/// Three points on a strictly ordered front.
fn small_front() -> Vec<FrontPoint> {
    vec![point(1.0, 9.0), point(2.0, 4.0), point(4.0, 1.0)]
}

fn assert_strictly_ordered(front: &[FrontPoint]) {
    for w in front.windows(2) {
        assert!(w[0].delay < w[1].delay, "delay not ascending: {w:?}");
        assert!(w[0].cost > w[1].cost, "cost not descending: {w:?}");
    }
}

fn groups(raw: &[Vec<(f64, f64)>]) -> Vec<Group> {
    raw.iter()
        .enumerate()
        .map(|(i, pts)| {
            Group::new(
                format!("g{i}"),
                pts.iter()
                    .map(|&(d, c)| Candidate::new(KnobPoint::nominal(), d, c))
                    .collect(),
            )
        })
        .collect()
}

/// The limits worth probing on a front coordinate: every value on it,
/// each midpoint, and one step past either end.
fn probes(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let values: Vec<f64> = values.collect();
    let mut out: Vec<f64> = values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    out.extend(values.first().map(|v| v - 1.0));
    out.extend(values.last().map(|v| v + 1.0));
    out.extend(values);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a merged system front, the deadline select returns the
    /// cheapest point that meets the deadline, at every probed deadline.
    #[test]
    fn deadline_select_is_the_cheapest_feasible_point_of_a_merged_front(
        g1 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..10),
        g2 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..10),
    ) {
        let front = MergeBase::try_new(&groups(&[g1, g2]))
            .expect("non-empty system")
            .front();
        assert_strictly_ordered(&front);
        for deadline in probes(front.iter().map(|p| p.delay)) {
            let cheapest = front
                .iter()
                .filter(|p| p.delay <= deadline)
                .map(|p| p.cost)
                .fold(f64::INFINITY, f64::min);
            match best_under_deadline(&front, deadline) {
                Some(p) => {
                    prop_assert!(p.delay <= deadline);
                    prop_assert_eq!(p.cost.to_bits(), cheapest.to_bits());
                }
                None => prop_assert!(cheapest.is_infinite(), "deadline {deadline}"),
            }
        }
    }

    /// The dual: the budget select returns the fastest point that fits
    /// the budget, at every probed budget.
    #[test]
    fn budget_select_is_the_fastest_affordable_point_of_a_merged_front(
        g1 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..10),
        g2 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..10),
    ) {
        let front = MergeBase::try_new(&groups(&[g1, g2]))
            .expect("non-empty system")
            .front();
        for budget in probes(front.iter().rev().map(|p| p.cost)) {
            let fastest = front
                .iter()
                .filter(|p| p.cost <= budget)
                .map(|p| p.delay)
                .fold(f64::INFINITY, f64::min);
            match fastest_under_budget(&front, budget) {
                Some(p) => {
                    prop_assert!(p.cost <= budget);
                    prop_assert_eq!(p.delay.to_bits(), fastest.to_bits());
                }
                None => prop_assert!(fastest.is_infinite(), "budget {budget}"),
            }
        }
    }
}

#[test]
fn selects_on_an_empty_front_find_nothing() {
    for limit in [f64::NEG_INFINITY, -0.0, 0.0, 1.0, f64::INFINITY] {
        assert!(best_under_deadline(&[], limit).is_none());
        assert!(fastest_under_budget(&[], limit).is_none());
    }
}

#[test]
fn deadline_select_at_the_edges_of_the_front() {
    let front = small_front();
    // Tighter than the fastest point: infeasible.
    assert!(best_under_deadline(&front, 0.5).is_none());
    assert!(best_under_deadline(&front, f64::NEG_INFINITY).is_none());
    assert!(best_under_deadline(&front, f64::NAN).is_none());
    // Exactly on a point selects that point; between points, the one below.
    assert_eq!(best_under_deadline(&front, 1.0), Some(&front[0]));
    assert_eq!(best_under_deadline(&front, 2.0), Some(&front[1]));
    assert_eq!(best_under_deadline(&front, 3.0), Some(&front[1]));
    // At or past the slowest point: the cheapest point overall.
    assert_eq!(best_under_deadline(&front, 4.0), Some(&front[2]));
    assert_eq!(best_under_deadline(&front, f64::INFINITY), Some(&front[2]));
}

#[test]
fn budget_select_at_the_edges_of_the_front() {
    let front = small_front();
    // Below the cheapest point: infeasible.
    assert!(fastest_under_budget(&front, 0.5).is_none());
    assert!(fastest_under_budget(&front, f64::NEG_INFINITY).is_none());
    assert!(fastest_under_budget(&front, f64::NAN).is_none());
    // Exactly on a point selects that point; between points, the dearer
    // neighbour is out of budget, so the cheaper one wins.
    assert_eq!(fastest_under_budget(&front, 1.0), Some(&front[2]));
    assert_eq!(fastest_under_budget(&front, 4.0), Some(&front[1]));
    assert_eq!(fastest_under_budget(&front, 6.0), Some(&front[1]));
    // At or past the dearest point: the fastest point overall.
    assert_eq!(fastest_under_budget(&front, 9.0), Some(&front[0]));
    assert_eq!(fastest_under_budget(&front, f64::INFINITY), Some(&front[0]));
}

#[test]
fn signed_zero_limits_select_alike() {
    let front = vec![point(-1.0, 2.0), point(0.0, 0.0), point(1.0, -1.0)];
    assert_eq!(best_under_deadline(&front, -0.0), Some(&front[1]));
    assert_eq!(best_under_deadline(&front, 0.0), Some(&front[1]));
    assert_eq!(fastest_under_budget(&front, -0.0), Some(&front[1]));
    assert_eq!(fastest_under_budget(&front, 0.0), Some(&front[1]));
}

#[test]
fn evaluator_fronts_are_strictly_ordered() {
    let tech = TechnologyNode::bptm65();
    let e = Evaluator::new(KnobGrid::coarse());
    for weight in [0.0, 0.05, 0.5] {
        let front = e
            .try_front(&two_level("L1", &tech, weight))
            .expect("healthy build");
        assert!(!front.is_empty(), "weight {weight}");
        assert_strictly_ordered(&front);
    }
}

#[test]
fn equal_specs_built_apart_hit_one_memo_entry() {
    let tech = TechnologyNode::bptm65();
    // `-0.0 == 0.0`, so the two weights name the same spec.
    for (first, second) in [(0.05, 0.05), (0.0, -0.0)] {
        let e = Evaluator::new(KnobGrid::coarse());
        let a = e
            .try_front(&two_level("L1", &tech, first))
            .expect("healthy build");
        let b = e
            .try_front(&two_level("L1", &tech, second))
            .expect("healthy build");
        // The second spec hit the first one's entry.
        let stats = e.stats();
        assert_eq!(stats.fronts_built, 1, "{first} vs {second}: {stats:?}");
        assert_eq!(stats.front_hits, 1, "{first} vs {second}: {stats:?}");
        assert_eq!(a, b, "{first} vs {second}");
    }
}

#[test]
fn specs_differing_in_label_or_temperature_keep_their_own_fronts() {
    let cool = TechnologyNode::bptm65();
    let hot = cool.at_temperature(Kelvin::from_celsius(110.0));
    let e = Evaluator::new(KnobGrid::coarse());
    let specs = [
        two_level("L1", &cool, 0.05),
        two_level("D$", &cool, 0.05),
        two_level("L1", &hot, 0.05),
    ];
    let fronts: Vec<_> = specs
        .iter()
        .map(|s| e.try_front(s).expect("healthy build"))
        .collect();
    assert_eq!(e.stats().fronts_built, 3);
    assert_eq!(e.stats().front_hits, 0);
    // The hot node leaks more, so its front differs from the cool one.
    assert_ne!(*fronts[0], *fronts[2]);
    // A second pass hits, each spec an entry holding its own front.
    for (spec, front) in specs.iter().zip(&fronts) {
        assert_eq!(e.try_front(spec).expect("healthy build"), *front);
    }
    assert_eq!(e.stats().fronts_built, 3);
    assert_eq!(e.stats().front_hits, 3);
}

#[test]
fn warm_solutions_match_cold_solutions_bit_for_bit() {
    let tech = TechnologyNode::bptm65();
    let spec = two_level("L1", &tech, 0.05);
    let warm = Evaluator::new(KnobGrid::coarse());
    let front = warm.try_front(&spec).expect("healthy build");
    let (fastest, slowest) = (front[0].delay, front[front.len() - 1].delay);
    let (dearest, cheapest) = (front[0].cost, front[front.len() - 1].cost);
    for step in 0..=8 {
        let t = f64::from(step) / 8.0;
        let deadline = fastest + t * (slowest - fastest);
        let budget = cheapest + t * (dearest - cheapest);
        let cold = Evaluator::new(KnobGrid::coarse());
        assert_eq!(
            warm.try_solve(&spec, &Deadline(deadline))
                .expect("healthy build"),
            cold.try_solve(&spec, &Deadline(deadline))
                .expect("healthy build"),
            "deadline {deadline}"
        );
        assert_eq!(
            warm.try_solve(&spec, &CostBudget(budget))
                .expect("healthy build"),
            cold.try_solve(&spec, &CostBudget(budget))
                .expect("healthy build"),
            "budget {budget}"
        );
    }
    assert_eq!(warm.stats().fronts_built, 1);
    assert_eq!(warm.stats().front_hits, 18);
}
