//! Property tests for the optimisation kernels.

use nm_device::units::{Angstroms, Volts};
use nm_device::KnobPoint;
use nm_opt::budget::solve_budget_dp;
use nm_opt::constraint::{best_under_deadline, deadline_sweep, fastest_under_budget};
use nm_opt::merge::{FrontPoint, MergeBase};
use nm_opt::tuple::combinations;
use nm_opt::{Candidate, Group};
use proptest::prelude::*;

/// The system front of `groups`, merged from scratch.
fn front_of(groups: &[Group]) -> Vec<FrontPoint> {
    MergeBase::try_new(groups)
        .expect("non-empty system")
        .front()
}

fn knob(i: usize, j: usize) -> KnobPoint {
    KnobPoint::new(
        Volts(0.2 + 0.3 * (i as f64) / 6.0),
        Angstroms(10.0 + (j as f64)),
    )
    .expect("in range")
}

/// Strategy over a group built on a 7x5 virtual grid with random
/// delay/cost per point.
fn arb_group(name: &'static str) -> impl Strategy<Value = Group> {
    prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 35).prop_map(move |values| {
        let mut cands = Vec::with_capacity(35);
        for i in 0..7 {
            for j in 0..5 {
                let (d, c) = values[i * 5 + j];
                cands.push(Candidate::new(knob(i, j), d, c));
            }
        }
        Group::new(name, cands)
    })
}

/// Strategy over a group on the same grid whose sums with other such
/// groups collide at ulp scale: delays are `offset + k·step` for small
/// `k`, and costs are multiples of 1/4 so cost sums tie exactly.
fn arb_colliding_group(name: &'static str, offset: f64, step: f64) -> impl Strategy<Value = Group> {
    prop::collection::vec((0u32..8, 1u32..24), 35).prop_map(move |values| {
        let mut cands = Vec::with_capacity(35);
        for i in 0..7 {
            for j in 0..5 {
                let (k, quanta) = values[i * 5 + j];
                let delay = offset + f64::from(k) * step;
                cands.push(Candidate::new(knob(i, j), delay, f64::from(quanta) * 0.25));
            }
        }
        Group::new(name, cands)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// System fronts strictly ascend in delay and strictly descend in
    /// cost, also when delay sums round onto each other.
    #[test]
    fn fronts_are_sorted_and_strict(
        g1 in arb_group("a"),
        g2 in arb_group("b"),
        c1 in arb_colliding_group("c", 1.0, f64::EPSILON),
        c2 in arb_colliding_group("d", 0.0, 0.3 * f64::EPSILON),
        c3 in arb_colliding_group("e", 0.0, 0.3 * f64::EPSILON),
    ) {
        for system in [vec![g1, g2], vec![c1, c2, c3]] {
            let front = front_of(&system);
            prop_assert!(!front.is_empty());
            for w in front.windows(2) {
                prop_assert!(w[0].delay < w[1].delay);
                prop_assert!(w[0].cost > w[1].cost);
            }
        }
    }

    /// Deadline and budget queries are consistent duals on any front.
    #[test]
    fn deadline_budget_duality(g in arb_group("a"), frac in 0.0f64..1.0) {
        let front = front_of(&[g]);
        let sweep = deadline_sweep(&front, 10);
        let idx = ((frac * 9.0) as usize).min(sweep.len() - 1);
        let deadline = sweep[idx];
        if let Some(p) = best_under_deadline(&front, deadline) {
            // The fastest point at that cost budget must meet the deadline.
            let q = fastest_under_budget(&front, p.cost).expect("p itself qualifies");
            prop_assert!(q.delay <= deadline + 1e-12);
            prop_assert!(q.cost <= p.cost);
        }
    }

    /// Relaxing the deadline never increases the optimal cost.
    #[test]
    fn cost_monotone_in_deadline(g1 in arb_group("a"), g2 in arb_group("b")) {
        let front = front_of(&[g1, g2]);
        let sweep = deadline_sweep(&front, 8);
        let mut prev = f64::INFINITY;
        for d in sweep {
            if let Some(p) = best_under_deadline(&front, d) {
                prop_assert!(p.cost <= prev + 1e-12);
                prev = p.cost;
            }
        }
    }

    /// The budget DP agrees with the exact merge solver within its
    /// quantisation error, on random groups and deadlines.
    #[test]
    fn dp_agrees_with_merge(g1 in arb_group("a"), g2 in arb_group("b"), frac in 0.05f64..1.0) {
        let groups = vec![g1, g2];
        let front = front_of(&groups);
        let lo = front.first().unwrap().delay;
        let hi = front.last().unwrap().delay;
        let deadline = lo + (hi - lo) * frac;
        let exact = best_under_deadline(&front, deadline);
        let dp = solve_budget_dp(&groups, deadline, 4000);
        match (exact, dp) {
            (Some(e), Some(d)) => {
                prop_assert!(d.delay <= deadline + 1e-12);
                prop_assert!(d.cost >= e.cost - 1e-9, "DP beat exact");
                prop_assert!(d.cost <= e.cost * 1.05 + 1e-9, "dp {} vs exact {}", d.cost, e.cost);
            }
            (None, Some(d)) => prop_assert!(false, "DP found {d:?} where exact found none"),
            // Quantisation may make a barely-feasible deadline infeasible
            // for the DP; that direction is acceptable.
            (Some(_), None) | (None, None) => {}
        }
    }

    /// Incremental re-merge from a cached base equals a from-scratch
    /// merge whichever group is mutated, and reuses exactly the layers of
    /// the unchanged prefix.
    #[test]
    fn incremental_merge_equals_full_merge(
        g1 in arb_group("a"),
        g2 in arb_group("b"),
        g3 in arb_group("c"),
        which in 0usize..3,
    ) {
        let groups = vec![g1, g2, g3];
        let base = MergeBase::try_new(&groups).expect("non-empty system");
        let mut mutated = groups.clone();
        // Re-cost one group: every pruned front from it onward changes,
        // everything before it is untouched.
        let recosted: Vec<Candidate> = mutated[which]
            .candidates()
            .iter()
            .map(|c| Candidate::new(c.knobs, c.delay, c.cost * 1.5 + 0.01))
            .collect();
        mutated[which] = Group::new("mutated", recosted);
        let (incremental, reused) =
            MergeBase::try_new_with_bases(&mutated, [&base]).expect("non-empty system");
        prop_assert_eq!(reused, which);
        prop_assert_eq!(incremental.front(), front_of(&mutated));
    }

    /// `combinations(n, k)` has binomial-coefficient cardinality and only
    /// strictly increasing members.
    #[test]
    fn combinations_cardinality(n in 1usize..9, k in 0usize..6) {
        let items: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let combos = combinations(&items, k);
        let binom = |n: usize, k: usize| -> usize {
            if k > n {
                return 0;
            }
            let mut r = 1usize;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        };
        prop_assert_eq!(combos.len(), binom(n, k));
        for c in &combos {
            for w in c.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
