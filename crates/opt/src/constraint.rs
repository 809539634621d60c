//! Reading constrained optima off a Pareto front.

use crate::merge::FrontPoint;
use crate::objective::{Constraint, CostBudget, Deadline};

/// The cheapest point of `front` whose delay meets the deadline, or
/// `None` when the deadline is infeasible: [`Deadline`]'s rule read off a
/// slice. `O(log n)`.
pub fn best_under_deadline(front: &[FrontPoint], deadline: f64) -> Option<&FrontPoint> {
    Deadline(deadline).select(front)
}

/// The fastest point of `front` whose cost is at most `budget`, or `None`
/// when no point is cheap enough: [`CostBudget`]'s rule read off a
/// slice. `O(log n)`.
pub fn fastest_under_budget(front: &[FrontPoint], budget: f64) -> Option<&FrontPoint> {
    CostBudget(budget).select(front)
}

/// Evenly spaced feasible deadlines across a front's delay range
/// (inclusive of both endpoints), for sweep-style experiments.
pub fn deadline_sweep(front: &[FrontPoint], steps: usize) -> Vec<f64> {
    let (Some(first), Some(last)) = (front.first(), front.last()) else {
        return Vec::new();
    };
    if steps == 0 {
        return Vec::new();
    }
    let lo = first.delay;
    let hi = last.delay;
    if steps == 1 || hi <= lo {
        return vec![hi];
    }
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::KnobPoint;
    use proptest::prelude::*;

    /// The linear scan `best_under_deadline` replaced: walk while the
    /// point meets the deadline, keep the last one.
    fn best_under_deadline_linear(front: &[FrontPoint], deadline: f64) -> Option<&FrontPoint> {
        front.iter().take_while(|p| p.delay <= deadline).last()
    }

    /// The linear scan `fastest_under_budget` replaced: the first
    /// affordable point.
    fn fastest_under_budget_linear(front: &[FrontPoint], budget: f64) -> Option<&FrontPoint> {
        front.iter().find(|p| p.cost <= budget)
    }

    /// Front coordinates are drawn from this pool, so a few dozen points
    /// are full of ties and signed zeros and infinities turn up often.
    const POOL: [f64; 10] = [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        0.5,
        1.0,
        2.0,
        2.5,
        7.0,
        f64::INFINITY,
    ];

    /// A front with non-decreasing delay and non-increasing cost (the
    /// selects' precondition), ties included: the delays and costs are
    /// drawn independently and sorted in opposite directions.
    fn tied_front(raw: &[(usize, usize)]) -> Vec<FrontPoint> {
        let mut delays: Vec<f64> = raw.iter().map(|&(d, _)| POOL[d]).collect();
        let mut costs: Vec<f64> = raw.iter().map(|&(_, c)| POOL[c]).collect();
        delays.sort_by(f64::total_cmp);
        costs.sort_by(|a, b| b.total_cmp(a));
        delays
            .into_iter()
            .zip(costs)
            .map(|(delay, cost)| FrontPoint {
                delay,
                cost,
                choice: vec![KnobPoint::nominal()],
            })
            .collect()
    }

    /// Every limit worth probing on ascending `values`: each value
    /// itself, the midpoint between neighbours, one below the first and
    /// one above the last, both zeros, both infinities and NaN.
    fn limits(values: Vec<f64>) -> Vec<f64> {
        let mut out: Vec<f64> = values.windows(2).map(|w| w[0] / 2.0 + w[1] / 2.0).collect();
        out.extend(values.first().map(|v| v - 1.0));
        out.extend(values.last().map(|v| v + 1.0));
        out.extend([-0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN]);
        out.extend(values);
        out
    }

    fn same(a: Option<&FrontPoint>, b: Option<&FrontPoint>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binary_search_selects_match_the_linear_scans(
            raw in prop::collection::vec((0usize..POOL.len(), 0usize..POOL.len()), 0..24),
        ) {
            let front = tied_front(&raw);
            for deadline in limits(front.iter().map(|p| p.delay).collect()) {
                prop_assert!(
                    same(
                        best_under_deadline(&front, deadline),
                        best_under_deadline_linear(&front, deadline)
                    ),
                    "deadline {deadline} on {front:?}"
                );
            }
            for budget in limits(front.iter().rev().map(|p| p.cost).collect()) {
                prop_assert!(
                    same(
                        fastest_under_budget(&front, budget),
                        fastest_under_budget_linear(&front, budget)
                    ),
                    "budget {budget} on {front:?}"
                );
            }
        }
    }

    /// The index in `front` of a point a linear scan found.
    fn index_of(front: &[FrontPoint], found: Option<&FrontPoint>) -> Option<usize> {
        found.and_then(|p| front.iter().position(|q| std::ptr::eq(p, q)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each constraint's index rule, read on separate delay and cost
        /// columns, and its slice adapter pick the point the linear scans
        /// pick, over the same tied pool and limits.
        #[test]
        fn index_rules_and_the_select_adapter_match_the_linear_scans(
            raw in prop::collection::vec((0usize..POOL.len(), 0usize..POOL.len()), 0..24),
        ) {
            let front = tied_front(&raw);
            let delays: Vec<f64> = front.iter().map(|p| p.delay).collect();
            let costs: Vec<f64> = front.iter().map(|p| p.cost).collect();
            let (delay_at, cost_at) = (|i: usize| delays[i], |i: usize| costs[i]);
            for deadline in limits(delays.clone()) {
                let want = best_under_deadline_linear(&front, deadline);
                let index = index_of(&front, want);
                prop_assert_eq!(
                    Deadline(deadline).select_index(front.len(), delay_at, cost_at),
                    index
                );
                prop_assert!(same(Deadline(deadline).select(&front), want), "deadline {deadline}");
            }
            for budget in limits(costs.iter().rev().copied().collect()) {
                let want = fastest_under_budget_linear(&front, budget);
                let index = index_of(&front, want);
                prop_assert_eq!(
                    CostBudget(budget).select_index(front.len(), delay_at, cost_at),
                    index
                );
                prop_assert!(same(CostBudget(budget).select(&front), want), "budget {budget}");
            }
        }
    }

    fn front() -> Vec<FrontPoint> {
        vec![
            FrontPoint {
                delay: 1.0,
                cost: 10.0,
                choice: vec![KnobPoint::nominal()],
            },
            FrontPoint {
                delay: 2.0,
                cost: 5.0,
                choice: vec![KnobPoint::nominal()],
            },
            FrontPoint {
                delay: 4.0,
                cost: 1.0,
                choice: vec![KnobPoint::nominal()],
            },
        ]
    }

    #[test]
    fn deadline_picks_cheapest_feasible() {
        let f = front();
        assert_eq!(best_under_deadline(&f, 3.0).unwrap().cost, 5.0);
        assert_eq!(best_under_deadline(&f, 4.0).unwrap().cost, 1.0);
        assert_eq!(best_under_deadline(&f, 100.0).unwrap().cost, 1.0);
        assert_eq!(best_under_deadline(&f, 1.0).unwrap().cost, 10.0);
        assert!(best_under_deadline(&f, 0.5).is_none());
    }

    #[test]
    fn budget_picks_fastest_affordable() {
        let f = front();
        assert_eq!(fastest_under_budget(&f, 7.0).unwrap().delay, 2.0);
        assert_eq!(fastest_under_budget(&f, 100.0).unwrap().delay, 1.0);
        assert!(fastest_under_budget(&f, 0.5).is_none());
    }

    #[test]
    fn sweep_spans_range_inclusive() {
        let f = front();
        let s = deadline_sweep(&f, 4);
        assert_eq!(s.len(), 4);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[3] - 4.0).abs() < 1e-12);
        assert_eq!(deadline_sweep(&f, 1), vec![4.0]);
        assert!(deadline_sweep(&[], 5).is_empty());
        assert!(deadline_sweep(&f, 0).is_empty());
    }
}
