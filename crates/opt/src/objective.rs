//! The constraint role shared by every solver.
//!
//! The studies in `nm-cache-core` all minimise *some* additive cost under
//! *some* delay-style constraint. A [`Constraint`] reads the optimum off a
//! system Pareto front — a delay [`Deadline`] for the iso-delay/iso-AMAT
//! studies, a [`CostBudget`] for the dual query. The evaluation engine
//! reads every optimum (restricted or not) through
//! [`Constraint::select_index`] on the merged front's columns, so a new
//! study only has to describe *what* it optimises, never *how*.

use crate::merge::FrontPoint;

/// The first index in `0..len` at which `pred` fails, for a `pred` that
/// holds on a prefix of the indices and fails on the rest — the index
/// form of `slice::partition_point`, for fronts addressed by index. On
/// such a predicate every binary search lands on the same index.
fn partition_point(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Selects the optimal point of a system Pareto front.
///
/// A front is sorted by ascending delay with descending cost, as
/// [`crate::merge::MergeBase`] produces it. Each constraint states its
/// rule once, over a front addressed by index
/// ([`select_index`](Self::select_index)); [`select`](Self::select)
/// reads that rule off a slice of resolved points.
pub trait Constraint: Sync {
    /// The index of the optimal feasible point on a front of `len`
    /// points whose delay and cost at index `i` are `delay_at(i)` and
    /// `cost_at(i)`, or `None` when the constraint is infeasible.
    fn select_index(
        &self,
        len: usize,
        delay_at: impl Fn(usize) -> f64,
        cost_at: impl Fn(usize) -> f64,
    ) -> Option<usize>;

    /// The optimal feasible front point, or `None` when the constraint is
    /// infeasible.
    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint> {
        self.select_index(front.len(), |i| front[i].delay, |i| front[i].cost)
            .map(|i| &front[i])
    }
}

/// Minimise cost subject to `total delay ≤ deadline` (iso-delay and
/// iso-AMAT studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline(pub f64);

impl Constraint for Deadline {
    /// The cheapest point whose delay meets the deadline: on a front
    /// sorted by non-decreasing delay with non-increasing cost,
    /// `delay <= deadline` holds for a prefix and fails for the rest (a
    /// NaN deadline fails it everywhere), so the binary search lands on
    /// the same point as a walk that stops at the first too-slow point:
    /// the last point of the feasible prefix, which is the cheapest
    /// feasible one. `O(log n)`.
    fn select_index(
        &self,
        len: usize,
        delay_at: impl Fn(usize) -> f64,
        _cost_at: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        partition_point(len, |i| delay_at(i) <= self.0).checked_sub(1)
    }
}

/// Minimise delay subject to `total cost ≤ budget` (the dual query).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBudget(pub f64);

impl Constraint for CostBudget {
    /// The fastest point whose cost is at most the budget: on a
    /// cost-non-increasing front `cost > budget` holds for a prefix, so
    /// the first point past it is the first affordable one, the point a
    /// front-to-back scan finds. That point is still checked against the
    /// budget, which keeps a NaN budget (where the prefix is empty but
    /// nothing is affordable) infeasible. `O(log n)`.
    fn select_index(
        &self,
        len: usize,
        _delay_at: impl Fn(usize) -> f64,
        cost_at: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        let too_dear = partition_point(len, |i| cost_at(i) > self.0);
        (too_dear < len && cost_at(too_dear) <= self.0).then_some(too_dear)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::KnobPoint;

    fn front() -> Vec<FrontPoint> {
        vec![
            FrontPoint {
                delay: 1.0,
                cost: 10.0,
                choice: vec![KnobPoint::nominal()],
            },
            FrontPoint {
                delay: 3.0,
                cost: 2.0,
                choice: vec![KnobPoint::nominal()],
            },
        ]
    }

    #[test]
    fn deadline_selects_cheapest_feasible() {
        let f = front();
        assert_eq!(Deadline(2.0).select(&f).unwrap().cost, 10.0);
        assert_eq!(Deadline(3.0).select(&f).unwrap().cost, 2.0);
        assert!(Deadline(0.5).select(&f).is_none());
    }

    #[test]
    fn budget_selects_fastest_affordable() {
        let f = front();
        assert_eq!(CostBudget(5.0).select(&f).unwrap().delay, 3.0);
        assert_eq!(CostBudget(50.0).select(&f).unwrap().delay, 1.0);
        assert!(CostBudget(1.0).select(&f).is_none());
    }
}
