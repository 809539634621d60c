//! The constraint role shared by every solver.
//!
//! The studies in `nm-cache-core` all minimise *some* additive cost under
//! *some* delay-style constraint. A [`Constraint`] reads the optimum off a
//! system Pareto front — a delay [`Deadline`] for the iso-delay/iso-AMAT
//! studies, a [`CostBudget`] for the dual query. The evaluation engine
//! reads every optimum (restricted or not) through
//! [`Constraint::select`], so a new study only has to describe *what* it
//! optimises, never *how*.

use crate::constraint::{best_under_deadline, fastest_under_budget};
use crate::merge::FrontPoint;

/// Selects the optimal point of a system Pareto front.
///
/// `front` is sorted by ascending delay with descending cost, as produced
/// by [`crate::merge::try_system_front`].
pub trait Constraint: Sync {
    /// The optimal feasible front point, or `None` when the constraint is
    /// infeasible.
    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint>;
}

/// Minimise cost subject to `total delay ≤ deadline` (iso-delay and
/// iso-AMAT studies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline(pub f64);

impl Constraint for Deadline {
    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint> {
        best_under_deadline(front, self.0)
    }
}

/// Minimise delay subject to `total cost ≤ budget` (the dual query).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBudget(pub f64);

impl Constraint for CostBudget {
    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint> {
        fastest_under_budget(front, self.0)
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
