//! Delay-budget dynamic programming — a discretised alternative to the
//! exact merge solver.
//!
//! The classic way to solve `min Σ cost_i s.t. Σ delay_i ≤ D` over
//! independent groups is to discretise the delay budget into `B` bins and
//! run a knapsack-style DP: `best[g][b]` = least cost using groups
//! `0..=g` within budget bin `b`. The result is within one bin of the
//! exact optimum (delays round *up*, so feasibility is never violated).
//!
//! [`crate::merge::MergeBase`] is exact and usually faster for the
//! group sizes in this workspace; the DP exists as an independent
//! implementation for cross-checking and for callers whose group
//! candidate sets are too large to merge.

use crate::{Candidate, Group};
use nm_device::KnobPoint;

/// A DP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSolution {
    /// Chosen knob pair per group, in input order.
    pub choice: Vec<KnobPoint>,
    /// Achieved total delay (exact, not binned).
    pub delay: f64,
    /// Achieved total cost.
    pub cost: f64,
}

/// Minimises total cost subject to `Σ delay ≤ deadline` by delay-budget
/// DP with `bins` quantisation steps.
///
/// ```
/// use nm_opt::budget::solve_budget_dp;
/// use nm_opt::{Candidate, Group};
/// use nm_device::KnobPoint;
///
/// let mk = |d: f64, c: f64| Candidate::new(KnobPoint::nominal(), d, c);
/// let g = Group::new("g", vec![mk(1.0, 10.0), mk(2.0, 1.0)]);
/// // A hair of slack over 3.0 absorbs the bin round-up.
/// let sol = solve_budget_dp(&[g.clone(), g], 3.01, 1000).unwrap();
/// assert!((sol.cost - 11.0).abs() < 1e-9); // one fast + one slow
/// ```
///
/// Returns `None` when no assignment fits the deadline. The answer's cost
/// is within the quantisation error of optimal (each candidate's delay is
/// rounded up to a bin boundary, so the reported assignment always truly
/// meets the deadline).
///
/// # Panics
///
/// Panics when `groups` is empty or `bins` is zero.
pub fn solve_budget_dp(groups: &[Group], deadline: f64, bins: usize) -> Option<BudgetSolution> {
    assert!(!groups.is_empty(), "budget DP needs at least one group");
    assert!(bins > 0, "budget DP needs at least one bin");
    if deadline < 0.0 {
        return None;
    }
    let step = deadline / bins as f64;

    // Quantised delay (rounded up) per candidate; candidates that alone
    // exceed the deadline are unusable.
    let bin_of = |c: &Candidate| -> Option<usize> {
        if step == 0.0 {
            return if c.delay == 0.0 { Some(0) } else { None };
        }
        let b = (c.delay / step).ceil() as usize;
        if b > bins {
            None
        } else {
            Some(b)
        }
    };

    const UNSET: usize = usize::MAX;
    // best[b] = (cost, chosen candidate idx per processed group, via
    // backpointers): store per-layer choice tables to reconstruct.
    let mut best = vec![f64::INFINITY; bins + 1];
    best[0] = 0.0;
    // backpointer[g][b] = (candidate index, previous bin)
    let mut back: Vec<Vec<(usize, usize)>> = Vec::with_capacity(groups.len());

    for group in groups {
        let mut next = vec![f64::INFINITY; bins + 1];
        let mut layer = vec![(UNSET, UNSET); bins + 1];
        for (ci, c) in group.candidates().iter().enumerate() {
            let Some(cb) = bin_of(c) else {
                continue;
            };
            for b in cb..=bins {
                let prev = best[b - cb];
                if prev.is_finite() {
                    let cost = prev + c.cost;
                    if cost < next[b] {
                        next[b] = cost;
                        layer[b] = (ci, b - cb);
                    }
                }
            }
        }
        // Make each bin also reachable by any cheaper smaller-bin state
        // (prefix-min), so the final readout at `bins` is the optimum.
        for b in 1..=bins {
            if next[b - 1] < next[b] {
                next[b] = next[b - 1];
                layer[b] = layer[b - 1];
            }
        }
        best = next;
        back.push(layer);
    }

    if !best[bins].is_finite() {
        return None;
    }

    // Reconstruct choices.
    let mut choice_idx = vec![0usize; groups.len()];
    let mut b = bins;
    for (g, layer) in back.iter().enumerate().rev() {
        let (ci, pb) = layer[b];
        debug_assert_ne!(ci, UNSET, "reachable states have backpointers");
        choice_idx[g] = ci;
        b = pb;
    }

    let mut delay = 0.0;
    let mut cost = 0.0;
    let mut choice = Vec::with_capacity(groups.len());
    for (group, &ci) in groups.iter().zip(&choice_idx) {
        let c = &group.candidates()[ci];
        delay += c.delay;
        cost += c.cost;
        choice.push(c.knobs);
    }
    Some(BudgetSolution {
        choice,
        delay,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::best_under_deadline;
    use crate::merge::MergeBase;
    use nm_device::units::{Angstroms, Volts};

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    fn grid_group(name: &str, scale: f64) -> Group {
        let mut cands = Vec::new();
        for i in 0..7 {
            let vth = 0.2 + 0.05 * i as f64;
            for j in 0..5 {
                let tox = 10.0 + j as f64;
                let delay = scale * (1.0 + 3.0 * vth + 0.08 * tox);
                let cost =
                    scale * ((-12.0 * vth).exp() * 80.0 + (-1.1 * (tox - 10.0)).exp() * 30.0);
                cands.push(Candidate::new(k(vth, tox), delay, cost));
            }
        }
        Group::new(name, cands)
    }

    #[test]
    fn dp_matches_exact_solver_within_binning() {
        let groups = vec![
            grid_group("a", 1.0),
            grid_group("b", 1.7),
            grid_group("c", 0.6),
        ];
        let front = MergeBase::try_new(&groups)
            .expect("non-empty system")
            .front();
        for deadline in [8.5, 10.0, 12.0, 15.0] {
            let exact = best_under_deadline(&front, deadline).expect("feasible");
            let dp = solve_budget_dp(&groups, deadline, 2000).expect("feasible");
            assert!(dp.delay <= deadline + 1e-12, "deadline violated");
            assert!(dp.cost >= exact.cost - 1e-9, "DP beat the exact solver");
            assert!(
                dp.cost <= exact.cost * 1.02 + 1e-12,
                "deadline {deadline}: dp {} vs exact {}",
                dp.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn dp_infeasible_when_too_tight() {
        let groups = vec![grid_group("a", 1.0)];
        assert!(solve_budget_dp(&groups, 0.5, 100).is_none());
        assert!(solve_budget_dp(&groups, -1.0, 100).is_none());
    }

    #[test]
    fn dp_single_group_picks_cheapest_feasible() {
        let g = Group::new(
            "g",
            vec![
                Candidate::new(k(0.2, 10.0), 1.0, 10.0),
                Candidate::new(k(0.3, 10.0), 2.0, 5.0),
                Candidate::new(k(0.4, 10.0), 4.0, 1.0),
            ],
        );
        let sol = solve_budget_dp(&[g], 2.5, 1000).unwrap();
        assert!((sol.cost - 5.0).abs() < 1e-12);
        assert!((sol.delay - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dp_respects_deadline_exactly_despite_binning() {
        // Coarse bins: rounding up must never yield a violating answer.
        let groups = vec![grid_group("a", 1.0), grid_group("b", 2.0)];
        for bins in [7, 23, 101] {
            if let Some(sol) = solve_budget_dp(&groups, 9.0, bins) {
                assert!(sol.delay <= 9.0 + 1e-12, "bins={bins}: {}", sol.delay);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn empty_groups_panic() {
        let _ = solve_budget_dp(&[], 1.0, 10);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panic() {
        let g = Group::new("g", vec![Candidate::new(k(0.2, 10.0), 1.0, 1.0)]);
        let _ = solve_budget_dp(&[g], 1.0, 0);
    }
}
