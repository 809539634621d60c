//! Simulated-annealing cross-check for the exact solvers.
//!
//! The merge-based solver in [`crate::merge`] is exact for the additive
//! model; this independent stochastic optimiser exists to validate it (and
//! to handle any future non-additive extension). It walks over per-group
//! candidate indices, accepting cost increases with Boltzmann probability
//! and rejecting deadline violations via a quadratic penalty.

use crate::objective::{Constraint, Deadline};
use crate::{Candidate, Group};
use nm_device::KnobPoint;
use nm_sweep::ParallelSweep;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Monte-Carlo steps.
    pub steps: u32,
    /// Initial temperature as a fraction of the initial cost.
    pub initial_temperature: f64,
    /// Geometric cooling rate per step.
    pub cooling: f64,
    /// Penalty weight for deadline violation (per second of violation,
    /// squared, relative to the deadline).
    pub penalty: f64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            steps: 20_000,
            initial_temperature: 0.5,
            cooling: 0.9995,
            penalty: 1e3,
        }
    }
}

/// An annealed solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealSolution {
    /// Chosen knob pair per group.
    pub choice: Vec<KnobPoint>,
    /// Achieved total delay (seconds).
    pub delay: f64,
    /// Achieved total cost.
    pub cost: f64,
    /// `true` when the deadline is met.
    pub feasible: bool,
}

fn evaluate(groups: &[Group], idx: &[usize]) -> (f64, f64) {
    let mut delay = 0.0;
    let mut cost = 0.0;
    for (g, &i) in groups.iter().zip(idx) {
        let c: &Candidate = &g.candidates()[i];
        delay += c.delay;
        cost += c.cost;
    }
    (delay, cost)
}

/// Minimises total cost subject to `total delay ≤ deadline` by simulated
/// annealing. Deterministic for a given seed.
pub fn anneal(groups: &[Group], deadline: f64, config: AnnealConfig, seed: u64) -> AnnealSolution {
    anneal_under(groups, &Deadline(deadline), config, seed)
}

/// Minimises total cost subject to an arbitrary [`Constraint`] by
/// simulated annealing, penalising violations quadratically through
/// [`Constraint::violation`]. Deterministic for a given seed.
pub fn anneal_under<C: Constraint>(
    groups: &[Group],
    constraint: &C,
    config: AnnealConfig,
    seed: u64,
) -> AnnealSolution {
    assert!(!groups.is_empty(), "anneal needs at least one group");
    let mut rng = StdRng::seed_from_u64(seed);

    // Start from the slowest/cheapest candidate of each group if feasible,
    // else the fastest.
    let start_idx: Vec<usize> = groups
        .iter()
        .map(|g| {
            let cands = g.candidates();
            (0..cands.len())
                .min_by(|&a, &b| cands[a].delay.total_cmp(&cands[b].delay))
                .unwrap_or(0)
        })
        .collect();

    let objective = |idx: &[usize]| {
        let (delay, cost) = evaluate(groups, idx);
        let violation = constraint.violation(delay, cost);
        cost * (1.0 + config.penalty * violation * violation)
    };

    let mut idx = start_idx;
    let mut best_idx = idx.clone();
    let mut current = objective(&idx);
    let mut best = current;
    let mut temperature = current.max(1e-30) * config.initial_temperature;

    for _ in 0..config.steps {
        // Propose: re-pick one group's candidate uniformly.
        let g = rng.gen_range(0..groups.len());
        let old = idx[g];
        idx[g] = rng.gen_range(0..groups[g].candidates().len());
        let proposed = objective(&idx);
        let accept = proposed <= current || {
            let p = ((current - proposed) / temperature.max(1e-300)).exp();
            rng.gen::<f64>() < p
        };
        if accept {
            current = proposed;
            if proposed < best {
                let (delay, cost) = evaluate(groups, &idx);
                if constraint.satisfied(delay, cost) {
                    best = proposed;
                    best_idx = idx.clone();
                }
            }
        } else {
            idx[g] = old;
        }
        temperature *= config.cooling;
    }

    let (delay, cost) = evaluate(groups, &best_idx);
    AnnealSolution {
        choice: best_idx
            .iter()
            .zip(groups)
            .map(|(&i, g)| g.candidates()[i].knobs)
            .collect(),
        delay,
        cost,
        feasible: constraint.satisfied(delay, cost),
    }
}

/// Runs `restarts` independent annealing chains (seeds `seed`,
/// `seed + 1`, …) on the bounded executor and returns the best solution:
/// feasible beats infeasible, then lower cost wins, with ties broken by
/// the earliest seed so the result is deterministic for any worker count.
///
/// # Panics
///
/// Panics when `groups` is empty or `restarts == 0`.
#[allow(clippy::expect_used)] // fingerprinted in analyze.allow: restarts >= 1 asserted above
pub fn anneal_restarts(
    groups: &[Group],
    deadline: f64,
    config: AnnealConfig,
    seed: u64,
    restarts: usize,
) -> AnnealSolution {
    assert!(restarts >= 1, "anneal_restarts needs at least one restart");
    let seeds: Vec<u64> = (0..restarts as u64).map(|i| seed.wrapping_add(i)).collect();
    let solutions = ParallelSweep::new()
        .labeled("anneal-restarts")
        .map(&seeds, |&s| anneal(groups, deadline, config, s));
    solutions
        .into_iter()
        .reduce(|best, sol| {
            let better = (sol.feasible && !best.feasible)
                || (sol.feasible == best.feasible && sol.cost < best.cost);
            if better {
                sol
            } else {
                best
            }
        })
        .expect("at least one restart ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::best_under_deadline;
    use crate::merge::try_system_front;
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
    fn anneal_matches_exact_solver_within_tolerance() {
        let groups = vec![
            grid_group("a", 1.0),
            grid_group("b", 1.7),
            grid_group("c", 0.6),
        ];
        let front = try_system_front(&groups).expect("non-empty system");
        for deadline in [8.5, 10.0, 12.0] {
            let exact = best_under_deadline(&front, deadline).expect("feasible");
            let approx = anneal(&groups, deadline, AnnealConfig::default(), 42);
            assert!(approx.feasible, "deadline {deadline}");
            assert!(
                approx.cost >= exact.cost - 1e-9,
                "annealing beat the exact optimum?!"
            );
            assert!(
                approx.cost <= exact.cost * 1.05 + 1e-12,
                "deadline {deadline}: anneal {} vs exact {}",
                approx.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let groups = vec![grid_group("a", 1.0), grid_group("b", 2.0)];
        let a = anneal(&groups, 8.0, AnnealConfig::default(), 7);
        let b = anneal(&groups, 8.0, AnnealConfig::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn restarts_never_worse_than_single_run_and_deterministic() {
        let groups = vec![
            grid_group("a", 1.0),
            grid_group("b", 1.7),
            grid_group("c", 0.6),
        ];
        let single = anneal(&groups, 9.0, AnnealConfig::default(), 7);
        let multi = anneal_restarts(&groups, 9.0, AnnealConfig::default(), 7, 4);
        assert!(multi.feasible);
        assert!(
            multi.cost <= single.cost + 1e-12,
            "restarts {} worse than single {}",
            multi.cost,
            single.cost
        );
        // Deterministic regardless of worker count.
        for workers in [1, 3] {
            nm_sweep::set_global_workers(Some(workers));
            let again = anneal_restarts(&groups, 9.0, AnnealConfig::default(), 7, 4);
            assert_eq!(again, multi, "workers = {workers}");
        }
        nm_sweep::set_global_workers(None);
    }

    #[test]
    fn infeasible_deadline_reported() {
        let groups = vec![grid_group("a", 1.0)];
        let sol = anneal(&groups, 0.01, AnnealConfig::default(), 1);
        assert!(!sol.feasible);
    }

    #[test]
    fn anneal_under_deadline_matches_legacy_entry_point() {
        let groups = vec![grid_group("a", 1.0), grid_group("b", 2.0)];
        let legacy = anneal(&groups, 8.0, AnnealConfig::default(), 7);
        let traited = anneal_under(&groups, &Deadline(8.0), AnnealConfig::default(), 7);
        assert_eq!(legacy, traited);
    }

    #[test]
    fn anneal_under_cost_budget_meets_the_budget() {
        use crate::objective::CostBudget;
        let groups = vec![grid_group("a", 1.0), grid_group("b", 1.7)];
        let budget = 40.0;
        let sol = anneal_under(&groups, &CostBudget(budget), AnnealConfig::default(), 3);
        assert!(sol.feasible, "budget {budget} should be achievable");
        assert!(sol.cost <= budget + 1e-12, "cost {} over budget", sol.cost);
    }
}
