//! Pareto-dominance pruning on (delay, cost) candidate sets.

use crate::Candidate;

/// Sorts candidates by delay and removes every dominated one (another
/// candidate at most as slow and strictly cheaper, or at most as
/// expensive and strictly faster).
///
/// The result is sorted by ascending delay with strictly descending
/// cost, which is what [`crate::constraint::best_under_deadline`]
/// and [`crate::constraint::fastest_under_budget`] binary-search over.
/// Exact ties in both metrics keep the first occurrence.
///
/// NaN candidates (a NaN delay or cost — constructible through raw
/// `Candidate` literals, e.g. by fault-injection surfaces) are treated as
/// dominated and dropped up front, so downstream merges only ever see a
/// total order; `total_cmp` keeps the sort itself panic-free either way.
pub fn prune(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
    candidates.retain(|c| !c.delay.is_nan() && !c.cost.is_nan());
    candidates.sort_by(|a, b| a.delay.total_cmp(&b.delay).then(a.cost.total_cmp(&b.cost)));
    let mut front: Vec<Candidate> = Vec::with_capacity(candidates.len());
    for c in candidates {
        match front.last() {
            Some(last) if c.cost >= last.cost => {
                // Slower (or equal) and at least as expensive: dominated.
            }
            _ => front.push(c),
        }
    }
    front
}

/// `true` when `a` dominates `b` (no worse on both axes, better on one).
pub fn dominates(a: &Candidate, b: &Candidate) -> bool {
    (a.delay <= b.delay && a.cost < b.cost) || (a.delay < b.delay && a.cost <= b.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::KnobPoint;

    fn c(delay: f64, cost: f64) -> Candidate {
        Candidate::new(KnobPoint::nominal(), delay, cost)
    }

    #[test]
    fn prune_keeps_frontier_sorted() {
        let front = prune(vec![c(3.0, 1.0), c(1.0, 3.0), c(2.0, 2.0), c(2.5, 2.5)]);
        assert_eq!(front.len(), 3);
        for w in front.windows(2) {
            assert!(w[0].delay < w[1].delay);
            assert!(w[0].cost > w[1].cost);
        }
    }

    #[test]
    fn prune_removes_dominated() {
        let front = prune(vec![c(1.0, 1.0), c(2.0, 2.0), c(0.5, 5.0)]);
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|p| p.delay != 2.0));
    }

    #[test]
    fn prune_handles_exact_ties() {
        let front = prune(vec![c(1.0, 1.0), c(1.0, 1.0), c(1.0, 2.0)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn prune_single_and_empty() {
        assert_eq!(prune(vec![]).len(), 0);
        assert_eq!(prune(vec![c(1.0, 1.0)]).len(), 1);
    }

    #[test]
    fn dominance_relation() {
        assert!(dominates(&c(1.0, 1.0), &c(2.0, 2.0)));
        assert!(dominates(&c(1.0, 1.0), &c(1.0, 2.0)));
        assert!(dominates(&c(1.0, 1.0), &c(2.0, 1.0)));
        assert!(!dominates(&c(1.0, 1.0), &c(1.0, 1.0)));
        assert!(!dominates(&c(1.0, 3.0), &c(2.0, 1.0)));
    }

    #[test]
    fn nan_candidates_are_dominated_out_not_a_crash() {
        // Raw literals bypass Candidate::new's finiteness assert — the
        // route a poisoned fault-injection surface takes.
        let nan_delay = Candidate {
            knobs: KnobPoint::nominal(),
            delay: f64::NAN,
            cost: 0.5,
        };
        let nan_cost = Candidate {
            knobs: KnobPoint::nominal(),
            delay: 0.5,
            cost: f64::NAN,
        };
        let front = prune(vec![c(2.0, 1.0), nan_delay, c(1.0, 2.0), nan_cost]);
        assert_eq!(front.len(), 2);
        assert!(front
            .iter()
            .all(|p| p.delay.is_finite() && p.cost.is_finite()));
    }

    #[test]
    fn all_nan_input_prunes_to_empty() {
        let nan = Candidate {
            knobs: KnobPoint::nominal(),
            delay: f64::NAN,
            cost: f64::NAN,
        };
        assert!(prune(vec![nan, nan]).is_empty());
    }

    #[test]
    fn no_front_point_dominates_another() {
        let front = prune(
            (0..100)
                .map(|i| {
                    let x = i as f64;
                    c((x * 7.3) % 13.0, (x * 3.1) % 11.0)
                })
                .collect(),
        );
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!dominates(a, b), "{i} dominates {j}");
                }
            }
        }
    }
}
