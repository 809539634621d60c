//! # nm-opt — discrete `Vth`/`Tox` assignment optimisation
//!
//! The paper (Section 4) formulates leakage minimisation under a delay
//! constraint as a nonlinear program over per-component (`Vth`, `Tox`)
//! pairs, solved over "discrete values with small step size". This crate
//! provides exact solvers for that discrete problem, exploiting the
//! paper's own structural assumption — component delays and leakages are
//! independent and **additive**:
//!
//! * a [`Candidate`] is one knob pair's `(delay, cost)` for a *group* of
//!   components sharing that pair;
//! * [`pareto::prune`] discards dominated candidates;
//! * [`merge::try_system_front`] combines groups into the exact Pareto front
//!   of the whole system by pruned pairwise summation — every point of the
//!   front carries the knob choice that achieves it;
//! * [`constraint::best_under_deadline`] reads the optimum off the front
//!   for any delay constraint;
//! * [`mod@objective`] names the [`Constraint`](objective::Constraint)
//!   role every solver consumes — studies describe *what* they optimise,
//!   never *how*;
//! * [`mod@tuple`] enumerates the value sets of the paper's Figure 2
//!   (`nTox`, `nVth`) restrictions, which the evaluation engine solves
//!   over with [`Group::restricted`];
//! * [`budget`] is a delay-budget dynamic program — an independent,
//!   deterministic cross-check of the merge, exact up to its budget
//!   quantisation.
//!
//! The three assignment schemes of Section 4 map onto groups directly:
//! Scheme I gives each component its own group; Scheme II groups the cell
//! array apart from the periphery; Scheme III puts everything in one
//! group.
//!
//! ```
//! use nm_opt::{Candidate, Group};
//! use nm_opt::merge::try_system_front;
//! use nm_opt::constraint::best_under_deadline;
//! use nm_device::KnobPoint;
//!
//! // Two trivial groups with a fast/expensive and slow/cheap candidate.
//! let mk = |d: f64, c: f64| Candidate::new(KnobPoint::nominal(), d, c);
//! let g = Group::new("g", vec![mk(1.0, 10.0), mk(2.0, 1.0)]);
//! let front = try_system_front(&[g.clone(), g]).unwrap();
//! let best = best_under_deadline(&front, 3.0).unwrap();
//! assert_eq!(best.cost, 11.0); // one fast + one slow
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod constraint;
pub mod merge;
pub mod objective;
pub mod pareto;
pub mod tuple;

use nm_device::KnobPoint;
use std::fmt;

/// One knob pair's evaluation for a component group: the group's summed
/// delay contribution and summed cost (leakage power or energy — the
/// solver is unit-agnostic, costs only need to be additive and
/// non-negative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The knob pair that produced this evaluation.
    pub knobs: KnobPoint,
    /// Delay contribution in seconds (pre-weighted by the caller where
    /// the system objective weights it, e.g. L2 delay by the L1 miss
    /// rate in an AMAT study).
    pub delay: f64,
    /// Additive cost (e.g. leakage watts, or energy joules).
    pub cost: f64,
}

impl Candidate {
    /// Creates a candidate.
    ///
    /// # Panics
    ///
    /// Panics when delay or cost is negative or non-finite — candidates
    /// come from physical models and must be well-formed.
    pub fn new(knobs: KnobPoint, delay: f64, cost: f64) -> Self {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "candidate delay must be finite and non-negative, got {delay}"
        );
        assert!(
            cost.is_finite() && cost >= 0.0,
            "candidate cost must be finite and non-negative, got {cost}"
        );
        Candidate { knobs, delay, cost }
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} delay={:.3e}s cost={:.3e}",
            self.knobs, self.delay, self.cost
        )
    }
}

/// A named set of candidates for one knob-sharing component group, one
/// candidate per surviving grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    name: String,
    candidates: Vec<Candidate>,
}

impl Group {
    /// Creates a group from raw candidates.
    ///
    /// # Panics
    ///
    /// Panics when `candidates` is empty — an empty group would make the
    /// whole system infeasible and always indicates a caller bug.
    pub fn new(name: impl Into<String>, candidates: Vec<Candidate>) -> Self {
        assert!(
            !candidates.is_empty(),
            "a group needs at least one candidate"
        );
        Group {
            name: name.into(),
            candidates,
        }
    }

    /// Group name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidate list.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Returns this group restricted to candidates whose knob values are
    /// drawn from the given `Vth` and `Tox` value sets (used by the
    /// tuple-count experiments). Returns `None` if nothing survives.
    #[must_use]
    pub fn restricted(&self, vths: &[f64], toxes: &[f64]) -> Option<Group> {
        const EPS: f64 = 1e-9;
        let candidates: Vec<Candidate> = self
            .candidates
            .iter()
            .filter(|c| {
                vths.iter().any(|&v| (c.knobs.vth().0 - v).abs() < EPS)
                    && toxes.iter().any(|&t| (c.knobs.tox().0 - t).abs() < EPS)
            })
            .copied()
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(Group {
                name: self.name.clone(),
                candidates,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::{Angstroms, Volts};

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_delay_rejected() {
        let _ = Candidate::new(KnobPoint::nominal(), -1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_group_rejected() {
        let _ = Group::new("x", vec![]);
    }

    #[test]
    fn restriction_filters_by_value_sets() {
        let g = Group::new(
            "g",
            vec![
                Candidate::new(k(0.2, 10.0), 1.0, 1.0),
                Candidate::new(k(0.3, 10.0), 2.0, 2.0),
                Candidate::new(k(0.2, 14.0), 3.0, 3.0),
            ],
        );
        let r = g.restricted(&[0.2], &[10.0, 14.0]).unwrap();
        assert_eq!(r.candidates().len(), 2);
        assert!(g.restricted(&[0.4], &[10.0]).is_none());
    }

    #[test]
    fn display_shows_numbers() {
        let c = Candidate::new(k(0.2, 10.0), 1e-9, 2e-3);
        let s = c.to_string();
        assert!(s.contains("delay") && s.contains("cost"), "{s}");
    }
}
