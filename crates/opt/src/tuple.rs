//! The (`nTox`, `nVth`) tuple-selection problem of the paper's Figure 2.
//!
//! A real process offers only a handful of distinct `Vth` implants and
//! oxide thicknesses. Figure 2 asks: how many of each are needed before
//! the memory system's energy/AMAT frontier stops improving? This module
//! enumerates every way to pick `n_vth` threshold voltages and `n_tox`
//! oxide thicknesses from a grid, solves the assignment problem under each
//! restriction, and keeps the best frontier.

use crate::merge::{try_system_front, EmptySystemError, FrontPoint};
use crate::objective::{Constraint, Deadline};
use crate::Group;
use serde::{Deserialize, Serialize};

/// All `k`-element combinations of `items` (lexicographic order).
///
/// ```
/// use nm_opt::tuple::combinations;
/// let c = combinations(&[1.0, 2.0, 3.0], 2);
/// assert_eq!(c, vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![2.0, 3.0]]);
/// ```
pub fn combinations(items: &[f64], k: usize) -> Vec<Vec<f64>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if k > items.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..k).collect();
    loop {
        out.push(indices.iter().map(|&i| items[i]).collect());
        // Advance the combination counter.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if indices[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        indices[i] += 1;
        for j in i + 1..k {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

/// The solution of one tuple-restricted optimisation at one deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleSolution {
    /// The chosen `Vth` value set.
    pub vths: Vec<f64>,
    /// The chosen `Tox` value set.
    pub toxes: Vec<f64>,
    /// The optimal front point under the restriction.
    pub point: FrontPoint,
}

/// Minimises system cost at each deadline when only `n_vth` distinct
/// threshold voltages and `n_tox` distinct oxide thicknesses may be used
/// (chosen freely from `vth_axis` / `tox_axis`, shared by all groups).
///
/// Returns, per deadline, the best solution over all value-set choices
/// (`None` for infeasible deadlines).
///
/// The cost is exponential in the axis sizes — callers use a coarse grid
/// (the paper's Figure 2 does the same; it reports small tuple counts).
///
/// # Errors
///
/// [`EmptySystemError`] when `groups` is empty.
pub fn optimize_with_tuple_counts(
    groups: &[Group],
    vth_axis: &[f64],
    tox_axis: &[f64],
    n_vth: usize,
    n_tox: usize,
    deadlines: &[f64],
) -> Result<Vec<Option<TupleSolution>>, EmptySystemError> {
    let constraints: Vec<Deadline> = deadlines.iter().map(|&d| Deadline(d)).collect();
    optimize_with_tuples(groups, vth_axis, tox_axis, n_vth, n_tox, &constraints)
}

/// The trait-based form of [`optimize_with_tuple_counts`]: minimises
/// system cost at each [`Constraint`] under the same value-count
/// restriction. Returns, per constraint, the best solution over all
/// value-set choices (`None` where infeasible).
///
/// # Errors
///
/// [`EmptySystemError`] when `groups` is empty.
pub fn optimize_with_tuples<C: Constraint>(
    groups: &[Group],
    vth_axis: &[f64],
    tox_axis: &[f64],
    n_vth: usize,
    n_tox: usize,
    constraints: &[C],
) -> Result<Vec<Option<TupleSolution>>, EmptySystemError> {
    let vth_sets = combinations(vth_axis, n_vth);
    let tox_sets = combinations(tox_axis, n_tox);
    let mut best: Vec<Option<TupleSolution>> = vec![None; constraints.len()];

    for vths in &vth_sets {
        for toxes in &tox_sets {
            // Restrict every group; skip value sets that empty any group.
            let restricted: Option<Vec<Group>> =
                groups.iter().map(|g| g.restricted(vths, toxes)).collect();
            let Some(restricted) = restricted else {
                continue;
            };
            let front = try_system_front(&restricted)?;
            for (slot, constraint) in best.iter_mut().zip(constraints) {
                if let Some(point) = constraint.select(&front) {
                    let better = match slot {
                        Some(existing) => point.cost < existing.point.cost,
                        None => true,
                    };
                    if better {
                        *slot = Some(TupleSolution {
                            vths: vths.clone(),
                            toxes: toxes.clone(),
                            point: point.clone(),
                        });
                    }
                }
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Candidate;
    use nm_device::units::{Angstroms, Volts};
    use nm_device::KnobPoint;

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    /// A synthetic group over a tiny grid where delay falls with low Vth
    /// and cost falls with high Vth/Tox.
    fn grid_group(name: &str, scale: f64) -> Group {
        let mut cands = Vec::new();
        for &vth in &[0.2, 0.35, 0.5] {
            for &tox in &[10.0, 12.0, 14.0] {
                let delay = scale * (1.0 + 2.0 * vth + 0.05 * tox);
                let cost = scale * ((-10.0 * vth).exp() * 50.0 + (-(tox - 10.0)).exp() * 20.0);
                cands.push(Candidate::new(k(vth, tox), delay, cost));
            }
        }
        Group::new(name, cands)
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(&[1.0, 2.0, 3.0, 4.0], 2).len(), 6);
        assert_eq!(combinations(&[1.0, 2.0, 3.0], 3).len(), 1);
        assert_eq!(combinations(&[1.0], 2).len(), 0);
        assert_eq!(combinations(&[1.0, 2.0], 0), vec![Vec::<f64>::new()]);
    }

    #[test]
    fn more_values_never_hurt() {
        let groups = vec![grid_group("a", 1.0), grid_group("b", 2.0)];
        let vth_axis = [0.2, 0.35, 0.5];
        let tox_axis = [10.0, 12.0, 14.0];
        let deadlines = [6.0, 8.0, 10.0];
        let one = optimize_with_tuple_counts(&groups, &vth_axis, &tox_axis, 1, 1, &deadlines)
            .expect("non-empty system");
        let two = optimize_with_tuple_counts(&groups, &vth_axis, &tox_axis, 2, 2, &deadlines)
            .expect("non-empty system");
        let full = optimize_with_tuple_counts(&groups, &vth_axis, &tox_axis, 3, 3, &deadlines)
            .expect("non-empty system");
        for i in 0..deadlines.len() {
            if let (Some(a), Some(b)) = (&one[i], &two[i]) {
                assert!(b.point.cost <= a.point.cost + 1e-12, "deadline {i}");
            }
            if let (Some(b), Some(c)) = (&two[i], &full[i]) {
                assert!(c.point.cost <= b.point.cost + 1e-12, "deadline {i}");
            }
        }
    }

    #[test]
    fn tuple_solution_respects_value_counts() {
        let groups = vec![grid_group("a", 1.0), grid_group("b", 2.0)];
        let sols = optimize_with_tuple_counts(
            &groups,
            &[0.2, 0.35, 0.5],
            &[10.0, 12.0, 14.0],
            2,
            1,
            &[8.0],
        )
        .expect("non-empty system");
        let sol = sols[0].as_ref().expect("feasible");
        assert_eq!(sol.vths.len(), 2);
        assert_eq!(sol.toxes.len(), 1);
        for p in &sol.point.choice {
            assert!(sol.vths.iter().any(|&v| (p.vth().0 - v).abs() < 1e-9));
            assert!(sol.toxes.iter().any(|&t| (p.tox().0 - t).abs() < 1e-9));
        }
    }

    #[test]
    fn empty_system_is_a_typed_error() {
        let sols = optimize_with_tuple_counts(&[], &[0.2], &[10.0], 1, 1, &[1.0]);
        assert_eq!(sols, Err(EmptySystemError));
    }

    #[test]
    fn infeasible_deadline_is_none() {
        let groups = vec![grid_group("a", 1.0)];
        let sols = optimize_with_tuple_counts(
            &groups,
            &[0.2, 0.35, 0.5],
            &[10.0, 12.0, 14.0],
            1,
            1,
            &[0.1],
        )
        .expect("non-empty system");
        assert!(sols[0].is_none());
    }
}
