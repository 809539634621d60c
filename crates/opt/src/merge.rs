//! Exact system-front construction by pruned pairwise summation.
//!
//! For groups with additive delay and cost, the Pareto front of the whole
//! system is the pruned Minkowski sum of the group fronts. Pruning after
//! every pairwise merge keeps the intermediate fronts small, so the
//! overall cost is far below the naive product of group sizes while the
//! result stays exact: every non-dominated (delay, cost) combination
//! survives, each carrying the knob choice that achieves it.
//!
//! ## Merge mechanics
//!
//! Each pairwise merge streams the sum matrix through a min-heap instead
//! of materializing it. A pruned front is strictly ascending in delay and
//! strictly descending in cost, so for a fixed front point the sums over
//! the next group's candidates are already delay-sorted; a `(delay, cost,
//! row, column)`-keyed heap therefore pops the exact global sort order
//! (ties included) that sorting the full cross product would produce,
//! in O(F·G·log F) time and O(F) live memory.
//!
//! Survivors carry only a predecessor index into the previous merged
//! layer; per-point knob `choice` vectors are resolved once at the end by
//! walking the predecessor links ([`MergeBase::front`]), not cloned on
//! every keep.
//!
//! ## Incremental re-merge
//!
//! [`MergeBase`] retains every intermediate layer (cheaply, behind `Arc`).
//! When a system is re-merged and only a suffix of its groups changed —
//! the restricted solves of the deadline studies mutate one group at a
//! time — [`MergeBase::try_with_base`] reuses the longest unchanged prefix
//! of layers verbatim. Because each layer is a pure left-fold over the
//! pruned group fronts, a reused prefix is bit-identical to recomputing
//! it (float addition is reassociated nowhere).

use crate::pareto;
use crate::{Candidate, Group};
use nm_device::KnobPoint;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// One point of a system Pareto front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// Total system delay (sum of group delays), seconds.
    pub delay: f64,
    /// Total system cost (sum of group costs).
    pub cost: f64,
    /// The knob pair chosen for each group, in input order.
    pub choice: Vec<KnobPoint>,
}

/// A system had no groups to merge (e.g. a zero-level hierarchy spec
/// reaching the evaluation engine) — the one failure of
/// [`try_system_front`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySystemError;

impl fmt::Display for EmptySystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "system has no groups to merge")
    }
}

impl std::error::Error for EmptySystemError {}

/// The system front after folding in groups `0..=k`, index-based: point
/// `p` chose `knobs[p]` for group `k` and continues at `prev[p]` in the
/// previous layer.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    prev: Vec<u32>,
    knobs: Vec<KnobPoint>,
    delay: Vec<f64>,
    cost: Vec<f64>,
}

impl Layer {
    fn from_candidates(cands: &[Candidate]) -> Self {
        Layer {
            prev: vec![0; cands.len()],
            knobs: cands.iter().map(|c| c.knobs).collect(),
            delay: cands.iter().map(|c| c.delay).collect(),
            cost: cands.iter().map(|c| c.cost).collect(),
        }
    }

    fn len(&self) -> usize {
        self.delay.len()
    }
}

/// Heap key reproducing the seed merge's sort: `(delay, cost)` with ties
/// broken by the row-major enumeration order of the sum matrix.
struct HeapEntry {
    delay: f64,
    cost: f64,
    row: u32,
    col: u32,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.delay
            .total_cmp(&other.delay)
            .then(self.cost.total_cmp(&other.cost))
            .then(self.row.cmp(&other.row))
            .then(self.col.cmp(&other.col))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

/// Merges the next group's pruned candidates into a layer: an F×G-way
/// ordered stream of sums, kept when strictly cheaper than the last
/// survivor (exactly the seed's sort-then-scan on the materialized cross
/// product, without materializing it).
fn merge_step(prev: &Layer, cands: &[Candidate]) -> Layer {
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::with_capacity(prev.len());
    if cands.is_empty() {
        // A group whose candidates all pruned away (e.g. every one NaN)
        // contributes nothing combinable: the merged front is empty.
        return Layer {
            prev: Vec::new(),
            knobs: Vec::new(),
            delay: Vec::new(),
            cost: Vec::new(),
        };
    }
    for row in 0..prev.len() {
        heap.push(Reverse(HeapEntry {
            delay: prev.delay[row] + cands[0].delay,
            cost: prev.cost[row] + cands[0].cost,
            row: row as u32,
            col: 0,
        }));
    }
    let mut next = Layer {
        prev: Vec::new(),
        knobs: Vec::new(),
        delay: Vec::new(),
        cost: Vec::new(),
    };
    while let Some(Reverse(e)) = heap.pop() {
        let keep = match next.cost.last() {
            Some(&last) => e.cost < last,
            None => true,
        };
        if keep {
            next.prev.push(e.row);
            next.knobs.push(cands[e.col as usize].knobs);
            next.delay.push(e.delay);
            next.cost.push(e.cost);
        }
        let col = e.col as usize + 1;
        if col < cands.len() {
            let row = e.row as usize;
            heap.push(Reverse(HeapEntry {
                delay: prev.delay[row] + cands[col].delay,
                cost: prev.cost[row] + cands[col].cost,
                row: e.row,
                col: col as u32,
            }));
        }
    }
    next
}

/// A completed system merge retaining its intermediate layers, so a
/// subsequent merge over the same group prefix can resume mid-fold
/// instead of starting over.
#[derive(Debug, Clone)]
pub struct MergeBase {
    pruned: Vec<Vec<Candidate>>,
    layers: Vec<Arc<Layer>>,
}

impl MergeBase {
    /// Merges `groups` from scratch.
    pub fn try_new(groups: &[Group]) -> Result<Self, EmptySystemError> {
        Self::try_new_with_bases(groups, []).map(|(base, _)| base)
    }

    /// Merges `groups`, resuming from `base` where its group prefix is
    /// unchanged. Returns the new base and the number of reused layers.
    pub fn try_with_base(
        groups: &[Group],
        base: &MergeBase,
    ) -> Result<(Self, usize), EmptySystemError> {
        Self::try_new_with_bases(groups, [base])
    }

    /// Merges `groups`, resuming from whichever of `bases` shares the
    /// longest unchanged pruned-group prefix. Returns the new base and
    /// the number of layers reused from it (0 when merged from scratch).
    ///
    /// Reuse is decided on the **pruned** fronts, so a mutation that does
    /// not change a group's Pareto front still counts as unchanged.
    pub fn try_new_with_bases<'a, I>(
        groups: &[Group],
        bases: I,
    ) -> Result<(Self, usize), EmptySystemError>
    where
        I: IntoIterator<Item = &'a MergeBase>,
    {
        if groups.is_empty() {
            return Err(EmptySystemError);
        }
        let pruned: Vec<Vec<Candidate>> = groups
            .iter()
            .map(|g| g.pruned().candidates().to_vec())
            .collect();
        let mut best: Option<(&MergeBase, usize)> = None;
        for base in bases {
            let matched = base
                .pruned
                .iter()
                .zip(&pruned)
                .take_while(|(have, want)| have == want)
                .count();
            if matched > best.map_or(0, |(_, m)| m) {
                best = Some((base, matched));
            }
        }
        let mut layers: Vec<Arc<Layer>> = Vec::with_capacity(pruned.len());
        if let Some((base, matched)) = best {
            layers.extend(base.layers[..matched].iter().cloned());
        }
        let reused = layers.len();
        for k in reused..pruned.len() {
            let layer = if k == 0 {
                Layer::from_candidates(&pruned[0])
            } else {
                merge_step(&layers[k - 1], &pruned[k])
            };
            layers.push(Arc::new(layer));
        }
        Ok((MergeBase { pruned, layers }, reused))
    }

    /// Number of groups merged into this base.
    pub fn group_count(&self) -> usize {
        self.pruned.len()
    }

    /// Resolves the final layer into owned [`FrontPoint`]s by walking the
    /// predecessor links — the only place `choice` vectors are built.
    pub fn front(&self) -> Vec<FrontPoint> {
        let n_groups = self.layers.len();
        // A base always holds at least one layer (constructors reject
        // empty systems); an empty one yields an empty front.
        let Some(last) = self.layers.last() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(last.len());
        for p in 0..last.len() {
            let mut choice = vec![KnobPoint::nominal(); n_groups];
            let mut idx = p;
            for k in (0..n_groups).rev() {
                let layer = &self.layers[k];
                choice[k] = layer.knobs[idx];
                idx = layer.prev[idx] as usize;
            }
            out.push(FrontPoint {
                delay: last.delay[p],
                cost: last.cost[p],
                choice,
            });
        }
        out
    }
}

/// Computes the exact Pareto front of a system of additive groups.
///
/// The returned points are sorted by ascending delay with strictly
/// descending cost. Each point's `choice[i]` is the knob pair selected for
/// `groups[i]`.
///
/// # Errors
///
/// [`EmptySystemError`] when `groups` is empty — a system needs at least
/// one group.
pub fn try_system_front(groups: &[Group]) -> Result<Vec<FrontPoint>, EmptySystemError> {
    MergeBase::try_new(groups).map(|base| base.front())
}

/// Computes the front when every group is forced to share **one** knob
/// pair (the paper's Scheme III, or any fully tied study).
///
/// Candidates are matched across groups by knob equality, so all groups
/// must be built over the same grid.
///
/// # Panics
///
/// Panics when `groups` is empty.
pub fn tied_front(groups: &[Group]) -> Vec<FrontPoint> {
    assert!(!groups.is_empty(), "tied_front needs at least one group");
    let mut sums: Vec<Candidate> = groups[0].candidates().to_vec();
    for group in &groups[1..] {
        assert_eq!(
            group.candidates().len(),
            sums.len(),
            "tied groups must share one grid"
        );
        for (acc, c) in sums.iter_mut().zip(group.candidates()) {
            assert_eq!(acc.knobs, c.knobs, "tied groups must share one grid");
            acc.delay += c.delay;
            acc.cost += c.cost;
        }
    }
    pareto::prune(sums)
        .into_iter()
        .map(|c| FrontPoint {
            delay: c.delay,
            cost: c.cost,
            choice: vec![c.knobs; groups.len()],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::{Angstroms, Volts};

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    fn group(name: &str, points: &[(f64, f64, f64, f64)]) -> Group {
        Group::new(
            name,
            points
                .iter()
                .map(|&(vth, tox, d, c)| Candidate::new(k(vth, tox), d, c))
                .collect(),
        )
    }

    #[test]
    fn single_group_front_is_its_pruned_candidates() {
        let g = group(
            "a",
            &[
                (0.2, 10.0, 1.0, 5.0),
                (0.3, 10.0, 2.0, 1.0),
                (0.4, 10.0, 3.0, 2.0),
            ],
        );
        let f = try_system_front(&[g]).expect("non-empty system");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].choice.len(), 1);
    }

    #[test]
    fn two_group_merge_is_exhaustively_correct() {
        // Compare against brute force over all pairs.
        let ga = group(
            "a",
            &[
                (0.2, 10.0, 1.0, 9.0),
                (0.3, 10.0, 2.0, 4.0),
                (0.4, 10.0, 4.0, 1.0),
            ],
        );
        let gb = group(
            "b",
            &[
                (0.2, 12.0, 1.5, 7.0),
                (0.3, 12.0, 3.0, 2.0),
                (0.5, 12.0, 5.0, 0.5),
            ],
        );
        let front = try_system_front(&[ga.clone(), gb.clone()]).expect("non-empty system");

        // Brute force: every combination, then check front optimality for
        // every deadline.
        let mut combos = vec![];
        for a in ga.candidates() {
            for b in gb.candidates() {
                combos.push((a.delay + b.delay, a.cost + b.cost));
            }
        }
        for &(d, _) in &combos {
            let best_brute = combos
                .iter()
                .filter(|&&(dd, _)| dd <= d + 1e-12)
                .map(|&(_, cc)| cc)
                .fold(f64::INFINITY, f64::min);
            let best_front = front
                .iter()
                .filter(|p| p.delay <= d + 1e-12)
                .map(|p| p.cost)
                .fold(f64::INFINITY, f64::min);
            assert!(
                (best_brute - best_front).abs() < 1e-12,
                "deadline {d}: brute {best_brute} vs front {best_front}"
            );
        }
    }

    #[test]
    fn front_points_carry_consistent_choices() {
        let ga = group("a", &[(0.2, 10.0, 1.0, 9.0), (0.4, 10.0, 4.0, 1.0)]);
        let gb = group("b", &[(0.2, 12.0, 1.5, 7.0), (0.5, 12.0, 5.0, 0.5)]);
        let front = try_system_front(&[ga.clone(), gb.clone()]).expect("non-empty system");
        for p in &front {
            assert_eq!(p.choice.len(), 2);
            // Recompute delay/cost from the chosen candidates.
            let a = ga
                .candidates()
                .iter()
                .find(|c| c.knobs == p.choice[0])
                .unwrap();
            let b = gb
                .candidates()
                .iter()
                .find(|c| c.knobs == p.choice[1])
                .unwrap();
            assert!((a.delay + b.delay - p.delay).abs() < 1e-12);
            assert!((a.cost + b.cost - p.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn tied_front_shares_one_knob() {
        let ga = group("a", &[(0.2, 10.0, 1.0, 9.0), (0.4, 10.0, 4.0, 1.0)]);
        let gb = group("b", &[(0.2, 10.0, 1.5, 7.0), (0.4, 10.0, 5.0, 0.5)]);
        let front = tied_front(&[ga, gb]);
        for p in &front {
            assert_eq!(p.choice[0], p.choice[1]);
        }
        // (0.2): delay 2.5 cost 16; (0.4): delay 9 cost 1.5 — both survive.
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn untied_front_never_worse_than_tied() {
        let ga = group("a", &[(0.2, 10.0, 1.0, 9.0), (0.4, 10.0, 4.0, 1.0)]);
        let gb = group("b", &[(0.2, 10.0, 1.5, 7.0), (0.4, 10.0, 5.0, 0.5)]);
        let tied = tied_front(&[ga.clone(), gb.clone()]);
        let free = try_system_front(&[ga, gb]).expect("non-empty system");
        for t in &tied {
            let best_free = free
                .iter()
                .filter(|p| p.delay <= t.delay + 1e-12)
                .map(|p| p.cost)
                .fold(f64::INFINITY, f64::min);
            assert!(best_free <= t.cost + 1e-12);
        }
    }

    #[test]
    fn try_system_front_types_the_empty_case() {
        assert_eq!(try_system_front(&[]), Err(EmptySystemError));
        assert_eq!(
            EmptySystemError.to_string(),
            "system has no groups to merge"
        );
    }

    #[test]
    fn nan_candidate_is_dominated_out_not_a_crash() {
        // A NaN that slips past surface validation (raw struct literal,
        // the fault-injection route) must not panic the merge sort.
        let poisoned = Group::new(
            "poisoned",
            vec![
                Candidate::new(k(0.2, 10.0), 1.0, 9.0),
                Candidate {
                    knobs: k(0.3, 10.0),
                    delay: f64::NAN,
                    cost: 0.0,
                },
                Candidate::new(k(0.4, 10.0), 4.0, 1.0),
            ],
        );
        let clean = group("b", &[(0.2, 12.0, 1.5, 7.0), (0.5, 12.0, 5.0, 0.5)]);
        let front = try_system_front(&[poisoned, clean]).expect("non-empty system");
        assert!(!front.is_empty());
        for p in &front {
            assert!(p.delay.is_finite() && p.cost.is_finite());
            assert_ne!(p.choice[0], k(0.3, 10.0), "NaN candidate was chosen");
        }
    }

    #[test]
    fn incremental_merge_equals_full_merge() {
        let ga = group(
            "a",
            &[
                (0.2, 10.0, 1.0, 9.0),
                (0.3, 10.0, 2.0, 4.0),
                (0.4, 10.0, 4.0, 1.0),
            ],
        );
        let gb = group("b", &[(0.2, 12.0, 1.5, 7.0), (0.5, 12.0, 5.0, 0.5)]);
        let gc = group("c", &[(0.2, 14.0, 0.5, 3.0), (0.4, 14.0, 2.5, 0.25)]);
        let (base, _) =
            MergeBase::try_new_with_bases(&[ga.clone(), gb.clone(), gc.clone()], []).unwrap();

        // Mutate only the last group: the first two layers are reusable.
        let gc2 = group("c", &[(0.3, 14.0, 1.0, 2.0), (0.5, 14.0, 3.0, 0.1)]);
        let system = [ga.clone(), gb.clone(), gc2.clone()];
        let (incremental, reused) = MergeBase::try_with_base(&system, &base).unwrap();
        assert_eq!(reused, 2);
        assert_eq!(
            incremental.front(),
            try_system_front(&system).expect("non-empty system")
        );

        // Mutate the first group: nothing is reusable, result still equal.
        let ga2 = group("a", &[(0.25, 10.0, 1.2, 8.0), (0.45, 10.0, 4.5, 0.9)]);
        let system = [ga2, gb, gc];
        let (incremental, reused) = MergeBase::try_with_base(&system, &base).unwrap();
        assert_eq!(reused, 0);
        assert_eq!(
            incremental.front(),
            try_system_front(&system).expect("non-empty system")
        );
    }

    #[test]
    fn unchanged_system_reuses_every_layer() {
        let system = [
            group("a", &[(0.2, 10.0, 1.0, 9.0), (0.4, 10.0, 4.0, 1.0)]),
            group("b", &[(0.2, 12.0, 1.5, 7.0), (0.5, 12.0, 5.0, 0.5)]),
        ];
        let base = MergeBase::try_new(&system).unwrap();
        let (refreshed, reused) = MergeBase::try_with_base(&system, &base).unwrap();
        assert_eq!(reused, 2);
        assert_eq!(refreshed.group_count(), 2);
        assert_eq!(refreshed.front(), base.front());
    }

    #[test]
    fn best_base_among_several_is_chosen() {
        let ga = group("a", &[(0.2, 10.0, 1.0, 9.0), (0.4, 10.0, 4.0, 1.0)]);
        let gb = group("b", &[(0.2, 12.0, 1.5, 7.0), (0.5, 12.0, 5.0, 0.5)]);
        let gc = group("c", &[(0.2, 14.0, 0.5, 3.0), (0.4, 14.0, 2.5, 0.25)]);
        let other = group("x", &[(0.3, 11.0, 2.0, 2.0)]);
        let shallow = MergeBase::try_new(&[ga.clone(), other]).unwrap();
        let deep = MergeBase::try_new(&[ga.clone(), gb.clone(), gc.clone()]).unwrap();
        let system = [ga, gb, gc];
        let (merged, reused) = MergeBase::try_new_with_bases(&system, [&shallow, &deep]).unwrap();
        assert_eq!(reused, 3);
        assert_eq!(
            merged.front(),
            try_system_front(&system).expect("non-empty system")
        );
    }
}
