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
//! Each pairwise merge is defined by a materialized reference: build
//! every `(row, column)` sum of the previous layer's points (rows) and
//! the next group's candidates (columns), sort by `(delay, cost, row,
//! column)` with `total_cmp`, and keep each sum strictly cheaper than the
//! last one kept. The merge produces exactly that layer without building
//! the matrix. A pruned front is strictly ascending in delay and strictly
//! descending in cost, and float addition is monotone, so along a row the
//! delay sums never fall and the cost sums never rise. A min-heap holding
//! at most one entry per row streams the sums in the reference order,
//! and three rules keep it from popping sums the scan would reject:
//!
//! * **Column skipping.** After a pop, a binary search over the row's
//!   remaining columns finds the first whose cost sum is below the last
//!   survivor's cost; that column replaces the popped entry, or the row
//!   retires when there is none. Survivor cost only falls, so every
//!   skipped sum would have been popped later and rejected.
//! * **Equal-delay runs.** Adjacent columns can round to the same delay
//!   sum. A run of them collapses to its cheapest column (first
//!   occurrence), which the reference sorts ahead of the rest of the
//!   run, so each row's heap keys strictly ascend and the merged layer
//!   never holds two points at one delay.
//! * **Lazy row admission.** Rows ascend in delay, so a row's column-0
//!   sum bounds its own sums and every later row's from below. A row
//!   enters the heap only once that sum is `<=` the delay at the heap
//!   top (delay alone: after rounding, a later row can tie the top's
//!   delay at a lower cost and must sort ahead of it), and it skips
//!   columns on entry. Nothing is skipped while there is no survivor
//!   yet.
//!
//! The heap is a flat binary min-heap of entries keyed by integers: the
//! delay and cost sums mapped once, on push, to `u64`s whose unsigned
//! order is the `total_cmp` order (`pareto::order_key`), compared as one
//! `u128`, with ties broken by row alone (the heap never holds two
//! entries for one row, so the column never decides). A pop that does not
//! retire its row writes the row's next entry over the top and sifts it
//! down once, instead of a pop followed by a push.
//!
//! Every pop either keeps a survivor or rejects a *stale* entry: one
//! whose cost was below the last survivor's when it was pushed, but no
//! longer is when it reaches the top, because the survivors kept in
//! between cost less. Stale pops dominate on wide fronts. Averaged over
//! `cold_split`'s timed queries (seed 1), the third step (605 rows × 58
//! columns) pops 4,966 entries to keep 1,289 survivors, and a whole
//! query pops 6,732 to keep 2,120. Each pop pays one binary search and
//! one sift over a heap of a few dozen rows, so the cost still follows
//! the output front, not the F×G sum matrix. [`MergeBase::heap_pops`]
//! reports the pops.
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
//! a spec that shares its leading levels with one merged before —
//! [`MergeBase::try_new_with_bases`] reuses the longest unchanged prefix
//! of layers verbatim. Because each layer is a pure left-fold over the
//! pruned group fronts, a reused prefix is bit-identical to recomputing
//! it (float addition is reassociated nowhere).

use crate::pareto::{self, from_order_key, order_key};
use crate::{Candidate, Group};
use nm_device::KnobPoint;
use std::fmt;
use std::sync::Arc;

/// One point of a system Pareto front.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// One row's next candidate sum, keyed in the reference sort order:
/// `(delay, cost)` under `total_cmp` as [`order_key`]s, with ties broken
/// by row. The heap never holds two entries for one row, so the column
/// never decides.
#[derive(Clone, Copy)]
struct HeapEntry {
    delay: u64,
    cost: u64,
    row: u32,
    col: u32,
}

impl HeapEntry {
    fn key(&self) -> (u128, u32) {
        ((self.delay as u128) << 64 | self.cost as u128, self.row)
    }
}

/// A binary min-heap of [`HeapEntry`]s in one flat array. Besides push
/// and pop it replaces its top in place with a single sift-down: the step
/// a pop takes when its row does not retire.
#[derive(Default)]
struct MinHeap {
    slots: Vec<HeapEntry>,
}

impl MinHeap {
    fn peek(&self) -> Option<&HeapEntry> {
        self.slots.first()
    }

    fn push(&mut self, entry: HeapEntry) {
        let mut hole = self.slots.len();
        self.slots.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if self.slots[parent].key() <= entry.key() {
                break;
            }
            self.slots[hole] = self.slots[parent];
            hole = parent;
        }
        self.slots[hole] = entry;
    }

    /// Writes `entry` over the top and sifts it down to its place; on an
    /// empty heap `entry` becomes the only entry.
    fn replace_top(&mut self, entry: HeapEntry) {
        let len = self.slots.len();
        if len == 0 {
            self.slots.push(entry);
            return;
        }
        let mut hole = 0;
        loop {
            let mut child = 2 * hole + 1;
            if child >= len {
                break;
            }
            if child + 1 < len {
                child += usize::from(self.slots[child + 1].key() < self.slots[child].key());
            }
            if entry.key() <= self.slots[child].key() {
                break;
            }
            self.slots[hole] = self.slots[child];
            hole = child;
        }
        self.slots[hole] = entry;
    }

    /// Removes the top; a no-op on an empty heap.
    fn pop_top(&mut self) {
        if let Some(last) = self.slots.pop() {
            if !self.slots.is_empty() {
                self.replace_top(last);
            }
        }
    }
}

/// The entry for `row` at its first column from `from` on that could
/// still survive, or `None` when the row is spent: columns whose cost sum
/// is not below `bound` (the last survivor's cost) are skipped, and an
/// equal-delay run collapses to its cheapest column.
fn row_entry(
    prev: &Layer,
    cands: &[Candidate],
    row: usize,
    from: usize,
    bound: Option<f64>,
) -> Option<HeapEntry> {
    let (row_delay, row_cost) = (prev.delay[row], prev.cost[row]);
    let rest = cands.get(from..)?;
    let skip = bound.map_or(0, |bound| {
        rest.partition_point(|c| row_cost + c.cost >= bound)
    });
    let (first, run) = rest.get(skip..)?.split_first()?;
    let delay = row_delay + first.delay;
    let (mut cost, mut col) = (row_cost + first.cost, from + skip);
    for (offset, c) in run.iter().enumerate() {
        if (row_delay + c.delay).total_cmp(&delay).is_ne() {
            break;
        }
        let run_cost = row_cost + c.cost;
        if run_cost.total_cmp(&cost).is_lt() {
            (cost, col) = (run_cost, from + skip + 1 + offset);
        }
    }
    Some(HeapEntry {
        delay: order_key(delay),
        cost: order_key(cost),
        row: row as u32,
        col: col as u32,
    })
}

/// Merges the next group's pruned candidates into a layer, returning it
/// with the number of heap pops it took. The layer equals the reference
/// sort-then-scan over the materialized sum matrix (module docs); the
/// heap pops only the sums that scan could keep.
fn merge_step(prev: &Layer, cands: &[Candidate]) -> (Layer, u64) {
    let mut next = Layer::default();
    // A group whose candidates all pruned away (e.g. every one NaN)
    // contributes nothing combinable: the merged front is empty.
    let Some(head) = cands.first() else {
        return (next, 0);
    };
    let mut heap = MinHeap::default();
    let mut pops = 0u64;
    // Rows ascend in delay and no sum of a row is faster than its
    // column-0 sum, so rows whose column-0 delay exceeds the top's can
    // wait: the top sorts ahead of every sum they hold.
    let admit_key = |row: usize| prev.delay.get(row).map(|&d| order_key(d + head.delay));
    let mut admitted = 0;
    let mut waiting = admit_key(0);
    loop {
        while waiting.is_some_and(|key| heap.peek().is_none_or(|top| key <= top.delay)) {
            let bound = next.cost.last().copied();
            if let Some(entry) = row_entry(prev, cands, admitted, 0, bound) {
                heap.push(entry);
            }
            admitted += 1;
            waiting = admit_key(admitted);
        }
        let Some(&top) = heap.peek() else {
            break;
        };
        pops += 1;
        let cost = from_order_key(top.cost);
        if next.cost.last().is_none_or(|&last| cost < last) {
            next.prev.push(top.row);
            next.knobs.push(cands[top.col as usize].knobs);
            next.delay.push(from_order_key(top.delay));
            next.cost.push(cost);
        }
        // The popped row's next entry takes its place at the top, or the
        // row retires.
        let bound = next.cost.last().copied();
        match row_entry(prev, cands, top.row as usize, top.col as usize + 1, bound) {
            Some(entry) => heap.replace_top(entry),
            None => heap.pop_top(),
        }
    }
    (next, pops)
}

/// A completed system merge retaining its intermediate layers, so a
/// subsequent merge over the same group prefix can resume mid-fold
/// instead of starting over.
#[derive(Debug, Clone)]
pub struct MergeBase {
    pruned: Vec<Vec<Candidate>>,
    layers: Vec<Arc<Layer>>,
    heap_pops: u64,
}

impl MergeBase {
    /// Merges `groups` from scratch.
    pub fn try_new(groups: &[Group]) -> Result<Self, EmptySystemError> {
        Self::try_new_with_bases(groups, []).map(|(base, _)| base)
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
            .map(|g| pareto::prune(g.candidates()))
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
        let mut heap_pops = 0;
        for k in reused..pruned.len() {
            let layer = if k == 0 {
                Layer::from_candidates(&pruned[0])
            } else {
                let (layer, pops) = merge_step(&layers[k - 1], &pruned[k]);
                heap_pops += pops;
                layer
            };
            layers.push(Arc::new(layer));
        }
        Ok((
            MergeBase {
                pruned,
                layers,
                heap_pops,
            },
            reused,
        ))
    }

    /// Number of groups merged into this base.
    pub fn group_count(&self) -> usize {
        self.pruned.len()
    }

    /// Heap pops spent on the layers this base merged itself; layers
    /// reused from another base count nothing.
    pub fn heap_pops(&self) -> u64 {
        self.heap_pops
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
/// The returned points strictly ascend in delay and strictly descend in
/// cost. Each point's `choice[i]` is the knob pair selected for
/// `groups[i]`.
///
/// # Errors
///
/// [`EmptySystemError`] when `groups` is empty — a system needs at least
/// one group.
pub fn try_system_front(groups: &[Group]) -> Result<Vec<FrontPoint>, EmptySystemError> {
    MergeBase::try_new(groups).map(|base| base.front())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::fastest_under_budget;
    use crate::pareto;
    use nm_device::units::{Angstroms, Volts};
    use proptest::prelude::*;

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

    /// The front when every group shares one knob pair (a fully tied
    /// system), matched across groups by knob equality.
    fn tied_front(groups: &[Group]) -> Vec<FrontPoint> {
        let mut sums: Vec<Candidate> = groups[0].candidates().to_vec();
        for group in &groups[1..] {
            for (acc, c) in sums.iter_mut().zip(group.candidates()) {
                assert_eq!(acc.knobs, c.knobs, "tied groups must share one grid");
                acc.delay += c.delay;
                acc.cost += c.cost;
            }
        }
        pareto::prune(&sums)
            .into_iter()
            .map(|c| FrontPoint {
                delay: c.delay,
                cost: c.cost,
                choice: vec![c.knobs; groups.len()],
            })
            .collect()
    }

    /// The reference merge: materialize every `(row, column)` sum, sort
    /// by `(delay, cost, row, column)` with `total_cmp`, and keep each sum
    /// strictly cheaper than the last one kept.
    fn oracle_step(prev: &Layer, cands: &[Candidate]) -> Layer {
        let mut cells = Vec::with_capacity(prev.len() * cands.len());
        for row in 0..prev.len() {
            for (col, c) in cands.iter().enumerate() {
                cells.push((prev.delay[row] + c.delay, prev.cost[row] + c.cost, row, col));
            }
        }
        cells.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        let mut next = Layer::default();
        for (delay, cost, row, col) in cells {
            if next.cost.last().is_none_or(|&last| cost < last) {
                next.prev.push(row as u32);
                next.knobs.push(cands[col].knobs);
                next.delay.push(delay);
                next.cost.push(cost);
            }
        }
        next
    }

    /// A layer with its metrics as raw bits, for bit-exact comparison.
    fn layer_bits(layer: &Layer) -> (Vec<u32>, Vec<KnobPoint>, Vec<u64>, Vec<u64>) {
        (
            layer.prev.clone(),
            layer.knobs.clone(),
            layer.delay.iter().map(|d| d.to_bits()).collect(),
            layer.cost.iter().map(|c| c.to_bits()).collect(),
        )
    }

    /// Asserts every layer of a fresh merge of `groups` equals the
    /// reference fold, bit for bit, and returns the largest layer's size.
    fn assert_matches_oracle(groups: &[Group]) -> usize {
        let base = MergeBase::try_new(groups).expect("non-empty system");
        let mut want = Layer::from_candidates(&base.pruned[0]);
        assert_eq!(layer_bits(&base.layers[0]), layer_bits(&want));
        for k in 1..groups.len() {
            want = oracle_step(&want, &base.pruned[k]);
            assert_eq!(layer_bits(&base.layers[k]), layer_bits(&want), "layer {k}");
        }
        base.layers
            .iter()
            .map(|layer| layer.len())
            .max()
            .unwrap_or(0)
    }

    /// A distinct knob for each `i` below 279 (the paper's 31 × 9 grid).
    fn knob_at(i: usize) -> KnobPoint {
        k(0.2 + 0.01 * (i % 31) as f64, 10.0 + 0.5 * (i / 31) as f64)
    }

    /// 2–4 groups with delays and costs spread over many octaves.
    fn arb_spread_system() -> impl Strategy<Value = Vec<Group>> {
        let group = prop::collection::vec((-12.0f64..12.0, -12.0f64..12.0), 1..=12);
        prop::collection::vec(group, 2..=4).prop_map(|groups| {
            groups
                .into_iter()
                .map(|points| {
                    let cands = points
                        .iter()
                        .enumerate()
                        .map(|(i, &(d, c))| Candidate::new(knob_at(i), d.exp2(), c.exp2()))
                        .collect();
                    Group::new("spread", cands)
                })
                .collect()
        })
    }

    /// 2–4 groups whose sums collide at ulp scale: the first group's
    /// delays are `1 + k·ε`, the others' `j·0.3ε`. Costs are multiples of
    /// 1/4, so cost sums tie exactly, except that a later group may draw
    /// ulp-scale costs (multiples of 0.6ε), whose sums round onto each
    /// other.
    fn arb_colliding_system() -> impl Strategy<Value = Vec<Group>> {
        let group = (
            prop::bool::ANY,
            prop::collection::vec((0u32..8, 1u32..24), 1..=12),
        );
        prop::collection::vec(group, 2..=4).prop_map(|groups| {
            groups
                .into_iter()
                .enumerate()
                .map(|(g, (fine, points))| {
                    let (delay_base, delay_step) = match g {
                        0 => (1.0, f64::EPSILON),
                        _ => (0.0, 0.3 * f64::EPSILON),
                    };
                    let cost_step = match g {
                        0 => 0.25,
                        _ if fine => 0.6 * f64::EPSILON,
                        _ => 0.25,
                    };
                    let cands = points
                        .iter()
                        .enumerate()
                        .map(|(i, &(step, quanta))| {
                            let delay = delay_base + f64::from(step) * delay_step;
                            Candidate::new(knob_at(i), delay, f64::from(quanta) * cost_step)
                        })
                        .collect();
                    Group::new("colliding", cands)
                })
                .collect()
        })
    }

    /// Running sums of `steps`: strictly ascending when every step is
    /// positive and large against the sums' ulp.
    fn running_sums(origin: f64, steps: impl Iterator<Item = f64>) -> Vec<f64> {
        steps
            .scan(origin, |sum, step| {
                *sum += step;
                Some(*sum)
            })
            .collect()
    }

    /// A group whose candidates are exactly the given strictly ascending
    /// delays and strictly descending costs, so all of them survive the
    /// prune.
    fn monotone_group(delays: &[f64], costs: &[f64]) -> Group {
        let cands = delays
            .iter()
            .zip(costs)
            .enumerate()
            .map(|(i, (&d, &c))| Candidate::new(knob_at(i), d, c))
            .collect();
        Group::new("monotone", cands)
    }

    /// Four strictly monotone fronts of 40–80 points each, at
    /// `cold_split`'s scale: the merged layers grow into the hundreds.
    /// Steps spread over two octaves, so the fronts bend both ways.
    fn arb_wide_system() -> impl Strategy<Value = Vec<Group>> {
        let group = (
            0.0f64..100.0,
            prop::collection::vec((0.5f64..2.0, 0.5f64..2.0), 40..=80),
        );
        prop::collection::vec(group, 4..=4).prop_map(|groups| {
            groups
                .into_iter()
                .map(|(origin, steps)| {
                    let delays = running_sums(origin, steps.iter().map(|s| s.0));
                    let mut costs = running_sums(0.0, steps.iter().rev().map(|s| s.1));
                    costs.reverse();
                    monotone_group(&delays, &costs)
                })
                .collect()
        })
    }

    /// [`arb_wide_system`] with ulp-scale delays: the first group's delays
    /// are `1 + k·ε`, the others' `k·0.3ε`, for strictly ascending `k`, so
    /// delay sums tie after rounding across many rows. Costs are strictly
    /// descending multiples of 1/4, so cost sums tie exactly too.
    fn arb_wide_colliding_system() -> impl Strategy<Value = Vec<Group>> {
        let group = prop::collection::vec((1u32..4, 1u32..4), 40..=80);
        prop::collection::vec(group, 4..=4).prop_map(|groups| {
            groups
                .into_iter()
                .enumerate()
                .map(|(g, steps)| {
                    let (origin, unit) = match g {
                        0 => (1.0, f64::EPSILON),
                        _ => (0.0, 0.3 * f64::EPSILON),
                    };
                    let ticks = running_sums(0.0, steps.iter().map(|s| f64::from(s.0)));
                    let delays: Vec<f64> = ticks.iter().map(|t| origin + t * unit).collect();
                    let mut quanta = running_sums(0.0, steps.iter().rev().map(|s| f64::from(s.1)));
                    quanta.reverse();
                    let costs: Vec<f64> = quanta.iter().map(|q| q * 0.25).collect();
                    monotone_group(&delays, &costs)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every merged layer equals the materialized reference bit for
        /// bit on four wide, strictly monotone fronts.
        #[test]
        fn merge_matches_the_oracle_at_cold_split_scale(groups in arb_wide_system()) {
            let widest = assert_matches_oracle(&groups);
            prop_assert!(widest >= 200, "largest layer holds only {widest} points");
        }

        /// Every merged layer equals the materialized reference bit for
        /// bit on four wide fronts whose sums collide at ulp scale.
        #[test]
        fn merge_matches_the_oracle_on_wide_colliding_fronts(
            groups in arb_wide_colliding_system()
        ) {
            let widest = assert_matches_oracle(&groups);
            prop_assert!(widest >= 100, "largest layer holds only {widest} points");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every merged layer equals the materialized reference bit for
        /// bit, on widely spread fronts.
        #[test]
        fn merge_matches_the_oracle_on_spread_fronts(groups in arb_spread_system()) {
            assert_matches_oracle(&groups);
        }

        /// Every merged layer equals the materialized reference bit for
        /// bit when delay and cost sums collide after rounding.
        #[test]
        fn merge_matches_the_oracle_on_colliding_fronts(groups in arb_colliding_system()) {
            assert_matches_oracle(&groups);
        }
    }

    #[test]
    fn equal_delay_sums_keep_only_the_cheapest() {
        // Both rows hold columns whose delay sums round to one value; the
        // reference keeps the cheapest of each run and nothing else.
        let eps = f64::EPSILON;
        let ga = group("a", &[(0.2, 10.0, 1.0, 14.0), (0.3, 10.0, 1.0 + eps, 9.0)]);
        let gb = group(
            "b",
            &[
                (0.2, 12.0, 0.0, 7.0),
                (0.3, 12.0, 0.25 * eps, 2.4),
                (0.4, 12.0, 0.5 * eps, 1.0),
            ],
        );
        let front = try_system_front(&[ga, gb]).expect("non-empty system");
        let points: Vec<(f64, f64)> = front.iter().map(|p| (p.delay, p.cost)).collect();
        assert_eq!(
            points,
            [
                (1.0, 14.0 + 1.0),
                (1.0 + eps, 9.0 + 2.4),
                (1.0 + 2.0 * eps, 9.0 + 1.0)
            ]
        );
        assert_eq!(front[0].choice, [k(0.2, 10.0), k(0.4, 12.0)]);
        assert_eq!(front[1].choice, [k(0.3, 10.0), k(0.3, 12.0)]);
        let fastest = fastest_under_budget(&front, 21.0).expect("budget is feasible");
        assert_eq!((fastest.delay, fastest.cost), (1.0, 15.0));
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
        let (incremental, reused) = MergeBase::try_new_with_bases(&system, [&base]).unwrap();
        assert_eq!(reused, 2);
        assert_eq!(
            incremental.front(),
            try_system_front(&system).expect("non-empty system")
        );

        // Mutate the first group: nothing is reusable, result still equal.
        let ga2 = group("a", &[(0.25, 10.0, 1.2, 8.0), (0.45, 10.0, 4.5, 0.9)]);
        let system = [ga2, gb, gc];
        let (incremental, reused) = MergeBase::try_new_with_bases(&system, [&base]).unwrap();
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
        let (refreshed, reused) = MergeBase::try_new_with_bases(&system, [&base]).unwrap();
        assert_eq!(reused, 2);
        assert_eq!(refreshed.group_count(), 2);
        assert!(base.heap_pops() > 0);
        assert_eq!(refreshed.heap_pops(), 0, "reused layers pop nothing");
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
