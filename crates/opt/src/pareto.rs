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
/// total order.
///
/// The sort runs on integer keys: `(delay, cost)` as `order_key`s
/// (the `total_cmp` order) then the input index, so it is total, and
/// an unstable sort of those keys orders candidates exactly as a stable
/// `total_cmp` sort would.
pub fn prune(candidates: &[Candidate]) -> Vec<Candidate> {
    let mut order: Vec<(u64, u64, u32)> = candidates
        .iter()
        .zip(0u32..)
        .filter(|(c, _)| !c.delay.is_nan() && !c.cost.is_nan())
        .map(|(c, i)| (order_key(c.delay), order_key(c.cost), i))
        .collect();
    order.sort_unstable();
    let mut front: Vec<Candidate> = Vec::new();
    for &(_, _, i) in &order {
        let c = candidates[i as usize];
        match front.last() {
            Some(last) if c.cost >= last.cost => {
                // Slower (or equal) and at least as expensive: dominated.
            }
            _ => front.push(c),
        }
    }
    // A `MergeBase` keeps every pruned front it merged for as long as
    // a memo keeps the base: hold no spare capacity.
    front.shrink_to_fit();
    front
}

/// Maps an `f64` to a `u64` whose unsigned order is the float's
/// `total_cmp` order: negative floats flip every bit, the rest flip only
/// the sign bit. The map is a bijection ([`from_order_key`] inverts it),
/// total over NaNs and infinities, and costs one shift and one xor.
pub(crate) fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The float whose [`order_key`] is `key`, bit for bit.
pub(crate) fn from_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ ((((!key as i64) >> 63) as u64) | (1 << 63)))
}

/// `true` when `a` dominates `b` (no worse on both axes, better on one).
pub fn dominates(a: &Candidate, b: &Candidate) -> bool {
    (a.delay <= b.delay && a.cost < b.cost) || (a.delay < b.delay && a.cost <= b.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::{Angstroms, Volts};
    use nm_device::KnobPoint;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn c(delay: f64, cost: f64) -> Candidate {
        Candidate::new(KnobPoint::nominal(), delay, cost)
    }

    /// The prune as a stable `total_cmp` sort followed by the scan.
    fn reference_prune(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
        candidates.retain(|c| !c.delay.is_nan() && !c.cost.is_nan());
        candidates.sort_by(|a, b| a.delay.total_cmp(&b.delay).then(a.cost.total_cmp(&b.cost)));
        let mut front: Vec<Candidate> = Vec::new();
        for c in candidates {
            if front.last().is_none_or(|last| c.cost < last.cost) {
                front.push(c);
            }
        }
        front
    }

    /// Up to 279 raw candidates, one per knob of the paper's 31 × 9 grid,
    /// whose metrics come from a small palette, so exact ties, signed
    /// zeros, infinities and NaNs are common. Inputs this long reach the
    /// unstable sort's general path, where equal keys would reorder.
    fn arb_tied_candidates() -> impl Strategy<Value = Vec<Candidate>> {
        const PALETTE: [f64; 8] = [f64::NAN, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, f64::INFINITY];
        prop::collection::vec((0usize..8, 0usize..8), 0..280).prop_map(|picks| {
            picks
                .iter()
                .enumerate()
                .map(|(i, &(d, c))| Candidate {
                    knobs: KnobPoint::new(
                        Volts(0.2 + 0.01 * (i % 31) as f64),
                        Angstroms(10.0 + 0.5 * (i / 31) as f64),
                    )
                    .unwrap(),
                    delay: PALETTE[d],
                    cost: PALETTE[c],
                })
                .collect()
        })
    }

    /// The `total_cmp` order of the floats with bit patterns `a`, `b`.
    fn float_order(a: u64, b: u64) -> Ordering {
        f64::from_bits(a).total_cmp(&f64::from_bits(b))
    }

    /// Asserts the keys of `a` and `b` compare as the floats do under
    /// `total_cmp`, and that each key inverts to its float bit for bit.
    fn assert_keys_agree(a: u64, b: u64) {
        let (ka, kb) = (order_key(f64::from_bits(a)), order_key(f64::from_bits(b)));
        assert_eq!(ka.cmp(&kb), float_order(a, b), "{a:#018x} vs {b:#018x}");
        assert_eq!(from_order_key(ka).to_bits(), a);
        assert_eq!(from_order_key(kb).to_bits(), b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Integer keys compare exactly as `total_cmp` does, for any two
        /// bit patterns and for a pattern against its nearest neighbours
        /// and its negation.
        #[test]
        fn order_key_matches_total_cmp(a in any::<u64>(), b in any::<u64>()) {
            assert_keys_agree(a, b);
            assert_keys_agree(a, a);
            assert_keys_agree(a, a.wrapping_add(1));
            assert_keys_agree(a, a.wrapping_sub(1));
            assert_keys_agree(a, a ^ (1 << 63));
        }

        /// The integer-keyed prune keeps exactly what a stable
        /// `total_cmp` sort and scan keep, knobs included.
        #[test]
        fn prune_matches_the_stable_sort(cands in arb_tied_candidates()) {
            prop_assert_eq!(prune(&cands), reference_prune(cands.clone()));
        }
    }

    #[test]
    fn order_key_pins_the_total_order() {
        let ascending = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NAN,
        ];
        for (i, a) in ascending.iter().enumerate() {
            for (j, b) in ascending.iter().enumerate() {
                assert_eq!(order_key(*a).cmp(&order_key(*b)), i.cmp(&j), "{a} vs {b}");
                assert_keys_agree(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn prune_keeps_frontier_sorted() {
        let front = prune(&[c(3.0, 1.0), c(1.0, 3.0), c(2.0, 2.0), c(2.5, 2.5)]);
        assert_eq!(front.len(), 3);
        for w in front.windows(2) {
            assert!(w[0].delay < w[1].delay);
            assert!(w[0].cost > w[1].cost);
        }
    }

    #[test]
    fn prune_removes_dominated() {
        let front = prune(&[c(1.0, 1.0), c(2.0, 2.0), c(0.5, 5.0)]);
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|p| p.delay != 2.0));
    }

    #[test]
    fn prune_handles_exact_ties() {
        let front = prune(&[c(1.0, 1.0), c(1.0, 1.0), c(1.0, 2.0)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn prune_single_and_empty() {
        assert_eq!(prune(&[]).len(), 0);
        assert_eq!(prune(&[c(1.0, 1.0)]).len(), 1);
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
        let front = prune(&[c(2.0, 1.0), nan_delay, c(1.0, 2.0), nan_cost]);
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
        assert!(prune(&[nan, nan]).is_empty());
    }

    #[test]
    fn no_front_point_dominates_another() {
        let front = prune(
            &(0..100)
                .map(|i| {
                    let x = i as f64;
                    c((x * 7.3) % 13.0, (x * 3.1) % 11.0)
                })
                .collect::<Vec<_>>(),
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
