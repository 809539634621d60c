//! N-level generalisation soundness: the technology axis and the derived
//! AMAT weights must be *pure generalisations* — an N=2, SRAM-only
//! hierarchy built through the new machinery is bit-for-bit the old
//! two-level pipeline. (The seven golden snapshots in
//! `tests/golden_tables.rs` pin the same contract end-to-end at the
//! rendered-table level, since every study now routes through
//! `HierarchySpec::try_amat_weights` and the `MultiLevel` simulator.)

use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::objective::Deadline;
use proptest::prelude::*;

fn sram_circuit(bytes: u64, ways: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::new(CacheConfig::new(bytes, 64, ways).unwrap(), &tech)
}

fn explicit_sram_circuit(bytes: u64, ways: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::with_technology(
        CacheConfig::new(bytes, 64, ways).unwrap(),
        &tech,
        TechProfile::sram(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chained weights `[1, m1, m1·m2, …]` never increase: deeper levels
    /// are reached no more often than shallower ones.
    #[test]
    fn amat_weights_monotone_non_increasing(
        rates in prop::collection::vec(0.0f64..=1.0, 0..6),
    ) {
        let w = HierarchySpec::try_amat_weights(&rates).unwrap();
        prop_assert_eq!(w.len(), rates.len() + 1);
        prop_assert_eq!(w[0], 1.0);
        for pair in w.windows(2) {
            prop_assert!(pair[1] <= pair[0], "weights rose: {pair:?}");
        }
    }

    /// For a two-level chain, the derived weights equal the constants the
    /// old pipeline passed by hand — exactly, not approximately.
    #[test]
    fn two_level_weights_equal_the_hand_passed_constants(m1 in 0.0f64..=1.0) {
        let w = HierarchySpec::try_amat_weights(&[m1]).unwrap();
        prop_assert_eq!(w[0].to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(w[1].to_bits(), m1.to_bits());
    }
}

/// An N=2 SRAM-only spec built through the technology-aware constructor
/// and derived weights produces bitwise-identical fronts and optima to
/// the pre-refactor construction (plain circuits, hand-passed weights).
#[test]
fn sram_two_level_spec_is_bitwise_identical_to_the_old_construction() {
    let grid = KnobGrid::coarse();
    let m1 = 0.0517;

    let old_spec = HierarchySpec::new()
        .level(
            "L1",
            sram_circuit(16 * 1024, 4),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        )
        .level(
            "L2",
            sram_circuit(256 * 1024, 8),
            Scheme::Split,
            m1,
            CostKind::LeakagePower,
        );

    let weights = HierarchySpec::try_amat_weights(&[m1]).unwrap();
    let new_spec = HierarchySpec::new()
        .level(
            "L1",
            explicit_sram_circuit(16 * 1024, 4),
            Scheme::Split,
            weights[0],
            CostKind::LeakagePower,
        )
        .level(
            "L2",
            explicit_sram_circuit(256 * 1024, 8),
            Scheme::Split,
            weights[1],
            CostKind::LeakagePower,
        );

    // Same groups (including names: identity profiles must not rename),
    // same front, same constrained optima — all on separate evaluators so
    // nothing is shared by accident.
    let old_eval = Evaluator::new(grid.clone());
    let new_eval = Evaluator::new(grid);
    assert_eq!(
        old_eval.try_groups(&old_spec).expect("healthy build"),
        new_eval.try_groups(&new_spec).expect("healthy build")
    );

    let deadlines = [2.0e-9, 3.5e-9, 6.0e-9];
    for d in deadlines {
        let old = old_eval.try_solve(&old_spec, &Deadline(d)).unwrap();
        let new = new_eval.try_solve(&new_spec, &Deadline(d)).unwrap();
        match (old, new) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.delay.to_bits(), b.delay.to_bits(), "delay at {d}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost at {d}");
                assert_eq!(a.knobs, b.knobs, "knobs at {d}");
            }
            (a, b) => panic!("feasibility diverged at {d}: {a:?} vs {b:?}"),
        }
    }
}

/// A non-identity technology *does* change the spec's groups — the
/// renaming is visible and the metrics move — so the identity test above
/// cannot be passing vacuously.
#[test]
fn non_sram_technology_changes_groups_and_names() {
    let tech = TechnologyNode::bptm65();
    let sram = HierarchySpec::single(
        explicit_sram_circuit(256 * 1024, 8),
        Scheme::Split,
        1.0,
        CostKind::LeakagePower,
    );
    let mram = HierarchySpec::single(
        CacheCircuit::with_technology(
            CacheConfig::new(256 * 1024, 64, 8).unwrap(),
            &tech,
            TechProfile::stt_mram(),
        ),
        Scheme::Split,
        1.0,
        CostKind::LeakagePower,
    );
    let eval = Evaluator::new(KnobGrid::coarse());
    let sram_groups = eval.try_groups(&sram).expect("healthy build");
    let mram_groups = eval.try_groups(&mram).expect("healthy build");
    assert_eq!(sram_groups.len(), mram_groups.len());
    assert!(mram_groups.iter().all(|g| g.name().contains("[stt-mram]")));
    assert!(sram_groups.iter().all(|g| !g.name().contains('[')));
}
