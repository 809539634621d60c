//! Golden-equivalence tests: every study pipeline ported onto the shared
//! evaluation engine must render **byte-identical** tables to the
//! snapshots captured from the pre-refactor direct pipeline (committed
//! under `tests/golden/`, regenerated by `examples/golden_gen.rs`).
//!
//! These pin the refactor's core contract — memoization and the spec
//! layer change *how fast* the studies run, never *what* they compute.

#[path = "golden/cases.rs"]
mod cases;

fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        // Show the first differing line to make drift diagnosable.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "{name}: first divergence at line {}", i + 1);
        }
        panic!(
            "{name}: line counts differ ({} vs {})",
            actual.lines().count(),
            golden.lines().count()
        );
    }
}

/// Renders the case whose snapshot is `file` and compares it with
/// `golden`, that snapshot's committed bytes.
fn check(file: &str, golden: &str) {
    let (_, render) = cases::CASES
        .iter()
        .find(|(name, _)| *name == file)
        .unwrap_or_else(|| panic!("{file} is not a golden case"));
    assert_golden(&render(), golden, file);
}

/// One test per case: renders it and compares it with its snapshot.
macro_rules! golden_test {
    ($test:ident, $file:literal) => {
        #[test]
        fn $test() {
            check($file, include_str!(concat!("golden/", $file)));
        }
    };
}

golden_test!(
    e2_scheme_comparison_matches_golden,
    "e2_scheme_comparison.txt"
);
golden_test!(e7_knob_ablation_matches_golden, "e7_knob_ablation.txt");
golden_test!(
    e3_l2_sweep_uniform_matches_golden,
    "e3_l2_sweep_uniform.txt"
);
golden_test!(e4_l2_sweep_split_matches_golden, "e4_l2_sweep_split.txt");
golden_test!(e5_l1_sweep_matches_golden, "e5_l1_sweep.txt");
golden_test!(x4_split_l1_matches_golden, "x4_split_l1.txt");
golden_test!(e6_tuple_table_matches_golden, "e6_tuple_table.txt");
golden_test!(e8_mixed_tech_matches_golden, "e8_mixed_tech.txt");
golden_test!(x3_decay_matches_golden, "x3_decay.txt");
