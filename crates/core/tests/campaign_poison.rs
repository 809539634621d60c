//! Poisoned-cell containment in the campaign engine.
//!
//! Arms the sweep executor's deterministic fault plan
//! (`nm_sweep::faultinject`) so one cell's surface build panics: the
//! panic is contained by the executor, surfaces as a typed
//! `StudyError::WorkerPanic`, and fails *its cell*. The campaign prices
//! every other cell, and each of their rows is byte-identical to the
//! same row of a clean run.
//!
//! Compile with `--features faultinject`; without the feature this file
//! is empty.

#![cfg(feature = "faultinject")]

use nm_cache_core::campaign::{Campaign, CampaignConfig};
use nm_cache_core::groups::Scheme;
use nm_device::TechProfile;
use nm_sweep::faultinject::{self, Fault};

/// Four cells: the two schemes at two temperatures. Cells 0 and 2 (both
/// at 40 C) share their circuits, so cell 2 rebuilds the surface whose
/// build failed in cell 0.
fn config() -> CampaignConfig {
    CampaignConfig {
        l1_sizes: vec![16 * 1024],
        l2_sizes: vec![64 * 1024],
        schemes: vec![Scheme::Uniform, Scheme::Split],
        l2_techs: vec![TechProfile::sram()],
        temperatures_c: vec![40.0, 80.0],
        slack: 0.2,
        quick: true,
    }
}

#[test]
fn poisoned_cell_fails_alone_and_every_other_row_matches_a_clean_run() {
    // The plan is process-global and this is the binary's only test, so
    // nothing else arms or consumes it concurrently.
    faultinject::clear();
    let clean = Campaign::new(config()).expect("legal campaign sizes").run();
    assert_eq!((clean.total, clean.computed, clean.failed), (4, 4, 0));

    // The first cell's surface build panics on job 0; the executor
    // contains it and the cell is recorded as failed.
    faultinject::arm(Some("eval-surfaces"), 0, Fault::Panic, 1);
    let poisoned = Campaign::new(config()).expect("legal campaign sizes").run();
    faultinject::clear();

    assert_eq!(poisoned.total, 4);
    assert_eq!(poisoned.computed, 3);
    assert_eq!(poisoned.failed, 1);
    let failures = poisoned.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 0, "the armed cell is the failed one");
    assert!(failures[0].1.contains("panicked"), "{}", failures[0].1);

    // The clean table without cell 0's row (the first data row, after
    // the header) is the poisoned table, byte for byte.
    let clean_csv = clean.to_table().to_csv();
    let mut expected: Vec<&str> = clean_csv.lines().collect();
    expected.remove(1);
    let poisoned_csv = poisoned.to_table().to_csv();
    assert_eq!(poisoned_csv.lines().collect::<Vec<_>>(), expected);
}
