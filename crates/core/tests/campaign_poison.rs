//! Poisoned-cell containment in the campaign engine.
//!
//! Arms the sweep executor's deterministic fault plan
//! (`nm_sweep::faultinject`) so one cell's surface build panics: the
//! panic is contained by the executor, surfaces as a typed
//! `StudyError::WorkerPanic`, and fails *its cell* — the campaign
//! records the failure and completes every other cell. The failure is
//! checkpointed like any other outcome, so a resumed campaign does not
//! silently retry it; `fresh` does.
//!
//! Compile with `--features faultinject`; without the feature this file
//! is empty.

#![cfg(feature = "faultinject")]

use nm_cache_core::campaign::{Campaign, CampaignConfig};
use nm_cache_core::groups::Scheme;
use nm_device::TechProfile;
use nm_sweep::faultinject::{self, Fault};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The fault plan is process-global; serialize every test that arms it.
fn plan_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config() -> CampaignConfig {
    CampaignConfig {
        l1_sizes: vec![16 * 1024],
        l2_sizes: vec![64 * 1024],
        schemes: vec![Scheme::Uniform],
        l2_techs: vec![TechProfile::sram()],
        temperatures_c: vec![40.0, 80.0],
        slack: 0.2,
        quick: true,
        checkpoint_every: 1,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nm-camppoison-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    dir
}

fn ckpt(dir: &Path) -> PathBuf {
    dir.join("checkpoint.nmck")
}

#[test]
fn poisoned_cell_fails_alone_and_the_campaign_completes() {
    let _guard = plan_lock();
    faultinject::clear();

    let dir = tmpdir("contain");
    // The first cell's bulk surface build panics on job 0; the executor
    // contains it and the cell is recorded as failed.
    faultinject::arm(Some("eval-surfaces"), 0, Fault::Panic, 1);
    let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
    let out = campaign
        .run(&ckpt(&dir), false, None)
        .unwrap_or_else(|e| panic!("{e}"));
    faultinject::clear();

    assert!(out.complete, "a faulty cell must not abort the campaign");
    assert_eq!(out.computed, 2);
    assert_eq!(out.failed, 1);
    let failures = out.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 0, "the armed cell is the failed one");
    assert!(failures[0].1.contains("panicked"), "{}", failures[0].1);
    // The healthy cell's row is in the table.
    assert_eq!(out.to_table().len(), 1);

    // The failure is durable: a resumed campaign (fresh process, no
    // faults armed) keeps the recorded outcome instead of silently
    // retrying the cell.
    let resumed = Campaign::new(config(), None).expect("legal campaign sizes");
    let out2 = resumed
        .run(&ckpt(&dir), false, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out2.complete);
    assert_eq!(out2.computed, 0);
    assert_eq!(out2.resumed, 2);
    assert_eq!(out2.failed, 1);

    // `fresh` discards the poisoned record and, with no fault armed,
    // the retried cell succeeds.
    let retried = Campaign::new(config(), None).expect("legal campaign sizes");
    let out3 = retried
        .run(&ckpt(&dir), true, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out3.complete);
    assert_eq!(out3.failed, 0);
    assert_eq!(out3.to_table().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
