//! Checkpoint durability under injected storage faults.
//!
//! Arms the deterministic plan in `nm_store::storefault` against the
//! campaign's checkpoint writes, proving the atomic-write contract at
//! the campaign level: a crash anywhere inside a checkpoint rewrite
//! (temp-file write or the final rename) leaves the *previous complete
//! checkpoint* in place — a half-written index is unrepresentable — and
//! the campaign resumes from it to a byte-identical table.
//!
//! Compile with `--features storefault`; without the feature this file
//! is empty.

#![cfg(feature = "storefault")]

use nm_cache_core::campaign::{Campaign, CampaignConfig, CampaignError};
use nm_cache_core::groups::Scheme;
use nm_device::TechProfile;
use nm_store::storefault::{self, Fault, OP_ATOMIC_RENAME, OP_ATOMIC_WRITE};
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
        temperatures_c: vec![40.0, 80.0, 110.0],
        slack: 0.2,
        quick: true,
        checkpoint_every: 1,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nm-campfault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    dir
}

fn ckpt(dir: &Path) -> PathBuf {
    dir.join("checkpoint.nmck")
}

/// Every crash point inside a checkpoint rewrite: the temp-file write
/// tearing (truncated, short, out of space) and the final rename
/// failing. In all cases the previous checkpoint must survive complete
/// and the resumed campaign must match the uninterrupted table.
#[test]
fn crash_inside_checkpoint_rewrite_cannot_lose_the_previous_checkpoint() {
    let _guard = plan_lock();
    storefault::clear();

    // Uninterrupted reference table.
    let golden = {
        let dir = tmpdir("golden");
        let out = Campaign::new(config(), None)
            .expect("legal campaign sizes")
            .run(&ckpt(&dir), false, None)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.complete);
        let _ = std::fs::remove_dir_all(&dir);
        out.to_table().to_csv()
    };

    let faults = [
        (OP_ATOMIC_WRITE, Fault::TruncateOnWrite),
        (OP_ATOMIC_WRITE, Fault::ShortWrite(5)),
        (OP_ATOMIC_WRITE, Fault::DiskFull),
        (OP_ATOMIC_RENAME, Fault::RenameFail),
    ];
    for (op, fault) in faults {
        let dir = tmpdir("crash");
        let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
        // Two cells in: a complete checkpoint exists.
        campaign
            .run(&ckpt(&dir), false, Some(2))
            .unwrap_or_else(|e| panic!("{e}"));
        let before = std::fs::read(ckpt(&dir)).unwrap_or_else(|e| panic!("{e}"));

        // The third cell's checkpoint rewrite crashes.
        storefault::clear();
        storefault::arm(op, 0, fault, 1);
        let err = campaign
            .run(&ckpt(&dir), false, None)
            .expect_err("armed checkpoint fault must surface");
        assert!(
            matches!(err, CampaignError::Store(_)),
            "{op} {fault:?}: wrong class: {err:?}"
        );
        storefault::clear();

        // The previous checkpoint is byte-for-byte intact: the rewrite
        // never touched the destination in place.
        let after = std::fs::read(ckpt(&dir)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(before, after, "{op} {fault:?}: destination was touched");

        // Resume runs to completion and reproduces the golden exactly.
        let out = campaign
            .run(&ckpt(&dir), false, None)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.complete);
        assert_eq!(out.resumed, 2, "{op} {fault:?}");
        assert_eq!(out.to_table().to_csv(), golden, "{op} {fault:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// No temp-file debris accumulates after injected crashes: the atomic
/// writer cleans up its own temp file on every failure path.
#[test]
fn failed_checkpoint_rewrites_leave_no_temp_files() {
    let _guard = plan_lock();
    storefault::clear();

    let dir = tmpdir("debris");
    let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
    campaign
        .run(&ckpt(&dir), false, Some(1))
        .unwrap_or_else(|e| panic!("{e}"));
    // Reset the op counters so index 0 targets the *next* rewrite.
    storefault::clear();
    storefault::arm(OP_ATOMIC_WRITE, 0, Fault::DiskFull, 1);
    let _ = campaign.run(&ckpt(&dir), false, None).expect_err("armed");
    storefault::clear();

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{e}"))
        .map(|e| e.unwrap_or_else(|e| panic!("{e}")).file_name())
        .map(|n| n.to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["checkpoint.nmck".to_owned()], "{names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
