//! Crash-resume fidelity of the campaign engine.
//!
//! Contracts under test:
//! * a campaign interrupted at *any* cell offset and resumed produces a
//!   final table byte-identical to an uninterrupted run;
//! * a corrupt checkpoint is a typed error (never a panic, never silent
//!   misreads) and `fresh` recovers;
//! * a checkpoint from a different configuration is refused;
//! * the store tier underneath makes recomputation cheap without
//!   changing a byte of output.

use nm_cache_core::campaign::{Campaign, CampaignConfig, CampaignError};
use nm_cache_core::groups::Scheme;
use nm_device::TechProfile;
use nm_store::Store;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn config() -> CampaignConfig {
    CampaignConfig {
        l1_sizes: vec![16 * 1024],
        l2_sizes: vec![64 * 1024],
        schemes: vec![Scheme::Uniform, Scheme::Split],
        l2_techs: vec![TechProfile::sram()],
        temperatures_c: vec![40.0, 80.0],
        slack: 0.2,
        quick: true,
        checkpoint_every: 1,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nm-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    dir
}

fn ckpt(dir: &Path) -> PathBuf {
    dir.join("checkpoint.nmck")
}

/// The uninterrupted run's rendered table — the golden every resume
/// variant must reproduce byte-for-byte.
fn golden() -> &'static String {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = tmpdir("golden");
        let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
        let out = campaign
            .run(&ckpt(&dir), false, None)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.complete);
        assert_eq!(out.computed, 4);
        assert_eq!(out.failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
        out.to_table().to_csv()
    })
}

#[test]
fn single_cell_steps_resume_to_a_byte_identical_table() {
    let dir = tmpdir("steps");
    let mut total_computed = 0;
    let final_table = loop {
        // A fresh Campaign per step models a process restart: nothing
        // survives but the checkpoint file.
        let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
        let out = campaign
            .run(&ckpt(&dir), false, Some(1))
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.computed <= 1);
        total_computed += out.computed;
        assert_eq!(out.resumed, total_computed - out.computed);
        if out.complete {
            break out.to_table().to_csv();
        }
    };
    assert_eq!(total_computed, 4);
    assert_eq!(&final_table, golden());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_interruption_offset_resumes_to_the_same_table() {
    // Interrupt after k cells for every possible k, resume to
    // completion, and demand byte identity with the uninterrupted run —
    // the deterministic analogue of killing the process at random
    // checkpoint offsets.
    for k in 1..4 {
        let dir = tmpdir(&format!("offset-{k}"));
        let partial = Campaign::new(config(), None).expect("legal campaign sizes");
        let out = partial
            .run(&ckpt(&dir), false, Some(k))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(out.computed, k);
        assert!(!out.complete);

        let resumed = Campaign::new(config(), None).expect("legal campaign sizes");
        let out = resumed
            .run(&ckpt(&dir), false, None)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.complete);
        assert_eq!(out.resumed, k);
        assert_eq!(out.computed, 4 - k);
        assert_eq!(&out.to_table().to_csv(), golden(), "interrupted at {k}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_checkpoint_is_a_typed_error_and_fresh_recovers() {
    let dir = tmpdir("corrupt");
    let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
    campaign
        .run(&ckpt(&dir), false, Some(2))
        .unwrap_or_else(|e| panic!("{e}"));

    // Flip one byte in the middle of the checkpoint.
    let path = ckpt(&dir);
    let mut bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{e}"));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap_or_else(|e| panic!("{e}"));

    let err = campaign
        .run(&path, false, None)
        .expect_err("corrupt checkpoint must not be trusted");
    assert!(
        matches!(err, CampaignError::Checkpoint { .. }),
        "wrong class: {err:?}"
    );
    assert!(err.to_string().contains("--fresh"), "{err}");

    // `fresh` discards the damage and completes; the table matches.
    let out = campaign
        .run(&path, true, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.complete);
    assert_eq!(out.resumed, 0);
    assert_eq!(&out.to_table().to_csv(), golden());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_from_a_different_config_is_refused() {
    let dir = tmpdir("mismatch");
    let campaign = Campaign::new(config(), None).expect("legal campaign sizes");
    campaign
        .run(&ckpt(&dir), false, Some(1))
        .unwrap_or_else(|e| panic!("{e}"));

    let mut other = config();
    other.slack = 0.25;
    let refused = Campaign::new(other, None).expect("legal campaign sizes");
    let err = refused
        .run(&ckpt(&dir), false, None)
        .expect_err("foreign checkpoint must be refused");
    assert!(
        matches!(err, CampaignError::Mismatch { .. }),
        "wrong class: {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_tier_feeds_recomputation_without_changing_output() {
    let dir = tmpdir("store");
    let store_dir = dir.join("store");
    let open = || {
        Arc::new(
            Store::open(&store_dir).unwrap_or_else(|e| panic!("open {}: {e}", store_dir.display())),
        )
    };
    let first = Campaign::new(config(), Some(open())).expect("legal campaign sizes");
    let out = first
        .run(&ckpt(&dir), false, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.complete);

    // `fresh` recomputes every cell, but the persisted surfaces and
    // fronts satisfy the evaluator — and the table stays byte-identical.
    let second = Campaign::new(config(), Some(open())).expect("legal campaign sizes");
    let out2 = second
        .run(&ckpt(&dir), true, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out2.complete);
    assert_eq!(out2.resumed, 0);
    let stats = second.evaluator().stats();
    assert!(stats.store_loaded > 0, "{stats:?}");
    assert_eq!(stats.store_errors, 0, "{stats:?}");
    assert_eq!(&out2.to_table().to_csv(), golden());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_axes_complete_immediately() {
    let dir = tmpdir("empty");
    let mut cfg = config();
    cfg.temperatures_c.clear();
    assert!(cfg.is_empty());
    let campaign = Campaign::new(cfg, None).expect("legal campaign sizes");
    let out = campaign
        .run(&ckpt(&dir), false, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.complete);
    assert_eq!(out.total, 0);
    assert!(out.to_table().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
