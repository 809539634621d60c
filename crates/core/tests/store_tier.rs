//! The persistence tier under the evaluation engine.
//!
//! Contracts:
//! * a warm store makes a *fresh* evaluator produce bit-identical
//!   solutions without recomputing a single surface;
//! * a corrupted store degrades to recompute (counted, never an error);
//! * a store that fails on write degrades to memory-only operation.

use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::CacheConfig;
use nm_opt::objective::Deadline;
use nm_store::{Store, SEGMENT_FILE};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn circuit(bytes: u64) -> nm_geometry::CacheCircuit {
    let tech = TechnologyNode::bptm65();
    nm_geometry::CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), &tech)
}

fn spec() -> HierarchySpec {
    HierarchySpec::new()
        .level(
            "L1",
            circuit(16 * 1024),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        )
        .level(
            "L2",
            circuit(64 * 1024),
            Scheme::Split,
            0.05,
            CostKind::LeakagePower,
        )
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nm-eval-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(dir).unwrap_or_else(|e| panic!("open {}: {e}", dir.display())))
}

#[test]
fn warm_store_reproduces_solutions_bit_identical_without_recompute() {
    let dir = tmpdir("warm");
    let spec = spec();

    // Cold run: everything computed, written through.
    let cold = Evaluator::with_store(KnobGrid::coarse(), open(&dir));
    let front = cold.try_front(&spec).expect("healthy build");
    let deadline = front.last().expect("non-empty front").delay * 1.1;
    let cold_solution = cold
        .try_solve(&spec, &Deadline(deadline))
        .expect("healthy build")
        .expect("feasible");
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.surfaces_built, 8);
    assert_eq!(cold_stats.store_loaded, 0);
    assert_eq!(cold_stats.store_errors, 0);

    // Warm run in a fresh process-equivalent: same store, new evaluator.
    let warm = Evaluator::with_store(KnobGrid::coarse(), open(&dir));
    let warm_front = warm.try_front(&spec).expect("healthy build");
    let warm_solution = warm
        .try_solve(&spec, &Deadline(deadline))
        .expect("healthy build")
        .expect("feasible");
    let stats = warm.stats();
    // The front came straight from the store: no surfaces were built, no
    // fronts merged.
    assert_eq!(stats.surfaces_built, 0, "{stats:?}");
    assert_eq!(stats.fronts_built, 0, "{stats:?}");
    assert_eq!(stats.store_loaded, 1, "{stats:?}");
    assert_eq!(stats.store_rejected, 0, "{stats:?}");
    // Bit-identical results, down to the f64 bit patterns.
    assert_eq!(front.len(), warm_front.len());
    for (a, b) in front.iter().zip(warm_front.iter()) {
        assert_eq!(a.delay.to_bits(), b.delay.to_bits());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.choice, b.choice);
    }
    assert_eq!(cold_solution, warm_solution);

    // Surfaces load from the store too when only surfaces are needed.
    let surfaces_only = Evaluator::with_store(KnobGrid::coarse(), open(&dir));
    surfaces_only
        .try_ensure_surfaces(&spec)
        .expect("healthy build");
    let stats = surfaces_only.stats();
    assert_eq!(stats.surfaces_built, 0, "{stats:?}");
    assert_eq!(stats.store_loaded, 8, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_degrades_to_recompute() {
    let dir = tmpdir("corrupt");
    let spec = spec();
    {
        let e = Evaluator::with_store(KnobGrid::coarse(), open(&dir));
        let _ = e.try_front(&spec).expect("healthy build");
    }
    // Tear the segment mid-file: the open-time scan quarantines from the
    // damage onward, so some records survive and some are gone.
    let seg = dir.join(SEGMENT_FILE);
    let bytes = std::fs::read(&seg).unwrap_or_else(|e| panic!("{e}"));
    std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap_or_else(|e| panic!("{e}"));

    let store = open(&dir);
    assert!(store.open_report().salvage_performed());
    let e = Evaluator::with_store(KnobGrid::coarse(), Arc::clone(&store));
    let front = e.try_front(&spec).expect("healthy build");
    let stats = e.stats();
    // Whatever was salvaged loaded; the rest recomputed. Either way the
    // study succeeded and the results are the same as a storeless run.
    assert_eq!(stats.store_loaded + stats.surfaces_built, 8, "{stats:?}");
    assert_eq!(stats.store_errors, 0, "{stats:?}");
    let plain = Evaluator::new(KnobGrid::coarse());
    let reference = plain.try_front(&spec).expect("healthy build");
    assert_eq!(front.len(), reference.len());
    for (a, b) in front.iter().zip(reference.iter()) {
        assert_eq!(a.delay.to_bits(), b.delay.to_bits());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_and_storeless_runs_are_bit_identical() {
    let dir = tmpdir("parity");
    let spec = spec();
    let with = Evaluator::with_store(KnobGrid::coarse(), open(&dir));
    let without = Evaluator::new(KnobGrid::coarse());
    let a = with.try_front(&spec).expect("healthy build");
    let b = without.try_front(&spec).expect("healthy build");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.delay.to_bits(), y.delay.to_bits());
        assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        assert_eq!(x.choice, y.choice);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cloned_evaluator_shares_the_store_tier() {
    let dir = tmpdir("clone");
    let spec = spec();
    let e = Evaluator::with_store(KnobGrid::coarse(), open(&dir));
    let _ = e.try_front(&spec).expect("healthy build");
    let fresh = e.clone();
    assert!(fresh.store().is_some());
    let _ = fresh.try_front(&spec).expect("healthy build");
    // The clone's memo caches started cold, but the store satisfied the
    // whole query.
    let stats = fresh.stats();
    assert_eq!(stats.surfaces_built, 0, "{stats:?}");
    assert!(stats.store_loaded >= 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_order_persisted_front_is_rejected_and_recomputed() {
    let spec = spec();
    let points: Vec<nm_device::KnobPoint> = KnobGrid::coarse().points().collect();
    let reference = Evaluator::new(KnobGrid::coarse())
        .try_front(&spec)
        .expect("healthy build");
    assert!(
        reference.len() > 2,
        "need a front with an inside to disorder"
    );
    // Each payload passes the decoder, the store checksums and the shape
    // checks (group count, finite metrics), but breaks the order the
    // binary-search selects rely on.
    let mut reversed = reference.to_vec();
    reversed.reverse();
    let mut tied = reference.to_vec();
    tied.insert(1, tied[0].clone());
    for (tag, disordered) in [("reversed", reversed), ("tied", tied)] {
        let dir = tmpdir(&format!("unsorted-{tag}"));
        let store = open(&dir);
        store
            .put(
                nm_cache_core::persist::front_key(&spec, &points),
                &nm_cache_core::persist::encode_front(&disordered),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        let e = Evaluator::with_store(KnobGrid::coarse(), store);
        let front = e.try_front(&spec).expect("healthy build");
        let stats = e.stats();
        assert_eq!(stats.store_rejected, 1, "{tag}: {stats:?}");
        assert_eq!(stats.store_loaded, 0, "{tag}: {stats:?}");
        assert_eq!(stats.fronts_built, 1, "{tag}: {stats:?}");
        assert_eq!(front.len(), reference.len(), "{tag}");
        for (a, b) in front.iter().zip(reference.iter()) {
            assert_eq!(a.delay.to_bits(), b.delay.to_bits(), "{tag}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{tag}");
            assert_eq!(a.choice, b.choice, "{tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
