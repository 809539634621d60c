//! End-to-end fault containment through the evaluation stack.
//!
//! These tests arm the deterministic fault plan in
//! `nm_sweep::faultinject` and drive the [`Evaluator`] through its
//! fallible API, proving the ISSUE's containment guarantees:
//!
//! * an injected worker panic fails only its own surface-build job, as a
//!   typed [`StudyError::WorkerPanic`]; every other job completes and is
//!   cached;
//! * an injected NaN surface is rejected by validation *before* the memo
//!   cache, as a typed [`StudyError::InvalidSurface`], and never serves a
//!   later query;
//! * after the fault plan drains, a retry completes and produces results
//!   bit-identical to a never-faulted evaluator;
//! * the studies built on the evaluator (the Section 4 optimum, the
//!   Section 5 L2 sweep, the Figure 2 tuple curves) return that error
//!   instead of panicking, and recover the same way.
//!
//! Compile with `--features faultinject`; without the feature this file
//! is empty.

#![cfg(feature = "faultinject")]

use nm_archsim::workload::SuiteKind;
use nm_archsim::{MissRateTable, PairStats};
use nm_cache_core::amat::MainMemory;
use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_cache_core::memsys::{MemorySystemStudy, TupleCounts};
use nm_cache_core::single::SingleCacheStudy;
use nm_cache_core::twolevel::TwoLevelStudy;
use nm_cache_core::StudyError;
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::objective::Deadline;
use nm_sweep::faultinject::{self, Fault};
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard};

/// The fault plan is process-global; serialize every test that arms it.
fn plan_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn circuit(bytes: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::new(CacheConfig::new(bytes, 64, 4).expect("legal config"), &tech)
}

fn spec_16kb() -> HierarchySpec {
    HierarchySpec::single(
        circuit(16 * 1024),
        Scheme::Split,
        1.0,
        CostKind::LeakagePower,
    )
}

/// A deadline loose enough that the 16 KB spec is always feasible.
fn loose_deadline(reference: &Evaluator, spec: &HierarchySpec) -> Deadline {
    let front = reference.try_front(spec).expect("healthy build");
    Deadline(front.last().expect("non-empty front").delay)
}

#[test]
fn injected_panic_fails_one_job_and_spares_the_rest() {
    let _guard = plan_lock();
    faultinject::clear();

    let reference = Evaluator::new(KnobGrid::coarse());
    let spec = spec_16kb();
    let deadline = loose_deadline(&reference, &spec);
    let expected = reference
        .try_solve(&spec, &deadline)
        .expect("healthy build")
        .expect("feasible");

    // Job 1 of the 4-component surface build panics once.
    faultinject::arm(Some("eval-surfaces"), 1, Fault::Panic, 1);
    let e = Evaluator::new(KnobGrid::coarse());
    let err = e.try_solve(&spec, &deadline).expect_err("armed panic");
    match err {
        StudyError::WorkerPanic {
            label,
            index,
            message,
        } => {
            assert_eq!(label, "eval-surfaces");
            assert_eq!(index, 1);
            assert!(message.contains("faultinject"), "{message}");
        }
        other => panic!("wrong error class: {other:?}"),
    }
    // The three healthy jobs completed and were cached; the failed one
    // was not.
    assert_eq!(e.stats().surfaces_built, 3);
    assert_eq!(e.stats().surfaces_rejected, 0);

    // The plan is drained: a retry rebuilds only the missing surface and
    // the result is bit-identical to the never-faulted evaluator.
    assert_eq!(faultinject::armed(), 0);
    let retried = e
        .try_solve(&spec, &deadline)
        .expect("retry succeeds")
        .expect("feasible");
    assert_eq!(e.stats().surfaces_built, 4);
    assert_eq!(retried, expected);
}

#[test]
fn injected_nan_surface_never_enters_the_cache() {
    let _guard = plan_lock();
    faultinject::clear();

    let reference = Evaluator::new(KnobGrid::coarse());
    let spec = spec_16kb();
    let deadline = loose_deadline(&reference, &spec);
    let expected = reference
        .try_solve(&spec, &deadline)
        .expect("healthy build")
        .expect("feasible");

    // Job 2's freshly computed surface is poisoned with a NaN delay.
    faultinject::arm(Some("eval-surfaces"), 2, Fault::Nan, 1);
    let e = Evaluator::new(KnobGrid::coarse());
    let err = e.try_solve(&spec, &deadline).expect_err("armed NaN");
    match err {
        StudyError::InvalidSurface { metric, value, .. } => {
            assert_eq!(metric, "delay");
            assert!(value.is_nan());
        }
        other => panic!("wrong error class: {other:?}"),
    }
    // Three healthy surfaces cached; the poisoned one rejected, counted,
    // and NOT installed.
    assert_eq!(e.stats().surfaces_built, 3);
    assert_eq!(e.stats().surfaces_rejected, 1);

    // Retry rebuilds the rejected surface from scratch — proof it never
    // entered the cache — and matches the clean result exactly.
    assert_eq!(faultinject::armed(), 0);
    let retried = e
        .try_solve(&spec, &deadline)
        .expect("retry succeeds")
        .expect("feasible");
    assert_eq!(e.stats().surfaces_built, 4);
    assert_eq!(e.stats().surfaces_rejected, 1);
    assert_eq!(retried, expected);
}

#[test]
fn nonfault_path_is_identical_with_the_feature_compiled_in() {
    let _guard = plan_lock();
    faultinject::clear();

    // With nothing armed, the contained pipeline is bit-identical run to
    // run (the golden-table suite separately pins the absolute values).
    let spec = spec_16kb();
    let a = Evaluator::new(KnobGrid::coarse());
    let b = Evaluator::new(KnobGrid::coarse());
    let deadline = loose_deadline(&a, &spec);
    let sa = a
        .try_solve(&spec, &deadline)
        .expect("healthy")
        .expect("feasible");
    let sb = b
        .try_solve(&spec, &deadline)
        .expect("healthy")
        .expect("feasible");
    assert_eq!(sa, sb);
    assert_eq!(a.stats().surfaces_rejected, 0);
    assert_eq!(b.stats().surfaces_rejected, 0);
}

#[test]
fn fault_in_one_spec_leaves_other_specs_untouched() {
    let _guard = plan_lock();
    faultinject::clear();

    // Fault an L1 surface build, then solve a *different* circuit on the
    // same evaluator: the second spec is unaffected by the first failure.
    let faulted = spec_16kb();
    let deadline = {
        let reference = Evaluator::new(KnobGrid::coarse());
        loose_deadline(&reference, &faulted)
    };
    faultinject::arm(Some("eval-surfaces"), 0, Fault::Panic, 1);
    let e = Evaluator::new(KnobGrid::coarse());
    assert!(e.try_solve(&faulted, &deadline).is_err());

    let other = HierarchySpec::single(
        circuit(64 * 1024),
        Scheme::Split,
        1.0,
        CostKind::LeakagePower,
    );
    let front = e.try_front(&other).expect("other spec healthy");
    assert!(!front.is_empty());
}

/// Runs `call` once on a never-faulted subject, then on a fresh subject
/// with a NaN armed on the first surface-build job: the faulted call must
/// return [`StudyError::InvalidSurface`], and after the plan is cleared a
/// retry on the same subject must equal the clean result bit for bit
/// (`{:?}` round-trips every `f64`, so equal output means equal bits).
fn nan_surface_is_returned_then_retried<S, T: Debug>(
    make: impl Fn() -> S,
    call: impl Fn(&S) -> Result<T, StudyError>,
) {
    let _guard = plan_lock();
    faultinject::clear();
    let clean = call(&make()).expect("healthy build");

    let subject = make();
    faultinject::arm(Some("eval-surfaces"), 0, Fault::Nan, 1);
    let err = call(&subject).expect_err("armed NaN");
    assert!(
        matches!(
            err,
            StudyError::InvalidSurface {
                metric: "delay",
                ..
            }
        ),
        "wrong error class: {err:?}"
    );

    faultinject::clear();
    let retried = call(&subject).expect("retry succeeds");
    assert_eq!(format!("{retried:?}"), format!("{clean:?}"));
}

#[test]
fn l2_size_sweep_returns_an_invalid_surface() {
    let missrates = MissRateTable::try_build(
        &[16 * 1024],
        &[256 * 1024],
        &[SuiteKind::Spec2000],
        2005,
        20_000,
        20_000,
    )
    .expect("legal cache shapes");
    nan_surface_is_returned_then_retried(
        || {
            TwoLevelStudy::new(
                missrates.clone(),
                TechnologyNode::bptm65(),
                KnobGrid::coarse(),
                MainMemory::default(),
            )
        },
        |study| {
            let target = study.amat_target(16 * 1024, &[256 * 1024], 0.15)?;
            study.l2_size_sweep(16 * 1024, &[256 * 1024], Scheme::Split, target)
        },
    );
}

#[test]
fn single_cache_optimum_returns_an_invalid_surface() {
    nan_surface_is_returned_then_retried(
        || {
            SingleCacheStudy::new(
                CacheConfig::new(16 * 1024, 64, 4).expect("legal config"),
                &TechnologyNode::bptm65(),
                KnobGrid::coarse(),
            )
        },
        |study| {
            let deadline = study.delay_sweep(5)[2];
            let sol = study.optimize(Scheme::Split, deadline)?;
            assert!(sol.is_some(), "mid-range deadline is feasible");
            Ok(sol)
        },
    );
}

#[test]
fn tuple_curves_return_an_invalid_surface() {
    let stats = PairStats {
        l1_miss_rate: 0.05,
        l2_local_miss_rate: 0.25,
        l1_writeback_rate: 0.01,
        write_fraction: 0.3,
        measured: 1,
    };
    nan_surface_is_returned_then_retried(
        || {
            MemorySystemStudy::new(
                16 * 1024,
                1024 * 1024,
                stats,
                &TechnologyNode::bptm65(),
                KnobGrid::coarse(),
                MainMemory::default(),
            )
            .expect("legal configuration")
        },
        |study| {
            let curves =
                study.tuple_curves(&[TupleCounts { n_tox: 2, n_vth: 2 }], &study.amat_sweep(3))?;
            assert!(!curves[0].points.is_empty(), "some target is feasible");
            Ok(curves)
        },
    );
}
