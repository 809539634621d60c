//! Deterministic fault-injection tests for the contained executor.
//!
//! Compiled only with `--features faultinject`. The injection plan is
//! process-global, so every test serialises on [`plan_lock`] and clears
//! the plan before and after its run.

#![cfg(feature = "faultinject")]

use std::sync::Mutex;

use nm_sweep::faultinject::{arm, armed, clear, take_nan, Fault};
use nm_sweep::{ItemFault, ParallelSweep};

/// Serialises tests sharing the process-global injection plan.
fn plan_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn items(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn faults<R>(results: &[Result<R, ItemFault>]) -> Vec<&ItemFault> {
    results.iter().filter_map(|r| r.as_ref().err()).collect()
}

#[test]
fn injected_panic_faults_only_its_item() {
    let _guard = plan_lock();
    clear();
    arm(Some("inj"), 4, Fault::Panic, 1);

    let results = ParallelSweep::new()
        .with_workers(3)
        .labeled("inj")
        .try_map(&items(10), |&i| i * 2);

    let faults = faults(&results);
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].index, 4);
    assert!(faults[0].message.contains("faultinject"), "{}", faults[0]);
    for (i, r) in results.iter().enumerate() {
        if i != 4 {
            assert_eq!(*r.as_ref().expect("healthy item"), i * 2);
        }
    }
    assert_eq!(armed(), 0, "fault consumed");
    clear();
}

#[test]
fn labels_scope_the_injection() {
    let _guard = plan_lock();
    clear();
    arm(Some("other-sweep"), 0, Fault::Panic, 1);

    let results = ParallelSweep::new()
        .labeled("this-sweep")
        .try_map(&items(3), |&i| i);
    assert!(
        faults(&results).is_empty(),
        "fault armed for a different label"
    );
    assert_eq!(armed(), 1, "fault still armed");
    clear();
}

#[test]
fn stall_delays_but_does_not_fail() {
    let _guard = plan_lock();
    clear();
    arm(Some("slow"), 0, Fault::Stall(1_000_000), 1);

    let results = ParallelSweep::new()
        .with_workers(2)
        .labeled("slow")
        .try_map(&items(4), |&i| i * 3);

    assert!(faults(&results).is_empty());
    assert_eq!(*results[0].as_ref().expect("stalled item succeeds"), 0);
    clear();
}

#[test]
fn nan_faults_are_ignored_by_the_executor_and_served_to_consumers() {
    let _guard = plan_lock();
    clear();
    arm(Some("surface"), 2, Fault::Nan, 1);

    // The executor never consumes Nan faults...
    let results = ParallelSweep::new()
        .labeled("surface")
        .try_map(&items(4), |&i| i);
    assert!(faults(&results).is_empty());
    assert_eq!(armed(), 1, "Nan fault left for the metric layer");

    // ...a metric-producing layer polls take_nan per item instead.
    assert!(!take_nan(Some("surface"), 0));
    assert!(take_nan(Some("surface"), 2));
    assert!(!take_nan(Some("surface"), 2), "single-shot fault disarmed");
    assert_eq!(armed(), 0);
    clear();
}

#[test]
fn map_is_unaffected_by_the_contained_machinery() {
    let _guard = plan_lock();
    clear();
    // No faults armed: the fail-fast map path behaves exactly as before.
    let out = ParallelSweep::new()
        .with_workers(3)
        .labeled("plain")
        .map(&items(9), |&i| i * 7);
    assert_eq!(out, (0..9).map(|i| i * 7).collect::<Vec<_>>());
    clear();
}
