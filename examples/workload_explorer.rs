//! Explore the synthetic benchmark suites on a two-level hierarchy.
//!
//! ```text
//! cargo run --release --example workload_explorer
//! ```
//!
//! Runs every suite through an LRU L1/L2 hierarchy across cache sizes
//! and prints the miss-rate matrix — a pure `nm-archsim` tour with no
//! circuit model involved. Useful for judging whether the
//! generators have the locality structure the Section 5 studies assume.

use nmcache::archsim::cache::CacheParams;
use nmcache::archsim::hierarchy::MultiLevel;
use nmcache::archsim::workload::SuiteKind;

const WARMUP: u64 = 200_000;
const MEASURE: u64 = 400_000;

fn run(suite: SuiteKind, l1: u64, l2: u64) -> (f64, f64) {
    let mut h = MultiLevel::new(vec![
        CacheParams::new(l1, 64, 4).expect("legal L1"),
        CacheParams::new(l2, 64, 8).expect("legal L2"),
    ])
    .expect("two levels");
    let mut w = suite.build(7);
    for _ in 0..WARMUP {
        h.access(w.next_access());
    }
    h.reset_stats();
    for _ in 0..MEASURE {
        h.access(w.next_access());
    }
    let rates = h
        .stats()
        .try_local_miss_rates()
        .expect("simulated rates are fractions");
    (rates[0], rates[1])
}

fn main() {
    println!("L1 miss rate / local L2 miss rate, LRU:");
    print!("{:<14}", "suite");
    let l2_sizes = [256 * 1024u64, 1024 * 1024, 4 * 1024 * 1024];
    for &l2 in &l2_sizes {
        print!("  L2={:>5}K", l2 / 1024);
    }
    println!();
    for suite in SuiteKind::ALL {
        print!("{:<14}", suite.name());
        for &l2 in &l2_sizes {
            let (m1, m2) = run(suite, 16 * 1024, l2);
            print!("  {m1:.3}/{m2:.3}");
        }
        println!();
    }

    println!("\nL1 size sensitivity (L2 = 1 MB, LRU) — the paper expects low, flat rates:");
    for suite in SuiteKind::ALL {
        print!("{:<14}", suite.name());
        for l1 in [4, 8, 16, 32, 64] {
            let (m1, _) = run(suite, l1 * 1024, 1024 * 1024);
            print!("  {:>2}K:{m1:.3}", l1);
        }
        println!();
    }
}
