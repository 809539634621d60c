//! Multiprogrammed workloads sharing one hierarchy (the `Mix` combinator).
//!
//! ```text
//! cargo run --release --example multiprogrammed
//! ```
//!
//! Interleaves the three paper-era suites as one reference stream — the
//! shared-L2 picture of a multiprogrammed paper-era core — and shows how
//! the blend's miss-rate curve differs from any single suite, shifting
//! the leakage-optimal L2 size.

use nmcache::archsim::cache::CacheParams;
use nmcache::archsim::missrates::simulate_pair;
use nmcache::archsim::workload::{Mix, SuiteKind, Workload};

/// Local L2 miss rate behind a 16 KB L1 after a 300k-reference warm-up.
fn run(workload: &mut (dyn Workload + Send), l2_kb: u64) -> f64 {
    simulate_pair(
        CacheParams::new(16 * 1024, 64, 4).expect("legal L1"),
        CacheParams::new(l2_kb * 1024, 64, 8).expect("legal L2"),
        workload,
        300_000,
        400_000,
    )
    .expect("two levels")
    .l2_local_miss_rate
}

fn main() {
    let l2_sizes = [256u64, 1024, 4096];
    println!(
        "{:<22}{:>12}{:>12}{:>12}",
        "workload", "L2=256K", "L2=1M", "L2=4M"
    );
    for suite in [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb] {
        print!("{:<22}", suite.name());
        for &l2 in &l2_sizes {
            let mut w = suite.build(7);
            let m2 = run(w.as_mut(), l2);
            print!("{m2:>12.4}");
        }
        println!();
    }
    // An even three-way mixture: the blended stream has a larger combined
    // working set than any single suite.
    print!("{:<22}", "3-way mix");
    for &l2 in &l2_sizes {
        let mut mix = Mix::new(
            vec![
                (1.0, SuiteKind::Spec2000.build(7)),
                (1.0, SuiteKind::TpcC.build(7)),
                (1.0, SuiteKind::SpecWeb.build(7)),
            ],
            99,
        );
        let m2 = run(&mut mix, l2);
        print!("{m2:>12.4}");
    }
    println!();
    println!("\nthe mix keeps improving out to larger L2s than any single suite —");
    println!("multiprogramming pushes the paper's leakage-optimal L2 size upward.");
}
