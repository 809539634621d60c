//! Table T0: the workload substitution audit.
//!
//! ```text
//! cargo run --release --example t0_workload_audit
//! ```
//!
//! Checks the synthetic benchmark suites against the two architectural
//! assumptions the paper's Section 5 relies on:
//!
//! 1. local L1 miss rates are low and vary little from 4 K to 64 K;
//! 2. local L2 miss rates fall with size and saturate (diminishing
//!    returns).
//!
//! This is the audit for the traces that could not be redistributed
//! (see `DESIGN.md`).

use nmcache::archsim::workload::SuiteKind;
use nmcache::archsim::MissRateTable;
use nmcache::core::report::cell;
use nmcache::core::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let l1_sizes = [4 * 1024u64, 16 * 1024, 64 * 1024];
    let l2_sizes = [256 * 1024u64, 1024 * 1024, 4 * 1024 * 1024];

    let mut l1_table = Table::new(
        "Workload validation: L1 miss rate vs L1 size (L2 = 1 MB)",
        &["suite", "4K", "16K", "64K"],
    );
    let mut l2_table = Table::new(
        "Workload validation: local L2 miss rate vs L2 size (L1 = 16 KB)",
        &["suite", "256K", "1M", "4M"],
    );
    for suite in [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb] {
        let t = MissRateTable::try_build(&l1_sizes, &l2_sizes, &[suite], 2005, 300_000, 600_000)?;
        let mut l1_row = vec![suite.name().to_owned()];
        for &l1 in &l1_sizes {
            let rates = t.get(l1, 1024 * 1024).ok_or("L1 size not simulated")?;
            l1_row.push(cell(rates.l1_miss_rate, 4));
        }
        l1_table.push_row(l1_row);
        let mut l2_row = vec![suite.name().to_owned()];
        for &l2 in &l2_sizes {
            let rates = t.get(16 * 1024, l2).ok_or("L2 size not simulated")?;
            l2_row.push(cell(rates.l2_local_miss_rate, 4));
        }
        l2_table.push_row(l2_row);
    }
    println!("\n{l1_table}");
    println!("\n{l2_table}");
    Ok(())
}
