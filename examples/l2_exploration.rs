//! L2 design-space exploration (the paper's Section 5).
//!
//! ```text
//! cargo run --release --example l2_exploration
//! ```
//!
//! Simulates the benchmark-suite mix over every (L1, L2) size pair, then
//! answers the paper's two L2 questions at an iso-AMAT constraint:
//!
//! 1. with a single `Vth`/`Tox` pair per L2, which size leaks least?
//! 2. does splitting cell-array/periphery pairs move the winner to a
//!    smaller L2?

use nmcache::core::groups::Scheme;
use nmcache::core::twolevel::TwoLevelStudy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("simulating benchmark suites over the (L1, L2) size matrix ...");
    let study = TwoLevelStudy::standard(false)?;
    println!(
        "done: {} size pairs x {:?}",
        study.missrates().len(),
        study.missrates().suites()
    );

    let l1 = 16 * 1024;
    let l2_sizes = TwoLevelStudy::standard_l2_sizes();
    let target = study.amat_target(l1, &l2_sizes, 0.06)?;
    println!(
        "\niso-AMAT constraint: {:.0} ps (6% slack over the best corner)\n",
        target.picos()
    );

    for scheme in [Scheme::Uniform, Scheme::Split] {
        let sweep = study.l2_size_sweep(l1, &l2_sizes, scheme, target)?;
        println!("{}", sweep.to_table());
        match sweep.winner() {
            Some(w) => println!(
                "-> {scheme} winner: {} KB at {:.3} mW total\n",
                w.size_bytes / 1024,
                w.total_leakage.expect("winner is feasible").milli()
            ),
            None => println!("-> {scheme}: no feasible size at this AMAT\n"),
        }
    }

    println!("per the paper: the single-pair winner is a large L2, while split");
    println!("cell/periphery pairs let a smaller L2 meet the same AMAT with less leakage.");
    Ok(())
}
