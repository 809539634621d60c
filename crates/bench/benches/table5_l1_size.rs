//! **E5 / Table 5** — L1 size sweep with the L2 fixed at 1 MB (Section 5,
//! third experiment): joint L1+L2 knob optimisation per L1 size under one
//! iso-AMAT constraint.
//!
//! Paper shape to reproduce: local L1 miss rates barely move from 4 K to
//! 64 K, so a small L1 — less leakage, faster — minimises total leakage.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::twolevel::TwoLevelStudy;
use nm_device::units::Seconds;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = TwoLevelStudy::standard(false).expect("standard sizes are legal");
    let l1_sizes = TwoLevelStudy::standard_l1_sizes();
    let l2 = 1024 * 1024;

    // Target: slack over the best min-AMAT across L1 sizes.
    let mut best = f64::INFINITY;
    for &l1 in &l1_sizes {
        best = best.min(study.min_amat_l1_fixed(l1, l2).expect("simulated").0);
    }
    let target = Seconds(best * 1.10);

    let sweep = study
        .l1_size_sweep(&l1_sizes, l2, target)
        .expect("sizes simulated");
    emit_table("table5_l1_size", &sweep.to_table());
    if let Some(w) = sweep.winner() {
        println!(
            "[winner] L1 = {} KB at {:.3} mW total",
            w.size_bytes / 1024,
            w.total_leakage.expect("winner is feasible").milli()
        );
    }

    c.bench_function("table5/l1_size_sweep", |b| {
        b.iter(|| {
            black_box(
                study
                    .l1_size_sweep(&l1_sizes, l2, target)
                    .expect("sizes simulated"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
