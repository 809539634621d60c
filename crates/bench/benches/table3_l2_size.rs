//! **E3 / Table 3** — L2 size sweep with a single `Vth`/`Tox` pair per L2
//! (Section 5, first experiment): L1 fixed at default knobs, iso-AMAT
//! constraint.
//!
//! Paper shape to reproduce: bigger L2s leak less at iso-AMAT than the
//! smallest, but the largest size does not always win — leakage of a very
//! large L2 eventually outweighs its miss-rate benefit.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::groups::Scheme;
use nm_cache_core::twolevel::TwoLevelStudy;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = TwoLevelStudy::standard(false).expect("standard sizes are legal");
    let l1 = 16 * 1024;
    let l2_sizes = TwoLevelStudy::standard_l2_sizes();

    // Two constraints: tight (6 % slack) and relaxed (15 % slack).
    for (name, slack) in [("tight", 0.06), ("relaxed", 0.15)] {
        let target = study
            .amat_target(l1, &l2_sizes, slack)
            .expect("sizes simulated");
        let sweep = study
            .l2_size_sweep(l1, &l2_sizes, Scheme::Uniform, target)
            .expect("sizes simulated");
        emit_table(&format!("table3_l2_size_{name}"), &sweep.to_table());
        if let Some(w) = sweep.winner() {
            println!(
                "[winner/{name}] {} KB at {:.3} mW total",
                w.size_bytes / 1024,
                w.total_leakage.expect("winner is feasible").milli()
            );
        }
    }

    let target = study
        .amat_target(l1, &l2_sizes, 0.10)
        .expect("sizes simulated");
    c.bench_function("table3/l2_size_sweep_uniform", |b| {
        b.iter(|| {
            black_box(
                study
                    .l2_size_sweep(l1, &l2_sizes, Scheme::Uniform, target)
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
