//! **E6 / Figure 2** — the (`Tox`, `Vth`) tuple problem: total memory
//! system energy (pJ) versus AMAT (ps) for the five tuple restrictions of
//! the paper's legend, on a 16 KB L1 + 1 MB L2 + DRAM system.
//!
//! Paper shape to reproduce: 2 Tox + 3 Vth is best but 2 Tox + 2 Vth is
//! within a hair of it (dual/dual suffices), and 1 Tox + 2 Vth beats
//! 2 Tox + 1 Vth (`Vth` is the more effective knob).

use criterion::{criterion_group, criterion_main, Criterion};
use nm_archsim::MissRateTable;
use nm_bench::emit_series;
use nm_cache_core::amat::MainMemory;
use nm_cache_core::memsys::{MemorySystemStudy, TupleCounts};
use nm_cache_core::twolevel::{TwoLevelStudy, STANDARD_SUITES};
use nm_device::{KnobGrid, TechnologyNode};
use std::hint::black_box;

fn build_study() -> MemorySystemStudy {
    let l1 = 16 * 1024;
    let l2 = 1024 * 1024;
    let missrates =
        MissRateTable::try_build(&[l1], &[l2], &STANDARD_SUITES, 2005, 300_000, 600_000)
            .expect("legal cache sizes");
    let stats = *missrates.get(l1, l2).expect("pair simulated");
    MemorySystemStudy::new(
        l1,
        l2,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )
    .expect("valid configuration")
}

fn bench(c: &mut Criterion) {
    // Keep the archsim dependency alive for the doc link above.
    let _ = TwoLevelStudy::standard_l1_sizes();

    let study = build_study();
    let targets = study.amat_sweep(9);
    let series = study.tuple_curves(&TupleCounts::FIGURE2, &targets);
    emit_series(
        "fig2_tuples",
        "Figure 2: (Tox, Vth) tuple problem",
        "AMAT (ps)",
        "total energy (pJ)",
        &series,
    );

    let two_targets = vec![targets[2], targets[5]];
    c.bench_function("fig2/tuple_2tox_2vth_two_targets", |b| {
        b.iter(|| {
            black_box(study.tuple_curves(&[TupleCounts { n_tox: 2, n_vth: 2 }], &two_targets))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
