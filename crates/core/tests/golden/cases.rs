//! The golden study cases: each snapshot file under
//! `crates/core/tests/golden/` and the study run that renders it.
//!
//! Both the golden-equivalence tests (`crates/core/tests/golden_tables.rs`)
//! and the generator (`examples/golden_gen.rs`) include this file through
//! `#[path]`, so the tables they check and the tables they write come
//! from one setup.

use nm_archsim::workload::SuiteKind;
use nm_archsim::{MissRateTable, PairStats};
use nm_cache_core::amat::MainMemory;
use nm_cache_core::decay::DecayStudy;
use nm_cache_core::groups::Scheme;
use nm_cache_core::memsys::{MemorySystemStudy, TupleCounts};
use nm_cache_core::mixedtech::MixedTechStudy;
use nm_cache_core::single::SingleCacheStudy;
use nm_cache_core::splitl1::SplitL1Study;
use nm_cache_core::twolevel::{TwoLevelStudy, STANDARD_SUITES};
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::CacheConfig;
use std::sync::OnceLock;

/// Runs one case's study and renders its table.
pub type Render = fn() -> String;

/// Every case, as its snapshot file name and its renderer.
pub const CASES: [(&str, Render); 9] = [
    ("e2_scheme_comparison.txt", e2_scheme_comparison),
    ("e7_knob_ablation.txt", e7_knob_ablation),
    ("e3_l2_sweep_uniform.txt", e3_l2_sweep_uniform),
    ("e4_l2_sweep_split.txt", e4_l2_sweep_split),
    ("e5_l1_sweep.txt", e5_l1_sweep),
    ("x4_split_l1.txt", x4_split_l1),
    ("e6_tuple_table.txt", e6_tuple_table),
    ("e8_mixed_tech.txt", e8_mixed_tech),
    ("x3_decay.txt", x3_decay),
];

/// E2 / E7 — the single-cache study on the coarse grid.
fn single_study() -> SingleCacheStudy {
    let tech = TechnologyNode::bptm65();
    SingleCacheStudy::new(
        CacheConfig::new(16 * 1024, 64, 4).expect("valid config"),
        &tech,
        KnobGrid::coarse(),
    )
}

fn e2_scheme_comparison() -> String {
    let single = single_study();
    let deadlines = single.delay_sweep(6);
    single.scheme_comparison(&deadlines[1..]).to_string()
}

fn e7_knob_ablation() -> String {
    let single = single_study();
    let deadlines = single.delay_sweep(6);
    single.knob_ablation(&deadlines[2..5]).to_string()
}

const L1_SIZES: [u64; 3] = [8 * 1024, 16 * 1024, 32 * 1024];
const L2_SIZES: [u64; 3] = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];

/// E3 / E4 / E5 — the two-level study over a small deterministic
/// miss-rate table, built once (the miss-rate simulation dominates the
/// cost of the three cases).
fn two_level_study() -> &'static TwoLevelStudy {
    static STUDY: OnceLock<TwoLevelStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        let missrates = MissRateTable::try_build(
            &L1_SIZES,
            &L2_SIZES,
            &STANDARD_SUITES,
            2005,
            400_000,
            400_000,
        )
        .expect("legal cache sizes");
        TwoLevelStudy::new(
            missrates,
            TechnologyNode::bptm65(),
            KnobGrid::coarse(),
            MainMemory::default(),
        )
    })
}

fn l2_sweep(scheme: Scheme) -> String {
    let two = two_level_study();
    let target = two
        .amat_target(16 * 1024, &L2_SIZES, 0.06)
        .expect("sizes simulated");
    two.l2_size_sweep(16 * 1024, &L2_SIZES, scheme, target)
        .expect("sizes simulated")
        .to_table()
        .to_string()
}

fn e3_l2_sweep_uniform() -> String {
    l2_sweep(Scheme::Uniform)
}

fn e4_l2_sweep_split() -> String {
    l2_sweep(Scheme::Split)
}

fn e5_l1_sweep() -> String {
    let two = two_level_study();
    let target = two
        .amat_target(8 * 1024, &[1024 * 1024], 0.15)
        .expect("sizes simulated");
    two.l1_size_sweep(&L1_SIZES, 1024 * 1024, target)
        .expect("sizes simulated")
        .to_table()
        .to_string()
}

/// X4 — split I$/D$ versus unified L1.
fn x4_split_l1() -> String {
    let split = SplitL1Study::new(
        16 * 1024,
        16 * 1024,
        512 * 1024,
        SuiteKind::Spec2000,
        200_000,
        KnobGrid::coarse(),
    )
    .expect("valid configuration");
    split.to_table(&[0.10, 0.20]).to_string()
}

/// E6 — Figure 2 tuple curves with pinned miss-rate statistics.
fn e6_tuple_table() -> String {
    let stats = PairStats {
        l1_miss_rate: 0.05,
        l2_local_miss_rate: 0.25,
        l1_writeback_rate: 0.01,
        write_fraction: 0.3,
        measured: 1,
    };
    let memsys = MemorySystemStudy::new(
        16 * 1024,
        1024 * 1024,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )
    .expect("valid configuration");
    let tuples = [
        TupleCounts { n_tox: 2, n_vth: 2 },
        TupleCounts { n_tox: 2, n_vth: 1 },
        TupleCounts { n_tox: 1, n_vth: 2 },
    ];
    memsys
        .tuple_table(&tuples, &memsys.amat_sweep(4))
        .to_string()
}

/// E8 — the three-level mixed-technology comparison. Matches the CLI's
/// `nmcache e8 --quick` defaults exactly, so CI can diff the two.
fn e8_mixed_tech() -> String {
    let mixed = MixedTechStudy::standard(true).expect("standard study builds");
    mixed
        .compare(
            &[
                TechProfile::sram(),
                TechProfile::edram(),
                TechProfile::stt_mram(),
            ],
            0.15,
        )
        .expect("all candidates evaluable")
        .to_table()
        .to_string()
}

/// X3 — process knobs versus cache decay. Matches the CLI's
/// `nmcache decay` defaults exactly (including its deadline expression at
/// `--slack 0.15`), so CI can diff the two.
fn x3_decay() -> String {
    let slack = 0.15;
    let single = SingleCacheStudy::paper_16kb().expect("paper study builds");
    let study = DecayStudy::new(single, SuiteKind::Spec2000, 300_000);
    let deadline = study.study().delay_sweep(5)[2] * (1.0 + slack - 0.15);
    study.to_table(deadline).expect("healthy build").to_string()
}
