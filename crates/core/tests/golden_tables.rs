//! Golden-equivalence tests: every study pipeline ported onto the shared
//! evaluation engine must render **byte-identical** tables to the
//! snapshots captured from the pre-refactor direct pipeline (committed
//! under `tests/golden/`, regenerated by `examples/golden_gen.rs`).
//!
//! These pin the refactor's core contract — memoization and the spec
//! layer change *how fast* the studies run, never *what* they compute.

use nm_archsim::workload::SuiteKind;
use nm_archsim::{MissRateTable, PairStats};
use nm_cache_core::amat::MainMemory;
use nm_cache_core::groups::Scheme;
use nm_cache_core::memsys::{MemorySystemStudy, TupleCounts};
use nm_cache_core::mixedtech::MixedTechStudy;
use nm_cache_core::single::SingleCacheStudy;
use nm_cache_core::splitl1::SplitL1Study;
use nm_cache_core::twolevel::{TwoLevelStudy, STANDARD_SUITES};
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::CacheConfig;
use std::sync::OnceLock;

fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        // Show the first differing line to make drift diagnosable.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "{name}: first divergence at line {}", i + 1);
        }
        panic!(
            "{name}: line counts differ ({} vs {})",
            actual.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn e2_scheme_comparison_matches_golden() {
    let single = single_study();
    let deadlines = single.delay_sweep(6);
    assert_golden(
        &single.scheme_comparison(&deadlines[1..]).to_string(),
        include_str!("golden/e2_scheme_comparison.txt"),
        "e2",
    );
}

#[test]
fn e7_knob_ablation_matches_golden() {
    let single = single_study();
    let deadlines = single.delay_sweep(6);
    assert_golden(
        &single.knob_ablation(&deadlines[2..5]).to_string(),
        include_str!("golden/e7_knob_ablation.txt"),
        "e7",
    );
}

fn single_study() -> SingleCacheStudy {
    let tech = TechnologyNode::bptm65();
    SingleCacheStudy::new(
        CacheConfig::new(16 * 1024, 64, 4).expect("valid config"),
        &tech,
        KnobGrid::coarse(),
    )
}

const L1_SIZES: [u64; 3] = [8 * 1024, 16 * 1024, 32 * 1024];
const L2_SIZES: [u64; 3] = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];

/// The two-level study golden_gen uses, built once (the miss-rate
/// simulation dominates the test's cost).
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

#[test]
fn e3_l2_sweep_uniform_matches_golden() {
    let two = two_level_study();
    let target = two
        .amat_target(16 * 1024, &L2_SIZES, 0.06)
        .expect("sizes simulated");
    assert_golden(
        &two.l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Uniform, target)
            .expect("sizes simulated")
            .to_table()
            .to_string(),
        include_str!("golden/e3_l2_sweep_uniform.txt"),
        "e3",
    );
}

#[test]
fn e4_l2_sweep_split_matches_golden() {
    let two = two_level_study();
    let target = two
        .amat_target(16 * 1024, &L2_SIZES, 0.06)
        .expect("sizes simulated");
    assert_golden(
        &two.l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Split, target)
            .expect("sizes simulated")
            .to_table()
            .to_string(),
        include_str!("golden/e4_l2_sweep_split.txt"),
        "e4",
    );
}

#[test]
fn e5_l1_sweep_matches_golden() {
    let two = two_level_study();
    let target = two
        .amat_target(8 * 1024, &[1024 * 1024], 0.15)
        .expect("sizes simulated");
    assert_golden(
        &two.l1_size_sweep(&L1_SIZES, 1024 * 1024, target)
            .expect("sizes simulated")
            .to_table()
            .to_string(),
        include_str!("golden/e5_l1_sweep.txt"),
        "e5",
    );
}

#[test]
fn x4_split_l1_matches_golden() {
    let split = SplitL1Study::new(
        16 * 1024,
        16 * 1024,
        512 * 1024,
        SuiteKind::Spec2000,
        200_000,
        KnobGrid::coarse(),
    )
    .expect("valid configuration");
    assert_golden(
        &split.to_table(&[0.10, 0.20]).to_string(),
        include_str!("golden/x4_split_l1.txt"),
        "x4",
    );
}

#[test]
fn e8_mixed_tech_matches_golden() {
    let mixed = MixedTechStudy::standard(true).expect("standard study builds");
    assert_golden(
        &mixed
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
            .to_string(),
        include_str!("golden/e8_mixed_tech.txt"),
        "e8",
    );
}

#[test]
fn e6_tuple_table_matches_golden() {
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
    assert_golden(
        &memsys
            .tuple_table(
                &[
                    TupleCounts { n_tox: 2, n_vth: 2 },
                    TupleCounts { n_tox: 2, n_vth: 1 },
                    TupleCounts { n_tox: 1, n_vth: 2 },
                ],
                &memsys.amat_sweep(4),
            )
            .to_string(),
        include_str!("golden/e6_tuple_table.txt"),
        "e6",
    );
}
