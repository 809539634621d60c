//! Miss-rate tables over (L1 size × L2 size) combinations — the
//! architectural statistics the paper's Section 5 optimisations consume.

use crate::access::Access;
use crate::cache::{CacheParams, CacheSim, CacheStats, Replacement};
use crate::error::SimError;
use crate::hierarchy::{serve_level, MultiLevel, MultiLevelStats};
use crate::workload::{SuiteKind, Workload};
use nm_sweep::ParallelSweep;
use std::collections::BTreeMap;

/// Steady-state statistics for one (L1, L2) size combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// L1 miss rate over all CPU references.
    pub l1_miss_rate: f64,
    /// Local L2 miss rate over the demand stream.
    pub l2_local_miss_rate: f64,
    /// L1 writebacks per CPU reference.
    pub l1_writeback_rate: f64,
    /// Store fraction of the CPU reference stream.
    pub write_fraction: f64,
    /// References measured (after warm-up).
    pub measured: u64,
}

impl PairStats {
    /// Global miss rate: main-memory accesses per CPU reference.
    pub fn global_miss_rate(&self) -> f64 {
        self.l1_miss_rate * self.l2_local_miss_rate
    }

    /// The rates of `measure` references from the L1's statistics and the
    /// L2's demand-stream statistics.
    fn from_counts(l1: CacheStats, l2_demand: CacheStats, measure: u64) -> Self {
        PairStats {
            l1_miss_rate: l1.miss_rate(),
            l2_local_miss_rate: l2_demand.miss_rate(),
            l1_writeback_rate: if measure == 0 {
                0.0
            } else {
                l1.writebacks as f64 / measure as f64
            },
            write_fraction: if l1.accesses == 0 {
                0.0
            } else {
                l1.writes as f64 / l1.accesses as f64
            },
            measured: measure,
        }
    }

    /// The mean of `count` per-suite stats: rates summed in suite order,
    /// then divided; `measured` is the total.
    fn suite_mean(per_suite: impl Iterator<Item = PairStats>, count: usize) -> Self {
        let mut acc = PairStats {
            l1_miss_rate: 0.0,
            l2_local_miss_rate: 0.0,
            l1_writeback_rate: 0.0,
            write_fraction: 0.0,
            measured: 0,
        };
        for s in per_suite {
            acc.l1_miss_rate += s.l1_miss_rate;
            acc.l2_local_miss_rate += s.l2_local_miss_rate;
            acc.l1_writeback_rate += s.l1_writeback_rate;
            acc.write_fraction += s.write_fraction;
            acc.measured += s.measured;
        }
        let n = count.max(1) as f64;
        acc.l1_miss_rate /= n;
        acc.l2_local_miss_rate /= n;
        acc.l1_writeback_rate /= n;
        acc.write_fraction /= n;
        acc
    }
}

/// Simulates one (L1, L2) pair against a workload: `warmup` references to
/// populate the hierarchy, then `measure` references of statistics.
///
/// # Errors
///
/// None in practice: the `Result` is [`MultiLevel::new`]'s, which
/// rejects only an empty level list.
pub fn simulate_pair(
    l1: CacheParams,
    l2: CacheParams,
    workload: &mut (dyn Workload + Send),
    warmup: u64,
    measure: u64,
) -> Result<PairStats, SimError> {
    let s = run_warm(&[l1, l2], workload, warmup, measure)?;
    Ok(PairStats::from_counts(s.levels[0], s.levels[1], measure))
}

/// Runs `warmup` references of `workload` through a cold LRU
/// [`MultiLevel`] over `levels`, clears its statistics, and returns the
/// statistics of the next `measure` references.
fn run_warm(
    levels: &[CacheParams],
    workload: &mut (dyn Workload + Send),
    warmup: u64,
    measure: u64,
) -> Result<MultiLevelStats, SimError> {
    let mut h = MultiLevel::new(levels.to_vec(), Replacement::Lru)?;
    for _ in 0..warmup {
        h.access(workload.next_access());
    }
    h.reset_stats();
    for _ in 0..measure {
        h.access(workload.next_access());
    }
    Ok(h.stats())
}

/// One L1 whose misses are replayed into one L2 per size, in the order
/// [`MultiLevel::access`] serves them. The L1 never sees an L2 (there is
/// no back-invalidation), so each (L1, L2) pair evolves exactly as its
/// own two-level [`MultiLevel`] would, while the L1 is simulated once.
struct L2Fanout {
    l1: CacheSim,
    l2s: Vec<(CacheSim, CacheStats)>,
}

impl L2Fanout {
    fn new(l1: CacheParams, l2s: &[CacheParams]) -> Self {
        L2Fanout {
            l1: CacheSim::new(l1, Replacement::Lru),
            l2s: l2s
                .iter()
                .map(|&p| (CacheSim::new(p, Replacement::Lru), CacheStats::default()))
                .collect(),
        }
    }

    fn access(&mut self, access: Access) {
        let out = self.l1.access(access);
        if out.is_hit() {
            return;
        }
        let victims = u64::from(out.victim_writeback());
        for (l2, demand) in &mut self.l2s {
            serve_level(l2, victims, Some(demand), access);
        }
    }

    fn reset_stats(&mut self) {
        self.l1.reset_stats();
        for (l2, demand) in &mut self.l2s {
            l2.reset_stats();
            *demand = CacheStats::default();
        }
    }
}

/// References generated per block of a suite stream. Each block is fed
/// to every L1 in turn while it is still in the host's data cache, and
/// the stream itself is never held whole.
const STREAM_BLOCK: usize = 4096;

/// One suite's stream through one [`L2Fanout`] per L1 size: `warmup`
/// references to populate the caches, then `measure` references of
/// statistics. Returns `[i][j]`, the [`PairStats`] of L1 `i` and L2 `j`.
fn simulate_suite(
    suite: SuiteKind,
    seed: u64,
    l1s: &[CacheParams],
    l2s: &[CacheParams],
    warmup: u64,
    measure: u64,
) -> Vec<Vec<PairStats>> {
    let mut workload = suite.build(seed);
    let mut fanouts: Vec<L2Fanout> = l1s.iter().map(|&l1| L2Fanout::new(l1, l2s)).collect();
    let mut block = Vec::with_capacity(STREAM_BLOCK);
    let mut feed = |fanouts: &mut [L2Fanout], mut remaining: u64| {
        while remaining > 0 {
            let len = remaining.min(STREAM_BLOCK as u64);
            block.clear();
            block.extend((0..len).map(|_| workload.next_access()));
            for fanout in fanouts.iter_mut() {
                for &access in &block {
                    fanout.access(access);
                }
            }
            remaining -= len;
        }
    };
    feed(&mut fanouts, warmup);
    for fanout in &mut fanouts {
        fanout.reset_stats();
    }
    feed(&mut fanouts, measure);
    fanouts
        .iter()
        .map(|fanout| {
            let l1 = fanout.l1.stats();
            fanout
                .l2s
                .iter()
                .map(|&(_, demand)| PairStats::from_counts(l1, demand, measure))
                .collect()
        })
        .collect()
}

/// Steady-state statistics for one N-level size chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStats {
    /// Local (per-demand-probe) miss rate of each level, outermost first.
    pub local_miss_rates: Vec<f64>,
    /// Store fraction of the CPU reference stream.
    pub write_fraction: f64,
    /// References measured (after warm-up).
    pub measured: u64,
}

impl ChainStats {
    /// Global miss rate: main-memory accesses per CPU reference.
    pub fn global_miss_rate(&self) -> f64 {
        self.local_miss_rates.iter().product()
    }
}

/// Simulates an N-level size chain against a workload: `warmup`
/// references to populate the hierarchy, then `measure` references of
/// statistics. The returned miss rates are validated (finite, in
/// `[0, 1]`) before they can feed AMAT delay weights.
///
/// # Errors
///
/// [`SimError::EmptyHierarchy`] for a zero-level chain;
/// [`SimError::MissRateOutOfRange`] should a measured rate fall outside
/// `[0, 1]`.
pub fn simulate_chain(
    levels: &[CacheParams],
    workload: &mut (dyn Workload + Send),
    warmup: u64,
    measure: u64,
) -> Result<ChainStats, SimError> {
    let s = run_warm(levels, workload, warmup, measure)?;
    Ok(ChainStats {
        local_miss_rates: s.try_local_miss_rates()?,
        write_fraction: if s.levels[0].accesses == 0 {
            0.0
        } else {
            s.levels[0].writes as f64 / s.levels[0].accesses as f64
        },
        measured: measure,
    })
}

/// A table of [`PairStats`] keyed by `(l1_bytes, l2_bytes)`, averaged over
/// a suite mix.
///
/// Built once per study and then queried by the optimisers. Construction
/// runs one unit per suite on the shared bounded executor
/// ([`nm_sweep::ParallelSweep`]): the unit generates the suite's stream
/// once, in blocks of 4096 references, and feeds each block through one
/// L1 per size, each of which replays its misses into one live cache per
/// L2 size. A unit therefore holds every cache of the grid at once.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRateTable {
    entries: BTreeMap<(u64, u64), PairStats>,
    suites: Vec<String>,
}

impl MissRateTable {
    /// Simulates every (L1, L2) size combination over every suite in
    /// `suites`, averaging the resulting rates per pair. Each cell is
    /// bit-identical to the suite average of [`simulate_pair`] over the
    /// same stream.
    ///
    /// Block size is 64 B; L1 is 4-way, L2 8-way (paper-era defaults).
    ///
    /// # Errors
    ///
    /// The first [`SimError`] from validating the size grid, in L1-then-L2
    /// order, before any simulation starts.
    pub fn try_build(
        l1_sizes: &[u64],
        l2_sizes: &[u64],
        suites: &[SuiteKind],
        seed: u64,
        warmup: u64,
        measure: u64,
    ) -> Result<Self, SimError> {
        let l1_params: Vec<CacheParams> = l1_sizes
            .iter()
            .map(|&b| CacheParams::new(b, 64, 4))
            .collect::<Result<_, _>>()?;
        let l2_params: Vec<CacheParams> = l2_sizes
            .iter()
            .map(|&b| CacheParams::new(b, 64, 8))
            .collect::<Result<_, _>>()?;
        // `per_suite[k][i][j]`: suite `k`, L1 `i`, L2 `j`.
        let per_suite = ParallelSweep::new()
            .labeled("missrate-table")
            .map(suites, |&suite| {
                simulate_suite(suite, seed, &l1_params, &l2_params, warmup, measure)
            });

        let mut entries = BTreeMap::new();
        for (i, &l1) in l1_sizes.iter().enumerate() {
            for (j, &l2) in l2_sizes.iter().enumerate() {
                let cells = per_suite.iter().map(|suite| suite[i][j]);
                entries.insert((l1, l2), PairStats::suite_mean(cells, suites.len()));
            }
        }

        Ok(MissRateTable {
            entries,
            suites: suites.iter().map(|s| s.name().to_owned()).collect(),
        })
    }

    /// Looks up the stats for an exact (L1, L2) byte-size pair.
    pub fn get(&self, l1_bytes: u64, l2_bytes: u64) -> Option<&PairStats> {
        self.entries.get(&(l1_bytes, l2_bytes))
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u64, u64), &PairStats)> {
        self.entries.iter()
    }

    /// Names of the suites averaged into this table.
    pub fn suites(&self) -> &[String] {
        &self.suites
    }

    /// Number of (L1, L2) pairs in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pairs were simulated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SpecLoops;

    #[test]
    fn simulate_pair_reports_rates() {
        let mut w = SpecLoops::default_suite(11);
        let s = simulate_pair(
            CacheParams::new(8 * 1024, 64, 4).unwrap(),
            CacheParams::new(256 * 1024, 64, 8).unwrap(),
            &mut w,
            20_000,
            50_000,
        )
        .unwrap();
        assert!(s.l1_miss_rate > 0.0 && s.l1_miss_rate < 0.3);
        assert!(s.l2_local_miss_rate >= 0.0 && s.l2_local_miss_rate <= 1.0);
        assert_eq!(s.measured, 50_000);
        assert!((s.global_miss_rate() - s.l1_miss_rate * s.l2_local_miss_rate).abs() < 1e-15);
    }

    #[test]
    fn simulate_chain_matches_pair_for_two_levels() {
        let l1 = CacheParams::new(8 * 1024, 64, 4).unwrap();
        let l2 = CacheParams::new(256 * 1024, 64, 8).unwrap();
        let mut w = SpecLoops::default_suite(11);
        let pair = simulate_pair(l1, l2, &mut w, 20_000, 50_000).unwrap();
        let mut w = SpecLoops::default_suite(11);
        let chain = simulate_chain(&[l1, l2], &mut w, 20_000, 50_000).unwrap();
        // Same workload seed, same hierarchy: bit-identical rates.
        assert_eq!(
            chain.local_miss_rates[0].to_bits(),
            pair.l1_miss_rate.to_bits()
        );
        assert_eq!(
            chain.local_miss_rates[1].to_bits(),
            pair.l2_local_miss_rate.to_bits()
        );
        assert_eq!(
            chain.write_fraction.to_bits(),
            pair.write_fraction.to_bits()
        );
        assert_eq!(chain.measured, pair.measured);
    }

    #[test]
    fn simulate_chain_three_levels() {
        let mut w = SpecLoops::default_suite(5);
        let s = simulate_chain(
            &[
                CacheParams::new(8 * 1024, 64, 4).unwrap(),
                CacheParams::new(128 * 1024, 64, 8).unwrap(),
                CacheParams::new(2 * 1024 * 1024, 64, 16).unwrap(),
            ],
            &mut w,
            20_000,
            50_000,
        )
        .unwrap();
        assert_eq!(s.local_miss_rates.len(), 3);
        for &m in &s.local_miss_rates {
            assert!((0.0..=1.0).contains(&m));
        }
        let product: f64 = s.local_miss_rates.iter().product();
        assert!((s.global_miss_rate() - product).abs() < 1e-15);
        // Empty chains are typed errors, not panics.
        let mut w = SpecLoops::default_suite(5);
        assert_eq!(
            simulate_chain(&[], &mut w, 0, 0).unwrap_err(),
            SimError::EmptyHierarchy
        );
    }

    #[test]
    fn table_covers_all_pairs() {
        let t = MissRateTable::try_build(
            &[4 * 1024, 16 * 1024],
            &[128 * 1024, 512 * 1024],
            &[SuiteKind::Spec2000],
            7,
            5_000,
            10_000,
        )
        .unwrap();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(t.get(4 * 1024, 128 * 1024).is_some());
        assert!(t.get(4 * 1024, 999).is_none());
        assert_eq!(t.suites(), ["spec2000-like"]);
    }

    /// The oracle: the suite mean of one `simulate_pair` per suite.
    fn averaged_pair(
        l1: u64,
        l2: u64,
        suites: &[SuiteKind],
        seed: u64,
        warmup: u64,
        measure: u64,
    ) -> PairStats {
        let l1 = CacheParams::new(l1, 64, 4).unwrap();
        let l2 = CacheParams::new(l2, 64, 8).unwrap();
        let per_suite = suites.iter().map(|suite| {
            simulate_pair(l1, l2, suite.build(seed).as_mut(), warmup, measure).unwrap()
        });
        PairStats::suite_mean(per_suite, suites.len())
    }

    fn bits(s: &PairStats) -> [u64; 5] {
        [
            s.l1_miss_rate.to_bits(),
            s.l2_local_miss_rate.to_bits(),
            s.l1_writeback_rate.to_bits(),
            s.write_fraction.to_bits(),
            s.measured,
        ]
    }

    #[test]
    fn table_cells_are_bit_identical_to_simulate_pair() {
        // Three L1 sizes, so one unit drives several fan-outs.
        let l1_sizes = [2 * 1024, 4 * 1024, 8 * 1024];
        let l2_sizes = [16 * 1024, 64 * 1024, 256 * 1024];
        let suites = [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb];
        // (warm-up, measured): the usual split; a split whose boundary and
        // end both fall inside a stream block; and both edge cases — the
        // stats reset at the boundary even when no measured reference
        // follows it.
        for (warmup, measure) in [(4_000, 12_000), (4_097, 8_191), (0, 8_000), (8_000, 0)] {
            let table = MissRateTable::try_build(&l1_sizes, &l2_sizes, &suites, 5, warmup, measure)
                .unwrap();
            assert_eq!(table.len(), l1_sizes.len() * l2_sizes.len());
            for &l1 in &l1_sizes {
                for &l2 in &l2_sizes {
                    let want = averaged_pair(l1, l2, &suites, 5, warmup, measure);
                    let got = table.get(l1, l2).unwrap();
                    assert_eq!(
                        bits(got),
                        bits(&want),
                        "L1 {l1} / L2 {l2}, warm-up {warmup}, measure {measure}"
                    );
                }
            }
        }
    }

    #[test]
    fn l2_miss_rate_falls_with_l2_size() {
        let t = MissRateTable::try_build(
            &[16 * 1024],
            &[128 * 1024, 512 * 1024, 2 * 1024 * 1024],
            &[SuiteKind::TpcC],
            13,
            100_000,
            150_000,
        )
        .unwrap();
        let m128 = t.get(16 * 1024, 128 * 1024).unwrap().l2_local_miss_rate;
        let m2m = t
            .get(16 * 1024, 2 * 1024 * 1024)
            .unwrap()
            .l2_local_miss_rate;
        assert!(m2m < m128, "2M {m2m} ≥ 128K {m128}");
    }

    #[test]
    fn l1_miss_rate_monotone_in_l1_size() {
        let t = MissRateTable::try_build(
            &[4 * 1024, 64 * 1024],
            &[512 * 1024],
            &[SuiteKind::Spec2000, SuiteKind::SpecWeb],
            17,
            50_000,
            80_000,
        )
        .unwrap();
        let m4 = t.get(4 * 1024, 512 * 1024).unwrap().l1_miss_rate;
        let m64 = t.get(64 * 1024, 512 * 1024).unwrap().l1_miss_rate;
        assert!(m64 <= m4, "64K {m64} > 4K {m4}");
    }

    #[test]
    fn illegal_l1_size_is_named_before_any_simulation() {
        let err = MissRateTable::try_build(
            &[16 * 1024, 3000],
            &[100_000],
            &[SuiteKind::Spec2000],
            1,
            10,
            10,
        )
        .unwrap_err();
        // L1 sizes are checked first, so the bad L2 size is not reached.
        assert_eq!(
            err,
            SimError::NotPowerOfTwo {
                which: "size",
                value: 3000
            }
        );
    }

    #[test]
    fn illegal_l2_size_is_named_before_any_simulation() {
        let err = MissRateTable::try_build(
            &[16 * 1024],
            &[256 * 1024, 100_000],
            &[SuiteKind::Spec2000],
            1,
            10,
            10,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::NotPowerOfTwo {
                which: "size",
                value: 100_000
            }
        );
    }

    #[test]
    fn deterministic_tables() {
        let build = || {
            MissRateTable::try_build(
                &[8 * 1024],
                &[256 * 1024],
                &[SuiteKind::SpecWeb],
                3,
                5_000,
                10_000,
            )
        };
        assert_eq!(build(), build());
    }
}
