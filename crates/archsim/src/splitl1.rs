//! Split L1 (instruction + data) hierarchy with a unified L2.
//!
//! The paper's "L1 cache" is generic; real paper-era processors split it
//! into an instruction cache and a data cache backed by one unified L2.
//! This module adds the missing pieces: a synthetic instruction-fetch
//! stream ([`InstStream`]) and a three-cache hierarchy
//! ([`SplitHierarchy`]) whose statistics drive the split-L1 study in
//! `nm-cache-core`.

use crate::access::Access;
use crate::cache::{CacheParams, CacheSim, CacheStats};
use crate::error::SimError;
use crate::hierarchy::{serve_level, MultiLevel};
use crate::workload::Workload;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base address of the code segment (disjoint from every data region).
const CODE_BASE: u64 = 0x0040_0000;

/// A synthetic instruction-fetch stream: sequential fetch through basic
/// blocks, branches to Zipf-popular functions, and tight loops.
///
/// Instruction working sets are small and strongly looped, so I-cache
/// miss rates are low (a couple of percent at 16 KB) and fall quickly
/// with size — the standard paper-era picture.
#[derive(Debug, Clone)]
pub struct InstStream {
    rng: StdRng,
    /// Function popularity (Zipf over function indices).
    functions: Zipf,
    /// Bytes per function body.
    function_bytes: u64,
    /// Current fetch address.
    pc: u64,
    /// Instructions left in the current basic block.
    block_left: u32,
    /// Loop state: remaining iterations and loop start.
    loop_left: u32,
    loop_start: u64,
    loop_len: u64,
}

impl InstStream {
    /// The default parameterisation: 256 functions of 2 KB (512 KB of
    /// code) with Zipf(1.1) popularity — a hot inner core with a long
    /// tail.
    pub fn default_suite(seed: u64) -> Self {
        InstStream {
            rng: StdRng::seed_from_u64(seed ^ 0x1f57),
            functions: Zipf::new(256, 1.1),
            function_bytes: 2 * 1024,
            pc: CODE_BASE,
            block_left: 8,
            loop_left: 0,
            loop_start: CODE_BASE,
            loop_len: 0,
        }
    }

    fn branch(&mut self) {
        if self.loop_left > 0 {
            // Loop back-edge.
            self.loop_left -= 1;
            self.pc = self.loop_start;
            return;
        }
        let p: f64 = self.rng.gen();
        if p < 0.55 {
            // Start a loop over the last few blocks.
            self.loop_len = u64::from(self.rng.gen_range(4..32u32)) * 4;
            self.loop_start = self.pc.saturating_sub(self.loop_len).max(CODE_BASE);
            self.loop_left = self.rng.gen_range(4..64);
            self.pc = self.loop_start;
        } else {
            // Call a (Zipf-popular) function.
            let f = self.functions.sample(&mut self.rng) as u64;
            self.pc = CODE_BASE + f * self.function_bytes;
        }
    }
}

impl Workload for InstStream {
    fn next_access(&mut self) -> Access {
        if self.block_left == 0 {
            self.block_left = self.rng.gen_range(4..16);
            self.branch();
        }
        self.block_left -= 1;
        let a = Access::read(self.pc);
        self.pc += 4; // one 32-bit instruction
        a
    }

    fn name(&self) -> &'static str {
        "inst-stream"
    }
}

/// Statistics of a split hierarchy: both L1s over their own streams, the
/// unified L2 over the merged demand stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SplitStats {
    /// Instruction-cache statistics.
    pub icache: CacheStats,
    /// Data-cache statistics.
    pub dcache: CacheStats,
    /// Unified L2 statistics over the merged demand stream.
    pub l2: CacheStats,
}

impl SplitStats {
    /// I-cache miss rate.
    pub fn icache_miss_rate(&self) -> f64 {
        self.icache.miss_rate()
    }

    /// D-cache miss rate.
    pub fn dcache_miss_rate(&self) -> f64 {
        self.dcache.miss_rate()
    }

    /// Local L2 miss rate over the merged demand stream.
    pub fn l2_local_miss_rate(&self) -> f64 {
        self.l2.miss_rate()
    }
}

/// An I$ + D$ + unified-L2 hierarchy.
#[derive(Debug, Clone)]
pub struct SplitHierarchy {
    icache: CacheSim,
    dcache: CacheSim,
    l2: CacheSim,
    demand_l2: CacheStats,
}

impl SplitHierarchy {
    /// Builds a cold split hierarchy (LRU everywhere).
    pub fn new(icache: CacheParams, dcache: CacheParams, l2: CacheParams) -> Self {
        SplitHierarchy {
            icache: CacheSim::new(icache),
            dcache: CacheSim::new(dcache),
            l2: CacheSim::new(l2),
            demand_l2: CacheStats::default(),
        }
    }

    /// Issues an instruction fetch; returns `true` on an I$ hit.
    pub fn fetch(&mut self, access: Access) -> bool {
        self.issue(access, true)
    }

    /// Issues a data reference; returns `true` on a D$ hit.
    pub fn data(&mut self, access: Access) -> bool {
        self.issue(access, false)
    }

    /// Probes the I$ (`fetch`) or the D$ with one reference; a miss
    /// goes down to the unified L2 through [`serve_level`].
    fn issue(&mut self, access: Access, fetch: bool) -> bool {
        let l1 = if fetch {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        let out = l1.access(access);
        if !out.is_hit() {
            let victims = u64::from(out.victim_writeback());
            serve_level(&mut self.l2, victims, Some(&mut self.demand_l2), access);
        }
        out.is_hit()
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> SplitStats {
        SplitStats {
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            l2: self.demand_l2,
        }
    }

    /// Clears statistics, keeping contents warm.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
        self.l2.reset_stats();
        self.demand_l2 = CacheStats::default();
    }
}

/// Drives the interleaved instruction/data stream through `h`: every
/// step fetches one instruction and, with probability `data_per_inst`,
/// issues one data reference. `issue(h, access, fetch)` serves one
/// reference; `reset` clears the statistics when the warm-up half ends.
fn interleave<H>(
    h: &mut H,
    issue: impl Fn(&mut H, Access, bool),
    reset: impl Fn(&mut H),
    data_workload: &mut (dyn Workload + Send),
    seed: u64,
    steps: u64,
    data_per_inst: f64,
) {
    let mut inst = InstStream::default_suite(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ce);
    let warmup = steps / 2;
    for step in 0..steps {
        if step == warmup {
            reset(h);
        }
        issue(h, inst.next_access(), true);
        if rng.gen_bool(data_per_inst) {
            issue(h, data_workload.next_access(), false);
        }
    }
}

/// Runs an interleaved instruction/data simulation: every step fetches
/// one instruction and, with probability `data_per_inst`, issues one data
/// reference. Returns steady-state statistics after a warm-up half.
pub fn simulate_split(
    icache: CacheParams,
    dcache: CacheParams,
    l2: CacheParams,
    data_workload: &mut (dyn Workload + Send),
    seed: u64,
    steps: u64,
    data_per_inst: f64,
) -> SplitStats {
    let mut h = SplitHierarchy::new(icache, dcache, l2);
    interleave(
        &mut h,
        |h, access, fetch| {
            h.issue(access, fetch);
        },
        SplitHierarchy::reset_stats,
        data_workload,
        seed,
        steps,
        data_per_inst,
    );
    h.stats()
}

/// Runs the same interleaved stream through a *unified* L1 (instructions
/// and data share one cache) + L2, for comparison against the split
/// organisation. Returns `(l1_stats, l2_demand_stats)`.
///
/// # Errors
///
/// None in practice: the `Result` is [`MultiLevel::new`]'s, which
/// rejects only an empty level list.
pub fn simulate_unified(
    l1: CacheParams,
    l2: CacheParams,
    data_workload: &mut (dyn Workload + Send),
    seed: u64,
    steps: u64,
    data_per_inst: f64,
) -> Result<(CacheStats, CacheStats), SimError> {
    let mut h = MultiLevel::new(vec![l1, l2])?;
    interleave(
        &mut h,
        |h, access, _| {
            h.access(access);
        },
        MultiLevel::reset_stats,
        data_workload,
        seed,
        steps,
        data_per_inst,
    );
    let s = h.stats();
    Ok((s.levels[0], s.levels[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{SpecLoops, SuiteKind};

    fn params(kb: u64, ways: u64) -> CacheParams {
        CacheParams::new(kb * 1024, 64, ways).unwrap()
    }

    #[test]
    fn inst_stream_is_deterministic_and_code_resident() {
        let mut a = InstStream::default_suite(3);
        let mut b = InstStream::default_suite(3);
        for _ in 0..1000 {
            let x = a.next_access();
            assert_eq!(x, b.next_access());
            assert!(x.addr >= CODE_BASE);
            assert!(!x.is_write(), "instruction fetches are reads");
        }
    }

    #[test]
    fn icache_miss_rate_low_and_falls_with_size() {
        let run = |kb: u64| {
            let mut sim = CacheSim::new(params(kb, 2));
            let mut w = InstStream::default_suite(5);
            for _ in 0..100_000 {
                sim.access(w.next_access());
            }
            sim.reset_stats();
            for _ in 0..100_000 {
                sim.access(w.next_access());
            }
            sim.stats().miss_rate()
        };
        let m8 = run(8);
        let m32 = run(32);
        assert!(m8 < 0.08, "8K I$ miss rate = {m8}");
        assert!(m32 <= m8, "m32 {m32} > m8 {m8}");
    }

    #[test]
    fn split_simulation_produces_consistent_stats() {
        let mut data = SpecLoops::default_suite(7);
        let s = simulate_split(
            params(16, 2),
            params(16, 4),
            params(512, 8),
            &mut data,
            11,
            120_000,
            0.35,
        );
        assert!(s.icache.accesses > 0);
        assert!(s.dcache.accesses > 0);
        // Roughly data_per_inst ratio between the streams.
        let ratio = s.dcache.accesses as f64 / s.icache.accesses as f64;
        assert!((0.25..0.45).contains(&ratio), "ratio = {ratio}");
        // L2 demand equals the two levels' misses combined.
        assert_eq!(s.l2.accesses, s.icache.misses + s.dcache.misses);
        assert!(s.icache_miss_rate() < s.dcache_miss_rate() + 0.2);
    }

    #[test]
    fn unified_and_split_see_the_same_stream() {
        // The unified run must process the same reference count and its
        // miss rate should land in a sane band (split vs unified is the
        // study question, not a fixed ordering).
        let mut data_a = SpecLoops::default_suite(7);
        let mut data_b = SpecLoops::default_suite(7);
        let split = simulate_split(
            params(16, 2),
            params(16, 4),
            params(512, 8),
            &mut data_a,
            11,
            120_000,
            0.35,
        );
        let (unified, _) = simulate_unified(
            params(32, 4),
            params(512, 8),
            &mut data_b,
            11,
            120_000,
            0.35,
        )
        .unwrap();
        let split_total = split.icache.accesses + split.dcache.accesses;
        assert_eq!(unified.accesses, split_total);
        assert!(unified.miss_rate() < 0.3);
    }

    #[test]
    fn raw_counts_are_pinned() {
        // Small L1s under the TPC-C-like suite, whose stores make the D$
        // and the unified L1 evict dirty lines into the L2.
        let mut data = SuiteKind::TpcC.build(2005);
        let s = simulate_split(
            params(8, 2),
            params(8, 4),
            params(256, 8),
            data.as_mut(),
            2005,
            60_000,
            0.35,
        );
        let counts = |c: CacheStats| (c.accesses, c.misses, c.writebacks);
        assert_eq!(counts(s.icache), (30_000, 81, 0));
        assert_eq!(counts(s.dcache), (10_402, 1_453, 286));
        assert_eq!((s.l2.accesses, s.l2.misses), (1_534, 754));
        let mut data = SuiteKind::TpcC.build(2005);
        let (l1, l2) = simulate_unified(
            params(16, 4),
            params(256, 8),
            data.as_mut(),
            2005,
            60_000,
            0.35,
        )
        .unwrap();
        assert_eq!(counts(l1), (40_402, 1_389, 278));
        assert_eq!((l2.accesses, l2.misses), (1_389, 735));
    }

    #[test]
    fn l2_helps_both_streams() {
        let mut data = SpecLoops::default_suite(9);
        let s = simulate_split(
            params(8, 2),
            params(8, 4),
            params(1024, 8),
            &mut data,
            13,
            150_000,
            0.35,
        );
        assert!(
            s.l2_local_miss_rate() < 0.9,
            "L2 local mr = {}",
            s.l2_local_miss_rate()
        );
    }
}
