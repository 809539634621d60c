//! A single set-associative cache with write-back/write-allocate
//! semantics.

use crate::access::Access;
use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (the paper-era default).
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (xorshift over an internal counter — deterministic
    /// for reproducibility).
    Random,
}

/// Architectural cache parameters for simulation.
///
/// Only [`CacheParams::new`] builds one, so block size, associativity and
/// set count are always powers of two and an address decodes by shift
/// and mask ([`set_and_tag`](Self::set_and_tag)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CacheParams {
    size_bytes: u64,
    block_bytes: u64,
    ways: u64,
}

impl CacheParams {
    /// Validates and creates simulation parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::NotPowerOfTwo`] for non-power-of-two inputs;
    /// [`SimError::InconsistentShape`] when the shape has no sets.
    pub fn new(size_bytes: u64, block_bytes: u64, ways: u64) -> Result<Self, SimError> {
        for (which, value) in [("size", size_bytes), ("block", block_bytes), ("ways", ways)] {
            if value == 0 || !value.is_power_of_two() {
                return Err(SimError::NotPowerOfTwo { which, value });
            }
        }
        if size_bytes < block_bytes * ways {
            return Err(SimError::InconsistentShape {
                size: size_bytes,
                block: block_bytes,
                ways,
            });
        }
        Ok(CacheParams {
            size_bytes,
            block_bytes,
            ways,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Block size in bytes.
    pub fn block_bytes(self) -> u64 {
        self.block_bytes
    }

    /// Associativity.
    pub fn ways(self) -> u64 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        1 << self.set_bits()
    }

    /// `log2` of the set count.
    fn set_bits(self) -> u32 {
        self.size_bytes.trailing_zeros()
            - self.block_bytes.trailing_zeros()
            - self.ways.trailing_zeros()
    }

    /// Decodes `addr` into its set index and tag: the block number's low
    /// `log2(sets)` bits pick the set, the rest are the tag.
    pub fn set_and_tag(self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_bytes.trailing_zeros();
        let set_bits = self.set_bits();
        let set = (block & ((1 << set_bits) - 1)) as usize;
        (set, block >> set_bits)
    }
}

impl fmt::Display for CacheParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B/{}-way",
            self.size_bytes / 1024,
            self.block_bytes,
            self.ways
        )
    }
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The block was resident.
    Hit,
    /// The block was absent; `victim_writeback` reports whether a dirty
    /// line was evicted to make room.
    Miss {
        /// A dirty victim was written back.
        victim_writeback: bool,
    },
}

impl Outcome {
    /// `true` on a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Hit)
    }

    /// `true` when the probe evicted a dirty line, which the next level
    /// down must absorb as a write.
    pub fn victim_writeback(self) -> bool {
        matches!(
            self,
            Outcome::Miss {
                victim_writeback: true
            }
        )
    }
}

/// Running access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total probes.
    pub accesses: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Store probes.
    pub writes: u64,
}

impl CacheStats {
    /// Miss rate (0 when no accesses yet).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate (complement of the miss rate).
    pub fn hit_rate(&self) -> f64 {
        1.0 - self.miss_rate()
    }
}

/// A set-associative, write-back, write-allocate cache simulator.
///
/// Deterministic for a given access sequence and policy (the random policy
/// uses an internal xorshift generator seeded by construction).
///
/// Each set is `ways` consecutive slots of `tags` and `dirty`, of which
/// the first `fill[set]` hold lines; slots past the fill are never read.
/// Under LRU and FIFO a set is kept newest first (most recently used,
/// or most recently inserted), so the victim is always the last way and
/// no per-line timestamp is stored: an LRU hit moves its way to the
/// front, a FIFO hit moves nothing, and a miss shifts the set back by
/// one. Under `Random` a miss fills the first empty way and otherwise
/// replaces a way picked by the generator in place. The hit scan visits
/// every filled way without an early exit (a tag sits in at most one
/// way), and there is no sentinel tag, so every block address is legal.
///
/// ```
/// use nm_archsim::{Access, CacheParams, CacheSim, Replacement};
///
/// let mut sim = CacheSim::new(CacheParams::new(1024, 64, 2)?, Replacement::Lru);
/// assert!(!sim.access(Access::read(0x40)).is_hit()); // compulsory miss
/// assert!(sim.access(Access::read(0x40)).is_hit());
/// assert_eq!(sim.stats().misses, 1);
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    params: CacheParams,
    policy: Replacement,
    /// Block tags, `ways` slots per set.
    tags: Vec<u64>,
    /// Dirty bits, parallel to `tags`.
    dirty: Vec<bool>,
    /// Filled ways per set: always a prefix of the set's slots.
    fill: Vec<u32>,
    stats: CacheStats,
    rng_state: u64,
}

impl CacheSim {
    /// Creates an empty (cold) cache.
    pub fn new(params: CacheParams, policy: Replacement) -> Self {
        let total_lines = (params.sets() * params.ways()) as usize;
        CacheSim {
            params,
            policy,
            tags: vec![0; total_lines],
            dirty: vec![false; total_lines],
            fill: vec![0; params.sets() as usize],
            stats: CacheStats::default(),
            rng_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// The replacement policy.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase) without flushing
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Flushes all contents and statistics back to the cold state.
    pub fn flush(&mut self) {
        self.fill.fill(0);
        self.stats = CacheStats::default();
    }

    /// Probes the cache with one reference, updating state and statistics.
    pub fn access(&mut self, access: Access) -> Outcome {
        let write = access.is_write();
        self.stats.accesses += 1;
        self.stats.writes += u64::from(write);
        let (set, tag) = self.params.set_and_tag(access.addr);
        let ways = self.params.ways() as usize;
        let base = set * ways;
        let filled = self.fill[set] as usize;
        let tags = &mut self.tags[base..base + ways];
        let dirty = &mut self.dirty[base..base + ways];

        let mut way = filled;
        for (i, &t) in tags[..filled].iter().enumerate() {
            way = if t == tag { i } else { way };
        }
        if way < filled {
            match self.policy {
                Replacement::Lru => {
                    let d = dirty[way] | write;
                    promote(&mut tags[..filled], &mut dirty[..filled], way, tag, d);
                }
                Replacement::Fifo | Replacement::Random => dirty[way] |= write,
            }
            return Outcome::Hit;
        }

        self.stats.misses += 1;
        let full = filled == ways;
        if !full {
            self.fill[set] += 1;
        }
        let victim_writeback = match self.policy {
            Replacement::Lru | Replacement::Fifo => {
                let writeback = full && dirty[ways - 1];
                let end = (filled + 1).min(ways);
                promote(&mut tags[..end], &mut dirty[..end], end - 1, tag, write);
                writeback
            }
            Replacement::Random => {
                let slot = if full {
                    next_random(&mut self.rng_state) as usize % ways
                } else {
                    filled
                };
                let writeback = full && dirty[slot];
                tags[slot] = tag;
                dirty[slot] = write;
                writeback
            }
        };
        self.stats.writebacks += u64::from(victim_writeback);
        Outcome::Miss { victim_writeback }
    }

    /// Runs a whole iterator of accesses, returning the number processed.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, accesses: I) -> u64 {
        let mut n = 0;
        for a in accesses {
            self.access(a);
            n += 1;
        }
        n
    }
}

/// One xorshift64* step.
fn next_random(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Moves way `from` of a recency-ordered set to the front as `(tag,
/// dirty)`, shifting ways `0..from` back by one. The loop runs over the
/// whole slice and picks each way's source by arithmetic, so neither its
/// trip count nor any branch depends on `from`.
#[inline]
fn promote(tags: &mut [u64], dirty: &mut [bool], from: usize, tag: u64, d: bool) {
    let dirty = &mut dirty[..tags.len()];
    for k in (1..tags.len()).rev() {
        let src = k - usize::from(k <= from);
        tags[k] = tags[src];
        dirty[k] = dirty[src];
    }
    tags[0] = tag;
    dirty[0] = d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use proptest::prelude::*;

    /// The stamp-based simulator the recency-ordered one replaced, kept
    /// as the oracle of the differential test: one line per way with a
    /// valid bit and a timestamp (last use under LRU, insertion under
    /// FIFO); the victim is the first invalid way, else the oldest stamp.
    struct StampSim {
        params: CacheParams,
        policy: Replacement,
        lines: Vec<Line>,
        stats: CacheStats,
        tick: u64,
        rng_state: u64,
    }

    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    impl StampSim {
        fn new(params: CacheParams, policy: Replacement) -> Self {
            StampSim {
                params,
                policy,
                lines: vec![Line::default(); (params.sets() * params.ways()) as usize],
                stats: CacheStats::default(),
                tick: 0,
                rng_state: 0x9e37_79b9_7f4a_7c15,
            }
        }

        fn flush(&mut self) {
            self.lines.fill(Line::default());
            self.stats = CacheStats::default();
            self.tick = 0;
        }

        fn access(&mut self, access: Access) -> Outcome {
            self.tick += 1;
            self.stats.accesses += 1;
            if access.is_write() {
                self.stats.writes += 1;
            }
            let (set, tag) = self.params.set_and_tag(access.addr);
            let ways = self.params.ways() as usize;
            let base = set * ways;
            for i in base..base + ways {
                if self.lines[i].valid && self.lines[i].tag == tag {
                    if self.policy == Replacement::Lru {
                        self.lines[i].stamp = self.tick;
                    }
                    if access.is_write() {
                        self.lines[i].dirty = true;
                    }
                    return Outcome::Hit;
                }
            }
            self.stats.misses += 1;
            let victim = match self.policy {
                Replacement::Lru | Replacement::Fifo => {
                    let mut best = base;
                    for i in base..base + ways {
                        if !self.lines[i].valid {
                            best = i;
                            break;
                        }
                        if self.lines[i].stamp < self.lines[best].stamp {
                            best = i;
                        }
                    }
                    best
                }
                Replacement::Random => (base..base + ways)
                    .find(|&i| !self.lines[i].valid)
                    .unwrap_or_else(|| base + (next_random(&mut self.rng_state) as usize % ways)),
            };
            let victim_writeback = self.lines[victim].valid && self.lines[victim].dirty;
            if victim_writeback {
                self.stats.writebacks += 1;
            }
            self.lines[victim] = Line {
                tag,
                valid: true,
                dirty: access.is_write(),
                stamp: self.tick,
            };
            Outcome::Miss { victim_writeback }
        }
    }

    /// One step of a differential trace: `op` 0 flushes, 1 resets the
    /// statistics, anything else probes `addr`.
    fn arb_step() -> impl Strategy<Value = (u64, bool, u8)> {
        (0u64..(1 << 30), prop::bool::ANY, 0u8..64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The recency-ordered simulator and the stamp oracle agree on
        /// every outcome and on the final statistics, for every policy,
        /// over shapes from direct-mapped to fully associative, blocks of
        /// 1 to 64 bytes, and traces that flush and reset partway.
        #[test]
        fn recency_order_matches_stamp_oracle(
            block_log in 0u32..=6,
            ways_log in 0u32..=5,
            sets_log in 0u32..=5,
            policy in 0u8..3,
            trace in prop::collection::vec(arb_step(), 1..2000),
        ) {
            let block = 1u64 << block_log;
            let ways = 1u64 << ways_log;
            let p = params((block * ways) << sets_log, block, ways);
            let policy = [Replacement::Lru, Replacement::Fifo, Replacement::Random]
                [usize::from(policy)];
            let mut sim = CacheSim::new(p, policy);
            let mut oracle = StampSim::new(p, policy);
            for (step, &(raw, write, op)) in trace.iter().enumerate() {
                match op {
                    0 => {
                        sim.flush();
                        oracle.flush();
                    }
                    1 => {
                        sim.reset_stats();
                        oracle.stats = CacheStats::default();
                    }
                    _ => {
                        let kind = if write { AccessKind::Write } else { AccessKind::Read };
                        // Spread over every set, with about twice as
                        // many tags per set as ways.
                        let set = raw % p.sets();
                        let tag = (raw >> 8) % (2 * ways + 1);
                        let offset = (raw >> 20) % block;
                        let addr = (tag * p.sets() + set) * block + offset;
                        let access = Access { addr, kind };
                        prop_assert_eq!(
                            sim.access(access),
                            oracle.access(access),
                            "{} {:?}, step {}", p, policy, step
                        );
                    }
                }
            }
            prop_assert_eq!(sim.stats(), oracle.stats, "{} {:?}", p, policy);
        }
    }

    fn params(size: u64, block: u64, ways: u64) -> CacheParams {
        CacheParams::new(size, block, ways).unwrap()
    }

    #[test]
    fn validation() {
        assert!(CacheParams::new(1000, 64, 4).is_err());
        assert!(CacheParams::new(1024, 64, 32).is_err());
        assert!(CacheParams::new(1024, 64, 16).is_ok()); // fully associative
        assert_eq!(params(16 * 1024, 64, 4).sets(), 64);
    }

    #[test]
    fn set_and_tag_matches_division() {
        for (size, block, ways) in [
            (1024, 64, 2),
            (16 * 1024, 64, 4),
            (4096, 32, 128),
            (64, 64, 1),
        ] {
            let p = params(size, block, ways);
            let sets = size / (block * ways);
            assert_eq!(p.sets(), sets);
            for i in 0..5_000u64 {
                let addr = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let block_no = addr / block;
                let want = ((block_no % sets) as usize, block_no / sets);
                assert_eq!(p.set_and_tag(addr), want, "{p} at {addr:#x}");
            }
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        assert!(!c.access(Access::read(0x100)).is_hit());
        assert!(c.access(Access::read(0x100)).is_hit());
        assert!(c.access(Access::read(0x13f)).is_hit()); // same block
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set; fill both ways, touch the first, insert a third.
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        let sets = c.params().sets(); // 8 sets
        let stride = 64 * sets; // same set, different tags
        c.access(Access::read(0));
        c.access(Access::read(stride));
        c.access(Access::read(0)); // 0 is now MRU
        c.access(Access::read(2 * stride)); // evicts `stride`
        assert!(c.access(Access::read(0)).is_hit());
        assert!(!c.access(Access::read(stride)).is_hit());
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Fifo);
        let stride = 64 * c.params().sets();
        c.access(Access::read(0));
        c.access(Access::read(stride));
        c.access(Access::read(0)); // does NOT refresh FIFO order
        c.access(Access::read(2 * stride)); // evicts 0 (oldest insertion)
        assert!(!c.access(Access::read(0)).is_hit());
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = CacheSim::new(params(1024, 64, 1), Replacement::Lru);
        let stride = 64 * c.params().sets();
        c.access(Access::write(0));
        let out = c.access(Access::read(stride)); // evicts dirty line 0
        assert_eq!(
            out,
            Outcome::Miss {
                victim_writeback: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction produces no writeback.
        let out = c.access(Access::read(2 * stride));
        assert_eq!(
            out,
            Outcome::Miss {
                victim_writeback: false
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = CacheSim::new(params(4096, 64, 4), Replacement::Random);
            for i in 0..10_000u64 {
                c.access(Access::read((i * 2654435761) % (1 << 20)));
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn working_set_that_fits_has_no_capacity_misses() {
        let mut c = CacheSim::new(params(16 * 1024, 64, 4), Replacement::Lru);
        // 8 KB working set scanned repeatedly.
        for _round in 0..10 {
            for block in 0..128u64 {
                c.access(Access::read(block * 64));
            }
        }
        // Only the 128 cold misses.
        assert_eq!(c.stats().misses, 128);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes_with_lru() {
        // Classic LRU pathology: a cyclic scan one block larger than a
        // fully-associative cache misses on every access.
        let mut c = CacheSim::new(params(1024, 64, 16), Replacement::Lru);
        let blocks = 1024 / 64 + 1;
        for _round in 0..5 {
            for b in 0..blocks {
                c.access(Access::read(b * 64));
            }
        }
        let mr = c.stats().miss_rate();
        assert!(mr > 0.9, "miss rate = {mr}");
    }

    #[test]
    fn flush_and_reset_stats() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        c.access(Access::read(0));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(Access::read(0)).is_hit()); // contents survived
        c.flush();
        assert!(!c.access(Access::read(0)).is_hit()); // cold again
    }

    #[test]
    fn stats_rates() {
        let s = CacheStats {
            accesses: 100,
            misses: 25,
            writebacks: 0,
            writes: 0,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn run_consumes_iterator() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        let n = c.run((0..100u64).map(|i| Access::read(i * 64)));
        assert_eq!(n, 100);
        assert_eq!(c.stats().accesses, 100);
    }
}
