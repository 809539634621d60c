//! A single set-associative cache with write-back/write-allocate
//! semantics.

use crate::access::Access;
use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hint::select_unpredictable;

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
        Decoder::new(self).set_and_tag(addr)
    }
}

/// A shape's address decoding with its shift counts worked out once, so
/// that a probe does not recount them.
#[derive(Debug, Clone, Copy)]
struct Decoder {
    block_bits: u32,
    set_bits: u32,
}

impl Decoder {
    fn new(params: CacheParams) -> Self {
        Decoder {
            block_bits: params.block_bytes.trailing_zeros(),
            set_bits: params.set_bits(),
        }
    }

    #[inline(always)]
    fn set_and_tag(self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_bits;
        let set = (block & ((1 << self.set_bits) - 1)) as usize;
        (set, block >> self.set_bits)
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
/// Each set is one record of `sets`: `ways` tags, then a state header of
/// two bits per way (valid, dirty), 32 ways to a `u64` word. The valid
/// ways are always a prefix of the set, so the valid bits double as the
/// fill count. Under LRU and FIFO a set is kept newest first (most
/// recently used, or most recently inserted), so the victim is always
/// the last way and no per-line timestamp is stored: an LRU hit moves
/// its way to the front, a FIFO hit moves nothing, and a miss shifts the
/// set back by one. Under `Random` a miss fills the first empty way and
/// otherwise replaces a way picked by the generator in place.
///
/// The probe scans all `ways` tags of the set without an early exit for
/// the first match, and counts a hit only when that way is below the
/// fill. Stale tags past the fill (left by `flush`, or never written)
/// can therefore never shadow a live one, and there is no sentinel tag,
/// so every block address is legal. Under LRU a hit and a miss share one
/// path of selects, with no branch on which happened: both shift the
/// ways in front of `from` back by one and put the block first, `from`
/// being the hit way or, on a miss, the first empty way (the victim when
/// the set is full).
///
/// [`access`](Self::access) dispatches once per probe on the shape: LRU
/// sets of 4, 8 and 16 ways (the widths of the studies' L1, L2 and L3)
/// run an instance of the probe with the width fixed at compile time,
/// inlined at the call site; every other width and policy runs the same
/// body with the width read at run time.
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
    decoder: Decoder,
    policy: Replacement,
    /// One record per set: `ways` tags, then
    /// [`state_words`]`(ways)` words of per-way state.
    sets: Vec<u64>,
    stats: CacheStats,
    rng_state: u64,
}

/// A way's valid bit within its two-bit state.
const VALID: u64 = 0b01;
/// A way's dirty bit within its two-bit state.
const DIRTY: u64 = 0b10;
/// Every dirty bit of a state word.
const DIRTY_BITS: u64 = 0xaaaa_aaaa_aaaa_aaaa;
/// Ways whose state one header word holds.
const WAYS_PER_WORD: usize = 32;

/// Header words of a `ways`-way set.
const fn state_words(ways: usize) -> usize {
    ways.div_ceil(WAYS_PER_WORD)
}

impl CacheSim {
    /// Creates an empty (cold) cache.
    pub fn new(params: CacheParams, policy: Replacement) -> Self {
        let ways = params.ways() as usize;
        let record = ways + state_words(ways);
        CacheSim {
            params,
            decoder: Decoder::new(params),
            policy,
            sets: vec![0; params.sets() as usize * record],
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
        let ways = self.params.ways() as usize;
        let record = ways + state_words(ways);
        for set in self.sets.chunks_exact_mut(record) {
            set[ways..].fill(0);
        }
        self.stats = CacheStats::default();
    }

    /// Probes the cache with one reference, updating state and statistics.
    #[inline(always)]
    pub fn access(&mut self, access: Access) -> Outcome {
        let write = access.is_write();
        let (set, tag) = self.decoder.set_and_tag(access.addr);
        match (self.params.ways(), self.policy) {
            (4, Replacement::Lru) => self.probe::<4>(Replacement::Lru, set, tag, write),
            (8, Replacement::Lru) => self.probe::<8>(Replacement::Lru, set, tag, write),
            (16, Replacement::Lru) => self.probe::<16>(Replacement::Lru, set, tag, write),
            _ => self.probe_any(set, tag, write),
        }
    }

    /// The probe at the shape's width and policy, read at run time.
    #[inline(never)]
    fn probe_any(&mut self, set: usize, tag: u64, write: bool) -> Outcome {
        self.probe::<0>(self.policy, set, tag, write)
    }

    /// The probe body: looks `tag` up in `set` under `policy` and updates
    /// the set's tags and state. `W` is the associativity as a
    /// compile-time constant, which unrolls the scan and the shift, or 0
    /// to read it from the shape.
    #[inline(always)]
    fn probe<const W: usize>(
        &mut self,
        policy: Replacement,
        set: usize,
        tag: u64,
        write: bool,
    ) -> Outcome {
        let ways = if W == 0 {
            self.params.ways() as usize
        } else {
            W
        };
        let record = ways + state_words(ways);
        let (tags, state) = self.sets[set * record..(set + 1) * record].split_at_mut(ways);
        let filled = fill(state);
        let written = u64::from(write) * DIRTY;

        // The first matching way, scanned from the back by select so
        // that neither the trip count nor a branch depends on the data.
        let mut way = ways;
        for i in (0..ways).rev() {
            way = select_unpredictable(tags[i] == tag, i, way);
        }
        let hit = way < filled;
        let victim = ways - 1;
        let victim_writeback = match policy {
            // No branch on the outcome: in a large cache it is close to a
            // coin flip, which a branch would mispredict about as often.
            Replacement::Lru => {
                let from = select_unpredictable(hit, way, filled.min(victim));
                let kept = select_unpredictable(hit, way_state(state, from) & DIRTY, 0);
                let writeback = !hit & (way_state(state, victim) == VALID | DIRTY);
                promote(tags, state, from, tag, VALID | kept | written);
                writeback
            }
            Replacement::Fifo | Replacement::Random if hit => {
                state[way / WAYS_PER_WORD] |= written << shift(way);
                false
            }
            Replacement::Fifo => {
                let writeback = way_state(state, victim) == VALID | DIRTY;
                promote(tags, state, filled.min(victim), tag, VALID | written);
                writeback
            }
            Replacement::Random => {
                let slot = if filled == ways {
                    next_random(&mut self.rng_state) as usize % ways
                } else {
                    filled
                };
                let writeback = way_state(state, slot) == VALID | DIRTY;
                tags[slot] = tag;
                let word = &mut state[slot / WAYS_PER_WORD];
                *word =
                    *word & !((VALID | DIRTY) << shift(slot)) | (VALID | written) << shift(slot);
                writeback
            }
        };
        self.stats.accesses += 1;
        self.stats.writes += u64::from(write);
        self.stats.misses += u64::from(!hit);
        self.stats.writebacks += u64::from(victim_writeback);
        if hit {
            Outcome::Hit
        } else {
            Outcome::Miss { victim_writeback }
        }
    }
}

/// Bit offset of `way`'s state within its header word.
#[inline(always)]
fn shift(way: usize) -> usize {
    2 * (way % WAYS_PER_WORD)
}

/// The two state bits of `way`.
#[inline(always)]
fn way_state(state: &[u64], way: usize) -> u64 {
    state[way / WAYS_PER_WORD] >> shift(way) & (VALID | DIRTY)
}

/// The number of valid ways: the valid bits form a prefix, so this is
/// the length of the run of valid bits from way 0 on.
#[inline(always)]
fn fill(state: &[u64]) -> usize {
    state
        .iter()
        .map(|&word| ((word | DIRTY_BITS).trailing_ones() / 2) as usize)
        .sum()
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

/// Moves way `from` of a recency-ordered set to the front as `tag` with
/// two-bit state `front`, shifting ways `0..from` back by one. Every tag
/// slot picks its source by arithmetic, so neither the trip count nor a
/// branch depends on `from`; the state moves by a masked shift of each
/// header word up to the one holding `from`.
#[inline(always)]
fn promote(tags: &mut [u64], state: &mut [u64], from: usize, tag: u64, front: u64) {
    for k in (1..tags.len()).rev() {
        tags[k] = tags[k - usize::from(k <= from)];
    }
    tags[0] = tag;

    let last = from / WAYS_PER_WORD;
    let mut carry = front;
    for (k, word) in state.iter_mut().enumerate().take(last + 1) {
        // The bits above `from`'s state keep their place.
        let keep = if k < last {
            0
        } else {
            !0 << 1 << (shift(from) + 1)
        };
        let shifted = *word << 2 | carry;
        carry = *word >> 62;
        *word = *word & keep | shifted & !keep;
    }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The oracle agreement again, on full-width tags: every address
        /// uses all 64 bits, tags differ in their top two bits as well as
        /// their low ones, and sets run to 128 ways, past every
        /// fixed-width instance of the probe and past one state word. A
        /// layout that stole tag bits for state, or mishandled the
        /// run-time width, would alias or mis-shift here.
        #[test]
        fn full_width_tags_match_stamp_oracle(
            block_log in 0u32..=6,
            ways_log in 0u32..=7,
            sets_log in 0u32..=2,
            policy in 0u8..3,
            salt in any::<u64>(),
            trace in prop::collection::vec(arb_step(), 1..3000),
        ) {
            let block = 1u64 << block_log;
            let ways = 1u64 << ways_log;
            let p = params((block * ways) << sets_log, block, ways);
            let policy = [Replacement::Lru, Replacement::Fifo, Replacement::Random]
                [usize::from(policy)];
            let low_bits = block_log + sets_log;
            let tag_bits = 64 - low_bits;
            let tag_max = u64::MAX >> low_bits;
            let top = [0, 1 << (tag_bits - 1), 1 << (tag_bits - 2), 3 << (tag_bits - 2)];
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
                        // About twice as many tags per set as ways, in
                        // groups of four that differ only in the top two
                        // tag bits, below a salted all-ones tag.
                        let set = raw % p.sets();
                        let pick = (raw >> 8) % (2 * ways + 1);
                        let tag = (tag_max - pick / 4) ^ (salt & 0xff) ^ top[(pick % 4) as usize];
                        let offset = (raw >> 20) % block;
                        let addr = tag << low_bits | set << block_log | offset;
                        prop_assert_eq!(p.set_and_tag(addr), (set as usize, tag));
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
}
