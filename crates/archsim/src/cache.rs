//! A single set-associative cache with write-back/write-allocate
//! semantics.

use crate::access::Access;
use crate::error::SimError;
use std::fmt;
use std::hint::select_unpredictable;

/// Architectural cache parameters for simulation.
///
/// Only [`CacheParams::new`] builds one, so block size, associativity and
/// set count are always powers of two and an address decodes by shift
/// and mask ([`set_and_tag`](Self::set_and_tag)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Statistics of a decaying cache ([`CacheSim::with_decay`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecayStats {
    /// Underlying access statistics (misses include decay-induced ones).
    pub cache: CacheStats,
    /// Misses caused *only* by decay (the line would have been resident).
    pub decay_misses: u64,
    /// Accumulated powered-on line-ticks (numerator of the alive
    /// fraction).
    alive_ticks: u128,
    /// Total line-ticks observed (denominator).
    total_ticks: u128,
}

impl DecayStats {
    /// Time-averaged fraction of lines powered on (1.0 when nothing has
    /// been simulated yet — a cold, un-clocked array burns full leakage).
    pub fn alive_fraction(&self) -> f64 {
        if self.total_ticks == 0 {
            1.0
        } else {
            self.alive_ticks as f64 / self.total_ticks as f64
        }
    }

    /// Decay-induced miss rate (per access).
    pub fn decay_miss_rate(&self) -> f64 {
        if self.cache.accesses == 0 {
            0.0
        } else {
            self.decay_misses as f64 / self.cache.accesses as f64
        }
    }
}

/// A set-associative LRU cache simulator with write-back/write-allocate
/// semantics; with `DECAY`, its lines also decay.
///
/// Each set is one record of `sets`: `ways` tags, then (with decay)
/// `ways` last-touch ticks, then a state header of two bits per way
/// (valid, dirty), 32 ways to a `u64` word. The valid ways are always a
/// prefix of the set, so the valid bits double as the fill count. A set
/// is kept most recently used first, so the victim is always the last
/// way and no recency stamp is stored: a hit moves its way to the front
/// and a miss shifts the set back by one.
///
/// The probe scans all `ways` tags of the set without an early exit for
/// the first match, and counts a hit only when that way is below the
/// fill. Stale tags past the fill (left by `flush`, or never written)
/// can therefore never shadow a live one, and there is no sentinel tag,
/// so every block address is legal. A hit and a miss share one path of
/// selects, with no branch on which happened: both shift the ways in
/// front of `from` back by one and put the block first, `from` being the
/// hit way or, on a miss, the first empty way (the victim when the set
/// is full).
///
/// [`access`](Self::access) dispatches once per probe on the shape: sets
/// of 4, 8 and 16 ways (the widths of the studies' L1, L2 and L3) run an
/// instance of the probe with the width fixed at compile time, inlined
/// at the call site; every other width runs the same body with the width
/// read at run time.
///
/// # Decay
///
/// Cache decay (gated-Vdd) is the architectural leakage cut of the prior
/// work the paper positions itself against (\[2\] Powell et al., \[5\]
/// Agarwal et al., \[6\] Kim et al.): a line untouched for more than
/// `interval` references is gated off and loses its contents, trading
/// induced misses for a lower powered-on fraction. A decayed line keeps
/// its way (the scheme gates power per line and does not compact), so
/// the tags and their recency order are plain LRU's at every step; only
/// the outcome of a hit changes. A hit idle for more than `interval`
/// references counts as a miss and a decay miss, writes back its dirty
/// copy (flushed when it gated off), and keeps only this access's write
/// as its dirty bit. `DECAY` is a compile-time mode: without it the
/// record holds no last-touch ticks and the probe no decay arithmetic.
///
/// ```
/// use nm_archsim::{Access, CacheParams, CacheSim};
///
/// let mut sim = CacheSim::new(CacheParams::new(1024, 64, 2)?);
/// assert!(!sim.access(Access::read(0x40)).is_hit()); // compulsory miss
/// assert!(sim.access(Access::read(0x40)).is_hit());
/// assert_eq!(sim.stats().misses, 1);
///
/// let mut decaying = CacheSim::with_decay(CacheParams::new(1024, 64, 2)?, 4);
/// decaying.access(Access::read(0));
/// for b in 1..10u64 {
///     decaying.access(Access::read(b * 64)); // idle the first line past 4 refs
/// }
/// assert!(!decaying.access(Access::read(0)).is_hit());
/// assert_eq!(decaying.decay_stats().decay_misses, 1);
/// assert!(decaying.decay_stats().alive_fraction() < 1.0);
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim<const DECAY: bool = false> {
    params: CacheParams,
    decoder: Decoder,
    /// One record per set: `ways` tags, with decay `ways` last-touch
    /// ticks, then [`state_words`]`(ways)` words of per-way state.
    sets: Vec<u64>,
    stats: CacheStats,
    /// The decay clock and tallies; untouched without `DECAY`.
    decay: DecayClock,
}

/// A decaying cache's interval, clock and tallies.
#[derive(Debug, Clone, Copy, Default)]
struct DecayClock {
    /// References a line may idle before it gates off.
    interval: u64,
    /// References since construction or the last flush.
    tick: u64,
    /// `tick` at the last statistics reset.
    since: u64,
    /// Decay misses since the last reset.
    misses: u64,
    /// Powered-on line-ticks of closed alive windows since the last
    /// reset, modulo 2^128: a reset starts it at minus the part of every
    /// open window already elapsed, so that closing a window adds only
    /// its part after the reset.
    alive: u128,
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
    pub fn new(params: CacheParams) -> Self {
        Self::cold(params, 0)
    }
}

impl CacheSim<true> {
    /// Creates an empty (cold) cache whose lines decay after `interval`
    /// references without a touch. `interval = u64::MAX` disables decay:
    /// the cache then behaves exactly like [`CacheSim::new`]'s.
    pub fn with_decay(params: CacheParams, interval: u64) -> Self {
        Self::cold(params, interval)
    }

    /// Accumulated statistics, with every valid line's open alive window
    /// closed as of the current reference.
    pub fn decay_stats(&self) -> DecayStats {
        let lines = self.params.sets() * self.params.ways();
        DecayStats {
            cache: self.stats,
            decay_misses: self.decay.misses,
            alive_ticks: self.decay.alive.wrapping_add(self.open_alive()),
            total_ticks: u128::from(lines) * u128::from(self.decay.tick - self.decay.since),
        }
    }
}

impl<const DECAY: bool> CacheSim<DECAY> {
    fn cold(params: CacheParams, interval: u64) -> Self {
        CacheSim {
            params,
            decoder: Decoder::new(params),
            sets: vec![0; params.sets() as usize * Self::record(params.ways() as usize)],
            stats: CacheStats::default(),
            decay: DecayClock {
                interval,
                ..DecayClock::default()
            },
        }
    }

    /// The powered-on ticks of every valid line since its last touch
    /// (0 without decay).
    fn open_alive(&self) -> u128 {
        let ways = self.params.ways() as usize;
        let DecayClock { interval, tick, .. } = self.decay;
        self.sets
            .chunks_exact(Self::record(ways))
            .map(|set| {
                let (touched, state) = set[ways..].split_at(if DECAY { ways } else { 0 });
                touched[..fill(state).min(touched.len())]
                    .iter()
                    .map(|&t| u128::from((tick - t).min(interval)))
                    .sum::<u128>()
            })
            .sum()
    }

    /// Words in one set's record.
    const fn record(ways: usize) -> usize {
        ways * (1 + DECAY as usize) + state_words(ways)
    }

    /// The configured parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase) without flushing
    /// cache contents. A decaying cache's alive fraction then counts
    /// from this reference on.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        if DECAY {
            let open = self.open_alive();
            let d = &mut self.decay;
            d.misses = 0;
            d.alive = 0u128.wrapping_sub(open);
            d.since = d.tick;
        }
    }

    /// Flushes all contents and statistics back to the cold state.
    pub fn flush(&mut self) {
        let ways = self.params.ways() as usize;
        // Everything past the tags: the last-touch ticks and the header.
        for set in self.sets.chunks_exact_mut(Self::record(ways)) {
            set[ways..].fill(0);
        }
        self.stats = CacheStats::default();
        self.decay = DecayClock {
            interval: self.decay.interval,
            ..DecayClock::default()
        };
    }

    /// Probes the cache with one reference, updating state and statistics.
    #[inline(always)]
    pub fn access(&mut self, access: Access) -> Outcome {
        let write = access.is_write();
        let (set, tag) = self.decoder.set_and_tag(access.addr);
        match self.params.ways() {
            4 => self.probe::<4>(set, tag, write),
            8 => self.probe::<8>(set, tag, write),
            16 => self.probe::<16>(set, tag, write),
            _ => self.probe_any(set, tag, write),
        }
    }

    /// The probe at the shape's width, read at run time.
    #[inline(never)]
    fn probe_any(&mut self, set: usize, tag: u64, write: bool) -> Outcome {
        self.probe::<0>(set, tag, write)
    }

    /// The probe body: looks `tag` up in `set` and updates the set's
    /// tags and state. `W` is the associativity as a compile-time
    /// constant, which unrolls the scan and the shift, or 0 to read it
    /// from the shape.
    #[inline(always)]
    fn probe<const W: usize>(&mut self, set: usize, tag: u64, write: bool) -> Outcome {
        let ways = if W == 0 {
            self.params.ways() as usize
        } else {
            W
        };
        let record = Self::record(ways);
        let (tags, rest) = self.sets[set * record..(set + 1) * record].split_at_mut(ways);
        let (touched, state) = rest.split_at_mut(if DECAY { ways } else { 0 });
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
        // No branch on the outcome: in a large cache it is close to a
        // coin flip, which a branch would mispredict about as often.
        let from = select_unpredictable(hit, way, filled.min(victim));
        let mut live = hit;
        let mut writeback = !hit & (way_state(state, victim) == VALID | DIRTY);
        if DECAY {
            let d = &mut self.decay;
            d.tick += 1;
            // `from` holds a line on a hit or when the set is full; its
            // alive window closes here.
            let idle = d.tick - touched[from];
            let occupied = hit | (filled == ways);
            d.alive = d
                .alive
                .wrapping_add(u128::from(u64::from(occupied) * idle.min(d.interval)));
            let decayed = hit & (idle > d.interval);
            d.misses += u64::from(decayed);
            writeback |= decayed & (way_state(state, from) & DIRTY != 0);
            live = hit & !decayed;
        }
        let kept = select_unpredictable(live, way_state(state, from) & DIRTY, 0);
        let front = VALID | kept | written;
        promote::<DECAY>(tags, touched, state, from, tag, self.decay.tick, front);
        self.stats.accesses += 1;
        self.stats.writes += u64::from(write);
        self.stats.misses += u64::from(!live);
        self.stats.writebacks += u64::from(writeback);
        if live {
            Outcome::Hit
        } else {
            Outcome::Miss {
                victim_writeback: writeback,
            }
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

/// Moves way `from` of a recency-ordered set to the front as `tag` (and,
/// with `DECAY`, last touched at `tick`) with two-bit state `front`,
/// shifting ways `0..from` back by one. Every tag slot picks its source
/// by arithmetic, so neither the trip count nor a branch depends on
/// `from`; the state moves by a masked shift of each header word up to
/// the one holding `from`.
#[inline(always)]
fn promote<const DECAY: bool>(
    tags: &mut [u64],
    touched: &mut [u64],
    state: &mut [u64],
    from: usize,
    tag: u64,
    tick: u64,
    front: u64,
) {
    for k in (1..tags.len()).rev() {
        let source = k - usize::from(k <= from);
        tags[k] = tags[source];
        if DECAY {
            touched[k] = touched[source];
        }
    }
    tags[0] = tag;
    if DECAY {
        touched[0] = tick;
    }

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
    /// as the oracle of the differential tests for both modes: one line
    /// per way with a valid bit and a last-use stamp; the victim is the
    /// first invalid way, else the oldest stamp. With an `interval` it
    /// follows the decay rules: a hit idle for more than `interval`
    /// references is a decay miss that writes back its dirty copy and
    /// refills in place, and the powered-on line-ticks are counted tick
    /// by tick rather than per alive window.
    struct StampSim {
        params: CacheParams,
        /// The decay interval; `None` for a plain LRU cache.
        interval: Option<u64>,
        lines: Vec<Line>,
        stats: CacheStats,
        decay_misses: u64,
        /// Powered-on line-ticks since the last reset.
        alive_ticks: u128,
        /// References since the last reset.
        ticks: u64,
        /// References since construction or the last flush.
        tick: u64,
    }

    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    impl StampSim {
        fn new(params: CacheParams, interval: Option<u64>) -> Self {
            StampSim {
                params,
                interval,
                lines: vec![Line::default(); (params.sets() * params.ways()) as usize],
                stats: CacheStats::default(),
                decay_misses: 0,
                alive_ticks: 0,
                ticks: 0,
                tick: 0,
            }
        }

        fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
            self.decay_misses = 0;
            self.alive_ticks = 0;
            self.ticks = 0;
        }

        fn flush(&mut self) {
            self.lines.fill(Line::default());
            self.reset_stats();
            self.tick = 0;
        }

        fn decay_stats(&self) -> DecayStats {
            DecayStats {
                cache: self.stats,
                decay_misses: self.decay_misses,
                alive_ticks: self.alive_ticks,
                total_ticks: self.lines.len() as u128 * u128::from(self.ticks),
            }
        }

        fn access(&mut self, access: Access) -> Outcome {
            self.tick += 1;
            self.ticks += 1;
            if let Some(interval) = self.interval {
                // A line is powered through the `interval` references
                // after its last touch.
                let tick = self.tick;
                let alive = self
                    .lines
                    .iter()
                    .filter(|l| l.valid && tick - l.stamp <= interval);
                self.alive_ticks += alive.count() as u128;
            }
            self.stats.accesses += 1;
            if access.is_write() {
                self.stats.writes += 1;
            }
            let (set, tag) = self.params.set_and_tag(access.addr);
            let ways = self.params.ways() as usize;
            let base = set * ways;
            for i in base..base + ways {
                let line = &mut self.lines[i];
                if line.valid && line.tag == tag {
                    let idle = self.tick - line.stamp;
                    line.stamp = self.tick;
                    if self.interval.is_some_and(|interval| idle > interval) {
                        self.stats.misses += 1;
                        self.decay_misses += 1;
                        let victim_writeback = line.dirty;
                        self.stats.writebacks += u64::from(victim_writeback);
                        line.dirty = access.is_write();
                        return Outcome::Miss { victim_writeback };
                    }
                    line.dirty |= access.is_write();
                    return Outcome::Hit;
                }
            }
            self.stats.misses += 1;
            let mut victim = base;
            for i in base..base + ways {
                if !self.lines[i].valid {
                    victim = i;
                    break;
                }
                if self.lines[i].stamp < self.lines[victim].stamp {
                    victim = i;
                }
            }
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

    /// The probe of a step: about twice as many tags per set as ways,
    /// spread over every set.
    fn step_access(p: CacheParams, raw: u64, write: bool) -> Access {
        let set = raw % p.sets();
        let tag = (raw >> 8) % (2 * p.ways() + 1);
        let offset = (raw >> 20) % p.block_bytes();
        Access {
            addr: (tag * p.sets() + set) * p.block_bytes() + offset,
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The recency-ordered simulator and the stamp oracle agree on
        /// every outcome and on the final statistics, over shapes from
        /// direct-mapped to fully associative, blocks of 1 to 64 bytes,
        /// and traces that flush and reset partway.
        #[test]
        fn recency_order_matches_stamp_oracle(
            block_log in 0u32..=6,
            ways_log in 0u32..=5,
            sets_log in 0u32..=5,
            trace in prop::collection::vec(arb_step(), 1..2000),
        ) {
            let block = 1u64 << block_log;
            let ways = 1u64 << ways_log;
            let p = params((block * ways) << sets_log, block, ways);
            let mut sim = CacheSim::new(p);
            let mut oracle = StampSim::new(p, None);
            for (step, &(raw, write, op)) in trace.iter().enumerate() {
                match op {
                    0 => {
                        sim.flush();
                        oracle.flush();
                    }
                    1 => {
                        sim.reset_stats();
                        oracle.reset_stats();
                    }
                    _ => {
                        let access = step_access(p, raw, write);
                        prop_assert_eq!(
                            sim.access(access),
                            oracle.access(access),
                            "{}, step {}", p, step
                        );
                    }
                }
            }
            prop_assert_eq!(sim.stats(), oracle.stats, "{}", p);
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
            salt in any::<u64>(),
            trace in prop::collection::vec(arb_step(), 1..3000),
        ) {
            let block = 1u64 << block_log;
            let ways = 1u64 << ways_log;
            let p = params((block * ways) << sets_log, block, ways);
            let low_bits = block_log + sets_log;
            let tag_bits = 64 - low_bits;
            let tag_max = u64::MAX >> low_bits;
            let top = [0, 1 << (tag_bits - 1), 1 << (tag_bits - 2), 3 << (tag_bits - 2)];
            let mut sim = CacheSim::new(p);
            let mut oracle = StampSim::new(p, None);
            for (step, &(raw, write, op)) in trace.iter().enumerate() {
                match op {
                    0 => {
                        sim.flush();
                        oracle.flush();
                    }
                    1 => {
                        sim.reset_stats();
                        oracle.reset_stats();
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
                            "{}, step {}", p, step
                        );
                    }
                }
            }
            prop_assert_eq!(sim.stats(), oracle.stats, "{}", p);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The decay mode and the stamp oracle under the decay rules
        /// agree on every outcome and, after every step, on the access
        /// statistics, the decay misses and the alive and total
        /// line-ticks (so on the bits of the alive fraction). Shapes run
        /// from 1 to 128 ways, through the fixed-width instances and the
        /// run-time width; intervals run from 1 (every idle hit decays)
        /// through reuse-distance sizes to `u64::MAX` (no decay); traces
        /// flush and reset partway.
        #[test]
        fn decay_mode_matches_stamp_oracle(
            block_log in 0u32..=6,
            ways_log in 0u32..=7,
            sets_log in 0u32..=2,
            interval_kind in 0u8..4,
            interval_raw in any::<u64>(),
            trace in prop::collection::vec(arb_step(), 1..1500),
        ) {
            let block = 1u64 << block_log;
            let ways = 1u64 << ways_log;
            let p = params((block * ways) << sets_log, block, ways);
            let interval = match interval_kind {
                0 => 1 + interval_raw % 8,
                1 => 1 + interval_raw % 512,
                2 => interval_raw.max(1),
                _ => u64::MAX - interval_raw % 2,
            };
            let mut sim = CacheSim::with_decay(p, interval);
            let mut oracle = StampSim::new(p, Some(interval));
            prop_assert_eq!(sim.decay_stats(), oracle.decay_stats());
            for (step, &(raw, write, op)) in trace.iter().enumerate() {
                match op {
                    0 => {
                        sim.flush();
                        oracle.flush();
                    }
                    1 => {
                        sim.reset_stats();
                        oracle.reset_stats();
                    }
                    _ => {
                        let access = step_access(p, raw, write);
                        prop_assert_eq!(
                            sim.access(access),
                            oracle.access(access),
                            "{} interval {}, step {}", p, interval, step
                        );
                    }
                }
                let (got, want) = (sim.decay_stats(), oracle.decay_stats());
                prop_assert_eq!(got, want, "{} interval {}, step {}", p, interval, step);
                prop_assert_eq!(
                    got.alive_fraction().to_bits(),
                    want.alive_fraction().to_bits()
                );
            }
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
        let mut c = CacheSim::new(params(1024, 64, 2));
        assert!(!c.access(Access::read(0x100)).is_hit());
        assert!(c.access(Access::read(0x100)).is_hit());
        assert!(c.access(Access::read(0x13f)).is_hit()); // same block
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set; fill both ways, touch the first, insert a third.
        let mut c = CacheSim::new(params(1024, 64, 2));
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
    fn writeback_on_dirty_eviction() {
        let mut c = CacheSim::new(params(1024, 64, 1));
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
    fn working_set_that_fits_has_no_capacity_misses() {
        let mut c = CacheSim::new(params(16 * 1024, 64, 4));
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
        let mut c = CacheSim::new(params(1024, 64, 16));
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
        let mut c = CacheSim::new(params(1024, 64, 2));
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

    fn decay_params() -> CacheParams {
        params(4 * 1024, 64, 2)
    }

    #[test]
    fn no_decay_matches_plain_lru() {
        let mut plain = CacheSim::new(decay_params());
        let mut decay = CacheSim::with_decay(decay_params(), u64::MAX);
        for i in 0..20_000u64 {
            let a = Access::read((i.wrapping_mul(2654435761)) % (1 << 16));
            assert_eq!(plain.access(a), decay.access(a));
        }
        assert_eq!(plain.stats(), decay.decay_stats().cache);
        assert_eq!(decay.decay_stats().decay_misses, 0);
    }

    #[test]
    fn short_interval_decays_idle_lines() {
        let mut sim = CacheSim::with_decay(decay_params(), 10);
        sim.access(Access::read(0));
        // Touch other sets for longer than the interval.
        for i in 1..30u64 {
            sim.access(Access::read(i * 64 + 4096));
        }
        assert!(!sim.access(Access::read(0)).is_hit());
        assert_eq!(sim.decay_stats().decay_misses, 1);
    }

    #[test]
    fn hot_line_never_decays() {
        let mut sim = CacheSim::with_decay(decay_params(), 10);
        sim.access(Access::read(0));
        for _ in 0..100 {
            assert!(sim.access(Access::read(0)).is_hit());
        }
        assert_eq!(sim.decay_stats().decay_misses, 0);
    }

    #[test]
    fn alive_fraction_falls_with_shorter_intervals() {
        let run = |interval: u64| {
            let mut sim = CacheSim::with_decay(decay_params(), interval);
            for i in 0..50_000u64 {
                sim.access(Access::read((i.wrapping_mul(0x9e3779b9)) % (1 << 16)));
            }
            sim.decay_stats().alive_fraction()
        };
        let short = run(50);
        let long = run(5000);
        assert!(short < long, "short {short} ≥ long {long}");
        assert!((0.0..=1.0).contains(&short));
    }

    #[test]
    fn decay_misses_rise_as_interval_shrinks() {
        let run = |interval: u64| {
            let mut sim = CacheSim::with_decay(decay_params(), interval);
            for i in 0..50_000u64 {
                // Cyclic working set that fits the cache (48 blocks in a
                // 64-frame cache), so every extra miss is decay-induced.
                sim.access(Access::read((i % 48) * 64));
            }
            sim.decay_stats().decay_miss_rate()
        };
        assert!(run(20) > run(2000));
    }

    #[test]
    fn dirty_decay_writes_back_once() {
        let mut sim = CacheSim::with_decay(decay_params(), 5);
        sim.access(Access::write(0));
        for i in 1..20u64 {
            sim.access(Access::read(i * 64 + 8192));
        }
        let before = sim.stats().writebacks;
        // Decayed; the dirty copy was flushed when the line gated off.
        assert_eq!(
            sim.access(Access::read(0)),
            Outcome::Miss {
                victim_writeback: true
            }
        );
        assert_eq!(sim.stats().writebacks, before + 1);
    }

    #[test]
    fn empty_stats_report_full_power() {
        let sim = CacheSim::with_decay(decay_params(), 100);
        assert_eq!(sim.decay_stats().alive_fraction(), 1.0);
        assert_eq!(sim.decay_stats().decay_miss_rate(), 0.0);
    }
}
