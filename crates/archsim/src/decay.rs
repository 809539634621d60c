//! Cache decay (gated-Vdd) simulation — the architectural
//! leakage-reduction baseline the paper positions itself against.
//!
//! Prior work cited by the paper (\[2\] Powell et al., \[5\] Agarwal et al.,
//! \[6\] Kim et al.) cuts leakage by *turning lines off* after an idle
//! interval, trading extra (decay-induced) misses for a lower average
//! powered-on fraction. [`DecaySim`] models the canonical scheme: a line
//! untouched for `decay_interval` references is gated off, losing its
//! contents; statistics report both the induced misses and the
//! time-averaged fraction of lines left powered, which downstream studies
//! multiply into the circuit model's leakage.

use crate::access::Access;
use crate::cache::{CacheParams, CacheStats};
use serde::{Deserialize, Serialize};

/// Statistics of a decaying cache.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_touch: u64,
}

/// A set-associative LRU cache whose lines decay (power off, contents
/// lost) after `decay_interval` references without a touch.
///
/// A decayed line still *occupies* its way (the canonical scheme gates
/// power per line but does not compact); re-referencing it is a miss that
/// re-powers the line. `decay_interval = u64::MAX` disables decay, making
/// this behave exactly like [`crate::cache::CacheSim`] under LRU.
///
/// ```
/// use nm_archsim::{Access, CacheParams, DecaySim};
///
/// let mut sim = DecaySim::new(CacheParams::new(1024, 64, 2)?, 4);
/// sim.access(Access::read(0));
/// for b in 1..10u64 {
///     sim.access(Access::read(b * 64)); // idle the first line past 4 refs
/// }
/// let (hit, decayed) = sim.access(Access::read(0));
/// assert!(!hit && decayed);
/// assert!(sim.stats().alive_fraction() < 1.0);
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecaySim {
    params: CacheParams,
    decay_interval: u64,
    lines: Vec<Line>,
    stats: DecayStats,
    tick: u64,
}

impl DecaySim {
    /// Creates a cold decaying cache (LRU replacement, as the decay
    /// literature assumes).
    pub fn new(params: CacheParams, decay_interval: u64) -> Self {
        let total = (params.sets() * params.ways()) as usize;
        DecaySim {
            params,
            decay_interval,
            lines: vec![Line::default(); total],
            stats: DecayStats::default(),
            tick: 0,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// The decay interval in references.
    pub fn decay_interval(&self) -> u64 {
        self.decay_interval
    }

    /// Accumulated statistics.
    ///
    /// The alive fraction is finalised lazily: open alive windows of
    /// currently-valid lines are closed out as of the current tick.
    pub fn stats(&self) -> DecayStats {
        let mut out = self.stats;
        for l in &self.lines {
            if l.valid {
                out.alive_ticks += (self.tick - l.last_touch).min(self.decay_interval) as u128;
            }
        }
        out.total_ticks = self.lines.len() as u128 * u128::from(self.tick);
        out
    }

    /// Probes the cache; returns `(hit, decay_miss)`.
    pub fn access(&mut self, access: Access) -> (bool, bool) {
        self.tick += 1;
        self.stats.cache.accesses += 1;
        if access.is_write() {
            self.stats.cache.writes += 1;
        }
        let interval = self.decay_interval;
        let tick = self.tick;
        let (set, tag) = self.params.set_and_tag(access.addr);
        let ways = self.params.ways() as usize;
        let base = set * ways;

        for i in base..base + ways {
            if self.lines[i].valid && self.lines[i].tag == tag {
                let decayed = self.tick - self.lines[i].last_touch > self.decay_interval;
                // Close out the alive window since the last touch.
                self.stats.alive_ticks += (tick - self.lines[i].last_touch).min(interval) as u128;
                if decayed {
                    // The contents were lost: refetch (a decay miss), but
                    // the frame is reused in place.
                    self.stats.cache.misses += 1;
                    self.stats.decay_misses += 1;
                    if self.lines[i].dirty {
                        // Dirty lines write back *before* decaying (the
                        // canonical scheme flushes on gate-off).
                        self.stats.cache.writebacks += 1;
                    }
                    self.lines[i].dirty = access.is_write();
                } else if access.is_write() {
                    self.lines[i].dirty = true;
                }
                self.lines[i].last_touch = self.tick;
                return (!decayed, decayed);
            }
        }

        // Genuine miss: LRU victim.
        self.stats.cache.misses += 1;
        let mut victim = base;
        for i in base..base + ways {
            if !self.lines[i].valid {
                victim = i;
                break;
            }
            if self.lines[i].last_touch < self.lines[victim].last_touch {
                victim = i;
            }
        }
        let v = &mut self.lines[victim];
        if v.valid {
            // Close out the victim's alive window.
            self.stats.alive_ticks += (tick - v.last_touch).min(interval) as u128;
        }
        if v.valid && v.dirty {
            // Either a powered dirty eviction (writeback now) or a line
            // that was flushed when it gated off; both cost one writeback,
            // accounted here so each dirty line pays exactly once.
            self.stats.cache.writebacks += 1;
        }
        *v = Line {
            tag,
            valid: true,
            dirty: access.is_write(),
            last_touch: self.tick,
        };
        (false, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Replacement;

    fn params() -> CacheParams {
        CacheParams::new(4 * 1024, 64, 2).unwrap()
    }

    #[test]
    fn no_decay_matches_plain_lru() {
        use crate::cache::CacheSim;
        let mut plain = CacheSim::new(params(), Replacement::Lru);
        let mut decay = DecaySim::new(params(), u64::MAX);
        for i in 0..20_000u64 {
            let a = Access::read((i.wrapping_mul(2654435761)) % (1 << 16));
            plain.access(a);
            decay.access(a);
        }
        assert_eq!(plain.stats().misses, decay.stats().cache.misses);
        assert_eq!(decay.stats().decay_misses, 0);
    }

    #[test]
    fn short_interval_decays_idle_lines() {
        let mut sim = DecaySim::new(params(), 10);
        sim.access(Access::read(0));
        // Touch other sets for longer than the interval.
        for i in 1..30u64 {
            sim.access(Access::read(i * 64 + 4096));
        }
        let (hit, decay_miss) = sim.access(Access::read(0));
        assert!(!hit);
        assert!(decay_miss);
        assert_eq!(sim.stats().decay_misses, 1);
    }

    #[test]
    fn hot_line_never_decays() {
        let mut sim = DecaySim::new(params(), 10);
        sim.access(Access::read(0));
        for _ in 0..100 {
            let (hit, dm) = sim.access(Access::read(0));
            assert!(hit);
            assert!(!dm);
        }
    }

    #[test]
    fn alive_fraction_falls_with_shorter_intervals() {
        let run = |interval: u64| {
            let mut sim = DecaySim::new(params(), interval);
            for i in 0..50_000u64 {
                sim.access(Access::read((i.wrapping_mul(0x9e3779b9)) % (1 << 16)));
            }
            sim.stats().alive_fraction()
        };
        let short = run(50);
        let long = run(5000);
        assert!(short < long, "short {short} ≥ long {long}");
        assert!((0.0..=1.0).contains(&short));
    }

    #[test]
    fn decay_misses_rise_as_interval_shrinks() {
        let run = |interval: u64| {
            let mut sim = DecaySim::new(params(), interval);
            for i in 0..50_000u64 {
                // Cyclic working set that fits the cache (48 blocks in a
                // 64-frame cache), so every extra miss is decay-induced.
                sim.access(Access::read((i % 48) * 64));
            }
            sim.stats().decay_miss_rate()
        };
        assert!(run(20) > run(2000));
    }

    #[test]
    fn dirty_decay_writes_back_once() {
        let mut sim = DecaySim::new(params(), 5);
        sim.access(Access::write(0));
        for i in 1..20u64 {
            sim.access(Access::read(i * 64 + 8192));
        }
        let before = sim.stats().cache.writebacks;
        sim.access(Access::read(0)); // decayed; dirty copy was flushed
        assert_eq!(sim.stats().cache.writebacks, before + 1);
    }

    #[test]
    fn empty_stats_report_full_power() {
        let sim = DecaySim::new(params(), 100);
        assert_eq!(sim.stats().alive_fraction(), 1.0);
        assert_eq!(sim.stats().decay_miss_rate(), 0.0);
    }
}
