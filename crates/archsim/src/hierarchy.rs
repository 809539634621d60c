//! Multi-level cache hierarchies with inclusive filtering.
//!
//! [`MultiLevel`] simulates an arbitrary-depth miss chain: each reference
//! probes level 0, misses fall through to the next level, and misses at
//! the last level go to main memory. Dirty victims are written back into
//! the next level down (and propagate further when the writeback itself
//! evicts a dirty line). `serve_level` is the one rule that hands a
//! reference from one level to the next; the miss-rate table's L2
//! fan-out and the split-L1 hierarchy call it too.

use crate::access::Access;
use crate::cache::{CacheParams, CacheSim, CacheStats, Outcome};
use crate::error::SimError;

/// Per-level statistics of an N-level hierarchy.
///
/// `levels[0]` covers every CPU reference; `levels[i]` for `i > 0` covers
/// level *i*'s *demand* stream only (misses falling through from level
/// *i−1*). Writeback traffic is tallied separately in `writebacks`, so the
/// local miss rates stay demand miss rates — the quantities the AMAT
/// weight chain multiplies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiLevelStats {
    /// Demand-stream statistics per level, outermost (L1) first.
    pub levels: Vec<CacheStats>,
    /// Dirty victims written out of each level into the next (the last
    /// level's victims go to main memory).
    pub writebacks: Vec<u64>,
}

impl MultiLevelStats {
    /// Local (per-demand-probe) miss rate of each level, outermost first,
    /// every rate checked finite and in `[0, 1]` before it can feed delay
    /// weights.
    ///
    /// # Errors
    ///
    /// [`SimError::MissRateOutOfRange`] naming the first offending level.
    pub fn try_local_miss_rates(&self) -> Result<Vec<f64>, SimError> {
        let rates: Vec<f64> = self.levels.iter().map(CacheStats::miss_rate).collect();
        for (level, &value) in rates.iter().enumerate() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(SimError::MissRateOutOfRange { level, value });
            }
        }
        Ok(rates)
    }

    /// Global miss rate: main-memory accesses per CPU reference (the
    /// product of the local rates).
    pub fn global_miss_rate(&self) -> f64 {
        self.levels.iter().map(CacheStats::miss_rate).product()
    }
}

/// An N-level miss-chain cache hierarchy.
///
/// ```
/// use nm_archsim::{MultiLevel, CacheParams, Access};
///
/// let mut h = MultiLevel::new(vec![
///     CacheParams::new(16 * 1024, 64, 4)?,
///     CacheParams::new(256 * 1024, 64, 8)?,
///     CacheParams::new(4 * 1024 * 1024, 64, 16)?,
/// ])?;
/// for i in 0..1000u64 {
///     h.access(Access::read(i * 64));
/// }
/// assert_eq!(h.stats().levels.len(), 3);
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevel {
    levels: Vec<CacheSim>,
    demand: Vec<CacheStats>,
    victim_writebacks: Vec<u64>,
}

impl MultiLevel {
    /// Builds a cold LRU hierarchy, outermost (L1) level first.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyHierarchy`] when `levels` is empty.
    pub fn new(levels: Vec<CacheParams>) -> Result<Self, SimError> {
        if levels.is_empty() {
            return Err(SimError::EmptyHierarchy);
        }
        let n = levels.len();
        Ok(MultiLevel {
            levels: levels.into_iter().map(CacheSim::new).collect(),
            demand: vec![CacheStats::default(); n],
            victim_writebacks: vec![0; n],
        })
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Parameters of level `i` (0 = L1).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn params(&self, i: usize) -> CacheParams {
        self.levels[i].params()
    }

    /// Issues one CPU reference through the miss chain.
    ///
    /// Returns `Some(i)` when level `i` hit, `None` when the reference
    /// fell through every level to main memory.
    pub fn access(&mut self, access: Access) -> Option<usize> {
        let mut hit = None;
        let mut victims = 0;
        let levels = self.levels.iter_mut().zip(&mut self.demand);
        for (i, (level, demand)) in levels.enumerate() {
            let probe = if hit.is_none() { Some(demand) } else { None };
            let (out, evicted) = serve_level(level, victims, probe, access);
            if out.is_some_and(Outcome::is_hit) {
                hit = Some(i);
            }
            self.victim_writebacks[i] += evicted;
            victims = evicted;
            if hit.is_some() && victims == 0 {
                break;
            }
        }
        hit
    }

    /// Snapshot of the per-level statistics.
    pub fn stats(&self) -> MultiLevelStats {
        MultiLevelStats {
            levels: self.demand.clone(),
            writebacks: self.victim_writebacks.clone(),
        }
    }

    /// Clears statistics after warm-up, keeping contents.
    pub fn reset_stats(&mut self) {
        for sim in &mut self.levels {
            sim.reset_stats();
        }
        for d in &mut self.demand {
            *d = CacheStats::default();
        }
        for w in &mut self.victim_writebacks {
            *w = 0;
        }
    }
}

/// Serves one CPU reference at one level of a miss chain — the rule
/// [`MultiLevel`], the miss-rate table's L2 fan-out
/// ([`MissRateTable::try_build`](crate::MissRateTable::try_build)) and the
/// split-L1 hierarchy ([`SplitHierarchy`](crate::splitl1::SplitHierarchy))
/// share.
///
/// First the level absorbs `victims` writes, one per dirty line the
/// level above evicted on this reference. The model does not track a
/// victim's address, so each write goes to `access.addr`. That write
/// allocates the demand block itself, dirty, so whenever the level above
/// evicted a dirty line the demand probe that follows always hits: on
/// streams with stores this understates the level's demand miss rate.
/// Then, when `demand` is given (the reference missed every level above),
/// the level takes the demand probe and tallies it into `demand`, its
/// demand-stream statistics, which exclude the writeback traffic.
///
/// Returns the demand probe's outcome (`None` without a probe) and the
/// number of dirty lines this level evicted, which the next level down
/// absorbs as writes.
pub(crate) fn serve_level(
    level: &mut CacheSim,
    victims: u64,
    demand: Option<&mut CacheStats>,
    access: Access,
) -> (Option<Outcome>, u64) {
    let mut evicted = 0;
    for _ in 0..victims {
        evicted += u64::from(level.access(Access::write(access.addr)).victim_writeback());
    }
    let out = demand.map(|d| {
        let out = level.access(access);
        d.accesses += 1;
        d.writes += u64::from(access.is_write());
        d.misses += u64::from(!out.is_hit());
        d.writebacks += u64::from(out.victim_writeback());
        out
    });
    evicted += u64::from(out.is_some_and(Outcome::victim_writeback));
    (out, evicted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(l1: u64, l2: u64) -> MultiLevel {
        chain(&[l1, l2], &[4, 8])
    }

    #[test]
    fn l1_hit_never_reaches_l2() {
        let mut h = hierarchy(16 * 1024, 256 * 1024);
        h.access(Access::read(0x40));
        assert_eq!(h.access(Access::read(0x40)), Some(0));
        assert_eq!(h.stats().levels[1].accesses, 1); // only the initial miss
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        let mut h = hierarchy(4 * 1024, 1024 * 1024);
        // 64 KB working set: misses L1, fits L2.
        let blocks = 64 * 1024 / 64;
        for _round in 0..4 {
            for b in 0..blocks {
                h.access(Access::read(b * 64));
            }
        }
        let rates = h.stats().try_local_miss_rates().unwrap();
        assert!(rates[0] > 0.5, "l1 mr = {}", rates[0]);
        assert!(rates[1] < 0.35, "l2 local mr = {}", rates[1]);
    }

    #[test]
    fn global_rate_is_product_of_locals() {
        let mut h = hierarchy(4 * 1024, 64 * 1024);
        for i in 0..20_000u64 {
            h.access(Access::read((i * 2654435761) % (1 << 21)));
        }
        let s = h.stats();
        let expected = s.levels[0].miss_rate() * s.levels[1].miss_rate();
        assert!((s.global_miss_rate() - expected).abs() < 1e-12);
    }

    #[test]
    fn bigger_l2_has_lower_local_miss_rate() {
        let run = |l2_size: u64| {
            let mut h = hierarchy(8 * 1024, l2_size);
            for i in 0..200_000u64 {
                // 1 MB working set with strided reuse.
                h.access(Access::read((i.wrapping_mul(0x9e3779b9)) % (1 << 20)));
            }
            h.stats().levels[1].miss_rate()
        };
        let small = run(128 * 1024);
        let big = run(1024 * 1024);
        assert!(big < small, "big {big} ≥ small {small}");
    }

    #[test]
    fn writebacks_counted_separately_from_demand() {
        let mut h = hierarchy(4 * 1024, 256 * 1024);
        // Write a large working set so L1 evicts dirty lines.
        for round in 0..3u64 {
            for b in 0..512u64 {
                h.access(Access::write(b * 64 + round));
            }
        }
        let s = h.stats();
        assert!(s.writebacks[0] > 0);
        // Demand accesses equal L1 misses exactly.
        assert_eq!(s.levels[1].accesses, s.levels[0].misses);
    }

    #[test]
    fn reset_stats_keeps_warm_contents() {
        let mut h = hierarchy(16 * 1024, 256 * 1024);
        for b in 0..64u64 {
            h.access(Access::read(b * 64));
        }
        h.reset_stats();
        for b in 0..64u64 {
            h.access(Access::read(b * 64));
        }
        assert!(h.stats().levels[0].miss_rate() < 0.01);
        assert_eq!(h.stats().levels[1].accesses, 0);
    }

    fn chain(sizes: &[u64], ways: &[u64]) -> MultiLevel {
        MultiLevel::new(
            sizes
                .iter()
                .zip(ways)
                .map(|(&s, &w)| CacheParams::new(s, 64, w).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn empty_hierarchy_is_a_typed_error() {
        assert_eq!(
            MultiLevel::new(vec![]).unwrap_err(),
            SimError::EmptyHierarchy
        );
    }

    #[test]
    fn three_level_chain_filters_monotonically() {
        let mut h = chain(&[4 * 1024, 64 * 1024, 1024 * 1024], &[4, 8, 16]);
        // Uniform random reuse over a 128 KB working set: mostly misses
        // the 4 KB L1, half-fits the 64 KB L2, fits the 1 MB L3.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..200_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.access(Access::read((x >> 33) % (1 << 17)));
        }
        let s = h.stats();
        assert_eq!(s.levels.len(), 3);
        // Demand streams shrink level by level.
        assert!(s.levels[0].accesses > s.levels[1].accesses);
        assert!(s.levels[1].accesses > s.levels[2].accesses);
        // Each level's demand accesses equal the previous level's misses.
        assert_eq!(s.levels[1].accesses, s.levels[0].misses);
        assert_eq!(s.levels[2].accesses, s.levels[1].misses);
        // The big L3 absorbs most of what reaches it.
        let rates = s.try_local_miss_rates().unwrap();
        assert!(rates[2] < rates[0], "L3 {} vs L1 {}", rates[2], rates[0]);
        // Global rate is the product of locals.
        let product: f64 = rates.iter().product();
        assert!((s.global_miss_rate() - product).abs() < 1e-12);
    }

    #[test]
    fn hit_level_is_reported() {
        let mut h = chain(&[4 * 1024, 64 * 1024], &[4, 8]);
        assert_eq!(h.access(Access::read(0x40)), None); // cold: memory
        assert_eq!(h.access(Access::read(0x40)), Some(0)); // L1 hit
                                                           // Evict 0x40 from tiny L1 with conflicting lines, then re-read: L2.
        let stride = 64 * h.params(0).sets();
        for k in 1..=8u64 {
            h.access(Access::read(0x40 + k * stride));
        }
        assert_eq!(h.access(Access::read(0x40)), Some(1));
        assert_eq!(h.depth(), 2);
    }

    #[test]
    fn victim_write_lands_before_the_demand_probe() {
        // One-line caches: L1's dirty victim is written into L2 at the
        // missing reference's address, so the demand probe that follows
        // hits. Probing first would miss.
        let mut h = chain(&[64, 64], &[1, 1]);
        assert_eq!(h.access(Access::write(0)), None);
        assert_eq!(h.access(Access::read(64)), Some(1));
        let s = h.stats();
        assert_eq!(s.levels[1].accesses, 2);
        assert_eq!(s.levels[1].misses, 1);
        // L1 evicted dirty 0 into L2, whose write in turn evicted its own
        // dirty copy of 0 (filled by the store's demand probe) to memory.
        assert_eq!(s.writebacks, vec![1, 1]);
    }

    #[test]
    fn miss_rate_validation_accepts_simulated_stats() {
        let mut h = chain(&[4 * 1024, 64 * 1024, 512 * 1024], &[4, 8, 8]);
        for i in 0..10_000u64 {
            h.access(Access::read((i * 2654435761) % (1 << 20)));
        }
        assert!(h.stats().try_local_miss_rates().is_ok());
        // A corrupted stats block (misses > accesses) is rejected.
        let bad = MultiLevelStats {
            levels: vec![CacheStats {
                accesses: 10,
                misses: 20,
                writebacks: 0,
                writes: 0,
            }],
            writebacks: vec![0],
        };
        assert_eq!(
            bad.try_local_miss_rates().unwrap_err(),
            SimError::MissRateOutOfRange {
                level: 0,
                value: 2.0
            }
        );
    }
}
