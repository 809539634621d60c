//! Average memory access time and the main-memory endpoint.
//!
//! `AMAT = t_L1 + m1·(t_L2 + m2·t_mem)` — "the AMAT is a function of both
//! the cache miss rate and access (hit) time" (paper, Section 5).

use nm_device::units::{Joules, Seconds};

/// Main-memory timing and energy endpoint for the system studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MainMemory {
    /// Access latency.
    pub access_time: Seconds,
    /// Energy per access (row activation + burst).
    pub access_energy: Joules,
}

impl MainMemory {
    /// A paper-era DDR-class part: 45 ns random access, 2 nJ per access.
    pub fn ddr_2005() -> Self {
        MainMemory {
            access_time: Seconds::from_nanos(45.0),
            access_energy: Joules::from_nanos(2.0),
        }
    }
}

impl Default for MainMemory {
    fn default() -> Self {
        Self::ddr_2005()
    }
}

/// Inputs to the AMAT formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmatInputs {
    /// L1 hit (access) time.
    pub l1_time: Seconds,
    /// L2 hit (access) time.
    pub l2_time: Seconds,
    /// Main-memory access time.
    pub mem_time: Seconds,
    /// L1 miss rate per CPU reference.
    pub l1_miss_rate: f64,
    /// Local L2 miss rate per L2 probe.
    pub l2_local_miss_rate: f64,
}

/// Average memory access time.
///
/// ```
/// use nm_cache_core::amat::{amat, AmatInputs};
/// use nm_device::units::Seconds;
///
/// let t = amat(AmatInputs {
///     l1_time: Seconds::from_picos(800.0),
///     l2_time: Seconds::from_picos(4000.0),
///     mem_time: Seconds::from_nanos(60.0),
///     l1_miss_rate: 0.05,
///     l2_local_miss_rate: 0.2,
/// });
/// // 800 + 0.05·(4000 + 0.2·60000) = 1600 ps
/// assert!((t.picos() - 1600.0).abs() < 1e-9);
/// ```
pub fn amat(inputs: AmatInputs) -> Seconds {
    debug_assert!((0.0..=1.0).contains(&inputs.l1_miss_rate));
    debug_assert!((0.0..=1.0).contains(&inputs.l2_local_miss_rate));
    inputs.l1_time
        + (inputs.l2_time + inputs.mem_time * inputs.l2_local_miss_rate) * inputs.l1_miss_rate
}

/// The knob-independent AMAT floor contributed by main memory:
/// `m1·m2·t_mem`.
pub fn memory_floor(l1_miss_rate: f64, l2_local_miss_rate: f64, mem_time: Seconds) -> Seconds {
    mem_time * (l1_miss_rate * l2_local_miss_rate)
}

/// Per-CPU-reference dynamic energy of the memory endpoint:
/// `m1·m2·E_mem`.
pub fn memory_energy(l1_miss_rate: f64, l2_local_miss_rate: f64, mem_energy: Joules) -> Joules {
    mem_energy * (l1_miss_rate * l2_local_miss_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amat_reduces_to_l1_when_no_misses() {
        let t = amat(AmatInputs {
            l1_time: Seconds::from_picos(700.0),
            l2_time: Seconds::from_picos(3000.0),
            mem_time: Seconds::from_nanos(60.0),
            l1_miss_rate: 0.0,
            l2_local_miss_rate: 0.9,
        });
        assert!((t.picos() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn amat_monotone_in_miss_rates() {
        let base = AmatInputs {
            l1_time: Seconds::from_picos(700.0),
            l2_time: Seconds::from_picos(3000.0),
            mem_time: Seconds::from_nanos(60.0),
            l1_miss_rate: 0.05,
            l2_local_miss_rate: 0.3,
        };
        let worse_l1 = AmatInputs {
            l1_miss_rate: 0.10,
            ..base
        };
        let worse_l2 = AmatInputs {
            l2_local_miss_rate: 0.6,
            ..base
        };
        assert!(amat(worse_l1) > amat(base));
        assert!(amat(worse_l2) > amat(base));
    }

    #[test]
    fn floor_and_energy_scale_with_global_rate() {
        let f = memory_floor(0.05, 0.2, Seconds::from_nanos(60.0));
        assert!((f.picos() - 600.0).abs() < 1e-9);
        let e = memory_energy(0.05, 0.2, Joules::from_nanos(2.0));
        assert!((e.picos() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn default_memory_is_ddr_2005() {
        let m = MainMemory::default();
        assert!((m.access_time.nanos() - 45.0).abs() < 1e-9);
        assert!((m.access_energy.nanos() - 2.0).abs() < 1e-12);
    }
}
