//! The device-technology axis: what kind of memory cell a cache level is
//! built from.
//!
//! The paper studies one technology — BPTM-65 SRAM — so the original
//! engine hard-wired "a cache is SRAM at one node". Multi-level studies
//! past L2 want a *per-level* choice (an eDRAM or STT-MRAM L3 behind SRAM
//! L1/L2), which [`TechProfile`] supplies: the concrete, comparable,
//! serializable handle the spec and geometry layers carry. A profile is
//! the cell-array transforms that distinguish a technology from the SRAM
//! baseline (read/write energy asymmetry, leakage scaling, refresh power
//! as a static-power term, latency and density factors); the CMOS
//! periphery and the knob-dependent Eq.1/Eq.2 surfaces stay those of the
//! base [`TechnologyNode`](crate::TechnologyNode). Profiles are plain data
//! so a `HierarchySpec` stays a pure memo key.
//!
//! The SRAM baseline is the **identity** profile: every scale is exactly
//! 1 and refresh power is exactly 0, and consumers short-circuit on
//! [`TechProfile::is_identity`], so an all-SRAM study is bit-for-bit the
//! pre-refactor computation.
//!
//! The eDRAM and STT-MRAM parameter tables are expressed as ratios to a
//! high-density SRAM reference (read/write pJ per access, static mW/MB,
//! relative latency and area from published cache-technology surveys);
//! only the ratios enter the model, so they compose with any base node.

use crate::units::Watts;
use serde::{Deserialize, Serialize};
use std::fmt;

/// eDRAM total static power per bit at the reference point: 5 mW/MB.
const EDRAM_STATIC_PER_BIT: f64 = 5.0e-3 / (8.0 * 1024.0 * 1024.0);

/// The share of eDRAM static power that tracks the CMOS leakage knobs
/// (access transistors); the rest is knob-independent refresh.
const EDRAM_LEAKAGE_SHARE: f64 = 0.4;

/// The concrete technology handle carried by cache circuits and hierarchy
/// specs: a technology's name and cell-array transforms as plain,
/// comparable data.
///
/// The default profile is the SRAM identity; consumers short-circuit on
/// [`is_identity`](Self::is_identity), so carrying a profile adds nothing
/// to the all-SRAM paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechProfile {
    /// Technology name (`"sram"`, `"edram"`, `"stt-mram"`, …).
    pub name: String,
    /// Array read-energy multiplier vs the SRAM baseline.
    pub read_energy_scale: f64,
    /// Array write-energy multiplier vs the SRAM baseline.
    pub write_energy_scale: f64,
    /// Array leakage multiplier vs the SRAM baseline.
    pub leakage_scale: f64,
    /// Refresh power per stored bit (knob-independent static power).
    pub refresh_power_per_bit: Watts,
    /// Array delay multiplier vs the SRAM baseline.
    pub delay_scale: f64,
    /// Array area multiplier vs the SRAM baseline.
    pub area_scale: f64,
}

impl TechProfile {
    /// The SRAM identity profile: the paper's BPTM-65 baseline, every
    /// transform the identity.
    pub fn sram() -> Self {
        TechProfile {
            name: "sram".to_owned(),
            read_energy_scale: 1.0,
            write_energy_scale: 1.0,
            leakage_scale: 1.0,
            refresh_power_per_bit: Watts(0.0),
            delay_scale: 1.0,
            area_scale: 1.0,
        }
    }

    /// Embedded DRAM: ~3× denser and ~3× slower than SRAM, with far lower
    /// cell leakage but a standing refresh cost.
    ///
    /// Reference ratios (vs a 0.05 pJ / 80 mW-per-MB high-density SRAM):
    /// 0.15 pJ read/write (3×), ~5 mW/MB total static split into a
    /// residual leakage floor and the refresh term, 3× latency, 1/3 area.
    pub fn edram() -> Self {
        TechProfile {
            name: "edram".to_owned(),
            read_energy_scale: 3.0,
            write_energy_scale: 3.0,
            // 1T1C cells leak through one access transistor instead of a
            // 6T cross-coupled pair: the knob-tracking share of 5 mW/MB
            // against the 80 mW/MB SRAM reference.
            leakage_scale: EDRAM_LEAKAGE_SHARE * 5.0 / 80.0,
            refresh_power_per_bit: Watts((1.0 - EDRAM_LEAKAGE_SHARE) * EDRAM_STATIC_PER_BIT),
            delay_scale: 3.0,
            area_scale: 1.0 / 3.0,
        }
    }

    /// STT-MRAM: non-volatile, near-zero cell leakage, no refresh, with a
    /// pronounced read/write energy asymmetry and the slowest access of
    /// the three.
    ///
    /// Reference ratios (vs the same SRAM reference): 0.20 pJ read (4×),
    /// 0.50 pJ write (10×), 0.1 mW/MB static (near-zero, 1/800 of SRAM),
    /// 5× latency, 1/2 area.
    pub fn stt_mram() -> Self {
        TechProfile {
            name: "stt-mram".to_owned(),
            read_energy_scale: 4.0,
            write_energy_scale: 10.0,
            leakage_scale: 0.1 / 80.0,
            refresh_power_per_bit: Watts(0.0),
            delay_scale: 5.0,
            area_scale: 0.5,
        }
    }

    /// Resolves a profile by its machine name, as the CLI's per-level
    /// `--l<i>-tech` flags spell it.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "sram" => Some(Self::sram()),
            "edram" => Some(Self::edram()),
            "stt-mram" | "sttmram" | "mram" => Some(Self::stt_mram()),
            _ => None,
        }
    }

    /// The names [`by_name`](Self::by_name) accepts, for usage text and
    /// error messages.
    pub const KNOWN_NAMES: [&'static str; 3] = ["sram", "edram", "stt-mram"];

    /// `true` when every transform is exactly the identity — the SRAM
    /// baseline. Identity profiles must change **nothing**: consumers
    /// skip the transform entirely, keeping all-SRAM studies bit-for-bit
    /// identical to the pre-technology-axis engine.
    pub fn is_identity(&self) -> bool {
        self.read_energy_scale == 1.0
            && self.write_energy_scale == 1.0
            && self.leakage_scale == 1.0
            && self.refresh_power_per_bit.0 == 0.0
            && self.delay_scale == 1.0
            && self.area_scale == 1.0
    }
}

impl Default for TechProfile {
    fn default() -> Self {
        Self::sram()
    }
}

impl fmt::Display for TechProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_is_the_identity() {
        let p = TechProfile::sram();
        assert!(p.is_identity());
        assert_eq!(p.name, "sram");
        assert_eq!(p, TechProfile::default());
    }

    #[test]
    fn non_sram_profiles_are_not_identity() {
        assert!(!TechProfile::edram().is_identity());
        assert!(!TechProfile::stt_mram().is_identity());
    }

    #[test]
    fn by_name_resolves_known_and_rejects_unknown() {
        for name in TechProfile::KNOWN_NAMES {
            let p = TechProfile::by_name(name).expect(name);
            assert_eq!(p.name, name);
        }
        assert_eq!(TechProfile::by_name("mram"), Some(TechProfile::stt_mram()));
        assert_eq!(TechProfile::by_name("flash"), None);
    }

    #[test]
    fn write_read_asymmetry_is_mram_shaped() {
        let m = TechProfile::stt_mram();
        assert!(m.write_energy_scale > 2.0 * m.read_energy_scale);
        let e = TechProfile::edram();
        assert_eq!(e.read_energy_scale, e.write_energy_scale);
    }

    #[test]
    fn mram_leakage_is_near_zero_and_refresh_free() {
        let m = TechProfile::stt_mram();
        assert!(m.leakage_scale < 0.01);
        assert_eq!(m.refresh_power_per_bit.0, 0.0);
    }

    #[test]
    fn edram_refresh_is_a_positive_static_term() {
        let e = TechProfile::edram();
        assert!(e.refresh_power_per_bit.0 > 0.0);
        // 1 MB of eDRAM: leakage share + refresh reconstructs the ~5 mW/MB
        // reference static power against the 80 mW/MB SRAM baseline.
        let bits = 8.0 * 1024.0 * 1024.0;
        let sram_leak_per_mb = 80.0e-3;
        let total = e.leakage_scale * sram_leak_per_mb + e.refresh_power_per_bit.0 * bits;
        assert!((total - 5.0e-3).abs() < 1.0e-4, "static/MB = {total}");
    }

    #[test]
    fn density_ordering_matches_the_survey() {
        // eDRAM densest, then MRAM, then SRAM; SRAM fastest.
        let (s, e, m) = (
            TechProfile::sram(),
            TechProfile::edram(),
            TechProfile::stt_mram(),
        );
        assert!(e.area_scale < m.area_scale && m.area_scale < s.area_scale);
        assert!(s.delay_scale < e.delay_scale && e.delay_scale < m.delay_scale);
    }

    #[test]
    fn profiles_serialize_round_trip() {
        let p = TechProfile::edram();
        let json = serde_json::to_string(&p).expect("serializes");
        let back: TechProfile = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, p);
    }
}
