//! Per-transistor leakage mechanisms: subthreshold conduction, gate
//! tunnelling and a junction floor.
//!
//! Total leakage is what distinguishes this paper from the prior art it
//! cites: earlier cache-leakage work optimised subthreshold only, but with
//! aggressive `Tox` scaling the gate current "can potentially surpass the
//! subthreshold leakage at low Tox". Both mechanisms are first-class here,
//! and [`LeakageBreakdown`] keeps them separable for analysis.

use crate::knobs::KnobPoint;
use crate::tech::TechnologyNode;
use crate::units::{Amperes, Meters, Microns, Volts, Watts};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Conduction state of a transistor for leakage accounting.
///
/// * An **off** device leaks subthreshold current source-to-drain and a
///   reduced (edge-direct-tunnelling) gate current.
/// * An **on** device leaks full gate-tunnelling current through the
///   inverted channel but no subthreshold current (its channel conducts by
///   design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConductionState {
    /// Gate at the inactive rail; channel nominally non-conducting.
    Off,
    /// Gate at the active rail; channel inverted.
    On,
}

/// Subthreshold (weak-inversion) drain current of an off transistor with
/// `Vgs = 0` and `Vds = Vdd`, including DIBL.
///
/// `Isub = μ·Cox·(W/L)·vT²·e^((η·Vdd − Vth)/(n·vT))·(1 − e^(−Vdd/vT))`
///
/// The drawn length is supplied by the caller (it is a function of `Tox`
/// through [`TechnologyNode::drawn_length`], but peripheral logic may use
/// longer-than-minimum devices).
pub fn subthreshold_current(
    tech: &TechnologyNode,
    knobs: KnobPoint,
    width: Microns,
    length: Meters,
) -> Amperes {
    let vt = tech.thermal_voltage().0;
    let n = tech.subthreshold_n(knobs.tox());
    let cox = tech.cox(knobs.tox());
    let eta = tech.dibl(length);
    let vdd = tech.vdd().0;
    let w_over_l = width.meters().0 / length.0;
    let exponent = (eta * vdd - knobs.vth().0) / (n * vt);
    let drain_term = 1.0 - (-vdd / vt).exp();
    Amperes(tech.mu_eff() * cox * w_over_l * vt * vt * exponent.exp() * drain_term)
}

/// Gate-tunnelling current through the oxide.
///
/// `Ig = J0·(Vox/1V)²·(Tox_min/Tox)²·e^(−Bg·(Tox − Tox_min))·W·L`,
/// attenuated by [`TechnologyNode::gate_off_factor`] for off devices
/// (edge tunnelling through the overlap only).
pub fn gate_current(
    tech: &TechnologyNode,
    knobs: KnobPoint,
    width: Microns,
    length: Meters,
    state: ConductionState,
) -> Amperes {
    let (j0, bg) = tech.gate_tunnelling();
    let tox = knobs.tox().0;
    let tox0 = tech.tox_min().0;
    let vox = tech.vdd().0; // full supply across the oxide of an on device
    let density = j0 * (vox * vox) * (tox0 / tox) * (tox0 / tox) * (-(bg) * (tox - tox0)).exp();
    let area = width.meters().0 * length.0;
    let state_factor = match state {
        ConductionState::On => 1.0,
        ConductionState::Off => tech.gate_off_factor(),
    };
    Amperes(density * area * state_factor)
}

/// Junction (band-to-band tunnelling plus reverse diode) leakage; a small,
/// knob-independent floor proportional to device width.
pub fn junction_current(tech: &TechnologyNode, width: Microns) -> Amperes {
    Amperes(tech.junction_per_width() * width.meters().0)
}

/// Leakage power split by mechanism.
///
/// Implements `Add`/`Sum` so component breakdowns aggregate naturally, and
/// `Mul<f64>` for scaling by device counts:
///
/// ```
/// use nm_device::{Mosfet, KnobPoint, TechnologyNode, units::Microns};
///
/// let tech = TechnologyNode::bptm65();
/// let knobs = KnobPoint::nominal();
/// let m = Mosfet::nmos(Microns(0.2), tech.drawn_length(knobs.tox()), knobs);
/// let per_cell = m.leakage(&tech) * 2.5; // ≈ off devices per SRAM cell
/// let array = per_cell * 1024.0;
/// assert!(array.total() > per_cell.total());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeakageBreakdown {
    /// Subthreshold conduction power.
    pub subthreshold: Watts,
    /// Gate-tunnelling power.
    pub gate: Watts,
    /// Junction/BTBT floor power.
    pub junction: Watts,
}

impl LeakageBreakdown {
    /// A breakdown with all mechanisms at zero.
    pub const ZERO: Self = LeakageBreakdown {
        subthreshold: Watts(0.0),
        gate: Watts(0.0),
        junction: Watts(0.0),
    };

    /// Builds a breakdown from per-mechanism currents at the supply
    /// voltage.
    pub fn from_currents(vdd: Volts, sub: Amperes, gate: Amperes, junction: Amperes) -> Self {
        LeakageBreakdown {
            subthreshold: sub * vdd,
            gate: gate * vdd,
            junction: junction * vdd,
        }
    }

    /// Total leakage power across all mechanisms.
    pub fn total(&self) -> Watts {
        self.subthreshold + self.gate + self.junction
    }

    /// Fraction of the total contributed by gate tunnelling (0 when the
    /// total is zero).
    pub fn gate_fraction(&self) -> f64 {
        let t = self.total().0;
        if t == 0.0 {
            0.0
        } else {
            self.gate.0 / t
        }
    }
}

impl Add for LeakageBreakdown {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        LeakageBreakdown {
            subthreshold: self.subthreshold + rhs.subthreshold,
            gate: self.gate + rhs.gate,
            junction: self.junction + rhs.junction,
        }
    }
}

impl AddAssign for LeakageBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for LeakageBreakdown {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        LeakageBreakdown {
            subthreshold: self.subthreshold * rhs,
            gate: self.gate * rhs,
            junction: self.junction * rhs,
        }
    }
}

impl Sum for LeakageBreakdown {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl fmt::Display for LeakageBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} mW (sub {:.3}, gate {:.3}, junc {:.3})",
            self.total().milli(),
            self.subthreshold.milli(),
            self.gate.milli(),
            self.junction.milli()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Angstroms;

    fn tech() -> TechnologyNode {
        TechnologyNode::bptm65()
    }

    fn knobs(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    #[test]
    fn subthreshold_decays_one_decade_per_90mv() {
        let t = tech();
        let k = knobs(0.30, 12.0);
        let l = t.drawn_length(k.tox());
        let lo = subthreshold_current(&t, knobs(0.30, 12.0), Microns(1.0), l).0;
        let hi = subthreshold_current(&t, knobs(0.39, 12.0), Microns(1.0), l).0;
        let decades = (lo / hi).log10();
        assert!((0.9..1.1).contains(&decades), "decades = {decades}");
    }

    #[test]
    fn subthreshold_magnitude_is_plausible() {
        // ≈ hundreds of nA/µm at the hot, low-Vth, thin-oxide corner.
        let t = tech();
        let k = knobs(0.20, 10.0);
        let i = subthreshold_current(&t, k, Microns(1.0), t.drawn_length(k.tox()));
        assert!(
            (50.0..2000.0).contains(&i.nano()),
            "Isub = {} nA/µm",
            i.nano()
        );
    }

    #[test]
    fn gate_current_decade_per_two_angstrom() {
        let t = tech();
        let k10 = knobs(0.3, 10.0);
        let k12 = knobs(0.3, 12.0);
        let i10 = gate_current(
            &t,
            k10,
            Microns(1.0),
            t.drawn_length(k10.tox()),
            ConductionState::On,
        )
        .0;
        let i12 = gate_current(
            &t,
            k12,
            Microns(1.0),
            t.drawn_length(k12.tox()),
            ConductionState::On,
        )
        .0;
        let decades = (i10 / i12).log10();
        assert!((0.8..1.6).contains(&decades), "decades = {decades}");
    }

    #[test]
    fn gate_dominates_at_thin_oxide() {
        // At Tox = 10 Å and mid Vth, gate tunnelling exceeds subthreshold —
        // the paper's motivating observation.
        let t = tech();
        let k = knobs(0.35, 10.0);
        let l = t.drawn_length(k.tox());
        let ig = gate_current(&t, k, Microns(1.0), l, ConductionState::On);
        let isub = subthreshold_current(&t, k, Microns(1.0), l);
        assert!(
            ig.0 > isub.0,
            "gate {} nA vs sub {} nA",
            ig.nano(),
            isub.nano()
        );
    }

    #[test]
    fn subthreshold_dominates_at_thick_oxide_low_vth() {
        let t = tech();
        let k = knobs(0.20, 14.0);
        let l = t.drawn_length(k.tox());
        let ig = gate_current(&t, k, Microns(1.0), l, ConductionState::On);
        let isub = subthreshold_current(&t, k, Microns(1.0), l);
        assert!(isub.0 > ig.0);
    }

    #[test]
    fn off_state_gate_current_attenuated() {
        let t = tech();
        let k = knobs(0.3, 11.0);
        let l = t.drawn_length(k.tox());
        let on = gate_current(&t, k, Microns(1.0), l, ConductionState::On).0;
        let off = gate_current(&t, k, Microns(1.0), l, ConductionState::Off).0;
        assert!((off / on - t.gate_off_factor()).abs() < 1e-12);
    }

    #[test]
    fn junction_scales_with_width() {
        let t = tech();
        let i1 = junction_current(&t, Microns(1.0)).0;
        let i2 = junction_current(&t, Microns(2.0)).0;
        assert!((i2 / i1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hotter_means_leakier() {
        let t = tech();
        let hot = t.at_temperature(crate::units::Kelvin::from_celsius(110.0));
        let k = knobs(0.35, 12.0);
        let l = t.drawn_length(k.tox());
        assert!(
            subthreshold_current(&hot, k, Microns(1.0), l).0
                > subthreshold_current(&t, k, Microns(1.0), l).0
        );
    }

    #[test]
    fn breakdown_arithmetic() {
        let a = LeakageBreakdown {
            subthreshold: Watts(1.0),
            gate: Watts(2.0),
            junction: Watts(0.5),
        };
        let b = a + a;
        assert!((b.total().0 - 7.0).abs() < 1e-12);
        let c = a * 3.0;
        assert!((c.gate.0 - 6.0).abs() < 1e-12);
        let s: LeakageBreakdown = vec![a, a, a].into_iter().sum();
        assert!((s.total().0 - 10.5).abs() < 1e-12);
        assert!((a.gate_fraction() - 2.0 / 3.5).abs() < 1e-12);
        assert_eq!(LeakageBreakdown::ZERO.gate_fraction(), 0.0);
    }

    #[test]
    fn from_currents_multiplies_by_vdd() {
        let b = LeakageBreakdown::from_currents(
            Volts(1.0),
            Amperes(1e-9),
            Amperes(2e-9),
            Amperes(3e-9),
        );
        assert!((b.total().0 - 6e-9).abs() < 1e-21);
    }

    #[test]
    fn display_mentions_all_mechanisms() {
        let s = LeakageBreakdown::ZERO.to_string();
        assert!(s.contains("sub") && s.contains("gate") && s.contains("junc"));
    }
}
