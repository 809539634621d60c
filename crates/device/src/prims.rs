//! Hoisted device primitives: the one provider every circuit model uses.
//!
//! The circuit models in `nm-geometry` compose a handful of device
//! primitives — subthreshold and gate-tunnelling currents, drive
//! current, switching resistance, gate capacitance — dozens of times per
//! component analysis. Every one of those primitives factors into a part
//! that depends only on the knob pair (the `exp`/`powf` terms of the
//! paper's Eq.1/Eq.2 fitted forms) and a cheap multiplier chain over the
//! device geometry. [`HoistedPrims`] computes the knob-only factors once
//! per point; each method then finishes with the **same left-to-right
//! multiply chain** as its reference function in [`crate::leakage`] or
//! [`crate::drive`], so its results are bit-identical to those functions
//! evaluated at the drawn length `tech.drawn_length(tox)`.
//!
//! [`PrimsTable`] builds a `HoistedPrims` per grid point, deduplicating
//! the per-axis work (`Tox`-only and `Vth`-only terms are computed once
//! per distinct axis value, not once per point).
//!
//! Bit-identity with the reference functions is load-bearing: the golden
//! tables pin results to the last decimal, and this module's tests check
//! every method against its reference function over random off-grid
//! points, widths and operating temperatures. Each method documents the
//! chain it replicates.

use crate::knobs::KnobPoint;
use crate::leakage::ConductionState;
use crate::tech::TechnologyNode;
use crate::transistor::MosfetKind;
use crate::units::{Amperes, Farads, Meters, Microns, Ohms};

/// Precomputed per-point factors of every device primitive.
///
/// Construction pays one `exp` (the joint subthreshold exponent), one
/// `powf` (the alpha-power overdrive) and one more `exp` (the
/// gate-tunnelling density) per point; every method is then a short
/// multiply chain, width- and component-independent work having been
/// hoisted. All lengths are the drawn length mandated by the point's
/// `Tox` (the only length the cache geometry models use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoistedPrims {
    knobs: KnobPoint,
    length: Meters,
    scale: f64,
    cox: f64,
    vt: f64,
    /// `μ·Cox` — leading pair of the subthreshold chain.
    sub_k: f64,
    /// `e^((η·Vdd − Vth)/(n·vT))`.
    sub_exp: f64,
    /// `1 − e^(−Vdd/vT)`.
    drain_term: f64,
    /// `J0·Vox²·(Tox₀/Tox)²·e^(−Bg·(Tox − Tox₀))`.
    gate_density: f64,
    gate_off: f64,
    k_drive: f64,
    pmos_ratio: f64,
    /// `(Vdd − Vth)^α`.
    drive_pow: f64,
    /// `1/(1 − λ·Vth/Vdd)`.
    near_vth: f64,
    /// `0.7·Vdd` — numerator of the average-current resistance.
    r_num: f64,
    cfringe: f64,
}

/// `Tox`-only derived quantities, computed once per distinct axis value.
#[derive(Debug, Clone, Copy)]
struct ToxDerived {
    cox: f64,
    length: Meters,
    scale: f64,
    n: f64,
    eta: f64,
    gate_density: f64,
}

impl ToxDerived {
    fn new(tech: &TechnologyNode, tox: crate::units::Angstroms) -> Self {
        let length = tech.drawn_length(tox);
        let (j0, bg) = tech.gate_tunnelling();
        let tox0 = tech.tox_min().0;
        let vox = tech.vdd().0;
        // Replicates the density expression of `leakage::gate_current`.
        let gate_density =
            j0 * (vox * vox) * (tox0 / tox.0) * (tox0 / tox.0) * (-(bg) * (tox.0 - tox0)).exp();
        ToxDerived {
            cox: tech.cox(tox),
            length,
            scale: tech.cell_scale(tox),
            n: tech.subthreshold_n(tox),
            eta: tech.dibl(length),
            gate_density,
        }
    }
}

/// `Vth`-only derived quantities, computed once per distinct axis value.
#[derive(Debug, Clone, Copy)]
struct VthDerived {
    drive_pow: f64,
    near_vth: f64,
}

impl VthDerived {
    fn new(tech: &TechnologyNode, vth: crate::units::Volts) -> Self {
        let overdrive = tech.vdd().0 - vth.0;
        debug_assert!(overdrive > 0.0, "legal knobs keep Vdd − Vth positive");
        VthDerived {
            drive_pow: overdrive.powf(tech.alpha()),
            near_vth: 1.0 / (1.0 - tech.near_vth_slowdown() * vth.0 / tech.vdd().0),
        }
    }
}

impl HoistedPrims {
    /// Precomputes the factors for one knob point.
    pub fn new(tech: &TechnologyNode, knobs: KnobPoint) -> Self {
        Self::from_axes(
            tech,
            knobs,
            &ToxDerived::new(tech, knobs.tox()),
            &VthDerived::new(tech, knobs.vth()),
        )
    }

    fn from_axes(tech: &TechnologyNode, knobs: KnobPoint, t: &ToxDerived, v: &VthDerived) -> Self {
        let vt = tech.thermal_voltage().0;
        let vdd = tech.vdd().0;
        // Replicates the exponent of `leakage::subthreshold_current`.
        let exponent = (t.eta * vdd - knobs.vth().0) / (t.n * vt);
        HoistedPrims {
            knobs,
            length: t.length,
            scale: t.scale,
            cox: t.cox,
            vt,
            sub_k: tech.mu_eff() * t.cox,
            sub_exp: exponent.exp(),
            drain_term: 1.0 - (-vdd / vt).exp(),
            gate_density: t.gate_density,
            gate_off: tech.gate_off_factor(),
            k_drive: tech.k_drive(),
            pmos_ratio: tech.pmos_drive_ratio(),
            drive_pow: v.drive_pow,
            near_vth: v.near_vth,
            r_num: 0.7 * vdd,
            cfringe: tech.cfringe_per_width(),
        }
    }

    /// The knob point these primitives are evaluated at.
    #[inline]
    pub fn point(&self) -> KnobPoint {
        self.knobs
    }

    /// Drawn channel length mandated by this point's `Tox`.
    #[inline]
    pub fn drawn_length(&self) -> Meters {
        self.length
    }

    /// Linear cell-scale factor of this point's `Tox`.
    #[inline]
    pub fn cell_scale(&self) -> f64 {
        self.scale
    }

    /// Subthreshold current of an off device of the given width, as
    /// [`crate::leakage::subthreshold_current`]:
    /// `μ·Cox · (W/L) · vT · vT · e^(…) · (1 − e^(−Vdd/vT))`, the same
    /// left-to-right chain with the first pair and both exponentials
    /// precomputed.
    #[inline]
    pub fn subthreshold_current(&self, width: Microns) -> Amperes {
        let w_over_l = width.meters().0 / self.length.0;
        Amperes(self.sub_k * w_over_l * self.vt * self.vt * self.sub_exp * self.drain_term)
    }

    /// Gate-tunnelling current of a device of the given width, as
    /// [`crate::leakage::gate_current`]: `density · W·L · state_factor`.
    #[inline]
    pub fn gate_current(&self, width: Microns, state: ConductionState) -> Amperes {
        let area = width.meters().0 * self.length.0;
        let state_factor = match state {
            ConductionState::On => 1.0,
            ConductionState::Off => self.gate_off,
        };
        Amperes(self.gate_density * area * state_factor)
    }

    /// Saturation drive current, as [`crate::drive::on_current`]:
    /// `k · kind_factor · (W/L) · Cox · (Vdd − Vth)^α`.
    #[inline]
    pub fn on_current(&self, width: Microns, kind: MosfetKind) -> Amperes {
        let w_over_l = width.meters().0 / self.length.0;
        let kind_factor = match kind {
            MosfetKind::Nmos => 1.0,
            MosfetKind::Pmos => self.pmos_ratio,
        };
        Amperes(self.k_drive * kind_factor * w_over_l * self.cox * self.drive_pow)
    }

    /// Effective switching resistance, as
    /// [`crate::drive::effective_resistance`]:
    /// `(0.7·Vdd)/Ion · 1/(1 − λ·Vth/Vdd)`.
    #[inline]
    pub fn effective_resistance(&self, width: Microns, kind: MosfetKind) -> Ohms {
        let ion = self.on_current(width, kind);
        let base = self.r_num / ion.0;
        Ohms(base * self.near_vth)
    }

    /// Total gate capacitance, as [`crate::drive::gate_capacitance`]:
    /// `Cox·W·L + cfringe·W`.
    #[inline]
    pub fn gate_capacitance(&self, width: Microns) -> Farads {
        let w = width.meters().0;
        let plate = self.cox * w * self.length.0;
        let fringe = self.cfringe * w;
        Farads(plate + fringe)
    }
}

/// A [`HoistedPrims`] per knob point, built with per-axis deduplication:
/// the `Tox`-only and `Vth`-only derived quantities are computed once per
/// distinct axis value (matched by bit pattern), so building a table over
/// an `nV × nT` grid costs `nV + nT` axis evaluations plus one joint
/// subthreshold `exp` per point.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimsTable {
    items: Vec<HoistedPrims>,
}

impl PrimsTable {
    /// Builds the table for a point set under one technology node.
    pub fn new(tech: &TechnologyNode, points: &[KnobPoint]) -> Self {
        let mut tox_cache: Vec<(u64, ToxDerived)> = Vec::new();
        let mut vth_cache: Vec<(u64, VthDerived)> = Vec::new();
        let items = points
            .iter()
            .map(|&p| {
                let tox_bits = p.tox().0.to_bits();
                let t = match tox_cache.iter().find(|(b, _)| *b == tox_bits) {
                    Some((_, t)) => *t,
                    None => {
                        let t = ToxDerived::new(tech, p.tox());
                        tox_cache.push((tox_bits, t));
                        t
                    }
                };
                let vth_bits = p.vth().0.to_bits();
                let v = match vth_cache.iter().find(|(b, _)| *b == vth_bits) {
                    Some((_, v)) => *v,
                    None => {
                        let v = VthDerived::new(tech, p.vth());
                        vth_cache.push((vth_bits, v));
                        v
                    }
                };
                HoistedPrims::from_axes(tech, p, &t, &v)
            })
            .collect();
        PrimsTable { items }
    }

    /// The per-point entries, aligned with the input point order.
    pub fn items(&self) -> &[HoistedPrims] {
        &self.items
    }

    /// Number of points in the table.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the table holds no points.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Angstroms, Kelvin, Volts};
    use crate::{drive, leakage};
    use proptest::prelude::*;

    fn tech() -> TechnologyNode {
        TechnologyNode::bptm65()
    }

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every primitive agrees bit-for-bit with its reference function
        /// in `leakage`/`drive` at the drawn length `tech.drawn_length`,
        /// for random off-grid points, widths and operating temperatures.
        #[test]
        fn hoisted_matches_reference_bit_for_bit(
            vth in 0.2f64..=0.5,
            tox in 10.0f64..=14.0,
            width in 0.05f64..=20.0,
            celsius in 0.0f64..=125.0,
        ) {
            let t = tech().at_temperature(Kelvin::from_celsius(celsius));
            let p = k(vth, tox);
            let w = Microns(width);
            let h = HoistedPrims::new(&t, p);
            let l = t.drawn_length(p.tox());
            prop_assert_eq!(h.point(), p);
            prop_assert_eq!(h.drawn_length().0.to_bits(), l.0.to_bits());
            prop_assert_eq!(h.cell_scale().to_bits(), t.cell_scale(p.tox()).to_bits());
            prop_assert_eq!(
                h.subthreshold_current(w).0.to_bits(),
                leakage::subthreshold_current(&t, p, w, l).0.to_bits(),
                "sub at {} {:?} {} °C", p, w, celsius
            );
            for state in [ConductionState::On, ConductionState::Off] {
                prop_assert_eq!(
                    h.gate_current(w, state).0.to_bits(),
                    leakage::gate_current(&t, p, w, l, state).0.to_bits(),
                    "gate {:?} at {} {:?} {} °C", state, p, w, celsius
                );
            }
            for kind in [MosfetKind::Nmos, MosfetKind::Pmos] {
                prop_assert_eq!(
                    h.on_current(w, kind).0.to_bits(),
                    drive::on_current(&t, p, w, l, kind).0.to_bits(),
                    "ion {:?} at {} {:?} {} °C", kind, p, w, celsius
                );
                prop_assert_eq!(
                    h.effective_resistance(w, kind).0.to_bits(),
                    drive::effective_resistance(&t, p, w, l, kind).0.to_bits(),
                    "reff {:?} at {} {:?} {} °C", kind, p, w, celsius
                );
            }
            prop_assert_eq!(
                h.gate_capacitance(w).0.to_bits(),
                drive::gate_capacitance(&t, p, w, l).0.to_bits(),
                "cg at {} {:?} {} °C", p, w, celsius
            );
        }
    }

    /// Axis dedup must not change results relative to direct
    /// per-point construction.
    #[test]
    fn table_dedup_equals_per_point_construction() {
        let t = tech();
        let points = [k(0.2, 10.0), k(0.2, 14.0), k(0.5, 10.0), k(0.2, 10.0)];
        let table = PrimsTable::new(&t, &points);
        assert!(!table.is_empty());
        assert_eq!(table.len(), points.len());
        for (p, h) in points.iter().zip(table.items()) {
            assert_eq!(*h, HoistedPrims::new(&t, *p));
        }
    }
}
