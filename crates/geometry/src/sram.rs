//! The 6T SRAM cell: geometry, leakage and read current.
//!
//! Cell transistor widths (and the drawn channel length) scale with `Tox`
//! per the paper's stability rule — the cell grows in both dimensions, so
//! its area grows quadratically with the `Tox`-driven scale factor.

use nm_device::leakage::{self, ConductionState, LeakageBreakdown};
use nm_device::transistor::MosfetKind;
use nm_device::units::{Amperes, Farads, Microns, SquareMicrons};
use nm_device::{drive, HoistedPrims, TechnologyNode};

/// A 6T SRAM cell design (widths quoted at the minimum-`Tox` process
/// corner; all dimensions scale with [`TechnologyNode::cell_scale`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramCell {
    /// Access (pass-gate) NMOS width at scale 1.
    pub w_access: Microns,
    /// Pull-down NMOS width at scale 1.
    pub w_pulldown: Microns,
    /// Pull-up PMOS width at scale 1.
    pub w_pullup: Microns,
    /// Cell footprint width (bitline pitch) at scale 1.
    pub pitch_x: Microns,
    /// Cell footprint height (wordline pitch) at scale 1.
    pub pitch_y: Microns,
}

impl SramCell {
    /// The default 65 nm cell (≈ 0.5 µm² footprint at minimum `Tox`).
    pub fn default_65nm() -> Self {
        SramCell {
            w_access: Microns(0.15),
            w_pulldown: Microns(0.20),
            w_pullup: Microns(0.10),
            pitch_x: Microns(1.00),
            pitch_y: Microns(0.50),
        }
    }

    /// Cell area at the linear cell-scale factor of a `Tox` assignment
    /// ([`HoistedPrims::cell_scale`]); grows quadratically with it.
    pub fn area(&self, scale: f64) -> SquareMicrons {
        SquareMicrons(self.pitch_x.0 * self.pitch_y.0 * scale * scale)
    }

    /// Cell width (bitline pitch) under `prims`' `Tox`.
    pub fn scaled_pitch_x(&self, prims: &HoistedPrims) -> Microns {
        self.pitch_x * prims.cell_scale()
    }

    /// Cell height (wordline pitch) under `prims`' `Tox`.
    pub fn scaled_pitch_y(&self, prims: &HoistedPrims) -> Microns {
        self.pitch_y * prims.cell_scale()
    }

    /// Standby leakage of one cell holding a value with both bitlines
    /// precharged high.
    ///
    /// State accounting over the six transistors (storing node `L` low,
    /// `R` high, without loss of generality):
    ///
    /// * pull-down `R` and pull-up `L` are **off with full `Vds`** —
    ///   subthreshold + edge gate tunnelling;
    /// * access `L` is off with the bitline high — subthreshold + edge;
    /// * access `R` is off with **zero `Vds`** — edge tunnelling only;
    /// * pull-down `L` and pull-up `R` are **on** — full gate tunnelling,
    ///   no subthreshold.
    ///
    /// Junction leakage accrues once per transistor.
    pub fn leakage(&self, tech: &TechnologyNode, prims: &HoistedPrims) -> LeakageBreakdown {
        let scale = prims.cell_scale();
        let vdd = tech.vdd();
        let wa = self.w_access * scale;
        let wd = self.w_pulldown * scale;
        let wu = self.w_pullup * scale;

        let sub = |w: Microns| prims.subthreshold_current(w);
        let gate = |w: Microns, s: ConductionState| prims.gate_current(w, s);
        let junc = |w: Microns| leakage::junction_current(tech, w);

        // Subthreshold: PD-R, PU-L, access-L (PMOS pull-up leaks about
        // half the equivalent NMOS; fold that in with a 0.5 factor).
        let i_sub = sub(wd) + sub(wu) * 0.5 + sub(wa);
        // Gate: two on devices at full tunnelling, four off at edge rate.
        let i_gate = gate(wd, ConductionState::On)
            + gate(wu, ConductionState::On)
            + gate(wd, ConductionState::Off)
            + gate(wu, ConductionState::Off)
            + gate(wa, ConductionState::Off) * 2.0;
        // Junction: every diffusion once.
        let i_junc = junc(wd) * 2.0 + junc(wu) * 2.0 + junc(wa) * 2.0;

        LeakageBreakdown::from_currents(vdd, i_sub, i_gate, i_junc)
    }

    /// Read current discharging the bitline: the series access/pull-down
    /// path, dominated by the weaker access device (20 % series
    /// degradation).
    pub fn read_current(&self, prims: &HoistedPrims) -> Amperes {
        let scale = prims.cell_scale();
        let i = prims.on_current(self.w_access * scale, MosfetKind::Nmos);
        i * 0.8
    }

    /// Capacitance one cell adds to its bitline (access drain junction).
    pub fn bitline_load(&self, tech: &TechnologyNode, prims: &HoistedPrims) -> Farads {
        let scale = prims.cell_scale();
        drive::drain_capacitance(tech, self.w_access * scale)
    }

    /// Capacitance one cell adds to its wordline (two access gates).
    pub fn wordline_load(&self, prims: &HoistedPrims) -> Farads {
        let scale = prims.cell_scale();
        prims.gate_capacitance(self.w_access * scale) * 2.0
    }
}

impl Default for SramCell {
    fn default() -> Self {
        Self::default_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::{Angstroms, Volts};
    use nm_device::KnobPoint;

    fn tech() -> TechnologyNode {
        TechnologyNode::bptm65()
    }

    fn k(vth: f64, tox: f64) -> HoistedPrims {
        let knobs = KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap();
        HoistedPrims::new(&tech(), knobs)
    }

    #[test]
    fn default_cell_is_half_square_micron() {
        let c = SramCell::default_65nm();
        let a = c.area(k(0.3, 10.0).cell_scale());
        assert!((a.0 - 0.5).abs() < 1e-9, "area = {a}");
    }

    #[test]
    fn area_grows_with_tox() {
        let c = SramCell::default_65nm();
        let a10 = c.area(k(0.3, 10.0).cell_scale()).0;
        let a14 = c.area(k(0.3, 14.0).cell_scale()).0;
        assert!(
            a14 > a10 * 1.2 && a14 < a10 * 2.0,
            "a10 = {a10}, a14 = {a14}"
        );
        let areas: Vec<f64> = [10.0, 11.0, 12.0, 13.0, 14.0]
            .iter()
            .map(|&tox| c.area(k(0.3, tox).cell_scale()).0)
            .collect();
        assert!(areas.windows(2).all(|w| w[1] > w[0]), "{areas:?}");
    }

    #[test]
    fn leaky_corner_is_hundreds_of_nanowatts() {
        // At (0.2 V, 10 Å) a cell should leak ~0.1–1 µW so a 16 KB array
        // lands in the paper's tens-of-mW band.
        let c = SramCell::default_65nm();
        let w = c.leakage(&tech(), &k(0.2, 10.0)).total();
        assert!(
            (0.05..1.5).contains(&w.micro()),
            "cell leakage = {} µW",
            w.micro()
        );
    }

    #[test]
    fn quiet_corner_is_orders_quieter() {
        let c = SramCell::default_65nm();
        let t = tech();
        let loud = c.leakage(&t, &k(0.2, 10.0)).total().0;
        let quiet = c.leakage(&t, &k(0.5, 14.0)).total().0;
        assert!(loud / quiet > 50.0, "ratio = {}", loud / quiet);
    }

    #[test]
    fn vth_controls_subthreshold_tox_controls_gate() {
        let c = SramCell::default_65nm();
        let t = tech();
        let base = c.leakage(&t, &k(0.3, 12.0));
        let hi_vth = c.leakage(&t, &k(0.45, 12.0));
        let hi_tox = c.leakage(&t, &k(0.3, 14.0));
        assert!(hi_vth.subthreshold.0 < base.subthreshold.0 / 10.0);
        assert!(hi_tox.gate.0 < base.gate.0 / 5.0);
        // And the knobs mostly do not cross over.
        assert!(hi_vth.gate.0 >= base.gate.0 * 0.9);
    }

    #[test]
    fn gate_dominates_at_thin_oxide() {
        let c = SramCell::default_65nm();
        let b = c.leakage(&tech(), &k(0.4, 10.0));
        assert!(
            b.gate_fraction() > 0.5,
            "gate fraction = {}",
            b.gate_fraction()
        );
    }

    #[test]
    fn read_current_is_tens_of_microamps() {
        let c = SramCell::default_65nm();
        let i = c.read_current(&HoistedPrims::new(&tech(), KnobPoint::nominal()));
        assert!((20.0..200.0).contains(&i.micro()), "I = {} µA", i.micro());
    }

    #[test]
    fn loads_scale_with_tox() {
        let c = SramCell::default_65nm();
        let t = tech();
        assert!(c.bitline_load(&t, &k(0.3, 14.0)).0 > c.bitline_load(&t, &k(0.3, 10.0)).0);
        assert!(c.wordline_load(&k(0.3, 10.0)).0 > 0.0);
    }

    #[test]
    fn higher_vth_weakens_read_current() {
        let c = SramCell::default_65nm();
        assert!(c.read_current(&k(0.5, 12.0)).0 < c.read_current(&k(0.2, 12.0)).0);
    }
}
