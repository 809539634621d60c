//! The technology node: every process constant the models need.
//!
//! [`TechnologyNode::bptm65`] is calibrated to play the role of the Berkeley
//! Predictive Technology Model 65 nm files the paper characterised with
//! HSPICE. The constants are chosen so the derived behaviour lands in the
//! bands the paper reports (see `DESIGN.md`, "Physics notes"):
//!
//! * subthreshold swing ≈ 90 mV/decade at 80 °C (one decade of leakage per
//!   ≈ 90 mV of `Vth`),
//! * gate tunnelling falls about one decade per ≈ 2 Å of `Tox`, and is the
//!   dominant leakage mechanism at the 10 Å end of the legal range,
//! * drive current ≈ 700 µA/µm for a nominal NMOS device,
//! * delay grows roughly linearly in `Tox` and (weakly) exponentially in
//!   `Vth`, with the `Vth` knob spanning the wider delay range — the
//!   asymmetry behind the paper's "Vth is the better knob" conclusion.

use crate::units::{Angstroms, Kelvin, Meters, Volts};

/// Permittivity of SiO₂ in F/m (3.9 · ε₀).
pub const EPS_OX: f64 = 3.9 * 8.854e-12;

/// A complete set of process parameters for one technology node.
///
/// All fields are private; accessor methods expose the derived quantities
/// the rest of the workspace consumes. Use [`TechnologyNode::bptm65`] for
/// the node studied in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyNode {
    /// Human-readable node name, e.g. `"bptm-65nm"`.
    name: String,
    /// Supply voltage.
    vdd: Volts,
    /// Operating temperature.
    temperature: Kelvin,
    /// Minimum drawn channel length (at minimum `Tox`).
    lgate_min: Meters,
    /// Minimum legal oxide thickness; the reference point for scaling.
    tox_min: Angstroms,
    /// Depletion capacitance per area (F/m²), sets the subthreshold slope
    /// factor `n = 1 + Cdep/Cox`.
    cdep: f64,
    /// DIBL coefficient at minimum channel length (V of Vth roll-off per V
    /// of Vds).
    dibl0: f64,
    /// Effective channel mobility (m²/V·s) entering the subthreshold
    /// pre-factor.
    mu_eff: f64,
    /// Gate tunnelling current density at (`tox_min`, `vdd` = 1 V), A/m².
    gate_j0: f64,
    /// Gate tunnelling exponential slope, 1/Å.
    gate_bg: f64,
    /// Fraction of full gate current leaked by an *off* transistor
    /// (edge-direct-tunnelling through the overlap region).
    gate_off_factor: f64,
    /// Junction (BTBT + diode) leakage per metre of transistor width, A/m.
    junction_per_width: f64,
    /// Alpha-power-law velocity-saturation exponent.
    alpha: f64,
    /// Drive-current calibration constant (A·m²/F after the `(W/L)·Cox`
    /// factors; absorbs mobility and saturation velocity).
    k_drive: f64,
    /// PMOS drive relative to NMOS.
    pmos_drive_ratio: f64,
    /// Near-threshold delay degradation weight (dimensionless); see
    /// [`crate::drive::effective_resistance`].
    near_vth_slowdown: f64,
    /// Fraction of the minimum drawn length added per unit of relative
    /// `Tox` increase (the paper's "drawn channel length must be scaled
    /// appropriately" rule).
    length_scaling: f64,
    /// Gate fringe capacitance per metre of width, F/m.
    cfringe_per_width: f64,
    /// Drain junction capacitance per metre of width, F/m.
    cjunction_per_width: f64,
    /// Wire resistance per metre, Ω/m (intermediate metal).
    wire_res_per_length: f64,
    /// Wire capacitance per metre, F/m (intermediate metal).
    wire_cap_per_length: f64,
}

impl TechnologyNode {
    /// The BPTM-like 65 nm node of the paper: 1.0 V supply, 80 °C.
    pub fn bptm65() -> Self {
        TechnologyNode {
            name: "bptm-65nm".to_owned(),
            vdd: Volts(1.0),
            temperature: Kelvin::from_celsius(80.0),
            lgate_min: Meters(65e-9),
            tox_min: Angstroms(10.0),
            cdep: 8.0e-3,
            dibl0: 0.08,
            mu_eff: 0.02,
            gate_j0: 1.0e7,
            gate_bg: 1.2,
            gate_off_factor: 0.1,
            junction_per_width: 5.0e-5,
            alpha: 1.5,
            k_drive: 3.1e-3,
            pmos_drive_ratio: 0.45,
            near_vth_slowdown: 0.45,
            length_scaling: 0.5,
            cfringe_per_width: 3.0e-10,
            cjunction_per_width: 1.0e-9,
            wire_res_per_length: 1.5e6,
            wire_cap_per_length: 2.0e-10,
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Operating temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Thermal voltage `kT/q` at the operating temperature.
    pub fn thermal_voltage(&self) -> Volts {
        self.temperature.thermal_voltage()
    }

    /// Minimum drawn channel length (at `Tox` = `tox_min`).
    pub fn lgate_min(&self) -> Meters {
        self.lgate_min
    }

    /// Minimum legal oxide thickness.
    pub fn tox_min(&self) -> Angstroms {
        self.tox_min
    }

    /// Gate-oxide capacitance per area for a given thickness, F/m².
    ///
    /// ```
    /// use nm_device::{TechnologyNode, units::Angstroms};
    /// let tech = TechnologyNode::bptm65();
    /// let cox = tech.cox(Angstroms(12.0));
    /// assert!((cox - 2.878e-2).abs() / cox < 0.01); // ≈ 28.8 fF/µm²
    /// ```
    pub fn cox(&self, tox: Angstroms) -> f64 {
        EPS_OX / tox.meters().0
    }

    /// Subthreshold slope factor `n = 1 + Cdep/Cox(Tox)`.
    ///
    /// Thicker oxide weakens gate control, so `n` (and with it the
    /// subthreshold swing) grows slightly with `Tox`.
    pub fn subthreshold_n(&self, tox: Angstroms) -> f64 {
        1.0 + self.cdep / self.cox(tox)
    }

    /// Subthreshold swing in mV/decade at the operating temperature.
    pub fn subthreshold_swing_mv(&self, tox: Angstroms) -> f64 {
        self.subthreshold_n(tox) * self.thermal_voltage().0 * std::f64::consts::LN_10 * 1e3
    }

    /// The drawn channel length mandated by a given oxide thickness.
    ///
    /// The paper: "The increase of Tox while maintaining the same drawn
    /// channel length may cause the gate terminal to lose control of the
    /// conduction state of the channel due to DIBL effect. Hence, when Tox
    /// changes, the drawn channel length must be scaled appropriately."
    ///
    /// We scale the drawn length by `1 + κ·(Tox/Tox_min − 1)` with
    /// κ = `length_scaling`.
    pub fn drawn_length(&self, tox: Angstroms) -> Meters {
        let rel = tox / self.tox_min; // dimensionless ratio ≥ 1
        Meters(self.lgate_min.0 * (1.0 + self.length_scaling * (rel - 1.0)))
    }

    /// Relative width/length scale factor for memory cells at a given
    /// `Tox` (1.0 at minimum `Tox`); cell area grows with its square.
    pub fn cell_scale(&self, tox: Angstroms) -> f64 {
        self.drawn_length(tox) / self.lgate_min
    }

    /// DIBL coefficient for a given drawn channel length; decays
    /// quadratically as the channel lengthens.
    pub fn dibl(&self, length: Meters) -> f64 {
        let ratio = self.lgate_min / length;
        self.dibl0 * ratio * ratio
    }

    /// Effective mobility entering the subthreshold pre-factor.
    pub fn mu_eff(&self) -> f64 {
        self.mu_eff
    }

    /// Gate tunnelling density parameters `(J0 [A/m²], Bg [1/Å])`.
    pub fn gate_tunnelling(&self) -> (f64, f64) {
        (self.gate_j0, self.gate_bg)
    }

    /// Fraction of full gate current leaked by an off transistor.
    pub fn gate_off_factor(&self) -> f64 {
        self.gate_off_factor
    }

    /// Junction leakage per metre of width, A/m.
    pub fn junction_per_width(&self) -> f64 {
        self.junction_per_width
    }

    /// Alpha-power-law exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Drive calibration constant.
    pub fn k_drive(&self) -> f64 {
        self.k_drive
    }

    /// PMOS drive strength relative to NMOS.
    pub fn pmos_drive_ratio(&self) -> f64 {
        self.pmos_drive_ratio
    }

    /// Near-threshold delay degradation weight.
    pub fn near_vth_slowdown(&self) -> f64 {
        self.near_vth_slowdown
    }

    /// Gate fringe capacitance per metre of width, F/m.
    pub fn cfringe_per_width(&self) -> f64 {
        self.cfringe_per_width
    }

    /// Drain junction capacitance per metre of width, F/m.
    pub fn cjunction_per_width(&self) -> f64 {
        self.cjunction_per_width
    }

    /// Wire resistance per metre, Ω/m.
    pub fn wire_res_per_length(&self) -> f64 {
        self.wire_res_per_length
    }

    /// Wire capacitance per metre, F/m.
    pub fn wire_cap_per_length(&self) -> f64 {
        self.wire_cap_per_length
    }

    /// Returns a copy of this node at a different operating temperature
    /// (for temperature-sensitivity studies).
    #[must_use]
    pub fn at_temperature(&self, temperature: Kelvin) -> Self {
        TechnologyNode {
            temperature,
            ..self.clone()
        }
    }

    /// Returns a copy with a different drawn-length scaling coefficient
    /// κ (the fraction of relative `Tox` increase added to the drawn
    /// length). κ = 0 disables the paper's scaling rule; the default node
    /// uses 0.5. For ablation studies.
    ///
    /// # Panics
    ///
    /// Panics for negative or non-finite κ.
    #[must_use]
    pub fn with_length_scaling(&self, kappa: f64) -> Self {
        assert!(
            kappa.is_finite() && kappa >= 0.0,
            "length-scaling κ must be non-negative, got {kappa}"
        );
        TechnologyNode {
            length_scaling: kappa,
            ..self.clone()
        }
    }

    /// Returns a copy with a different gate-tunnelling slope `Bg` (1/Å;
    /// the default node uses 1.2, about one decade per 1.9 Å). For
    /// ablation studies of how strongly `Tox` controls gate leakage.
    ///
    /// # Panics
    ///
    /// Panics for non-positive or non-finite slopes.
    #[must_use]
    pub fn with_gate_slope(&self, bg: f64) -> Self {
        assert!(
            bg.is_finite() && bg > 0.0,
            "gate slope must be positive, got {bg}"
        );
        TechnologyNode {
            gate_bg: bg,
            ..self.clone()
        }
    }

    /// Returns a copy with a different near-threshold delay-degradation
    /// weight λ (the default node uses 0.45). For ablation studies of the
    /// `Vth`-delay sensitivity that drives the paper's "Vth is the better
    /// knob" conclusion.
    ///
    /// # Panics
    ///
    /// Panics for λ outside `[0, 1)` (λ → 1 diverges at `Vth = Vdd`).
    #[must_use]
    pub fn with_near_vth_slowdown(&self, lambda: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&lambda),
            "near-Vth slowdown must be in [0, 1), got {lambda}"
        );
        TechnologyNode {
            near_vth_slowdown: lambda,
            ..self.clone()
        }
    }
}

impl Default for TechnologyNode {
    fn default() -> Self {
        Self::bptm65()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cox_is_inverse_in_tox() {
        let t = TechnologyNode::bptm65();
        let thin = t.cox(Angstroms(10.0));
        let thick = t.cox(Angstroms(14.0));
        assert!((thin / thick - 1.4).abs() < 1e-9);
    }

    #[test]
    fn swing_near_90mv_per_decade() {
        let t = TechnologyNode::bptm65();
        let s = t.subthreshold_swing_mv(Angstroms(12.0));
        assert!((85.0..95.0).contains(&s), "swing = {s} mV/dec");
    }

    #[test]
    fn n_grows_with_tox() {
        let t = TechnologyNode::bptm65();
        assert!(t.subthreshold_n(Angstroms(14.0)) > t.subthreshold_n(Angstroms(10.0)));
    }

    #[test]
    fn drawn_length_scales_with_tox() {
        let t = TechnologyNode::bptm65();
        assert!((t.drawn_length(Angstroms(10.0)).nanos() - 65.0).abs() < 1e-9);
        let l14 = t.drawn_length(Angstroms(14.0)).nanos();
        assert!((l14 - 78.0).abs() < 1e-9, "L(14Å) = {l14} nm");
    }

    #[test]
    fn dibl_weakens_with_length() {
        let t = TechnologyNode::bptm65();
        let short = t.dibl(Meters(65e-9));
        let long = t.dibl(Meters(78e-9));
        assert!(short > long);
        assert!((short - 0.08).abs() < 1e-12);
    }

    #[test]
    fn cell_scale_is_one_at_min_tox() {
        let t = TechnologyNode::bptm65();
        assert!((t.cell_scale(Angstroms(10.0)) - 1.0).abs() < 1e-12);
        assert!(t.cell_scale(Angstroms(14.0)) > 1.0);
    }

    #[test]
    fn at_temperature_changes_thermal_voltage_only() {
        let t = TechnologyNode::bptm65();
        let cold = t.at_temperature(Kelvin::from_celsius(25.0));
        assert!(cold.thermal_voltage() < t.thermal_voltage());
        assert_eq!(cold.vdd(), t.vdd());
        assert_eq!(cold.lgate_min(), t.lgate_min());
    }

    #[test]
    fn default_is_bptm65() {
        assert_eq!(TechnologyNode::default().name(), "bptm-65nm");
    }

    #[test]
    fn ablation_setters_change_one_parameter() {
        let t = TechnologyNode::bptm65();
        let no_scaling = t.with_length_scaling(0.0);
        assert!((no_scaling.drawn_length(Angstroms(14.0)).nanos() - 65.0).abs() < 1e-9);
        assert_eq!(no_scaling.vdd(), t.vdd());

        let steep = t.with_gate_slope(2.4);
        assert!((steep.gate_tunnelling().1 - 2.4).abs() < 1e-12);
        assert_eq!(steep.gate_tunnelling().0, t.gate_tunnelling().0);

        let flat = t.with_near_vth_slowdown(0.0);
        assert_eq!(flat.near_vth_slowdown(), 0.0);
        assert_eq!(flat.alpha(), t.alpha());
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_kappa_rejected() {
        let _ = TechnologyNode::bptm65().with_length_scaling(-0.1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn divergent_lambda_rejected() {
        let _ = TechnologyNode::bptm65().with_near_vth_slowdown(1.0);
    }
}
