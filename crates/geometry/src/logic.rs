//! Circuit primitives shared by the cache components: static CMOS gates,
//! RC wires with Elmore delay, and repeater insertion.

use nm_device::leakage::{self, ConductionState, LeakageBreakdown};
use nm_device::transistor::MosfetKind;
use nm_device::units::{Farads, Joules, Meters, Microns, Ohms, Seconds, Volts, Watts};
use nm_device::{drive, HoistedPrims, TechnologyNode};
use serde::{Deserialize, Serialize};

/// Ratio of PMOS to NMOS width in a balanced static gate.
pub const PN_RATIO: f64 = 2.0;

/// Elmore switching coefficient (0-to-50 % step response of an RC stage).
pub const ELMORE: f64 = 0.69;

/// A balanced static CMOS inverter (the generic gate of the periphery
/// models; NANDs and NORs are expressed as inverters with series-stack
/// resistance factors), planned on one technology node.
///
/// Construction computes the gate's knob-independent terms once — the
/// drain-junction self-capacitance, the junction leakage and the supply —
/// so that evaluating it at a knob point reads only the point's
/// [`HoistedPrims`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// NMOS width; PMOS is [`PN_RATIO`] times wider.
    pub wn: Microns,
    /// Series-stack factor ≥ 1 (2 for a NAND2 pulldown, etc.).
    pub stack: f64,
    /// Parasitic self-capacitance at the output (drain junctions).
    self_capacitance: Farads,
    /// Junction leakage of both devices, which leak in either state.
    junction_leakage: Watts,
    vdd: Volts,
}

impl Gate {
    /// Creates a balanced inverter with unit stack factor.
    pub fn inverter(tech: &TechnologyNode, wn: Microns) -> Self {
        Self::new(tech, wn, 1.0)
    }

    /// Creates a 2-input NAND-equivalent gate (stacked pulldown).
    pub fn nand2(tech: &TechnologyNode, wn: Microns) -> Self {
        Self::new(tech, wn, 2.0)
    }

    fn new(tech: &TechnologyNode, wn: Microns, stack: f64) -> Self {
        let wp = wn * PN_RATIO;
        let vdd = tech.vdd();
        Gate {
            wn,
            stack,
            self_capacitance: drive::drain_capacitance(tech, wn)
                + drive::drain_capacitance(tech, wp),
            junction_leakage: leakage::junction_current(tech, wn) * vdd
                + leakage::junction_current(tech, wp) * vdd,
            vdd,
        }
    }

    /// PMOS width of the balanced gate.
    pub fn wp(self) -> Microns {
        self.wn * PN_RATIO
    }

    /// Worst-case switching resistance (pull-down path including the
    /// stack factor).
    pub fn resistance(self, prims: &HoistedPrims) -> Ohms {
        let r = prims.effective_resistance(self.wn, MosfetKind::Nmos);
        Ohms(r.0 * self.stack)
    }

    /// Input capacitance presented to the previous stage (both gates).
    pub fn input_capacitance(self, prims: &HoistedPrims) -> Farads {
        let cn = prims.gate_capacitance(self.wn);
        let cp = prims.gate_capacitance(self.wp());
        cn + cp
    }

    /// Propagation delay driving an external load.
    pub fn delay(self, prims: &HoistedPrims, load: Farads) -> Seconds {
        let c = self.self_capacitance + load;
        Seconds(ELMORE * self.resistance(prims).0 * c.0)
    }

    /// Standby leakage of the gate, averaged over input states: at any
    /// time one transistor of the pair is off (subthreshold + edge gate
    /// tunnelling) and the other is on (full gate tunnelling).
    pub fn leakage(self, prims: &HoistedPrims) -> LeakageBreakdown {
        let half = |w: Microns| {
            let sub = prims.subthreshold_current(w);
            let g_off = prims.gate_current(w, ConductionState::Off);
            let g_on = prims.gate_current(w, ConductionState::On);
            // 50 % duty in each state.
            (sub * 0.5 * self.vdd, (g_off + g_on) * 0.5 * self.vdd)
        };
        let (n_sub, n_gate) = half(self.wn);
        let (p_sub, p_gate) = half(self.wp());
        LeakageBreakdown {
            // Stacked pulldowns leak less when off (stack effect ≈ /stack).
            subthreshold: n_sub / self.stack + p_sub,
            gate: n_gate + p_gate,
            junction: self.junction_leakage,
        }
    }

    /// Energy dissipated by one output transition driving `load`.
    pub fn switching_energy(self, prims: &HoistedPrims, load: Farads) -> Joules {
        let c = self.self_capacitance + self.input_capacitance(prims) + load;
        // One full charge/discharge cycle dissipates C·V²; a single
        // transition dissipates half.
        Joules(0.5 * c.0 * self.vdd.0 * self.vdd.0)
    }
}

/// A distributed RC wire segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wire {
    /// Total series resistance.
    pub resistance: Ohms,
    /// Total distributed capacitance.
    pub capacitance: Farads,
}

impl Wire {
    /// Builds a wire of the given length from the node's per-length
    /// parasitics.
    pub fn new(tech: &TechnologyNode, length: Meters) -> Self {
        Wire {
            resistance: Ohms(tech.wire_res_per_length() * length.0),
            capacitance: Farads(tech.wire_cap_per_length() * length.0),
        }
    }

    /// Elmore delay through this wire from a driver with resistance
    /// `r_driver` into a lumped `load`.
    pub fn elmore_delay(self, r_driver: Ohms, load: Farads) -> Seconds {
        let t = ELMORE * (r_driver.0 * (self.capacitance.0 + load.0))
            + ELMORE * self.resistance.0 * (0.5 * self.capacitance.0 + load.0);
        Seconds(t)
    }
}

/// A repeated (buffer-inserted) wire of fixed length, planned once per
/// circuit: one repeater of NMOS width `wn` per fixed pitch (0.5 mm; at
/// least one driver), each driving one equal segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatedWire {
    /// The repeater gate.
    pub driver: Gate,
    /// Number of repeaters (and segments).
    pub stages: u64,
    segment: Wire,
}

impl RepeatedWire {
    /// Plans the repeaters of a wire of length `length`.
    pub fn new(tech: &TechnologyNode, wn: Microns, length: Meters) -> Self {
        /// Repeater pitch in metres (0.5 mm of intermediate metal).
        const REPEATER_PITCH: f64 = 0.5e-3;
        let stages = (length.0 / REPEATER_PITCH).ceil().max(1.0) as u64;
        RepeatedWire {
            driver: Gate::inverter(tech, wn),
            stages,
            segment: Wire::new(tech, Meters(length.0 / stages as f64)),
        }
    }

    /// End-to-end delay with every repeater at `prims`' knobs.
    pub fn delay(&self, prims: &HoistedPrims) -> Seconds {
        let driver = self.driver;
        let per_stage = self
            .segment
            .elmore_delay(driver.resistance(prims), driver.input_capacitance(prims))
            + driver.delay(prims, Farads(0.0));
        Seconds(per_stage.0 * self.stages as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::units::Angstroms;
    use nm_device::KnobPoint;

    fn tech() -> TechnologyNode {
        TechnologyNode::bptm65()
    }

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    fn prims(knobs: KnobPoint) -> HoistedPrims {
        HoistedPrims::new(&tech(), knobs)
    }

    /// Searches driver widths and stage counts for the fastest
    /// repeated-wire configuration, returning `(delay, width, stages)`.
    ///
    /// A small discrete search (rather than the classic closed form) so
    /// it remains exact under this model's near-threshold resistance
    /// term; used to sanity-check the fixed-pitch default of
    /// [`RepeatedWire`].
    fn optimal_repeaters(
        tech: &TechnologyNode,
        knobs: KnobPoint,
        length: Meters,
    ) -> (Seconds, Microns, u64) {
        let h = HoistedPrims::new(tech, knobs);
        let mut best: Option<(Seconds, Microns, u64)> = None;
        for width_um in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let wn = Microns(width_um);
            let driver = Gate::inverter(tech, wn);
            for stages in 1..=64u64 {
                let seg = Meters(length.0 / stages as f64);
                let wire = Wire::new(tech, seg);
                let per_stage = wire
                    .elmore_delay(driver.resistance(&h), driver.input_capacitance(&h))
                    + driver.delay(&h, Farads(0.0));
                let total = Seconds(per_stage.0 * stages as f64);
                if best.as_ref().is_none_or(|(t, _, _)| total.0 < t.0) {
                    best = Some((total, wn, stages));
                }
            }
        }
        best.expect("search space is non-empty")
    }

    /// Delay of a logical-effort chain of `stages` identical gates each
    /// driving `fanout` copies of the next.
    fn chain_delay(
        tech: &TechnologyNode,
        knobs: KnobPoint,
        wn: Microns,
        stages: u32,
        fanout: f64,
    ) -> Seconds {
        let h = HoistedPrims::new(tech, knobs);
        let g = Gate::inverter(tech, wn);
        let load = Farads(g.input_capacitance(&h).0 * fanout);
        Seconds(g.delay(&h, load).0 * f64::from(stages))
    }

    #[test]
    fn inverter_delay_is_picoseconds() {
        let t = tech();
        let h = prims(KnobPoint::nominal());
        let g = Gate::inverter(&t, Microns(1.0));
        let d = g.delay(&h, g.input_capacitance(&h) * 4.0);
        assert!((1.0..100.0).contains(&d.picos()), "d = {} ps", d.picos());
    }

    #[test]
    fn higher_vth_is_slower_and_less_leaky() {
        let t = tech();
        let (fk, sk) = (k(0.2, 12.0), k(0.5, 12.0));
        let (fh, sh) = (prims(fk), prims(sk));
        let g = Gate::inverter(&t, Microns(1.0));
        let load = g.input_capacitance(&fh);
        assert!(g.delay(&sh, load).0 > g.delay(&fh, load).0);
        assert!(g.leakage(&sh).total().0 < g.leakage(&fh).total().0);
    }

    #[test]
    fn nand_stack_slower_but_leaks_less_subthreshold() {
        let t = tech();
        let h = prims(KnobPoint::nominal());
        let inv = Gate::inverter(&t, Microns(1.0));
        let nand = Gate::nand2(&t, Microns(1.0));
        let load = inv.input_capacitance(&h);
        assert!(nand.delay(&h, load).0 > inv.delay(&h, load).0);
        assert!(nand.leakage(&h).subthreshold.0 < inv.leakage(&h).subthreshold.0);
    }

    #[test]
    fn wire_delay_grows_quadratically_unrepeated() {
        let t = tech();
        let short = Wire::new(&t, Meters(0.5e-3));
        let long = Wire::new(&t, Meters(1.0e-3));
        let r = Ohms(1000.0);
        let d1 = short.elmore_delay(r, Farads(0.0)).0;
        let d2 = long.elmore_delay(r, Farads(0.0)).0;
        // Doubling an RC-dominated wire should more than double its delay.
        assert!(d2 > 2.0 * d1 * 0.99, "d1 = {d1}, d2 = {d2}");
    }

    #[test]
    fn repeaters_help_long_wires() {
        let t = tech();
        let knobs = KnobPoint::nominal();
        let h = prims(knobs);
        let wn = Microns(4.0);
        let len = Meters(4e-3);
        let repeated = RepeatedWire::new(&t, wn, len);
        let rep = repeated.delay(&h);
        let raw = Wire::new(&t, len).elmore_delay(repeated.driver.resistance(&h), Farads(0.0));
        assert!(repeated.stages >= 4);
        assert!(
            rep.0 < raw.0,
            "repeated {} ps ≥ raw {} ps",
            rep.picos(),
            raw.picos()
        );
    }

    #[test]
    fn optimal_repeaters_beat_the_fixed_pitch_default() {
        let t = tech();
        let knobs = KnobPoint::nominal();
        for len_mm in [1.0, 4.0] {
            let length = Meters(len_mm * 1e-3);
            let fixed = RepeatedWire::new(&t, Microns(4.0), length).delay(&prims(knobs));
            let (opt, w, stages) = optimal_repeaters(&t, knobs, length);
            assert!(
                opt.0 <= fixed.0 + 1e-18,
                "{len_mm} mm: optimal {} ps > fixed {} ps",
                opt.picos(),
                fixed.picos()
            );
            assert!(w.0 >= 1.0 && stages >= 1);
        }
    }

    #[test]
    fn optimal_repeaters_use_more_stages_on_longer_wires() {
        let t = tech();
        let knobs = KnobPoint::nominal();
        let (_, _, short) = optimal_repeaters(&t, knobs, Meters(0.5e-3));
        let (_, _, long) = optimal_repeaters(&t, knobs, Meters(8e-3));
        assert!(long > short, "short {short}, long {long}");
    }

    #[test]
    fn chain_delay_scales_with_stages() {
        let t = tech();
        let d2 = chain_delay(&t, KnobPoint::nominal(), Microns(0.5), 2, 4.0);
        let d6 = chain_delay(&t, KnobPoint::nominal(), Microns(0.5), 6, 4.0);
        assert!((d6.0 / d2.0 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn switching_energy_positive_and_grows_with_load() {
        let t = tech();
        let h = prims(KnobPoint::nominal());
        let g = Gate::inverter(&t, Microns(1.0));
        let e0 = g.switching_energy(&h, Farads(0.0));
        let e1 = g.switching_energy(&h, Farads::from_femtos(100.0));
        assert!(e0.0 > 0.0);
        assert!(e1.0 > e0.0);
    }

    #[test]
    fn gate_leakage_sensitive_to_tox() {
        let t = tech();
        let leak = |knobs| Gate::inverter(&t, Microns(1.0)).leakage(&prims(knobs));
        let thin = leak(k(0.3, 10.0));
        let thick = leak(k(0.3, 14.0));
        assert!(thin.gate.0 / thick.gate.0 > 10.0);
    }
}
