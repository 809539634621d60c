//! The memory cell array + sense amplifier component.
//!
//! Delay path: wordline propagation across the subarray, bitline
//! differential development against the cell read current, then sense
//! amplification and column muxing. Leakage is dominated by the cell
//! population; the sense amplifiers (grouped with the array by the paper)
//! add a peripheral term under the *array's* knob pair.

use crate::cache::ComponentMetrics;
use crate::config::Organization;
use crate::logic::{Gate, Wire, ELMORE};
use crate::sram::SramCell;
use nm_device::units::{Farads, Joules, Meters, Microns, Ohms, Seconds, SquareMicrons};
use nm_device::{HoistedPrims, TechnologyNode};

/// Bitline differential swing required by the sense amps, as a fraction of
/// the supply.
pub const SENSE_SWING: f64 = 0.12;

/// Fixed wordline-driver resistance assumed at the decoder/array boundary
/// (independence of the two components; see [`crate::cache`]).
pub const BOUNDARY_DRIVER_OHMS: f64 = 8.0e2;

/// Equivalent fan-out-of-4 gate stages in the latch-type sense amp,
/// column mux, tag comparison and way-select path (all grouped with the
/// array component and running on its knob pair).
pub const SENSE_STAGES: u32 = 10;

/// Subarrays activated per access (one data mat plus the tag mat).
pub const ACTIVE_SUBARRAYS: f64 = 2.0;

/// Layout overhead of the array (precharge, mux, well taps) over raw cell
/// area.
pub const AREA_OVERHEAD: f64 = 1.15;

/// Inverter-equivalents of leakage per sense amplifier.
pub(crate) const SENSE_AMP_INVERTER_EQ: f64 = 3.0;

/// NMOS width of the sense-amp equivalent gates.
pub(crate) const SENSE_AMP_WN: Microns = Microns(0.5);

/// Transistors per sense amplifier (latch + precharge + mux).
pub(crate) const SENSE_AMP_TRANSISTORS: u64 = 10;

/// The array model planned for one circuit: the organisation's counts,
/// the sense-amp gate and the census, fixed before any knob point is
/// evaluated. [`at`](Self::at) finishes the model at one point.
#[derive(Debug, Clone, Copy)]
pub struct ArrayPlan<'a> {
    tech: &'a TechnologyNode,
    cell: SramCell,
    cols: f64,
    rows: f64,
    cells: f64,
    /// Bitline differential swing, volts.
    swing: f64,
    sense_gate: Gate,
    /// Inverter-equivalents of sense-amp leakage.
    sense_amp_gates: f64,
    /// Sense amps firing per access.
    active_sense: f64,
    transistors: u64,
}

impl<'a> ArrayPlan<'a> {
    /// Plans the array of `org` built from `cell` on `tech`.
    pub fn new(tech: &'a TechnologyNode, org: &Organization, cell: &SramCell) -> Self {
        ArrayPlan {
            tech,
            cell: *cell,
            cols: org.cols as f64,
            rows: org.rows as f64,
            cells: org.total_cells() as f64,
            swing: tech.vdd().0 * SENSE_SWING,
            sense_gate: Gate::inverter(tech, SENSE_AMP_WN),
            sense_amp_gates: SENSE_AMP_INVERTER_EQ * org.sense_amps as f64,
            active_sense: org.cols as f64 * ACTIVE_SUBARRAYS / Organization::COLUMN_MUX as f64,
            transistors: org.total_cells() * 6 + org.sense_amps * SENSE_AMP_TRANSISTORS,
        }
    }

    /// The array's metrics at `prims`' knob pair.
    pub fn at(&self, prims: &HoistedPrims) -> ComponentMetrics {
        let (tech, cell) = (self.tech, &self.cell);
        let vdd = tech.vdd();

        // --- Wordline propagation ------------------------------------------
        let wl_length = Meters(cell.scaled_pitch_x(prims).meters().0 * self.cols);
        let wl_wire = Wire::new(tech, wl_length);
        let wl_gate_load = Farads(cell.wordline_load(prims).0 * self.cols);
        let t_wordline = wl_wire.elmore_delay(Ohms(BOUNDARY_DRIVER_OHMS), wl_gate_load);

        // --- Bitline development --------------------------------------------
        let bl_wire_len = Meters(cell.scaled_pitch_y(prims).meters().0 * self.rows);
        let bl_wire = Wire::new(tech, bl_wire_len);
        let c_bitline =
            Farads(cell.bitline_load(tech, prims).0 * self.rows + bl_wire.capacitance.0);
        let i_read = cell.read_current(prims);
        let t_bitline = Seconds(c_bitline.0 * self.swing / i_read.0)
            + Seconds(ELMORE * bl_wire.resistance.0 * 0.5 * c_bitline.0);

        // --- Sense amplification ---------------------------------------------
        let sense_gate = self.sense_gate;
        let fo4_load = sense_gate.input_capacitance(prims) * 4.0;
        let t_sense = Seconds(sense_gate.delay(prims, fo4_load).0 * f64::from(SENSE_STAGES));

        let delay = t_wordline + t_bitline + t_sense;

        // --- Leakage -----------------------------------------------------------
        let cell_leak = cell.leakage(tech, prims) * self.cells;
        let sa_leak = sense_gate.leakage(prims) * self.sense_amp_gates;
        let leakage = cell_leak + sa_leak;

        // --- Dynamic read energy -----------------------------------------------
        // Active wordlines charge fully; active bitline pairs swing by the
        // sense margin; sense amps burn a latch transition each.
        let e_wordline =
            Joules((wl_wire.capacitance.0 + wl_gate_load.0) * vdd.0 * vdd.0) * ACTIVE_SUBARRAYS;
        let e_bitline = Joules(c_bitline.0 * vdd.0 * self.swing * self.cols) * ACTIVE_SUBARRAYS;
        let e_sense = Joules(sense_gate.switching_energy(prims, fo4_load).0 * self.active_sense);
        let read_energy = e_wordline + e_bitline + e_sense;
        // Writes drive the selected bitline pairs full rail (no sensing).
        let e_bitline_write = Joules(c_bitline.0 * vdd.0 * vdd.0 * self.cols) * ACTIVE_SUBARRAYS;
        let write_energy = e_wordline + e_bitline_write;

        // --- Census --------------------------------------------------------------
        let area = SquareMicrons(cell.area(prims.cell_scale()).0 * self.cells * AREA_OVERHEAD);

        ComponentMetrics {
            delay,
            leakage,
            read_energy,
            write_energy,
            transistors: self.transistors,
            area,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use nm_device::units::{Angstroms, Volts};
    use nm_device::KnobPoint;

    fn org(size: u64) -> Organization {
        CacheConfig::new(size, 64, 4).unwrap().organization()
    }

    fn k(vth: f64, tox: f64) -> HoistedPrims {
        let knobs = KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap();
        HoistedPrims::new(&TechnologyNode::bptm65(), knobs)
    }

    fn nominal() -> HoistedPrims {
        HoistedPrims::new(&TechnologyNode::bptm65(), KnobPoint::nominal())
    }

    fn analyze(
        tech: &TechnologyNode,
        org: &Organization,
        cell: &SramCell,
        prims: &HoistedPrims,
    ) -> ComponentMetrics {
        ArrayPlan::new(tech, org, cell).at(prims)
    }

    #[test]
    fn delay_in_plausible_band() {
        let tech = TechnologyNode::bptm65();
        let m = analyze(
            &tech,
            &org(16 * 1024),
            &SramCell::default_65nm(),
            &nominal(),
        );
        let ps = m.delay.picos();
        assert!((50.0..2000.0).contains(&ps), "array delay = {ps} ps");
    }

    #[test]
    fn leakage_scales_with_cells() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let small = analyze(&tech, &org(16 * 1024), &cell, &nominal());
        let big = analyze(&tech, &org(256 * 1024), &cell, &nominal());
        let ratio = big.leakage.total().0 / small.leakage.total().0;
        assert!((10.0..22.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn vth_slows_bitline_development() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let fast = analyze(&tech, &org(16 * 1024), &cell, &k(0.2, 12.0));
        let slow = analyze(&tech, &org(16 * 1024), &cell, &k(0.5, 12.0));
        assert!(slow.delay.0 > fast.delay.0 * 1.3);
    }

    #[test]
    fn tox_grows_area_and_slows_moderately() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let thin = analyze(&tech, &org(16 * 1024), &cell, &k(0.3, 10.0));
        let thick = analyze(&tech, &org(16 * 1024), &cell, &k(0.3, 14.0));
        assert!(thick.area.0 > thin.area.0 * 1.3);
        assert!(thick.delay.0 > thin.delay.0);
        // Tox's relative delay impact stays below Vth's (Figure 1 asymmetry).
        let delay = |p: &HoistedPrims| analyze(&tech, &org(16 * 1024), &cell, p).delay.0;
        let vth_span = delay(&k(0.5, 12.0)) / delay(&k(0.2, 12.0));
        let tox_span = thick.delay.0 / thin.delay.0;
        assert!(
            vth_span > tox_span,
            "vth {vth_span:.2} vs tox {tox_span:.2}"
        );
    }

    #[test]
    fn transistor_census_counts_cells() {
        let o = org(16 * 1024);
        let tech = TechnologyNode::bptm65();
        let m = analyze(&tech, &o, &SramCell::default_65nm(), &nominal());
        assert!(m.transistors >= o.total_cells() * 6);
    }

    #[test]
    fn read_energy_is_picojoules() {
        let tech = TechnologyNode::bptm65();
        let m = analyze(
            &tech,
            &org(16 * 1024),
            &SramCell::default_65nm(),
            &nominal(),
        );
        let pj = m.read_energy.picos();
        assert!((0.5..100.0).contains(&pj), "E = {pj} pJ");
    }
}
