//! Test oracle: the component models as per-point functions, the way
//! they were written before the per-circuit plans.
//!
//! Every function here recomputes its knob-independent terms — the
//! floorplan bus length, the repeater and decode-tree stage counts, the
//! drain-junction capacitances and junction leakages, the refresh power —
//! at each knob point, in the original operation order. The plans hoist
//! those terms out of the per-point loop; the property test below checks
//! that surfaces and pointwise analyses built through the plans carry
//! exactly the oracle's bits, so a hoisting slip cannot hide behind a
//! comparison of two plan-built results.

use crate::array::{
    ACTIVE_SUBARRAYS, AREA_OVERHEAD, BOUNDARY_DRIVER_OHMS, SENSE_AMP_INVERTER_EQ,
    SENSE_AMP_TRANSISTORS, SENSE_AMP_WN, SENSE_STAGES, SENSE_SWING,
};
use crate::assignment::ComponentId;
use crate::bus::{self, bus_length, ACTIVITY, DATA_LENGTH_FACTOR, REPEATER_WN};
use crate::cache::{CacheCircuit, ComponentMetrics};
use crate::config::{Organization, ADDRESS_BITS};
use crate::decoder::{self, stage_count, BOUNDARY_WORDLINE_FF, DRIVER_WN, STAGE_EFFORT, TREE_WN};
use crate::logic::{Wire, ELMORE, PN_RATIO};
use crate::sram::SramCell;
use nm_device::leakage::{self, ConductionState, LeakageBreakdown};
use nm_device::transistor::MosfetKind;
use nm_device::units::{Farads, Joules, Meters, Microns, Ohms, Seconds, SquareMicrons};
use nm_device::{drive, HoistedPrims, TechnologyNode};

/// A balanced static gate whose every term is evaluated per call.
#[derive(Clone, Copy)]
struct Gate {
    wn: Microns,
    stack: f64,
}

impl Gate {
    fn inverter(wn: Microns) -> Self {
        Gate { wn, stack: 1.0 }
    }

    fn nand2(wn: Microns) -> Self {
        Gate { wn, stack: 2.0 }
    }

    fn wp(self) -> Microns {
        self.wn * PN_RATIO
    }

    fn resistance(self, prims: &HoistedPrims) -> Ohms {
        let r = prims.effective_resistance(self.wn, MosfetKind::Nmos);
        Ohms(r.0 * self.stack)
    }

    fn input_capacitance(self, prims: &HoistedPrims) -> Farads {
        let cn = prims.gate_capacitance(self.wn);
        let cp = prims.gate_capacitance(self.wp());
        cn + cp
    }

    fn self_capacitance(self, tech: &TechnologyNode) -> Farads {
        drive::drain_capacitance(tech, self.wn) + drive::drain_capacitance(tech, self.wp())
    }

    fn delay(self, tech: &TechnologyNode, prims: &HoistedPrims, load: Farads) -> Seconds {
        let c = self.self_capacitance(tech) + load;
        Seconds(ELMORE * self.resistance(prims).0 * c.0)
    }

    fn leakage(self, tech: &TechnologyNode, prims: &HoistedPrims) -> LeakageBreakdown {
        let vdd = tech.vdd();
        let half = |w: Microns| {
            let sub = prims.subthreshold_current(w);
            let g_off = prims.gate_current(w, ConductionState::Off);
            let g_on = prims.gate_current(w, ConductionState::On);
            let j = leakage::junction_current(tech, w);
            LeakageBreakdown::from_currents(vdd, sub * 0.5, (g_off + g_on) * 0.5, j)
        };
        let mut n = half(self.wn);
        n.subthreshold = n.subthreshold / self.stack;
        let p = half(self.wp());
        n + p
    }

    fn switching_energy(self, tech: &TechnologyNode, prims: &HoistedPrims, load: Farads) -> Joules {
        let c = self.self_capacitance(tech) + self.input_capacitance(prims) + load;
        Joules(0.5 * c.0 * tech.vdd().0 * tech.vdd().0)
    }
}

fn repeated_wire(
    tech: &TechnologyNode,
    prims: &HoistedPrims,
    wn: Microns,
    length: Meters,
) -> (Seconds, u64) {
    const REPEATER_PITCH: f64 = 0.5e-3;
    let stages = (length.0 / REPEATER_PITCH).ceil().max(1.0) as u64;
    let seg = Meters(length.0 / stages as f64);
    let driver = Gate::inverter(wn);
    let wire = Wire::new(tech, seg);
    let per_stage = wire.elmore_delay(driver.resistance(prims), driver.input_capacitance(prims))
        + driver.delay(tech, prims, Farads(0.0));
    (Seconds(per_stage.0 * stages as f64), stages)
}

fn array(
    tech: &TechnologyNode,
    org: &Organization,
    cell: &SramCell,
    prims: &HoistedPrims,
) -> ComponentMetrics {
    let vdd = tech.vdd();
    let wl_length = Meters(cell.scaled_pitch_x(prims).meters().0 * org.cols as f64);
    let wl_wire = Wire::new(tech, wl_length);
    let wl_gate_load = Farads(cell.wordline_load(prims).0 * org.cols as f64);
    let t_wordline = wl_wire.elmore_delay(Ohms(BOUNDARY_DRIVER_OHMS), wl_gate_load);
    let bl_wire_len = Meters(cell.scaled_pitch_y(prims).meters().0 * org.rows as f64);
    let bl_wire = Wire::new(tech, bl_wire_len);
    let c_bitline =
        Farads(cell.bitline_load(tech, prims).0 * org.rows as f64 + bl_wire.capacitance.0);
    let i_read = cell.read_current(prims);
    let swing = vdd.0 * SENSE_SWING;
    let t_bitline = Seconds(c_bitline.0 * swing / i_read.0)
        + Seconds(ELMORE * bl_wire.resistance.0 * 0.5 * c_bitline.0);
    let sense_gate = Gate::inverter(SENSE_AMP_WN);
    let fo4_load = sense_gate.input_capacitance(prims) * 4.0;
    let t_sense = Seconds(sense_gate.delay(tech, prims, fo4_load).0 * f64::from(SENSE_STAGES));
    let delay = t_wordline + t_bitline + t_sense;
    let cells = org.total_cells() as f64;
    let cell_leak = cell.leakage(tech, prims) * cells;
    let sa_leak = sense_gate.leakage(tech, prims) * (SENSE_AMP_INVERTER_EQ * org.sense_amps as f64);
    let leakage = cell_leak + sa_leak;
    let e_wordline =
        Joules((wl_wire.capacitance.0 + wl_gate_load.0) * vdd.0 * vdd.0) * ACTIVE_SUBARRAYS;
    let e_bitline = Joules(c_bitline.0 * vdd.0 * swing * org.cols as f64) * ACTIVE_SUBARRAYS;
    let active_sense = org.cols as f64 * ACTIVE_SUBARRAYS / Organization::COLUMN_MUX as f64;
    let e_sense = Joules(sense_gate.switching_energy(tech, prims, fo4_load).0 * active_sense);
    let read_energy = e_wordline + e_bitline + e_sense;
    let e_bitline_write = Joules(c_bitline.0 * vdd.0 * vdd.0 * org.cols as f64) * ACTIVE_SUBARRAYS;
    let write_energy = e_wordline + e_bitline_write;
    let transistors = org.total_cells() * 6 + org.sense_amps * SENSE_AMP_TRANSISTORS;
    let area = SquareMicrons(cell.area(prims.cell_scale()).0 * cells * AREA_OVERHEAD);
    ComponentMetrics {
        delay,
        leakage,
        read_energy,
        write_energy,
        transistors,
        area,
    }
}

fn decoder(tech: &TechnologyNode, org: &Organization, prims: &HoistedPrims) -> ComponentMetrics {
    let wordlines = org.rows * org.subarrays;
    let tree_gate = Gate::nand2(TREE_WN);
    let driver = Gate::inverter(DRIVER_WN);
    let stages = stage_count(wordlines as f64);
    let fo_load = Farads(tree_gate.input_capacitance(prims).0 * STAGE_EFFORT);
    let t_tree = Seconds(tree_gate.delay(tech, prims, fo_load).0 * f64::from(stages));
    let t_driver = driver.delay(tech, prims, Farads(BOUNDARY_WORDLINE_FF * 1e-15));
    let delay = t_tree + t_driver;
    let row_gates = wordlines as f64;
    let predecode_gates = (row_gates / 8.0).max(4.0);
    let leakage = tree_gate.leakage(tech, prims) * (row_gates + predecode_gates)
        + driver.leakage(tech, prims) * row_gates;
    let switched_tree = f64::from(org.decoder_bits) * 2.0 + predecode_gates * 0.25 + 2.0;
    let e_tree = Joules(tree_gate.switching_energy(tech, prims, fo_load).0 * switched_tree);
    let e_driver = Joules(
        driver
            .switching_energy(tech, prims, Farads(BOUNDARY_WORDLINE_FF * 1e-15))
            .0
            * 2.0,
    );
    let read_energy = e_tree + e_driver;
    let transistors = (wordlines + predecode_gates as u64) * 4 + wordlines * 2;
    let area = SquareMicrons(transistors as f64 * decoder::AREA_PER_TRANSISTOR);
    ComponentMetrics {
        delay,
        leakage,
        read_energy,
        write_energy: read_energy,
        transistors,
        area,
    }
}

fn bus(
    tech: &TechnologyNode,
    org: &Organization,
    cell: &SramCell,
    prims: &HoistedPrims,
    bits: u64,
    length_factor: f64,
) -> ComponentMetrics {
    let length = Meters(bus_length(tech, org, cell).0 * length_factor);
    let (delay, stages) = repeated_wire(tech, prims, REPEATER_WN, length);
    let driver = Gate::inverter(REPEATER_WN);
    let drivers = stages * bits;
    let leakage = driver.leakage(tech, prims) * drivers as f64;
    let wire = Wire::new(tech, length);
    let vdd = tech.vdd().0;
    let e_per_bit =
        0.5 * (wire.capacitance.0 + stages as f64 * driver.input_capacitance(prims).0) * vdd * vdd;
    let read_energy = Joules(e_per_bit * bits as f64 * ACTIVITY);
    let transistors = drivers * 2;
    let area = SquareMicrons(transistors as f64 * bus::AREA_PER_TRANSISTOR);
    ComponentMetrics {
        delay,
        leakage,
        read_energy,
        write_energy: read_energy,
        transistors,
        area,
    }
}

/// One component of `circuit` at `prims`' knob pair, cell-technology
/// transform included.
pub(crate) fn analyze(
    circuit: &CacheCircuit,
    id: ComponentId,
    prims: &HoistedPrims,
) -> ComponentMetrics {
    let (tech, org, cell) = (circuit.tech(), &circuit.organization(), circuit.cell());
    let m = match id {
        ComponentId::MemoryArray => array(tech, org, cell, prims),
        ComponentId::Decoder => decoder(tech, org, prims),
        ComponentId::AddressBus => bus(tech, org, cell, prims, u64::from(ADDRESS_BITS), 1.0),
        ComponentId::DataBus => bus(
            tech,
            org,
            cell,
            prims,
            org.data_out_bits,
            DATA_LENGTH_FACTOR,
        ),
    };
    let p = circuit.technology();
    if id != ComponentId::MemoryArray || p.is_identity() {
        return m;
    }
    let refresh = p.refresh_power_per_bit * (circuit.config().size_bytes() * 8) as f64;
    ComponentMetrics {
        delay: m.delay * p.delay_scale,
        leakage: LeakageBreakdown {
            subthreshold: m.leakage.subthreshold * p.leakage_scale + refresh,
            gate: m.leakage.gate * p.leakage_scale,
            junction: m.leakage.junction * p.leakage_scale,
        },
        read_energy: m.read_energy * p.read_energy_scale,
        write_energy: m.write_energy * p.write_energy_scale,
        transistors: m.transistors,
        area: m.area * p.area_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::COMPONENT_IDS;
    use crate::config::CacheConfig;
    use nm_device::units::{Angstroms, Kelvin, Volts};
    use nm_device::{KnobGrid, KnobPoint, PrimsTable, TechProfile};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Shapes from 4 KB to 8 MB, 32–128 B blocks, 1–16 ways.
    fn arb_config() -> impl Strategy<Value = CacheConfig> {
        (12u32..=23, 5u32..=7, 0u32..=4).prop_filter_map(
            "config must be internally consistent",
            |(size_log2, block_log2, ways_log2)| {
                CacheConfig::new(1 << size_log2, 1 << block_log2, 1 << ways_log2).ok()
            },
        )
    }

    /// One of five point-set shapes, picked by `kind`: the paper grid
    /// and the coarse grid (both `Tox`-major), the paper grid shuffled,
    /// coarse-grid points drawn with repeats, and the off-grid points
    /// `off`.
    fn arb_points() -> impl Strategy<Value = Vec<KnobPoint>> {
        (
            0u32..5,
            any::<u64>(),
            prop::collection::vec((0.2f64..=0.5, 10.0f64..=14.0), 1..40),
        )
            .prop_map(|(kind, seed, off)| {
                // SplitMix64: a seeded stream for the shuffle and draws.
                let mut state = seed;
                let mut next = move |bound: usize| {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    ((z ^ (z >> 31)) % bound as u64) as usize
                };
                let paper: Vec<KnobPoint> = KnobGrid::paper().points().collect();
                let coarse: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
                match kind {
                    0 => paper,
                    1 => coarse,
                    2 => {
                        let mut shuffled = paper;
                        for i in (1..shuffled.len()).rev() {
                            shuffled.swap(i, next(i + 1));
                        }
                        shuffled
                    }
                    3 => (0..60).map(|_| coarse[next(coarse.len())]).collect(),
                    _ => off
                        .into_iter()
                        .map(|(v, t)| KnobPoint::new(Volts(v), Angstroms(t)).expect("in range"))
                        .collect(),
                }
            })
    }

    fn profile(i: usize) -> TechProfile {
        match i {
            0 => TechProfile::sram(),
            1 => TechProfile::edram(),
            _ => TechProfile::stt_mram(),
        }
    }

    fn bits(m: &ComponentMetrics) -> [u64; 8] {
        [
            m.delay.0.to_bits(),
            m.leakage.subthreshold.0.to_bits(),
            m.leakage.gate.0.to_bits(),
            m.leakage.junction.0.to_bits(),
            m.read_energy.0.to_bits(),
            m.write_energy.0.to_bits(),
            m.area.0.to_bits(),
            m.transistors,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Surfaces built through the plans over one shared point set
        /// and prims table (the evaluator's path), the standalone surface
        /// entry point and pointwise analysis all carry the
        /// per-point oracle's exact bits, for random shapes, temperatures,
        /// cell technologies and point sets.
        #[test]
        fn plans_match_the_per_point_oracle_bit_for_bit(
            config in arb_config(),
            celsius in 0.0f64..=125.0,
            technology in 0usize..3,
            points in arb_points(),
        ) {
            let tech = TechnologyNode::bptm65().at_temperature(Kelvin::from_celsius(celsius));
            let c = CacheCircuit::with_technology(config, &tech, profile(technology));
            let set = Arc::new(points.clone());
            let table = PrimsTable::new(&tech, &points);
            for id in COMPONENT_IDS {
                let surface = c.component_surface_over(id, &set, &table);
                prop_assert_eq!(&surface, &c.component_surface(id, &points));
                for (i, &p) in points.iter().enumerate() {
                    let want = bits(&analyze(&c, id, &HoistedPrims::new(&tech, p)));
                    let context = format!("{id} row {i} at {p}, {config}, {celsius} °C");
                    prop_assert_eq!(bits(&surface.metric_at(i)), want, "surface {}", context);
                    prop_assert_eq!(
                        bits(&c.analyze_component(id, p)),
                        want,
                        "pointwise {}",
                        context
                    );
                }
            }
        }
    }
}
