//! Address- and data-bus driver components.
//!
//! Bus wires span the cache macro; their length comes from a **fixed
//! floorplan** sized at the nominal process corner so that bus delay
//! depends only on the bus component's own knobs (the paper's
//! independence assumption — routing is not re-planned per candidate
//! assignment).

use crate::cache::ComponentMetrics;
use crate::config::Organization;
use crate::logic::{RepeatedWire, Wire};
use crate::sram::SramCell;
use nm_device::units::{Joules, Meters, Microns, SquareMicrons};
use nm_device::{HoistedPrims, KnobPoint, TechnologyNode};

/// NMOS width of bus repeater drivers.
pub(crate) const REPEATER_WN: Microns = Microns(4.0);

/// Routing detour factor over the floorplan side length.
const ROUTING_FACTOR: f64 = 1.9;

/// Additional route per H-tree level (the bus must fan out to every
/// subarray; each doubling of the mat count adds a level).
const HTREE_PER_LEVEL: f64 = 0.1;

/// Data bus runs this much longer than the address bus (to/from the
/// datapath on the far side).
pub(crate) const DATA_LENGTH_FACTOR: f64 = 1.4;

/// Switching activity of bus wires per access.
pub(crate) const ACTIVITY: f64 = 0.5;

/// Area per repeater transistor, µm².
pub(crate) const AREA_PER_TRANSISTOR: f64 = 0.6;

/// Floorplan-derived bus length for this organisation (nominal corner),
/// computed once per [`BusPlan`].
pub fn bus_length(tech: &TechnologyNode, org: &Organization, cell: &SramCell) -> Meters {
    // Only the nominal cell scale is needed, not a whole `HoistedPrims`.
    let nominal_scale = tech.cell_scale(KnobPoint::nominal().tox());
    let macro_area_um2 = cell.area(nominal_scale).0 * org.total_cells() as f64;
    let side_um = macro_area_um2.sqrt();
    let htree_levels = (org.subarrays.max(1) as f64).log2();
    Meters(side_um * 1e-6 * (ROUTING_FACTOR + HTREE_PER_LEVEL * htree_levels))
}

/// A bus driver component planned for one circuit: the floorplan route,
/// its repeaters and the driver census, fixed before any knob point is
/// evaluated. [`at`](Self::at) finishes the model at one point.
#[derive(Debug, Clone, Copy)]
pub struct BusPlan {
    wire: RepeatedWire,
    bits: u64,
    /// Repeaters over all bits.
    drivers: u64,
    /// Capacitance of the whole route, farads.
    route_capacitance: f64,
    vdd: f64,
    transistors: u64,
    area: SquareMicrons,
}

impl BusPlan {
    /// Plans the address-bus driver component (one wire per address bit).
    pub fn address(tech: &TechnologyNode, org: &Organization, cell: &SramCell) -> Self {
        Self::new(tech, org, cell, u64::from(crate::config::ADDRESS_BITS), 1.0)
    }

    /// Plans the data-bus driver component (one wire per delivered data
    /// bit, over the longer datapath route).
    pub fn data(tech: &TechnologyNode, org: &Organization, cell: &SramCell) -> Self {
        Self::new(tech, org, cell, org.data_out_bits, DATA_LENGTH_FACTOR)
    }

    fn new(
        tech: &TechnologyNode,
        org: &Organization,
        cell: &SramCell,
        bits: u64,
        length_factor: f64,
    ) -> Self {
        let length = Meters(bus_length(tech, org, cell).0 * length_factor);
        let wire = RepeatedWire::new(tech, REPEATER_WN, length);
        let drivers = wire.stages * bits;
        let transistors = drivers * 2;
        BusPlan {
            wire,
            bits,
            drivers,
            route_capacitance: Wire::new(tech, length).capacitance.0,
            vdd: tech.vdd().0,
            transistors,
            area: SquareMicrons(transistors as f64 * AREA_PER_TRANSISTOR),
        }
    }

    /// The bus's metrics at `prims`' knob pair.
    pub fn at(&self, prims: &HoistedPrims) -> ComponentMetrics {
        let driver = self.wire.driver;
        let delay = self.wire.delay(prims);
        let leakage = driver.leakage(prims) * self.drivers as f64;

        let vdd = self.vdd;
        let e_per_bit = 0.5
            * (self.route_capacitance
                + self.wire.stages as f64 * driver.input_capacitance(prims).0)
            * vdd
            * vdd;
        let read_energy = Joules(e_per_bit * self.bits as f64 * ACTIVITY);

        ComponentMetrics {
            delay,
            leakage,
            read_energy,
            // Address decode and bus switching cost the same either way.
            write_energy: read_energy,
            transistors: self.transistors,
            area: self.area,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use nm_device::units::{Angstroms, Volts};

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

    fn analyze_address(
        tech: &TechnologyNode,
        org: &Organization,
        cell: &SramCell,
        prims: &HoistedPrims,
    ) -> ComponentMetrics {
        BusPlan::address(tech, org, cell).at(prims)
    }

    fn analyze_data(
        tech: &TechnologyNode,
        org: &Organization,
        cell: &SramCell,
        prims: &HoistedPrims,
    ) -> ComponentMetrics {
        BusPlan::data(tech, org, cell).at(prims)
    }

    #[test]
    fn bus_length_grows_with_cache_size() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let small = bus_length(&tech, &org(16 * 1024), &cell).0;
        let big = bus_length(&tech, &org(4 * 1024 * 1024), &cell).0;
        // 256x the cells → 16x the side length, plus extra H-tree levels.
        let ratio = big / small;
        assert!((16.0..24.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn data_bus_slower_than_address_bus() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let o = org(1024 * 1024);
        let a = analyze_address(&tech, &o, &cell, &nominal());
        let d = analyze_data(&tech, &o, &cell, &nominal());
        assert!(d.delay.0 > a.delay.0);
    }

    #[test]
    fn bus_delay_knob_dependence() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let o = org(1024 * 1024);
        let fast = analyze_address(&tech, &o, &cell, &k(0.2, 10.0));
        let slow = analyze_address(&tech, &o, &cell, &k(0.5, 14.0));
        assert!(slow.delay.0 > fast.delay.0);
        assert!(fast.leakage.total().0 > slow.leakage.total().0);
    }

    #[test]
    fn bus_delay_independent_of_other_components() {
        // The floorplan is fixed at the nominal corner: bus metrics depend
        // only on the bus knobs, never on array knobs.
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let o = org(64 * 1024);
        let a = analyze_address(&tech, &o, &cell, &nominal());
        let b = analyze_address(&tech, &o, &cell, &nominal());
        assert_eq!(a, b);
    }

    #[test]
    fn l2_size_bus_delay_is_hundreds_of_ps() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let m = analyze_data(&tech, &org(2 * 1024 * 1024), &cell, &nominal());
        assert!(
            (50.0..3000.0).contains(&m.delay.picos()),
            "delay = {} ps",
            m.delay.picos()
        );
    }

    #[test]
    fn energy_scales_with_bits() {
        let tech = TechnologyNode::bptm65();
        let cell = SramCell::default_65nm();
        let o = org(64 * 1024);
        let a = analyze_address(&tech, &o, &cell, &nominal());
        let d = analyze_data(&tech, &o, &cell, &nominal());
        // Data bus carries more bits over a longer route → more energy.
        assert!(d.read_energy.0 > a.read_energy.0);
    }
}
