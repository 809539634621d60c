//! The row-decoder component: a logical-effort buffer/predecode tree plus
//! per-wordline drivers.

use crate::cache::ComponentMetrics;
use crate::config::Organization;
use crate::logic::Gate;
use nm_device::units::{Farads, Joules, Microns, Seconds, SquareMicrons};
use nm_device::{HoistedPrims, TechnologyNode};

/// Per-stage electrical effort the decode tree is buffered to.
pub(crate) const STAGE_EFFORT: f64 = 4.0;

/// NMOS width of the decode-tree gates.
pub(crate) const TREE_WN: Microns = Microns(0.5);

/// NMOS width of the final wordline driver.
pub(crate) const DRIVER_WN: Microns = Microns(2.0);

/// Fixed wordline load the driver is sized against at the decoder/array
/// boundary (nominal 512-column wordline; keeps the components
/// independent).
pub(crate) const BOUNDARY_WORDLINE_FF: f64 = 60.0;

/// Area per decoder transistor, µm² (layout density of random logic).
pub(crate) const AREA_PER_TRANSISTOR: f64 = 0.4;

/// Number of logical-effort stages needed to span a total effort `f` at
/// [`STAGE_EFFORT`] per stage (at least 2: predecode + row gate).
pub(crate) fn stage_count(total_effort: f64) -> u32 {
    let n = (total_effort.max(1.0).ln() / STAGE_EFFORT.ln()).ceil() as u32;
    n.max(2)
}

/// The decoder model planned for one circuit: its gates, the stage count
/// of the decode tree and the gate census, fixed before any knob point is
/// evaluated. [`at`](Self::at) finishes the model at one point.
#[derive(Debug, Clone, Copy)]
pub struct DecoderPlan {
    tree_gate: Gate,
    driver: Gate,
    /// Logical-effort stages of the decode tree.
    stages: f64,
    row_gates: f64,
    /// Row gates plus predecode gates.
    tree_gates: f64,
    /// Tree gates switching per access.
    switched_tree: f64,
    transistors: u64,
    area: SquareMicrons,
}

impl DecoderPlan {
    /// Plans the decoder of `org` on `tech`.
    pub fn new(tech: &TechnologyNode, org: &Organization) -> Self {
        let wordlines = org.rows * org.subarrays;
        // Total electrical effort: one address input fans out to all row
        // gates of the selected mat group; branching ≈ wordlines.
        let total_effort = wordlines as f64;
        // One row gate + one driver per wordline, plus a predecode stage
        // about an eighth the size of the row-gate rank.
        let row_gates = wordlines as f64;
        let predecode_gates = (row_gates / 8.0).max(4.0);
        // Per access: the address buffers and two predecode ranks switch,
        // one row gate and one driver fire per active subarray.
        let switched_tree = f64::from(org.decoder_bits) * 2.0 + predecode_gates * 0.25 + 2.0;
        let transistors = (wordlines + predecode_gates as u64) * 4 + wordlines * 2;
        DecoderPlan {
            tree_gate: Gate::nand2(tech, TREE_WN),
            driver: Gate::inverter(tech, DRIVER_WN),
            stages: f64::from(stage_count(total_effort)),
            row_gates,
            tree_gates: row_gates + predecode_gates,
            switched_tree,
            transistors,
            area: SquareMicrons(transistors as f64 * AREA_PER_TRANSISTOR),
        }
    }

    /// The decoder's metrics at `prims`' knob pair.
    pub fn at(&self, prims: &HoistedPrims) -> ComponentMetrics {
        let (tree_gate, driver) = (self.tree_gate, self.driver);
        let boundary_load = Farads(BOUNDARY_WORDLINE_FF * 1e-15);

        let fo_load = Farads(tree_gate.input_capacitance(prims).0 * STAGE_EFFORT);
        let t_tree = Seconds(tree_gate.delay(prims, fo_load).0 * self.stages);
        let t_driver = driver.delay(prims, boundary_load);
        let delay = t_tree + t_driver;

        let leakage =
            tree_gate.leakage(prims) * self.tree_gates + driver.leakage(prims) * self.row_gates;

        let e_tree = Joules(tree_gate.switching_energy(prims, fo_load).0 * self.switched_tree);
        let e_driver = Joules(driver.switching_energy(prims, boundary_load).0 * 2.0);
        let read_energy = e_tree + e_driver;

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
        prims: &HoistedPrims,
    ) -> ComponentMetrics {
        DecoderPlan::new(tech, org).at(prims)
    }

    #[test]
    fn stage_count_grows_logarithmically() {
        assert_eq!(stage_count(1.0), 2);
        assert!(stage_count(1e6) > stage_count(1e3));
        assert!(stage_count(1e6) <= 12);
    }

    #[test]
    fn bigger_cache_has_slower_bigger_decoder() {
        let tech = TechnologyNode::bptm65();
        let small = analyze(&tech, &org(16 * 1024), &nominal());
        let big = analyze(&tech, &org(4 * 1024 * 1024), &nominal());
        assert!(big.delay.0 > small.delay.0);
        assert!(big.leakage.total().0 > small.leakage.total().0);
        assert!(big.transistors > small.transistors);
    }

    #[test]
    fn decoder_delay_tens_to_hundreds_of_ps() {
        let tech = TechnologyNode::bptm65();
        let m = analyze(&tech, &org(16 * 1024), &nominal());
        assert!(
            (10.0..500.0).contains(&m.delay.picos()),
            "{} ps",
            m.delay.picos()
        );
    }

    #[test]
    fn low_vth_decoder_is_fast_and_leaky() {
        let tech = TechnologyNode::bptm65();
        let fast = analyze(&tech, &org(64 * 1024), &k(0.2, 10.0));
        let slow = analyze(&tech, &org(64 * 1024), &k(0.5, 14.0));
        assert!(fast.delay.0 < slow.delay.0);
        assert!(fast.leakage.total().0 > slow.leakage.total().0);
    }

    #[test]
    fn energy_positive_and_modest() {
        let tech = TechnologyNode::bptm65();
        let m = analyze(&tech, &org(16 * 1024), &nominal());
        assert!(m.read_energy.picos() > 0.0);
        assert!(m.read_energy.picos() < 20.0);
    }
}
