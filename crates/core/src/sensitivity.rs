//! Knob sensitivities and exchange rates.
//!
//! Figure 1's qualitative message — leakage is more sensitive to `Tox`,
//! delay is more sensitive to `Vth` — in numbers a designer can act on.
//! For each component at a knob point we report finite-difference
//! sensitivities of leakage and delay to each knob, and the **exchange
//! rate** each knob offers: the relative leakage saved per relative delay
//! given up when moving that knob in its leakage-reducing direction.
//!
//! The rates expose the paper's policy as a two-phase greedy argument: at
//! aggressive/nominal oxides `Tox` offers the better deal (gate
//! tunnelling is enormous and thickening is cheap), so every optimum
//! spends the whole 4 Å of `Tox` range first; once `Tox` is parked at
//! 14 Å the gate floor is gone and `Vth` is the knob with purchasing
//! power left — "set Tox conservatively at a high value and let Vth be
//! the knob designers can vary".

use crate::report::{cell, Table};
use nm_device::units::{Angstroms, Volts};
use nm_device::{KnobPoint, TechnologyNode};
use nm_geometry::{CacheCircuit, ComponentId, COMPONENT_IDS};

/// Finite-difference step for `Vth`, volts.
const DV: f64 = 0.01;

/// Finite-difference step for `Tox`, ångströms.
const DT: f64 = 0.25;

/// Sensitivities of one component at one knob point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobSensitivity {
    /// The component analysed.
    pub component: ComponentId,
    /// The knob point analysed at.
    pub at: KnobPoint,
    /// Relative leakage change per volt of `Vth` (negative: raising `Vth`
    /// reduces leakage).
    pub leak_per_vth: f64,
    /// Relative leakage change per ångström of `Tox` (negative).
    pub leak_per_tox: f64,
    /// Relative delay change per volt of `Vth` (positive).
    pub delay_per_vth: f64,
    /// Relative delay change per ångström of `Tox` (positive).
    pub delay_per_tox: f64,
}

impl KnobSensitivity {
    /// Relative leakage reduction per unit of relative delay given up when
    /// raising `Vth` — the `Vth` knob's exchange rate (≥ 0; larger is a
    /// better deal).
    pub fn vth_exchange_rate(&self) -> f64 {
        if self.delay_per_vth <= 0.0 {
            return 0.0;
        }
        (-self.leak_per_vth).max(0.0) / self.delay_per_vth
    }

    /// The `Tox` knob's exchange rate.
    pub fn tox_exchange_rate(&self) -> f64 {
        if self.delay_per_tox <= 0.0 {
            return 0.0;
        }
        (-self.leak_per_tox).max(0.0) / self.delay_per_tox
    }
}

/// Computes central-difference sensitivities of a component at a point
/// (steps shrink to one-sided at the knob-range edges).
///
/// ```
/// use nm_cache_core::sensitivity::component_sensitivity;
/// use nm_device::{KnobPoint, TechnologyNode};
/// use nm_geometry::{CacheCircuit, CacheConfig, ComponentId};
///
/// let tech = TechnologyNode::bptm65();
/// let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4)?, &tech);
/// let s = component_sensitivity(&circuit, ComponentId::MemoryArray, KnobPoint::nominal());
/// assert!(s.leak_per_vth < 0.0 && s.delay_per_vth > 0.0);
/// # Ok::<(), nm_geometry::GeometryError>(())
/// ```
pub fn component_sensitivity(
    circuit: &CacheCircuit,
    component: ComponentId,
    at: KnobPoint,
) -> KnobSensitivity {
    let eval = |p: KnobPoint| {
        let m = circuit.analyze_component(component, p);
        (m.leakage.total().0, m.delay.0)
    };
    let (leak0, delay0) = eval(at);

    let clamp_v = |v: f64| v.clamp(nm_device::knobs::VTH_RANGE.0, nm_device::knobs::VTH_RANGE.1);
    let clamp_t = |t: f64| t.clamp(nm_device::knobs::TOX_RANGE.0, nm_device::knobs::TOX_RANGE.1);

    let v_hi = clamp_v(at.vth().0 + DV);
    let v_lo = clamp_v(at.vth().0 - DV);
    let t_hi = clamp_t(at.tox().0 + DT);
    let t_lo = clamp_t(at.tox().0 - DT);

    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: clamped to legal window
    let p = |v: f64, t: f64| KnobPoint::new(Volts(v), Angstroms(t)).expect("clamped to range");
    let (leak_vh, delay_vh) = eval(p(v_hi, at.tox().0));
    let (leak_vl, delay_vl) = eval(p(v_lo, at.tox().0));
    let (leak_th, delay_th) = eval(p(at.vth().0, t_hi));
    let (leak_tl, delay_tl) = eval(p(at.vth().0, t_lo));

    let dv = (v_hi - v_lo).max(f64::MIN_POSITIVE);
    let dt = (t_hi - t_lo).max(f64::MIN_POSITIVE);

    KnobSensitivity {
        component,
        at,
        leak_per_vth: (leak_vh - leak_vl) / dv / leak0,
        leak_per_tox: (leak_th - leak_tl) / dt / leak0,
        delay_per_vth: (delay_vh - delay_vl) / dv / delay0,
        delay_per_tox: (delay_th - delay_tl) / dt / delay0,
    }
}

/// Sensitivities of every component at one point.
pub fn all_components(circuit: &CacheCircuit, at: KnobPoint) -> Vec<KnobSensitivity> {
    COMPONENT_IDS
        .iter()
        .map(|&id| component_sensitivity(circuit, id, at))
        .collect()
}

/// Renders the sensitivities and exchange rates as a table.
pub fn sensitivity_table(circuit: &CacheCircuit, at: KnobPoint) -> Table {
    let _ = TechnologyNode::bptm65(); // anchor the node the doc refers to
    let mut t = Table::new(
        format!("Knob sensitivities of {} at {at}", circuit.config()),
        &[
            "component",
            "dLeak/dVth (1/V)",
            "dLeak/dTox (1/A)",
            "dDelay/dVth (1/V)",
            "dDelay/dTox (1/A)",
            "Vth exch.",
            "Tox exch.",
        ],
    );
    for s in all_components(circuit, at) {
        t.push_row(vec![
            s.component.to_string(),
            cell(s.leak_per_vth, 2),
            cell(s.leak_per_tox, 3),
            cell(s.delay_per_vth, 3),
            cell(s.delay_per_tox, 4),
            cell(s.vth_exchange_rate(), 1),
            cell(s.tox_exchange_rate(), 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_geometry::CacheConfig;

    fn circuit() -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).unwrap(), &tech)
    }

    #[test]
    fn signs_match_the_physics() {
        for s in all_components(&circuit(), KnobPoint::nominal()) {
            assert!(s.leak_per_vth < 0.0, "{:?}", s.component);
            assert!(s.leak_per_tox < 0.0, "{:?}", s.component);
            assert!(s.delay_per_vth > 0.0, "{:?}", s.component);
            assert!(s.delay_per_tox > 0.0, "{:?}", s.component);
        }
    }

    #[test]
    fn exchange_rates_explain_the_papers_two_phase_policy() {
        // The derivatives reproduce *why* every optimum parks Tox at 14 Å
        // and then tunes Vth:
        //
        // 1. at the nominal corner, Tox offers the better leakage-per-delay
        //    deal (gate tunnelling is huge and thickening is cheap), so the
        //    optimiser spends Tox's whole 4 Å range first;
        // 2. with Tox parked at 14 Å, the gate floor is gone and Vth is the
        //    knob with a strong exchange rate left — "let Vth be the knob
        //    designers can vary".
        let c = circuit();
        let nominal = component_sensitivity(&c, ComponentId::MemoryArray, KnobPoint::nominal());
        assert!(
            nominal.tox_exchange_rate() > nominal.vth_exchange_rate(),
            "phase 1: tox {:.2} ≤ vth {:.2}",
            nominal.tox_exchange_rate(),
            nominal.vth_exchange_rate()
        );

        let parked = KnobPoint::new(Volts(0.3), Angstroms(14.0)).expect("legal");
        let s = component_sensitivity(&c, ComponentId::MemoryArray, parked);
        // With the gate floor removed, Vth's deal dominates.
        assert!(
            s.vth_exchange_rate() > s.tox_exchange_rate(),
            "phase 2: vth {:.2} ≤ tox {:.2}",
            s.vth_exchange_rate(),
            s.tox_exchange_rate()
        );
        assert!(
            s.vth_exchange_rate() > 1.0,
            "Vth deal too weak: {:.2}",
            s.vth_exchange_rate()
        );
    }

    #[test]
    fn exchange_rates_are_non_negative() {
        for at in [KnobPoint::fastest(), KnobPoint::nominal()] {
            for s in all_components(&circuit(), at) {
                assert!(s.vth_exchange_rate() >= 0.0);
                assert!(s.tox_exchange_rate() >= 0.0);
            }
        }
    }

    #[test]
    fn edge_points_use_one_sided_differences_without_panicking() {
        let c = circuit();
        for at in [KnobPoint::fastest(), KnobPoint::lowest_leakage()] {
            let s = component_sensitivity(&c, ComponentId::MemoryArray, at);
            assert!(s.leak_per_vth.is_finite());
            assert!(s.delay_per_tox.is_finite());
        }
    }

    #[test]
    fn table_has_four_rows() {
        let t = sensitivity_table(&circuit(), KnobPoint::nominal());
        assert_eq!(t.len(), 4);
    }
}
