//! A sized, knob-assigned MOSFET — the unit every circuit model is built
//! from.

use crate::drive;
use crate::knobs::KnobPoint;
use crate::leakage::{self, ConductionState, LeakageBreakdown};
use crate::tech::TechnologyNode;
use crate::units::{Amperes, Farads, Meters, Microns, Ohms};
use std::fmt;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosfetKind {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl fmt::Display for MosfetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosfetKind::Nmos => write!(f, "nmos"),
            MosfetKind::Pmos => write!(f, "pmos"),
        }
    }
}

/// A transistor with fixed geometry and process-knob assignment.
///
/// ```
/// use nm_device::{Mosfet, MosfetKind, KnobPoint, TechnologyNode};
/// use nm_device::units::Microns;
///
/// let tech = TechnologyNode::bptm65();
/// let knobs = KnobPoint::nominal();
/// let m = Mosfet::nmos(Microns(1.0), tech.drawn_length(knobs.tox()), knobs);
/// assert_eq!(m.kind(), MosfetKind::Nmos);
/// assert!(m.on_current(&tech).micro() > 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    kind: MosfetKind,
    width: Microns,
    length: Meters,
    knobs: KnobPoint,
}

impl Mosfet {
    /// Creates a transistor; width and length must be positive.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `length` is not strictly positive — transistor
    /// geometry is fixed at design time, so a bad dimension is a programming
    /// error, not a runtime condition.
    pub fn new(kind: MosfetKind, width: Microns, length: Meters, knobs: KnobPoint) -> Self {
        assert!(
            width.0 > 0.0 && width.0.is_finite(),
            "transistor width must be positive, got {width}"
        );
        assert!(
            length.0 > 0.0 && length.0.is_finite(),
            "transistor length must be positive, got {length}"
        );
        Mosfet {
            kind,
            width,
            length,
            knobs,
        }
    }

    /// Convenience constructor for an N-channel device.
    pub fn nmos(width: Microns, length: Meters, knobs: KnobPoint) -> Self {
        Self::new(MosfetKind::Nmos, width, length, knobs)
    }

    /// Convenience constructor for a P-channel device.
    pub fn pmos(width: Microns, length: Meters, knobs: KnobPoint) -> Self {
        Self::new(MosfetKind::Pmos, width, length, knobs)
    }

    /// Polarity.
    pub fn kind(self) -> MosfetKind {
        self.kind
    }

    /// Drawn width.
    pub fn width(self) -> Microns {
        self.width
    }

    /// Drawn channel length.
    pub fn length(self) -> Meters {
        self.length
    }

    /// Process-knob assignment.
    pub fn knobs(self) -> KnobPoint {
        self.knobs
    }

    /// Returns a copy with a different knob assignment (same geometry).
    #[must_use]
    pub fn with_knobs(self, knobs: KnobPoint) -> Self {
        Mosfet { knobs, ..self }
    }

    /// Saturation drive current when on.
    pub fn on_current(self, tech: &TechnologyNode) -> Amperes {
        drive::on_current(tech, self.knobs, self.width, self.length, self.kind)
    }

    /// Effective switching resistance for RC delay estimates.
    pub fn effective_resistance(self, tech: &TechnologyNode) -> Ohms {
        drive::effective_resistance(tech, self.knobs, self.width, self.length, self.kind)
    }

    /// Total gate capacitance presented to a driver.
    pub fn gate_capacitance(self, tech: &TechnologyNode) -> Farads {
        drive::gate_capacitance(tech, self.knobs, self.width, self.length)
    }

    /// Drain junction capacitance.
    pub fn drain_capacitance(self, tech: &TechnologyNode) -> Farads {
        drive::drain_capacitance(tech, self.width)
    }

    /// Leakage breakdown for a device in the *off* state (the default
    /// accounting state for standby leakage).
    pub fn leakage(self, tech: &TechnologyNode) -> LeakageBreakdown {
        self.leakage_in_state(tech, ConductionState::Off)
    }

    /// Leakage breakdown for a device in an explicit conduction state.
    ///
    /// On devices contribute no subthreshold term (their channel conducts
    /// by design) but full gate tunnelling; off devices contribute
    /// subthreshold plus attenuated gate tunnelling. Junction leakage is
    /// state-independent.
    pub fn leakage_in_state(
        self,
        tech: &TechnologyNode,
        state: ConductionState,
    ) -> LeakageBreakdown {
        let sub = match state {
            ConductionState::Off => {
                leakage::subthreshold_current(tech, self.knobs, self.width, self.length)
            }
            ConductionState::On => Amperes(0.0),
        };
        let gate = leakage::gate_current(tech, self.knobs, self.width, self.length, state);
        let junction = leakage::junction_current(tech, self.width);
        LeakageBreakdown::from_currents(tech.vdd(), sub, gate, junction)
    }
}

impl fmt::Display for Mosfet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} W={:.3} µm L={:.1} nm {}",
            self.kind,
            self.width.0,
            self.length.nanos(),
            self.knobs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Angstroms, Volts};

    fn tech() -> TechnologyNode {
        TechnologyNode::bptm65()
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let _ = Mosfet::nmos(Microns(0.0), Meters(65e-9), KnobPoint::nominal());
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn negative_length_panics() {
        let _ = Mosfet::nmos(Microns(1.0), Meters(-1e-9), KnobPoint::nominal());
    }

    #[test]
    fn with_knobs_preserves_geometry() {
        let t = tech();
        let a = Mosfet::nmos(
            Microns(0.5),
            t.drawn_length(Angstroms(12.0)),
            KnobPoint::nominal(),
        );
        let b = a.with_knobs(KnobPoint::lowest_leakage());
        assert_eq!(a.width(), b.width());
        assert_eq!(a.length(), b.length());
        assert_ne!(a.knobs(), b.knobs());
    }

    #[test]
    fn on_state_has_no_subthreshold_but_more_gate() {
        let t = tech();
        let m = Mosfet::nmos(
            Microns(1.0),
            t.drawn_length(Angstroms(10.0)),
            KnobPoint::fastest(),
        );
        let off = m.leakage_in_state(&t, ConductionState::Off);
        let on = m.leakage_in_state(&t, ConductionState::On);
        assert_eq!(on.subthreshold.0, 0.0);
        assert!(off.subthreshold.0 > 0.0);
        assert!(on.gate.0 > off.gate.0);
        assert_eq!(on.junction, off.junction);
    }

    #[test]
    fn default_leakage_is_off_state() {
        let t = tech();
        let m = Mosfet::pmos(
            Microns(0.3),
            t.drawn_length(Angstroms(12.0)),
            KnobPoint::nominal(),
        );
        assert_eq!(m.leakage(&t), m.leakage_in_state(&t, ConductionState::Off));
    }

    #[test]
    fn corner_ordering_holds() {
        // The fastest corner must leak more and resist less than the
        // lowest-leakage corner.
        let t = tech();
        let fast = Mosfet::nmos(
            Microns(1.0),
            t.drawn_length(KnobPoint::fastest().tox()),
            KnobPoint::fastest(),
        );
        let slow = Mosfet::nmos(
            Microns(1.0),
            t.drawn_length(KnobPoint::lowest_leakage().tox()),
            KnobPoint::lowest_leakage(),
        );
        assert!(fast.leakage(&t).total().0 > slow.leakage(&t).total().0);
        assert!(fast.effective_resistance(&t).0 < slow.effective_resistance(&t).0);
    }

    #[test]
    fn display_mentions_kind_and_knobs() {
        let t = tech();
        let m = Mosfet::nmos(
            Microns(1.0),
            t.drawn_length(Angstroms(12.0)),
            KnobPoint::nominal(),
        );
        let s = m.to_string();
        assert!(s.contains("nmos") && s.contains("Vth"), "{s}");
    }

    #[test]
    fn leakage_scales_with_width() {
        let t = tech();
        let k = KnobPoint::new(Volts(0.3), Angstroms(12.0)).unwrap();
        let l = t.drawn_length(k.tox());
        let small = Mosfet::nmos(Microns(0.5), l, k).leakage(&t).total().0;
        let big = Mosfet::nmos(Microns(1.0), l, k).leakage(&t).total().0;
        assert!((big / small - 2.0).abs() < 1e-9);
    }
}
