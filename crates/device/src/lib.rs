//! # nm-device — analytic 65 nm MOSFET models with `Vth`/`Tox` knobs
//!
//! This crate is the device-physics substrate of the `nmcache` workspace, a
//! reproduction of *"Power-Performance Trade-Offs in Nanometer-Scale
//! Multi-Level Caches Considering Total Leakage"* (Bai et al., DATE 2005).
//!
//! The paper characterises BPTM 65 nm technology files with HSPICE over a
//! grid of threshold voltages (`Vth` from 0.2 V to 0.5 V) and gate-oxide
//! thicknesses (`Tox` from 10 Å to 14 Å), then reduces the data to two
//! closed forms that drive every optimisation in the paper:
//!
//! * total leakage `P(Vth, Tox) = A0 + A1·e^(a1·Vth) + A2·e^(a2·Tox)`
//! * delay `T(Vth, Tox) = k0 + k1·e^(k3·Vth) + k2·Tox`
//!
//! We replace the HSPICE characterisation with an analytic transistor model
//! (subthreshold conduction with DIBL, direct-tunnelling gate leakage, a
//! junction floor, and alpha-power-law drive current) calibrated to the
//! 65 nm node, and provide the same surface-fitting step in [`fit`].
//!
//! ## Layout
//!
//! * [`units`] — strongly-typed physical quantities ([`Volts`],
//!   [`Angstroms`], [`Watts`], [`Seconds`], …).
//! * [`tech`] — the [`TechnologyNode`] parameter set (BPTM-65-like),
//!   including the paper's rule that drawn channel length (and memory cell
//!   width) must scale with `Tox` to preserve electrostatic integrity
//!   ([`TechnologyNode::drawn_length`], [`TechnologyNode::cell_scale`]).
//! * [`knobs`] — the (`Vth`, `Tox`) design knobs: [`KnobPoint`] and the
//!   discrete [`KnobGrid`] the optimisers search over.
//! * [`leakage`] — per-transistor subthreshold / gate / junction leakage.
//! * [`drive`] — alpha-power on-current, effective resistance, capacitances.
//! * [`prims`] — [`HoistedPrims`], the leakage and drive primitives with
//!   their knob-only factors computed once per point: the one provider
//!   the `nm-geometry` circuit models use.
//! * [`transistor`] — a sized [`Mosfet`] combining the above.
//! * [`technology`] — the per-level technology axis: the [`TechProfile`]
//!   handle hierarchy specs carry (SRAM baseline, eDRAM, STT-MRAM).
//! * [`fit`] — least-squares fitting of the paper's Eq. 1/Eq. 2 forms plus
//!   a small dense linear-algebra kernel.
//!
//! ## Quick example
//!
//! ```
//! use nm_device::{Mosfet, KnobPoint, TechnologyNode};
//! use nm_device::units::{Volts, Angstroms, Microns};
//!
//! let tech = TechnologyNode::bptm65();
//! let knobs = KnobPoint::new(Volts(0.30), Angstroms(12.0))?;
//! let nfet = Mosfet::nmos(Microns(0.5), tech.drawn_length(knobs.tox()), knobs);
//!
//! let leak = nfet.leakage(&tech);
//! assert!(leak.total().0 > 0.0);
//! // Raising Vth must reduce subthreshold leakage.
//! let hi = Mosfet::nmos(Microns(0.5), tech.drawn_length(knobs.tox()),
//!                       KnobPoint::new(Volts(0.45), Angstroms(12.0))?);
//! assert!(hi.leakage(&tech).subthreshold.0 < leak.subthreshold.0);
//! # Ok::<(), nm_device::DeviceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod fit;
pub mod knobs;
pub mod leakage;
pub mod names;
pub mod prims;
pub mod snm;
pub mod tech;
pub mod technology;
pub mod transistor;
pub mod units;
pub mod variation;

mod error;

pub use error::DeviceError;
pub use knobs::{KnobGrid, KnobPoint};
pub use leakage::LeakageBreakdown;
pub use prims::{HoistedPrims, PrimsTable};
pub use tech::TechnologyNode;
pub use technology::TechProfile;
pub use transistor::{Mosfet, MosfetKind};
pub use units::{
    Amperes, Angstroms, Farads, Joules, Kelvin, Meters, Microns, Ohms, Seconds, SquareMicrons,
    Volts, Watts,
};
