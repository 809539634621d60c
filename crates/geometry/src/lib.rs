//! # nm-geometry — CACTI-style cache circuit model
//!
//! This crate turns a cache *organisation* (size, block, associativity)
//! plus a per-component (`Vth`, `Tox`) assignment into circuit-level
//! metrics: access time, total leakage (subthreshold + gate + junction),
//! dynamic energy per access, area and transistor counts.
//!
//! It plays the role of the re-designed 65 nm cache netlists of the paper
//! (Section 3), which decompose a cache into **four components** whose
//! delays and leakages are modelled independently and summed:
//!
//! 1. memory cell array + sense amplifiers (the [`mod@array`] module),
//! 2. row decoder ([`decoder`]),
//! 3. address bus drivers ([`bus`]),
//! 4. data bus drivers ([`bus`]).
//!
//! [`CacheCircuit`] composes them; [`ComponentKnobs`] carries the
//! per-component knob assignment that the optimisers in `nm-opt` search
//! over.
//!
//! ```
//! use nm_device::TechnologyNode;
//! use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
//! use nm_device::KnobPoint;
//!
//! let tech = TechnologyNode::bptm65();
//! let config = CacheConfig::new(16 * 1024, 64, 4)?;
//! let circuit = CacheCircuit::new(config, &tech);
//! let metrics = circuit.analyze(&ComponentKnobs::uniform(KnobPoint::nominal()));
//!
//! assert!(metrics.access_time().picos() > 0.0);
//! assert!(metrics.leakage().total().0 > 0.0);
//! # Ok::<(), nm_geometry::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod assignment;
pub mod bus;
pub mod cache;
pub mod config;
pub mod decoder;
pub mod explore;
pub mod logic;
pub mod sram;

mod error;
#[cfg(test)]
mod oracle;

pub use assignment::{ComponentId, ComponentKnobs, COMPONENT_IDS};
pub use cache::{CacheCircuit, CacheMetrics, ComponentMetrics, ComponentSurface};
pub use config::{CacheConfig, Organization};
pub use error::GeometryError;
pub use sram::SramCell;
