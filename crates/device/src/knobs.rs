//! The process design knobs of the paper: threshold voltage and gate-oxide
//! thickness, and the discrete grids the optimisers enumerate.
//!
//! The paper lets `Vth` vary from 0.2 V to 0.5 V and `Tox` from 10 Å to
//! 14 Å ("chosen to reflect typical values of high-performance logic for
//! the studied technology node") and performs its constrained minimisation
//! over *discrete values with small step size*. [`KnobGrid`] reproduces
//! exactly that discretisation.

use crate::error::DeviceError;
use crate::units::{Angstroms, Volts};
use std::fmt;

/// Legal `Vth` range at the studied node (paper Section 2), volts.
pub const VTH_RANGE: (f64, f64) = (0.2, 0.5);

/// Legal `Tox` range at the studied node (paper Section 2), ångströms.
pub const TOX_RANGE: (f64, f64) = (10.0, 14.0);

/// One (`Vth`, `Tox`) assignment for a circuit component.
///
/// Construction validates both knobs against the paper's ranges, so a
/// `KnobPoint` is always legal (C-VALIDATE / static enforcement).
///
/// ```
/// use nm_device::KnobPoint;
/// use nm_device::units::{Volts, Angstroms};
///
/// let p = KnobPoint::new(Volts(0.35), Angstroms(11.0))?;
/// assert_eq!(p.vth(), Volts(0.35));
/// assert!(KnobPoint::new(Volts(0.55), Angstroms(11.0)).is_err());
/// # Ok::<(), nm_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct KnobPoint {
    vth: Volts,
    tox: Angstroms,
}

impl KnobPoint {
    /// Creates a knob point after range-checking both values.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::VthOutOfRange`] or
    /// [`DeviceError::ToxOutOfRange`] when a knob falls outside the legal
    /// window of the studied technology node (a small tolerance absorbs
    /// floating-point grid endpoints).
    pub fn new(vth: Volts, tox: Angstroms) -> Result<Self, DeviceError> {
        const EPS: f64 = 1e-9;
        if !vth.0.is_finite() || vth.0 < VTH_RANGE.0 - EPS || vth.0 > VTH_RANGE.1 + EPS {
            return Err(DeviceError::VthOutOfRange {
                value: vth.0,
                min: VTH_RANGE.0,
                max: VTH_RANGE.1,
            });
        }
        if !tox.0.is_finite() || tox.0 < TOX_RANGE.0 - EPS || tox.0 > TOX_RANGE.1 + EPS {
            return Err(DeviceError::ToxOutOfRange {
                value: tox.0,
                min: TOX_RANGE.0,
                max: TOX_RANGE.1,
            });
        }
        Ok(KnobPoint { vth, tox })
    }

    /// The most aggressive legal corner: minimum `Vth`, minimum `Tox`
    /// (fastest, leakiest).
    pub fn fastest() -> Self {
        KnobPoint {
            vth: Volts(VTH_RANGE.0),
            tox: Angstroms(TOX_RANGE.0),
        }
    }

    /// The most conservative legal corner: maximum `Vth`, maximum `Tox`
    /// (slowest, least leaky).
    pub fn lowest_leakage() -> Self {
        KnobPoint {
            vth: Volts(VTH_RANGE.1),
            tox: Angstroms(TOX_RANGE.1),
        }
    }

    /// The nominal process corner used for un-optimised components
    /// (mid-range `Vth`, nominal 12 Å oxide).
    pub fn nominal() -> Self {
        KnobPoint {
            vth: Volts(0.3),
            tox: Angstroms(12.0),
        }
    }

    /// Threshold voltage.
    pub fn vth(self) -> Volts {
        self.vth
    }

    /// Gate-oxide thickness.
    pub fn tox(self) -> Angstroms {
        self.tox
    }
}

impl fmt::Display for KnobPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(Vth={:.3} V, Tox={:.1} Å)", self.vth.0, self.tox.0)
    }
}

impl Default for KnobPoint {
    fn default() -> Self {
        Self::nominal()
    }
}

/// A discrete grid of legal knob values, the search space of every
/// optimiser in the workspace.
///
/// The paper chooses "discrete values with small step size"; the
/// [`KnobGrid::paper`] constructor uses 10 mV `Vth` steps and 0.5 Å `Tox`
/// steps (31 × 9 = 279 points). Coarser grids are available for the
/// combinatorially expensive tuple experiments.
///
/// ```
/// use nm_device::KnobGrid;
///
/// let g = KnobGrid::paper();
/// assert_eq!(g.vth_values().len(), 31);
/// assert_eq!(g.tox_values().len(), 9);
/// assert_eq!(g.points().count(), 279);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnobGrid {
    vth_values: Vec<Volts>,
    tox_values: Vec<Angstroms>,
}

impl KnobGrid {
    /// Builds a grid with `n_vth` evenly spaced `Vth` points and `n_tox`
    /// evenly spaced `Tox` points spanning the full legal ranges.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DegenerateGrid`] when either count is < 2.
    pub fn uniform(n_vth: usize, n_tox: usize) -> Result<Self, DeviceError> {
        if n_vth < 2 {
            return Err(DeviceError::DegenerateGrid { axis: "Vth" });
        }
        if n_tox < 2 {
            return Err(DeviceError::DegenerateGrid { axis: "Tox" });
        }
        let vth_values = (0..n_vth)
            .map(|i| {
                let t = i as f64 / (n_vth - 1) as f64;
                Volts(VTH_RANGE.0 + t * (VTH_RANGE.1 - VTH_RANGE.0))
            })
            .collect();
        let tox_values = (0..n_tox)
            .map(|i| {
                let t = i as f64 / (n_tox - 1) as f64;
                Angstroms(TOX_RANGE.0 + t * (TOX_RANGE.1 - TOX_RANGE.0))
            })
            .collect();
        Ok(KnobGrid {
            vth_values,
            tox_values,
        })
    }

    /// The paper's fine grid: 10 mV `Vth` steps, 0.5 Å `Tox` steps.
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: static grid sizes
    pub fn paper() -> Self {
        Self::uniform(31, 9).expect("static grid sizes are non-degenerate")
    }

    /// A coarse grid (7 × 5) for combinatorial experiments such as the
    /// (`nTox`, `nVth`) tuple-selection problem of Figure 2.
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: static grid sizes
    pub fn coarse() -> Self {
        Self::uniform(7, 5).expect("static grid sizes are non-degenerate")
    }

    /// The discrete `Vth` axis, ascending.
    pub fn vth_values(&self) -> &[Volts] {
        &self.vth_values
    }

    /// The discrete `Tox` axis, ascending.
    pub fn tox_values(&self) -> &[Angstroms] {
        &self.tox_values
    }

    /// Iterates over every (`Vth`, `Tox`) point of the grid, `Tox`-major.
    pub fn points(&self) -> impl Iterator<Item = KnobPoint> + '_ {
        self.tox_values.iter().flat_map(move |&tox| {
            self.vth_values
                .iter()
                .map(move |&vth| KnobPoint { vth, tox })
        })
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.vth_values.len() * self.tox_values.len()
    }

    /// `true` when the grid is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the grid point nearest to an arbitrary legal knob point.
    /// Snapping to an empty axis (impossible via the constructors)
    /// leaves that coordinate where it is.
    pub fn snap(&self, p: KnobPoint) -> KnobPoint {
        let vth = self
            .vth_values
            .iter()
            .min_by(|a, b| (a.0 - p.vth.0).abs().total_cmp(&(b.0 - p.vth.0).abs()))
            .copied()
            .unwrap_or(p.vth);
        let tox = self
            .tox_values
            .iter()
            .min_by(|a, b| (a.0 - p.tox.0).abs().total_cmp(&(b.0 - p.tox.0).abs()))
            .copied()
            .unwrap_or(p.tox);
        KnobPoint { vth, tox }
    }
}

impl Default for KnobGrid {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_point_validates_ranges() {
        assert!(KnobPoint::new(Volts(0.2), Angstroms(10.0)).is_ok());
        assert!(KnobPoint::new(Volts(0.5), Angstroms(14.0)).is_ok());
        assert!(matches!(
            KnobPoint::new(Volts(0.19), Angstroms(12.0)),
            Err(DeviceError::VthOutOfRange { .. })
        ));
        assert!(matches!(
            KnobPoint::new(Volts(0.3), Angstroms(14.5)),
            Err(DeviceError::ToxOutOfRange { .. })
        ));
        assert!(KnobPoint::new(Volts(f64::NAN), Angstroms(12.0)).is_err());
    }

    #[test]
    fn named_corners_are_legal() {
        for p in [
            KnobPoint::fastest(),
            KnobPoint::lowest_leakage(),
            KnobPoint::nominal(),
            KnobPoint::default(),
        ] {
            assert!(KnobPoint::new(p.vth(), p.tox()).is_ok(), "{p}");
        }
    }

    #[test]
    fn paper_grid_shape() {
        let g = KnobGrid::paper();
        assert_eq!(g.len(), 279);
        assert!(!g.is_empty());
        // 10 mV steps.
        let step = g.vth_values()[1].0 - g.vth_values()[0].0;
        assert!((step - 0.01).abs() < 1e-12);
        // 0.5 Å steps.
        let tstep = g.tox_values()[1].0 - g.tox_values()[0].0;
        assert!((tstep - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grid_endpoints_span_full_range() {
        let g = KnobGrid::uniform(5, 3).unwrap();
        assert!((g.vth_values()[0].0 - VTH_RANGE.0).abs() < 1e-12);
        assert!((g.vth_values()[4].0 - VTH_RANGE.1).abs() < 1e-12);
        assert!((g.tox_values()[0].0 - TOX_RANGE.0).abs() < 1e-12);
        assert!((g.tox_values()[2].0 - TOX_RANGE.1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_grid_rejected() {
        assert!(matches!(
            KnobGrid::uniform(1, 5),
            Err(DeviceError::DegenerateGrid { axis: "Vth" })
        ));
        assert!(matches!(
            KnobGrid::uniform(5, 1),
            Err(DeviceError::DegenerateGrid { axis: "Tox" })
        ));
    }

    #[test]
    fn every_grid_point_is_constructible() {
        for p in KnobGrid::paper().points() {
            assert!(KnobPoint::new(p.vth(), p.tox()).is_ok(), "{p}");
        }
    }

    #[test]
    fn snap_finds_nearest() {
        let g = KnobGrid::uniform(4, 3).unwrap(); // Vth: .2 .3 .4 .5 ; Tox: 10 12 14
        let p = KnobPoint::new(Volts(0.33), Angstroms(11.2)).unwrap();
        let s = g.snap(p);
        assert!((s.vth().0 - 0.3).abs() < 1e-12);
        assert!((s.tox().0 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let p = KnobPoint::nominal();
        assert_eq!(format!("{p}"), "(Vth=0.300 V, Tox=12.0 Å)");
    }
}
