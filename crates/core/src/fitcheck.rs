//! E0 — validating the paper's Eq. 1/Eq. 2 closed forms against the
//! circuit model.
//!
//! Section 3 asserts that each cache component's total leakage is
//! `A0 + A1·e^(a1·Vth) + A2·e^(a2·Tox)` and its delay is
//! `k0 + k1·e^(k3·Vth) + k2·Tox`. This module samples every component of
//! a cache over the knob grid, fits both forms, and reports the fit
//! quality — the methodological check that our analytic substrate really
//! has the paper's structure.

use crate::report::{cell, Table};
use crate::StudyError;
use nm_device::fit::{DelayFit, LeakageFit, Sample};
use nm_device::KnobGrid;
use nm_geometry::{CacheCircuit, ComponentId, COMPONENT_IDS};

/// Fitted surfaces for one cache component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentFit {
    /// Which component.
    pub component: ComponentId,
    /// Eq. 1 leakage fit.
    pub leakage: LeakageFit,
    /// Eq. 2 delay fit.
    pub delay: DelayFit,
}

/// Fits Eq. 1 and Eq. 2 to every component of a cache over a grid.
///
/// # Errors
///
/// Propagates [`nm_device::DeviceError`] when a fit fails (degenerate
/// grid).
pub fn component_fits(
    circuit: &CacheCircuit,
    grid: &KnobGrid,
) -> Result<Vec<ComponentFit>, StudyError> {
    COMPONENT_IDS
        .iter()
        .map(|&component| {
            let mut leak_samples = Vec::with_capacity(grid.len());
            let mut delay_samples = Vec::with_capacity(grid.len());
            for p in grid.points() {
                let m = circuit.analyze_component(component, p);
                leak_samples.push(Sample {
                    knobs: p,
                    value: m.leakage.total().0,
                });
                delay_samples.push(Sample {
                    knobs: p,
                    value: m.delay.0,
                });
            }
            let leakage = LeakageFit::fit(&leak_samples)?;
            let delay = DelayFit::fit(&delay_samples)?;
            // Range guard: a fitted surface that is non-finite anywhere
            // on its own training grid is garbage — reject it as a typed
            // error instead of letting NaN reach the report.
            for p in grid.points() {
                leakage.try_evaluate(p)?;
                delay.try_evaluate(p)?;
            }
            Ok(ComponentFit {
                component,
                leakage,
                delay,
            })
        })
        .collect()
}

/// **E0** — renders the per-component fit quality as a table.
///
/// # Errors
///
/// Propagates fit failures from [`component_fits`].
pub fn fit_report(circuit: &CacheCircuit, grid: &KnobGrid) -> Result<Table, StudyError> {
    let fits = component_fits(circuit, grid)?;
    let mut table = Table::new(
        format!(
            "Eq.1/Eq.2 surface-fit quality, {} (Section 3)",
            circuit.config()
        ),
        &[
            "component",
            "leak R²",
            "leak a1 (1/V)",
            "leak a2 (1/A)",
            "delay R²",
            "delay k3 (1/V)",
            "delay k2 (ps/A)",
        ],
    );
    for f in &fits {
        table.push_row(vec![
            f.component.to_string(),
            cell(f.leakage.r_squared, 4),
            cell(f.leakage.exp_vth, 1),
            cell(f.leakage.exp_tox, 2),
            cell(f.delay.r_squared, 4),
            cell(f.delay.exp_vth, 2),
            cell(f.delay.k2 * 1e12, 2),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::TechnologyNode;
    use nm_geometry::CacheConfig;

    fn circuit() -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).unwrap(), &tech)
    }

    #[test]
    fn all_components_fit_well() {
        // The paper's Eq. 1/Eq. 2 forms must capture the analytic model:
        // this is the reproduction's methodological anchor.
        let fits = component_fits(&circuit(), &KnobGrid::paper()).unwrap();
        assert_eq!(fits.len(), 4);
        for f in &fits {
            assert!(
                f.leakage.r_squared > 0.95,
                "{}: leakage R² = {}",
                f.component,
                f.leakage.r_squared
            );
            assert!(
                f.delay.r_squared > 0.95,
                "{}: delay R² = {}",
                f.component,
                f.delay.r_squared
            );
        }
    }

    #[test]
    fn fitted_signs_match_physics() {
        let fits = component_fits(&circuit(), &KnobGrid::paper()).unwrap();
        for f in &fits {
            // Leakage falls with both knobs; delay rises with both.
            assert!(f.leakage.exp_vth < 0.0, "{}", f.component);
            assert!(f.leakage.exp_tox < 0.0, "{}", f.component);
            assert!(f.delay.exp_vth > 0.0, "{}", f.component);
            assert!(f.delay.k2 > 0.0, "{}", f.component);
            assert!(f.delay.k1 > 0.0, "{}", f.component);
        }
    }

    #[test]
    fn report_has_one_row_per_component() {
        let t = fit_report(&circuit(), &KnobGrid::coarse()).unwrap();
        assert_eq!(t.len(), 4);
    }
}
