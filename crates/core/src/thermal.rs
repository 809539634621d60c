//! Extension study: temperature sensitivity of the leakage optimum.
//!
//! Subthreshold leakage grows steeply with temperature (the thermal
//! voltage widens the subthreshold swing), while gate tunnelling is
//! nearly temperature-independent. An assignment optimised at 80 °C is
//! therefore *mis-optimised* at other operating points: at low
//! temperature the gate floor dominates and `Tox` should carry more of
//! the burden; at high temperature `Vth` matters even more. This study
//! quantifies both the raw temperature scaling and the benefit of
//! re-optimising per temperature.

use crate::groups::Scheme;
use crate::report::{cell, Table};
use crate::single::SingleCacheStudy;
use crate::StudyError;
use nm_device::units::{Kelvin, Seconds};
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::CacheConfig;
use serde::{Deserialize, Serialize};

/// One temperature point of the study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalRow {
    /// Operating temperature.
    pub temperature: Kelvin,
    /// Leakage (W) of the 80 °C-optimised assignment evaluated at this
    /// temperature.
    pub fixed_assignment: f64,
    /// Leakage (W) when re-optimised at this temperature.
    pub reoptimized: f64,
    /// Gate-tunnelling fraction of the re-optimised leakage.
    pub gate_fraction: f64,
}

/// Temperature study over one cache configuration.
#[derive(Debug, Clone)]
pub struct ThermalStudy {
    config: CacheConfig,
    grid: KnobGrid,
    /// Temperatures to evaluate.
    pub temperatures: Vec<Kelvin>,
}

impl ThermalStudy {
    /// Creates a study over the default 25/80/110 °C points.
    pub fn new(config: CacheConfig, grid: KnobGrid) -> Self {
        ThermalStudy {
            config,
            grid,
            temperatures: vec![
                Kelvin::from_celsius(25.0),
                Kelvin::from_celsius(80.0),
                Kelvin::from_celsius(110.0),
            ],
        }
    }

    /// The paper's 16 KB subject on the fine grid.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn paper_16kb() -> Result<Self, StudyError> {
        Ok(Self::new(
            CacheConfig::new(16 * 1024, 64, 4)?,
            KnobGrid::paper(),
        ))
    }

    /// Runs the study at one delay-slack factor (relative to the fastest
    /// corner at each temperature). Returns no rows when the 80 °C
    /// reference deadline is infeasible.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from [`SingleCacheStudy::optimize`].
    pub fn evaluate(&self, slack: f64) -> Result<Vec<ThermalRow>, StudyError> {
        let reference_tech = TechnologyNode::bptm65(); // 80 °C
        let ref_study = SingleCacheStudy::new(self.config, &reference_tech, self.grid.clone());
        let ref_deadline = Seconds(ref_study.circuit().fastest_access_time().0 * (1.0 + slack));
        let Some(ref_sol) = ref_study.optimize(Scheme::Split, ref_deadline)? else {
            return Ok(Vec::new());
        };

        self.temperatures
            .iter()
            .map(|&temperature| {
                let tech = reference_tech.at_temperature(temperature);
                let study = SingleCacheStudy::new(self.config, &tech, self.grid.clone());
                let deadline = Seconds(study.circuit().fastest_access_time().0 * (1.0 + slack));
                let fixed = study.circuit().analyze(&ref_sol.knobs).leakage();
                let reopt = study.optimize(Scheme::Split, deadline)?;
                let (reoptimized, gate_fraction) = match &reopt {
                    Some(sol) => (sol.leakage.total().0, sol.leakage.gate_fraction()),
                    None => (f64::NAN, f64::NAN),
                };
                Ok(ThermalRow {
                    temperature,
                    fixed_assignment: fixed.total().0,
                    reoptimized,
                    gate_fraction,
                })
            })
            .collect()
    }

    /// Renders the study as a table (powers in mW).
    ///
    /// # Errors
    ///
    /// Any evaluation failure from [`evaluate`](Self::evaluate).
    pub fn to_table(&self, slack: f64) -> Result<Table, StudyError> {
        let rows = self.evaluate(slack)?;
        let mut t = Table::new(
            format!(
                "Temperature sensitivity, {} at {:.0}% delay slack",
                self.config,
                slack * 100.0
            ),
            &[
                "T (°C)",
                "80°C-optimum leak (mW)",
                "re-optimised leak (mW)",
                "gate fraction",
            ],
        );
        for r in &rows {
            t.push_row(vec![
                cell(r.temperature.0 - 273.15, 0),
                cell(r.fixed_assignment * 1e3, 3),
                cell(r.reoptimized * 1e3, 3),
                cell(r.gate_fraction, 3),
            ]);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ThermalStudy {
        ThermalStudy::new(
            CacheConfig::new(16 * 1024, 64, 4).unwrap(),
            KnobGrid::coarse(),
        )
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let rows = quick().evaluate(0.25).expect("healthy build");
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].fixed_assignment > rows[0].fixed_assignment,
            "110 °C {:.3e} ≤ 25 °C {:.3e}",
            rows[2].fixed_assignment,
            rows[0].fixed_assignment
        );
    }

    #[test]
    fn reoptimization_never_hurts() {
        for r in quick().evaluate(0.25).expect("healthy build") {
            if r.reoptimized.is_finite() {
                assert!(
                    r.reoptimized <= r.fixed_assignment * 1.001,
                    "re-opt {:.3e} worse than fixed {:.3e} at {:.0} K",
                    r.reoptimized,
                    r.fixed_assignment,
                    r.temperature.0
                );
            }
        }
    }

    #[test]
    fn gate_fraction_rises_as_it_cools() {
        // Cold silicon: subthreshold collapses, the gate floor remains.
        let rows = quick().evaluate(0.25).expect("healthy build");
        assert!(
            rows[0].gate_fraction > rows[2].gate_fraction,
            "25 °C gate fraction {:.3} ≤ 110 °C {:.3}",
            rows[0].gate_fraction,
            rows[2].gate_fraction
        );
    }

    #[test]
    fn table_has_three_temperature_rows() {
        let t = quick().to_table(0.25).expect("healthy build");
        assert_eq!(t.len(), 3);
    }
}
