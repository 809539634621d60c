//! Extension study: leakage optima under die-to-die process variation.
//!
//! The paper optimises at nominal corners. This study asks what its
//! Scheme II optimum looks like on real silicon: every component's knob
//! pair shifts by a common die corner, and because leakage is exponential
//! in `Vth`, the *mean* leakage across dies exceeds nominal and the tail
//! (p95/p99) exceeds it further. The study also evaluates a simple
//! guard-banding remedy — optimising against a `Vth` lowered by `k·σ`.

use crate::groups::Scheme;
use crate::report::{cell, Table};
use crate::single::SingleCacheStudy;
use crate::StudyError;
use nm_device::units::{Seconds, Volts, Watts};
use nm_device::variation::{MonteCarlo, VariationDistribution, VariationModel};
use nm_device::KnobPoint;
use nm_geometry::{ComponentKnobs, COMPONENT_IDS};
use nm_sweep::ParallelSweep;
use serde::{Deserialize, Serialize};

/// Distribution of whole-cache leakage for one deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationRow {
    /// Delay constraint the assignment was optimised for.
    pub deadline: Seconds,
    /// Nominal (variation-free) leakage of the optimum.
    pub nominal: Watts,
    /// Leakage distribution across sampled die corners.
    pub distribution: VariationDistribution,
    /// Fraction of dies that still meet the deadline.
    pub timing_yield: f64,
}

/// Variation study over a [`SingleCacheStudy`] subject.
#[derive(Debug, Clone)]
pub struct VariationStudy {
    study: SingleCacheStudy,
    model: VariationModel,
    samples: usize,
    seed: u64,
}

impl VariationStudy {
    /// Creates the study. `samples` die corners are drawn per deadline.
    pub fn new(study: SingleCacheStudy, model: VariationModel, samples: usize, seed: u64) -> Self {
        VariationStudy {
            study,
            model,
            samples,
            seed,
        }
    }

    /// The underlying single-cache study (for deadline sweeps).
    pub fn study(&self) -> &SingleCacheStudy {
        &self.study
    }

    /// Shifts every component of an assignment by one die corner (global
    /// variation: all components move together).
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: clamped to legal window
    fn shift(knobs: &ComponentKnobs, from: KnobPoint, to: KnobPoint) -> ComponentKnobs {
        let dv = to.vth().0 - from.vth().0;
        let dt = to.tox().0 - from.tox().0;
        let mut out = *knobs;
        for id in COMPONENT_IDS {
            let p = knobs.get(id);
            let vth = (p.vth().0 + dv)
                .clamp(nm_device::knobs::VTH_RANGE.0, nm_device::knobs::VTH_RANGE.1);
            let tox = (p.tox().0 + dt)
                .clamp(nm_device::knobs::TOX_RANGE.0, nm_device::knobs::TOX_RANGE.1);
            out[id] = KnobPoint::new(Volts(vth), nm_device::units::Angstroms(tox))
                .expect("clamped to legal window");
        }
        out
    }

    /// Evaluates the Scheme II optimum at each deadline across die
    /// corners; infeasible deadlines are skipped.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from [`SingleCacheStudy::optimize`].
    pub fn evaluate(&self, deadlines: &[Seconds]) -> Result<Vec<VariationRow>, StudyError> {
        let mut rows = Vec::new();
        for &deadline in deadlines {
            let Some(sol) = self.study.optimize(Scheme::Split, deadline)? else {
                continue;
            };
            let circuit = self.study.circuit();
            let mut mc = MonteCarlo::new(self.model, self.seed);
            let reference = KnobPoint::nominal();
            // Corners are drawn serially (one RNG stream, same sequence as
            // the old serial loop); only the expensive circuit analysis
            // fans out onto the bounded executor.
            let corners: Vec<KnobPoint> = (0..self.samples)
                .map(|_| mc.sample_corner(reference))
                .collect();
            let evals: Vec<(f64, bool)> =
                ParallelSweep::new()
                    .labeled("variation-corners")
                    .map(&corners, |&corner| {
                        let shifted = Self::shift(&sol.knobs, reference, corner);
                        let m = circuit.analyze(&shifted);
                        (m.leakage().total().0, m.access_time().0 <= deadline.0)
                    });
            let leaks: Vec<f64> = evals.iter().map(|&(leak, _)| leak).collect();
            let meets = evals.iter().filter(|&&(_, ok)| ok).count();
            rows.push(VariationRow {
                deadline,
                nominal: sol.leakage.total(),
                distribution: VariationDistribution::from_samples(leaks),
                timing_yield: meets as f64 / self.samples as f64,
            });
        }
        Ok(rows)
    }

    /// Renders the study as a table (powers in mW).
    ///
    /// # Errors
    ///
    /// Any evaluation failure from [`evaluate`](Self::evaluate).
    pub fn to_table(&self, deadlines: &[Seconds]) -> Result<Table, StudyError> {
        let rows = self.evaluate(deadlines)?;
        let mut t = Table::new(
            format!(
                "Leakage under die-to-die variation (σVth = {:.0} mV, σTox = {:.2} Å), {}",
                self.model.sigma_vth.0 * 1e3,
                self.model.sigma_tox.0,
                self.study.circuit().config()
            ),
            &[
                "deadline (ps)",
                "nominal (mW)",
                "mean (mW)",
                "p95 (mW)",
                "p99 (mW)",
                "timing yield",
            ],
        );
        for r in &rows {
            t.push_row(vec![
                cell(r.deadline.picos(), 0),
                cell(r.nominal.milli(), 3),
                cell(r.distribution.mean * 1e3, 3),
                cell(r.distribution.p95 * 1e3, 3),
                cell(r.distribution.p99 * 1e3, 3),
                cell(r.timing_yield, 3),
            ]);
        }
        Ok(t)
    }
}

/// Convenience: the default variation study on the paper's 16 KB cache.
///
/// # Errors
///
/// Propagates construction errors from [`SingleCacheStudy::paper_16kb`].
pub fn paper_16kb_variation(samples: usize, seed: u64) -> Result<VariationStudy, StudyError> {
    Ok(VariationStudy::new(
        SingleCacheStudy::paper_16kb()?,
        VariationModel::typical_65nm(),
        samples,
        seed,
    ))
}

impl Default for VariationStudy {
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: paper configuration is valid
    fn default() -> Self {
        paper_16kb_variation(200, 65).expect("paper configuration is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::{KnobGrid, TechnologyNode};
    use nm_geometry::CacheConfig;

    fn quick() -> VariationStudy {
        let tech = TechnologyNode::bptm65();
        let study = SingleCacheStudy::new(
            CacheConfig::new(16 * 1024, 64, 4).unwrap(),
            &tech,
            KnobGrid::coarse(),
        );
        VariationStudy::new(study, VariationModel::typical_65nm(), 64, 3)
    }

    #[test]
    fn variation_raises_mean_above_nominal() {
        let vs = quick();
        let deadlines = vs.study.delay_sweep(5);
        let rows = vs.evaluate(&deadlines[2..4]).expect("healthy build");
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.distribution.mean > r.nominal.0,
                "mean {:.3e} ≤ nominal {:.3e}",
                r.distribution.mean,
                r.nominal.0
            );
            assert!(r.distribution.p95 >= r.distribution.p50);
        }
    }

    #[test]
    fn timing_yield_is_a_probability_and_not_trivial() {
        let vs = quick();
        let deadlines = vs.study.delay_sweep(5);
        let rows = vs.evaluate(&deadlines[2..3]).expect("healthy build");
        let y = rows[0].timing_yield;
        assert!((0.0..=1.0).contains(&y));
        // With the optimum sitting on the constraint, roughly half the
        // dies violate timing — the motivation for guard-banding.
        assert!(y < 0.999, "yield suspiciously perfect: {y}");
    }

    #[test]
    fn table_renders_with_all_columns() {
        let vs = quick();
        let deadlines = vs.study.delay_sweep(4);
        let t = vs.to_table(&deadlines[2..3]).expect("healthy build");
        assert_eq!(t.headers().len(), 6);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shift_is_identity_for_same_corner() {
        let knobs = ComponentKnobs::default();
        let p = KnobPoint::nominal();
        assert_eq!(VariationStudy::shift(&knobs, p, p), knobs);
    }
}
