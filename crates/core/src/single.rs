//! Section 4: single-cache leakage optimisation.
//!
//! Three experiments live here:
//!
//! * **E1 / Figure 1** — [`SingleCacheStudy::fixed_knob_curves`]: hold one
//!   knob fixed, sweep the other, and plot leakage against access time for
//!   a 16 KB cache.
//! * **E2** — [`SingleCacheStudy::scheme_comparison`]: minimum leakage of
//!   assignment schemes I/II/III across a sweep of delay constraints.
//! * **E7** — [`SingleCacheStudy::knob_ablation`]: optimise with only one
//!   knob free, quantifying the paper's "Vth is the better design knob"
//!   conclusion.

use crate::error::rendered;
use crate::eval::{Evaluator, HierarchySpec};
use crate::groups::{CostKind, Scheme};
use crate::report::{cell, Series, Table};
use crate::StudyError;
use nm_device::leakage::LeakageBreakdown;
use nm_device::units::{Angstroms, Seconds, Volts};
use nm_device::{KnobGrid, KnobPoint, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_opt::objective::Deadline;

/// A constrained-optimisation result for one cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSolution {
    /// The scheme optimised under.
    pub scheme: Scheme,
    /// The winning knob assignment.
    pub knobs: ComponentKnobs,
    /// Achieved access time (meets the deadline).
    pub access_time: Seconds,
    /// Achieved leakage breakdown.
    pub leakage: LeakageBreakdown,
}

/// The Section 4 study: one cache, one technology node, one knob grid.
#[derive(Debug, Clone)]
pub struct SingleCacheStudy {
    circuit: CacheCircuit,
    eval: Evaluator,
}

impl SingleCacheStudy {
    /// Creates a study for an arbitrary configuration.
    pub fn new(config: CacheConfig, tech: &TechnologyNode, grid: KnobGrid) -> Self {
        Self::with_circuit(CacheCircuit::new(config, tech), grid)
    }

    /// Creates a study over a pre-built circuit (e.g. one with a custom
    /// subarray folding from [`nm_geometry::explore`]).
    pub fn with_circuit(circuit: CacheCircuit, grid: KnobGrid) -> Self {
        SingleCacheStudy {
            circuit,
            eval: Evaluator::new(grid),
        }
    }

    /// The paper's Figure 1 subject: a 16 KB, 4-way, 64 B-line cache on
    /// the BPTM-65 node with the paper's fine knob grid.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in configuration; the `Result` mirrors
    /// [`CacheConfig::new`] for API consistency.
    pub fn paper_16kb() -> Result<Self, StudyError> {
        let tech = TechnologyNode::bptm65();
        let config = CacheConfig::new(16 * 1024, 64, 4)?;
        Ok(Self::new(config, &tech, KnobGrid::paper()))
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &CacheCircuit {
        &self.circuit
    }

    /// The knob grid in use.
    pub fn grid(&self) -> &KnobGrid {
        self.eval.grid()
    }

    /// The study's one-cache evaluation problem under a scheme.
    fn spec(&self, scheme: Scheme) -> HierarchySpec {
        HierarchySpec::single(self.circuit.clone(), scheme, 1.0, CostKind::LeakagePower)
    }

    /// Evenly spaced feasible delay constraints spanning the cache's
    /// achievable access-time range (endpoints included).
    pub fn delay_sweep(&self, steps: usize) -> Vec<Seconds> {
        let lo = self.circuit.fastest_access_time();
        let hi = self.circuit.slowest_access_time();
        if steps <= 1 {
            return vec![hi];
        }
        (0..steps)
            .map(|i| lo + (hi - lo) * (i as f64 / (steps - 1) as f64))
            .collect()
    }

    /// Minimises total leakage under a delay constraint for one scheme
    /// (the paper's Section 4 optimisation). Returns `Ok(None)` when the
    /// deadline is infeasible.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from
    /// [`Evaluator::try_solve`](crate::eval::Evaluator::try_solve), e.g.
    /// [`StudyError::InvalidSurface`].
    pub fn optimize(
        &self,
        scheme: Scheme,
        deadline: Seconds,
    ) -> Result<Option<SchemeSolution>, StudyError> {
        let Some(sol) = self
            .eval
            .try_solve(&self.spec(scheme), &Deadline(deadline.0))?
        else {
            return Ok(None);
        };
        let knobs = sol.knobs[0];
        let metrics = self.circuit.analyze(&knobs);
        Ok(Some(SchemeSolution {
            scheme,
            knobs,
            access_time: metrics.access_time(),
            leakage: metrics.leakage(),
        }))
    }

    /// **E2** — compares the minimum leakage of schemes I/II/III across a
    /// delay-constraint sweep.
    ///
    /// # Panics
    ///
    /// Panics when evaluation fails (see [`optimize`](Self::optimize)).
    pub fn scheme_comparison(&self, deadlines: &[Seconds]) -> Table {
        let mut table = Table::new(
            format!("Scheme comparison, {} (Section 4)", self.circuit.config()),
            &[
                "deadline (ps)",
                "I: leak (mW)",
                "II: leak (mW)",
                "III: leak (mW)",
                "II vs I (%)",
                "III vs I (%)",
            ],
        );
        for &deadline in deadlines {
            let sols: Vec<Option<SchemeSolution>> = rendered(
                Scheme::ALL
                    .iter()
                    .map(|&s| self.optimize(s, deadline))
                    .collect(),
            );
            let (Some(s1), Some(s2), Some(s3)) = (&sols[0], &sols[1], &sols[2]) else {
                continue;
            };
            let l1 = s1.leakage.total().milli();
            let l2 = s2.leakage.total().milli();
            let l3 = s3.leakage.total().milli();
            table.push_row(vec![
                cell(deadline.picos(), 0),
                cell(l1, 3),
                cell(l2, 3),
                cell(l3, 3),
                cell(100.0 * (l2 - l1) / l1, 1),
                cell(100.0 * (l3 - l1) / l1, 1),
            ]);
        }
        table
    }

    /// **E1 / Figure 1** — the four fixed-knob curves: leakage (mW) versus
    /// access time (ps) under a uniform assignment, holding one knob fixed
    /// and sweeping the other over its grid axis.
    ///
    /// # Errors
    ///
    /// Propagates [`StudyError::Device`] when a fixed knob value falls
    /// outside the technology's legal range (a misconfigured grid).
    pub fn fixed_knob_curves(&self) -> Result<Vec<Series>, StudyError> {
        let mut series = Vec::new();
        for &tox in &[10.0, 14.0] {
            let mut s = Series::new(format!("Tox={tox:.0}A"));
            for &vth in self.grid().vth_values() {
                let p = KnobPoint::new(vth, Angstroms(tox))?;
                s.points.push(self.uniform_point(p));
            }
            s.points.sort_by(|a, b| a.0.total_cmp(&b.0));
            series.push(s);
        }
        for &vth in &[0.2, 0.4] {
            let mut s = Series::new(format!("Vth={:.0}mV", vth * 1e3));
            for &tox in self.grid().tox_values() {
                let p = KnobPoint::new(Volts(vth), tox)?;
                s.points.push(self.uniform_point(p));
            }
            s.points.sort_by(|a, b| a.0.total_cmp(&b.0));
            series.push(s);
        }
        Ok(series)
    }

    fn uniform_point(&self, p: KnobPoint) -> (f64, f64) {
        let m = self.circuit.analyze(&ComponentKnobs::uniform(p));
        (m.access_time().picos(), m.leakage().total().milli())
    }

    /// **E7** — single-knob ablation: minimum leakage at each deadline
    /// when only `Vth` may vary (at a fixed `Tox`) versus when only `Tox`
    /// may vary (at a fixed `Vth`), under Scheme II grouping.
    ///
    /// The paper's conclusion: "it is best to set Tox conservatively at a
    /// high value and let Vth be the knob designers can vary".
    ///
    /// # Panics
    ///
    /// Panics when evaluation fails (see
    /// [`Evaluator::try_solve_restricted`](crate::eval::Evaluator::try_solve_restricted)).
    pub fn knob_ablation(&self, deadlines: &[Seconds]) -> Table {
        let vth_axis: Vec<f64> = self.grid().vth_values().iter().map(|v| v.0).collect();
        let tox_axis: Vec<f64> = self.grid().tox_values().iter().map(|t| t.0).collect();

        let spec = self.spec(Scheme::Split);
        let restricted_optimum = |vths: &[f64], toxes: &[f64], deadline: Seconds| -> Option<f64> {
            rendered(
                self.eval
                    .try_solve_restricted(&spec, &[(vths, toxes)], &Deadline(deadline.0)),
            )
            .map(|sol| sol.cost * 1e3)
        };

        let mut table = Table::new(
            format!(
                "Single-knob ablation, {} (Section 4)",
                self.circuit.config()
            ),
            &[
                "deadline (ps)",
                "Tox knob only, Vth=0.3V (mW)",
                "Vth knob only, Tox=12A (mW)",
                "Vth knob only, Tox=14A (mW)",
                "both knobs (mW)",
            ],
        );
        for &deadline in deadlines {
            let tox_only = restricted_optimum(&[0.3], &tox_axis, deadline);
            let vth_mid = restricted_optimum(&vth_axis, &[12.0], deadline);
            let vth_hi = restricted_optimum(&vth_axis, &[14.0], deadline);
            let both = restricted_optimum(&vth_axis, &tox_axis, deadline);
            let fmt = |v: Option<f64>| v.map_or_else(|| "infeasible".to_owned(), |x| cell(x, 3));
            table.push_row(vec![
                cell(deadline.picos(), 0),
                fmt(tox_only),
                fmt(vth_mid),
                fmt(vth_hi),
                fmt(both),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> SingleCacheStudy {
        // A coarse grid keeps debug-mode tests quick; behaviour is
        // identical in shape to the paper grid.
        let tech = TechnologyNode::bptm65();
        SingleCacheStudy::new(
            CacheConfig::new(16 * 1024, 64, 4).unwrap(),
            &tech,
            KnobGrid::coarse(),
        )
    }

    #[test]
    fn scheme_ordering_holds() {
        // Scheme I ≤ Scheme II ≤ Scheme III in leakage at iso-delay, and
        // II lands close to I (the paper's core Section 4 finding).
        let s = study();
        for deadline in s.delay_sweep(5).into_iter().skip(1) {
            let l1 = s
                .optimize(Scheme::PerComponent, deadline)
                .expect("healthy build")
                .unwrap()
                .leakage
                .total()
                .0;
            let l2 = s
                .optimize(Scheme::Split, deadline)
                .expect("healthy build")
                .unwrap()
                .leakage
                .total()
                .0;
            let l3 = s
                .optimize(Scheme::Uniform, deadline)
                .expect("healthy build")
                .unwrap()
                .leakage
                .total()
                .0;
            assert!(l1 <= l2 + 1e-15, "I > II at {deadline}");
            assert!(l2 <= l3 + 1e-15, "II > III at {deadline}");
        }
    }

    #[test]
    fn scheme_two_is_near_optimal_mid_range() {
        let s = study();
        let deadline = s.delay_sweep(5)[2];
        let l1 = s
            .optimize(Scheme::PerComponent, deadline)
            .expect("healthy build")
            .unwrap()
            .leakage
            .total()
            .0;
        let l2 = s
            .optimize(Scheme::Split, deadline)
            .expect("healthy build")
            .unwrap()
            .leakage
            .total()
            .0;
        assert!(
            l2 <= l1 * 1.25,
            "Scheme II {l2:.3e} not close to Scheme I {l1:.3e}"
        );
    }

    #[test]
    fn optimum_meets_deadline() {
        let s = study();
        for deadline in s.delay_sweep(4) {
            let sol = s
                .optimize(Scheme::Split, deadline)
                .expect("healthy build")
                .unwrap();
            assert!(
                sol.access_time.0 <= deadline.0 + 1e-15,
                "violated: {} > {}",
                sol.access_time.picos(),
                deadline.picos()
            );
        }
    }

    #[test]
    fn infeasible_deadline_returns_none() {
        let s = study();
        let too_fast = Seconds(s.circuit().fastest_access_time().0 * 0.5);
        assert!(s
            .optimize(Scheme::Uniform, too_fast)
            .expect("healthy build")
            .is_none());
    }

    #[test]
    fn optimum_assigns_conservative_cells_fast_periphery() {
        // Paper: "high values of Vth and thick Tox's are always assigned
        // to the memory cell arrays, and Vth/Tox in the peripheral
        // components have been set sufficiently low".
        let s = study();
        let deadline = s.delay_sweep(6)[2]; // a binding mid-range constraint
        let sol = s
            .optimize(Scheme::Split, deadline)
            .expect("healthy build")
            .unwrap();
        let cells = sol.knobs[nm_geometry::ComponentId::MemoryArray];
        let periph = sol.knobs[nm_geometry::ComponentId::Decoder];
        assert!(
            cells.vth().0 >= periph.vth().0,
            "cells {cells} vs periphery {periph}"
        );
        assert!(
            cells.tox().0 >= periph.tox().0,
            "cells {cells} vs periphery {periph}"
        );
    }

    #[test]
    fn fig1_curves_have_expected_shape() {
        let s = study();
        let curves = s.fixed_knob_curves().expect("legal fixed knobs");
        assert_eq!(curves.len(), 4);
        // Every curve: leakage decreases as access time increases.
        for c in &curves {
            let first = c.points.first().unwrap();
            let last = c.points.last().unwrap();
            assert!(last.0 > first.0, "{}: not time-sorted", c.label);
            assert!(last.1 < first.1, "{}: leakage not decreasing", c.label);
        }
        // The Tox=10 curve floors far above the Tox=14 curve (gate floor).
        let floor = |label: &str| {
            curves
                .iter()
                .find(|c| c.label == label)
                .unwrap()
                .points
                .iter()
                .map(|p| p.1)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(floor("Tox=10A") > 5.0 * floor("Tox=14A"));
    }

    #[test]
    fn delay_sweep_endpoints() {
        let s = study();
        let sweep = s.delay_sweep(3);
        assert_eq!(sweep.len(), 3);
        assert!((sweep[0].0 - s.circuit().fastest_access_time().0).abs() < 1e-18);
        assert!((sweep[2].0 - s.circuit().slowest_access_time().0).abs() < 1e-18);
        assert_eq!(s.delay_sweep(1).len(), 1);
    }

    #[test]
    fn ablation_vth_beats_tox() {
        // At mid-range deadlines the Vth-only optimiser (with conservative
        // Tox) must beat the Tox-only optimiser — the paper's knob
        // asymmetry.
        let s = study();
        let deadlines = s.delay_sweep(6);
        let t = s.knob_ablation(&deadlines[2..5]);
        assert!(!t.is_empty());
        for row in t.rows() {
            let tox_only: f64 = row[1].parse().unwrap_or(f64::INFINITY);
            let vth_hi: f64 = row[3].parse().unwrap_or(f64::INFINITY);
            assert!(vth_hi <= tox_only * 1.05, "Vth knob not better: {row:?}");
        }
    }

    #[test]
    fn scheme_comparison_table_well_formed() {
        let s = study();
        let t = s.scheme_comparison(&s.delay_sweep(4)[1..]);
        assert!(!t.is_empty());
        assert_eq!(t.headers().len(), 6);
    }

    #[test]
    fn paper_16kb_constructs() {
        let s = SingleCacheStudy::paper_16kb().unwrap();
        assert_eq!(s.circuit().config().size_bytes(), 16 * 1024);
        assert_eq!(s.grid().len(), 279);
    }
}
