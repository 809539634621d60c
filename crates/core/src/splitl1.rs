//! Extension study: split instruction/data L1s versus a unified L1.
//!
//! The paper treats "the L1 cache" as one array; real paper-era parts
//! split it. Splitting doubles the number of knob-assignable cell arrays
//! (I$ cells, D$ cells) and lets the optimiser exploit the streams'
//! different behaviour — instruction fetches are read-only with very low
//! miss rates, data references carry writes and more misses. This study
//! optimises both organisations at iso average access time and compares
//! their total leakage.

use crate::amat::MainMemory;
use crate::error::rendered;
use crate::eval::{Evaluator, HierarchySpec};
use crate::groups::{CostKind, Scheme};
use crate::report::{cell, Table};
use crate::StudyError;
use nm_archsim::cache::CacheParams;
use nm_archsim::splitl1::{simulate_split, simulate_unified, SplitStats};
use nm_archsim::workload::SuiteKind;
use nm_device::units::{Seconds, Watts};
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_opt::objective::Deadline;

/// Data references per instruction fetch (paper-era scalar core).
pub const DATA_PER_INST: f64 = 0.35;

/// One organisation's optimised outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct OrganisationRow {
    /// Organisation label.
    pub name: String,
    /// Achieved mean access time over the reference mix.
    pub mean_access: Seconds,
    /// Total optimised leakage (all caches).
    pub leakage: Watts,
    /// Knob assignment of the (first) L1 cache, for inspection.
    pub l1_knobs: ComponentKnobs,
}

/// The split-vs-unified study.
#[derive(Debug, Clone)]
pub struct SplitL1Study {
    eval: Evaluator,
    icache_bytes: u64,
    dcache_bytes: u64,
    l2_bytes: u64,
    icache_circuit: CacheCircuit,
    dcache_circuit: CacheCircuit,
    unified_circuit: CacheCircuit,
    l2_circuit: CacheCircuit,
    split_stats: SplitStats,
    unified_m1: f64,
    unified_m2: f64,
    memory: MainMemory,
}

impl SplitL1Study {
    /// Simulates both organisations (split: I$ + D$; unified: one L1 of
    /// their combined capacity) and prepares the study.
    ///
    /// # Errors
    ///
    /// Propagates impossible cache geometry.
    pub fn new(
        icache_bytes: u64,
        dcache_bytes: u64,
        l2_bytes: u64,
        suite: SuiteKind,
        steps: u64,
        grid: KnobGrid,
    ) -> Result<Self, StudyError> {
        let icache = CacheParams::new(icache_bytes, 64, 2)?;
        let dcache = CacheParams::new(dcache_bytes, 64, 4)?;
        let l2 = CacheParams::new(l2_bytes, 64, 8)?;
        let unified = CacheParams::new(icache_bytes + dcache_bytes, 64, 4)?;

        let mut data_a = suite.build(2005);
        let split_stats = simulate_split(
            icache,
            dcache,
            l2,
            data_a.as_mut(),
            2005,
            steps,
            DATA_PER_INST,
        );
        let mut data_b = suite.build(2005);
        let (u_l1, u_l2) =
            simulate_unified(unified, l2, data_b.as_mut(), 2005, steps, DATA_PER_INST)?;

        // Build every circuit here so impossible geometry surfaces as a
        // typed error at construction — the query methods then have no
        // failure path of their own.
        let tech = TechnologyNode::bptm65();
        let icache_circuit = CacheCircuit::new(CacheConfig::new(icache_bytes, 64, 2)?, &tech);
        let dcache_circuit = CacheCircuit::new(CacheConfig::new(dcache_bytes, 64, 4)?, &tech);
        let unified_circuit =
            CacheCircuit::new(CacheConfig::new(icache_bytes + dcache_bytes, 64, 4)?, &tech);
        let l2_circuit = CacheCircuit::new(CacheConfig::new(l2_bytes, 64, 8)?, &tech);

        Ok(SplitL1Study {
            eval: Evaluator::new(grid),
            icache_bytes,
            dcache_bytes,
            l2_bytes,
            icache_circuit,
            dcache_circuit,
            unified_circuit,
            l2_circuit,
            split_stats,
            unified_m1: u_l1.miss_rate(),
            unified_m2: u_l2.miss_rate(),
            memory: MainMemory::default(),
        })
    }

    /// The simulated split statistics.
    pub fn split_stats(&self) -> &SplitStats {
        &self.split_stats
    }

    /// Reference-mix weights: instruction share and data share of the
    /// combined stream.
    fn mix() -> (f64, f64) {
        let total = 1.0 + DATA_PER_INST;
        (1.0 / total, DATA_PER_INST / total)
    }

    /// Optimises the split organisation (Scheme II in each of the three
    /// caches) at a mean-access-time deadline. Returns `Ok(None)` when
    /// the deadline is infeasible.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from
    /// [`Evaluator::try_solve`](crate::eval::Evaluator::try_solve).
    pub fn optimize_split(&self, deadline: Seconds) -> Result<Option<OrganisationRow>, StudyError> {
        let (fi, fd) = Self::mix();
        let s = &self.split_stats;
        let l2_weight = fi * s.icache_miss_rate() + fd * s.dcache_miss_rate();
        let floor = self.memory.access_time.0 * l2_weight * s.l2_local_miss_rate();

        let spec = HierarchySpec::new()
            .level(
                "I$",
                self.icache_circuit.clone(),
                Scheme::Split,
                fi,
                CostKind::LeakagePower,
            )
            .level(
                "D$",
                self.dcache_circuit.clone(),
                Scheme::Split,
                fd,
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                self.l2_circuit.clone(),
                Scheme::Split,
                l2_weight,
                CostKind::LeakagePower,
            );
        let Some(sol) = self.eval.try_solve(&spec, &Deadline(deadline.0 - floor))? else {
            return Ok(None);
        };
        Ok(Some(OrganisationRow {
            name: format!(
                "split {}K I$ + {}K D$",
                self.icache_bytes / 1024,
                self.dcache_bytes / 1024
            ),
            mean_access: Seconds(sol.delay + floor),
            leakage: Watts(sol.cost),
            l1_knobs: sol.knobs[0],
        }))
    }

    /// Optimises the unified organisation at the same deadline. Returns
    /// `Ok(None)` when the deadline is infeasible.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from
    /// [`Evaluator::try_solve`](crate::eval::Evaluator::try_solve).
    pub fn optimize_unified(
        &self,
        deadline: Seconds,
    ) -> Result<Option<OrganisationRow>, StudyError> {
        let l2_weight = self.unified_m1;
        let floor = self.memory.access_time.0 * l2_weight * self.unified_m2;
        let spec = HierarchySpec::new()
            .level(
                "L1",
                self.unified_circuit.clone(),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                self.l2_circuit.clone(),
                Scheme::Split,
                l2_weight,
                CostKind::LeakagePower,
            );
        let Some(sol) = self.eval.try_solve(&spec, &Deadline(deadline.0 - floor))? else {
            return Ok(None);
        };
        Ok(Some(OrganisationRow {
            name: format!(
                "unified {}K L1",
                (self.icache_bytes + self.dcache_bytes) / 1024
            ),
            mean_access: Seconds(sol.delay + floor),
            leakage: Watts(sol.cost),
            l1_knobs: sol.knobs[0],
        }))
    }

    /// The tightest deadline both organisations can meet, scaled by
    /// `1 + slack`.
    pub fn deadline(&self, slack: f64) -> Seconds {
        let (fi, fd) = Self::mix();
        let s = &self.split_stats;
        let t_l2 = self.l2_circuit.fastest_access_time().0;
        let split_min = fi * self.icache_circuit.fastest_access_time().0
            + fd * self.dcache_circuit.fastest_access_time().0
            + (fi * s.icache_miss_rate() + fd * s.dcache_miss_rate())
                * (t_l2 + s.l2_local_miss_rate() * self.memory.access_time.0);
        let unified_min = self.unified_circuit.fastest_access_time().0
            + self.unified_m1 * (t_l2 + self.unified_m2 * self.memory.access_time.0);
        Seconds(split_min.max(unified_min) * (1.0 + slack))
    }

    /// Renders the comparison across a few slack levels.
    ///
    /// # Panics
    ///
    /// Panics when evaluation fails (see
    /// [`optimize_split`](Self::optimize_split)).
    pub fn to_table(&self, slacks: &[f64]) -> Table {
        let mut t = Table::new(
            format!(
                "Split I$/D$ vs unified L1 (L2 = {} KB)",
                self.l2_bytes / 1024
            ),
            &["slack", "organisation", "mean access (ps)", "leakage (mW)"],
        );
        for &slack in slacks {
            let deadline = self.deadline(slack);
            for row in [
                rendered(self.optimize_split(deadline)),
                rendered(self.optimize_unified(deadline)),
            ]
            .into_iter()
            .flatten()
            {
                t.push_row(vec![
                    format!("{:.0}%", slack * 100.0),
                    row.name,
                    cell(row.mean_access.picos(), 0),
                    cell(row.leakage.milli(), 3),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static SplitL1Study {
        static STUDY: OnceLock<SplitL1Study> = OnceLock::new();
        STUDY.get_or_init(|| {
            SplitL1Study::new(
                16 * 1024,
                16 * 1024,
                512 * 1024,
                SuiteKind::Spec2000,
                200_000,
                KnobGrid::coarse(),
            )
            .expect("valid configuration")
        })
    }

    #[test]
    fn icache_misses_less_than_dcache() {
        let s = study().split_stats();
        assert!(
            s.icache_miss_rate() < s.dcache_miss_rate(),
            "I$ {} ≥ D$ {}",
            s.icache_miss_rate(),
            s.dcache_miss_rate()
        );
    }

    #[test]
    fn both_organisations_optimizable() {
        let st = study();
        let deadline = st.deadline(0.10);
        let split = st
            .optimize_split(deadline)
            .expect("healthy build")
            .expect("split feasible");
        let unified = st
            .optimize_unified(deadline)
            .expect("healthy build")
            .expect("unified feasible");
        assert!(split.mean_access.0 <= deadline.0 + 1e-15);
        assert!(unified.mean_access.0 <= deadline.0 + 1e-15);
        assert!(split.leakage.0 > 0.0 && unified.leakage.0 > 0.0);
    }

    #[test]
    fn split_is_competitive_with_unified() {
        // The extra knob freedom of two L1 arrays keeps the split
        // organisation at or below ~115 % of the unified leakage at
        // mid-range slack (it usually wins outright).
        let st = study();
        let deadline = st.deadline(0.15);
        let split = st
            .optimize_split(deadline)
            .expect("healthy build")
            .expect("split feasible");
        let unified = st
            .optimize_unified(deadline)
            .expect("healthy build")
            .expect("unified feasible");
        assert!(
            split.leakage.0 <= unified.leakage.0 * 1.15,
            "split {:.3} mW vs unified {:.3} mW",
            split.leakage.milli(),
            unified.leakage.milli()
        );
    }

    #[test]
    fn table_has_two_rows_per_slack() {
        let t = study().to_table(&[0.10, 0.20]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn impossible_geometry_is_a_typed_error_not_a_panic() {
        // 3000 bytes is not a power of two: the simulator parameters
        // reject it before any simulation or circuit model runs.
        let err = SplitL1Study::new(
            3000,
            16 * 1024,
            512 * 1024,
            SuiteKind::Spec2000,
            1_000,
            KnobGrid::coarse(),
        )
        .expect_err("non-power-of-two L1 must fail");
        assert!(matches!(err, StudyError::Simulator(_)), "{err:?}");
    }
}
