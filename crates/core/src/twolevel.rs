//! Section 5: two-level cache leakage optimisation.
//!
//! * **E3** — [`TwoLevelStudy::l2_size_sweep`] with [`Scheme::Uniform`]:
//!   fix the L1 at default knobs, give the whole L2 one `Vth`/`Tox` pair,
//!   and find which L2 size yields the least leakage at an iso-AMAT
//!   constraint. The paper: "generally the bigger L2 consumes less leakage
//!   power than smaller ones under the same delay constraint …
//!   \[n\]evertheless, having the largest available L2 does not always yield
//!   the best leakage."
//! * **E4** — the same sweep with [`Scheme::Split`]: cell array and
//!   periphery get their own pairs, which lets a *smaller* L2 meet the
//!   AMAT by speeding only its periphery while its cells stay
//!   conservative.
//! * **E5** — [`TwoLevelStudy::l1_size_sweep`]: with L2 fixed, jointly
//!   optimise both caches across L1 sizes; small L1s win.

use crate::amat::{memory_floor, MainMemory};
use crate::eval::{Evaluator, HierarchySpec};
use crate::groups::{CostKind, Scheme};
use crate::report::{cell, Table};
use crate::StudyError;
use nm_archsim::workload::SuiteKind;
use nm_archsim::{MissRateTable, PairStats};
use nm_device::units::{Seconds, Watts};
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_opt::objective::Deadline;

/// Default block size for both levels (bytes).
pub const BLOCK_BYTES: u64 = 64;

/// Default L1 associativity.
pub const L1_WAYS: u64 = 4;

/// Default L2 associativity.
pub const L2_WAYS: u64 = 8;

/// The benchmark mix averaged into the standard miss-rate table (the
/// paper's SPEC2000 / SPECWEB / TPC-C trio).
pub const STANDARD_SUITES: [SuiteKind; 3] =
    [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb];

/// One row of an L2 (or L1) size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Swept cache size in bytes.
    pub size_bytes: u64,
    /// L1 miss rate at this size combination.
    pub m1: f64,
    /// Local L2 miss rate at this size combination.
    pub m2: f64,
    /// Achieved AMAT when feasible.
    pub amat: Option<Seconds>,
    /// Optimised leakage of the swept cache when feasible.
    pub opt_leakage: Option<Watts>,
    /// Total system (L1 + L2) leakage when feasible.
    pub total_leakage: Option<Watts>,
    /// The winning knob assignment of the optimised cache.
    pub knobs: Option<ComponentKnobs>,
}

/// A completed size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Table title.
    pub title: String,
    /// Per-size rows in sweep order.
    pub rows: Vec<SweepRow>,
}

impl SweepOutcome {
    /// The feasible row with the least total leakage.
    pub fn winner(&self) -> Option<&SweepRow> {
        self.rows
            .iter()
            .filter_map(|r| r.total_leakage.map(|w| (r, w.0)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(r, _)| r)
    }

    /// Renders the sweep as a text/CSV table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            self.title.clone(),
            &[
                "size (KB)",
                "m1",
                "m2",
                "AMAT (ps)",
                "opt leak (mW)",
                "total leak (mW)",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                cell(r.size_bytes as f64 / 1024.0, 0),
                cell(r.m1, 4),
                cell(r.m2, 4),
                r.amat
                    .map_or_else(|| "infeasible".to_owned(), |a| cell(a.picos(), 0)),
                r.opt_leakage
                    .map_or_else(|| "-".to_owned(), |w| cell(w.milli(), 3)),
                r.total_leakage
                    .map_or_else(|| "-".to_owned(), |w| cell(w.milli(), 3)),
            ]);
        }
        t
    }
}

/// The Section 5 study: a miss-rate table, a technology node, a knob grid
/// and a main-memory endpoint.
#[derive(Debug, Clone)]
pub struct TwoLevelStudy {
    tech: TechnologyNode,
    eval: Evaluator,
    missrates: MissRateTable,
    memory: MainMemory,
}

impl TwoLevelStudy {
    /// Assembles a study from parts.
    pub fn new(
        missrates: MissRateTable,
        tech: TechnologyNode,
        grid: KnobGrid,
        memory: MainMemory,
    ) -> Self {
        TwoLevelStudy {
            tech,
            eval: Evaluator::new(grid),
            missrates,
            memory,
        }
    }

    /// Builds the standard study: L1 ∈ {4…64 K}, L2 ∈ {256 K…8 M},
    /// averaged over [`STANDARD_SUITES`]. `quick` trades simulation length
    /// for speed (tests); the CLI uses the full-length table unless
    /// `--quick`.
    ///
    /// # Errors
    ///
    /// [`StudyError::Simulator`] should a standard size be an illegal
    /// cache shape.
    pub fn standard(quick: bool) -> Result<Self, StudyError> {
        let (warmup, measure) = if quick {
            (30_000, 60_000)
        } else {
            (300_000, 600_000)
        };
        let missrates = MissRateTable::try_build(
            &Self::standard_l1_sizes(),
            &Self::standard_l2_sizes(),
            &STANDARD_SUITES,
            2005,
            warmup,
            measure,
        )?;
        Ok(Self::new(
            missrates,
            TechnologyNode::bptm65(),
            KnobGrid::paper(),
            MainMemory::default(),
        ))
    }

    /// The standard L1 size axis (bytes): 4 K to 64 K, the paper's range.
    pub fn standard_l1_sizes() -> Vec<u64> {
        vec![4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024]
    }

    /// The standard L2 size axis (bytes): 256 K to 8 M.
    pub fn standard_l2_sizes() -> Vec<u64> {
        vec![
            256 * 1024,
            512 * 1024,
            1024 * 1024,
            2 * 1024 * 1024,
            4 * 1024 * 1024,
            8 * 1024 * 1024,
        ]
    }

    /// The knob grid in use.
    pub fn grid(&self) -> &KnobGrid {
        self.eval.grid()
    }

    /// The memoizing evaluator behind the study's sweeps (its
    /// [`stats`](Evaluator::stats) expose surface/front build counters).
    pub fn evaluator(&self) -> &Evaluator {
        &self.eval
    }

    /// The miss-rate table in use.
    pub fn missrates(&self) -> &MissRateTable {
        &self.missrates
    }

    /// Looks up miss-rate statistics for a size pair.
    ///
    /// # Errors
    ///
    /// [`StudyError::MissingMissRates`] when the pair was not simulated.
    pub fn stats(&self, l1_bytes: u64, l2_bytes: u64) -> Result<PairStats, StudyError> {
        self.missrates
            .get(l1_bytes, l2_bytes)
            .copied()
            .ok_or(StudyError::MissingMissRates { l1_bytes, l2_bytes })
    }

    fn l1_circuit(&self, bytes: u64) -> Result<CacheCircuit, StudyError> {
        Ok(CacheCircuit::new(
            CacheConfig::new(bytes, BLOCK_BYTES, L1_WAYS)?,
            &self.tech,
        ))
    }

    fn l2_circuit(&self, bytes: u64) -> Result<CacheCircuit, StudyError> {
        Ok(CacheCircuit::new(
            CacheConfig::new(bytes, BLOCK_BYTES, L2_WAYS)?,
            &self.tech,
        ))
    }

    /// The minimum achievable AMAT for a size pair with the L1 held at
    /// default knobs and the L2 fully aggressive — the tightest meaningful
    /// iso-AMAT constraint for the L2 sweeps.
    ///
    /// # Errors
    ///
    /// Propagates missing miss rates or impossible geometry.
    pub fn min_amat_l1_fixed(&self, l1_bytes: u64, l2_bytes: u64) -> Result<Seconds, StudyError> {
        let stats = self.stats(l1_bytes, l2_bytes)?;
        let l1 = self.l1_circuit(l1_bytes)?;
        let t_l1 = l1.analyze(&ComponentKnobs::default()).access_time();
        let l2 = self.l2_circuit(l2_bytes)?;
        let t_l2 = l2.fastest_access_time();
        Ok(t_l1
            + t_l2 * stats.l1_miss_rate
            + memory_floor(
                stats.l1_miss_rate,
                stats.l2_local_miss_rate,
                self.memory.access_time,
            ))
    }

    /// An iso-AMAT target with fractional `slack` over the best achievable
    /// AMAT across the given L2 sizes (L1 fixed at default knobs).
    ///
    /// # Errors
    ///
    /// Propagates missing miss rates or impossible geometry.
    pub fn amat_target(
        &self,
        l1_bytes: u64,
        l2_sizes: &[u64],
        slack: f64,
    ) -> Result<Seconds, StudyError> {
        let mut best = f64::INFINITY;
        for &l2 in l2_sizes {
            best = best.min(self.min_amat_l1_fixed(l1_bytes, l2)?.0);
        }
        Ok(Seconds(best * (1.0 + slack)))
    }

    /// **E3 / E4** — optimises the L2's knobs at every L2 size under one
    /// iso-AMAT constraint, with the L1 fixed at default knobs.
    ///
    /// `scheme` [`Scheme::Uniform`] reproduces the paper's first
    /// experiment (one pair per L2), [`Scheme::Split`] the second (cell
    /// array vs periphery pairs).
    ///
    /// # Errors
    ///
    /// Propagates missing miss rates, impossible geometry or an evaluation
    /// failure such as [`StudyError::InvalidSurface`].
    pub fn l2_size_sweep(
        &self,
        l1_bytes: u64,
        l2_sizes: &[u64],
        scheme: Scheme,
        amat_target: Seconds,
    ) -> Result<SweepOutcome, StudyError> {
        let l1 = self.l1_circuit(l1_bytes)?;
        let l1_metrics = l1.analyze(&ComponentKnobs::default());
        let t_l1 = l1_metrics.access_time();
        let l1_leak = l1_metrics.leakage().total();

        let mut rows = Vec::with_capacity(l2_sizes.len());
        for &l2_bytes in l2_sizes {
            let stats = self.stats(l1_bytes, l2_bytes)?;
            let l2 = self.l2_circuit(l2_bytes)?;
            let base = t_l1
                + memory_floor(
                    stats.l1_miss_rate,
                    stats.l2_local_miss_rate,
                    self.memory.access_time,
                );
            let budget = amat_target.0 - base.0;
            let mut row = SweepRow {
                size_bytes: l2_bytes,
                m1: stats.l1_miss_rate,
                m2: stats.l2_local_miss_rate,
                amat: None,
                opt_leakage: None,
                total_leakage: None,
                knobs: None,
            };
            if budget > 0.0 {
                // The L2 delay weight is the miss-chain weight of level 1
                // (weights = [1, m1]); bit-identical to passing m1 by hand.
                let weights = HierarchySpec::try_amat_weights(&[stats.l1_miss_rate])?;
                let spec =
                    HierarchySpec::single(l2.clone(), scheme, weights[1], CostKind::LeakagePower);
                if let Some(sol) = self.eval.try_solve(&spec, &Deadline(budget))? {
                    let l2_leak = Watts(sol.cost);
                    row.amat = Some(Seconds(base.0 + sol.delay));
                    row.opt_leakage = Some(l2_leak);
                    row.total_leakage = Some(l1_leak + l2_leak);
                    row.knobs = Some(sol.knobs[0]);
                }
            }
            rows.push(row);
        }
        Ok(SweepOutcome {
            title: format!(
                "L2 size sweep ({scheme}), L1 = {} KB, AMAT ≤ {:.0} ps (Section 5)",
                l1_bytes / 1024,
                amat_target.picos()
            ),
            rows,
        })
    }

    /// **E5** — jointly optimises L1 and L2 knobs (Scheme II inside each
    /// cache) across L1 sizes with the L2 size fixed, under one iso-AMAT
    /// constraint. The paper: a small L1 minimises total leakage.
    ///
    /// # Errors
    ///
    /// Propagates missing miss rates, impossible geometry or an evaluation
    /// failure such as [`StudyError::InvalidSurface`].
    pub fn l1_size_sweep(
        &self,
        l1_sizes: &[u64],
        l2_bytes: u64,
        amat_target: Seconds,
    ) -> Result<SweepOutcome, StudyError> {
        let mut rows = Vec::with_capacity(l1_sizes.len());
        for &l1_bytes in l1_sizes {
            let stats = self.stats(l1_bytes, l2_bytes)?;
            let l1 = self.l1_circuit(l1_bytes)?;
            let l2 = self.l2_circuit(l2_bytes)?;
            let base = memory_floor(
                stats.l1_miss_rate,
                stats.l2_local_miss_rate,
                self.memory.access_time,
            );
            let budget = amat_target.0 - base.0;
            let mut row = SweepRow {
                size_bytes: l1_bytes,
                m1: stats.l1_miss_rate,
                m2: stats.l2_local_miss_rate,
                amat: None,
                opt_leakage: None,
                total_leakage: None,
                knobs: None,
            };
            if budget > 0.0 {
                let weights = HierarchySpec::try_amat_weights(&[stats.l1_miss_rate])?;
                let spec = HierarchySpec::new()
                    .level(
                        "L1",
                        l1.clone(),
                        Scheme::Split,
                        weights[0],
                        CostKind::LeakagePower,
                    )
                    .level(
                        "L2",
                        l2.clone(),
                        Scheme::Split,
                        weights[1],
                        CostKind::LeakagePower,
                    );
                if let Some(sol) = self.eval.try_solve(&spec, &Deadline(budget))? {
                    let l1_knobs = sol.knobs[0];
                    let l1_leak = l1.analyze(&l1_knobs).leakage().total();
                    row.amat = Some(Seconds(base.0 + sol.delay));
                    row.opt_leakage = Some(l1_leak);
                    row.total_leakage = Some(Watts(sol.cost));
                    row.knobs = Some(l1_knobs);
                }
            }
            rows.push(row);
        }
        Ok(SweepOutcome {
            title: format!(
                "L1 size sweep, L2 = {} KB, AMAT ≤ {:.0} ps (Section 5)",
                l2_bytes / 1024,
                amat_target.picos()
            ),
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One quick study shared by all tests (the miss-rate simulation is
    /// the slow part).
    fn study() -> &'static TwoLevelStudy {
        static STUDY: OnceLock<TwoLevelStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            // Long enough to warm the 4 MB L2 — shorter tables leave the
            // large sizes cold and flatten the m2-vs-size curve the
            // Section 5 experiments depend on.
            let missrates = MissRateTable::try_build(
                &[16 * 1024],
                &[256 * 1024, 1024 * 1024, 4 * 1024 * 1024],
                &STANDARD_SUITES,
                2005,
                400_000,
                400_000,
            )
            .unwrap();
            TwoLevelStudy::new(
                missrates,
                TechnologyNode::bptm65(),
                KnobGrid::coarse(),
                MainMemory::default(),
            )
        })
    }

    const L2_SIZES: [u64; 3] = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];

    #[test]
    fn missing_pair_is_an_error() {
        let s = study();
        assert!(matches!(
            s.stats(4 * 1024, 256 * 1024),
            Err(StudyError::MissingMissRates { .. })
        ));
        assert!(s.stats(16 * 1024, 256 * 1024).is_ok());
    }

    #[test]
    fn miss_rates_fall_with_l2_size() {
        let s = study();
        let m_small = s.stats(16 * 1024, 256 * 1024).unwrap().l2_local_miss_rate;
        let m_big = s
            .stats(16 * 1024, 4 * 1024 * 1024)
            .unwrap()
            .l2_local_miss_rate;
        assert!(m_big < m_small, "{m_big} ≥ {m_small}");
    }

    #[test]
    fn uniform_sweep_prefers_bigger_l2_at_tight_amat() {
        // E3: with one pair per L2 and a tight AMAT, bigger L2s leak less
        // than the smallest.
        let s = study();
        let target = s.amat_target(16 * 1024, &L2_SIZES, 0.06).unwrap();
        let sweep = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Uniform, target)
            .unwrap();
        let winner = sweep.winner().expect("some size feasible");
        assert!(
            winner.size_bytes > 256 * 1024,
            "winner = {} KB\n{}",
            winner.size_bytes / 1024,
            sweep.to_table()
        );
    }

    #[test]
    fn split_scheme_never_worse_than_uniform() {
        // E4: per-size, the split assignment leaks at most as much.
        let s = study();
        let target = s.amat_target(16 * 1024, &L2_SIZES, 0.10).unwrap();
        let uni = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Uniform, target)
            .unwrap();
        let split = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Split, target)
            .unwrap();
        for (u, v) in uni.rows.iter().zip(&split.rows) {
            if let (Some(a), Some(b)) = (u.opt_leakage, v.opt_leakage) {
                assert!(
                    b.0 <= a.0 + 1e-15,
                    "{} KB: split worse",
                    u.size_bytes / 1024
                );
            }
        }
    }

    #[test]
    fn split_lets_smaller_l2_win() {
        // E4: under the split assignment the optimum moves to a smaller
        // L2 than under the uniform assignment (the paper's second
        // Section 5 finding).
        let s = study();
        let target = s.amat_target(16 * 1024, &L2_SIZES, 0.06).unwrap();
        let uni = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Uniform, target)
            .unwrap();
        let split = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Split, target)
            .unwrap();
        let wu = uni.winner().expect("uniform feasible").size_bytes;
        let ws = split.winner().expect("split feasible").size_bytes;
        assert!(
            ws <= wu,
            "split winner {} KB > uniform winner {} KB\nuniform:\n{}\nsplit:\n{}",
            ws / 1024,
            wu / 1024,
            uni.to_table(),
            split.to_table()
        );
    }

    #[test]
    fn split_cells_more_conservative_than_periphery() {
        let s = study();
        let target = s.amat_target(16 * 1024, &L2_SIZES, 0.05).unwrap();
        let sweep = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Split, target)
            .unwrap();
        for (row, knobs) in sweep.rows.iter().filter_map(|r| r.knobs.map(|k| (r, k))) {
            let cells = knobs[nm_geometry::ComponentId::MemoryArray];
            let periph = knobs[nm_geometry::ComponentId::Decoder];
            assert!(
                cells.vth().0 >= periph.vth().0 && cells.tox().0 >= periph.tox().0,
                "{} KB: cells {cells} vs periphery {periph}",
                row.size_bytes / 1024
            );
        }
    }

    #[test]
    fn achieved_amat_meets_target() {
        let s = study();
        let target = s.amat_target(16 * 1024, &L2_SIZES, 0.08).unwrap();
        let sweep = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Uniform, target)
            .unwrap();
        for amat in sweep.rows.iter().filter_map(|r| r.amat) {
            assert!(amat.0 <= target.0 + 1e-15);
        }
    }

    #[test]
    fn sweep_table_renders() {
        let s = study();
        let target = s.amat_target(16 * 1024, &L2_SIZES, 0.10).unwrap();
        let sweep = s
            .l2_size_sweep(16 * 1024, &L2_SIZES, Scheme::Uniform, target)
            .unwrap();
        let t = sweep.to_table();
        assert_eq!(t.len(), L2_SIZES.len());
    }
}
