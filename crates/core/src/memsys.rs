//! The entire processor memory system: L1 + L2 + main memory energy, and
//! the (`Tox`, `Vth`) tuple problem of Figure 2.
//!
//! Total energy per CPU reference:
//!
//! `E = E_dyn(L1) + m1·E_dyn(L2) + m1·m2·E_mem + P_leak·T_AMAT`
//!
//! Leakage is integrated over the AMAT *target* interval, which makes the
//! objective additive per component group and lets the exact merge solver
//! apply (the achieved AMAT equals the target at the optimum up to grid
//! resolution, so the approximation is second-order; see `DESIGN.md`).

use crate::amat::{memory_energy, memory_floor, MainMemory};
use crate::error::rendered;
use crate::eval::{Evaluator, HierarchySpec};
use crate::groups::{CostKind, Scheme};
use crate::report::{cell, Series, Table};
use crate::StudyError;
use nm_archsim::PairStats;
use nm_device::units::Seconds;
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::objective::Deadline;
use nm_opt::tuple::combinations;
use nm_sweep::ParallelSweep;

/// A (`nTox`, `nVth`) tuple from Figure 2's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TupleCounts {
    /// Number of distinct oxide thicknesses available.
    pub n_tox: usize,
    /// Number of distinct threshold voltages available.
    pub n_vth: usize,
}

impl TupleCounts {
    /// The five tuples plotted in the paper's Figure 2.
    pub const FIGURE2: [TupleCounts; 5] = [
        TupleCounts { n_tox: 2, n_vth: 2 },
        TupleCounts { n_tox: 2, n_vth: 3 },
        TupleCounts { n_tox: 3, n_vth: 2 },
        TupleCounts { n_tox: 2, n_vth: 1 },
        TupleCounts { n_tox: 1, n_vth: 2 },
    ];

    /// Figure 2 legend label, e.g. `"2 Tox + 2 Vth"`.
    pub fn label(self) -> String {
        format!("{} Tox + {} Vth", self.n_tox, self.n_vth)
    }
}

/// The AMAT band `[min, max]` trimmed 2 % inside both endpoints. When the
/// band is narrower than the trim (`lo > hi` after trimming), both bounds
/// clamp to the untrimmed midpoint so the sweep never reverses.
fn trimmed_band(min: f64, max: f64) -> (f64, f64) {
    let lo = min * 1.02;
    let hi = max * 0.98;
    if lo > hi {
        let mid = (min + max) / 2.0;
        (mid, mid)
    } else {
        (lo, hi)
    }
}

/// The Figure 2 study: one (L1, L2) configuration, its miss-rate
/// statistics, a coarse knob grid and the memory endpoint.
#[derive(Debug, Clone)]
pub struct MemorySystemStudy {
    l1: CacheCircuit,
    l2: CacheCircuit,
    stats: PairStats,
    /// Miss-chain delay weights `[1, m1]`, validated at construction;
    /// bit-identical to the old hand-passed constants.
    weights: Vec<f64>,
    eval: Evaluator,
    memory: MainMemory,
}

impl MemorySystemStudy {
    /// Assembles the study.
    ///
    /// # Errors
    ///
    /// Propagates impossible cache geometry, and
    /// [`StudyError::MissRateRange`] when the L1 miss rate is not a
    /// probability.
    pub fn new(
        l1_bytes: u64,
        l2_bytes: u64,
        stats: PairStats,
        tech: &TechnologyNode,
        grid: KnobGrid,
        memory: MainMemory,
    ) -> Result<Self, StudyError> {
        Ok(MemorySystemStudy {
            l1: CacheCircuit::new(CacheConfig::new(l1_bytes, 64, 4)?, tech),
            l2: CacheCircuit::new(CacheConfig::new(l2_bytes, 64, 8)?, tech),
            weights: HierarchySpec::try_amat_weights(&[stats.l1_miss_rate])?,
            stats,
            eval: Evaluator::new(grid),
            memory,
        })
    }

    /// The system as a two-level [`HierarchySpec`] (Scheme II in each
    /// cache, giving the four groups L1 cells, L1 periphery, L2 cells, L2
    /// periphery) priced for an AMAT target `t_ref` (leakage energy
    /// integrates over it).
    fn system_spec(&self, t_ref: Seconds) -> HierarchySpec {
        let weights = &self.weights;
        let l1_cost = CostKind::Energy {
            t_ref: t_ref.0,
            access_rate: 1.0,
            write_fraction: self.stats.write_fraction,
        };
        // L2 dynamic energy is paid by demand misses and by L1 dirty
        // writebacks (both per CPU reference); the writeback share of the
        // L2 stream arrives as stores.
        let l2_rate = self.stats.l1_miss_rate + self.stats.l1_writeback_rate;
        let l2_cost = CostKind::Energy {
            t_ref: t_ref.0,
            access_rate: l2_rate,
            write_fraction: if l2_rate == 0.0 {
                0.0
            } else {
                self.stats.l1_writeback_rate / l2_rate
            },
        };
        HierarchySpec::new()
            .level("L1", self.l1.clone(), Scheme::Split, weights[0], l1_cost)
            .level("L2", self.l2.clone(), Scheme::Split, weights[1], l2_cost)
    }

    /// The knob-independent AMAT floor (`m1·m2·t_mem`).
    pub fn amat_floor(&self) -> Seconds {
        memory_floor(
            self.stats.l1_miss_rate,
            self.stats.l2_local_miss_rate,
            self.memory.access_time,
        )
    }

    /// The fastest achievable AMAT (everything at the aggressive corner).
    pub fn min_amat(&self) -> Seconds {
        self.amat_floor()
            + self.l1.fastest_access_time()
            + self.l2.fastest_access_time() * self.stats.l1_miss_rate
    }

    /// The slowest useful AMAT (everything at the conservative corner).
    pub fn max_amat(&self) -> Seconds {
        self.amat_floor()
            + self.l1.slowest_access_time()
            + self.l2.slowest_access_time() * self.stats.l1_miss_rate
    }

    /// Evenly spaced AMAT targets across the feasible range, trimmed a
    /// hair inside both endpoints.
    ///
    /// `steps == 0` returns an empty sweep (consistent with
    /// `deadline_sweep` in `nm_opt::constraint`). When the feasible band
    /// is narrower than the ±2 % trim, the trimmed bounds would cross;
    /// the sweep collapses to the band midpoint instead of walking a
    /// reversed range.
    pub fn amat_sweep(&self, steps: usize) -> Vec<Seconds> {
        if steps == 0 {
            return Vec::new();
        }
        let (lo, hi) = trimmed_band(self.min_amat().0, self.max_amat().0);
        if steps == 1 {
            return vec![Seconds(hi)];
        }
        (0..steps)
            .map(|i| Seconds(lo + (hi - lo) * i as f64 / (steps - 1) as f64))
            .collect()
    }

    /// **E6 / Figure 2** — total energy (pJ) versus AMAT (ps), one series
    /// per tuple restriction.
    ///
    /// For every AMAT target the optimiser may pick *any* `n_vth` distinct
    /// threshold voltages and `n_tox` distinct oxide thicknesses from the
    /// grid, shared across all four system groups, minimising total
    /// energy.
    ///
    /// # Errors
    ///
    /// The first evaluation failure, in job order, e.g.
    /// [`StudyError::InvalidSurface`] from the surface build.
    pub fn tuple_curves(
        &self,
        tuples: &[TupleCounts],
        targets: &[Seconds],
    ) -> Result<Vec<Series>, StudyError> {
        let grid = self.eval.grid();
        let vth_axis: Vec<f64> = grid.vth_values().iter().map(|v| v.0).collect();
        let tox_axis: Vec<f64> = grid.tox_values().iter().map(|t| t.0).collect();
        let e_mem = memory_energy(
            self.stats.l1_miss_rate,
            self.stats.l2_local_miss_rate,
            self.memory.access_energy,
        );
        let floor = self.amat_floor();
        // Each tuple's family of value sets: every `n_vth`-subset of the
        // `Vth` axis (outer) crossed with every `n_tox`-subset of the
        // `Tox` axis (inner).
        let vth_sets: Vec<_> = tuples
            .iter()
            .map(|tc| combinations(&vth_axis, tc.n_vth))
            .collect();
        let tox_sets: Vec<_> = tuples
            .iter()
            .map(|tc| combinations(&tox_axis, tc.n_tox))
            .collect();
        let families: Vec<Vec<(&[f64], &[f64])>> = vth_sets
            .iter()
            .zip(&tox_sets)
            .map(|(vths, toxes)| {
                vths.iter()
                    .flat_map(|v| toxes.iter().map(move |t| (v.as_slice(), t.as_slice())))
                    .collect()
            })
            .collect();

        // The metric surfaces behind every (tuple, target) cell are the
        // same eight (circuit, component) passes — only the `t_ref`
        // pricing differs. Build them once, up front, so the fan-out
        // below re-prices cached surfaces instead of re-analysing the
        // grid per cell (and never starts a nested sweep).
        if let Some(&first) = targets.first() {
            self.eval.try_ensure_surfaces(&self.system_spec(first))?;
        }

        // Every (tuple, target) cell is independent: flatten the grid into
        // one bounded sweep so large target axes cannot fan out into
        // thread-per-item work.
        let jobs: Vec<(usize, Seconds)> = (0..tuples.len())
            .flat_map(|ti| targets.iter().map(move |&t| (ti, t)))
            .collect();
        let points = ParallelSweep::new()
            .labeled("tuple-curves")
            .map(&jobs, |&(ti, target)| -> Result<_, StudyError> {
                let budget = target.0 - floor.0;
                if budget <= 0.0 {
                    return Ok(None);
                }
                let sol = self.eval.try_solve_restricted(
                    &self.system_spec(target),
                    &families[ti],
                    &Deadline(budget),
                )?;
                Ok(sol.map(|sol| (target.picos(), (sol.cost + e_mem.0) * 1e12)))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        Ok(tuples
            .iter()
            .enumerate()
            .map(|(ti, &tc)| {
                let mut series = Series::new(tc.label());
                series.points = points[ti * targets.len()..(ti + 1) * targets.len()]
                    .iter()
                    .filter_map(|p| *p)
                    .collect();
                series
            })
            .collect())
    }

    /// Renders [`tuple_curves`](Self::tuple_curves) output as a table.
    ///
    /// # Panics
    ///
    /// Panics when evaluation fails (see
    /// [`tuple_curves`](Self::tuple_curves)).
    pub fn tuple_table(&self, tuples: &[TupleCounts], targets: &[Seconds]) -> Table {
        let series = rendered(self.tuple_curves(tuples, targets));
        let mut t = Table::new(
            "Figure 2: (Tox, Vth) tuple problem — total energy vs AMAT",
            &["tuple", "AMAT (ps)", "energy (pJ)"],
        );
        for s in &series {
            for &(x, y) in &s.points {
                t.push_row(vec![s.label.clone(), cell(x, 0), cell(y, 2)]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn stats() -> PairStats {
        // Representative mid-range rates (a real table is exercised in the
        // integration tests; unit tests pin the rates for speed and
        // determinism).
        PairStats {
            l1_miss_rate: 0.05,
            l2_local_miss_rate: 0.25,
            l1_writeback_rate: 0.01,
            write_fraction: 0.3,
            measured: 1,
        }
    }

    fn study() -> &'static MemorySystemStudy {
        static STUDY: OnceLock<MemorySystemStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            MemorySystemStudy::new(
                16 * 1024,
                1024 * 1024,
                stats(),
                &TechnologyNode::bptm65(),
                KnobGrid::coarse(),
                MainMemory::default(),
            )
            .unwrap()
        })
    }

    #[test]
    fn amat_range_is_sane() {
        let s = study();
        assert!(s.min_amat().0 < s.max_amat().0);
        assert!(s.amat_floor().0 > 0.0);
        let sweep = s.amat_sweep(5);
        assert_eq!(sweep.len(), 5);
        assert!(sweep[0].0 < sweep[4].0);
    }

    #[test]
    fn amat_sweep_zero_steps_is_empty() {
        // Consistent with `deadline_sweep` in nm-opt: no steps, no targets.
        assert!(study().amat_sweep(0).is_empty());
    }

    #[test]
    fn amat_sweep_clamps_when_band_narrower_than_trim() {
        // A band narrower than the ±2 % trim would cross after trimming;
        // it must collapse to the midpoint, never reverse.
        let (lo, hi) = trimmed_band(1.00e-9, 1.01e-9);
        assert_eq!(lo, hi);
        assert!((lo - 1.005e-9).abs() < 1e-15);
        // A comfortably wide band trims normally and stays ordered.
        let (lo, hi) = trimmed_band(1.0e-9, 2.0e-9);
        assert!(lo < hi);
        assert!(lo > 1.0e-9 && hi < 2.0e-9);
        // The real study's sweep is non-decreasing and inside the band.
        let s = study();
        for steps in [1, 2, 5] {
            let sweep = s.amat_sweep(steps);
            assert_eq!(sweep.len(), steps);
            for w in sweep.windows(2) {
                assert!(w[0].0 <= w[1].0, "reversed sweep: {sweep:?}");
            }
            for t in &sweep {
                assert!(t.0 >= s.min_amat().0 && t.0 <= s.max_amat().0);
            }
        }
    }

    #[test]
    fn energy_decreases_with_relaxed_amat() {
        // Each tuple's curve must slope downward: more AMAT slack means
        // more conservative knobs and less leakage energy.
        let s = study();
        let targets = s.amat_sweep(4);
        let curves = s
            .tuple_curves(&[TupleCounts { n_tox: 2, n_vth: 2 }], &targets)
            .expect("healthy build");
        let pts = &curves[0].points;
        assert!(pts.len() >= 3, "too few feasible targets: {pts:?}");
        assert!(
            pts.last().unwrap().1 < pts.first().unwrap().1,
            "curve not decreasing: {pts:?}"
        );
    }

    #[test]
    fn more_values_never_hurt_energy() {
        let s = study();
        let targets = s.amat_sweep(3);
        let curves = s
            .tuple_curves(
                &[
                    TupleCounts { n_tox: 2, n_vth: 1 },
                    TupleCounts { n_tox: 2, n_vth: 2 },
                    TupleCounts { n_tox: 2, n_vth: 3 },
                ],
                &targets,
            )
            .expect("healthy build");
        for (a, b) in curves.iter().zip(curves.iter().skip(1)) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert!(
                    pb.1 <= pa.1 + 1e-9,
                    "{} worse than {} at {} ps",
                    b.label,
                    a.label,
                    pa.0
                );
            }
        }
    }

    #[test]
    fn vth_is_the_better_knob_in_figure2() {
        // 1 Tox + 2 Vth outperforms 2 Tox + 1 Vth — the paper's closing
        // observation.
        let s = study();
        let targets = s.amat_sweep(4);
        let curves = s
            .tuple_curves(
                &[
                    TupleCounts { n_tox: 2, n_vth: 1 },
                    TupleCounts { n_tox: 1, n_vth: 2 },
                ],
                &targets,
            )
            .expect("healthy build");
        let two_tox = &curves[0].points;
        let two_vth = &curves[1].points;
        let mut wins = 0;
        let mut total = 0;
        for (a, b) in two_tox.iter().zip(two_vth) {
            assert!((a.0 - b.0).abs() < 1e-6);
            total += 1;
            if b.1 <= a.1 + 1e-9 {
                wins += 1;
            }
        }
        assert!(total >= 3);
        assert!(wins * 2 > total, "1Tox+2Vth won only {wins}/{total} points");
    }

    #[test]
    fn tuple_table_renders() {
        let s = study();
        let t = s.tuple_table(&[TupleCounts { n_tox: 1, n_vth: 2 }], &s.amat_sweep(3));
        assert!(!t.is_empty());
    }

    #[test]
    fn new_rejects_a_miss_rate_that_is_not_a_probability() {
        for bad in [f64::NAN, 1.5] {
            let stats = PairStats {
                l1_miss_rate: bad,
                ..stats()
            };
            let err = MemorySystemStudy::new(
                16 * 1024,
                1024 * 1024,
                stats,
                &TechnologyNode::bptm65(),
                KnobGrid::coarse(),
                MainMemory::default(),
            )
            .expect_err("miss rate must be a probability");
            match err {
                StudyError::MissRateRange { index, value } => {
                    assert_eq!(index, 0);
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("wrong error class: {other:?}"),
            }
        }
    }

    #[test]
    fn figure2_labels() {
        assert_eq!(TupleCounts { n_tox: 2, n_vth: 3 }.label(), "2 Tox + 3 Vth");
        assert_eq!(TupleCounts::FIGURE2.len(), 5);
    }
}
