//! E8: a three-level, mixed-technology hierarchy.
//!
//! The paper stops at two SRAM levels; this study extends its exact
//! machinery — miss-rate chain → AMAT weights → iso-AMAT leakage
//! minimisation — one level further and lets the L3's cell technology
//! vary. An L1/L2 of SRAM backed by a 4 MB L3 of SRAM, eDRAM or STT-MRAM
//! (plus the DRAM backstop) is evaluated under one shared AMAT target,
//! and the study reports which technology leaks least once every level's
//! knobs are re-optimised around it:
//!
//! * eDRAM trades 3× array latency for ~16× lower array leakage plus a
//!   knob-independent refresh floor,
//! * STT-MRAM trades 5× array latency (and a 10× write energy) for
//!   near-zero array leakage,
//! * SRAM keeps its latency advantage but pays full leakage, so its knobs
//!   must run far more conservative to compete on power.
//!
//! The per-level delay weights come from [`HierarchySpec::try_amat_weights`]
//! over the simulated miss-rate chain — the N-level generalisation of the
//! paper's `AMAT = t_L1 + m1·(t_L2 + m2·t_mem)`.

use crate::amat::MainMemory;
use crate::eval::{Evaluator, HierarchySpec};
use crate::groups::{CostKind, Scheme};
use crate::report::{cell, Table};
use crate::twolevel::{BLOCK_BYTES, STANDARD_SUITES};
use crate::StudyError;
use nm_archsim::{simulate_chain, CacheParams};
use nm_device::units::{Seconds, Watts};
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_opt::objective::Deadline;

/// Default level sizes (bytes): 16 KB L1, 256 KB L2, 4 MB L3.
pub const STANDARD_SIZES: [u64; 3] = [16 * 1024, 256 * 1024, 4 * 1024 * 1024];

/// Per-level associativities (4-way L1, 8-way L2, 16-way L3).
pub const STANDARD_WAYS: [u64; 3] = [4, 8, 16];

/// One L3-technology candidate's result.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedRow {
    /// L3 technology name.
    pub tech: String,
    /// L1 local miss rate.
    pub m1: f64,
    /// L2 local miss rate.
    pub m2: f64,
    /// L3 local miss rate.
    pub m3: f64,
    /// Achieved AMAT when feasible.
    pub amat: Option<Seconds>,
    /// Optimised L3 leakage (including any refresh floor) when feasible.
    pub l3_leakage: Option<Watts>,
    /// Total system (L1 + L2 + L3) leakage when feasible.
    pub total_leakage: Option<Watts>,
    /// Winning per-level knob assignments (L1, L2, L3) when feasible.
    pub knobs: Option<Vec<ComponentKnobs>>,
}

/// A completed technology comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedOutcome {
    /// Table title.
    pub title: String,
    /// The shared iso-AMAT target every candidate was optimised under.
    pub amat_target: Seconds,
    /// Per-candidate rows in input order.
    pub rows: Vec<MixedRow>,
}

impl MixedOutcome {
    /// The feasible row with the least total leakage.
    pub fn winner(&self) -> Option<&MixedRow> {
        self.rows
            .iter()
            .filter_map(|r| r.total_leakage.map(|w| (r, w.0)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(r, _)| r)
    }

    /// Renders the comparison as a text/CSV table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            self.title.clone(),
            &[
                "L3 tech",
                "m1",
                "m2",
                "m3",
                "AMAT (ps)",
                "L3 leak (mW)",
                "total leak (mW)",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.tech.clone(),
                cell(r.m1, 4),
                cell(r.m2, 4),
                cell(r.m3, 4),
                r.amat
                    .map_or_else(|| "infeasible".to_owned(), |a| cell(a.picos(), 0)),
                r.l3_leakage
                    .map_or_else(|| "-".to_owned(), |w| cell(w.milli(), 3)),
                r.total_leakage
                    .map_or_else(|| "-".to_owned(), |w| cell(w.milli(), 3)),
            ]);
        }
        t
    }
}

/// The E8 study: a simulated three-level miss-rate chain, a CMOS base
/// node, per-level technologies for L1/L2, and the candidate set for L3.
#[derive(Debug, Clone)]
pub struct MixedTechStudy {
    tech: TechnologyNode,
    eval: Evaluator,
    memory: MainMemory,
    sizes: [u64; 3],
    upstream: [TechProfile; 2],
    rates: [f64; 3],
    write_fraction: f64,
}

impl MixedTechStudy {
    /// Builds the standard study shape ([`STANDARD_SIZES`], SRAM L1/L2)
    /// with miss rates averaged over [`STANDARD_SUITES`]. `quick` trades
    /// simulation length for speed (tests, CI golden checks).
    ///
    /// # Errors
    ///
    /// Propagates impossible cache shapes and invalid simulated rates.
    pub fn standard(quick: bool) -> Result<Self, StudyError> {
        Self::with_shape(
            quick,
            STANDARD_SIZES,
            [TechProfile::sram(), TechProfile::sram()],
        )
    }

    /// [`standard`](Self::standard) with custom level sizes and L1/L2
    /// technologies.
    ///
    /// # Errors
    ///
    /// Propagates impossible cache shapes and invalid simulated rates.
    pub fn with_shape(
        quick: bool,
        sizes: [u64; 3],
        upstream: [TechProfile; 2],
    ) -> Result<Self, StudyError> {
        let (warmup, measure) = if quick {
            (50_000, 100_000)
        } else {
            (300_000, 600_000)
        };
        let params: Vec<CacheParams> = sizes
            .iter()
            .zip(STANDARD_WAYS)
            .map(|(&b, w)| CacheParams::new(b, BLOCK_BYTES, w))
            .collect::<Result<_, _>>()?;
        // Average the chain over the paper's suite trio, like the
        // two-level miss-rate tables.
        let mut rates = [0.0f64; 3];
        let mut write_fraction = 0.0;
        for suite in STANDARD_SUITES {
            let mut w = suite.build(2005);
            let s = simulate_chain(&params, w.as_mut(), warmup, measure)?;
            for (acc, m) in rates.iter_mut().zip(&s.local_miss_rates) {
                *acc += m;
            }
            write_fraction += s.write_fraction;
        }
        let n = STANDARD_SUITES.len() as f64;
        for acc in &mut rates {
            *acc /= n;
        }
        write_fraction /= n;
        Ok(MixedTechStudy {
            tech: TechnologyNode::bptm65(),
            eval: Evaluator::new(KnobGrid::paper()),
            memory: MainMemory::default(),
            sizes,
            upstream,
            rates,
            write_fraction,
        })
    }

    /// The averaged local miss-rate chain `[m1, m2, m3]`.
    pub fn miss_rates(&self) -> [f64; 3] {
        self.rates
    }

    /// Store fraction of the reference stream.
    pub fn write_fraction(&self) -> f64 {
        self.write_fraction
    }

    /// The memoizing evaluator behind the comparison (its
    /// [`stats`](Evaluator::stats) expose surface/front build counters).
    pub fn evaluator(&self) -> &Evaluator {
        &self.eval
    }

    fn level_circuit(&self, i: usize, profile: TechProfile) -> Result<CacheCircuit, StudyError> {
        Ok(CacheCircuit::with_technology(
            CacheConfig::new(self.sizes[i], BLOCK_BYTES, STANDARD_WAYS[i])?,
            &self.tech,
            profile,
        ))
    }

    fn spec(&self, l3: &TechProfile, weights: &[f64]) -> Result<HierarchySpec, StudyError> {
        Ok(HierarchySpec::new()
            .level(
                "L1",
                self.level_circuit(0, self.upstream[0].clone())?,
                Scheme::Split,
                weights[0],
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                self.level_circuit(1, self.upstream[1].clone())?,
                Scheme::Split,
                weights[1],
                CostKind::LeakagePower,
            )
            .level(
                "L3",
                self.level_circuit(2, l3.clone())?,
                Scheme::Split,
                weights[2],
                CostKind::LeakagePower,
            ))
    }

    /// The knob-independent AMAT floor: `m1·m2·m3·t_mem`.
    pub fn amat_floor(&self) -> Seconds {
        self.memory.access_time * (self.rates[0] * self.rates[1] * self.rates[2])
    }

    /// Optimises each L3 technology candidate under one shared iso-AMAT
    /// target — `(1 + slack)` over the *worst* candidate's fastest
    /// achievable AMAT, so the comparison never writes a technology off
    /// as infeasible merely for being slow.
    ///
    /// # Errors
    ///
    /// Propagates invalid miss rates, impossible geometry and surface
    /// failures.
    pub fn compare(
        &self,
        candidates: &[TechProfile],
        slack: f64,
    ) -> Result<MixedOutcome, StudyError> {
        let weights = HierarchySpec::try_amat_weights(&self.rates[..2])?;
        let floor = self.amat_floor();
        let specs: Vec<(TechProfile, HierarchySpec)> = candidates
            .iter()
            .map(|p| Ok((p.clone(), self.spec(p, &weights)?)))
            .collect::<Result<_, StudyError>>()?;
        // The tightest meaningful target per candidate: every level fully
        // aggressive. The shared target adds slack over the slowest one.
        let worst_min = specs
            .iter()
            .map(|(_, spec)| {
                floor.0
                    + spec
                        .levels()
                        .iter()
                        .map(|l| l.circuit().fastest_access_time().0 * l.delay_weight())
                        .sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        let amat_target = Seconds(worst_min * (1.0 + slack));
        let budget = amat_target.0 - floor.0;

        let mut rows = Vec::with_capacity(specs.len());
        for (profile, spec) in &specs {
            let mut row = MixedRow {
                tech: profile.name.clone(),
                m1: self.rates[0],
                m2: self.rates[1],
                m3: self.rates[2],
                amat: None,
                l3_leakage: None,
                total_leakage: None,
                knobs: None,
            };
            if budget > 0.0 {
                if let Some(sol) = self.eval.try_solve(spec, &Deadline(budget))? {
                    let l3_leak = spec.levels()[2]
                        .circuit()
                        .analyze(&sol.knobs[2])
                        .leakage()
                        .total();
                    row.amat = Some(Seconds(floor.0 + sol.delay));
                    row.l3_leakage = Some(l3_leak);
                    row.total_leakage = Some(Watts(sol.cost));
                    row.knobs = Some(sol.knobs);
                }
            }
            rows.push(row);
        }
        let title = format!(
            "E8: 3-level mixed-technology hierarchy (L1 {} KB / L2 {} KB / L3 {} KB, \
             iso-AMAT {:.0} ps)",
            self.sizes[0] / 1024,
            self.sizes[1] / 1024,
            self.sizes[2] / 1024,
            amat_target.picos(),
        );
        Ok(MixedOutcome {
            title,
            amat_target,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> MixedTechStudy {
        MixedTechStudy::standard(true).expect("standard study builds")
    }

    #[test]
    fn chain_rates_are_probabilities() {
        let s = study();
        for m in s.miss_rates() {
            assert!((0.0..=1.0).contains(&m), "rate {m}");
        }
        let wf = s.write_fraction();
        assert!((0.0..=1.0).contains(&wf));
        assert!(s.amat_floor().0 >= 0.0);
    }

    #[test]
    fn all_three_technologies_are_feasible_under_the_shared_target() {
        let s = study();
        let out = s
            .compare(
                &[
                    TechProfile::sram(),
                    TechProfile::edram(),
                    TechProfile::stt_mram(),
                ],
                0.15,
            )
            .unwrap();
        assert_eq!(out.rows.len(), 3);
        for row in &out.rows {
            assert!(row.amat.is_some(), "{} infeasible", row.tech);
            assert!(row.amat.unwrap().0 <= out.amat_target.0 * (1.0 + 1e-9));
            let knobs = row.knobs.as_ref().unwrap();
            assert_eq!(knobs.len(), 3);
            assert!(row.l3_leakage.unwrap().0 <= row.total_leakage.unwrap().0);
        }
        assert!(out.winner().is_some());
    }

    #[test]
    fn low_leakage_technologies_beat_sram_on_power() {
        let s = study();
        let out = s
            .compare(&[TechProfile::sram(), TechProfile::stt_mram()], 0.15)
            .unwrap();
        let sram = out.rows[0].l3_leakage.unwrap().0;
        let mram = out.rows[1].l3_leakage.unwrap().0;
        assert!(
            mram < sram,
            "MRAM L3 leaks {mram} W vs SRAM {sram} W under the same AMAT"
        );
        assert_eq!(out.winner().unwrap().tech, "stt-mram");
    }

    #[test]
    fn table_renders_every_candidate() {
        let s = study();
        let out = s
            .compare(&[TechProfile::sram(), TechProfile::edram()], 0.2)
            .unwrap();
        let text = out.to_table().to_string();
        assert!(text.contains("sram") && text.contains("edram"), "{text}");
        assert!(text.contains("E8"), "{text}");
    }
}
