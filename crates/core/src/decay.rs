//! Extension study: process knobs versus cache decay (gated-Vdd).
//!
//! The leakage work the paper cites (\[2\], \[5\], \[6\]) attacks the problem
//! architecturally — power-gate idle lines — while the paper attacks it
//! with process knobs. This study puts both on one axis for a single
//! cache at an iso-delay constraint:
//!
//! 1. **performance process** — every component at the fastest corner
//!    (the do-nothing baseline),
//! 2. **decay only** — fastest corner plus the best decay interval
//!    (prior art),
//! 3. **knobs only** — the paper's Scheme II optimum,
//! 4. **combined** — Scheme II optimum plus decay.
//!
//! Decay gates the cell array only (periphery cannot lose state), scales
//! the array leakage by the simulated alive fraction, and pays for its
//! induced misses with refill energy.

use crate::groups::Scheme;
use crate::report::{cell, Table};
use crate::single::SingleCacheStudy;
use crate::StudyError;
use nm_archsim::cache::CacheParams;
use nm_archsim::decay::DecaySim;
use nm_archsim::workload::SuiteKind;
use nm_device::units::{Joules, Seconds, Watts};
use nm_device::KnobPoint;
use nm_geometry::{ComponentId, ComponentKnobs, COMPONENT_IDS};

/// One technique's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueRow {
    /// Technique label.
    pub name: String,
    /// Static leakage after gating (array scaled by the alive fraction).
    pub leakage: Watts,
    /// Decay-induced miss rate (0 without decay).
    pub decay_miss_rate: f64,
    /// Average power spent refilling decayed lines.
    pub miss_power: Watts,
    /// Leakage plus refill power — the comparison metric.
    pub total_power: Watts,
}

/// Simulated decay behaviour of one interval on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayOutcome {
    /// Decay interval in references.
    pub interval: u64,
    /// Time-averaged powered-on fraction of the array.
    pub alive_fraction: f64,
    /// Decay-induced misses per reference.
    pub decay_miss_rate: f64,
}

/// The knobs-vs-decay study.
#[derive(Debug, Clone)]
pub struct DecayStudy {
    study: SingleCacheStudy,
    suite: SuiteKind,
    /// References simulated per decay interval.
    pub sim_length: u64,
    /// Mean time between references to this cache.
    pub access_period: Seconds,
    /// Energy to refill one decayed line from the next level.
    pub refill_energy: Joules,
    /// Candidate decay intervals (references).
    pub intervals: Vec<u64>,
}

impl DecayStudy {
    /// Creates the study with literature-typical defaults: one reference
    /// every 2 ns, 5 pJ per refill, intervals from 256 to 64 Ki
    /// references.
    pub fn new(study: SingleCacheStudy, suite: SuiteKind, sim_length: u64) -> Self {
        DecayStudy {
            study,
            suite,
            sim_length,
            access_period: Seconds::from_nanos(2.0),
            refill_energy: Joules::from_picos(5.0),
            intervals: vec![256, 1024, 4096, 16 * 1024, 64 * 1024],
        }
    }

    /// The underlying single-cache study.
    pub fn study(&self) -> &SingleCacheStudy {
        &self.study
    }

    /// Simulates one decay interval on the study's cache geometry.
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: geometry configs are legal
    pub fn simulate_interval(&self, interval: u64) -> DecayOutcome {
        let config = self.study.circuit().config();
        let params = CacheParams::new(
            config.size_bytes(),
            config.block_bytes(),
            config.associativity(),
        )
        .expect("geometry configs are legal simulator configs");
        let mut sim = DecaySim::new(params, interval);
        let mut workload = self.suite.build(2005);
        for _ in 0..self.sim_length {
            sim.access(workload.next_access());
        }
        let s = sim.stats();
        DecayOutcome {
            interval,
            alive_fraction: s.alive_fraction(),
            decay_miss_rate: s.decay_miss_rate(),
        }
    }

    /// Picks the interval minimising `alive·array_leakage + refill power`
    /// for a given array leakage, from precomputed interval outcomes.
    #[allow(clippy::expect_used)] // fingerprinted in analyze.allow: interval list non-empty
    fn best_outcome(
        outcomes: &[DecayOutcome],
        array_leakage: Watts,
        refill: impl Fn(f64) -> Watts,
    ) -> DecayOutcome {
        *outcomes
            .iter()
            .min_by(|a, b| {
                let cost = |o: &DecayOutcome| {
                    array_leakage.0 * o.alive_fraction + refill(o.decay_miss_rate).0
                };
                cost(a).total_cmp(&cost(b))
            })
            .expect("interval list is non-empty")
    }

    fn refill_power(&self, decay_miss_rate: f64) -> Watts {
        Watts(decay_miss_rate * self.refill_energy.0 / self.access_period.0)
    }

    fn row(
        &self,
        name: &str,
        knobs: &ComponentKnobs,
        decay: Option<&DecayOutcome>,
    ) -> TechniqueRow {
        let circuit = self.study.circuit();
        let metrics = circuit.analyze(knobs);
        let array = metrics.component(ComponentId::MemoryArray).leakage.total();
        let periphery: Watts = COMPONENT_IDS
            .iter()
            .filter(|id| id.is_peripheral())
            .map(|&id| metrics.component(id).leakage.total())
            .sum();
        let (alive, dmr) = decay.map_or((1.0, 0.0), |o| (o.alive_fraction, o.decay_miss_rate));
        let leakage = array * alive + periphery;
        let miss_power = self.refill_power(dmr);
        TechniqueRow {
            name: name.to_owned(),
            leakage,
            decay_miss_rate: dmr,
            miss_power,
            total_power: leakage + miss_power,
        }
    }

    /// Evaluates all four techniques at one delay constraint. Returns
    /// `Ok(None)` when the constraint is infeasible for the knob
    /// optimiser.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from [`SingleCacheStudy::optimize`].
    pub fn evaluate(&self, deadline: Seconds) -> Result<Option<Vec<TechniqueRow>>, StudyError> {
        let fastest = ComponentKnobs::uniform(KnobPoint::fastest());
        let Some(optimum) = self.study.optimize(Scheme::Split, deadline)? else {
            return Ok(None);
        };

        // Decay behaviour is knob-independent (intervals are in
        // references), so each interval is simulated once; the *best*
        // interval depends on the array leakage it is gating.
        let outcomes: Vec<DecayOutcome> = self
            .intervals
            .iter()
            .map(|&i| self.simulate_interval(i))
            .collect();
        let fast_metrics = self.study.circuit().analyze(&fastest);
        let fast_array = fast_metrics
            .component(ComponentId::MemoryArray)
            .leakage
            .total();
        let opt_array = self
            .study
            .circuit()
            .analyze(&optimum.knobs)
            .component(ComponentId::MemoryArray)
            .leakage
            .total();
        let refill = |dmr: f64| self.refill_power(dmr);
        let decay_for_fast = Self::best_outcome(&outcomes, fast_array, refill);
        let decay_for_opt = Self::best_outcome(&outcomes, opt_array, refill);

        Ok(Some(vec![
            self.row("performance process", &fastest, None),
            self.row("decay only", &fastest, Some(&decay_for_fast)),
            self.row("knobs only (Scheme II)", &optimum.knobs, None),
            self.row("knobs + decay", &optimum.knobs, Some(&decay_for_opt)),
        ]))
    }

    /// Renders the comparison as a table (powers in mW); an infeasible
    /// deadline renders no rows.
    ///
    /// # Errors
    ///
    /// Any evaluation failure from [`evaluate`](Self::evaluate).
    pub fn to_table(&self, deadline: Seconds) -> Result<Table, StudyError> {
        let mut t = Table::new(
            format!(
                "Process knobs vs cache decay, {} at ≤ {:.0} ps ({} workload)",
                self.study.circuit().config(),
                deadline.picos(),
                self.suite.name()
            ),
            &[
                "technique",
                "leakage (mW)",
                "decay miss rate",
                "refill power (mW)",
                "total (mW)",
            ],
        );
        if let Some(rows) = self.evaluate(deadline)? {
            for r in rows {
                t.push_row(vec![
                    r.name,
                    cell(r.leakage.milli(), 3),
                    cell(r.decay_miss_rate, 5),
                    cell(r.miss_power.milli(), 3),
                    cell(r.total_power.milli(), 3),
                ]);
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::{KnobGrid, TechnologyNode};
    use nm_geometry::CacheConfig;
    use std::sync::OnceLock;

    fn study() -> &'static DecayStudy {
        static STUDY: OnceLock<DecayStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            let tech = TechnologyNode::bptm65();
            let single = SingleCacheStudy::new(
                CacheConfig::new(16 * 1024, 64, 4).unwrap(),
                &tech,
                KnobGrid::coarse(),
            );
            DecayStudy::new(single, SuiteKind::Spec2000, 60_000)
        })
    }

    fn rows() -> Vec<TechniqueRow> {
        let s = study();
        let deadline = s.study().delay_sweep(5)[2];
        s.evaluate(deadline)
            .expect("healthy build")
            .expect("mid deadline feasible")
    }

    #[test]
    fn four_techniques_reported() {
        let r = rows();
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|t| t.total_power.0 > 0.0));
    }

    #[test]
    fn decay_beats_doing_nothing() {
        let r = rows();
        assert!(
            r[1].total_power.0 < r[0].total_power.0,
            "decay {} ≥ baseline {}",
            r[1].total_power.milli(),
            r[0].total_power.milli()
        );
    }

    #[test]
    fn knobs_beat_decay_at_iso_delay() {
        // The paper's central position: at 65 nm with total leakage in
        // play, process knobs buy far more than line gating.
        let r = rows();
        assert!(
            r[2].total_power.0 < r[1].total_power.0,
            "knobs {} ≥ decay {}",
            r[2].total_power.milli(),
            r[1].total_power.milli()
        );
    }

    #[test]
    fn combined_never_worse_than_knobs_alone() {
        let r = rows();
        assert!(r[3].total_power.0 <= r[2].total_power.0 * 1.001);
    }

    #[test]
    fn decay_rows_report_their_miss_rate() {
        let r = rows();
        assert_eq!(r[0].decay_miss_rate, 0.0);
        assert!(r[1].decay_miss_rate >= 0.0);
        assert_eq!(r[2].decay_miss_rate, 0.0);
    }

    #[test]
    fn table_renders_four_rows() {
        let s = study();
        let deadline = s.study().delay_sweep(5)[2];
        assert_eq!(s.to_table(deadline).expect("healthy build").len(), 4);
    }

    #[test]
    fn interval_simulation_is_sane() {
        let s = study();
        let o = s.simulate_interval(1024);
        assert!((0.0..=1.0).contains(&o.alive_fraction));
        assert!((0.0..=1.0).contains(&o.decay_miss_rate));
        assert_eq!(o.interval, 1024);
    }
}
