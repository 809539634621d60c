//! Subarray-organisation exploration (the Ndwl/Ndbl search of
//! CACTI-class tools).
//!
//! The default folding in [`crate::config::Organization`] is a fixed
//! heuristic; this module enumerates every legal folding and ranks them
//! under a chosen objective at the nominal process corner, so a designer
//! can trade access time against access energy before the knob
//! optimisation even starts.

use crate::cache::{CacheCircuit, CacheMetrics};
use crate::config::{CacheConfig, Organization};
use nm_device::{KnobPoint, TechnologyNode};
use nm_sweep::ParallelSweep;

/// Ranking objective for the organisation search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimise access time.
    AccessTime,
    /// Minimise dynamic read energy.
    ReadEnergy,
    /// Minimise the energy–delay product.
    EnergyDelay,
}

impl Objective {
    fn score(self, m: &CacheMetrics) -> f64 {
        match self {
            Objective::AccessTime => m.access_time().0,
            Objective::ReadEnergy => m.read_energy().0,
            Objective::EnergyDelay => m.access_time().0 * m.read_energy().0,
        }
    }
}

/// One explored folding with its nominal-corner metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploredOrganization {
    /// The folding.
    pub org: Organization,
    /// Metrics at the nominal corner under a uniform assignment.
    pub metrics: CacheMetrics,
    /// The objective value it was ranked by.
    pub score: f64,
}

/// Evaluates every legal folding of `config` at the nominal corner and
/// returns them sorted ascending by `objective`.
///
/// ```
/// use nm_device::TechnologyNode;
/// use nm_geometry::explore::{explore, Objective};
/// use nm_geometry::CacheConfig;
///
/// let tech = TechnologyNode::bptm65();
/// let ranked = explore(CacheConfig::new(32 * 1024, 64, 4)?, &tech, Objective::AccessTime);
/// assert!(ranked.len() > 1);
/// assert!(ranked[0].score <= ranked[1].score);
/// # Ok::<(), nm_geometry::GeometryError>(())
/// ```
pub fn explore(
    config: CacheConfig,
    tech: &TechnologyNode,
    objective: Objective,
) -> Vec<ExploredOrganization> {
    let knobs = crate::assignment::ComponentKnobs::uniform(KnobPoint::nominal());
    let candidates = Organization::candidates(config);
    let mut out: Vec<ExploredOrganization> =
        ParallelSweep::new()
            .labeled("fold-explore")
            .map(&candidates, |&org| {
                let circuit = CacheCircuit::with_organization(config, tech, org);
                let metrics = circuit.analyze(&knobs);
                let score = objective.score(&metrics);
                ExploredOrganization {
                    org,
                    metrics,
                    score,
                }
            });
    out.sort_by(|a, b| a.score.total_cmp(&b.score));
    out
}

/// The best folding under an objective (`None` only for configurations
/// with no legal folding, which [`CacheConfig`] validation precludes).
pub fn best(
    config: CacheConfig,
    tech: &TechnologyNode,
    objective: Objective,
) -> Option<ExploredOrganization> {
    explore(config, tech, objective).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CacheConfig {
        CacheConfig::new(64 * 1024, 64, 4).unwrap()
    }

    #[test]
    fn exploration_finds_multiple_foldings() {
        let tech = TechnologyNode::bptm65();
        let all = explore(config(), &tech, Objective::AccessTime);
        assert!(all.len() >= 4, "only {} foldings", all.len());
        // Sorted ascending.
        for w in all.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
        // Every folding conserves cells.
        for e in &all {
            assert_eq!(
                e.org.rows * e.org.cols * e.org.subarrays,
                config().size_bytes() * 8
            );
        }
    }

    #[test]
    fn best_by_delay_beats_or_matches_the_default_heuristic() {
        let tech = TechnologyNode::bptm65();
        let default_metrics = CacheCircuit::new(config(), &tech).analyze(
            &crate::assignment::ComponentKnobs::uniform(KnobPoint::nominal()),
        );
        let best = best(config(), &tech, Objective::AccessTime).unwrap();
        assert!(
            best.metrics.access_time().0 <= default_metrics.access_time().0 + 1e-15,
            "explorer {} ps worse than heuristic {} ps",
            best.metrics.access_time().picos(),
            default_metrics.access_time().picos()
        );
    }

    #[test]
    fn objectives_rank_differently() {
        let tech = TechnologyNode::bptm65();
        let by_time = best(config(), &tech, Objective::AccessTime).unwrap();
        let by_energy = best(config(), &tech, Objective::ReadEnergy).unwrap();
        // The energy-optimal folding must not beat the time-optimal one on
        // time (and vice versa) — sanity of the ranking.
        assert!(by_time.metrics.access_time().0 <= by_energy.metrics.access_time().0 + 1e-15);
        assert!(by_energy.metrics.read_energy().0 <= by_time.metrics.read_energy().0 + 1e-15);
    }

    #[test]
    fn edp_is_between_the_extremes() {
        let tech = TechnologyNode::bptm65();
        let t = best(config(), &tech, Objective::AccessTime).unwrap();
        let e = best(config(), &tech, Objective::ReadEnergy).unwrap();
        let edp = best(config(), &tech, Objective::EnergyDelay).unwrap();
        let score = |m: &CacheMetrics| m.access_time().0 * m.read_energy().0;
        assert!(edp.score <= score(&t.metrics) + 1e-30);
        assert!(edp.score <= score(&e.metrics) + 1e-30);
    }

    #[test]
    fn custom_circuit_reports_its_organization() {
        let tech = TechnologyNode::bptm65();
        let org = Organization::custom(config(), 128, 64).unwrap();
        let circuit = CacheCircuit::with_organization(config(), &tech, org);
        assert_eq!(circuit.organization(), org);
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn mismatched_organization_panics() {
        let tech = TechnologyNode::bptm65();
        let other = CacheConfig::new(32 * 1024, 64, 4).unwrap();
        let org = Organization::custom(other, 128, 64).unwrap();
        let _ = CacheCircuit::with_organization(config(), &tech, org);
    }
}
