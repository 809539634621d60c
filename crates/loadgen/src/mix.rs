//! Seeded query-mix synthesis.
//!
//! A mix is a fixed-length sequence of evaluator queries drawn from five
//! classes that stress different engine paths:
//!
//! * **cold** — two-level specs no other query shares (each gets a
//!   unique die temperature derived from its query *index*), so every
//!   replay builds fresh surfaces and a fresh front;
//! * **warm** — exact repeats of one shared *base spec*, served from the
//!   memoized front cache;
//! * **tuple** — restricted solves over the base spec with one fixed
//!   knob-value restriction, exercising the tuple-search merge path;
//! * **adversarial** — the base spec under a deadline orders of
//!   magnitude below its fastest corner, always infeasible;
//! * **mixed** — three-level mixed-technology specs in the E8 shape,
//!   again with per-index unique temperatures.
//!
//! Synthesis is single-threaded and fully determined by `(seed, count)`:
//! the class sequence, every spec, and every deadline replay
//! byte-identically. Cold and mixed specs derive uniqueness from the
//! query index — never the RNG stream position of another class — so the
//! set of circuits evaluated is stable too. Shared-spec classes are
//! *primed* serially by the runner before parallel replay, which keeps
//! hit/built counters independent of thread interleaving.

use nm_cache_core::eval::HierarchySpec;
use nm_cache_core::groups::{CostKind, Scheme};
use nm_cache_core::mixedtech::{STANDARD_SIZES, STANDARD_WAYS};
use nm_cache_core::twolevel::{BLOCK_BYTES, L1_WAYS, L2_WAYS};
use nm_cache_core::StudyError;
use nm_device::units::Kelvin;
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iso-AMAT slack over each spec's fastest corner, as in the campaign
/// cells.
const SLACK: f64 = 0.15;
/// Base-spec die temperature (°C).
const BASE_TEMP_C: f64 = 80.0;
/// L1 miss rate assumed for all two-level specs.
const L1_MISS: f64 = 0.05;
/// L2 local miss rate assumed for all two-level specs.
const L2_LOCAL_MISS: f64 = 0.3;
/// L3 local miss rate assumed for mixed-technology specs.
const L3_LOCAL_MISS: f64 = 0.4;
/// Main-memory access time (seconds): the paper-era DDR part
/// (`MainMemory::ddr_2005`, 45 ns).
const MEMORY_SECONDS: f64 = 45e-9;
/// L2 capacities the cold class samples from.
const COLD_L2_BYTES: [u64; 3] = [128 * 1024, 256 * 1024, 512 * 1024];

/// Which engine path a query exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// A never-seen two-level spec: full surface + front build.
    Cold,
    /// A repeat of the primed base spec: memoized front hit.
    Warm,
    /// A restricted solve (fixed knob-value subsets) over the base spec.
    Tuple,
    /// The base spec under a hopeless deadline: feasibility miss.
    Adversarial,
    /// A three-level mixed-technology spec in the E8 shape.
    Mixed,
}

impl QueryClass {
    /// All classes, in mix-composition display order.
    pub const ALL: [QueryClass; 5] = [
        QueryClass::Cold,
        QueryClass::Warm,
        QueryClass::Tuple,
        QueryClass::Adversarial,
        QueryClass::Mixed,
    ];

    /// Short lowercase label (`cold`, `warm`, …).
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Cold => "cold",
            QueryClass::Warm => "warm",
            QueryClass::Tuple => "tuple",
            QueryClass::Adversarial => "adversarial",
            QueryClass::Mixed => "mixed",
        }
    }

    /// The per-class latency histogram name.
    pub fn latency_name(self) -> &'static str {
        match self {
            QueryClass::Cold => crate::names::LOADGEN_LATENCY_COLD,
            QueryClass::Warm => crate::names::LOADGEN_LATENCY_WARM,
            QueryClass::Tuple => crate::names::LOADGEN_LATENCY_TUPLE,
            QueryClass::Adversarial => crate::names::LOADGEN_LATENCY_ADVERSARIAL,
            QueryClass::Mixed => crate::names::LOADGEN_LATENCY_MIXED,
        }
    }

    /// The per-class query counter name.
    pub fn counter_name(self) -> &'static str {
        match self {
            QueryClass::Cold => crate::names::LOADGEN_CLASS_COLD,
            QueryClass::Warm => crate::names::LOADGEN_CLASS_WARM,
            QueryClass::Tuple => crate::names::LOADGEN_CLASS_TUPLE,
            QueryClass::Adversarial => crate::names::LOADGEN_CLASS_ADVERSARIAL,
            QueryClass::Mixed => crate::names::LOADGEN_CLASS_MIXED,
        }
    }
}

/// The fixed knob-value restriction all tuple queries share: every grid
/// value except the largest on each axis. One shared restriction means
/// every tuple query merges the identical restricted groups from
/// scratch, so merge counters do not depend on replay interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct Restriction {
    /// Allowed `Vth` values (volts).
    pub vths: Vec<f64>,
    /// Allowed `Tox` values (ångströms).
    pub toxes: Vec<f64>,
}

impl Restriction {
    fn from_grid(grid: &KnobGrid) -> Restriction {
        let take = |n: usize| if n > 1 { n - 1 } else { n };
        let vths: Vec<f64> = grid.vth_values().iter().map(|v| v.0).collect();
        let toxes: Vec<f64> = grid.tox_values().iter().map(|t| t.0).collect();
        let nv = take(vths.len());
        let nt = take(toxes.len());
        Restriction {
            vths: vths[..nv].to_vec(),
            toxes: toxes[..nt].to_vec(),
        }
    }
}

/// One replayable query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Position in the mix (drives open-loop arrival times and the
    /// unique temperatures of cold/mixed specs).
    pub index: usize,
    /// Engine path this query exercises.
    pub class: QueryClass,
    /// The hierarchy to optimise.
    pub spec: HierarchySpec,
    /// Deadline budget in weighted-delay seconds.
    pub budget: f64,
    /// Knob-value restriction (tuple class only).
    pub restricted: bool,
}

/// A synthesized mix plus the shared state the runner primes serially.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// The queries, in replay-submission order.
    pub queries: Vec<Query>,
    /// The shared spec warm/tuple/adversarial queries target.
    pub base_spec: HierarchySpec,
    /// The base spec's iso-AMAT budget.
    pub base_budget: f64,
    /// The fixed restriction tuple queries apply to the base spec.
    pub restriction: Restriction,
    counts: [usize; 5],
}

impl QueryMix {
    /// Synthesizes `count` queries from `seed` against `grid`.
    ///
    /// # Errors
    ///
    /// Propagates impossible cache geometry or out-of-range miss rates
    /// from spec construction (none occur for the built-in shapes).
    pub fn synthesize(seed: u64, count: usize, grid: &KnobGrid) -> Result<QueryMix, StudyError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (base_spec, base_budget) = base_spec()?;
        let restriction = Restriction::from_grid(grid);
        let mut queries = Vec::with_capacity(count);
        let mut counts = [0usize; 5];
        for index in 0..count {
            let roll: u32 = rng.gen_range(0..100);
            let class = match roll {
                0..=14 => QueryClass::Cold,
                15..=54 => QueryClass::Warm,
                55..=74 => QueryClass::Tuple,
                75..=89 => QueryClass::Adversarial,
                _ => QueryClass::Mixed,
            };
            let query = match class {
                QueryClass::Cold => cold_query(index, &mut rng)?,
                QueryClass::Warm => Query {
                    index,
                    class,
                    spec: base_spec.clone(),
                    budget: base_budget,
                    restricted: false,
                },
                QueryClass::Tuple => Query {
                    index,
                    class,
                    spec: base_spec.clone(),
                    budget: base_budget,
                    restricted: true,
                },
                QueryClass::Adversarial => {
                    // Log-uniform deadline shrink of 1e-6 .. 1e-2: far
                    // below the fastest corner, so never satisfiable.
                    let factor = 10f64.powf(rng.gen_range(-6.0..-2.0));
                    Query {
                        index,
                        class,
                        spec: base_spec.clone(),
                        budget: base_budget * factor,
                        restricted: false,
                    }
                }
                QueryClass::Mixed => mixed_query(index, &mut rng)?,
            };
            counts[class_slot(class)] += 1;
            queries.push(query);
        }
        Ok(QueryMix {
            queries,
            base_spec,
            base_budget,
            restriction,
            counts,
        })
    }

    /// The mix composition as a stable note string,
    /// `cold=N,warm=N,tuple=N,adversarial=N,mixed=N`.
    pub fn composition(&self) -> String {
        let parts: Vec<String> = QueryClass::ALL
            .iter()
            .map(|&c| format!("{}={}", c.label(), self.counts[class_slot(c)]))
            .collect();
        parts.join(",")
    }
}

fn class_slot(class: QueryClass) -> usize {
    match class {
        QueryClass::Cold => 0,
        QueryClass::Warm => 1,
        QueryClass::Tuple => 2,
        QueryClass::Adversarial => 3,
        QueryClass::Mixed => 4,
    }
}

/// A query's unique die temperature: derived from the query *index*
/// alone so the circuit set is independent of RNG draws made for other
/// classes, and nudged off the base spec's 80 °C so a cold spec can
/// never alias the primed one.
fn unique_temp_c(index: usize) -> f64 {
    let t = 45.0 + index as f64 * 0.01;
    if (t - BASE_TEMP_C).abs() < 1e-9 {
        t + 0.005
    } else {
        t
    }
}

/// Iso-AMAT deadline budget for `spec`: `(1 + SLACK)` over its fastest
/// corner plus the knob-independent memory floor, floor subtracted back
/// out (the evaluator prices weighted cache delay only).
fn iso_amat_budget(spec: &HierarchySpec, floor_seconds: f64) -> f64 {
    let min_weighted: f64 = spec
        .levels()
        .iter()
        .map(|l| l.circuit().fastest_access_time().0 * l.delay_weight())
        .sum();
    (floor_seconds + min_weighted) * (1.0 + SLACK) - floor_seconds
}

/// The shared base spec: the campaign's 16 KB L1 / 256 KB L2 uniform
/// cell at 80 °C.
fn base_spec() -> Result<(HierarchySpec, f64), StudyError> {
    let node = TechnologyNode::bptm65().at_temperature(Kelvin::from_celsius(BASE_TEMP_C));
    let spec = two_level_spec(&node, 16 * 1024, 256 * 1024)?;
    let floor = MEMORY_SECONDS * L1_MISS * L2_LOCAL_MISS;
    let budget = iso_amat_budget(&spec, floor);
    Ok((spec, budget))
}

fn two_level_spec(
    node: &TechnologyNode,
    l1_bytes: u64,
    l2_bytes: u64,
) -> Result<HierarchySpec, StudyError> {
    let l1 = CacheCircuit::new(CacheConfig::new(l1_bytes, BLOCK_BYTES, L1_WAYS)?, node);
    let l2 = CacheCircuit::new(CacheConfig::new(l2_bytes, BLOCK_BYTES, L2_WAYS)?, node);
    let weights = HierarchySpec::try_amat_weights(&[L1_MISS])?;
    Ok(HierarchySpec::new()
        .level(
            "L1",
            l1,
            Scheme::Uniform,
            weights[0],
            CostKind::LeakagePower,
        )
        .level(
            "L2",
            l2,
            Scheme::Uniform,
            weights[1],
            CostKind::LeakagePower,
        ))
}

fn cold_query(index: usize, rng: &mut StdRng) -> Result<Query, StudyError> {
    let node = TechnologyNode::bptm65().at_temperature(Kelvin::from_celsius(unique_temp_c(index)));
    let l2_bytes = COLD_L2_BYTES[rng.gen_range(0..COLD_L2_BYTES.len())];
    let spec = two_level_spec(&node, 16 * 1024, l2_bytes)?;
    let floor = MEMORY_SECONDS * L1_MISS * L2_LOCAL_MISS;
    let budget = iso_amat_budget(&spec, floor);
    Ok(Query {
        index,
        class: QueryClass::Cold,
        spec,
        budget,
        restricted: false,
    })
}

fn mixed_query(index: usize, rng: &mut StdRng) -> Result<Query, StudyError> {
    let node = TechnologyNode::bptm65().at_temperature(Kelvin::from_celsius(unique_temp_c(index)));
    let l3_name = TechProfile::KNOWN_NAMES[rng.gen_range(0..TechProfile::KNOWN_NAMES.len())];
    let l3_profile = TechProfile::by_name(l3_name).unwrap_or_else(TechProfile::sram);
    let profiles = [TechProfile::sram(), TechProfile::sram(), l3_profile];
    let weights = HierarchySpec::try_amat_weights(&[L1_MISS, L2_LOCAL_MISS])?;
    let mut spec = HierarchySpec::new();
    for (i, label) in ["L1", "L2", "L3"].iter().enumerate() {
        let circuit = CacheCircuit::with_technology(
            CacheConfig::new(STANDARD_SIZES[i], BLOCK_BYTES, STANDARD_WAYS[i])?,
            &node,
            profiles[i].clone(),
        );
        spec = spec.level(
            *label,
            circuit,
            Scheme::Split,
            weights[i],
            CostKind::LeakagePower,
        );
    }
    let floor = MEMORY_SECONDS * L1_MISS * L2_LOCAL_MISS * L3_LOCAL_MISS;
    let budget = iso_amat_budget(&spec, floor);
    Ok(Query {
        index,
        class: QueryClass::Mixed,
        spec,
        budget,
        restricted: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_mix() {
        let grid = KnobGrid::coarse();
        let a = QueryMix::synthesize(7, 40, &grid).expect("mix");
        let b = QueryMix::synthesize(7, 40, &grid).expect("mix");
        assert_eq!(a.composition(), b.composition());
        assert_eq!(a.queries.len(), 40);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.class, qb.class);
            assert_eq!(qa.spec, qb.spec);
            assert!(qa.budget.total_cmp(&qb.budget).is_eq());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let grid = KnobGrid::coarse();
        let a = QueryMix::synthesize(1, 60, &grid).expect("mix");
        let b = QueryMix::synthesize(2, 60, &grid).expect("mix");
        let same_classes = a
            .queries
            .iter()
            .zip(&b.queries)
            .all(|(qa, qb)| qa.class == qb.class);
        assert!(!same_classes, "seeds 1 and 2 produced identical mixes");
    }

    #[test]
    fn shared_classes_reuse_the_base_spec() {
        let grid = KnobGrid::coarse();
        let mix = QueryMix::synthesize(2005, 80, &grid).expect("mix");
        for q in &mix.queries {
            match q.class {
                QueryClass::Warm | QueryClass::Tuple | QueryClass::Adversarial => {
                    assert_eq!(q.spec, mix.base_spec, "query {} shares base", q.index);
                }
                QueryClass::Cold | QueryClass::Mixed => {
                    assert_ne!(q.spec, mix.base_spec, "query {} is unique", q.index);
                }
            }
            if q.class == QueryClass::Adversarial {
                assert!(q.budget < mix.base_budget * 0.011);
            }
        }
    }

    #[test]
    fn cold_specs_are_pairwise_distinct() {
        let grid = KnobGrid::coarse();
        let mix = QueryMix::synthesize(11, 120, &grid).expect("mix");
        let uniques: Vec<&Query> = mix
            .queries
            .iter()
            .filter(|q| matches!(q.class, QueryClass::Cold | QueryClass::Mixed))
            .collect();
        for (i, a) in uniques.iter().enumerate() {
            for b in &uniques[i + 1..] {
                assert_ne!(a.spec, b.spec, "queries {} and {}", a.index, b.index);
            }
        }
    }

    #[test]
    fn restriction_drops_the_largest_knob_values() {
        let grid = KnobGrid::coarse();
        let r = Restriction::from_grid(&grid);
        assert_eq!(r.vths.len(), grid.vth_values().len() - 1);
        assert_eq!(r.toxes.len(), grid.tox_values().len() - 1);
    }
}
