//! Property-based tests over the core invariants, spanning crates.

use nmcache::archsim::cache::{CacheParams, CacheSim};
use nmcache::archsim::Access;
use nmcache::device::units::{Angstroms, Microns, Volts};
use nmcache::device::{KnobPoint, Mosfet, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nmcache::opt::constraint::best_under_deadline;
use nmcache::opt::merge::{FrontPoint, MergeBase};
use nmcache::opt::pareto::{dominates, prune};
use nmcache::opt::{Candidate, Group};
use proptest::prelude::*;

/// The front when every group shares one knob pair (a fully tied
/// system), matched across groups by knob equality.
fn tied_front(groups: &[Group]) -> Vec<FrontPoint> {
    let mut sums: Vec<Candidate> = groups[0].candidates().to_vec();
    for group in &groups[1..] {
        for (acc, c) in sums.iter_mut().zip(group.candidates()) {
            assert_eq!(acc.knobs, c.knobs, "tied groups must share one grid");
            acc.delay += c.delay;
            acc.cost += c.cost;
        }
    }
    prune(&sums)
        .into_iter()
        .map(|c| FrontPoint {
            delay: c.delay,
            cost: c.cost,
            choice: vec![c.knobs; groups.len()],
        })
        .collect()
}

fn arb_knobs() -> impl Strategy<Value = KnobPoint> {
    (0.2f64..=0.5, 10.0f64..=14.0)
        .prop_map(|(v, t)| KnobPoint::new(Volts(v), Angstroms(t)).expect("in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any legal knob point produces finite, strictly positive cache
    /// metrics — no NaN/zero escapes the model on any input.
    #[test]
    fn cache_metrics_always_finite_and_positive(p in arb_knobs()) {
        let tech = TechnologyNode::bptm65();
        let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).unwrap(), &tech);
        let m = circuit.analyze(&ComponentKnobs::uniform(p));
        prop_assert!(m.access_time().0.is_finite() && m.access_time().0 > 0.0);
        prop_assert!(m.leakage().total().0.is_finite() && m.leakage().total().0 > 0.0);
        prop_assert!(m.read_energy().0.is_finite() && m.read_energy().0 > 0.0);
        prop_assert!(m.area().0.is_finite() && m.area().0 > 0.0);
    }

    /// Leakage decreases monotonically in Vth at fixed Tox (total across
    /// mechanisms), for any transistor width.
    #[test]
    fn transistor_leakage_monotone_in_vth(
        width in 0.1f64..4.0,
        tox in 10.0f64..=14.0,
        v_lo in 0.2f64..0.44,
        dv in 0.02f64..0.06,
    ) {
        let tech = TechnologyNode::bptm65();
        let lo = KnobPoint::new(Volts(v_lo), Angstroms(tox)).unwrap();
        let hi = KnobPoint::new(Volts(v_lo + dv), Angstroms(tox)).unwrap();
        let l = tech.drawn_length(lo.tox());
        let m_lo = Mosfet::nmos(Microns(width), l, lo);
        let m_hi = Mosfet::nmos(Microns(width), l, hi);
        prop_assert!(m_hi.leakage(&tech).total().0 < m_lo.leakage(&tech).total().0);
    }

    /// Drive current decreases in Vth and in Tox (thicker oxide, longer
    /// channel) — so effective resistance increases.
    #[test]
    fn resistance_monotone_in_both_knobs(
        v in 0.2f64..0.45,
        t in 10.0f64..13.0,
    ) {
        let tech = TechnologyNode::bptm65();
        let base = KnobPoint::new(Volts(v), Angstroms(t)).unwrap();
        let more_v = KnobPoint::new(Volts(v + 0.05), Angstroms(t)).unwrap();
        let more_t = KnobPoint::new(Volts(v), Angstroms(t + 1.0)).unwrap();
        let r = |p: KnobPoint| {
            Mosfet::nmos(Microns(1.0), tech.drawn_length(p.tox()), p)
                .effective_resistance(&tech)
                .0
        };
        prop_assert!(r(more_v) > r(base));
        prop_assert!(r(more_t) > r(base));
    }

    /// Whole-cache monotonicity: a uniformly more conservative assignment
    /// never leaks more and is never faster.
    #[test]
    fn cache_metrics_monotone_under_uniform_knobs(
        v in 0.2f64..0.44,
        t in 10.0f64..13.0,
        size_log2 in 13u32..19, // 8 KB .. 256 KB
    ) {
        let tech = TechnologyNode::bptm65();
        let config = CacheConfig::new(1u64 << size_log2, 64, 4).unwrap();
        let circuit = CacheCircuit::new(config, &tech);
        let a = KnobPoint::new(Volts(v), Angstroms(t)).unwrap();
        let b = KnobPoint::new(Volts(v + 0.05), Angstroms(t + 1.0)).unwrap();
        let ma = circuit.analyze(&ComponentKnobs::uniform(a));
        let mb = circuit.analyze(&ComponentKnobs::uniform(b));
        prop_assert!(mb.leakage().total().0 < ma.leakage().total().0);
        prop_assert!(mb.access_time().0 > ma.access_time().0);
    }

    /// Pareto pruning: no survivor dominates another, and every pruned
    /// candidate is dominated by (or duplicates) some survivor.
    #[test]
    fn prune_is_sound_and_complete(
        raw in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..60)
    ) {
        let cands: Vec<Candidate> = raw
            .iter()
            .map(|&(d, c)| Candidate::new(KnobPoint::nominal(), d, c))
            .collect();
        let front = prune(&cands);
        prop_assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(a, b));
                }
            }
        }
        for c in &cands {
            let covered = front.iter().any(|f| {
                dominates(f, c) || (f.delay == c.delay && f.cost == c.cost)
            });
            prop_assert!(covered, "{c:?} neither kept nor dominated");
        }
    }

    /// The merge solver equals brute force on random 3-group systems, for
    /// every feasible deadline.
    #[test]
    fn merge_equals_brute_force(
        g1 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..8),
        g2 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..8),
        g3 in prop::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..8),
        deadline in 1.0f64..30.0,
    ) {
        let mk = |pts: &[(f64, f64)], name: &str| {
            Group::new(
                name,
                pts.iter()
                    .map(|&(d, c)| Candidate::new(KnobPoint::nominal(), d, c))
                    .collect(),
            )
        };
        let groups = vec![mk(&g1, "a"), mk(&g2, "b"), mk(&g3, "c")];
        let front = MergeBase::try_new(&groups)
            .expect("non-empty system")
            .front();

        let mut brute = f64::INFINITY;
        for a in &g1 {
            for b in &g2 {
                for c in &g3 {
                    if a.0 + b.0 + c.0 <= deadline {
                        brute = brute.min(a.1 + b.1 + c.1);
                    }
                }
            }
        }
        let merged = best_under_deadline(&front, deadline).map(|p| p.cost);
        match merged {
            Some(m) => prop_assert!((m - brute).abs() < 1e-9, "merge {m} vs brute {brute}"),
            None => prop_assert!(brute.is_infinite()),
        }
    }

    /// Tying groups to one knob never beats the untied optimum.
    #[test]
    fn tied_never_beats_untied(
        costs in prop::collection::vec((0.1f64..5.0, 0.1f64..5.0, 0.1f64..5.0, 0.1f64..5.0), 3..10),
        deadline in 2.0f64..25.0,
    ) {
        // Two groups over the same "grid": candidate i of each group
        // shares a knob identity (delays/costs differ per group).
        let grid: Vec<KnobPoint> = (0..costs.len())
            .map(|i| {
                KnobPoint::new(
                    Volts(0.2 + 0.3 * i as f64 / costs.len() as f64),
                    Angstroms(10.0),
                )
                .unwrap()
            })
            .collect();
        let ga = Group::new(
            "a",
            costs
                .iter()
                .zip(&grid)
                .map(|(&(d, c, _, _), &k)| Candidate::new(k, d, c))
                .collect(),
        );
        let gb = Group::new(
            "b",
            costs
                .iter()
                .zip(&grid)
                .map(|(&(_, _, d, c), &k)| Candidate::new(k, d, c))
                .collect(),
        );
        let tied = tied_front(&[ga.clone(), gb.clone()]);
        let free = MergeBase::try_new(&[ga, gb])
            .expect("non-empty system")
            .front();
        let best_tied = best_under_deadline(&tied, deadline).map(|p| p.cost);
        let best_free = best_under_deadline(&free, deadline).map(|p| p.cost);
        if let Some(t) = best_tied {
            let f = best_free.expect("tied feasible implies untied feasible");
            prop_assert!(f <= t + 1e-9);
        }
    }

    /// Cache simulator: miss count never exceeds accesses, and a repeat
    /// of the same trace on a fresh cache gives identical stats.
    #[test]
    fn simulator_sane_on_random_traces(
        addrs in prop::collection::vec(0u64..(1 << 22), 50..400),
        ways_log2 in 0u32..3,
    ) {
        let params = CacheParams::new(8 * 1024, 64, 1 << ways_log2).unwrap();
        let run = || {
            let mut sim = CacheSim::new(params);
            for &a in &addrs {
                sim.access(Access::read(a));
            }
            sim.stats()
        };
        let s1 = run();
        let s2 = run();
        prop_assert_eq!(s1, s2);
        prop_assert!(s1.misses <= s1.accesses);
        prop_assert_eq!(s1.accesses, addrs.len() as u64);
        // Every distinct block costs at least one compulsory miss.
        let mut blocks: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        blocks.sort_unstable();
        blocks.dedup();
        prop_assert!(s1.misses >= blocks.len() as u64);
    }

    /// LRU containment on a shared trace: a cache with double the ways at
    /// the same set count never misses more (inclusion property holds per
    /// set for LRU).
    #[test]
    fn lru_inclusion_in_associativity(
        addrs in prop::collection::vec(0u64..(1 << 20), 100..400),
    ) {
        // Same number of sets (32), doubled ways => doubled capacity.
        let small = CacheParams::new(4 * 1024, 64, 2).unwrap();
        let big = CacheParams::new(8 * 1024, 64, 4).unwrap();
        assert_eq!(small.sets(), big.sets());
        let run = |p: CacheParams| {
            let mut sim = CacheSim::new(p);
            for &a in &addrs {
                sim.access(Access::read(a));
            }
            sim.stats().misses
        };
        prop_assert!(run(big) <= run(small));
    }
}
