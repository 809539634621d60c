//! Synthetic workload generators standing in for the paper's benchmark
//! suites.
//!
//! The paper gathers cache statistics from "various benchmark suites such
//! as SPEC2000, SPECWEB, TPC/C, etc.". Those traces are not
//! redistributable, so each suite is replaced by a generator reproducing
//! the locality structure the downstream study depends on:
//!
//! * [`SpecLoops`] — loop nests over fixed arrays with a hot stack: high
//!   L1 hit rates that barely move from 4 K to 64 K (the paper's
//!   observation for L1), plus streaming reuse that a multi-megabyte L2
//!   captures.
//! * [`TpccZipf`] — Zipf-distributed record and B-tree-index touches over
//!   a large table plus a sequential log: L2 miss rate falls gradually
//!   with size (diminishing returns — the shape behind the paper's "bigger
//!   L2 wins, up to a point").
//! * [`WebStream`] — Zipf document popularity with sequential scans per
//!   request and a hot metadata set.
//! * [`PointerChase`] — uniformly random dependent loads over a large
//!   heap; the pathological tail that keeps very large L2s from being
//!   free.
//!
//! All generators are deterministic for a given seed.

use crate::access::{Access, AccessKind};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, endless reference-stream generator.
pub trait Workload {
    /// Produces the next memory reference.
    fn next_access(&mut self) -> Access;

    /// Short suite name for reports.
    fn name(&self) -> &'static str;
}

/// A probabilistic mixture of workloads: each reference is drawn from one
/// component, chosen by weight (models multiprogrammed reference streams
/// sharing a cache).
pub struct Mix {
    components: Vec<(f64, Box<dyn Workload + Send>)>,
    /// Sum of the weights, in component order.
    total: f64,
    rng: StdRng,
}

impl Mix {
    /// Builds a mixture from `(weight, workload)` pairs; weights are
    /// normalised internally.
    ///
    /// # Panics
    ///
    /// Panics when `components` is empty or any weight is non-positive or
    /// non-finite.
    pub fn new(components: Vec<(f64, Box<dyn Workload + Send>)>, seed: u64) -> Self {
        assert!(!components.is_empty(), "a mix needs at least one component");
        assert!(
            components.iter().all(|(w, _)| w.is_finite() && *w > 0.0),
            "mix weights must be positive and finite"
        );
        Mix {
            total: components.iter().map(|(w, _)| w).sum(),
            components,
            rng: StdRng::seed_from_u64(seed ^ 0x1313),
        }
    }

    /// Number of component workloads.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always `false` (construction rejects empty mixes).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl std::fmt::Debug for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mix")
            .field("components", &self.components.len())
            .finish()
    }
}

impl Workload for Mix {
    fn next_access(&mut self) -> Access {
        let mut draw = self.rng.gen::<f64>() * self.total;
        // Rounding can leave `draw` above zero after the last weight: the
        // last component takes that remainder.
        let pick = self
            .components
            .iter()
            .position(|(w, _)| {
                draw -= w;
                draw <= 0.0
            })
            .unwrap_or(self.components.len() - 1);
        self.components[pick].1.next_access()
    }

    fn name(&self) -> &'static str {
        "mix"
    }
}

/// The benchmark-suite mix of the paper, as named generator constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// SPEC CPU2000-like loop nests.
    Spec2000,
    /// TPC-C-like transaction processing.
    TpcC,
    /// SPECWEB-like request serving.
    SpecWeb,
    /// Pointer-chasing stressor (mcf/health-like tail).
    PointerChase,
}

impl SuiteKind {
    /// Every suite, in canonical order.
    pub const ALL: [SuiteKind; 4] = [
        SuiteKind::Spec2000,
        SuiteKind::TpcC,
        SuiteKind::SpecWeb,
        SuiteKind::PointerChase,
    ];

    /// Instantiates the generator for this suite.
    pub fn build(self, seed: u64) -> Box<dyn Workload + Send> {
        match self {
            SuiteKind::Spec2000 => Box::new(SpecLoops::default_suite(seed)),
            SuiteKind::TpcC => Box::new(TpccZipf::default_suite(seed)),
            SuiteKind::SpecWeb => Box::new(WebStream::default_suite(seed)),
            SuiteKind::PointerChase => Box::new(PointerChase::default_suite(seed)),
        }
    }

    /// Parses a suite by its [`name`](Self::name) (case-insensitive,
    /// with or without the "-like" suffix).
    pub fn from_name(name: &str) -> Option<SuiteKind> {
        let n = name.to_ascii_lowercase();
        let n = n.strip_suffix("-like").unwrap_or(&n);
        match n {
            "spec2000" | "spec" => Some(SuiteKind::Spec2000),
            "tpcc" | "tpc-c" => Some(SuiteKind::TpcC),
            "specweb" | "web" => Some(SuiteKind::SpecWeb),
            "pointer-chase" | "pchase" => Some(SuiteKind::PointerChase),
            _ => None,
        }
    }

    /// Suite name.
    pub fn name(self) -> &'static str {
        match self {
            SuiteKind::Spec2000 => "spec2000-like",
            SuiteKind::TpcC => "tpcc-like",
            SuiteKind::SpecWeb => "specweb-like",
            SuiteKind::PointerChase => "pointer-chase",
        }
    }
}

// Address-space bases keep the regions of one generator disjoint.
const STACK_BASE: u64 = 0x7f00_0000_0000;
const HOT_BASE: u64 = 0x1000_0000;
const ARRAY_BASE: u64 = 0x2000_0000;
const HEAP_BASE: u64 = 0x4000_0000;

/// SPEC CPU2000-like loop-nest generator. See the module docs.
#[derive(Debug, Clone)]
pub struct SpecLoops {
    rng: StdRng,
    /// Bytes per streamed array.
    array_bytes: u64,
    /// Number of streamed arrays (round-robin loop nests).
    arrays: u64,
    /// Sequential cursor within the current array.
    cursor: u64,
    /// Current array index.
    current: u64,
    /// Hot-tile size in bytes (fits even the smallest L1).
    hot_bytes: u64,
    /// Warm-region size in bytes (fits mid-size L1s only).
    warm_bytes: u64,
    /// Stack size in bytes.
    stack_bytes: u64,
}

impl SpecLoops {
    /// The default parameterisation: three 512 KB streamed arrays, a 1 KB
    /// blocked tile, a 16 KB warm region and a 1 KB stack — chosen so the
    /// L1 miss rate is low and nearly flat from 4 K to 64 K, matching the
    /// paper's observation.
    pub fn default_suite(seed: u64) -> Self {
        SpecLoops {
            rng: StdRng::seed_from_u64(seed ^ 0x5bec),
            array_bytes: 512 * 1024,
            arrays: 3,
            cursor: 0,
            current: 0,
            hot_bytes: 1024,
            warm_bytes: 16 * 1024,
            stack_bytes: 1024,
        }
    }

    /// A variant with a custom streamed footprint: `arrays` arrays of
    /// `array_bytes` each and a `warm_bytes` reuse region (stack and tile
    /// stay at their defaults). Lets studies scale the L2-relevant working
    /// set.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero or not 8-byte aligned.
    pub fn with_footprint(seed: u64, array_bytes: u64, arrays: u64, warm_bytes: u64) -> Self {
        assert!(
            array_bytes >= 8 && array_bytes.is_multiple_of(8),
            "array_bytes must be a positive multiple of 8"
        );
        assert!(arrays > 0, "need at least one array");
        assert!(
            warm_bytes >= 8 && warm_bytes.is_multiple_of(8),
            "warm_bytes must be a positive multiple of 8"
        );
        SpecLoops {
            array_bytes,
            arrays,
            warm_bytes,
            ..Self::default_suite(seed)
        }
    }
}

impl Workload for SpecLoops {
    fn next_access(&mut self) -> Access {
        let p: f64 = self.rng.gen();
        if p < 0.45 {
            // Stack traffic: tiny, always hot.
            let off = self.rng.gen_range(0..self.stack_bytes / 8) * 8;
            let kind = if self.rng.gen_bool(0.4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            Access {
                addr: STACK_BASE + off,
                kind,
            }
        } else if p < 0.66 {
            // Blocked tile reuse: fits every L1 under study.
            let off = self.rng.gen_range(0..self.hot_bytes / 8) * 8;
            Access::read(HOT_BASE + off)
        } else if p < 0.70 {
            // Warm region: the small size-dependent L1 component.
            let off = self.rng.gen_range(0..self.warm_bytes / 8) * 8;
            Access::read(HOT_BASE + 0x10_0000 + off)
        } else {
            // Streaming loop over the arrays, 8-byte elements.
            let addr = ARRAY_BASE + self.current * self.array_bytes + self.cursor;
            self.cursor += 8;
            if self.cursor >= self.array_bytes {
                self.cursor = 0;
                self.current = (self.current + 1) % self.arrays;
            }
            if self.rng.gen_bool(0.1) {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        }
    }

    fn name(&self) -> &'static str {
        "spec2000-like"
    }
}

/// TPC-C-like transaction-processing generator. See the module docs.
#[derive(Debug, Clone)]
pub struct TpccZipf {
    rng: StdRng,
    records: Zipf,
    record_bytes: u64,
    index: Zipf,
    index_bytes: u64,
    log_cursor: u64,
    /// Remaining record touches in the current transaction.
    in_txn: u32,
}

impl TpccZipf {
    /// The default parameterisation: 256 K records of 128 B (32 MB table)
    /// with Zipf(0.95) popularity, a 64 K-node index with Zipf(1.2), and a
    /// sequential log.
    pub fn default_suite(seed: u64) -> Self {
        TpccZipf {
            rng: StdRng::seed_from_u64(seed ^ 0x79cc),
            records: Zipf::new(256 * 1024, 0.95),
            record_bytes: 128,
            index: Zipf::new(64 * 1024, 1.2),
            index_bytes: 64,
            log_cursor: 0,
            in_txn: 0,
        }
    }

    /// A variant with a custom table: `records` rows of `record_bytes`
    /// with Zipf skew `s` (the index keeps its defaults). Lets studies
    /// scale the database working set.
    ///
    /// # Panics
    ///
    /// Panics for zero sizes or a negative/non-finite skew.
    pub fn with_table(seed: u64, records: usize, record_bytes: u64, s: f64) -> Self {
        assert!(records > 0, "need at least one record");
        assert!(record_bytes > 0, "records must have a size");
        TpccZipf {
            records: Zipf::new(records, s),
            record_bytes,
            ..Self::default_suite(seed)
        }
    }
}

impl Workload for TpccZipf {
    fn next_access(&mut self) -> Access {
        if self.in_txn == 0 {
            self.in_txn = self.rng.gen_range(8..24);
        }
        self.in_txn -= 1;
        let p: f64 = self.rng.gen();
        if p < 0.68 {
            // Stack and transaction-local state: tiny, always hot (the
            // dominant component that keeps L1 miss rates low, as the
            // paper observes for all its suites).
            let off = self.rng.gen_range(0..256u64) * 8;
            let kind = if self.rng.gen_bool(0.35) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            Access {
                addr: STACK_BASE + off,
                kind,
            }
        } else if p < 0.86 {
            // Index walk: very hot upper levels.
            let node = self.index.sample(&mut self.rng) as u64;
            Access::read(HOT_BASE + node * self.index_bytes)
        } else if p < 0.91 {
            // Record touch.
            let r = self.records.sample(&mut self.rng) as u64;
            let addr = HEAP_BASE + r * self.record_bytes + self.rng.gen_range(0..16) * 8;
            if self.rng.gen_bool(0.3) {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        } else {
            // Log append: pure streaming writes.
            let addr = ARRAY_BASE + (self.log_cursor % (64 * 1024 * 1024));
            self.log_cursor += 8;
            Access::write(addr)
        }
    }

    fn name(&self) -> &'static str {
        "tpcc-like"
    }
}

/// SPECWEB-like request-serving generator. See the module docs.
#[derive(Debug, Clone)]
pub struct WebStream {
    rng: StdRng,
    docs: Zipf,
    doc_bytes: u64,
    metadata: Zipf,
    /// Sequential cursor within the currently served document.
    cursor: u64,
    current_doc: u64,
    /// Bytes left to stream for the current request.
    remaining: u64,
}

impl WebStream {
    /// The default parameterisation: 2048 documents of 8 KB (16 MB corpus)
    /// with Zipf(0.8) popularity and a 32 KB metadata set.
    pub fn default_suite(seed: u64) -> Self {
        WebStream {
            rng: StdRng::seed_from_u64(seed ^ 0x3eb),
            docs: Zipf::new(2048, 0.8),
            doc_bytes: 8 * 1024,
            metadata: Zipf::new(512, 1.0),
            cursor: 0,
            current_doc: 0,
            remaining: 0,
        }
    }

    /// A variant with a custom corpus: `docs` documents of `doc_bytes`
    /// each with Zipf skew `s`.
    ///
    /// # Panics
    ///
    /// Panics for zero sizes or a negative/non-finite skew.
    pub fn with_corpus(seed: u64, docs: usize, doc_bytes: u64, s: f64) -> Self {
        assert!(docs > 0, "need at least one document");
        assert!(doc_bytes >= 8, "documents must hold at least one word");
        WebStream {
            docs: Zipf::new(docs, s),
            doc_bytes,
            ..Self::default_suite(seed)
        }
    }
}

impl Workload for WebStream {
    fn next_access(&mut self) -> Access {
        let p: f64 = self.rng.gen();
        if p < 0.50 {
            // Request-handler stack: tiny, always hot.
            let off = self.rng.gen_range(0..192u64) * 8;
            Access::read(STACK_BASE + off)
        } else if p < 0.80 {
            // Metadata / connection-state lookup (64 B entries).
            let e = self.metadata.sample(&mut self.rng) as u64;
            Access::read(HOT_BASE + e * 64)
        } else {
            if self.remaining == 0 {
                self.current_doc = self.docs.sample(&mut self.rng) as u64;
                self.cursor = 0;
                self.remaining = self.doc_bytes;
            }
            let addr = HEAP_BASE + self.current_doc * self.doc_bytes + self.cursor;
            self.cursor += 8;
            self.remaining = self.remaining.saturating_sub(8);
            Access::read(addr)
        }
    }

    fn name(&self) -> &'static str {
        "specweb-like"
    }
}

/// Pointer-chasing stressor. See the module docs.
#[derive(Debug, Clone)]
pub struct PointerChase {
    rng: StdRng,
    heap_bytes: u64,
    node_bytes: u64,
    position: u64,
}

impl PointerChase {
    /// The default parameterisation: 64 B nodes over an 8 MB heap.
    pub fn default_suite(seed: u64) -> Self {
        PointerChase {
            rng: StdRng::seed_from_u64(seed ^ 0xbc4a),
            heap_bytes: 8 * 1024 * 1024,
            node_bytes: 64,
            position: 0,
        }
    }

    /// A variant over a custom heap size.
    ///
    /// # Panics
    ///
    /// Panics when the heap holds fewer than one node.
    pub fn with_heap(seed: u64, heap_bytes: u64) -> Self {
        assert!(heap_bytes >= 64, "heap must hold at least one node");
        PointerChase {
            heap_bytes,
            ..Self::default_suite(seed)
        }
    }
}

impl Workload for PointerChase {
    fn next_access(&mut self) -> Access {
        let p: f64 = self.rng.gen();
        if p < 0.5 {
            // Interleaved stack work.
            let off = self.rng.gen_range(0..512u64) * 8;
            Access::read(STACK_BASE + off)
        } else {
            // Next hop: uniform over the heap (dependent-load pattern).
            let nodes = self.heap_bytes / self.node_bytes;
            self.position = self.rng.gen_range(0..nodes);
            Access::read(HEAP_BASE + self.position * self.node_bytes)
        }
    }

    fn name(&self) -> &'static str {
        "pointer-chase"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheParams, CacheSim};

    fn l1_miss_rate<W: Workload>(mut w: W, size_kb: u64, n: u64) -> f64 {
        let mut sim = CacheSim::new(CacheParams::new(size_kb * 1024, 64, 4).unwrap());
        // Warm up then measure.
        for _ in 0..n {
            sim.access(w.next_access());
        }
        sim.reset_stats();
        for _ in 0..n {
            sim.access(w.next_access());
        }
        sim.stats().miss_rate()
    }

    #[test]
    fn spec_l1_miss_rate_low_and_flat() {
        // The paper: local L1 miss rates are "already very low and they do
        // not vary much amongst the L1 caches ranging from 4K to 64K".
        let m4 = l1_miss_rate(SpecLoops::default_suite(1), 4, 150_000);
        let m64 = l1_miss_rate(SpecLoops::default_suite(1), 64, 150_000);
        assert!(m4 < 0.15, "4K miss rate = {m4}");
        assert!(m64 < 0.06, "64K miss rate = {m64}");
        assert!(m4 - m64 < 0.12, "m4 = {m4}, m64 = {m64}");
    }

    #[test]
    fn all_suites_deterministic() {
        for kind in SuiteKind::ALL {
            let mut a = kind.build(33);
            let mut b = kind.build(33);
            for _ in 0..1000 {
                assert_eq!(a.next_access(), b.next_access(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn suites_differ_across_seeds() {
        let mut a = SuiteKind::TpcC.build(1);
        let mut b = SuiteKind::TpcC.build(2);
        let same = (0..100)
            .filter(|_| a.next_access() == b.next_access())
            .count();
        assert!(same < 100);
    }

    #[test]
    fn tpcc_has_writes() {
        let mut w = TpccZipf::default_suite(5);
        let writes = (0..10_000).filter(|_| w.next_access().is_write()).count();
        assert!(writes > 500, "writes = {writes}");
    }

    #[test]
    fn web_streams_documents_sequentially() {
        let mut w = WebStream::default_suite(7);
        // Find two consecutive document accesses and check the stride.
        let mut sequential_pairs = 0;
        let mut last: Option<u64> = None;
        for _ in 0..10_000 {
            let a = w.next_access();
            if a.addr >= HEAP_BASE {
                if let Some(prev) = last {
                    if a.addr == prev + 8 {
                        sequential_pairs += 1;
                    }
                }
                last = Some(a.addr);
            } else {
                last = None;
            }
        }
        assert!(sequential_pairs > 150, "pairs = {sequential_pairs}");
    }

    #[test]
    fn pointer_chase_hurts_even_big_caches() {
        let m = l1_miss_rate(PointerChase::default_suite(9), 64, 100_000);
        assert!(m > 0.2, "miss rate = {m}");
    }

    #[test]
    fn suite_names_are_stable() {
        for kind in SuiteKind::ALL {
            assert_eq!(kind.build(0).name(), kind.name());
        }
    }

    #[test]
    fn suite_names_roundtrip_through_from_name() {
        for kind in SuiteKind::ALL {
            assert_eq!(SuiteKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SuiteKind::from_name("SPEC"), Some(SuiteKind::Spec2000));
        assert_eq!(SuiteKind::from_name("web"), Some(SuiteKind::SpecWeb));
        assert_eq!(SuiteKind::from_name("bogus"), None);
    }

    #[test]
    fn mix_draws_from_all_components_by_weight() {
        let mut mix = Mix::new(
            vec![
                (3.0, SuiteKind::Spec2000.build(1)),
                (1.0, SuiteKind::TpcC.build(1)),
            ],
            9,
        );
        assert_eq!(mix.len(), 2);
        assert!(!mix.is_empty());
        // TpcC's stack region sits at STACK_BASE with 8-byte slots like
        // spec's; distinguish by the disjoint data regions instead: count
        // accesses landing in TpcC's record heap.
        let mut heap = 0;
        let n = 20_000;
        for _ in 0..n {
            let a = mix.next_access();
            if a.addr >= HEAP_BASE && a.addr < STACK_BASE {
                heap += 1;
            }
        }
        assert!(heap > 0, "second component never drawn");
    }

    #[test]
    fn mix_is_deterministic() {
        let build = || {
            let mut m = Mix::new(
                vec![
                    (1.0, SuiteKind::Spec2000.build(4)),
                    (1.0, SuiteKind::SpecWeb.build(4)),
                ],
                11,
            );
            (0..500).map(|_| m.next_access()).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn mix_draws_are_pinned() {
        // The first 64 references of a three-component mix, as drawn when
        // the weights were summed on every draw: summing once at
        // construction, in the same order, must not move a single draw.
        #[rustfmt::skip]
        const ADDRS: [u64; 64] = [
            0x7f0000000628, 0x20000000, 0x10103170, 0x20000000,
            0x100002e8, 0x7f0000000168, 0x40212000, 0x7f00000003e8,
            0x7f0000000060, 0x7f00000006f8, 0x7f00000000d8, 0x7f0000000778,
            0x20000008, 0x7f0000000088, 0x7f00000002c8, 0x40212008,
            0x7f00000003b0, 0x7f00000001a8, 0x100008c0, 0x7f00000004d0,
            0x10002b40, 0x20000010, 0x10000328, 0x7f0000000720,
            0x20000018, 0x7f0000000148, 0x100001a8, 0x100003b8,
            0x7f0000000268, 0x20000020, 0x20000008, 0x7f0000000330,
            0x100001c0, 0x7f00000002c8, 0x7f00000003a0, 0x7f0000000260,
            0x7f0000000190, 0x7f00000005c8, 0x7f00000000a0, 0x10000480,
            0x7f00000001e0, 0x20000010, 0x7f0000000390, 0x7f00000001d0,
            0x7f00000000c0, 0x7f00000001a0, 0x20000028, 0x20000030,
            0x7f0000000368, 0x7f0000000218, 0x7f0000000370, 0x7f0000000140,
            0x7f0000000058, 0x20000038, 0x7f0000000208, 0x20000040,
            0x10000178, 0x1002f800, 0x40212010, 0x7f0000000768,
            0x20000048, 0x10000090, 0x20000050, 0x7f0000000148,
        ];
        // Bit `i` set: reference `i` is a store.
        const WRITES: u64 = 0x9804_0608_e208_0e02;
        let mut mix = Mix::new(
            vec![
                (2.0, SuiteKind::Spec2000.build(3)),
                (1.0, SuiteKind::TpcC.build(3)),
                (0.5, SuiteKind::SpecWeb.build(3)),
            ],
            21,
        );
        for (i, &addr) in ADDRS.iter().enumerate() {
            let a = mix.next_access();
            assert_eq!(a.addr, addr, "reference {i}");
            assert_eq!(a.is_write(), (WRITES >> i) & 1 == 1, "reference {i}");
        }
    }

    #[test]
    fn parameterized_constructors_shape_the_working_set() {
        // A bigger streamed footprint must miss the L2 more.
        let run = |array_bytes: u64| {
            let mut sim = CacheSim::new(CacheParams::new(512 * 1024, 64, 8).unwrap());
            let mut w = SpecLoops::with_footprint(3, array_bytes, 3, 16 * 1024);
            for _ in 0..300_000 {
                sim.access(w.next_access());
            }
            sim.stats().miss_rate()
        };
        assert!(run(2 * 1024 * 1024) > run(64 * 1024));
    }

    #[test]
    fn tpcc_and_web_variants_construct() {
        let mut t = TpccZipf::with_table(1, 1024, 256, 1.0);
        let mut w = WebStream::with_corpus(1, 64, 4096, 0.9);
        let mut p = PointerChase::with_heap(1, 1024 * 1024);
        for _ in 0..100 {
            let _ = t.next_access();
            let _ = w.next_access();
            let _ = p.next_access();
        }
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_records_panics() {
        let _ = TpccZipf::with_table(1, 0, 128, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mix_panics() {
        let _ = Mix::new(vec![], 1);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn non_positive_weight_panics() {
        let _ = Mix::new(vec![(0.0, SuiteKind::Spec2000.build(1))], 1);
    }
}
