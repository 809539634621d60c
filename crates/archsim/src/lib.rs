//! # nm-archsim — trace-driven multi-level cache simulation
//!
//! The paper (Section 5) uses "architectural simulations to gather cache
//! access statistics for each L1 and L2 cache size combination", collected
//! over SPEC2000, SPECWEB and TPC/C. This crate supplies that substrate:
//!
//! * [`cache::CacheSim`] — the one cache simulator: set-associative, LRU,
//!   write-back/write-allocate, with cache decay (gated-Vdd, the prior
//!   art the paper sets its knobs against) as a compile-time mode of the
//!   same probe ([`CacheSim::with_decay`]),
//! * [`hierarchy::MultiLevel`] — an N-level miss-chain hierarchy with
//!   per-level demand accounting; its one level-to-level rule also serves
//!   the miss-rate table and the split-L1 hierarchy ([`splitl1`]),
//! * [`workload`] — synthetic trace generators standing in for the
//!   benchmark suites (loop-locality "spec-like", Zipf-working-set
//!   "tpcc-like", request-stream "web-like", and a pointer chaser),
//! * [`missrates`] — sweeps of (L1 size × L2 size) producing the
//!   miss-rate tables the optimisation studies consume.
//!
//! The downstream studies only need miss-rate tables whose *shape* matches
//! the paper's observations — low, flat local L1 miss rates from 4 K to
//! 64 K, and L2 miss rates that fall steeply with size before saturating —
//! which these generators produce by construction (see `DESIGN.md`).
//!
//! ```
//! use nm_archsim::cache::{CacheParams, CacheSim};
//! use nm_archsim::workload::{SpecLoops, Workload};
//!
//! let params = CacheParams::new(16 * 1024, 64, 4)?;
//! let mut sim = CacheSim::new(params);
//! let mut gen = SpecLoops::default_suite(42);
//! for _ in 0..10_000 {
//!     sim.access(gen.next_access());
//! }
//! let stats = sim.stats();
//! assert!(stats.accesses == 10_000);
//! assert!(stats.miss_rate() < 0.5);
//! # Ok::<(), nm_archsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod cache;
pub mod hierarchy;
pub mod missrates;
pub mod names;
pub mod splitl1;
pub mod trace;
pub mod workload;
pub mod zipf;

mod error;

pub use access::{Access, AccessKind};
pub use cache::{CacheParams, CacheSim, DecayStats};
pub use error::SimError;
pub use hierarchy::{MultiLevel, MultiLevelStats};
pub use missrates::{simulate_chain, ChainStats, MissRateTable, PairStats};
pub use trace::{TraceError, TraceWorkload};
