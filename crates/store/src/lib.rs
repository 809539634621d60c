//! `nm-store` — checksummed, crash-tolerant persistence for nmcache.
//!
//! The workspace's studies are deterministic and content-addressed: the
//! same (spec, technology, grid, engine version) always produces the
//! same bytes. That makes persistence safe *and* simple — a store never
//! needs updates, only appends keyed by a stable content hash. This
//! crate provides the two durability primitives the rest of the
//! workspace builds on:
//!
//! * [`Store`] — an append-only segment file of checksummed records
//!   plus an in-memory index, with the torn-write truncation rule on
//!   open: everything before the first invalid record is recovered,
//!   the damage is quarantined by physical truncation, and the loss is
//!   reported (never silent) via [`OpenReport`] and `store.*` counters.
//! * [`write_atomic`] — whole-file replacement via temp + fsync +
//!   rename, the only legal way to write campaign checkpoints and
//!   result tables (in-place truncate-then-rewrite can lose everything
//!   to a crash between the two steps).
//!
//! Error classes are typed ([`StoreError`]): environmental I/O failures
//! are distinguished from corruption so callers can degrade correctly —
//! the evaluation engine logs, counts, and falls back to memory-only
//! operation; the CLI maps persistence failures to the documented
//! exit code 6 only where persistence was explicitly required.
//!
//! Like the rest of the workspace, this crate has **zero external
//! dependencies**: checksums and content keys are FNV-1a ([`fnv1a_64`],
//! [`KeyHasher`]), chosen for byte-stability across platforms and
//! toolchains, not for adversarial collision resistance.
//!
//! Under the `storefault` cargo feature the crate compiles a
//! deterministic fault-injection plan (the `storefault` module) mirroring
//! `nm_sweep::faultinject`: tests arm truncate-on-write, short-write,
//! bit-flip, rename-failure, and disk-full faults at exact operation
//! indices and assert recovery invariants. Production builds compile
//! none of it.

pub mod atomic;
pub mod error;
pub mod fnv;
pub mod names;
pub mod segment;
pub mod store;
#[cfg(feature = "storefault")]
pub mod storefault;

pub use atomic::write_atomic;
pub use error::StoreError;
pub use fnv::{fnv1a_64, KeyHasher};
pub use store::{OpenReport, Store, SEGMENT_FILE};
