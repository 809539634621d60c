//! Crash-resumable cross-product study campaigns.
//!
//! A [`Campaign`] sweeps the full cross product of L1 size × L2 size ×
//! assignment scheme × L2 technology × temperature, optimising each cell
//! like the Section 5 two-level experiments. Long campaigns survive
//! crashes:
//!
//! * every completed cell is recorded in a checksummed checkpoint file,
//!   rewritten atomically (temp file + fsync + rename — never an
//!   in-place truncate) every [`CampaignConfig::checkpoint_every`]
//!   cells;
//! * on restart the checkpoint is validated (magic, version, whole-file
//!   FNV, config fingerprint) and already-computed cells are skipped;
//! * a cell whose computation fails is recorded as *failed* — one faulty
//!   point fails its cell, never the campaign (the sweep executor's
//!   panic containment surfaces here as a per-cell
//!   [`StudyError::WorkerPanic`]);
//! * rows are persisted as their *rendered strings*, so a resumed
//!   campaign's final table is byte-identical to an uninterrupted run by
//!   construction.
//!
//! The engine-level [`nm_store::Store`] rides underneath as a
//! write-through tier (see [`Evaluator::with_store`]): resumed campaigns
//! also skip recomputing surfaces and fronts that earlier runs persisted.

use crate::amat::{memory_floor, MainMemory};
use crate::eval::{Evaluator, HierarchySpec};
use crate::groups::{CostKind, Scheme};
use crate::report::{cell, Table};
use crate::twolevel::{BLOCK_BYTES, L1_WAYS, L2_WAYS, STANDARD_SUITES};
use crate::StudyError;
use nm_archsim::MissRateTable;
use nm_device::units::{Kelvin, Seconds};
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::objective::Deadline;
use nm_store::{fnv1a_64, write_atomic, KeyHasher, Store, StoreError};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint file magic: `NMCK`.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"NMCK";

/// Checkpoint format version. Bump on any layout change — an old file is
/// rejected as incompatible rather than misread.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A fatal campaign error. Per-cell failures are *not* errors — they are
/// recorded in the table and the campaign continues.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// A configuration-level study error before any cell ran (e.g. the
    /// miss-rate table could not cover the requested sizes).
    Study(StudyError),
    /// A checkpoint could not be written (resumability is the campaign's
    /// contract, so this is fatal — unlike the best-effort store tier).
    Store(StoreError),
    /// The checkpoint file exists but is corrupt or structurally invalid.
    Checkpoint {
        /// The offending file.
        path: PathBuf,
        /// What failed to parse or validate.
        detail: String,
    },
    /// The checkpoint was written by a different campaign configuration.
    Mismatch {
        /// The offending file.
        path: PathBuf,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Study(e) => write!(f, "campaign setup: {e}"),
            CampaignError::Store(e) => write!(f, "campaign checkpoint: {e}"),
            CampaignError::Checkpoint { path, detail } => {
                write!(
                    f,
                    "corrupt campaign checkpoint {}: {detail} \
                     (pass --fresh to discard it and restart)",
                    path.display()
                )
            }
            CampaignError::Mismatch { path } => write!(
                f,
                "checkpoint {} was written by a different campaign \
                 configuration (pass --fresh to discard it, or rerun \
                 with the original axes)",
                path.display()
            ),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Study(e) => Some(e),
            CampaignError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StudyError> for CampaignError {
    fn from(e: StudyError) -> Self {
        CampaignError::Study(e)
    }
}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Store(e)
    }
}

/// The campaign's axes and policy knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// L1 size axis (bytes).
    pub l1_sizes: Vec<u64>,
    /// L2 size axis (bytes).
    pub l2_sizes: Vec<u64>,
    /// Knob-assignment schemes to compare.
    pub schemes: Vec<Scheme>,
    /// L2 technology candidates (the L1 stays SRAM).
    pub l2_techs: Vec<TechProfile>,
    /// Operating temperatures (°C).
    pub temperatures_c: Vec<f64>,
    /// Fractional AMAT slack over each cell's fastest corner.
    pub slack: f64,
    /// Shorter architectural simulations and the coarse knob grid
    /// (tests/smoke runs).
    pub quick: bool,
    /// Cells computed between checkpoint rewrites. The final state is
    /// always checkpointed, so this only bounds lost work on a crash.
    pub checkpoint_every: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            l1_sizes: vec![16 * 1024, 32 * 1024],
            l2_sizes: vec![256 * 1024, 1024 * 1024],
            schemes: vec![Scheme::Uniform, Scheme::Split],
            l2_techs: vec![TechProfile::sram()],
            temperatures_c: vec![80.0],
            slack: 0.15,
            quick: false,
            checkpoint_every: 8,
        }
    }
}

/// One cell of the cross product.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    l1_bytes: u64,
    l2_bytes: u64,
    scheme: Scheme,
    tech: TechProfile,
    temp_c: f64,
}

impl CampaignConfig {
    /// Total number of cells in the cross product.
    pub fn cell_count(&self) -> usize {
        self.l1_sizes.len()
            * self.l2_sizes.len()
            * self.schemes.len()
            * self.l2_techs.len()
            * self.temperatures_c.len()
    }

    /// `true` when at least one axis is empty, making the campaign a
    /// no-op.
    pub fn is_empty(&self) -> bool {
        self.cell_count() == 0
    }

    /// The cell at deterministic index `idx` (row-major over the axes in
    /// declaration order; temperature varies fastest).
    fn cell(&self, idx: usize) -> Cell {
        let nt = self.temperatures_c.len();
        let nk = self.l2_techs.len();
        let ns = self.schemes.len();
        let n2 = self.l2_sizes.len();
        let temp = idx % nt;
        let tech = (idx / nt) % nk;
        let scheme = (idx / (nt * nk)) % ns;
        let l2 = (idx / (nt * nk * ns)) % n2;
        let l1 = idx / (nt * nk * ns * n2);
        Cell {
            l1_bytes: self.l1_sizes[l1],
            l2_bytes: self.l2_sizes[l2],
            scheme: self.schemes[scheme],
            tech: self.l2_techs[tech].clone(),
            temp_c: self.temperatures_c[temp],
        }
    }

    /// A content fingerprint of everything that determines cell
    /// *results*. Resuming under a different fingerprint is refused —
    /// stale checkpoints are structurally impossible. Checkpoint cadence
    /// is deliberately excluded: it changes durability, not results.
    pub fn fingerprint(&self) -> u128 {
        let mut h = KeyHasher::new();
        h.push_str("nmcache.campaign");
        h.push_u64(u64::from(CHECKPOINT_VERSION));
        h.push_u64(self.l1_sizes.len() as u64);
        for &s in &self.l1_sizes {
            h.push_u64(s);
        }
        h.push_u64(self.l2_sizes.len() as u64);
        for &s in &self.l2_sizes {
            h.push_u64(s);
        }
        h.push_u64(self.schemes.len() as u64);
        for s in &self.schemes {
            h.push_str(&format!("{s:?}"));
        }
        h.push_u64(self.l2_techs.len() as u64);
        for t in &self.l2_techs {
            h.push_str(&format!("{t:?}"));
        }
        h.push_u64(self.temperatures_c.len() as u64);
        for &t in &self.temperatures_c {
            h.push_f64_bits(t);
        }
        h.push_f64_bits(self.slack);
        h.push_u64(u64::from(self.quick));
        h.finish()
    }
}

/// What one cell produced: a rendered table row, or a contained failure.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CellOutcome {
    /// The rendered row cells, exactly as they will appear in the table.
    Row(Vec<String>),
    /// The cell's error message (the campaign continued past it).
    Failed(String),
}

/// A finished (or budget-limited) campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Total cells in the cross product.
    pub total: usize,
    /// Cells computed by *this* run.
    pub computed: usize,
    /// Cells skipped because the checkpoint already held them.
    pub resumed: usize,
    /// Failed cells across the whole table (resumed + this run).
    pub failed: usize,
    /// `true` when every cell is in the table.
    pub complete: bool,
    cells: BTreeMap<u32, CellOutcome>,
}

/// The campaign table's column headers.
const HEADERS: [&str; 10] = [
    "L1 (KB)",
    "L2 (KB)",
    "scheme",
    "L2 tech",
    "T (C)",
    "m1",
    "m2",
    "AMAT (ps)",
    "total leak (mW)",
    "note",
];

impl CampaignOutcome {
    /// Renders the table (cells in deterministic index order). Rows come
    /// verbatim from the per-cell records, so a resumed campaign renders
    /// byte-identically to an uninterrupted one.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Campaign: L1 x L2 x scheme x technology x temperature",
            &HEADERS,
        );
        for outcome in self.cells.values() {
            match outcome {
                CellOutcome::Row(cols) => t.push_row(cols.clone()),
                CellOutcome::Failed(_) => {}
            }
        }
        t
    }

    /// `(cell index, message)` for every failed cell, in index order.
    pub fn failures(&self) -> Vec<(u32, String)> {
        self.cells
            .iter()
            .filter_map(|(i, o)| match o {
                CellOutcome::Failed(m) => Some((*i, m.clone())),
                CellOutcome::Row(_) => None,
            })
            .collect()
    }
}

/// The resumable cross-product campaign runner.
///
/// Construction simulates the miss-rate table once (the slow,
/// architectural part — knob- and temperature-independent); [`run`]
/// then prices cells against it, checkpointing as it goes.
///
/// [`run`]: Campaign::run
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    eval: Evaluator,
    missrates: MissRateTable,
    memory: MainMemory,
}

impl Campaign {
    /// Builds a campaign, simulating its miss-rate table. `store` arms
    /// the evaluator's write-through persistence tier; `None` runs
    /// memory-only (checkpoints still work — they are independent of the
    /// store).
    ///
    /// # Errors
    ///
    /// [`StudyError::Simulator`] when a configured L1 or L2 size is an
    /// illegal cache shape.
    pub fn new(config: CampaignConfig, store: Option<Arc<Store>>) -> Result<Self, StudyError> {
        let (warmup, measure) = if config.quick {
            (50_000, 100_000)
        } else {
            (300_000, 600_000)
        };
        let missrates = MissRateTable::try_build(
            &config.l1_sizes,
            &config.l2_sizes,
            &STANDARD_SUITES,
            2005,
            warmup,
            measure,
        )?;
        let grid = if config.quick {
            KnobGrid::coarse()
        } else {
            KnobGrid::paper()
        };
        let eval = match store {
            Some(s) => Evaluator::with_store(grid, s),
            None => Evaluator::new(grid),
        };
        Ok(Campaign {
            config,
            eval,
            missrates,
            memory: MainMemory::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The evaluator behind the campaign (its counters expose how much
    /// the persistence tier saved).
    pub fn evaluator(&self) -> &Evaluator {
        &self.eval
    }

    /// Runs the campaign against `checkpoint`, resuming from it when it
    /// exists (unless `fresh`). `max_cells` bounds how many *new* cells
    /// this run computes — the checkpoint is still written, so a later
    /// run picks up where this one stopped (deterministic interruption
    /// for tests and budgeted runs).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] / [`CampaignError::Mismatch`] when
    /// the existing checkpoint cannot be trusted, and
    /// [`CampaignError::Store`] when a checkpoint rewrite fails. Per-cell
    /// study failures are recorded in the table, not raised.
    pub fn run(
        &self,
        checkpoint: &Path,
        fresh: bool,
        max_cells: Option<usize>,
    ) -> Result<CampaignOutcome, CampaignError> {
        let total = self.config.cell_count();
        let fingerprint = self.config.fingerprint();
        nm_telemetry::counter_add(crate::names::CAMPAIGN_CELLS_TOTAL, total as u64);

        let mut cells = if fresh {
            BTreeMap::new()
        } else {
            load_checkpoint(checkpoint, fingerprint)?
        };
        // A checkpoint may outlive a shrunk axis only via --fresh, and a
        // fingerprint match implies identical axes — but stay defensive:
        // drop any record beyond the cross product rather than render it.
        cells.retain(|&i, _| (i as usize) < total);
        let resumed = cells.len();
        nm_telemetry::counter_add(crate::names::CAMPAIGN_CELLS_RESUMED, resumed as u64);

        let mut computed = 0usize;
        let mut since_checkpoint = 0usize;
        for idx in 0..total {
            let key = idx as u32;
            if cells.contains_key(&key) {
                continue;
            }
            if let Some(budget) = max_cells {
                if computed >= budget {
                    break;
                }
            }
            let clock = nm_telemetry::Stopwatch::start();
            let outcome = match self.compute_cell(idx) {
                Ok(row) => {
                    nm_telemetry::counter_inc(crate::names::CAMPAIGN_CELLS_COMPUTED);
                    CellOutcome::Row(row)
                }
                Err(e) => {
                    nm_telemetry::counter_inc(crate::names::CAMPAIGN_CELLS_FAILED);
                    CellOutcome::Failed(e.to_string())
                }
            };
            clock.observe(crate::names::CAMPAIGN_CELL_LATENCY);
            cells.insert(key, outcome);
            computed += 1;
            since_checkpoint += 1;
            if since_checkpoint >= self.config.checkpoint_every.max(1) {
                write_checkpoint(checkpoint, fingerprint, &cells)?;
                since_checkpoint = 0;
            }
        }
        if since_checkpoint > 0 || (computed == 0 && resumed == 0 && total > 0) {
            write_checkpoint(checkpoint, fingerprint, &cells)?;
        }
        if let Some(store) = self.eval.store() {
            store.sync()?;
        }

        let failed = cells
            .values()
            .filter(|o| matches!(o, CellOutcome::Failed(_)))
            .count();
        Ok(CampaignOutcome {
            total,
            computed,
            resumed,
            failed,
            complete: cells.len() == total,
            cells,
        })
    }

    /// Optimises one cell and renders its row. Any failure here is
    /// contained by the caller — it poisons the cell, not the campaign.
    fn compute_cell(&self, idx: usize) -> Result<Vec<String>, StudyError> {
        let c = self.config.cell(idx);
        let stats = self.missrates.get(c.l1_bytes, c.l2_bytes).copied().ok_or(
            StudyError::MissingMissRates {
                l1_bytes: c.l1_bytes,
                l2_bytes: c.l2_bytes,
            },
        )?;
        let node = TechnologyNode::bptm65().at_temperature(Kelvin::from_celsius(c.temp_c));
        let l1 = CacheCircuit::new(CacheConfig::new(c.l1_bytes, BLOCK_BYTES, L1_WAYS)?, &node);
        let l2 = CacheCircuit::with_technology(
            CacheConfig::new(c.l2_bytes, BLOCK_BYTES, L2_WAYS)?,
            &node,
            c.tech.clone(),
        );
        let weights = HierarchySpec::try_amat_weights(&[stats.l1_miss_rate])?;
        let spec = HierarchySpec::new()
            .level("L1", l1, c.scheme, weights[0], CostKind::LeakagePower)
            .level("L2", l2, c.scheme, weights[1], CostKind::LeakagePower);
        let floor = memory_floor(
            stats.l1_miss_rate,
            stats.l2_local_miss_rate,
            self.memory.access_time,
        );
        // The cell's own iso-AMAT target: slack over its fastest corner
        // (every level fully aggressive), like the E8 comparison.
        let min_weighted: f64 = spec
            .levels()
            .iter()
            .map(|l| l.circuit().fastest_access_time().0 * l.delay_weight())
            .sum();
        let budget = (floor.0 + min_weighted) * (1.0 + self.config.slack) - floor.0;

        let mut row = vec![
            cell(c.l1_bytes as f64 / 1024.0, 0),
            cell(c.l2_bytes as f64 / 1024.0, 0),
            c.scheme.to_string(),
            c.tech.name.clone(),
            cell(c.temp_c, 0),
            cell(stats.l1_miss_rate, 4),
            cell(stats.l2_local_miss_rate, 4),
        ];
        let sol = if budget > 0.0 {
            self.eval.try_solve(&spec, &Deadline(budget))?
        } else {
            None
        };
        match sol {
            Some(s) => {
                row.push(cell(Seconds(floor.0 + s.delay).picos(), 0));
                row.push(cell(s.cost * 1e3, 3));
                row.push("-".to_owned());
            }
            None => {
                row.push("infeasible".to_owned());
                row.push("-".to_owned());
                row.push("-".to_owned());
            }
        }
        Ok(row)
    }
}

// ---------------------------------------------------------------------
// Checkpoint encoding
// ---------------------------------------------------------------------
//
// Layout (all integers little-endian):
//
// ```text
// magic "NMCK" | version u32 | fingerprint u128 | n u32
// n × ( index u32 | status u8 | body )
//   status 0 (row):    ncols u32, ncols × (len u32 | utf8 bytes)
//   status 1 (failed): len u32 | utf8 bytes
// fnv1a_64 over everything above | u64
// ```
//
// The whole-file checksum makes torn or bit-flipped checkpoints
// detectable; writes go through [`nm_store::write_atomic`], so a crash
// mid-rewrite leaves the previous complete checkpoint in place.

fn push_str_field(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_checkpoint(fingerprint: u128, cells: &BTreeMap<u32, CellOutcome>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + cells.len() * 96);
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&(cells.len() as u32).to_le_bytes());
    for (&idx, outcome) in cells {
        buf.extend_from_slice(&idx.to_le_bytes());
        match outcome {
            CellOutcome::Row(cols) => {
                buf.push(0);
                buf.extend_from_slice(&(cols.len() as u32).to_le_bytes());
                for col in cols {
                    push_str_field(&mut buf, col);
                }
            }
            CellOutcome::Failed(msg) => {
                buf.push(1);
                push_str_field(&mut buf, msg);
            }
        }
    }
    let sum = fnv1a_64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

fn write_checkpoint(
    path: &Path,
    fingerprint: u128,
    cells: &BTreeMap<u32, CellOutcome>,
) -> Result<(), CampaignError> {
    let clock = nm_telemetry::Stopwatch::start();
    let bytes = encode_checkpoint(fingerprint, cells);
    write_atomic(path, &bytes)?;
    nm_telemetry::counter_inc(crate::names::CAMPAIGN_CHECKPOINTS);
    clock.observe(crate::names::CAMPAIGN_CHECKPOINT_SECONDS);
    Ok(())
}

/// A bounds-checked little-endian reader over a checkpoint image.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated at byte {}", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u128(&mut self) -> Result<u128, String> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| format!("non-UTF-8 string at byte {}", self.at))
    }
}

fn load_checkpoint(
    path: &Path,
    fingerprint: u128,
) -> Result<BTreeMap<u32, CellOutcome>, CampaignError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => {
            return Err(CampaignError::Store(StoreError::io(
                format!("read checkpoint {}", path.display()),
                e,
            )))
        }
    };
    parse_checkpoint(&bytes, fingerprint).map_err(|detail| match detail {
        ParseFailure::Corrupt(detail) => CampaignError::Checkpoint {
            path: path.to_path_buf(),
            detail,
        },
        ParseFailure::Mismatch => CampaignError::Mismatch {
            path: path.to_path_buf(),
        },
    })
}

enum ParseFailure {
    Corrupt(String),
    Mismatch,
}

fn parse_checkpoint(
    bytes: &[u8],
    fingerprint: u128,
) -> Result<BTreeMap<u32, CellOutcome>, ParseFailure> {
    let corrupt = ParseFailure::Corrupt;
    // Validate the whole-file checksum before trusting any length field.
    if bytes.len() < CHECKPOINT_MAGIC.len() + 4 + 16 + 4 + 8 {
        return Err(corrupt(format!("only {} bytes", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(tail);
    if fnv1a_64(body) != u64::from_le_bytes(sum) {
        return Err(corrupt("whole-file checksum mismatch".to_owned()));
    }
    let mut c = Cursor { bytes: body, at: 0 };
    if c.take(4).map_err(corrupt)? != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic".to_owned()));
    }
    let version = c.u32().map_err(corrupt)?;
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(format!(
            "format version {version}, this build reads {CHECKPOINT_VERSION}"
        )));
    }
    if c.u128().map_err(corrupt)? != fingerprint {
        return Err(ParseFailure::Mismatch);
    }
    let n = c.u32().map_err(corrupt)?;
    let mut cells = BTreeMap::new();
    for _ in 0..n {
        let idx = c.u32().map_err(corrupt)?;
        let outcome = match c.u8().map_err(corrupt)? {
            0 => {
                let ncols = c.u32().map_err(corrupt)?;
                if ncols as usize != HEADERS.len() {
                    return Err(corrupt(format!(
                        "cell {idx} has {ncols} columns, expected {}",
                        HEADERS.len()
                    )));
                }
                let mut cols = Vec::with_capacity(ncols as usize);
                for _ in 0..ncols {
                    cols.push(c.string().map_err(corrupt)?);
                }
                CellOutcome::Row(cols)
            }
            1 => CellOutcome::Failed(c.string().map_err(corrupt)?),
            other => return Err(corrupt(format!("cell {idx} has unknown status {other}"))),
        };
        if cells.insert(idx, outcome).is_some() {
            return Err(corrupt(format!("cell {idx} recorded twice")));
        }
    }
    if c.at != body.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after {n} cells",
            body.len() - c.at
        )));
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> BTreeMap<u32, CellOutcome> {
        let mut m = BTreeMap::new();
        m.insert(
            0,
            CellOutcome::Row(HEADERS.iter().map(|h| (*h).to_owned()).collect()),
        );
        m.insert(3, CellOutcome::Failed("boom".to_owned()));
        m
    }

    #[test]
    fn checkpoint_round_trips() {
        let cells = sample_cells();
        let bytes = encode_checkpoint(42, &cells);
        let back = parse_checkpoint(&bytes, 42).unwrap_or_else(|_| panic!("parse"));
        assert_eq!(back, cells);
    }

    #[test]
    fn any_flipped_byte_is_caught() {
        let bytes = encode_checkpoint(42, &sample_cells());
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            assert!(
                matches!(parse_checkpoint(&bad, 42), Err(ParseFailure::Corrupt(_))),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_caught_everywhere() {
        let bytes = encode_checkpoint(7, &sample_cells());
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    parse_checkpoint(&bytes[..len], 7),
                    Err(ParseFailure::Corrupt(_))
                ),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_fingerprint_is_a_mismatch_not_corruption() {
        let bytes = encode_checkpoint(42, &sample_cells());
        assert!(matches!(
            parse_checkpoint(&bytes, 43),
            Err(ParseFailure::Mismatch)
        ));
    }

    #[test]
    fn cell_indexing_covers_the_cross_product_once() {
        let config = CampaignConfig {
            l1_sizes: vec![4096, 8192],
            l2_sizes: vec![65536, 131072, 262144],
            schemes: vec![Scheme::Uniform, Scheme::Split],
            l2_techs: vec![TechProfile::sram(), TechProfile::edram()],
            temperatures_c: vec![40.0, 80.0, 110.0],
            ..CampaignConfig::default()
        };
        let n = config.cell_count();
        assert_eq!(n, 2 * 3 * 2 * 2 * 3);
        let mut seen = Vec::with_capacity(n);
        for i in 0..n {
            let c = config.cell(i);
            assert!(!seen.contains(&c), "cell {i} repeats {c:?}");
            seen.push(c);
        }
        // Temperature varies fastest, L1 slowest.
        assert_eq!(config.cell(0).temp_c.to_bits(), 40.0f64.to_bits());
        assert_eq!(config.cell(1).temp_c.to_bits(), 80.0f64.to_bits());
        assert_eq!(config.cell(n - 1).l1_bytes, 8192);
    }

    #[test]
    fn fingerprint_tracks_result_relevant_fields_only() {
        let base = CampaignConfig::default();
        let f = base.fingerprint();
        assert_eq!(f, base.clone().fingerprint());
        let mut cadence = base.clone();
        cadence.checkpoint_every = 1;
        assert_eq!(f, cadence.fingerprint(), "cadence must not fork the key");
        let mut slack = base.clone();
        slack.slack = 0.2;
        assert_ne!(f, slack.fingerprint());
        let mut quick = base.clone();
        quick.quick = true;
        assert_ne!(f, quick.fingerprint());
        let mut temps = base;
        temps.temperatures_c = vec![-0.0];
        let mut temps2 = temps.clone();
        temps2.temperatures_c = vec![0.0];
        assert_ne!(
            temps.fingerprint(),
            temps2.fingerprint(),
            "signed zeros are distinct inputs"
        );
    }

    #[test]
    fn missing_checkpoint_loads_empty() {
        let path =
            std::env::temp_dir().join(format!("nm-campaign-missing-{}.nmck", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cells = load_checkpoint(&path, 1).unwrap_or_else(|e| panic!("{e}"));
        assert!(cells.is_empty());
    }
}
