//! Cross-product study campaigns.
//!
//! A [`Campaign`] sweeps the full cross product of L1 size × L2 size ×
//! assignment scheme × L2 technology × temperature, optimising each cell
//! like the Section 5 two-level experiments. A cell whose computation
//! fails is recorded as *failed*: one faulty point fails its cell, never
//! the campaign (the sweep executor's panic containment surfaces here as
//! a per-cell [`StudyError::WorkerPanic`]).

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

/// The campaign's axes and pricing knobs.
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
}

/// What one cell produced: a rendered table row, or a contained failure.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CellOutcome {
    /// The rendered row cells, exactly as they will appear in the table.
    Row(Vec<String>),
    /// The cell's error message (the campaign continued past it).
    Failed(String),
}

/// A finished campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Total cells in the cross product.
    pub total: usize,
    /// Cells priced to a table row.
    pub computed: usize,
    /// Cells whose computation failed (left out of the table).
    pub failed: usize,
    /// One outcome per cell, in index order.
    cells: Vec<CellOutcome>,
}

impl CampaignOutcome {
    /// Renders the table, one row per priced cell in index order.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Campaign: L1 x L2 x scheme x technology x temperature",
            &[
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
            ],
        );
        for outcome in &self.cells {
            match outcome {
                CellOutcome::Row(cols) => t.push_row(cols.clone()),
                CellOutcome::Failed(_) => {}
            }
        }
        t
    }

    /// `(cell index, message)` for every failed cell, in index order.
    pub fn failures(&self) -> Vec<(usize, String)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                CellOutcome::Failed(m) => Some((i, m.clone())),
                CellOutcome::Row(_) => None,
            })
            .collect()
    }
}

/// The cross-product campaign runner.
///
/// Construction simulates the miss-rate table once (the slow,
/// architectural part — knob- and temperature-independent); [`run`]
/// then prices every cell against it.
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
    /// Builds a campaign, simulating its miss-rate table.
    ///
    /// # Errors
    ///
    /// [`StudyError::Simulator`] when a configured L1 or L2 size is an
    /// illegal cache shape.
    pub fn new(config: CampaignConfig) -> Result<Self, StudyError> {
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
        Ok(Campaign {
            config,
            eval: Evaluator::new(grid),
            missrates,
            memory: MainMemory::default(),
        })
    }

    /// Prices every cell in index order. A cell whose computation fails
    /// is counted and left out of the table; the campaign goes on.
    pub fn run(&self) -> CampaignOutcome {
        let total = self.config.cell_count();
        nm_telemetry::counter_add(crate::names::CAMPAIGN_CELLS_TOTAL, total as u64);
        let cells: Vec<CellOutcome> = (0..total)
            .map(|idx| {
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
                outcome
            })
            .collect();
        let failed = cells
            .iter()
            .filter(|o| matches!(o, CellOutcome::Failed(_)))
            .count();
        CampaignOutcome {
            total,
            computed: total - failed,
            failed,
            cells,
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn empty_axes_price_nothing() {
        let config = CampaignConfig {
            temperatures_c: Vec::new(),
            quick: true,
            ..CampaignConfig::default()
        };
        let out = Campaign::new(config).expect("legal campaign sizes").run();
        assert_eq!((out.total, out.computed, out.failed), (0, 0, 0));
        assert!(out.to_table().is_empty());
    }
}
