//! `nmcache` — reproduce the DATE 2005 experiments from the command line.

use nmcache::analyze::{self, AnalyzeError};
use nmcache::archsim::cache::CacheParams;
use nmcache::archsim::hierarchy::MultiLevel;
use nmcache::archsim::trace::{
    read_trace, read_trace_binary, TraceError, TraceWorkload, BINARY_MAGIC,
};
use nmcache::archsim::workload::Workload;
use nmcache::archsim::MissRateTable;
use nmcache::cli::{
    self, AnalyzeOptions, BenchdiffOptions, CampaignOptions, CliError, Command, LoadgenOptions,
    Options, RunOptions, Study,
};
use nmcache::core::amat::MainMemory;
use nmcache::core::campaign::{Campaign, CampaignConfig};
use nmcache::core::decay::DecayStudy;
use nmcache::core::fitcheck::fit_report;
use nmcache::core::memsys::{MemorySystemStudy, TupleCounts};
use nmcache::core::mixedtech::{MixedTechStudy, STANDARD_SIZES};
use nmcache::core::report::{cell, Series, Table};
use nmcache::core::single::SingleCacheStudy;
use nmcache::core::splitl1::SplitL1Study;
use nmcache::core::thermal::ThermalStudy;
use nmcache::core::twolevel::{TwoLevelStudy, STANDARD_SUITES};
use nmcache::core::variation::{paper_16kb_variation, VariationStudy};
use nmcache::core::StudyError;
use nmcache::device::{KnobGrid, TechProfile, TechnologyNode};
use nmcache::telemetry::LogLevel;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// A fatal error, classified so each failure class maps to a distinct,
/// documented exit code (see `EXIT CODES` in [`cli::USAGE`]).
#[derive(Debug)]
enum AppError {
    /// Malformed invocation: unknown command/flag or a bad value.
    Usage(CliError),
    /// A study or device/geometry model rejected the configuration.
    Study(StudyError),
    /// A trace file failed to parse or validate.
    Trace(TraceError),
    /// The filesystem said no (missing trace file, unwritable CSV, ...).
    Io(std::io::Error),
    /// `nmcache analyze` found violations or stale allowlist entries.
    /// The findings themselves were already printed; this only carries
    /// the summary line for the final `error:` message.
    Findings(String),
    /// `nmcache benchdiff` found at least one histogram whose candidate
    /// p99 exceeds the allowed ratio over the baseline. The comparison
    /// table was already printed; this carries the summary line.
    Slo(String),
}

impl AppError {
    /// The process exit code for this failure class.
    fn exit_code(&self) -> u8 {
        match self {
            AppError::Usage(_) => 2,
            AppError::Study(_) | AppError::Findings(_) => 3,
            AppError::Trace(_) => 4,
            AppError::Io(_) => 5,
            AppError::Slo(_) => 7,
        }
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Usage(e) => write!(f, "{e}"),
            AppError::Study(e) => write!(f, "{e}"),
            AppError::Trace(e) => write!(f, "trace: {e}"),
            AppError::Io(e) => write!(f, "{e}"),
            AppError::Findings(msg) | AppError::Slo(msg) => f.write_str(msg),
        }
    }
}

impl From<CliError> for AppError {
    fn from(e: CliError) -> Self {
        AppError::Usage(e)
    }
}

impl From<StudyError> for AppError {
    fn from(e: StudyError) -> Self {
        AppError::Study(e)
    }
}

impl From<nmcache::geometry::GeometryError> for AppError {
    fn from(e: nmcache::geometry::GeometryError) -> Self {
        AppError::Study(e.into())
    }
}

impl From<nmcache::archsim::SimError> for AppError {
    fn from(e: nmcache::archsim::SimError) -> Self {
        AppError::Study(e.into())
    }
}

impl From<TraceError> for AppError {
    fn from(e: TraceError) -> Self {
        AppError::Trace(e)
    }
}

impl From<std::io::Error> for AppError {
    fn from(e: std::io::Error) -> Self {
        AppError::Io(e)
    }
}

impl From<AnalyzeError> for AppError {
    fn from(e: AnalyzeError) -> Self {
        // Unreadable files are I/O failures (exit 5); a malformed
        // allowlist is a usage problem (exit 2) — the side file is part
        // of the invocation, like a bad flag value.
        if e.is_io() {
            AppError::Io(std::io::Error::other(e.to_string()))
        } else {
            AppError::Usage(CliError(e.to_string()))
        }
    }
}

fn main() -> ExitCode {
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(AppError::Usage(e).exit_code());
        }
    };
    let telemetry = configure_telemetry(&command);
    let result = run(command).and_then(|()| finish_telemetry(&telemetry));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("hint: run `nmcache help` for usage and exit codes");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Applies `--threads` and arms the telemetry registry when `--stats`,
/// `--metrics`, `--trace-out` or `--log-level` asks for it; otherwise
/// it stays off and golden outputs stay byte-identical. (`loadgen` arms
/// and drains the registry itself: its report is the product.) Returns
/// the options [`finish_telemetry`] exports by.
fn configure_telemetry(command: &Command) -> RunOptions {
    let Some((name, run)) = command.run_options() else {
        return RunOptions::default();
    };
    if let Some(n) = run.threads {
        nmcache::sweep::set_global_workers(Some(n));
    }
    nmcache::telemetry::set_log_level(run.log_level);
    if run.stats
        || run.metrics.is_some()
        || run.trace_out.is_some()
        || run.log_level != LogLevel::Off
    {
        nmcache::telemetry::enable();
        nmcache::telemetry::set_note("command", name);
    }
    run.clone()
}

/// Exports the run's telemetry: the `--stats` table, the `--metrics`
/// JSON report and the `--trace-out` Chrome trace all read one registry
/// snapshot, so they always agree with each other.
fn finish_telemetry(run: &RunOptions) -> Result<(), AppError> {
    let snapshot = nmcache::telemetry::snapshot();
    if let Some(path) = &run.metrics {
        nmcache::telemetry::RunReport::from_snapshot(snapshot.clone())
            .write(path)
            .map_err(io_context("cannot write metrics report", path))?;
        eprintln!("[metrics] {}", path.display());
    }
    if let Some(path) = &run.trace_out {
        nmcache::telemetry::report::write_chrome_trace(&snapshot, path)
            .map_err(io_context("cannot write trace", path))?;
        eprintln!("[trace] {}", path.display());
    }
    if run.stats && !snapshot.sweeps.is_empty() {
        println!(
            "\n{}",
            nmcache::core::report::sweep_stats_table(&snapshot.sweeps)
        );
    }
    Ok(())
}

/// Prefixes an I/O error with what was being done to which path.
fn io_context<'a>(
    what: &'a str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> std::io::Error + 'a {
    move |e| std::io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// Prints a 72x22 ASCII plot of `series`.
fn plot(series: &[Series], x_label: &str, y_label: &str) {
    println!(
        "{}",
        nmcache::core::plot::ascii_plot(series, 72, 22, x_label, y_label)
    );
}

/// Prints `table` and writes it to `--csv` when asked.
fn emit(table: &Table, run: &RunOptions) -> Result<(), AppError> {
    println!("{table}");
    if let Some(path) = &run.csv {
        table.write_csv(path)?;
        println!("[csv] {}", path.display());
    }
    Ok(())
}

fn run(command: Command) -> Result<(), AppError> {
    match command {
        Command::Help => {
            println!("{}", cli::USAGE);
            Ok(())
        }
        Command::List => {
            println!("{}", nmcache::core::experiments::registry_table());
            Ok(())
        }
        Command::Study(which, opts) => run_study(which, &opts),
        Command::Campaign(opts) => run_campaign(&opts),
        Command::Loadgen(opts) => run_loadgen(&opts),
        Command::Benchdiff(opts) => run_benchdiff(&opts),
        Command::Analyze(opts) => run_analyze(&opts),
    }
}

/// Runs one study and emits its table, followed by the winning size for
/// the L1/L2 sweeps.
fn run_study(which: Study, opts: &Options) -> Result<(), AppError> {
    let mut winner = None;
    let table = match which {
        Study::Fig1 => {
            let study = SingleCacheStudy::paper_16kb()?;
            let series = study.fixed_knob_curves()?;
            let (x, y) = ("access time (ps)", "leakage (mW)");
            plot(&series, x, y);
            Series::to_table(&series, "Figure 1: fixed Vth vs fixed Tox (16KB)", x, y)
        }
        Study::Fig2 => {
            let missrates = build_missrates(&[opts.l1_bytes], &[opts.l2_bytes], opts.run.quick)?;
            let stats = *missrates.get(opts.l1_bytes, opts.l2_bytes).ok_or(
                StudyError::MissingMissRates {
                    l1_bytes: opts.l1_bytes,
                    l2_bytes: opts.l2_bytes,
                },
            )?;
            let study = MemorySystemStudy::new(
                opts.l1_bytes,
                opts.l2_bytes,
                stats,
                &TechnologyNode::bptm65(),
                KnobGrid::coarse(),
                MainMemory::default(),
            )?;
            let targets = study.amat_sweep(opts.steps);
            let curves = study.tuple_curves(&TupleCounts::FIGURE2, &targets)?;
            plot(&curves, "AMAT (ps)", "total energy (pJ)");
            study.tuple_table(&TupleCounts::FIGURE2, &targets)
        }
        Study::Schemes => {
            let study = SingleCacheStudy::paper_16kb()?;
            let deadlines: Vec<_> = study
                .delay_sweep(opts.steps + 1)
                .into_iter()
                .skip(1)
                .collect();
            study.scheme_comparison(&deadlines)
        }
        Study::Ablation => {
            let study = SingleCacheStudy::paper_16kb()?;
            let deadlines: Vec<_> = study
                .delay_sweep(opts.steps + 2)
                .into_iter()
                .skip(2)
                .collect();
            study.knob_ablation(&deadlines)
        }
        Study::Fit => {
            let tech = TechnologyNode::bptm65();
            let circuit = nmcache::geometry::CacheCircuit::new(
                nmcache::geometry::CacheConfig::new(opts.l1_bytes, 64, 4)?,
                &tech,
            );
            fit_report(&circuit, &KnobGrid::paper())?
        }
        Study::Explore => {
            let tech = TechnologyNode::bptm65();
            let config = nmcache::geometry::CacheConfig::new(opts.l1_bytes, 64, 4)?;
            let ranked = nmcache::geometry::explore::explore(
                config,
                &tech,
                nmcache::geometry::explore::Objective::EnergyDelay,
            );
            let mut table = Table::new(
                format!("Subarray foldings of {config}, ranked by energy-delay product"),
                &[
                    "rows",
                    "cols",
                    "mats",
                    "access (ps)",
                    "read (pJ)",
                    "leak (mW)",
                ],
            );
            for e in ranked.iter().take(opts.steps) {
                table.push_row(vec![
                    e.org.rows.to_string(),
                    e.org.cols.to_string(),
                    e.org.subarrays.to_string(),
                    cell(e.metrics.access_time().picos(), 0),
                    cell(e.metrics.read_energy().picos(), 2),
                    cell(e.metrics.leakage().total().milli(), 3),
                ]);
            }
            table
        }
        Study::L2Sweep => {
            let study = TwoLevelStudy::standard(opts.run.quick)?;
            let l2_sizes = TwoLevelStudy::standard_l2_sizes();
            let target = study.amat_target(opts.l1_bytes, &l2_sizes, opts.run.slack)?;
            let sweep = study.l2_size_sweep(opts.l1_bytes, &l2_sizes, opts.scheme, target)?;
            winner = sweep.winner().map(|w| w.size_bytes);
            sweep.to_table()
        }
        Study::L1Sweep => {
            let study = TwoLevelStudy::standard(opts.run.quick)?;
            let l1_sizes = TwoLevelStudy::standard_l1_sizes();
            let mut best = f64::INFINITY;
            for &l1 in &l1_sizes {
                best = best.min(study.min_amat_l1_fixed(l1, opts.l2_bytes)?.0);
            }
            let target = nmcache::device::units::Seconds(best * (1.0 + opts.run.slack));
            let sweep = study.l1_size_sweep(&l1_sizes, opts.l2_bytes, target)?;
            winner = sweep.winner().map(|w| w.size_bytes);
            sweep.to_table()
        }
        Study::MissRates => {
            let table = build_missrates(
                &TwoLevelStudy::standard_l1_sizes(),
                &TwoLevelStudy::standard_l2_sizes(),
                opts.run.quick,
            )?;
            let mut out = Table::new(
                format!("Miss rates averaged over {:?}", table.suites()),
                &["L1 (KB)", "L2 (KB)", "m1", "m2", "global"],
            );
            for (&(l1, l2), s) in table.iter() {
                out.push_row(vec![
                    cell(l1 as f64 / 1024.0, 0),
                    cell(l2 as f64 / 1024.0, 0),
                    cell(s.l1_miss_rate, 4),
                    cell(s.l2_local_miss_rate, 4),
                    cell(s.global_miss_rate(), 5),
                ]);
            }
            out
        }
        Study::Variation => {
            let vs: VariationStudy = paper_16kb_variation(opts.samples, 65)?;
            let deadlines: Vec<_> = vs
                .study()
                .delay_sweep(opts.steps)
                .into_iter()
                .skip(2)
                .collect();
            vs.to_table(&deadlines)?
        }
        Study::Thermal => ThermalStudy::paper_16kb()?.to_table(opts.run.slack)?,
        Study::Decay => {
            let single = SingleCacheStudy::paper_16kb()?;
            let study = DecayStudy::new(single, opts.suite, 300_000);
            let deadline = study.study().delay_sweep(5)[2] * (1.0 + opts.run.slack - 0.15);
            study.to_table(deadline)?
        }
        Study::SplitL1 => {
            let study = SplitL1Study::new(
                opts.l1_bytes,
                opts.l1_bytes,
                opts.l2_bytes,
                opts.suite,
                if opts.run.quick { 150_000 } else { 500_000 },
                KnobGrid::paper(),
            )?;
            study.to_table(&[0.08, opts.run.slack, 0.30])
        }
        Study::TraceSim => {
            // The parser guarantees --trace was given; fail as a usage
            // error rather than panicking if that invariant ever breaks.
            let Some(path) = opts.trace.as_ref() else {
                return Err(CliError("trace-sim requires --trace <PATH>".into()).into());
            };
            let bytes = std::fs::read(path).map_err(io_context("cannot read trace", path))?;
            // Auto-detect the compact binary format by its magic.
            let trace = if bytes.starts_with(&BINARY_MAGIC) {
                read_trace_binary(bytes.as_slice())?
            } else {
                read_trace(bytes.as_slice())?
            };
            println!("{}: {} references", path.display(), trace.len());
            let mut workload = TraceWorkload::try_new(trace)?;
            let mut h = MultiLevel::new(vec![
                CacheParams::new(opts.l1_bytes, 64, 4)?,
                CacheParams::new(opts.l2_bytes, 64, 8)?,
            ])?;
            let n = (workload.len() as u64).max(1);
            for _ in 0..n {
                h.access(workload.next_access());
            }
            let s = h.stats();
            let mut table = Table::new(
                format!(
                    "Trace replay, L1 {} KB / L2 {} KB",
                    opts.l1_bytes / 1024,
                    opts.l2_bytes / 1024
                ),
                &["references", "m1", "m2", "global", "L1 writebacks"],
            );
            table.push_row(vec![
                n.to_string(),
                cell(s.levels[0].miss_rate(), 4),
                cell(s.levels[1].miss_rate(), 4),
                cell(s.global_miss_rate(), 5),
                s.writebacks[0].to_string(),
            ]);
            table
        }
        Study::E8 => {
            let sizes = std::array::from_fn(|i| opts.level_sizes[i].unwrap_or(STANDARD_SIZES[i]));
            let candidates = match &opts.l3_tech {
                Some(tech) => vec![tech.clone()],
                None => vec![
                    TechProfile::sram(),
                    TechProfile::edram(),
                    TechProfile::stt_mram(),
                ],
            };
            let study =
                MixedTechStudy::with_shape(opts.run.quick, sizes, opts.upstream_techs.clone())?;
            study.compare(&candidates, opts.run.slack)?.to_table()
        }
    };
    emit(&table, &opts.run)?;
    if let Some(bytes) = winner {
        println!("winner: {} KB", bytes / 1024);
    }
    Ok(())
}

/// Replays a deterministic query mix against the in-process evaluator
/// and publishes the drained telemetry registry as a schema-versioned
/// serve report (`BENCH_serve.json` by default) with p50/p95/p99 per
/// query class.
fn run_loadgen(opts: &LoadgenOptions) -> Result<(), AppError> {
    let config = nmcache::loadgen::LoadgenConfig {
        seed: opts.seed,
        queries: opts.queries,
        mode: match opts.rate_qps {
            Some(rate_qps) => nmcache::loadgen::Mode::Open { rate_qps },
            None => nmcache::loadgen::Mode::Closed,
        },
        quick: opts.run.quick,
    };
    nmcache::telemetry::reset();
    nmcache::telemetry::enable();
    nmcache::telemetry::set_note("command", "loadgen");
    let summary = nmcache::loadgen::run(&config)?;
    let snapshot = nmcache::telemetry::drain();
    nmcache::telemetry::disable();

    let mut table = Table::new(
        format!(
            "Serve latency, seed {} ({} queries)",
            opts.seed, summary.queries
        ),
        &["class", "queries", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
    );
    for class in nmcache::loadgen::QueryClass::ALL {
        let Some(h) = snapshot.histograms.get(class.latency_name()) else {
            continue;
        };
        table.push_row(vec![
            class.label().to_string(),
            h.count.to_string(),
            cell(h.quantile(0.50) * 1e3, 3),
            cell(h.quantile(0.95) * 1e3, 3),
            cell(h.quantile(0.99) * 1e3, 3),
        ]);
    }
    println!("{table}");
    println!(
        "loadgen: {} queries ({} feasible, {} infeasible, {} errors) \
         in {:.2}s, {:.1} qps",
        summary.queries,
        summary.feasible,
        summary.infeasible,
        summary.errors,
        summary.wall_seconds,
        summary.throughput_qps,
    );
    if let Some(msg) = &summary.first_error {
        eprintln!("warning: first query error: {msg}");
    }
    nmcache::telemetry::RunReport::from_snapshot(snapshot)
        .write(&opts.out)
        .map_err(io_context("cannot write serve report", &opts.out))?;
    println!("[serve] {}", opts.out.display());
    Ok(())
}

/// Compares two serve reports and fails with the SLO exit code when the
/// candidate's p99 regresses past `--max-ratio` on any histogram.
fn run_benchdiff(opts: &BenchdiffOptions) -> Result<(), AppError> {
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(io_context("cannot read report", path));
    let baseline = read(&opts.baseline)?;
    let candidate = read(&opts.candidate)?;
    let report = nmcache::loadgen::diff(&baseline, &candidate, opts.max_ratio)
        .map_err(|e| AppError::Usage(CliError(e.to_string())))?;

    let mut table = Table::new(
        format!(
            "p99 comparison, {} vs {} (max ratio {}, machine scale {:.3})",
            opts.baseline.display(),
            opts.candidate.display(),
            opts.max_ratio,
            report.machine_scale,
        ),
        &[
            "histogram",
            "base p99 (ms)",
            "cand p99 (ms)",
            "ratio",
            "verdict",
        ],
    );
    for h in &report.histograms {
        table.push_row(vec![
            h.name.clone(),
            cell(h.base_p99 * 1e3, 3),
            cell(h.cand_p99 * 1e3, 3),
            cell(h.ratio, 3),
            if h.regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    println!("{table}");
    let regressions = report.regressions();
    if regressions > 0 {
        return Err(AppError::Slo(format!(
            "benchdiff: {regressions} histogram(s) regressed past {}x p99",
            opts.max_ratio
        )));
    }
    println!(
        "benchdiff: {} histogram(s) compared, none regressed",
        report.histograms.len()
    );
    Ok(())
}

/// Runs a cross-product campaign and emits its table like a study's.
/// Failed cells are left out of the table and named on stderr.
fn run_campaign(opts: &CampaignOptions) -> Result<(), AppError> {
    let config = CampaignConfig {
        l1_sizes: opts.l1_sizes.clone(),
        l2_sizes: opts.l2_sizes.clone(),
        schemes: opts.schemes.clone(),
        l2_techs: opts.techs.clone(),
        temperatures_c: opts.temps_c.clone(),
        slack: opts.run.slack,
        quick: opts.run.quick,
    };
    let outcome = Campaign::new(config)?.run();
    emit(&outcome.to_table(), &opts.run)?;
    for (cell, reason) in outcome.failures() {
        eprintln!("warning: cell {cell} failed: {reason}");
    }
    println!(
        "campaign: {} computed, {} failed, {} cells",
        outcome.computed, outcome.failed, outcome.total,
    );
    Ok(())
}

/// Runs the D1–D6 static-analysis pass and maps the outcome onto the
/// exit-code discipline: clean → 0, findings or stale allowlist
/// entries → 3, malformed side file → 2, unreadable file → 5.
fn run_analyze(opts: &AnalyzeOptions) -> Result<(), AppError> {
    let root = opts.root.clone().unwrap_or_else(|| ".".into());
    let mut config = analyze::Config::for_root(root);
    if !opts.rules.is_empty() {
        config.rules = opts.rules.clone();
    }
    let analysis = analyze::analyze(&config)?;
    print!("{}", analyze::report::render_text(&analysis));
    if let Some(path) = &opts.json {
        std::fs::write(path, analyze::report::render_json(&analysis))
            .map_err(io_context("cannot write findings report", path))?;
        eprintln!("[analyze] {}", path.display());
    }
    if analysis.is_clean() {
        Ok(())
    } else {
        Err(AppError::Findings(format!(
            "analyze: {} finding(s), {} stale allowlist entr{}",
            analysis.findings.len(),
            analysis.stale.len(),
            if analysis.stale.len() == 1 {
                "y"
            } else {
                "ies"
            },
        )))
    }
}

fn build_missrates(
    l1_sizes: &[u64],
    l2_sizes: &[u64],
    quick: bool,
) -> Result<MissRateTable, StudyError> {
    let (warmup, measure) = if quick {
        (50_000, 100_000)
    } else {
        (300_000, 600_000)
    };
    Ok(MissRateTable::try_build(
        l1_sizes,
        l2_sizes,
        &STANDARD_SUITES,
        2005,
        warmup,
        measure,
    )?)
}
