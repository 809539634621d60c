//! `nmcache` — reproduce the DATE 2005 experiments from the command line.

use nmcache::analyze::{self, rules::RuleId, AnalyzeError};
use nmcache::archsim::cache::{CacheParams, Replacement};
use nmcache::archsim::hierarchy::TwoLevel;
use nmcache::archsim::trace::{
    read_trace, read_trace_binary, TraceError, TraceWorkload, BINARY_MAGIC,
};
use nmcache::archsim::workload::{SuiteKind, Workload};
use nmcache::archsim::MissRateTable;
use nmcache::cli::{
    self, AnalyzeOptions, BenchdiffOptions, CampaignOptions, CliError, Command, LoadgenOptions,
    LogLevelArg, Options, SchemeArg,
};
use nmcache::core::amat::MainMemory;
use nmcache::core::campaign::{Campaign, CampaignConfig, CampaignError};
use nmcache::core::decay::DecayStudy;
use nmcache::core::fitcheck::fit_report;
use nmcache::core::groups::Scheme;
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
use nmcache::store::Store;
use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;

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
    /// The persistence layer failed: a corrupt or mismatched campaign
    /// checkpoint, a checkpoint write failure, or `--require-store`
    /// with no usable store.
    Store(String),
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
            AppError::Store(_) => 6,
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
            AppError::Findings(summary) => write!(f, "{summary}"),
            AppError::Store(e) => write!(f, "{e}"),
            AppError::Slo(summary) => write!(f, "{summary}"),
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

impl From<CampaignError> for AppError {
    fn from(e: CampaignError) -> Self {
        // A per-cell model failure is a study problem (exit 3); every
        // other variant is the persistence layer failing (exit 6).
        match e {
            CampaignError::Study(e) => AppError::Study(e),
            other => AppError::Store(other.to_string()),
        }
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

/// What to do with the telemetry registry once the command finishes.
#[derive(Debug, Default)]
struct TelemetryPlan {
    show_stats: bool,
    metrics: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
}

/// Applies the `--threads` override and arms the unified telemetry
/// registry when any observability flag (`--stats`, `--metrics`,
/// `--trace-out`, `--log-level`) asks for it. With all of them off the
/// registry stays disabled and instrumented code pays one relaxed
/// atomic load per call site, keeping golden outputs byte-identical.
fn configure_telemetry(command: &Command) -> TelemetryPlan {
    // Campaign and loadgen carry their own thread/telemetry flags
    // (loadgen arms and drains the registry itself — its report *is*
    // the command's product, not an optional add-on).
    if let Command::Campaign(opts) = command {
        if let Some(n) = opts.threads {
            nmcache::sweep::set_global_workers(Some(n));
        }
        if opts.stats || opts.metrics.is_some() {
            nmcache::telemetry::enable();
            nmcache::telemetry::set_note("command", "campaign");
        }
        return TelemetryPlan {
            show_stats: opts.stats,
            metrics: opts.metrics.clone(),
            trace_out: None,
        };
    }
    if let Command::Loadgen(opts) = command {
        if let Some(n) = opts.threads {
            nmcache::sweep::set_global_workers(Some(n));
        }
        return TelemetryPlan::default();
    }
    let Some(opts) = options_of(command) else {
        return TelemetryPlan::default();
    };
    if let Some(n) = opts.threads {
        nmcache::sweep::set_global_workers(Some(n));
    }
    let level = match opts.log_level {
        LogLevelArg::Off => nmcache::telemetry::LogLevel::Off,
        LogLevelArg::Info => nmcache::telemetry::LogLevel::Info,
        LogLevelArg::Debug => nmcache::telemetry::LogLevel::Debug,
    };
    nmcache::telemetry::set_log_level(level);
    let wanted = opts.stats
        || opts.metrics.is_some()
        || opts.trace_out.is_some()
        || level != nmcache::telemetry::LogLevel::Off;
    if wanted {
        nmcache::telemetry::enable();
        nmcache::telemetry::set_note("command", command_name(command));
    }
    TelemetryPlan {
        show_stats: opts.stats,
        metrics: opts.metrics.clone(),
        trace_out: opts.trace_out.clone(),
    }
}

/// Exports the run's telemetry per the plan: the `--stats` table, the
/// `--metrics` JSON report and the `--trace-out` Chrome trace all read
/// one registry snapshot, so they always agree with each other.
fn finish_telemetry(plan: &TelemetryPlan) -> Result<(), AppError> {
    if !plan.show_stats && plan.metrics.is_none() && plan.trace_out.is_none() {
        return Ok(());
    }
    let snapshot = nmcache::telemetry::snapshot();
    if let Some(path) = &plan.metrics {
        nmcache::telemetry::RunReport::from_snapshot(snapshot.clone())
            .write(path)
            .map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot write metrics report {}: {e}", path.display()),
                )
            })?;
        eprintln!("[metrics] {}", path.display());
    }
    if let Some(path) = &plan.trace_out {
        nmcache::telemetry::report::write_chrome_trace(&snapshot, path).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot write trace {}: {e}", path.display()),
            )
        })?;
        eprintln!("[trace] {}", path.display());
    }
    if plan.show_stats {
        let recorded: Vec<nmcache::sweep::SweepStats> = snapshot
            .sweeps
            .iter()
            .map(|r| nmcache::sweep::SweepStats {
                label: r.label.clone(),
                items: r.items,
                workers: r.workers,
                wall: std::time::Duration::from_nanos(r.wall_ns),
                faults: r.faults,
                retries: r.retries,
                poisoned_workers: r.poisoned_workers,
            })
            .collect();
        if !recorded.is_empty() {
            println!("\n{}", nmcache::core::report::sweep_stats_table(&recorded));
        }
    }
    Ok(())
}

/// The subcommand's name, recorded as the report's `command` note.
fn command_name(command: &Command) -> &'static str {
    match command {
        Command::Fig1(_) => "fig1",
        Command::Fig2(_) => "fig2",
        Command::Schemes(_) => "schemes",
        Command::L2Sweep(_) => "l2-sweep",
        Command::L1Sweep(_) => "l1-sweep",
        Command::Ablation(_) => "ablation",
        Command::Fit(_) => "fit",
        Command::Explore(_) => "explore",
        Command::MissRates(_) => "missrates",
        Command::Variation(_) => "variation",
        Command::Thermal(_) => "thermal",
        Command::Decay(_) => "decay",
        Command::SplitL1(_) => "split-l1",
        Command::TraceSim(_) => "trace-sim",
        Command::E8(_) => "e8",
        Command::Campaign(_) => "campaign",
        Command::Loadgen(_) => "loadgen",
        Command::Benchdiff(_) => "benchdiff",
        Command::Analyze(_) => "analyze",
        Command::List => "list",
        Command::Help => "help",
    }
}

fn options_of(command: &Command) -> Option<&Options> {
    match command {
        Command::Fig1(o)
        | Command::Fig2(o)
        | Command::Schemes(o)
        | Command::L2Sweep(o)
        | Command::L1Sweep(o)
        | Command::Ablation(o)
        | Command::Fit(o)
        | Command::Explore(o)
        | Command::MissRates(o)
        | Command::Variation(o)
        | Command::Thermal(o)
        | Command::Decay(o)
        | Command::SplitL1(o)
        | Command::TraceSim(o)
        | Command::E8(o) => Some(o),
        Command::Campaign(_)
        | Command::Loadgen(_)
        | Command::Benchdiff(_)
        | Command::Analyze(_)
        | Command::List
        | Command::Help => None,
    }
}

fn suite_of(opts: &Options) -> Result<SuiteKind, AppError> {
    match &opts.suite {
        None => Ok(SuiteKind::Spec2000),
        Some(name) => SuiteKind::from_name(name)
            .ok_or_else(|| CliError(format!("unknown suite {name:?}")).into()),
    }
}

fn scheme_of(arg: SchemeArg) -> Scheme {
    match arg {
        SchemeArg::Uniform => Scheme::Uniform,
        SchemeArg::Split => Scheme::Split,
        SchemeArg::PerComponent => Scheme::PerComponent,
    }
}

fn emit(table: &Table, opts: &Options) -> Result<(), AppError> {
    println!("{table}");
    if let Some(path) = &opts.csv {
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
        Command::Fig1(opts) => {
            let study = SingleCacheStudy::paper_16kb()?;
            let series = study.fixed_knob_curves()?;
            println!(
                "{}",
                nmcache::core::plot::ascii_plot(
                    &series,
                    72,
                    22,
                    "access time (ps)",
                    "leakage (mW)"
                )
            );
            let table = Series::to_table(
                &series,
                "Figure 1: fixed Vth vs fixed Tox (16KB)",
                "access time (ps)",
                "leakage (mW)",
            );
            emit(&table, &opts)
        }
        Command::Fig2(opts) => {
            let missrates = build_missrates(&[opts.l1_bytes], &[opts.l2_bytes], opts.quick)?;
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
            let curves = study.tuple_curves(&TupleCounts::FIGURE2, &targets);
            println!(
                "{}",
                nmcache::core::plot::ascii_plot(&curves, 72, 22, "AMAT (ps)", "total energy (pJ)")
            );
            emit(&study.tuple_table(&TupleCounts::FIGURE2, &targets), &opts)
        }
        Command::Schemes(opts) => {
            let study = SingleCacheStudy::paper_16kb()?;
            let deadlines: Vec<_> = study
                .delay_sweep(opts.steps + 1)
                .into_iter()
                .skip(1)
                .collect();
            emit(&study.scheme_comparison(&deadlines), &opts)
        }
        Command::Ablation(opts) => {
            let study = SingleCacheStudy::paper_16kb()?;
            let deadlines: Vec<_> = study
                .delay_sweep(opts.steps + 2)
                .into_iter()
                .skip(2)
                .collect();
            emit(&study.knob_ablation(&deadlines), &opts)
        }
        Command::Fit(opts) => {
            let tech = TechnologyNode::bptm65();
            let circuit = nmcache::geometry::CacheCircuit::new(
                nmcache::geometry::CacheConfig::new(opts.l1_bytes, 64, 4)?,
                &tech,
            );
            emit(&fit_report(&circuit, &KnobGrid::paper())?, &opts)
        }
        Command::Explore(opts) => {
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
            emit(&table, &opts)
        }
        Command::L2Sweep(opts) => {
            let study = TwoLevelStudy::standard(opts.quick)?;
            let l2_sizes = TwoLevelStudy::standard_l2_sizes();
            let target = study.amat_target(opts.l1_bytes, &l2_sizes, opts.slack)?;
            let sweep =
                study.l2_size_sweep(opts.l1_bytes, &l2_sizes, scheme_of(opts.scheme), target)?;
            emit(&sweep.to_table(), &opts)?;
            if let Some(w) = sweep.winner() {
                println!("winner: {} KB", w.size_bytes / 1024);
            }
            Ok(())
        }
        Command::L1Sweep(opts) => {
            let study = TwoLevelStudy::standard(opts.quick)?;
            let l1_sizes = TwoLevelStudy::standard_l1_sizes();
            let mut best = f64::INFINITY;
            for &l1 in &l1_sizes {
                best = best.min(study.min_amat_l1_fixed(l1, opts.l2_bytes)?.0);
            }
            let target = nmcache::device::units::Seconds(best * (1.0 + opts.slack));
            let sweep = study.l1_size_sweep(&l1_sizes, opts.l2_bytes, target)?;
            emit(&sweep.to_table(), &opts)?;
            if let Some(w) = sweep.winner() {
                println!("winner: {} KB", w.size_bytes / 1024);
            }
            Ok(())
        }
        Command::MissRates(opts) => {
            let table = build_missrates(
                &TwoLevelStudy::standard_l1_sizes(),
                &TwoLevelStudy::standard_l2_sizes(),
                opts.quick,
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
            emit(&out, &opts)
        }
        Command::Variation(opts) => {
            let vs: VariationStudy = paper_16kb_variation(opts.samples, 65)?;
            let deadlines: Vec<_> = vs
                .study()
                .delay_sweep(opts.steps)
                .into_iter()
                .skip(2)
                .collect();
            emit(&vs.to_table(&deadlines), &opts)
        }
        Command::Thermal(opts) => {
            let study = ThermalStudy::paper_16kb()?;
            emit(&study.to_table(opts.slack), &opts)
        }
        Command::Decay(opts) => {
            let single = SingleCacheStudy::paper_16kb()?;
            let study = DecayStudy::new(single, suite_of(&opts)?, 300_000);
            let deadline = study.study().delay_sweep(5)[2] * (1.0 + opts.slack - 0.15);
            emit(&study.to_table(deadline), &opts)
        }
        Command::SplitL1(opts) => {
            let study = SplitL1Study::new(
                opts.l1_bytes,
                opts.l1_bytes,
                opts.l2_bytes,
                suite_of(&opts)?,
                if opts.quick { 150_000 } else { 500_000 },
                KnobGrid::paper(),
            )?;
            emit(&study.to_table(&[0.08, opts.slack, 0.30]), &opts)
        }
        Command::TraceSim(opts) => {
            // The parser guarantees --trace was given; fail as a usage
            // error rather than panicking if that invariant ever breaks.
            let Some(path) = opts.trace.as_ref() else {
                return Err(CliError("trace-sim requires --trace <PATH>".into()).into());
            };
            let bytes = std::fs::read(path).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot read trace {}: {e}", path.display()),
                )
            })?;
            // Auto-detect the compact binary format by its magic.
            let trace = if bytes.starts_with(&BINARY_MAGIC) {
                read_trace_binary(bytes.as_slice())?
            } else {
                read_trace(bytes.as_slice())?
            };
            println!("{}: {} references", path.display(), trace.len());
            let mut workload = TraceWorkload::try_new(trace)?;
            let mut h = TwoLevel::new(
                CacheParams::new(opts.l1_bytes, 64, 4)?,
                CacheParams::new(opts.l2_bytes, 64, 8)?,
                Replacement::Lru,
            );
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
                cell(s.l1_miss_rate(), 4),
                cell(s.l2_local_miss_rate(), 4),
                cell(s.l2_global_miss_rate(), 5),
                s.l1_writebacks.to_string(),
            ]);
            emit(&table, &opts)
        }
        Command::E8(opts) => {
            let sizes = [
                opts.level_sizes[0].unwrap_or(STANDARD_SIZES[0]),
                opts.level_sizes[1].unwrap_or(STANDARD_SIZES[1]),
                opts.level_sizes[2].unwrap_or(STANDARD_SIZES[2]),
            ];
            let upstream = [
                tech_of(opts.upstream_techs[0].as_deref())?,
                tech_of(opts.upstream_techs[1].as_deref())?,
            ];
            let candidates: Vec<TechProfile> = match &opts.l3_tech {
                Some(name) => vec![tech_of(Some(name))?],
                None => TechProfile::KNOWN_NAMES
                    .iter()
                    .map(|n| tech_of(Some(n)))
                    .collect::<Result<_, _>>()?,
            };
            let study = MixedTechStudy::with_shape(opts.quick, sizes, upstream)?;
            let outcome = study.compare(&candidates, opts.slack)?;
            emit(&outcome.to_table(), &opts)
        }
        Command::Campaign(opts) => run_campaign(&opts),
        Command::Loadgen(opts) => run_loadgen(&opts),
        Command::Benchdiff(opts) => run_benchdiff(&opts),
        Command::Analyze(opts) => run_analyze(&opts),
    }
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
        quick: opts.quick,
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
        .map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot write serve report {}: {e}", opts.out.display()),
            )
        })?;
    println!("[serve] {}", opts.out.display());
    Ok(())
}

/// Compares two serve reports and fails with the SLO exit code when the
/// candidate's p99 regresses past `--max-ratio` on any histogram.
fn run_benchdiff(opts: &BenchdiffOptions) -> Result<(), AppError> {
    let read = |path: &std::path::Path| -> Result<String, AppError> {
        std::fs::read_to_string(path)
            .map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot read report {}: {e}", path.display()),
                )
            })
            .map_err(AppError::from)
    };
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

/// Runs a crash-resumable cross-product campaign rooted at `--out`:
/// checkpoint at `<out>/checkpoint.nmck`, persistent store at
/// `<out>/store`. An interrupted campaign (`--max-cells`, a crash, a
/// kill) resumes by rerunning the same command.
fn run_campaign(opts: &CampaignOptions) -> Result<(), AppError> {
    let config = CampaignConfig {
        l1_sizes: opts.l1_sizes.clone(),
        l2_sizes: opts.l2_sizes.clone(),
        schemes: opts.schemes.iter().copied().map(scheme_of).collect(),
        l2_techs: opts
            .techs
            .iter()
            .map(|n| tech_of(Some(n)))
            .collect::<Result<_, _>>()?,
        temperatures_c: opts.temps_c.clone(),
        slack: opts.slack,
        quick: opts.quick,
        checkpoint_every: opts.checkpoint_every,
    };
    std::fs::create_dir_all(&opts.out).map_err(|e| {
        AppError::Store(format!(
            "cannot create campaign directory {}: {e}",
            opts.out.display()
        ))
    })?;
    // The store is an accelerator, not a correctness requirement: if it
    // cannot open, warn and run without it — unless --require-store
    // promotes that to a persistence failure.
    let store = match Store::open(&opts.out.join("store")) {
        Ok(s) => Some(Arc::new(s)),
        Err(e) if opts.require_store => {
            return Err(AppError::Store(format!("cannot open store: {e}")));
        }
        Err(e) => {
            eprintln!("warning: continuing without store: {e}");
            None
        }
    };
    let checkpoint = opts.out.join("checkpoint.nmck");
    let campaign = Campaign::new(config, store)?;
    let outcome = campaign.run(&checkpoint, opts.fresh, opts.max_cells)?;

    let table = outcome.to_table();
    println!("{table}");
    if let Some(path) = &opts.csv {
        table.write_csv(path)?;
        println!("[csv] {}", path.display());
    }
    for (cell, reason) in outcome.failures() {
        eprintln!("warning: cell {cell} failed: {reason}");
    }
    println!(
        "campaign: {} computed, {} resumed, {} failed, {} of {} cells done",
        outcome.computed,
        outcome.resumed,
        outcome.failed,
        outcome.computed + outcome.resumed,
        outcome.total,
    );
    if !outcome.complete {
        println!(
            "rerun the same command to resume from {}",
            checkpoint.display()
        );
    }
    Ok(())
}

/// Runs the D1–D6 static-analysis pass and maps the outcome onto the
/// exit-code discipline: clean → 0, findings or stale allowlist
/// entries → 3, malformed side file → 2, unreadable file → 5.
fn run_analyze(opts: &AnalyzeOptions) -> Result<(), AppError> {
    let root = opts.root.clone().unwrap_or_else(|| ".".into());
    let mut config = analyze::Config::for_root(root);
    if !opts.rules.is_empty() {
        let mut rules = Vec::new();
        for name in &opts.rules {
            let rule = RuleId::from_name(name)
                .ok_or_else(|| CliError(format!("unknown rule {name:?} (expected D1..D6)")))?;
            if !rules.contains(&rule) {
                rules.push(rule);
            }
        }
        config.rules = rules;
    }
    let analysis = analyze::analyze(&config)?;
    print!("{}", analyze::report::render_text(&analysis));
    if let Some(path) = &opts.json {
        std::fs::write(path, analyze::report::render_json(&analysis)).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot write findings report {}: {e}", path.display()),
            )
        })?;
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

/// Resolves a `--l<i>-tech` name; `None` means the SRAM baseline.
fn tech_of(name: Option<&str>) -> Result<TechProfile, AppError> {
    match name {
        None => Ok(TechProfile::sram()),
        Some(n) => TechProfile::by_name(n).ok_or_else(|| {
            CliError(format!(
                "unknown technology {n:?} (expected one of {:?})",
                TechProfile::KNOWN_NAMES
            ))
            .into()
        }),
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
