//! Command-line parsing for the `nmcache` binary.
//!
//! Hand-rolled (no CLI dependency): a subcommand followed by `--flag
//! value` pairs. See [`USAGE`] for the full surface.
//!
//! Each subcommand declares its flags in one table: a row names the
//! flag, the kind of value it takes (a plain parse function such as
//! `positive`, `kb`, `fraction`, `list` or an engine name) and the field
//! it sets. One loop, `parse_flags`, reads every table, so `--help`, a
//! missing value and an unknown flag behave alike and each error message
//! is worded once. Values parse straight into engine types ([`Scheme`],
//! [`SuiteKind`], [`TechProfile`], [`LogLevel`], [`RuleId`]), so an
//! unknown name is a usage error. The flags several commands share set
//! [`RunOptions`] and are written once; each table lists those its
//! command accepts.

use nm_analyze::rules::RuleId;
use nm_archsim::workload::SuiteKind;
use nm_cache_core::groups::Scheme;
use nm_device::TechProfile;
use nm_telemetry::LogLevel;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// Usage text printed on `--help` or a parse error.
pub const USAGE: &str = "\
nmcache — power-performance trade-offs in nanometer-scale multi-level caches

USAGE: nmcache <COMMAND> [OPTIONS]

COMMANDS:
  list                 List every reproducible experiment
  fig1                 Figure 1: fixed-Vth vs fixed-Tox curves (16 KB)
  fig2                 Figure 2: (Tox, Vth) tuple problem energy curves
  schemes              Section 4: scheme I/II/III comparison
  l2-sweep             Section 5: L2 size sweep at iso-AMAT
  l1-sweep             Section 5: L1 size sweep at iso-AMAT
  ablation             Section 4: single-knob ablation
  fit                  Section 3: Eq.1/Eq.2 surface-fit quality
  explore              Rank subarray foldings of a cache (CACTI-style)
  missrates            Print the simulated miss-rate table
  variation            Extension: leakage under die-to-die variation
  thermal              Extension: temperature sensitivity
  decay                Extension: process knobs vs cache decay (gated-Vdd)
  split-l1             Extension: split I$/D$ vs unified L1
  trace-sim            Replay a trace file through an L1/L2 hierarchy
  e8                   E8: 3-level mixed-technology hierarchy (SRAM/eDRAM/STT-MRAM)
  campaign             Cross-product sweep: L1 x L2 x scheme x technology x temperature
  loadgen              Replay a seeded query mix against one evaluator and
                       publish p50/p95/p99 latency per query class
  benchdiff            Compare two telemetry reports and gate on p99 regression
  analyze              Run the D1-D6 determinism & safety lints over the workspace

ANALYZE OPTIONS (only valid after `analyze`):
  --json <PATH>        Also write the findings as schema-versioned JSON
  --rules <IDS>        Comma-separated rule subset, e.g. D1,D4 (default all)
  --root <PATH>        Workspace root to scan (default .)

CAMPAIGN OPTIONS (only valid after `campaign`):
  --l1-sizes <KBS>     Comma-separated L1 axis in KB (default 16,32)
  --l2-sizes <KBS>     Comma-separated L2 axis in KB (default 256,1024)
  --schemes <NAMES>    Comma-separated schemes (default uniform,split)
  --techs <NAMES>      Comma-separated L2 technologies (default sram)
  --temps <CELSIUS>    Comma-separated temperatures in C (default 80)
  --slack <FRACTION>   AMAT slack per cell over its fastest corner (default 0.15)
  --quick              Shorter simulations and the coarse knob grid
  --csv <PATH>         Also write the result table as CSV
  --threads <N>        Worker threads for parallel sweeps
  --stats              Print per-sweep executor statistics after the run
  --metrics <PATH>     Write a schema-versioned JSON telemetry report
                       (includes the campaign.cell.latency histogram)

LOADGEN OPTIONS (only valid after `loadgen`):
  --seed <N>           Mix seed (default 2005); a fixed seed and thread count
                       replay byte-identical counters and mix composition
  --queries <N>        Queries to synthesize (default 200)
  --rate <QPS>         Open-loop arrival rate; omit for closed-loop replay
  --quick              Coarse knob grid (CI-sized work items)
  --threads <N>        Worker threads for the replay pool
  --out <PATH>         Report path (default BENCH_serve.json)

BENCHDIFF OPTIONS (usage: `benchdiff <BASELINE.json> <CANDIDATE.json>`):
  --max-ratio <R>      Highest allowed candidate/baseline p99 ratio after
                       machine-scale normalization (default 2.0)

OPTIONS:
  --quick              Shorter architectural simulations (tests/smoke)
  --slack <FRACTION>   AMAT slack over the best corner (default 0.15)
  --scheme <NAME>      uniform | split | per-component (default uniform)
  --steps <N>          Sweep steps (default 8)
  --samples <N>        Monte-Carlo samples (default 400)
  --suite <NAME>       Workload suite: spec2000 | tpcc | specweb | pointer-chase
  --csv <PATH>         Also write the result table as CSV
  --trace <PATH>       Trace file for trace-sim
  --l1 <KB>            L1 size in KB (default 16)
  --l2 <KB>            L2 size in KB (default 1024)
  --l1-size <KB>       e8: L1 size in KB (default 16)
  --l2-size <KB>       e8: L2 size in KB (default 256)
  --l3-size <KB>       e8: L3 size in KB (default 4096)
  --l1-tech <NAME>     e8: L1 technology: sram | edram | stt-mram (default sram)
  --l2-tech <NAME>     e8: L2 technology (default sram)
  --l3-tech <NAME>     e8: restrict the swept L3 technology to one candidate
  --threads <N>        Worker threads for parallel sweeps
                       (default: NMCACHE_THREADS or all cores)
  --stats              Print per-sweep executor statistics after the run
  --metrics <PATH>     Write a schema-versioned JSON telemetry report
  --trace-out <PATH>   Write a Chrome/Perfetto trace-event JSON of the run
  --log-level <LEVEL>  Span logging on stderr: off | info | debug (default off)
  -h, --help           Show this help

EXIT CODES:
  0  success (for analyze: no findings, no stale allowlist entries)
  2  usage error (unknown command/flag, bad value, malformed analyze.allow)
  3  study or model error; for analyze: findings or stale allowlist entries
  4  trace format error (parse failure, corrupt/truncated binary)
  5  I/O error (missing trace file, unwritable CSV path)
  7  SLO regression (benchdiff: a candidate p99 exceeded --max-ratio x
     the baseline p99 after machine-scale normalization)
";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A study: one paper figure, table or extension (see [`STUDIES`]).
    /// Boxed: a study takes far more options than any other command.
    Study(Study, Box<Options>),
    /// Cross-product campaign.
    Campaign(CampaignOptions),
    /// Deterministic query-mix load generation.
    Loadgen(LoadgenOptions),
    /// Report comparison with the p99 SLO gate.
    Benchdiff(BenchdiffOptions),
    /// Static-analysis run (D1–D6 lints).
    Analyze(AnalyzeOptions),
    /// Experiment registry listing.
    List,
    /// Help requested.
    Help,
}

/// The study subcommands, named in [`STUDIES`] and summarised in
/// [`USAGE`]; they all share the [`Options`] flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    Fig1,
    Fig2,
    Schemes,
    L2Sweep,
    L1Sweep,
    Ablation,
    Fit,
    Explore,
    MissRates,
    Variation,
    Thermal,
    Decay,
    SplitL1,
    TraceSim,
    E8,
}

/// Every study subcommand by name, in [`USAGE`] order: the one table
/// that maps names to [`Study`] variants and back.
pub const STUDIES: [(&str, Study); 15] = [
    ("fig1", Study::Fig1),
    ("fig2", Study::Fig2),
    ("schemes", Study::Schemes),
    ("l2-sweep", Study::L2Sweep),
    ("l1-sweep", Study::L1Sweep),
    ("ablation", Study::Ablation),
    ("fit", Study::Fit),
    ("explore", Study::Explore),
    ("missrates", Study::MissRates),
    ("variation", Study::Variation),
    ("thermal", Study::Thermal),
    ("decay", Study::Decay),
    ("split-l1", Study::SplitL1),
    ("trace-sim", Study::TraceSim),
    ("e8", Study::E8),
];

impl Command {
    /// The subcommand name and shared run options of a command that
    /// takes them (studies, `campaign`, `loadgen`).
    pub fn run_options(&self) -> Option<(&'static str, &RunOptions)> {
        match self {
            Command::Study(study, o) => STUDIES
                .iter()
                .find(|(_, s)| s == study)
                .map(|(name, _)| (*name, &o.run)),
            Command::Campaign(o) => Some(("campaign", &o.run)),
            Command::Loadgen(o) => Some(("loadgen", &o.run)),
            Command::Benchdiff(_) | Command::Analyze(_) | Command::List | Command::Help => None,
        }
    }
}

/// Options several commands share. Each command's flag table lists the
/// ones it accepts; the rest keep their defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Shorter simulations (`--quick`).
    pub quick: bool,
    /// AMAT slack fraction (`--slack`).
    pub slack: f64,
    /// CSV output path (`--csv`).
    pub csv: Option<PathBuf>,
    /// Worker-thread override for parallel sweeps (`--threads`).
    pub threads: Option<usize>,
    /// Print per-sweep executor statistics after the run (`--stats`).
    pub stats: bool,
    /// Telemetry report output path (`--metrics`).
    pub metrics: Option<PathBuf>,
    /// Chrome trace-event output path (`--trace-out`, studies only).
    pub trace_out: Option<PathBuf>,
    /// Span-logging verbosity on stderr (`--log-level`, studies only).
    pub log_level: LogLevel,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            slack: 0.15,
            csv: None,
            threads: None,
            stats: false,
            metrics: None,
            trace_out: None,
            log_level: LogLevel::Off,
        }
    }
}

/// Options of the study subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The shared flags.
    pub run: RunOptions,
    /// Assignment scheme (`--scheme`).
    pub scheme: Scheme,
    /// Sweep steps (`--steps`).
    pub steps: usize,
    /// Monte-Carlo samples (`--samples`).
    pub samples: usize,
    /// Workload suite (`--suite`).
    pub suite: SuiteKind,
    /// Trace file path (`--trace`).
    pub trace: Option<PathBuf>,
    /// L1 size in bytes (`--l1`, KB on the command line).
    pub l1_bytes: u64,
    /// L2 size in bytes (`--l2`, KB on the command line).
    pub l2_bytes: u64,
    /// e8: per-level size overrides in bytes (L1, L2, L3); `None` keeps
    /// the study's standard shape.
    pub level_sizes: [Option<u64>; 3],
    /// e8: L1/L2 technologies (`--l1-tech`, `--l2-tech`).
    pub upstream_techs: [TechProfile; 2],
    /// e8: restrict the swept L3 technology to this one candidate.
    pub l3_tech: Option<TechProfile>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            run: RunOptions::default(),
            scheme: Scheme::Uniform,
            steps: 8,
            samples: 400,
            suite: SuiteKind::Spec2000,
            trace: None,
            l1_bytes: 16 * 1024,
            l2_bytes: 1024 * 1024,
            level_sizes: [None, None, None],
            upstream_techs: [TechProfile::sram(), TechProfile::sram()],
            l3_tech: None,
        }
    }
}

/// Options for the `campaign` subcommand: every axis is a list.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOptions {
    /// The shared flags.
    pub run: RunOptions,
    /// L1 size axis in bytes (`--l1-sizes`, KB on the command line).
    pub l1_sizes: Vec<u64>,
    /// L2 size axis in bytes (`--l2-sizes`, KB on the command line).
    pub l2_sizes: Vec<u64>,
    /// Scheme axis (`--schemes`).
    pub schemes: Vec<Scheme>,
    /// L2 technology axis (`--techs`).
    pub techs: Vec<TechProfile>,
    /// Temperature axis in °C (`--temps`).
    pub temps_c: Vec<f64>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            run: RunOptions::default(),
            l1_sizes: vec![16 * 1024, 32 * 1024],
            l2_sizes: vec![256 * 1024, 1024 * 1024],
            schemes: vec![Scheme::Uniform, Scheme::Split],
            techs: vec![TechProfile::sram()],
            temps_c: vec![80.0],
        }
    }
}

/// Options for the `loadgen` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOptions {
    /// The shared flags (`--quick`, `--threads`).
    pub run: RunOptions,
    /// Mix seed (`--seed`).
    pub seed: u64,
    /// Queries to synthesize (`--queries`).
    pub queries: usize,
    /// Open-loop arrival rate (`--rate`); `None` = closed loop.
    pub rate_qps: Option<f64>,
    /// Report output path (`--out`).
    pub out: PathBuf,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            run: RunOptions::default(),
            seed: 2005,
            queries: 200,
            rate_qps: None,
            out: PathBuf::from("BENCH_serve.json"),
        }
    }
}

/// Options for the `benchdiff` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchdiffOptions {
    /// Baseline report path (first positional).
    pub baseline: PathBuf,
    /// Candidate report path (second positional).
    pub candidate: PathBuf,
    /// Highest allowed normalized p99 ratio (`--max-ratio`).
    pub max_ratio: f64,
}

impl Default for BenchdiffOptions {
    fn default() -> Self {
        BenchdiffOptions {
            baseline: PathBuf::new(),
            candidate: PathBuf::new(),
            max_ratio: 2.0,
        }
    }
}

/// Options for the `analyze` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalyzeOptions {
    /// JSON report output path (`--json`).
    pub json: Option<PathBuf>,
    /// Rule subset from `--rules`, without repeats; empty means all.
    pub rules: Vec<RuleId>,
    /// Workspace root to scan (`--root`, default `.`).
    pub root: Option<PathBuf>,
}

impl AsMut<RunOptions> for Options {
    fn as_mut(&mut self) -> &mut RunOptions {
        &mut self.run
    }
}

impl AsMut<RunOptions> for CampaignOptions {
    fn as_mut(&mut self) -> &mut RunOptions {
        &mut self.run
    }
}

impl AsMut<RunOptions> for LoadgenOptions {
    fn as_mut(&mut self) -> &mut RunOptions {
        &mut self.run
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first unknown command, unknown
/// flag, malformed value or unknown engine name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let cmd = cmd.as_str();
    let command = match cmd {
        "-h" | "--help" | "help" => Some(Command::Help),
        "analyze" => parse_flags(cmd, &analyze_flags(), rest, None)?.map(Command::Analyze),
        "loadgen" => parse_flags(cmd, &loadgen_flags(), rest, None)?.map(Command::Loadgen),
        "campaign" => parse_flags(cmd, &campaign_flags(), rest, None)?.map(Command::Campaign),
        "benchdiff" => {
            let mut reports = Vec::new();
            let opts = parse_flags(cmd, &benchdiff_flags(), rest, Some(&mut reports))?;
            match (opts, <[PathBuf; 2]>::try_from(reports)) {
                (Some(o), Ok([baseline, candidate])) => {
                    Some(Command::Benchdiff(BenchdiffOptions {
                        baseline,
                        candidate,
                        ..o
                    }))
                }
                (Some(_), Err(got)) => {
                    return Err(CliError(format!(
                        "benchdiff needs exactly two report paths (<BASELINE> <CANDIDATE>), got {}",
                        got.len()
                    )))
                }
                (None, _) => None,
            }
        }
        // `list` takes (and ignores) the study flags.
        "list" => parse_flags(cmd, &study_flags(), rest, None)?.map(|_| Command::List),
        _ => {
            let Some(&(_, study)) = STUDIES.iter().find(|(name, _)| *name == cmd) else {
                return Err(CliError(format!("unknown command {cmd:?}")));
            };
            match parse_flags(cmd, &study_flags(), rest, None)? {
                Some(o) if study == Study::TraceSim && o.trace.is_none() => {
                    return Err(CliError("trace-sim requires --trace <PATH>".into()))
                }
                o => o.map(|o| Command::Study(study, Box::new(o))),
            }
        }
    };
    Ok(command.unwrap_or(Command::Help))
}

/// A command's flag table: one row per flag, each naming the flag, the
/// kind of value it takes and the field it sets.
struct Flags<O> {
    rows: Vec<(&'static str, Action<O>)>,
}

enum Action<O> {
    /// A switch: takes no value.
    Switch(fn(&mut O)),
    /// Parses the next argument and stores it.
    Value(Store<O>),
}

/// Parses a raw value and stores it in `O`.
type Store<O> = Box<dyn Fn(&mut O, &str) -> Result<(), CliError>>;

impl<O: 'static> Flags<O> {
    fn new() -> Self {
        Flags { rows: Vec::new() }
    }

    /// Adds a switch.
    fn switch(mut self, name: &'static str, set: fn(&mut O)) -> Self {
        self.rows.push((name, Action::Switch(set)));
        self
    }

    /// Adds a flag whose value `kind` parses and `set` stores.
    fn value<T>(
        mut self,
        name: &'static str,
        kind: impl Fn(&str, &str) -> Result<T, CliError> + 'static,
        set: impl Fn(&mut O, T) + 'static,
    ) -> Self {
        let store = move |opts: &mut O, raw: &str| {
            set(opts, kind(name, raw)?);
            Ok(())
        };
        self.rows.push((name, Action::Value(Box::new(store))));
        self
    }
}

/// The shared flags, each written once.
impl<O: AsMut<RunOptions> + 'static> Flags<O> {
    fn quick(self) -> Self {
        self.switch("--quick", |o| o.as_mut().quick = true)
    }

    fn slack(self) -> Self {
        self.value("--slack", fraction, |o, v| o.as_mut().slack = v)
    }

    fn csv(self) -> Self {
        self.value("--csv", path, |o, v| o.as_mut().csv = Some(v))
    }

    fn threads(self) -> Self {
        self.value("--threads", positive(number), |o, v| {
            o.as_mut().threads = Some(v)
        })
    }

    fn stats(self) -> Self {
        self.switch("--stats", |o| o.as_mut().stats = true)
    }

    fn metrics(self) -> Self {
        self.value("--metrics", path, |o, v| o.as_mut().metrics = Some(v))
    }
}

/// The one parse loop: applies `args` to a default `O` through `flags`.
/// Returns `None` when help was asked for. Bare words go to
/// `positionals` when the command takes them and are unknown flags
/// otherwise.
fn parse_flags<O: Default>(
    cmd: &str,
    flags: &Flags<O>,
    args: &[String],
    mut positionals: Option<&mut Vec<PathBuf>>,
) -> Result<Option<O>, CliError> {
    let mut opts = O::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(None);
        }
        match flags.rows.iter().find(|(name, _)| name == arg) {
            Some((_, Action::Switch(set))) => set(&mut opts),
            Some((name, Action::Value(store))) => {
                let raw = args
                    .next()
                    .ok_or_else(|| CliError(format!("flag {name} needs a value")))?;
                store(&mut opts, raw)?;
            }
            None => match positionals.as_deref_mut() {
                Some(bare) if !arg.starts_with('-') => bare.push(PathBuf::from(arg)),
                _ => return Err(CliError(format!("unknown flag {arg:?} for {cmd}"))),
            },
        }
    }
    Ok(Some(opts))
}

fn study_flags() -> Flags<Options> {
    Flags::<Options>::new()
        .quick()
        .slack()
        .csv()
        .threads()
        .stats()
        .metrics()
        .value("--trace-out", path, |o, v| o.run.trace_out = Some(v))
        .value("--log-level", log_level, |o, v| o.run.log_level = v)
        .value("--scheme", scheme, |o, v| o.scheme = v)
        .value("--steps", positive(number), |o, v| o.steps = v)
        .value("--samples", positive(number), |o, v| o.samples = v)
        .value("--suite", suite, |o, v| o.suite = v)
        .value("--trace", path, |o, v| o.trace = Some(v))
        .value("--l1", kb, |o, v| o.l1_bytes = v)
        .value("--l2", kb, |o, v| o.l2_bytes = v)
        .value("--l1-size", kb, |o, v| o.level_sizes[0] = Some(v))
        .value("--l2-size", kb, |o, v| o.level_sizes[1] = Some(v))
        .value("--l3-size", kb, |o, v| o.level_sizes[2] = Some(v))
        .value("--l1-tech", tech, |o, v| o.upstream_techs[0] = v)
        .value("--l2-tech", tech, |o, v| o.upstream_techs[1] = v)
        .value("--l3-tech", tech, |o, v| o.l3_tech = Some(v))
}

fn campaign_flags() -> Flags<CampaignOptions> {
    Flags::<CampaignOptions>::new()
        .quick()
        .slack()
        .csv()
        .threads()
        .stats()
        .metrics()
        .value("--l1-sizes", list(kb), |o, v| o.l1_sizes = v)
        .value("--l2-sizes", list(kb), |o, v| o.l2_sizes = v)
        .value("--schemes", list(scheme), |o, v| o.schemes = v)
        .value("--techs", list(tech), |o, v| o.techs = v)
        .value("--temps", list(real), |o, v| o.temps_c = v)
}

fn loadgen_flags() -> Flags<LoadgenOptions> {
    Flags::<LoadgenOptions>::new()
        .quick()
        .threads()
        .value("--seed", number, |o, v| o.seed = v)
        .value("--queries", positive(number), |o, v| o.queries = v)
        .value("--rate", positive(real), |o, v| o.rate_qps = Some(v))
        .value("--out", path, |o, v| o.out = v)
}

fn benchdiff_flags() -> Flags<BenchdiffOptions> {
    Flags::<BenchdiffOptions>::new().value("--max-ratio", positive(real), |o, v| o.max_ratio = v)
}

fn analyze_flags() -> Flags<AnalyzeOptions> {
    Flags::<AnalyzeOptions>::new()
        .value("--json", path, |o, v| o.json = Some(v))
        .value("--rules", list(rule), |o, v| {
            for rule in v {
                if !o.rules.contains(&rule) {
                    o.rules.push(rule);
                }
            }
        })
        .value("--root", path, |o, v| o.root = Some(v))
}

// Value kinds: each reads one raw value for `flag`.

fn bad(flag: &str, raw: &str) -> CliError {
    CliError(format!("bad {flag} value {raw:?}"))
}

fn path(_flag: &str, raw: &str) -> Result<PathBuf, CliError> {
    Ok(PathBuf::from(raw))
}

fn number<T: FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse().map_err(|_| bad(flag, raw))
}

/// A finite real.
fn real(flag: &str, raw: &str) -> Result<f64, CliError> {
    let x: f64 = number(flag, raw)?;
    if !x.is_finite() {
        return Err(bad(flag, raw));
    }
    Ok(x)
}

/// `kind`, restricted to values above zero.
fn positive<T: PartialOrd + Default>(
    kind: fn(&str, &str) -> Result<T, CliError>,
) -> impl Fn(&str, &str) -> Result<T, CliError> {
    move |flag, raw| match kind(flag, raw)? {
        x if x > T::default() => Ok(x),
        _ => Err(CliError(format!("{flag} must be positive"))),
    }
}

/// A positive size in KB, returned in bytes.
fn kb(flag: &str, raw: &str) -> Result<u64, CliError> {
    positive(number::<u64>)(flag, raw)?
        .checked_mul(1024)
        .ok_or_else(|| bad(flag, raw))
}

/// An AMAT slack fraction in `[0, 10]`.
fn fraction(flag: &str, raw: &str) -> Result<f64, CliError> {
    let x: f64 = number(flag, raw)?;
    if !(0.0..=10.0).contains(&x) {
        return Err(CliError(format!("{flag} {raw} out of range [0, 10]")));
    }
    Ok(x)
}

/// A comma-separated list of `elem` values. An empty or all-comma value
/// is an error: an empty axis is a mistake, not a request for nothing.
fn list<T>(
    elem: fn(&str, &str) -> Result<T, CliError>,
) -> impl Fn(&str, &str) -> Result<Vec<T>, CliError> {
    move |flag, raw| {
        let items: Vec<&str> = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if items.is_empty() {
            return Err(CliError(format!("{flag} {raw:?} names no values")));
        }
        items.into_iter().map(|item| elem(flag, item)).collect()
    }
}

// Engine names: each resolves straight into the engine's type.

fn unknown(what: &str, raw: &str, expected: &str) -> CliError {
    CliError(format!("unknown {what} {raw:?}{expected}"))
}

fn scheme(_flag: &str, raw: &str) -> Result<Scheme, CliError> {
    match raw {
        "uniform" | "iii" | "III" => Ok(Scheme::Uniform),
        "split" | "ii" | "II" => Ok(Scheme::Split),
        "per-component" | "i" | "I" => Ok(Scheme::PerComponent),
        _ => Err(unknown("scheme", raw, "")),
    }
}

fn suite(_flag: &str, raw: &str) -> Result<SuiteKind, CliError> {
    SuiteKind::from_name(raw).ok_or_else(|| unknown("suite", raw, ""))
}

fn tech(_flag: &str, raw: &str) -> Result<TechProfile, CliError> {
    TechProfile::by_name(raw).ok_or_else(|| {
        let expected = format!(" (expected one of {:?})", TechProfile::KNOWN_NAMES);
        unknown("technology", raw, &expected)
    })
}

fn log_level(_flag: &str, raw: &str) -> Result<LogLevel, CliError> {
    LogLevel::from_name(raw)
        .ok_or_else(|| unknown("log level", raw, " (expected off, info or debug)"))
}

fn rule(_flag: &str, raw: &str) -> Result<RuleId, CliError> {
    RuleId::from_name(raw).ok_or_else(|| unknown("rule", raw, " (expected D1..D6)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, CliError> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    /// The options of a study subcommand, or a panic naming what parsed.
    fn study(s: &str, expected: Study) -> Options {
        match parse_str(s) {
            Ok(Command::Study(got, o)) if got == expected => *o,
            other => panic!("{s}: {other:?}"),
        }
    }

    fn err(s: &str) -> String {
        match parse_str(s) {
            Err(CliError(msg)) => msg,
            Ok(c) => panic!("{s} parsed: {c:?}"),
        }
    }

    #[test]
    fn list_parses() {
        assert_eq!(parse_str("list"), Ok(Command::List));
        assert_eq!(parse_str("list --quick"), Ok(Command::List));
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_str(""), Ok(Command::Help));
        assert_eq!(parse_str("--help"), Ok(Command::Help));
        assert_eq!(parse_str("fig1 --help"), Ok(Command::Help));
    }

    #[test]
    fn study_names_round_trip_through_the_table() {
        for (name, s) in STUDIES {
            let args = if s == Study::TraceSim {
                format!("{name} --trace t")
            } else {
                name.to_owned()
            };
            let command = parse_str(&args).unwrap();
            assert!(matches!(command, Command::Study(got, _) if got == s));
            assert_eq!(command.run_options().map(|(n, _)| n), Some(name));
        }
    }

    #[test]
    fn subcommands_parse_with_defaults() {
        let o = study("fig1", Study::Fig1);
        assert!(!o.run.quick);
        assert_eq!(o.l1_bytes, 16 * 1024);
        assert_eq!(o, Options::default());
    }

    #[test]
    fn flags_apply() {
        let o = study(
            "l2-sweep --scheme split --slack 0.08 --quick --l1 32",
            Study::L2Sweep,
        );
        assert_eq!(o.scheme, Scheme::Split);
        assert!((o.run.slack - 0.08).abs() < 1e-12);
        assert!(o.run.quick);
        assert_eq!(o.l1_bytes, 32 * 1024);
    }

    #[test]
    fn scheme_numerals_accepted() {
        let o = study("schemes --scheme I", Study::Schemes);
        assert_eq!(o.scheme, Scheme::PerComponent);
    }

    #[test]
    fn rejects_unknowns_and_bad_values() {
        assert!(parse_str("bogus").is_err());
        assert!(parse_str("fig1 --wat").is_err());
        assert!(parse_str("fig1 --slack nope").is_err());
        assert!(parse_str("fig1 --slack").is_err());
        assert!(parse_str("fig1 --steps 0").is_err());
        assert!(parse_str("fig1 --slack 99").is_err());
        assert!(parse_str("fig1 stray").is_err());
        assert!(parse_str("l2-sweep --scheme bogus").is_err());
    }

    #[test]
    fn error_messages_are_worded_once() {
        assert_eq!(err("bogus"), "unknown command \"bogus\"");
        assert_eq!(err("fig1 --wat"), "unknown flag \"--wat\" for fig1");
        assert_eq!(err("fig1 --steps"), "flag --steps needs a value");
        assert_eq!(err("fig1 --steps x"), "bad --steps value \"x\"");
        assert_eq!(err("fig1 --steps 0"), "--steps must be positive");
        assert_eq!(err("fig1 --slack 99"), "--slack 99 out of range [0, 10]");
        assert_eq!(
            err("campaign --l1-sizes 8,0"),
            "--l1-sizes must be positive"
        );
        assert_eq!(
            err("loadgen --rate 0"),
            "--rate must be positive",
            "reals share the integer wording"
        );
    }

    #[test]
    fn kb_sizes_reject_overflow_and_zero() {
        // 2^54 + 1 KB is more bytes than a u64 holds.
        let huge = "18014398509481985";
        for flag in ["--l1", "--l2", "--l1-size", "--l2-size", "--l3-size"] {
            assert_eq!(
                err(&format!("explore {flag} {huge}")),
                format!("bad {flag} value \"{huge}\"")
            );
            assert!(parse_str(&format!("explore {flag} 0")).is_err(), "{flag}");
        }
        for flag in ["--l1-sizes", "--l2-sizes"] {
            assert_eq!(
                err(&format!("campaign {flag} 16,{huge}")),
                format!("bad {flag} value \"{huge}\"")
            );
        }
        // The largest size that fits still parses.
        let o = study("explore --l1 18014398509481983", Study::Explore);
        assert_eq!(o.l1_bytes, u64::MAX - 1023);
    }

    #[test]
    fn trace_sim_requires_trace() {
        assert!(parse_str("trace-sim").is_err());
        let o = study("trace-sim --trace t.txt --l2 512", Study::TraceSim);
        assert_eq!(o.trace, Some(PathBuf::from("t.txt")));
        assert_eq!(o.l2_bytes, 512 * 1024);
    }

    #[test]
    fn extension_commands_parse() {
        study("decay", Study::Decay);
        study("split-l1 --l2 512", Study::SplitL1);
        assert_eq!(
            study("decay --suite tpcc", Study::Decay).suite,
            SuiteKind::TpcC
        );
    }

    #[test]
    fn engine_names_resolve_in_the_parser() {
        assert_eq!(err("decay --suite bogus"), "unknown suite \"bogus\"");
        assert!(err("e8 --l3-tech bogus").starts_with("unknown technology \"bogus\""));
        assert!(err("campaign --techs sram,bogus").starts_with("unknown technology \"bogus\""));
        assert_eq!(
            err("analyze --rules D1,D9"),
            "unknown rule \"D9\" (expected D1..D6)"
        );
        assert!(err("schemes --log-level verbose").starts_with("unknown log level"));
        assert!(err("campaign --schemes bogus").starts_with("unknown scheme"));
    }

    #[test]
    fn threads_and_stats_flags_parse() {
        let o = study("fig2 --threads 4 --stats", Study::Fig2);
        assert_eq!(o.run.threads, Some(4));
        assert!(o.run.stats);
        assert!(parse_str("fig2 --threads 0").is_err());
        assert!(parse_str("fig2 --threads many").is_err());
        let o = study("fig1", Study::Fig1);
        assert_eq!(o.run.threads, None);
        assert!(!o.run.stats);
    }

    #[test]
    fn telemetry_flags_parse() {
        let o = study(
            "schemes --metrics m.json --trace-out t.json --log-level debug",
            Study::Schemes,
        );
        assert_eq!(o.run.metrics, Some(PathBuf::from("m.json")));
        assert_eq!(o.run.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(o.run.log_level, LogLevel::Debug);
        let o = study("schemes --log-level info", Study::Schemes);
        assert_eq!(o.run.log_level, LogLevel::Info);
        // Defaults: everything off.
        let o = study("schemes", Study::Schemes);
        assert_eq!(o.run.metrics, None);
        assert_eq!(o.run.trace_out, None);
        assert_eq!(o.run.log_level, LogLevel::Off);
        assert!(parse_str("schemes --log-level verbose").is_err());
        assert!(parse_str("schemes --metrics").is_err());
        assert!(parse_str("schemes --trace-out").is_err());
    }

    #[test]
    fn e8_parses_with_level_knobs() {
        let o = study(
            "e8 --quick --l3-tech edram --l2-tech sram --l3-size 8192 --l1-size 32",
            Study::E8,
        );
        assert!(o.run.quick);
        assert_eq!(o.l3_tech, Some(TechProfile::edram()));
        assert_eq!(o.upstream_techs[0], TechProfile::sram());
        assert_eq!(o.upstream_techs[1], TechProfile::sram());
        assert_eq!(o.level_sizes, [Some(32 * 1024), None, Some(8192 * 1024)]);
        let o = study("e8 --l1-tech stt-mram", Study::E8);
        assert_eq!(o.upstream_techs[0], TechProfile::stt_mram());
        let o = study("e8", Study::E8);
        assert_eq!(o.level_sizes, [None, None, None]);
        assert_eq!(o.l3_tech, None);
        assert!(parse_str("e8 --l3-size 0").is_err());
        assert!(parse_str("e8 --l3-size lots").is_err());
        assert!(parse_str("e8 --l3-tech").is_err());
    }

    #[test]
    fn analyze_parses_with_its_own_flags() {
        match parse_str("analyze").unwrap() {
            Command::Analyze(o) => {
                assert_eq!(o.json, None);
                assert!(o.rules.is_empty());
                assert_eq!(o.root, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_str("analyze --json out.json --rules D1,d4,D1 --root sub/dir").unwrap() {
            Command::Analyze(o) => {
                assert_eq!(o.json, Some(PathBuf::from("out.json")));
                assert_eq!(o.rules, vec![RuleId::D1, RuleId::D4]);
                assert_eq!(o.root, Some(PathBuf::from("sub/dir")));
            }
            other => panic!("{other:?}"),
        }
        // Study flags are not valid after `analyze`, and vice versa.
        assert!(parse_str("analyze --quick").is_err());
        assert!(parse_str("analyze --rules").is_err());
        assert!(parse_str("analyze --rules ,").is_err());
        assert!(parse_str("fig1 --json out.json").is_err());
        assert_eq!(parse_str("analyze --help"), Ok(Command::Help));
    }

    #[test]
    fn campaign_parses_with_defaults() {
        match parse_str("campaign").unwrap() {
            Command::Campaign(o) => {
                assert_eq!(o.l1_sizes, vec![16 * 1024, 32 * 1024]);
                assert_eq!(o.l2_sizes, vec![256 * 1024, 1024 * 1024]);
                assert_eq!(o.schemes, vec![Scheme::Uniform, Scheme::Split]);
                assert_eq!(o.techs, vec![TechProfile::sram()]);
                assert_eq!(o.temps_c, vec![80.0]);
                assert!(!o.run.quick);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_str("campaign --help"), Ok(Command::Help));
    }

    #[test]
    fn campaign_axes_parse_as_lists() {
        match parse_str(
            "campaign --l1-sizes 8,16 --l2-sizes 512 --schemes uniform,per-component \
             --techs sram,edram --temps 40,80,110 --slack 0.2 --quick --csv t.csv",
        )
        .unwrap()
        {
            Command::Campaign(o) => {
                assert_eq!(o.l1_sizes, vec![8 * 1024, 16 * 1024]);
                assert_eq!(o.l2_sizes, vec![512 * 1024]);
                assert_eq!(o.schemes, vec![Scheme::Uniform, Scheme::PerComponent]);
                assert_eq!(o.techs, vec![TechProfile::sram(), TechProfile::edram()]);
                assert_eq!(o.temps_c, vec![40.0, 80.0, 110.0]);
                assert!((o.run.slack - 0.2).abs() < 1e-12);
                assert!(o.run.quick);
                assert_eq!(o.run.csv, Some(PathBuf::from("t.csv")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn campaign_rejects_bad_values() {
        assert!(parse_str("campaign --l1-sizes 0").is_err());
        assert!(parse_str("campaign --l1-sizes lots").is_err());
        assert!(parse_str("campaign --l2-sizes ,").is_err());
        assert!(parse_str("campaign --schemes bogus").is_err());
        assert!(parse_str("campaign --temps warm").is_err());
        assert!(parse_str("campaign --temps nan").is_err());
        assert!(parse_str("campaign --slack 99").is_err());
        assert!(parse_str("campaign --steps 4").is_err());
        assert!(parse_str("fig1 --out d").is_err());
    }

    #[test]
    fn campaign_telemetry_flags_parse() {
        match parse_str("campaign --threads 2 --stats --metrics m.json").unwrap() {
            Command::Campaign(o) => {
                assert_eq!(o.run.threads, Some(2));
                assert!(o.run.stats);
                assert_eq!(o.run.metrics, Some(PathBuf::from("m.json")));
            }
            other => panic!("{other:?}"),
        }
        match parse_str("campaign").unwrap() {
            Command::Campaign(o) => assert_eq!(o.run, RunOptions::default()),
            other => panic!("{other:?}"),
        }
        assert!(parse_str("campaign --threads 0").is_err());
    }

    #[test]
    fn commands_refuse_flags_they_never_took() {
        for (args, flag, cmd) in [
            ("campaign --trace-out x", "--trace-out", "campaign"),
            ("campaign --log-level info", "--log-level", "campaign"),
            ("campaign --out d", "--out", "campaign"),
            ("campaign --max-cells 3", "--max-cells", "campaign"),
            ("campaign --fresh", "--fresh", "campaign"),
            (
                "campaign --checkpoint-every 2",
                "--checkpoint-every",
                "campaign",
            ),
            ("campaign --require-store", "--require-store", "campaign"),
            ("loadgen --stats", "--stats", "loadgen"),
            ("loadgen --csv x.csv", "--csv", "loadgen"),
            ("analyze --quick", "--quick", "analyze"),
            (
                "benchdiff a.json b.json --threads 2",
                "--threads",
                "benchdiff",
            ),
        ] {
            assert_eq!(err(args), format!("unknown flag \"{flag}\" for {cmd}"));
        }
    }

    #[test]
    fn loadgen_parses_with_defaults_and_flags() {
        match parse_str("loadgen").unwrap() {
            Command::Loadgen(o) => {
                assert_eq!(o.seed, 2005);
                assert_eq!(o.queries, 200);
                assert_eq!(o.rate_qps, None);
                assert!(!o.run.quick);
                assert_eq!(o.run.threads, None);
                assert_eq!(o.out, PathBuf::from("BENCH_serve.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse_str(
            "loadgen --seed 7 --queries 32 --rate 120.5 --quick --threads 3 --out s.json",
        )
        .unwrap()
        {
            Command::Loadgen(o) => {
                assert_eq!(o.seed, 7);
                assert_eq!(o.queries, 32);
                assert_eq!(o.rate_qps, Some(120.5));
                assert!(o.run.quick);
                assert_eq!(o.run.threads, Some(3));
                assert_eq!(o.out, PathBuf::from("s.json"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_str("loadgen --help"), Ok(Command::Help));
        assert!(parse_str("loadgen --queries 0").is_err());
        assert!(parse_str("loadgen --rate -4").is_err());
        assert!(parse_str("loadgen --rate inf").is_err());
        assert!(parse_str("loadgen --rate fast").is_err());
        assert!(parse_str("loadgen --threads 0").is_err());
        assert!(parse_str("loadgen --seed minus-one").is_err());
    }

    #[test]
    fn benchdiff_takes_two_positional_reports() {
        match parse_str("benchdiff base.json cand.json").unwrap() {
            Command::Benchdiff(o) => {
                assert_eq!(o.baseline, PathBuf::from("base.json"));
                assert_eq!(o.candidate, PathBuf::from("cand.json"));
                assert!((o.max_ratio - 2.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        match parse_str("benchdiff a.json b.json --max-ratio 1.5").unwrap() {
            Command::Benchdiff(o) => assert!((o.max_ratio - 1.5).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_str("benchdiff --help"), Ok(Command::Help));
        assert!(parse_str("benchdiff").is_err());
        assert!(parse_str("benchdiff one.json").is_err());
        assert!(parse_str("benchdiff a.json b.json c.json").is_err());
        assert!(parse_str("benchdiff a.json b.json --max-ratio 0").is_err());
        assert!(parse_str("benchdiff a.json b.json --max-ratio huge").is_err());
        assert!(parse_str("benchdiff a.json b.json --wat").is_err());
    }

    #[test]
    fn csv_path_captured() {
        let o = study("fit --csv out.csv", Study::Fit);
        assert_eq!(o.run.csv, Some(PathBuf::from("out.csv")));
    }

    /// The `--flags` listed under one `USAGE` heading.
    fn documented(heading: &str) -> Vec<&'static str> {
        let section = USAGE
            .split("\n\n")
            .find(|s| s.starts_with(heading))
            .unwrap_or_else(|| panic!("no {heading} section in USAGE"));
        section
            .lines()
            .skip(1)
            .flat_map(|line| {
                line.split_whitespace()
                    .take_while(|w| w.starts_with('-') || w.starts_with('<'))
            })
            .map(|w| w.trim_end_matches(','))
            .filter(|w| w.starts_with("--"))
            .collect()
    }

    fn names<O>(flags: &Flags<O>) -> Vec<&'static str> {
        flags.rows.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn flag_tables_match_their_usage_sections() {
        for (heading, table) in [
            ("OPTIONS:", names(&study_flags())),
            ("ANALYZE OPTIONS", names(&analyze_flags())),
            ("CAMPAIGN OPTIONS", names(&campaign_flags())),
            ("LOADGEN OPTIONS", names(&loadgen_flags())),
            ("BENCHDIFF OPTIONS", names(&benchdiff_flags())),
        ] {
            let docs = documented(heading);
            for flag in &table {
                assert!(docs.contains(flag), "{heading}: {flag} is undocumented");
            }
            for flag in &docs {
                assert!(
                    *flag == "--help" || table.contains(flag),
                    "{heading}: documented {flag} is not accepted"
                );
            }
            let mut unique = table.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), table.len(), "{heading}: repeated row");
        }
    }
}
