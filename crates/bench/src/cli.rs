//! The flags of the `repro` binary: one declarative parser and the typed
//! settings of every subcommand.
//!
//! A subcommand names its valued flags, each of which takes the next
//! argument verbatim, and its switches. The parser rejects any other
//! argument and a valued flag with nothing after it. Its typed getters
//! parse every repeat of a flag: the last repeat wins, but a bad earlier
//! one is still an error. The `*_flags` functions turn one
//! subcommand's arguments into its settings or into an error message, which
//! the binary hands to [`usage`] (exit code 2). Nothing here reads a file or
//! starts a thread, so tests drive it in-process.

use crate::estimators::EstimatorsBenchConfig;
use crate::scale::{ScaleConfig, TrueProtocolConfig};
use crate::serve::{DriveOptions, ServeBenchConfig};
use crate::stream::StreamBenchConfig;
use measurement::sweep::{ObserverTweak, SweepGrid};
use population::{ChurnScenario, MeasurementPeriod};
use simclock::SimDuration;
use std::str::FromStr;

/// One subcommand's arguments, split into valued flags and switches in the
/// order they were given.
#[derive(Debug, Default)]
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

/// Splits `args` into the `valued` flags (each followed by its value) and
/// the `switches`, both given as space-separated flag names; any other
/// argument is an error.
fn parse<'a>(args: &'a [String], valued: &str, switches: &str) -> Result<Flags<'a>, String> {
    let named = |names: &str, arg: &str| names.split_whitespace().any(|name| name == arg);
    let mut flags = Flags::default();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if named(switches, arg) {
            flags.switches.push(arg);
        } else if named(valued, arg) {
            let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
            flags.values.push((arg, value));
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(flags)
}

impl<'a> Flags<'a> {
    /// Whether `switch` was given.
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The last value given for `name`, verbatim.
    fn text(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// Parses every value given for any of `names`, in order, and returns
    /// the last one parsed.
    fn last_of<T>(
        &self,
        names: &[&str],
        mut parse: impl FnMut(&str, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for &(flag, value) in &self.values {
            if names.contains(&flag) {
                last = Some(parse(flag, value)?);
            }
        }
        Ok(last)
    }

    /// Parses every value of `name` with `parse` and returns the last.
    fn get<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.last_of(&[name], |_, value| parse(value))
    }

    /// A number, parsed with `FromStr` and no trimming.
    fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name, number)
    }

    /// A number that must not be zero, `default` when not given.
    fn count<T: FromStr + Default + PartialEq>(&self, name: &str, default: T) -> Result<T, String> {
        nonzero(name, self.num(name)?.unwrap_or(default))
    }

    /// A comma-separated list of numbers, each trimmed.
    fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        self.get(name, |value| {
            value.split(',').map(|item| number(item.trim())).collect()
        })
    }

    /// A measurement period label (`P0`..`P4` or `P14d`).
    fn period(&self, name: &str) -> Result<Option<MeasurementPeriod>, String> {
        self.get(name, period)
    }

    /// A comma-separated list of churn-scenario labels.
    fn scenarios(&self, name: &str) -> Result<Option<Vec<ChurnScenario>>, String> {
        self.get(name, scenarios)
    }

    /// A population scale: a finite, positive number.
    fn scale(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name, |value| {
            let scale: f64 = number(value)?;
            if scale.is_finite() && scale > 0.0 {
                Ok(scale)
            } else {
                Err(format!("{name} must be finite and positive, got {value:?}"))
            }
        })
    }

    /// The report file named by `name` (or `default`), or `None` under
    /// `--no-file`.
    fn out_file(&self, name: &str, default: &str) -> Option<String> {
        (!self.has("--no-file")).then(|| self.text(name).unwrap_or(default).to_string())
    }

    /// The `--window-hours` width, 6 h when not given; zero is an error.
    fn window(&self) -> Result<SimDuration, String> {
        Ok(SimDuration::from_hours(self.count("--window-hours", 6)?))
    }
}

fn number<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid number {value:?}"))
}

fn nonzero<T: Default + PartialEq>(name: &str, value: T) -> Result<T, String> {
    if value == T::default() {
        Err(format!("{name} must be at least 1"))
    } else {
        Ok(value)
    }
}

fn period(label: &str) -> Result<MeasurementPeriod, String> {
    MeasurementPeriod::from_label(label)
        .ok_or_else(|| format!("unknown period {label:?} (expected P0..P4 or P14d)"))
}

fn scenarios(spec: &str) -> Result<Vec<ChurnScenario>, String> {
    spec.split(',')
        .map(|label| {
            ChurnScenario::from_label(label.trim()).ok_or_else(|| {
                format!(
                    "unknown scenario {label:?} (expected baseline, diurnal, flashcrowd, \
                     massexit, pidflood, natchurn, sybil, eclipse or poison)"
                )
            })
        })
        .collect()
}

/// The worker-thread count used when `--threads` is not given: the
/// available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The valued flags every suite command takes.
const SUITE: &str = "--period --scale --seed --scenarios --threads";
/// The output switches every suite command takes.
const OUTPUT: &str = "--pretty --no-table";
/// The simulation flags of `serve --drive` and `serve --reference`.
const SERVE_SIM: &str = "--period --scale --seed --scenarios --window-hours";

/// The settings shared by the suite commands (`scenarios`, `vantage`,
/// `stream`, `crawl`, `export`, `estimators`) and by `serve --drive` /
/// `serve --reference`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteFlags {
    /// `--period`.
    pub period: MeasurementPeriod,
    /// `--scale`, finite and positive (default 0.005).
    pub scale: f64,
    /// `--seed` (default 1975).
    pub seed: u64,
    /// `--scenarios`.
    pub scenarios: Vec<ChurnScenario>,
    /// `--threads` (default [`default_threads`]).
    pub threads: usize,
    /// `--pretty`: indented JSON on stdout.
    pub pretty: bool,
    /// Cleared by `--no-table`: the summary table on stderr.
    pub table: bool,
}

impl SuiteFlags {
    fn from_flags(
        flags: &Flags,
        period: MeasurementPeriod,
        scenarios: Vec<ChurnScenario>,
    ) -> Result<Self, String> {
        Ok(SuiteFlags {
            period: flags.period("--period")?.unwrap_or(period),
            scale: flags.scale("--scale")?.unwrap_or(0.005),
            seed: flags.num("--seed")?.unwrap_or(1975),
            scenarios: flags.scenarios("--scenarios")?.unwrap_or(scenarios),
            threads: flags.num("--threads")?.unwrap_or_else(default_threads),
            pretty: flags.has("--pretty"),
            table: !flags.has("--no-table"),
        })
    }

    /// The scenario labels joined by commas, as progress lines print them.
    pub fn labels(&self) -> String {
        let labels: Vec<_> = self.scenarios.iter().map(ChurnScenario::label).collect();
        labels.join(",")
    }
}

/// Parses a suite command: [`SUITE`] plus `valued`, [`OUTPUT`] plus
/// `switches`.
fn suite<'a>(args: &'a [String], valued: &str, switches: &str) -> Result<Flags<'a>, String> {
    parse(
        args,
        &format!("{SUITE} {valued}"),
        &format!("{OUTPUT} {switches}"),
    )
}

/// Settings of the paper harness (`repro` without a subcommand).
#[derive(Debug, Clone, PartialEq)]
pub struct PaperFlags {
    /// `--scale`, finite and positive (default 0.02).
    pub scale: f64,
    /// `--seed` (default 1975).
    pub seed: u64,
    /// `--only`: the tables and figures to print (default: all of them).
    pub only: Option<Vec<String>>,
}

impl PaperFlags {
    /// Whether the table or figure `key` is to be printed.
    pub fn wants(&self, key: &str) -> bool {
        self.only
            .as_ref()
            .is_none_or(|keys| keys.iter().any(|k| k == key))
    }
}

/// `repro [--scale S] [--seed N] [--only KEYS]`.
pub fn paper_flags(args: &[String]) -> Result<PaperFlags, String> {
    let flags = parse(args, "--scale --seed --only", "")?;
    Ok(PaperFlags {
        scale: flags.scale("--scale")?.unwrap_or(0.02),
        seed: flags.num("--seed")?.unwrap_or(1975),
        only: flags
            .text("--only")
            .map(|keys| keys.split(',').map(|k| k.trim().to_string()).collect()),
    })
}

/// Settings of `repro sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFlags {
    /// The validated campaign grid.
    pub grid: SweepGrid,
    /// `--threads` (default: the runner's own).
    pub threads: Option<usize>,
    /// `--pretty`.
    pub pretty: bool,
    /// Cleared by `--no-table`.
    pub table: bool,
}

/// `repro sweep`.
pub fn sweep_flags(args: &[String]) -> Result<SweepFlags, String> {
    let valued = "--periods --scales --seeds --seed-list --tweaks --scenarios --vantages \
                  --base-seed --threads";
    let flags = parse(args, valued, OUTPUT)?;
    let periods = flags.get("--periods", |value| {
        value.split(',').map(|label| period(label.trim())).collect()
    })?;
    let tweaks = flags.get("--tweaks", |value| {
        value
            .split(',')
            .map(|spec| {
                let (label, factor) = spec.split_once('=').unwrap_or((spec, "1.0"));
                let factor = factor
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid tweak {spec:?} (expected label=factor)"))?;
                Ok(ObserverTweak::limits(label.trim(), factor))
            })
            .collect()
    })?;
    // `--seeds N` (seeds 1..=N) and `--seed-list` replace each other.
    let seeds = flags.last_of(&["--seeds", "--seed-list"], |name, value| {
        if name == "--seeds" {
            Ok((1..=nonzero(name, number(value)?)?).collect())
        } else {
            value.split(',').map(|seed| number(seed.trim())).collect()
        }
    })?;
    let scenarios = flags.scenarios("--scenarios")?;
    let mut grid =
        SweepGrid::new(periods.unwrap_or(vec![MeasurementPeriod::P1, MeasurementPeriod::P2]))
            .with_scales(flags.list("--scales")?.unwrap_or(vec![0.01]))
            .with_seeds(seeds.unwrap_or((1..=8).collect()))
            .with_tweaks(tweaks.unwrap_or(vec![ObserverTweak::default()]))
            .with_scenarios(scenarios.unwrap_or(vec![ChurnScenario::Baseline]))
            .with_vantages(flags.list("--vantages")?.unwrap_or(vec![1]));
    if let Some(base) = flags.num("--base-seed")? {
        grid = grid.with_base_seed(base);
    }
    grid.validate()
        .map_err(|problem| format!("invalid sweep grid: {problem}"))?;
    Ok(SweepFlags {
        grid,
        threads: flags.num("--threads")?,
        pretty: flags.has("--pretty"),
        table: !flags.has("--no-table"),
    })
}

/// `repro scenarios`: every churn regime by default.
pub fn scenarios_flags(args: &[String]) -> Result<SuiteFlags, String> {
    SuiteFlags::from_flags(
        &suite(args, "", "")?,
        MeasurementPeriod::P4,
        ChurnScenario::all(),
    )
}

/// `repro vantage`: the suite flags and `--vantages` (default 3).
pub fn vantage_flags(args: &[String]) -> Result<(SuiteFlags, usize), String> {
    let flags = suite(args, "--vantages", "")?;
    let suite =
        SuiteFlags::from_flags(&flags, MeasurementPeriod::P4, vec![ChurnScenario::Baseline])?;
    Ok((suite, flags.count("--vantages", 3)?))
}

/// What `repro stream` runs.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamCommand {
    /// Streamed suite campaigns: the suite flags, the window width and the
    /// vantage count (default 1).
    Suite(SuiteFlags, SimDuration, usize),
    /// `--long-horizon`: the memory bench and its report file.
    LongHorizon(StreamBenchConfig, Option<String>),
}

/// `repro stream`, or `repro stream --long-horizon`.
pub fn stream_flags(args: &[String]) -> Result<StreamCommand, String> {
    if args.iter().any(|arg| arg == "--long-horizon") {
        let valued = "--horizons --bench-scale --window-hours --seed --out";
        let flags = parse(args, valued, "--long-horizon --no-file")?;
        let defaults = StreamBenchConfig::default();
        let cfg = StreamBenchConfig {
            scale: flags.scale("--bench-scale")?.unwrap_or(defaults.scale),
            seed: flags.num("--seed")?.unwrap_or(defaults.seed),
            horizons_days: flags.list("--horizons")?.unwrap_or(defaults.horizons_days),
            window: flags.window()?,
        };
        let out = flags.out_file("--out", "BENCH_stream.json");
        return Ok(StreamCommand::LongHorizon(cfg, out));
    }
    let flags = suite(args, "--window-hours --vantages", "")?;
    let suite =
        SuiteFlags::from_flags(&flags, MeasurementPeriod::P4, vec![ChurnScenario::Baseline])?;
    Ok(StreamCommand::Suite(
        suite,
        flags.window()?,
        flags.count("--vantages", 1)?,
    ))
}

/// `repro estimators`: the suite flags, the bench configuration built from
/// them and the report file.
pub fn estimators_flags(
    args: &[String],
) -> Result<(SuiteFlags, EstimatorsBenchConfig, Option<String>), String> {
    let valued = "--vantages --replicates --bootstrap --window-hours --out";
    let flags = suite(args, valued, "--no-file")?;
    let defaults = EstimatorsBenchConfig::default();
    let suite = SuiteFlags::from_flags(&flags, defaults.period, defaults.scenarios)?;
    let cfg = EstimatorsBenchConfig {
        period: suite.period,
        scale: suite.scale,
        seed: suite.seed,
        vantages: flags.count("--vantages", defaults.vantages)?,
        replicates: flags.count("--replicates", defaults.replicates)?,
        bootstrap: flags.num("--bootstrap")?.unwrap_or(defaults.bootstrap),
        window: flags.window()?,
        scenarios: suite.scenarios.clone(),
    };
    Ok((suite, cfg, flags.out_file("--out", "BENCH_estimators.json")))
}

/// `repro crawl`: baseline plus every DHT adversary by default.
pub fn crawl_flags(args: &[String]) -> Result<(SuiteFlags, Option<String>), String> {
    let flags = suite(args, "--out", "--no-file")?;
    let mut scenarios = vec![ChurnScenario::Baseline];
    scenarios.extend(ChurnScenario::adversaries());
    let suite = SuiteFlags::from_flags(&flags, MeasurementPeriod::P4, scenarios)?;
    Ok((suite, flags.out_file("--out", "BENCH_crawl.json")))
}

/// `repro export`: the required `--dir` and the suite flags (every churn
/// regime by default).
pub fn export_flags(args: &[String]) -> Result<(String, SuiteFlags), String> {
    let flags = suite(args, "--dir", "")?;
    let suite = SuiteFlags::from_flags(&flags, MeasurementPeriod::P4, ChurnScenario::all())?;
    let dir = flags.text("--dir").ok_or("--dir is required")?;
    Ok((dir.to_string(), suite))
}

/// Settings of `repro analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeFlags {
    /// `--dir`: the archive directory (required).
    pub dir: String,
    /// `--threads` (default [`default_threads`]).
    pub threads: usize,
    /// `--pretty`.
    pub pretty: bool,
    /// Cleared by `--no-table`.
    pub table: bool,
    /// `--bench-out` (default `BENCH_archive.json`), `None` under `--no-file`.
    pub out: Option<String>,
}

/// `repro analyze`.
pub fn analyze_flags(args: &[String]) -> Result<AnalyzeFlags, String> {
    let flags = parse(
        args,
        "--dir --threads --bench-out",
        &format!("{OUTPUT} --no-file"),
    )?;
    Ok(AnalyzeFlags {
        threads: flags.num("--threads")?.unwrap_or_else(default_threads),
        dir: flags.text("--dir").ok_or("--dir is required")?.to_string(),
        pretty: flags.has("--pretty"),
        table: !flags.has("--no-table"),
        out: flags.out_file("--bench-out", "BENCH_archive.json"),
    })
}

/// Settings of `repro scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleFlags {
    /// The independent-shard harness configuration.
    pub config: ScaleConfig,
    /// `--full-protocol`: the cross-shard campaign to run instead.
    pub full_protocol: Option<TrueProtocolConfig>,
    /// `--out` (default `BENCH_scale.json`), `None` under `--no-file`.
    pub out: Option<String>,
}

/// `repro scale`.
pub fn scale_flags(args: &[String]) -> Result<ScaleFlags, String> {
    let valued = "--peers --shards --threads --duration-mins --seed --compat-peers --out \
                  --epoch-secs --tp-observers";
    let flags = parse(args, valued, "--no-file --full-protocol")?;
    let defaults = ScaleConfig::default();
    let config = ScaleConfig {
        peers: flags.count("--peers", defaults.peers)?,
        shards: flags.count("--shards", defaults.shards)?,
        threads: flags.count("--threads", defaults.threads)?,
        duration: flags
            .num("--duration-mins")?
            .map_or(defaults.duration, SimDuration::from_mins),
        seed: flags.num("--seed")?.unwrap_or(defaults.seed),
        compat_peers: flags.count("--compat-peers", defaults.compat_peers)?,
    };
    let epoch_secs = flags.num("--epoch-secs")?.unwrap_or(60);
    let tp_defaults = TrueProtocolConfig::default();
    let observers = flags
        .num("--tp-observers")?
        .unwrap_or(tp_defaults.observers);
    let full_protocol = if flags.has("--full-protocol") {
        // The two harnesses default to different population sizes; only an
        // explicit --peers overrides.
        Some(TrueProtocolConfig {
            peers: flags.num("--peers")?.unwrap_or(tp_defaults.peers),
            shards: config.shards,
            threads: config.threads,
            duration: config.duration,
            epoch: SimDuration::from_secs(nonzero("--epoch-secs", epoch_secs)?),
            seed: config.seed,
            observers: nonzero("--tp-observers", observers)?,
        })
    } else {
        None
    };
    let out = flags.out_file("--out", "BENCH_scale.json");
    Ok(ScaleFlags {
        config,
        full_protocol,
        out,
    })
}

/// What `repro serve` runs.
pub enum ServeCommand {
    /// `--listen`: host the daemon on a Unix socket.
    Listen {
        /// The socket path.
        socket: String,
        /// `--checkpoint`: where to write checkpoints.
        checkpoint: Option<String>,
        /// `--checkpoint-every`: batches between checkpoints.
        checkpoint_every: Option<u64>,
        /// `--restore`: the checkpoint to start from.
        restore: Option<String>,
    },
    /// `--drive`: stream simulated campaigns into a running daemon.
    Drive {
        /// The daemon's socket path.
        socket: String,
        /// The campaigns to simulate (`--threads`, `--pretty` and
        /// `--no-table` are not taken and keep their defaults).
        sim: SuiteFlags,
        /// The query window width.
        window: SimDuration,
        /// Batching, resume and shutdown options (`--batch-rows` default 512).
        options: DriveOptions,
    },
    /// `--reference`: compute the daemon's answers in-process.
    Reference {
        /// The campaigns to simulate, as for `Drive`.
        sim: SuiteFlags,
        /// The query window width.
        window: SimDuration,
    },
    /// `--bench`: the concurrent-feed load harness and its report file.
    Bench(ServeBenchConfig, Option<String>),
}

/// `repro serve`; the first of `--listen`, `--drive`, `--reference` and
/// `--bench` found anywhere in `args` picks the mode.
pub fn serve_flags(args: &[String]) -> Result<ServeCommand, String> {
    let given = |mode: &str| args.iter().any(|arg| arg == mode);
    let sim = |flags: &Flags| {
        SuiteFlags::from_flags(flags, MeasurementPeriod::P2, vec![ChurnScenario::Baseline])
    };
    if given("--listen") {
        let flags = parse(
            args,
            "--listen --checkpoint --checkpoint-every --restore",
            "",
        )?;
        Ok(ServeCommand::Listen {
            socket: flags
                .text("--listen")
                .ok_or("--listen needs a value")?
                .to_string(),
            checkpoint: flags.text("--checkpoint").map(str::to_string),
            checkpoint_every: flags.num("--checkpoint-every")?,
            restore: flags.text("--restore").map(str::to_string),
        })
    } else if given("--drive") {
        let valued = format!("{SERVE_SIM} --drive --batch-rows --max-batches");
        let flags = parse(args, &valued, "--resume --shutdown")?;
        Ok(ServeCommand::Drive {
            socket: flags
                .text("--drive")
                .ok_or("--drive needs a value")?
                .to_string(),
            sim: sim(&flags)?,
            window: flags.window()?,
            options: DriveOptions {
                batch_rows: flags.count("--batch-rows", 512)?,
                resume: flags.has("--resume"),
                max_batches: flags.num("--max-batches")?,
                shutdown: flags.has("--shutdown"),
            },
        })
    } else if given("--reference") {
        let flags = parse(args, SERVE_SIM, "--reference")?;
        Ok(ServeCommand::Reference {
            sim: sim(&flags)?,
            window: flags.window()?,
        })
    } else if given("--bench") {
        let valued = "--tenants --events --batch-rows --queries --seed --out";
        let flags = parse(args, valued, "--bench --no-file")?;
        let defaults = ServeBenchConfig::default();
        let cfg = ServeBenchConfig {
            tenants: flags.count("--tenants", defaults.tenants)?,
            events_per_tenant: flags.count("--events", defaults.events_per_tenant)?,
            batch_rows: flags.count("--batch-rows", defaults.batch_rows)?,
            queries: flags.num("--queries")?.unwrap_or(defaults.queries),
            seed: flags.num("--seed")?.unwrap_or(defaults.seed),
        };
        Ok(ServeCommand::Bench(
            cfg,
            flags.out_file("--out", "BENCH_serve.json"),
        ))
    } else {
        Err("expected --listen, --drive, --reference or --bench".into())
    }
}

/// The usage text of `command` (`""` for the paper harness).
pub fn usage_text(command: &str) -> &'static str {
    match command {
        "sweep" => {
            "usage: repro sweep [--periods P1,P2,...] [--scales 0.01,...] \
             [--seeds N | --seed-list 3,17,...] [--tweaks label=factor,...] \
             [--scenarios baseline,flashcrowd,...] [--vantages 1,3,...] \
             [--base-seed N] [--threads N] [--pretty] [--no-table]"
        }
        "scenarios" => {
            "usage: repro scenarios [--period P4] [--scale 0.005] [--seed N] \
             [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
             [--threads N] [--pretty] [--no-table]"
        }
        "vantage" => {
            "usage: repro vantage [--period P4] [--scale 0.005] [--seed N] [--vantages 3] \
             [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
             [--threads N] [--pretty] [--no-table]"
        }
        "scale" => {
            "usage: repro scale [--peers N] [--shards N] [--threads N] \
             [--duration-mins M] [--seed N] [--compat-peers N] \
             [--out BENCH_scale.json] [--no-file] \
             [--full-protocol] [--epoch-secs S] [--tp-observers N]\n  \
             --full-protocol runs one coherent population through the \
             cross-shard mailbox engine instead of independent per-shard \
             simulations, and writes its `true_protocol` row into the report file, \
             replacing an earlier one"
        }
        "stream" => {
            "usage: repro stream [--period P4] [--scale 0.005] [--seed N] \
             [--window-hours 6] [--vantages 1] \
             [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
             [--threads N] [--pretty] [--no-table]\n\
             \n\
             long-horizon memory bench:\n\
             repro stream --long-horizon [--horizons 1,3,7] [--bench-scale 0.0025] \
             [--window-hours 6] [--seed N] [--out BENCH_stream.json] [--no-file]"
        }
        "estimators" => {
            "usage: repro estimators [--period P4] [--scale 0.005] [--seed N] \
             [--vantages 3] [--replicates 5] [--bootstrap 200] [--window-hours 6] \
             [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
             [--threads N] [--pretty] [--no-table] \
             [--out BENCH_estimators.json] [--no-file]"
        }
        "crawl" => {
            "usage: repro crawl [--period P4] [--scale 0.005] [--seed N] \
             [--scenarios baseline,sybil,eclipse,poison] \
             [--threads N] [--pretty] [--no-table] \
             [--out BENCH_crawl.json] [--no-file]"
        }
        "export" => {
            "usage: repro export --dir DIR [--period P4] [--scale 0.005] [--seed N] \
             [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
             [--threads N] [--pretty] [--no-table]"
        }
        "analyze" => {
            "usage: repro analyze --dir DIR [--threads N] [--pretty] [--no-table] \
             [--bench-out BENCH_archive.json] [--no-file]"
        }
        "serve" => {
            "usage:\n\
             repro serve --listen SOCK [--checkpoint FILE] [--checkpoint-every N] [--restore FILE]\n\
             repro serve --drive SOCK [--period P2] [--scale 0.005] [--seed N] [--window-hours 6] \
             [--scenarios baseline,...] [--batch-rows 512] [--resume] [--max-batches N] [--shutdown]\n\
             repro serve --reference [--period P2] [--scale 0.005] [--seed N] [--window-hours 6] \
             [--scenarios baseline,...]\n\
             repro serve --bench [--tenants 1000] [--events 240] [--batch-rows 48] [--queries 1000] \
             [--seed N] [--out BENCH_serve.json] [--no-file]"
        }
        _ => {
            "usage: repro [--scale 0.02] [--seed N] \
             [--only table1,table2,fig2,fig3,fig4,table3,fig5,fig6,fig7,table4,ipgroups]\n       \
             repro sweep|scenarios|vantage|scale|stream|estimators|crawl|export|analyze|serve ..."
        }
    }
}

/// Reports `error` and the usage text of `command` on stderr, then exits
/// with code 2.
pub fn usage(command: &str, error: &str) -> ! {
    eprintln!("error: {error}\n{}", usage_text(command));
    std::process::exit(2);
}
