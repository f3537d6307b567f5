//! The repository benchmark's harness: runs one workload over the crates'
//! public functions, checks its output and prints the result.
//!
//! ```text
//! perfbench --workload sharded|archive|serve --seed N --seconds S --trace 0|1
//!           [--repro PATH] [--rev REV] [--spans FILE]
//! ```
//!
//! Standard output ends with two lines: the full envelope (schema version,
//! revision, `nproc`, profile, command line, seed, deterministic counts
//! apart from timings, every check) and then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones.

mod archive;
mod common;
mod serve;
mod sharded;
mod trace;

use common::{insert_unique, Metric, Outcome};
use jsonio::Json;
use std::path::PathBuf;

const SCHEMA: &str = "perfbench/1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: Option<PathBuf>,
    rev: String,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    "usage: perfbench --workload sharded|archive|serve --seed N --seconds S \
     --trace 0|1 [--repro PATH] [--rev REV] [--spans FILE]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repro = None;
    let mut rev = "unknown".to_string();
    let mut spans = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(usage)?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| usage())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| usage())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(usage());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            "--rev" => rev = value.clone(),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(usage()),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        repro,
        rev,
        spans,
    })
}

fn metrics_obj(metrics: &[Metric]) -> Result<Json, String> {
    let mut obj = Json::object();
    for &(name, value, unit) in metrics {
        insert_unique(&mut obj, name, metric(value, unit)?)?;
    }
    Ok(obj)
}

fn metric(value: f64, unit: &str) -> Result<Json, String> {
    let mut m = Json::object();
    insert_unique(&mut m, "value", value)?;
    insert_unique(&mut m, "unit", unit)?;
    Ok(m)
}

fn envelope(args: &Args, argv: &[String], outcome: &Outcome) -> Result<String, String> {
    let mut env = Json::object();
    insert_unique(&mut env, "schema", SCHEMA)?;
    insert_unique(&mut env, "workload", args.workload.as_str())?;
    insert_unique(&mut env, "seed", args.seed)?;
    insert_unique(&mut env, "seconds", args.seconds)?;
    insert_unique(&mut env, "trace", args.trace)?;
    insert_unique(&mut env, "git_rev", args.rev.as_str())?;
    insert_unique(
        &mut env,
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    insert_unique(
        &mut env,
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )?;
    insert_unique(&mut env, "command_line", argv.to_vec())?;
    let mut counts = Json::object();
    for &(name, value) in &outcome.counts {
        insert_unique(&mut counts, name, value)?;
    }
    insert_unique(&mut env, "counts", counts)?;
    let mut timings = metrics_obj(&outcome.e2e)?;
    for (name, value, unit) in &outcome.info {
        insert_unique(&mut timings, name, metric(*value, unit)?)?;
    }
    insert_unique(&mut env, "timings", timings)?;
    if args.trace {
        insert_unique(&mut env, "layers", metrics_obj(&outcome.layers)?)?;
    }
    let checks = &outcome.checks;
    let mut c = Json::object();
    insert_unique(&mut c, "attempted", checks.attempted)?;
    insert_unique(&mut c, "failed", checks.failed)?;
    insert_unique(
        &mut c,
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    )?;
    insert_unique(&mut c, "failures", checks.failures.clone())?;
    insert_unique(&mut env, "checks", c)?;
    Ok(env.to_string_compact())
}

fn result_line(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let checks = &outcome.checks;
    let mut out = Json::object();
    insert_unique(
        &mut out,
        "correct",
        checks.failed == 0 && checks.attempted > 0,
    )?;
    insert_unique(&mut out, "attempted", checks.attempted.max(1))?;
    insert_unique(&mut out, "failed", checks.failed)?;
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    insert_unique(&mut out, "metrics", metrics_obj(metrics)?)?;
    Ok(out.to_string_compact())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let outcome = match args.workload.as_str() {
        "sharded" => sharded::run(args.seed, args.seconds, args.trace)?,
        "archive" => archive::run(args.seed, args.seconds, args.trace)?,
        "serve" => {
            let repro = args
                .repro
                .as_deref()
                .ok_or("the serve workload needs --repro PATH")?;
            serve::run(args.seed, args.seconds, args.trace, repro)?
        }
        other => return Err(format!("unknown workload {other:?}; {}", usage())),
    };
    for failure in &outcome.checks.failures {
        eprintln!("# check failed: {failure}");
    }
    if let (true, Some(path)) = (args.trace, &args.spans) {
        let text = outcome.tracer.spans_json()?.to_string_compact();
        std::fs::write(path, text + "\n")
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    println!("{}", envelope(&args, argv, &outcome)?);
    println!("{}", result_line(&args, &outcome)?);
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(err) = run(&argv) {
        eprintln!("perfbench: {err}");
        std::process::exit(1);
    }
}
