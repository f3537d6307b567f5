//! What every workload shares: correctness tallies, the pass loop,
//! statistics, memory readings and the per-layer metric table.

use crate::trace::Tracer;
use jsonio::Json;
use simclock::SimDuration;
use std::collections::BTreeMap;
use std::time::Instant;

/// Window of the streaming monitors (as `repro stream` uses by default).
pub const STREAM_WINDOW: SimDuration = SimDuration::from_hours(6);

/// Operations and correctness checks attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation or check; `what` names it on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }
}

/// A named measurement with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run of one workload.
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics, from untraced passes.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics, from traced passes (empty when untraced).
    pub layers: Vec<Metric>,
    /// Deterministic counts: equal on every run of one seed and commit.
    pub counts: Vec<(&'static str, u64)>,
    /// Further measurements shown in the envelope but not gated.
    pub info: Vec<(String, f64, &'static str)>,
    /// The run's spans, written out after a traced run.
    pub tracer: Tracer,
}

/// Wall times of the measured passes, split by whether tracing was on.
#[derive(Debug, Default)]
pub struct Passes {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl Passes {
    /// Median wall time of the untraced passes.
    pub fn median_s(&self) -> f64 {
        median(&self.untraced_s)
    }

    /// Traced over untraced median, minus one: what the spans cost.
    pub fn overhead_share(&self) -> f64 {
        median(&self.traced_s) / median(&self.untraced_s) - 1.0
    }
}

/// Runs `pass` until `seconds` have passed and at least `min_passes` (of
/// each kind) ran. With `trace` on, passes alternate untraced and traced,
/// so per-layer numbers and the tracing overhead come from one process.
/// `pass` returns the wall time of the work it measures.
pub fn run_passes(
    tracer: &mut Tracer,
    trace: bool,
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(&mut Tracer) -> f64,
) -> Passes {
    let started = Instant::now();
    let mut passes = Passes::default();
    for i in 0.. {
        let traced = trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let secs = tracer.span("bench.pass", |t| pass(t));
        if traced {
            passes.traced_s.push(secs);
        } else {
            passes.untraced_s.push(secs);
        }
        let enough = passes.untraced_s.len() >= min_passes
            && (!trace || passes.traced_s.len() >= min_passes);
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tracer.set_enabled(trace);
    passes
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs `setup` `reps` times and keeps the last result with the median
/// wall time, so set-up time is reported as steadily as the timed phase.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (value, secs) = timed(&mut setup);
        times.push(secs);
        last = Some(value);
    }
    (
        last.expect("at least one set-up repetition"),
        median(&times),
    )
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// `VmHWM` (peak resident set) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident size, so that
/// [`peak_rss_mb`] reports the timed phase and not the set-up before it.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident size: {e}"))
}

/// A digest of a deterministic report, small enough to be an exact JSON
/// number.
pub fn digest(text: &str) -> u64 {
    netsim::archive::fnv1a(text.as_bytes()) & ((1u64 << 53) - 1)
}

/// Adds `key` to the object `obj`, refusing a key it already holds and a
/// non-finite number. `jsonio::Json::insert` appends a repeated key while
/// `get` returns the first one, which hides the later value, and it writes
/// a non-finite number as `null`.
pub fn insert_unique(obj: &mut Json, key: &str, value: impl Into<Json>) -> Result<(), String> {
    let value = value.into();
    if obj.get(key).is_some() {
        return Err(format!("duplicate JSON key {key:?}"));
    }
    if let Json::Float(x) = value {
        if !x.is_finite() {
            return Err(format!("non-finite number {x} for JSON key {key:?}"));
        }
    }
    obj.insert(key, value);
    Ok(())
}

/// Every per-layer metric the benchmark reports, with its unit. A workload
/// that never calls a layer reports 0 for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("population.build_s", "s"),
    ("netsim.engine.run_s", "s"),
    ("netsim.engine.observations", "count"),
    ("netsim.engine.observations_per_s", "1/s"),
    ("netsim.obs.resident_bytes_per_event", "B"),
    ("netsim.mailbox.run_s_1t", "s"),
    ("netsim.mailbox.run_s_2t", "s"),
    ("netsim.mailbox.speedup_2t", "ratio"),
    ("netsim.mailbox.serial_fraction", "ratio"),
    ("netsim.mailbox.sim_events", "count"),
    ("netsim.mailbox.cross_shard_ratio", "ratio"),
    ("netsim.mailbox.epochs", "count"),
    ("netsim.mailbox.bytes_per_peer", "B"),
    ("netsim.archive.encode_s", "s"),
    ("netsim.archive.decode_s", "s"),
    ("netsim.archive.write_mb_per_s", "MB/s"),
    ("netsim.archive.read_mb_per_s", "MB/s"),
    ("netsim.archive.bytes_per_event", "B"),
    ("netsim.archive.block_decode_s", "s"),
    ("measurement.monitor.ingest_s", "s"),
    ("measurement.monitor.connections", "count"),
    ("measurement.crawler.crawl_s", "s"),
    ("measurement.crawler.queries_per_crawl", "count"),
    ("measurement.crawler.mean_recall", "ratio"),
    ("measurement.stream.ingest_s", "s"),
    ("measurement.stream.events_per_s", "1/s"),
    ("measurement.stream.finish_s", "s"),
    ("measurement.stream.state_bytes", "B"),
    ("measurement.serve.events_frame_us", "us"),
    ("measurement.serve.query_summary_us", "us"),
    ("measurement.serve.query_network_size_us", "us"),
    ("measurement.serve.query_sliding_windows_us", "us"),
    ("measurement.serve.query_time_series_us", "us"),
    ("measurement.serve.socket_overhead_us", "us"),
    ("measurement.serve.checkpoint_s", "s"),
    ("measurement.serve.checkpoint_bytes", "B"),
    ("measurement.serve.restore_s", "s"),
    ("measurement.serve.generator_lag_p99_ms", "ms"),
    ("measurement.serve.query_p50_us", "us"),
    ("measurement.serve.query_p99_us", "us"),
    ("measurement.serve.query_samples", "count"),
    ("measurement.serve.slo_events_per_s", "1/s"),
    ("analysis.robustness_s", "s"),
    ("analysis.stream_report_s", "s"),
    ("population.self_s", "s"),
    ("netsim.engine.self_s", "s"),
    ("netsim.mailbox.self_s", "s"),
    ("netsim.obs.self_s", "s"),
    ("netsim.archive.self_s", "s"),
    ("measurement.monitor.self_s", "s"),
    ("measurement.crawler.self_s", "s"),
    ("measurement.runner.self_s", "s"),
    ("measurement.stream.self_s", "s"),
    ("measurement.serve.self_s", "s"),
    ("analysis.self_s", "s"),
    ("bench.pass.self_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Builds the per-layer table: the workload's own values, then the self
/// time per traced pass of every layer with a `.self_s` metric, then the
/// tracing overhead; every name in [`LAYER_METRICS`] the workload did not
/// set reads 0.
pub fn layer_table(
    tracer: &Tracer,
    traced_passes: usize,
    overhead_share: f64,
    values: Vec<(&'static str, f64)>,
) -> Result<Vec<Metric>, String> {
    let per_pass = traced_passes.max(1) as f64;
    let mut set: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, value) in values {
        if set.insert(name, value).is_some() {
            return Err(format!("per-layer metric {name} set twice"));
        }
    }
    let totals = tracer.totals();
    for &(name, _) in LAYER_METRICS {
        let Some(layer) = name.strip_suffix(".self_s") else {
            continue;
        };
        // A layer's spans are named after it, or after it plus a suffix
        // (`measurement.stream.finish`).
        let self_s = totals
            .iter()
            .filter(|(span, _)| {
                span.strip_prefix(layer)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .fold(0.0, |sum, (_, t)| sum + t.self_s)
            / per_pass;
        // A workload may time a layer outside the passes (set-up).
        set.entry(name).or_insert(self_s);
    }
    set.insert("trace.overhead_share", overhead_share);
    if let Some(unknown) = set
        .keys()
        .find(|k| !LAYER_METRICS.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("unknown per-layer metric {unknown}"));
    }
    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, set.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

/// Total span seconds of `name` per traced pass.
pub fn span_s(tracer: &Tracer, name: &str, traced_passes: usize) -> f64 {
    tracer.totals().get(name).map_or(0.0, |t| t.total_s) / traced_passes.max(1) as f64
}

/// Counter `name` per traced pass.
pub fn count_per_pass(tracer: &Tracer, name: &str, traced_passes: usize) -> f64 {
    tracer.counts().get(name).copied().unwrap_or(0.0) / traced_passes.max(1) as f64
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Checks that `got` equals `want` byte for byte.
pub fn check_identical(checks: &mut Checks, what: &str, got: &str, want: &str) {
    checks.check(got == want, || {
        format!(
            "{what}: {} bytes differ from the {} byte reference",
            got.len(),
            want.len()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_unique_refuses_duplicate_keys() {
        let mut obj = Json::object();
        insert_unique(&mut obj, "a", 1u64).unwrap();
        assert!(insert_unique(&mut obj, "a", 2u64).is_err());
        assert_eq!(obj.to_string_compact(), r#"{"a":1}"#);
    }

    #[test]
    fn insert_unique_refuses_non_finite_numbers() {
        let mut obj = Json::object();
        assert!(insert_unique(&mut obj, "x", f64::NAN).is_err());
        assert!(insert_unique(&mut obj, "y", f64::INFINITY).is_err());
        insert_unique(&mut obj, "z", 0.1).unwrap();
        assert_eq!(obj.to_string_compact(), r#"{"z":0.1}"#);
    }
}
