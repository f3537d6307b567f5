//! `serve`: the real daemon (`repro serve --listen`) in its own process,
//! loaded over two Unix-socket connections.
//!
//! Tenants are the `archive` suite's observer logs (large state) plus a few
//! hundred `bench::serve::synthetic_feed` tenants (small state). Every feed
//! is also loaded once, before phase 1, as a resident `q/` tenant that
//! queries go to. Phase 1 drives every feed closed-loop (pipelined batches,
//! then `finish`) on both connections, and after each chunk of feeds sends
//! every query kind to each of the chunk's resident tenants, so ingest and
//! queries meet at the daemon's lock. Phase 2 is a ladder of fixed
//! open-loop ingest rates on one connection while the other sends a
//! fixed-rate query stream; every query is timed from when it was due, and
//! a rung fails when its query p99 misses [`QUERY_P99_LIMIT_US`] or a
//! generator's lateness grows.

use crate::archive::{simulate_suite, Cell};
use crate::common::{
    check_identical, layer_table, median, peak_rss_mb, quantile, ratio, repeated_setup, run_passes,
    timed, Checks, Outcome, STREAM_WINDOW,
};
use crate::trace::Tracer;
use bench::serve::{drive_feeds, reference_answers, synthetic_feed, DriveOptions, ServeFeed};
use jsonio::Json;
use measurement::serve::{
    config_to_json, read_frame, write_frame, Frame, ServeOptions, ServeState, FRAME_EVENTS,
    FRAME_REGISTRY,
};
use measurement::{StreamConfig, StreamingMonitor};
use netsim::archive::{decode_event_block, encode_event_block, encode_registry_delta};
use std::io::{self, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Socket path, relative to the run directory (socket paths are short).
const SOCKET: &str = "serve.sock";
const SYNTH_TENANTS: usize = 300;
const SYNTH_EVENTS: usize = 240;
const BATCH_ROWS: usize = 512;
/// Feeds per phase-1 chunk: each connection ingests this many feeds, then
/// queries their resident tenants.
const CHUNK_FEEDS: usize = 16;
/// Open-loop ingest rates of the ladder, in events per second.
const LADDER: [f64; 5] = [
    1_000_000.0,
    1_500_000.0,
    2_000_000.0,
    2_500_000.0,
    3_000_000.0,
];
/// The rung whose query latency is reported.
const MIDDLE: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
const RUNG_S: f64 = 2.0;
/// Queries per second during every rung.
const QUERY_RATE: f64 = 600.0;
/// The latency limit on query p99 that a rung must meet.
pub const QUERY_P99_LIMIT_US: f64 = 50_000.0;
/// Growth of a generator's median lateness, last quarter of a rung over
/// the first, beyond which its backlog counts as growing.
const LATENESS_GROWTH_MS: f64 = 2.0;
const KINDS: [&str; 4] = ["summary", "network_size", "sliding_windows", "time_series"];

/// A Unix-socket connection with buffered writes.
struct Conn {
    reader: UnixStream,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    fn open() -> io::Result<Conn> {
        let stream = UnixStream::connect(SOCKET)?;
        Ok(Conn {
            reader: stream.try_clone()?,
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()
    }

    fn roundtrip(&mut self, frame: &Frame) -> io::Result<Json> {
        self.send(frame)?;
        let reply = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })?;
        reply
            .control_json()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writer.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

fn ok(reply: &io::Result<Json>) -> bool {
    matches!(reply, Ok(doc) if doc.bool_field("ok").unwrap_or(false))
}

fn op(op: &str, tenant: &str) -> Json {
    let mut doc = Json::object();
    doc.insert("op", op);
    doc.insert("tenant", tenant);
    doc
}

fn hello(tenant: &str, config: &StreamConfig) -> Frame {
    let mut doc = op("hello", tenant);
    doc.insert("config", config_to_json(config));
    Frame::control(&doc)
}

fn query(tenant: &str, kind: &str) -> Frame {
    let mut doc = op("query", tenant);
    let mut body = Json::object();
    body.insert("kind", kind);
    doc.insert("query", body);
    Frame::control(&doc)
}

/// The `serve` daemon child process; killed and reaped on drop.
struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    fn start(repro: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(SOCKET);
        let child = Command::new(repro)
            .args(["serve", "--listen", SOCKET])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut daemon = Daemon { child: Some(child) };
        let deadline = Instant::now() + Duration::from_secs(20);
        while UnixStream::connect(SOCKET).is_err() {
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || Instant::now() > deadline {
                return Err(format!("serve daemon did not come up (exit {exited:?})"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Sends `shutdown` and waits for a clean exit. Every other connection
    /// must be closed first: the daemon drains them before it exits.
    fn stop(mut self) -> Result<(), String> {
        let reply = Conn::open().and_then(|mut c| {
            c.roundtrip(&Frame::control(&{
                let mut doc = Json::object();
                doc.insert("op", "shutdown");
                doc
            }))
        });
        let mut child = self.child.take().expect("daemon not yet stopped");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && ok(&reply) => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve daemon did not shut down".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Campaign feeds of every simulated cell, as `bench::serve::campaign_feeds`
/// builds them, plus the synthetic tenants.
fn make_feeds(seed: u64) -> Vec<ServeFeed> {
    let cells: Vec<Cell> = simulate_suite(seed).cells;
    let mut feeds = Vec::new();
    for cell in &cells {
        let label = cell.meta.scenario.churn.label();
        for log in &cell.output.logs {
            feeds.push(ServeFeed {
                tenant: format!("{label}/{}", log.observer),
                config: StreamConfig::for_observer(
                    &log.observer,
                    log.dht_server,
                    cell.meta.duration,
                    STREAM_WINDOW,
                ),
                registry: log.registry().clone(),
                table: log.table().clone(),
            });
        }
    }
    feeds.extend((0..SYNTH_TENANTS).map(|i| synthetic_feed(i, seed, SYNTH_EVENTS)));
    feeds
}

/// Splits the feeds over the two connections, balancing events; each part
/// keeps the feeds' order.
fn split(feeds: Vec<ServeFeed>) -> [Vec<ServeFeed>; 2] {
    let mut order: Vec<usize> = (0..feeds.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(feeds[i].table.len()));
    let mut side = vec![0usize; feeds.len()];
    let mut load = [0usize; 2];
    for i in order {
        let s = usize::from(load[1] < load[0]);
        side[i] = s;
        load[s] += feeds[i].table.len();
    }
    let mut parts: [Vec<ServeFeed>; 2] = [Vec::new(), Vec::new()];
    for (feed, s) in feeds.into_iter().zip(side) {
        parts[s].push(feed);
    }
    parts
}

/// The event blocks of a feed, `BATCH_ROWS` rows each.
fn blocks(feed: &ServeFeed) -> Vec<(usize, Vec<u8>)> {
    (0..feed.table.len())
        .step_by(BATCH_ROWS)
        .map(|from| {
            let to = (from + BATCH_ROWS).min(feed.table.len());
            (to - from, encode_event_block(&feed.table, from, to))
        })
        .collect()
}

/// The name of a feed's resident tenant, which queries go to.
fn resident_name(feed: &ServeFeed) -> String {
    format!("q/{}", feed.tenant)
}

struct SetUp {
    parts: [Vec<ServeFeed>; 2],
    /// `reference_answers` of each `CHUNK_FEEDS` chunk of each part, compact.
    chunk_answers: [Vec<String>; 2],
    /// Every query kind on the resident tenant of each feed of each chunk.
    chunk_queries: [Vec<Vec<Frame>>; 2],
    /// The reference `finish` answer of every feed, compact, feed order.
    answers: Vec<String>,
    daemon: Daemon,
}

fn set_up(seed: u64, repro: &Path) -> Result<SetUp, String> {
    let parts = split(make_feeds(seed));
    let mut chunk_answers: [Vec<String>; 2] = Default::default();
    let mut chunk_queries: [Vec<Vec<Frame>>; 2] = Default::default();
    let mut answers = Vec::new();
    for (p, part) in parts.iter().enumerate() {
        for chunk in part.chunks(CHUNK_FEEDS) {
            let doc = reference_answers(chunk);
            let rows = doc
                .field("tenants")
                .ok()
                .and_then(Json::as_array)
                .ok_or("reference answers have no tenants")?;
            for row in rows {
                let answer = row.field("answer").map_err(|e| e.to_string())?;
                answers.push(answer.to_string_compact());
            }
            chunk_answers[p].push(doc.to_string_compact());
            chunk_queries[p].push(
                chunk
                    .iter()
                    .flat_map(|feed| {
                        KINDS
                            .iter()
                            .map(move |kind| query(&resident_name(feed), kind))
                    })
                    .collect(),
            );
        }
    }
    Ok(SetUp {
        parts,
        chunk_answers,
        chunk_queries,
        answers,
        daemon: Daemon::start(repro)?,
    })
}

/// Loads every feed as its resident tenant on `conn`, waiting until the
/// daemon has ingested them all.
fn preload(
    conn: &mut Conn,
    feeds: &[&ServeFeed],
    feed_blocks: &[Vec<(usize, Vec<u8>)>],
    checks: &mut Checks,
) {
    for (feed, fb) in feeds.iter().zip(feed_blocks) {
        let tenant = resident_name(feed);
        checks.check(ok(&conn.roundtrip(&hello(&tenant, &feed.config))), || {
            format!("hello of {tenant} refused")
        });
        let delta = encode_registry_delta(&feed.registry, 0, 0, 0);
        let mut sent = conn.send(&Frame::tenant_block(FRAME_REGISTRY, &tenant, &delta));
        for (_, block) in fb {
            sent = sent.and_then(|_| conn.send(&Frame::tenant_block(FRAME_EVENTS, &tenant, block)));
        }
        checks.check(sent.is_ok(), || format!("ingest of {tenant} failed"));
    }
    // Frames on one connection are handled in order: this reply means the
    // resident tenants are fully ingested.
    let last = resident_name(feeds[feeds.len() - 1]);
    let synced = conn.roundtrip(&Frame::control(&op("status", &last)));
    checks.check(ok(&synced), || {
        format!("status after preloading failed: {synced:?}")
    });
}

/// One connection's share of a phase-1 pass: each chunk of feeds driven
/// closed-loop to its `finish` answers, then every query kind on each of
/// the chunk's resident tenants.
struct Phase1 {
    /// The answers document of every chunk, or why driving it failed.
    answers: Vec<io::Result<Json>>,
    queries: u64,
    query_errors: u64,
}

fn phase1(
    t: &mut Tracer,
    conn: &mut Conn,
    part: &[ServeFeed],
    queries: &[Vec<Frame>],
    options: &DriveOptions,
) -> Phase1 {
    let mut out = Phase1 {
        answers: Vec::new(),
        queries: 0,
        query_errors: 0,
    };
    for (chunk, frames) in part.chunks(CHUNK_FEEDS).zip(queries) {
        out.answers
            .push(t.span("measurement.serve", |_| drive_feeds(conn, chunk, options)));
        for frame in frames {
            let reply = t.span("measurement.serve.query", |_| conn.roundtrip(frame));
            out.queries += 1;
            out.query_errors += u64::from(!ok(&reply));
        }
    }
    out
}

/// What one rung of the ladder measured.
struct Rung {
    rate: f64,
    latencies_us: Vec<f64>,
    /// Lateness of every send of both generators, in ms.
    lateness_ms: Vec<f64>,
    /// The larger of the two generators' lateness growth, in ms.
    growth_ms: f64,
    errors: u64,
}

impl Rung {
    fn p(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, q)
    }

    fn passed(&self) -> bool {
        self.growth_ms <= LATENESS_GROWTH_MS
            && self.errors == 0
            && self.p(0.99) <= QUERY_P99_LIMIT_US
    }
}

/// How much lateness grew across a series: the median of its last quarter
/// minus the median of its first.
fn lateness_growth(lateness_ms: &[f64]) -> f64 {
    let q = lateness_ms.len() / 4;
    if q == 0 {
        return 0.0;
    }
    median(&lateness_ms[lateness_ms.len() - q..]) - median(&lateness_ms[..q])
}

fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// What every rung of the ladder shares.
struct Ladder<'a> {
    feeds: &'a [&'a ServeFeed],
    feed_blocks: &'a [Vec<(usize, Vec<u8>)>],
    /// The reference `finish` answer of every feed.
    answers: &'a [String],
    /// The resident tenants the queries go to.
    resident: &'a [String],
}

/// One rung: open-loop ingest at `rate` into fresh tenants on `ingest`,
/// fixed-rate queries over the resident tenants on `queries`, then
/// `finish` of every rung tenant, checked against the reference where the
/// tenant received all its events.
fn rung(
    ladder: &Ladder,
    index: usize,
    rate: f64,
    conns: &mut [Conn; 2],
    checks: &mut Checks,
) -> Rung {
    let &Ladder {
        feeds,
        feed_blocks,
        answers,
        resident,
    } = ladder;
    let total: usize = feeds.iter().map(|f| f.table.len()).sum();
    let copies = ((rate * RUNG_S) / total as f64).ceil().max(1.0) as usize;
    let name = |copy: usize, feed: usize| format!("r{index}c{copy}/{}", feeds[feed].tenant);
    let [ingest, queries] = conns;
    let mut errors = 0u64;

    // Tenants and the whole send schedule exist before the clock starts.
    let mut schedule: Vec<(usize, usize, Frame)> = Vec::new();
    for copy in 0..copies {
        for (f, feed) in feeds.iter().enumerate() {
            let tenant = name(copy, f);
            if !ok(&ingest.roundtrip(&hello(&tenant, &feed.config))) {
                errors += 1;
            }
            let delta = encode_registry_delta(&feed.registry, 0, 0, 0);
            if ingest
                .send(&Frame::tenant_block(FRAME_REGISTRY, &tenant, &delta))
                .is_err()
            {
                errors += 1;
            }
        }
        let rounds = feed_blocks.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for (f, fb) in feed_blocks.iter().enumerate() {
                if let Some((rows, block)) = fb.get(round) {
                    let frame = Frame::tenant_block(FRAME_EVENTS, &name(copy, f), block);
                    schedule.push((copy * feeds.len() + f, *rows, frame));
                }
            }
        }
    }
    let query_frames: Vec<Frame> = (0..(QUERY_RATE * RUNG_S) as usize)
        .map(|k| {
            let n = resident.len();
            query(&resident[k % n], KINDS[(k + k / n) % KINDS.len()])
        })
        .collect();

    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(RUNG_S);
    let (ingested, ingest_late, ingest_errors, query_late, latencies_us, query_errors) =
        std::thread::scope(|s| {
            let ingester = s.spawn(|| {
                let mut late = Vec::new();
                let mut sent_rows = 0usize;
                let mut sent_frames = 0usize;
                let mut errors = 0u64;
                for (_, rows, frame) in &schedule {
                    let due = start + Duration::from_secs_f64(sent_rows as f64 / rate);
                    if due >= end {
                        break;
                    }
                    late.push(wait_until(due).as_secs_f64() * 1e3);
                    if ingest.send(frame).is_err() {
                        errors += 1;
                    }
                    sent_rows += rows;
                    sent_frames += 1;
                }
                (sent_frames, late, errors)
            });
            let querier = s.spawn(|| {
                let mut late = Vec::new();
                let mut latencies = Vec::new();
                let mut errors = 0u64;
                for (k, frame) in query_frames.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(k as f64 / QUERY_RATE);
                    late.push(wait_until(due).as_secs_f64() * 1e3);
                    let reply = queries.roundtrip(frame);
                    latencies
                        .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                    if !ok(&reply) {
                        errors += 1;
                    }
                }
                (late, latencies, errors)
            });
            let (sent, ingest_late, ingest_errors) =
                ingester.join().expect("ingest generator panicked");
            let (query_late, latencies, query_errors) =
                querier.join().expect("query generator panicked");
            (
                sent,
                ingest_late,
                ingest_errors,
                query_late,
                latencies,
                query_errors,
            )
        });
    let growth_ms = lateness_growth(&ingest_late).max(lateness_growth(&query_late));
    checks.tally(query_frames.len() as u64, query_errors, || {
        format!("rung {index}: {query_errors} queries failed")
    });
    errors += ingest_errors;

    // A tenant is complete when all its frames went out before the rung
    // ended; only complete tenants can match the reference answer.
    let mut remaining = vec![0usize; copies * feeds.len()];
    for (tenant, _, _) in &schedule {
        remaining[*tenant] += 1;
    }
    for (tenant, _, _) in &schedule[..ingested] {
        remaining[*tenant] -= 1;
    }
    for copy in 0..copies {
        for f in 0..feeds.len() {
            let reply = ingest.roundtrip(&Frame::control(&op("finish", &name(copy, f))));
            match reply {
                Ok(doc) if doc.bool_field("ok").unwrap_or(false) => {
                    if remaining[copy * feeds.len() + f] == 0 {
                        let got = doc.field("answer").map(Json::to_string_compact);
                        checks.check(got.as_deref() == Ok(answers[f].as_str()), || {
                            format!("rung {index}: finish answer of {} differs", name(copy, f))
                        });
                    }
                }
                _ => errors += 1,
            }
        }
    }
    // Per rung tenant a hello, a registry frame and a finish, plus every
    // event frame sent.
    checks.tally((copies * feeds.len() * 3 + ingested) as u64, errors, || {
        format!("rung {index}: {errors} ingest or finish operations failed")
    });
    let mut lateness_ms = ingest_late;
    lateness_ms.extend(query_late);
    Rung {
        rate,
        latencies_us,
        lateness_ms,
        growth_ms,
        errors: errors + query_errors,
    }
}

/// In-process pass over the same frames through `ServeState::handle_frame`,
/// plus stream, checkpoint and block-decode timings (traced runs only).
fn in_process(
    feeds: &[&ServeFeed],
    feed_blocks: &[Vec<(usize, Vec<u8>)>],
    answers: &[String],
    checks: &mut Checks,
) -> (Vec<(&'static str, f64)>, Vec<f64>) {
    let mut state = ServeState::new(analysis::serve_answerer(), ServeOptions::default());
    let handle = |state: &mut ServeState, frame: &Frame| -> (bool, Json, f64) {
        let (reply, secs) = timed(|| state.handle_frame(frame));
        match reply.map(|r| r.control_json()) {
            Some(Ok(doc)) => (doc.bool_field("ok").unwrap_or(false), doc, secs),
            _ => (false, Json::Null, secs),
        }
    };
    for feed in feeds {
        let (good, _, _) = handle(&mut state, &hello(&feed.tenant, &feed.config));
        checks.check(good, || {
            format!("in-process hello of {} refused", feed.tenant)
        });
        let delta = encode_registry_delta(&feed.registry, 0, 0, 0);
        state.handle_frame(&Frame::tenant_block(FRAME_REGISTRY, &feed.tenant, &delta));
    }
    let mut frame_s = 0.0;
    let mut frames = 0usize;
    let mut decode_s = 0.0;
    for (feed, fb) in feeds.iter().zip(feed_blocks) {
        for (_, block) in fb {
            let frame = Frame::tenant_block(FRAME_EVENTS, &feed.tenant, block);
            frame_s += timed(|| state.handle_frame(&frame)).1;
            frames += 1;
            let (decoded, secs) = timed(|| decode_event_block(block));
            checks.check(decoded.is_ok(), || {
                format!("block of {} does not decode", feed.tenant)
            });
            decode_s += secs;
        }
    }
    let mut query_us = [0.0f64; 4];
    let mut inproc_us = Vec::new();
    for (k, kind) in KINDS.iter().enumerate() {
        for feed in feeds {
            let (good, _, secs) = handle(&mut state, &query(&feed.tenant, kind));
            checks.check(good, || {
                format!("in-process {kind} query of {} failed", feed.tenant)
            });
            query_us[k] += secs * 1e6 / feeds.len() as f64;
            inproc_us.push(secs * 1e6);
        }
    }
    let (checkpoint, checkpoint_s) = timed(|| state.checkpoint_bytes());
    let (restored, restore_s) = timed(|| {
        ServeState::restore(
            &checkpoint,
            analysis::serve_answerer(),
            ServeOptions::default(),
        )
    });
    checks.check(
        restored.map(|r| r.events_ingested()).ok() == Some(state.events_ingested()),
        || "restored checkpoint lost events".to_string(),
    );
    for (feed, answer) in feeds.iter().zip(answers) {
        let (good, doc, _) = handle(&mut state, &Frame::control(&op("finish", &feed.tenant)));
        let got = doc.field("answer").map(Json::to_string_compact);
        checks.check(good && got.as_deref() == Ok(answer.as_str()), || {
            format!("in-process finish answer of {} differs", feed.tenant)
        });
    }

    let mut ingest_s = 0.0;
    let mut finish_s = 0.0;
    let mut state_bytes = 0usize;
    let mut events = 0usize;
    for feed in feeds {
        let mut monitor = StreamingMonitor::new(feed.config.clone());
        ingest_s += timed(|| monitor.ingest_table(&feed.table)).1;
        state_bytes += monitor.approx_state_bytes();
        events += feed.table.len();
        finish_s += timed(|| monitor.finish(&feed.registry)).1;
    }
    let values = vec![
        ("netsim.archive.block_decode_s", decode_s),
        ("netsim.archive.self_s", decode_s),
        ("measurement.stream.ingest_s", ingest_s),
        (
            "measurement.stream.events_per_s",
            ratio(events as f64, ingest_s),
        ),
        ("measurement.stream.finish_s", finish_s),
        ("measurement.stream.state_bytes", state_bytes as f64),
        ("measurement.stream.self_s", ingest_s + finish_s),
        (
            "measurement.serve.events_frame_us",
            frame_s * 1e6 / frames.max(1) as f64,
        ),
        ("measurement.serve.query_summary_us", query_us[0]),
        ("measurement.serve.query_network_size_us", query_us[1]),
        ("measurement.serve.query_sliding_windows_us", query_us[2]),
        ("measurement.serve.query_time_series_us", query_us[3]),
        ("measurement.serve.checkpoint_s", checkpoint_s),
        (
            "measurement.serve.checkpoint_bytes",
            checkpoint.len() as f64,
        ),
        ("measurement.serve.restore_s", restore_s),
    ];
    (values, inproc_us)
}

pub fn run(seed: u64, seconds: f64, trace: bool, repro: &Path) -> Result<Outcome, String> {
    let repro = std::fs::canonicalize(repro)
        .map_err(|e| format!("cannot find {}: {e}", repro.display()))?;
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let (setup, setup_s) = repeated_setup(SETUP_REPS, || set_up(seed, &repro));
    let SetUp {
        parts,
        chunk_answers,
        chunk_queries,
        answers,
        daemon,
    } = setup?;
    let feeds: Vec<&ServeFeed> = parts.iter().flatten().collect();
    let events: usize = feeds.iter().map(|f| f.table.len()).sum();
    let mut conns = [
        Conn::open().map_err(|e| e.to_string())?,
        Conn::open().map_err(|e| e.to_string())?,
    ];

    let feed_blocks: Vec<_> = feeds.iter().map(|f| blocks(f)).collect();
    let resident: Vec<String> = feeds.iter().map(|f| resident_name(f)).collect();
    preload(&mut conns[1], &feeds, &feed_blocks, &mut checks);

    // Phase 1: closed-loop pipelined ingest of every feed, then `finish`,
    // with queries on the resident tenants after every chunk.
    let options = DriveOptions {
        batch_rows: BATCH_ROWS,
        resume: false,
        max_batches: None,
        shutdown: false,
    };
    let ladder_s = LADDER.len() as f64 * (RUNG_S + 1.0);
    let passes = run_passes(&mut tracer, trace, (seconds - ladder_s).max(1.0), 3, |t| {
        let started = Instant::now();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&parts)
                .zip(&chunk_queries)
                .map(|((conn, part), queries)| {
                    let mut tt = t.fork();
                    let options = &options;
                    s.spawn(move || {
                        let r = phase1(&mut tt, conn, part, queries, options);
                        (r, tt)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        let secs = started.elapsed().as_secs_f64();
        for ((result, tt), wants) in results.into_iter().zip(&chunk_answers) {
            t.absorb(tt);
            for (answers, want) in result.answers.iter().zip(wants) {
                match answers {
                    Ok(doc) => check_identical(
                        &mut checks,
                        "daemon finish answers",
                        &doc.to_string_compact(),
                        want,
                    ),
                    Err(err) => checks.check(false, || format!("driving the daemon failed: {err}")),
                }
            }
            checks.check(result.answers.len() == wants.len(), || {
                format!("{} of {} chunks driven", result.answers.len(), wants.len())
            });
            checks.tally(result.queries, result.query_errors, || {
                format!("{} phase-1 queries failed", result.query_errors)
            });
        }
        secs
    });

    // Phase 2: the ladder.
    let ladder = Ladder {
        feeds: &feeds,
        feed_blocks: &feed_blocks,
        answers: &answers,
        resident: &resident,
    };
    let rungs: Vec<Rung> = LADDER
        .iter()
        .enumerate()
        .map(|(i, &rate)| rung(&ladder, i, rate, &mut conns, &mut checks))
        .collect();
    let slo_rate = rungs
        .iter()
        .filter(|r| r.passed())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    let middle = &rungs[MIDDLE];
    let mut lag = middle.lateness_ms.clone();
    lag.sort_by(f64::total_cmp);

    // Closed-loop round trips of every query kind on every resident tenant,
    // against the same queries handled in-process (traced runs only).
    let mut socket_us = Vec::new();
    if trace {
        for kind in KINDS {
            for tenant in &resident {
                let (reply, secs) = timed(|| conns[0].roundtrip(&query(tenant, kind)));
                checks.check(ok(&reply), || {
                    format!("probe {kind} query of {tenant} failed")
                });
                socket_us.push(secs * 1e6);
            }
        }
    }
    // The resident tenants saw every query; their answers must still match.
    for (tenant, answer) in resident.iter().zip(&answers) {
        let reply = conns[0].roundtrip(&Frame::control(&op("finish", tenant)));
        let got = reply
            .as_ref()
            .ok()
            .and_then(|d| d.field("answer").ok())
            .map(Json::to_string_compact);
        checks.check(
            ok(&reply) && got.as_deref() == Some(answer.as_str()),
            || format!("finish answer of {tenant} differs after the ladder"),
        );
    }
    let daemon_rss = peak_rss_mb(daemon.pid()).unwrap_or(f64::NAN);
    drop(conns);
    let stopped = daemon.stop();
    checks.check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));

    let job_s = passes.median_s();
    let e2e = vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", daemon_rss, "MB"),
        ("job_s", job_s, "s"),
        ("events_per_s", events as f64 / job_s, "1/s"),
    ];
    let mut info = vec![
        ("query_p50_us".to_string(), middle.p(0.5), "us"),
        ("query_p99_us".to_string(), middle.p(0.99), "us"),
        (
            "query_samples".to_string(),
            middle.latencies_us.len() as f64,
            "count",
        ),
        ("slo_events_per_s".to_string(), slo_rate, "1/s"),
        (
            "generator_lag_p99_ms".to_string(),
            quantile(&lag, 0.99),
            "ms",
        ),
        (
            "passes".to_string(),
            (passes.untraced_s.len() + passes.traced_s.len()) as f64,
            "count",
        ),
    ];
    for (i, r) in rungs.iter().enumerate() {
        info.push((format!("rung{i}_events_per_s"), r.rate, "1/s"));
        info.push((format!("rung{i}_query_p99_us"), r.p(0.99), "us"));
        info.push((format!("rung{i}_lateness_growth_ms"), r.growth_ms, "ms"));
        info.push((
            format!("rung{i}_passed"),
            f64::from(u8::from(r.passed())),
            "bool",
        ));
    }

    let layers = if trace {
        let (mut values, inproc_us) = in_process(&feeds, &feed_blocks, &answers, &mut checks);
        values.extend([
            (
                "measurement.serve.socket_overhead_us",
                median(&socket_us) - median(&inproc_us),
            ),
            (
                "measurement.serve.generator_lag_p99_ms",
                quantile(&lag, 0.99),
            ),
            ("measurement.serve.query_p50_us", middle.p(0.5)),
            ("measurement.serve.query_p99_us", middle.p(0.99)),
            (
                "measurement.serve.query_samples",
                middle.latencies_us.len() as f64,
            ),
            ("measurement.serve.slo_events_per_s", slo_rate),
        ]);
        layer_table(
            &tracer,
            passes.traced_s.len(),
            passes.overhead_share(),
            values,
        )?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        checks,
        e2e,
        layers,
        counts: vec![
            ("tenants", feeds.len() as u64),
            ("events", events as u64),
            ("output_digest", crate::common::digest(&answers.concat())),
        ],
        info,
        tracer,
    })
}
