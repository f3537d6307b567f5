//! `archive`: re-analysis without re-simulation. Set-up simulates a P4
//! suite of every churn regime; each pass writes one archive per cell, then
//! decodes them and recomputes both the batch robustness report (through
//! `ArchivedCampaign::into_campaign`) and the streaming report from the
//! decoded logs.

use crate::common::{
    check_identical, count_per_pass, digest, layer_table, median, peak_rss_mb, ratio,
    repeated_setup, reset_peak_rss, run_passes, span_s, timed, Checks, Outcome, STREAM_WINDOW,
};
use crate::trace::Tracer;
use analysis::{robustness_report, stream_report};
use measurement::{
    campaign_from_output, read_campaign_archive, write_campaign_archive, ActiveCrawler,
    CampaignMeta, GoIpfsMonitor, HydraMonitor, StreamConfig, StreamSummary, StreamingCampaign,
    StreamingMonitor,
};
use netsim::{ObserverLog, SimulationOutput};
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::{SimDuration, SimTime};

const SCALE: f64 = 0.01;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;

pub struct Cell {
    pub meta: CampaignMeta,
    pub output: SimulationOutput,
}

/// A simulated suite and the seconds its two layers took.
pub struct Suite {
    pub cells: Vec<Cell>,
    /// Seconds in `Scenario::build` (the population layer).
    pub build_s: f64,
    /// Seconds in the classic engine.
    pub engine_s: f64,
}

fn simulate_cell(seed: u64, churn: ChurnScenario, suite: &mut Suite) {
    let (run, build_s) = timed(|| {
        Scenario::new(MeasurementPeriod::P4)
            .with_scale(SCALE)
            .with_seed(seed)
            .with_churn(churn)
            .build()
    });
    let meta = CampaignMeta {
        scenario: run.scenario.clone(),
        ground_truth_participants: run.ground_truth_participants,
        duration: run.config.duration,
    };
    let (output, engine_s) = timed(|| {
        netsim::Network::new(run.config, run.population.specs)
            .with_population_events(run.events)
            .run()
    });
    suite.build_s += build_s;
    suite.engine_s += engine_s;
    suite.cells.push(Cell { meta, output });
}

/// Simulates the P4 suite of all six churn regimes, cells in
/// `ChurnScenario::all()` order. One thread, so the allocations the timed
/// phase works on sit in one allocator arena and its peak resident size
/// repeats from run to run.
pub fn simulate_suite(seed: u64) -> Suite {
    let mut suite = Suite {
        cells: Vec::new(),
        build_s: 0.0,
        engine_s: 0.0,
    };
    for churn in ChurnScenario::all() {
        simulate_cell(seed, churn, &mut suite);
    }
    suite
}

/// Resident bytes of an output's columnar tables and registry.
fn resident_bytes(output: &SimulationOutput) -> usize {
    output
        .logs
        .iter()
        .map(|log| log.table().approx_bytes())
        .sum::<usize>()
        + output
            .logs
            .first()
            .map_or(0, |log| log.registry().approx_bytes())
}

/// What the monitors, the crawler and the observation tables measure on
/// one decoded suite, layer by layer.
#[derive(Default)]
struct Probe {
    obs_s: f64,
    resident_bytes: usize,
    monitor_s: f64,
    connections: usize,
    crawl_s: f64,
    crawls: usize,
    crawl_queries: usize,
    recall_sum: f64,
}

/// Calls the monitor and crawler halves of `measurement::campaign_from_output`
/// one by one on decoded archives, outside the timed passes, so each layer
/// gets its own time. The passes themselves go through the library's
/// `ArchivedCampaign::into_campaign`.
fn probe(archives: &[Vec<u8>]) -> Result<Probe, String> {
    let mut p = Probe::default();
    for bytes in archives {
        let decoded =
            read_campaign_archive(bytes).map_err(|e| format!("archive read failed: {e}"))?;
        let (duration, output) = (decoded.meta.duration, decoded.output);
        let ((), obs_s) = timed(|| p.resident_bytes += resident_bytes(&output));
        p.obs_s += obs_s;
        let ((go_ipfs, hydra_heads), monitor_s) = timed(|| {
            let go_ipfs = output
                .log("go-ipfs")
                .map(|log| GoIpfsMonitor::new().ingest(log));
            let hydra_logs: Vec<&ObserverLog> = output
                .logs
                .iter()
                .filter(|l| l.observer.starts_with("hydra-h"))
                .collect();
            let heads = if hydra_logs.is_empty() {
                Vec::new()
            } else {
                HydraMonitor::new().ingest(&hydra_logs).0
            };
            (go_ipfs, heads)
        });
        p.monitor_s += monitor_s;
        p.connections += go_ipfs
            .iter()
            .chain(hydra_heads.iter())
            .map(|d| d.connection_count())
            .sum::<usize>();
        let ((_, summary), crawl_s) = timed(|| {
            ActiveCrawler::new().crawl_summary(
                &output.dht,
                &output.ground_truth,
                SimTime::ZERO,
                SimTime::ZERO + duration,
            )
        });
        p.crawl_s += crawl_s;
        p.crawls += summary.crawls;
        p.crawl_queries += summary.total_queries;
        p.recall_sum += summary.mean_recall;
    }
    Ok(p)
}

/// Streams every observer log of `output` through a fresh
/// [`StreamingMonitor`] (`ingest_table`, then `finish`).
fn stream_logs(
    t: &mut Tracer,
    output: &SimulationOutput,
    duration: SimDuration,
) -> Vec<StreamSummary> {
    output
        .logs
        .iter()
        .map(|log| {
            let config =
                StreamConfig::for_observer(&log.observer, log.dht_server, duration, STREAM_WINDOW);
            let mut monitor = StreamingMonitor::new(config);
            t.span("measurement.stream", |_| monitor.ingest_table(log.table()));
            t.count("stream_events", log.table().len() as f64);
            t.count("stream_state_bytes", monitor.approx_state_bytes() as f64);
            t.span("measurement.stream.finish", |_| {
                monitor.finish(log.registry())
            })
        })
        .collect()
}

/// Both reports computed straight from the in-memory outputs through the
/// library's own paths: the byte-identity oracle of the decoded reports.
fn reference_reports(cells: &[Cell]) -> (String, String) {
    let campaigns: Vec<_> = cells
        .iter()
        .map(|c| {
            campaign_from_output(
                c.meta.scenario.clone(),
                c.meta.ground_truth_participants,
                c.meta.duration,
                c.output.clone(),
            )
        })
        .collect();
    let robustness = robustness_report(&campaigns).to_json_string();
    let streaming: Vec<StreamingCampaign> = campaigns
        .into_iter()
        .zip(cells)
        .map(|(batch, c)| StreamingCampaign {
            batch,
            streams: c
                .output
                .logs
                .iter()
                .map(|log| {
                    StreamingMonitor::new(StreamConfig::for_observer(
                        &log.observer,
                        log.dht_server,
                        c.meta.duration,
                        STREAM_WINDOW,
                    ))
                    .ingest_log(log)
                })
                .collect(),
            window: STREAM_WINDOW,
        })
        .collect();
    (robustness, stream_report(&streaming).to_json_string())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let (suite, setup_s) = repeated_setup(SETUP_REPS, || simulate_suite(seed));
    let cells = suite.cells;
    let (want_robustness, want_stream) = reference_reports(&cells);
    reset_peak_rss()?;
    let events: usize = cells
        .iter()
        .flat_map(|c| c.output.logs.iter())
        .map(|log| log.table().len())
        .sum();

    let mut export_s = Vec::new();
    let mut reanalyze_s = Vec::new();
    let mut archives: Vec<Vec<u8>> = Vec::new();
    let passes = run_passes(&mut tracer, trace, seconds, 3, |t| {
        let (written, write_s) = timed(|| {
            cells
                .iter()
                .map(|c| {
                    t.span("netsim.archive.encode", |_| {
                        write_campaign_archive(&c.meta, &c.output)
                    })
                })
                .collect::<Vec<_>>()
        });
        archives = written
            .into_iter()
            .filter_map(|a| {
                checks.check(a.is_ok(), || format!("archive write failed: {a:?}"));
                a.ok()
            })
            .collect();

        let ((robustness, stream), read_s) = timed(|| {
            let mut campaigns = Vec::new();
            let mut streams = Vec::new();
            for bytes in &archives {
                let decoded = t.span("netsim.archive.decode", |_| read_campaign_archive(bytes));
                let decoded = match decoded {
                    Ok(d) => d,
                    Err(err) => {
                        checks.check(false, || format!("archive read failed: {err}"));
                        continue;
                    }
                };
                streams.push(stream_logs(t, &decoded.output, decoded.meta.duration));
                campaigns.push(t.span("measurement.runner", |_| decoded.into_campaign()));
            }
            let robustness = t.span("analysis.robustness", |_| {
                robustness_report(&campaigns).to_json_string()
            });
            let streaming: Vec<StreamingCampaign> = campaigns
                .into_iter()
                .zip(streams)
                .map(|(batch, streams)| StreamingCampaign {
                    batch,
                    streams,
                    window: STREAM_WINDOW,
                })
                .collect();
            let stream = t.span("analysis.stream_report", |_| {
                stream_report(&streaming).to_json_string()
            });
            (robustness, stream)
        });
        check_identical(
            &mut checks,
            "decoded robustness report",
            &robustness,
            &want_robustness,
        );
        check_identical(&mut checks, "decoded stream report", &stream, &want_stream);
        if !t.enabled() {
            export_s.push(write_s);
            reanalyze_s.push(read_s);
        }
        write_s + read_s
    });
    let archive_bytes: usize = archives.iter().map(Vec::len).sum();

    let job_s = passes.median_s();
    let e2e = vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN), "MB"),
        ("job_s", job_s, "s"),
        ("events_per_s", events as f64 / job_s, "1/s"),
    ];
    let layers = if trace {
        let n = passes.traced_s.len();
        let p = probe(&archives)?;
        let encode_s = span_s(&tracer, "netsim.archive.encode", n);
        let decode_s = span_s(&tracer, "netsim.archive.decode", n);
        let stream_s = span_s(&tracer, "measurement.stream", n);
        let mb = archive_bytes as f64 / 1e6;
        layer_table(
            &tracer,
            n,
            passes.overhead_share(),
            vec![
                // The population and the classic engine run only in
                // set-up: the last repetition, layer by layer.
                ("population.build_s", suite.build_s),
                ("population.self_s", suite.build_s),
                ("netsim.engine.run_s", suite.engine_s),
                ("netsim.engine.self_s", suite.engine_s),
                ("netsim.engine.observations", events as f64),
                (
                    "netsim.engine.observations_per_s",
                    ratio(events as f64, suite.engine_s),
                ),
                // The tables, monitors and crawler one by one, from the
                // probe after the passes.
                (
                    "netsim.obs.resident_bytes_per_event",
                    ratio(p.resident_bytes as f64, events as f64),
                ),
                ("netsim.obs.self_s", p.obs_s),
                ("netsim.archive.encode_s", encode_s),
                ("netsim.archive.decode_s", decode_s),
                ("netsim.archive.write_mb_per_s", ratio(mb, encode_s)),
                ("netsim.archive.read_mb_per_s", ratio(mb, decode_s)),
                (
                    "netsim.archive.bytes_per_event",
                    ratio(archive_bytes as f64, events as f64),
                ),
                ("measurement.monitor.ingest_s", p.monitor_s),
                ("measurement.monitor.self_s", p.monitor_s),
                ("measurement.monitor.connections", p.connections as f64),
                ("measurement.crawler.crawl_s", p.crawl_s),
                ("measurement.crawler.self_s", p.crawl_s),
                (
                    "measurement.crawler.queries_per_crawl",
                    ratio(p.crawl_queries as f64, p.crawls as f64),
                ),
                (
                    "measurement.crawler.mean_recall",
                    ratio(p.recall_sum, archives.len() as f64),
                ),
                ("measurement.stream.ingest_s", stream_s),
                (
                    "measurement.stream.events_per_s",
                    ratio(count_per_pass(&tracer, "stream_events", n), stream_s),
                ),
                (
                    "measurement.stream.finish_s",
                    span_s(&tracer, "measurement.stream.finish", n),
                ),
                (
                    "measurement.stream.state_bytes",
                    count_per_pass(&tracer, "stream_state_bytes", n),
                ),
                (
                    "analysis.robustness_s",
                    span_s(&tracer, "analysis.robustness", n),
                ),
                (
                    "analysis.stream_report_s",
                    span_s(&tracer, "analysis.stream_report", n),
                ),
            ],
        )?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        checks,
        e2e,
        layers,
        counts: vec![
            ("output_digest", digest(&(want_robustness + &want_stream))),
            ("cells", cells.len() as u64),
            ("events", events as u64),
            ("archive_bytes", archive_bytes as u64),
        ],
        info: vec![
            ("export_s".to_string(), median(&export_s), "s"),
            ("reanalyze_s".to_string(), median(&reanalyze_s), "s"),
            (
                "archive_bytes_per_event".to_string(),
                ratio(archive_bytes as f64, events as f64),
                "B",
            ),
            (
                "passes".to_string(),
                (passes.untraced_s.len() + passes.traced_s.len()) as f64,
                "count",
            ),
        ],
        tracer,
    })
}
