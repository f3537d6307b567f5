//! The reproduction harness: regenerates every table and figure of the paper
//! and prints them in a form directly comparable with the published numbers.
//!
//! ```bash
//! cargo run --release -p bench --bin repro                 # everything, default scale
//! cargo run --release -p bench --bin repro -- --scale 0.05 # larger population
//! cargo run --release -p bench --bin repro -- --only table2,fig7
//! ```
//!
//! The `sweep` subcommand runs whole grids of campaigns in parallel and
//! reports cross-seed statistics (mean / stddev / 95 % CI) as JSON on stdout
//! plus an aligned summary table on stderr:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- sweep --periods P1,P2 --seeds 8
//! cargo run --release -p bench --bin repro -- sweep --periods P4 --scales 0.005,0.01 \
//!     --tweaks baseline=1.0,tight=0.5 --threads 8 --pretty
//! cargo run --release -p bench --bin repro -- sweep --periods P4 \
//!     --scenarios baseline,flashcrowd,pidflood
//! ```
//!
//! The `scenarios` subcommand runs one period under every adversarial churn
//! regime (diurnal wave, flash crowd, mass exit, PID-rotation flood, NAT
//! churn) and emits the estimator-robustness report of
//! `analysis::robustness` as JSON on stdout:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- scenarios --period P4 --scale 0.005
//! ```
//!
//! The `vantage` subcommand deploys several primary-client vantage points
//! in one campaign and reports per-vantage horizons, pairwise overlap and
//! the Lincoln–Petersen / Chao1 capture–recapture network-size estimates of
//! `analysis::vantage` as JSON on stdout:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- vantage --vantages 3
//! cargo run --release -p bench --bin repro -- vantage --period P4 --scale 0.005 \
//!     --scenarios baseline,flashcrowd,pidflood --threads 8
//! ```
//!
//! The `scale` subcommand runs the million-peer scale harness over the
//! columnar observation pipeline: a sharded synthetic campaign reporting
//! events/sec and bytes-per-event, compared against the pre-refactor enum
//! representation, with the full report (including timing) written to
//! `BENCH_scale.json`:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- scale                  # 1M peers
//! cargo run --release -p bench --bin repro -- scale --peers 20000 --shards 8
//! ```
//!
//! The `stream` subcommand runs campaigns through the streaming single-pass
//! analysis engine (`measurement::stream` + `analysis::stream`): one
//! simulation per churn regime, teed into both the classic batch pipeline
//! and the incremental estimator, reporting the cumulative estimates (which
//! are byte-identical to batch — the differential suite pins this) plus the
//! per-window time series as JSON on stdout. With `--long-horizon` it runs
//! the week-of-sim-time memory bench instead, writing `BENCH_stream.json`:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- stream --period P4 --window-hours 6
//! cargo run --release -p bench --bin repro -- stream --vantages 3 \
//!     --scenarios baseline,flashcrowd,pidflood --threads 8
//! cargo run --release -p bench --bin repro -- stream --long-horizon --horizons 1,3,7
//! ```
//!
//! The `estimators` subcommand runs the estimator calibration lab: R seeded
//! replicates per churn regime (`measurement::replicate`), every
//! capture–recapture estimator (Lincoln–Petersen, Chao1, Chao2, first-order
//! jackknife) with analytic and seeded-bootstrap CI95s, empirical coverage,
//! signed bias and a per-regime leaderboard (`analysis::calibration`), with
//! Kaplan–Meier session-lifetime context (`analysis::survival`) per cell.
//! The full report (including timing) is written to `BENCH_estimators.json`:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- estimators --replicates 5
//! cargo run --release -p bench --bin repro -- estimators --period P4 --scale 0.005 \
//!     --scenarios baseline,flashcrowd,pidflood --vantages 3 --bootstrap 200 --threads 8
//! ```
//!
//! The `crawl` subcommand runs one period under the baseline and the
//! DHT-level adversaries (Sybil flood, eclipse, table poisoning) and emits
//! the crawler-vs-monitor disagreement report of `analysis::robustness` as
//! JSON on stdout — per-scenario measured crawl recall, adversarial
//! discoveries and truncated crawls next to the (unchanged) passive PID
//! horizon — with the timing-annotated copy written to `BENCH_crawl.json`:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- crawl --period P4 --scale 0.005
//! cargo run --release -p bench --bin repro -- crawl --scenarios baseline,poison --threads 8
//! ```
//!
//! The `export` subcommand runs a scenario suite once and persists every
//! cell as a columnar trace archive (`cell-NN-<scenario>.obsar` plus a
//! `manifest.json`), while the `analyze` subcommand reconstructs the
//! campaigns from those archives with **zero re-simulation** and reproduces
//! the robustness report byte-identically (the differential suite pins
//! this), writing size/throughput/speedup numbers to `BENCH_archive.json`:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- export --dir archives --period P4
//! cargo run --release -p bench --bin repro -- analyze --dir archives --threads 8
//! ```
//!
//! The `serve` subcommand hosts the long-lived multi-tenant monitor daemon
//! (`measurement::serve`) and its load drivers. `--listen` runs the daemon on
//! a Unix socket (with optional checkpointing for crash recovery), `--drive`
//! streams simulated campaigns into a running daemon and prints its answers,
//! `--reference` computes the identical answers in-process (the CI smoke job
//! byte-compares the two), and `--bench` runs the N-concurrent-feed load
//! harness writing ingest-throughput and query-latency numbers to
//! `BENCH_serve.json`:
//!
//! ```bash
//! cargo run --release -p bench --bin repro -- serve --listen /tmp/repro.sock \
//!     --checkpoint /tmp/repro.ck --checkpoint-every 16
//! cargo run --release -p bench --bin repro -- serve --drive /tmp/repro.sock \
//!     --period P2 --scenarios baseline,flashcrowd --shutdown
//! cargo run --release -p bench --bin repro -- serve --reference --period P2 \
//!     --scenarios baseline,flashcrowd
//! cargo run --release -p bench --bin repro -- serve --bench --tenants 1000
//! ```
//!
//! Sweep, scenario, vantage, scale, stream, estimators, crawl, export and
//! analyze stdout is deterministic: the same configuration produces
//! byte-identical JSON regardless of `--threads` (timing numbers go to the
//! `BENCH_*.json` files and stderr only).
//!
//! Every subcommand, and the paper harness without one, parses its flags
//! with `bench::cli`: an unknown flag, a flag without its value, an
//! unparsable number, an unknown period or scenario label, a zero count or a
//! scale that is not finite and positive prints the usage text and exits
//! with code 2. A repeated flag takes its last value. IO and decode errors
//! exit with code 1.
//!
//! Absolute values scale with the `--scale` factor (the paper measured the
//! real ~48k-peer network); the *shapes* — orderings, ratios, crossovers —
//! are the reproduction target, as documented in EXPERIMENTS.md.

use analysis::{metadata, report};
use analysis::{
    classify_peers, connection_count_cdf, connection_stats, connection_timeline, direction_stats,
    fingerprint_groups, horizon_comparison, ip_grouping, max_duration_cdf, network_size_estimate,
    pid_growth, role_switches, version_changes,
};
use bench::cli::{self, PaperFlags, ServeCommand, StreamCommand, SuiteFlags};
use bench::serve::DriveOptions;
use measurement::sweep::SweepRunner;
use measurement::{run_period, run_scenario_suite, run_vantage_suite, MeasurementCampaign};
use population::{MeasurementPeriod, Scenario};
use simclock::{Cdf, SimDuration};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("sweep") => run_sweep_command(rest),
        Some("scenarios") => run_scenarios_command(rest),
        Some("vantage") => run_vantage_command(rest),
        Some("scale") => run_scale_command(rest),
        Some("stream") => run_stream_command(rest),
        Some("estimators") => run_estimators_command(rest),
        Some("crawl") => run_crawl_command(rest),
        Some("export") => run_export_command(rest),
        Some("analyze") => run_analyze_command(rest),
        Some("serve") => run_serve_command(rest),
        _ => run_paper(&flags("", cli::paper_flags(&args))),
    }
}

/// The parsed flags of `command`, or its usage text and exit code 2.
fn flags<T>(command: &str, parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|error| cli::usage(command, &error))
}

/// Reports `message` on stderr and exits with code 1 (an IO or data error).
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Writes `bytes` to `path`, exiting with code 1 when it cannot.
fn write_file(path: &str, bytes: impl AsRef<[u8]>) {
    if let Err(error) = std::fs::write(path, bytes) {
        fail(format!("failed to write {path}: {error}"));
    }
}

/// Writes `json` pretty-printed, with a trailing newline, to `path`.
fn write_json(path: &str, json: &jsonio::Json) {
    let mut text = json.to_string_pretty();
    text.push('\n');
    write_file(path, text);
}

/// Writes a full report (with timing) to the report file, unless
/// `--no-file` left none.
fn write_report(out: Option<&str>, json: &jsonio::Json) {
    if let Some(path) = out {
        write_json(path, json);
        eprintln!("# full report (with timing) written to {path}");
    }
}

/// Prints a report's JSON on stdout, indented under `--pretty`, after its
/// summary table on stderr when one is wanted.
fn emit(json: &jsonio::Json, pretty: bool, table: Option<String>) {
    if let Some(table) = table {
        eprintln!("\n{table}");
    }
    if pretty {
        println!("{}", json.to_string_pretty());
    } else {
        println!("{}", json.to_string_compact());
    }
}

// ---- the paper harness (no subcommand) ---------------------------------------

fn run_paper(options: &PaperFlags) {
    println!("# Reproduction harness — scale {}, seed {}\n", options.scale, options.seed);

    let mut campaigns: HashMap<&'static str, MeasurementCampaign> = HashMap::new();
    let mut campaign = |period: MeasurementPeriod, options: &PaperFlags| -> MeasurementCampaign {
        campaigns
            .entry(period.label())
            .or_insert_with(|| run_period(period, options.scale, options.seed))
            .clone()
    };

    if options.wants("table1") {
        table1();
    }
    if options.wants("table2") {
        table2(&mut campaign, options);
    }
    if options.wants("fig2") {
        fig2(&mut campaign, options);
    }
    if options.wants("fig3") || options.wants("fig4") || options.wants("table3") {
        metadata_section(&mut campaign, options);
    }
    if options.wants("fig5") {
        fig5(&mut campaign, options);
    }
    if options.wants("fig6") {
        fig6(options);
    }
    if options.wants("fig7") {
        fig7(&mut campaign, options);
    }
    if options.wants("table4") || options.wants("ipgroups") {
        network_size(&mut campaign, options);
    }
}

fn table1() {
    println!("## Table I — measurement period overview\n");
    let rows: Vec<Vec<String>> = MeasurementPeriod::ALL
        .iter()
        .map(|period| {
            let scenario = Scenario::new(*period);
            let go = period
                .go_ipfs()
                .map(|(role, limits)| format!("{role} ({}/{})", limits.low_water, limits.high_water))
                .unwrap_or_else(|| "-".into());
            let hydra = period
                .hydra()
                .map(|(heads, limits)| format!("{heads} heads ({}/{})", limits.low_water, limits.high_water))
                .unwrap_or_else(|| "-".into());
            vec![
                period.label().to_string(),
                format!("{}", period.duration()),
                go,
                hydra,
                format!("{} observers", scenario.observers().len()),
            ]
        })
        .collect();
    println!(
        "{}",
        report::text_table(&["Period", "Duration", "go-ipfs", "Hydra", "Deployed"], &rows)
    );
}

fn table2(
    campaign: &mut impl FnMut(MeasurementPeriod, &PaperFlags) -> MeasurementCampaign,
    options: &PaperFlags,
) {
    println!("## Table II — connection statistics\n");
    let mut rows = Vec::new();
    for period in [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
    ] {
        let campaign = campaign(period, options);
        for dataset in campaign.passive_datasets() {
            let stats = connection_stats(dataset);
            let dirs = direction_stats(dataset);
            rows.push(vec![
                period.label().into(),
                dataset.client.clone(),
                "All".into(),
                report::count(stats.all_sum),
                report::secs(stats.all_avg_secs),
                report::secs(stats.all_median_secs),
                format!("{}/{}", report::count(dirs.inbound), report::count(dirs.outbound)),
            ]);
            rows.push(vec![
                period.label().into(),
                dataset.client.clone(),
                "Peer".into(),
                report::count(stats.peer_sum),
                report::secs(stats.peer_avg_secs),
                report::secs(stats.peer_median_secs),
                String::new(),
            ]);
        }
    }
    println!(
        "{}",
        report::text_table(
            &["Period", "Client", "Type", "Sum", "Avg [s]", "Median [s]", "in/out"],
            &rows
        )
    );
}

fn fig2(
    campaign: &mut impl FnMut(MeasurementPeriod, &PaperFlags) -> MeasurementCampaign,
    options: &PaperFlags,
) {
    println!("## Fig. 2 — passive vs. active measurement horizon\n");
    let mut rows = Vec::new();
    for period in [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
    ] {
        let campaign = campaign(period, options);
        let comparison = horizon_comparison(&campaign);
        for entry in &comparison.passive {
            rows.push(vec![
                comparison.period.clone(),
                entry.client.clone(),
                report::count(entry.dht_server_pids),
                report::count(entry.total_pids),
            ]);
        }
        rows.push(vec![
            comparison.period.clone(),
            "crawler (min..max)".into(),
            format!("{}..{}", comparison.crawler.min_servers, comparison.crawler.max_servers),
            report::count(comparison.crawler.distinct_servers),
        ]);
    }
    println!(
        "{}",
        report::text_table(&["Period", "Client", "DHT-Server PIDs", "Total PIDs"], &rows)
    );
}

fn metadata_section(
    campaign: &mut impl FnMut(MeasurementPeriod, &PaperFlags) -> MeasurementCampaign,
    options: &PaperFlags,
) {
    let campaign = campaign(MeasurementPeriod::P4, options);
    let dataset = campaign.primary();

    println!("## Fig. 3 — agent versions\n");
    let threshold = (100.0 * options.scale).ceil() as u64;
    let agents = analysis::agent_histogram(dataset, threshold);
    println!("{}", report::bar_chart(&agents.sorted_by_count(), 40));
    let breakdown = metadata::agent_breakdown(dataset);
    println!(
        "go-ipfs {} | hydra {} | crawler {} | other {} | missing {} | distinct agents {} | kad {}\n",
        report::count(breakdown.go_ipfs),
        report::count(breakdown.hydra),
        report::count(breakdown.crawler),
        report::count(breakdown.other),
        report::count(breakdown.missing),
        breakdown.distinct_agents,
        report::count(breakdown.kad_supporters),
    );

    println!("## Fig. 4 — supported protocols\n");
    let protocol_threshold = (300.0 * options.scale).ceil() as u64;
    let protocols = analysis::protocol_histogram(dataset, protocol_threshold);
    println!("{}", report::bar_chart(&protocols.sorted_by_count(), 40));

    println!("## Table III — go-ipfs version changes\n");
    let versions = version_changes(dataset);
    let rows = vec![
        vec!["Upgrade".into(), versions.upgrades.to_string(), "main-main".into(), versions.main_to_main.to_string()],
        vec!["Downgrade".into(), versions.downgrades.to_string(), "dirty-main".into(), versions.dirty_to_main.to_string()],
        vec!["Change".into(), versions.changes.to_string(), "main-dirty".into(), versions.main_to_dirty.to_string()],
        vec!["(peers)".into(), versions.peers_with_changes.to_string(), "dirty-dirty".into(), versions.dirty_to_dirty.to_string()],
    ];
    println!("{}", report::text_table(&["Version", "#", "Type", "#"], &rows));

    let roles = role_switches(dataset);
    let anomalies = metadata::anomaly_report(dataset);
    println!("role switches: {} peers changed protocol announcements ({} events), {} server->client",
        roles.peers_with_protocol_changes, roles.protocol_change_events, roles.role_switchers);
    println!(
        "anomalies: {} go-ipfs without bitswap ({} with sbptp), {} storm-protocol peers, {} ethereum agents\n",
        anomalies.go_ipfs_without_bitswap,
        anomalies.go_ipfs_with_storm_markers,
        anomalies.storm_protocol_peers,
        anomalies.ethereum_agents
    );
}

fn fig5(
    campaign: &mut impl FnMut(MeasurementPeriod, &PaperFlags) -> MeasurementCampaign,
    options: &PaperFlags,
) {
    println!("## Fig. 5 — simultaneous connections over the first 24 h\n");
    for period in [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
    ] {
        let campaign = campaign(period, options);
        for dataset in campaign.passive_datasets() {
            let timeline = connection_timeline(dataset, SimDuration::from_hours(24));
            println!("### {} / {}", period.label(), dataset.client);
            println!(
                "{}",
                report::timeseries_csv(&timeline.downsample(24), "time_s", "connections")
            );
        }
    }
}

fn fig6(options: &PaperFlags) {
    println!("## Fig. 6 — PIDs over time (14-day run)\n");
    // The 14-day run is the most expensive experiment; run it at a quarter of
    // the requested scale to keep the harness fast.
    let scale = (options.scale * 0.25).max(0.002);
    let campaign = run_period(MeasurementPeriod::Extended, scale, options.seed);
    let dataset = campaign.primary();
    let growth = pid_growth(dataset, SimDuration::from_hours(6), SimDuration::from_days(3));
    println!("(scale {scale})");
    println!("{}", report::timeseries_csv(&growth.total_pids.downsample(28), "hours", "total_pids"));
    println!("{}", report::timeseries_csv(&growth.gone_pids.downsample(28), "hours", "gone_3d_pids"));
    println!(
        "final: {} PIDs seen, {} disconnected >3 d and never returned\n",
        growth.final_total(),
        growth.final_gone()
    );
}

fn fig7(
    campaign: &mut impl FnMut(MeasurementPeriod, &PaperFlags) -> MeasurementCampaign,
    options: &PaperFlags,
) {
    println!("## Fig. 7 — CDFs of connection behaviour (P4)\n");
    let campaign = campaign(MeasurementPeriod::P4, options);
    let dataset = campaign.primary();
    let cdfs = max_duration_cdf(dataset, 30.0);
    let points = Cdf::log_points(30.0, 300_000.0, 2);
    println!("### max connection duration per PID");
    println!("all:\n{}", report::cdf_csv(&cdfs.all, &points, "duration_s"));
    println!("dht-server:\n{}", report::cdf_csv(&cdfs.dht_server, &points, "duration_s"));
    println!("dht-client:\n{}", report::cdf_csv(&cdfs.dht_client, &points, "duration_s"));
    println!(
        "fraction <1h: {:.2}  fraction >24h: {:.2}",
        cdfs.fraction_below(3600.0),
        1.0 - cdfs.fraction_below(24.0 * 3600.0)
    );

    let counts = connection_count_cdf(dataset);
    let count_points = Cdf::log_points(1.0, 10_000.0, 2);
    println!("\n### number of connections per PID");
    println!("{}", report::cdf_csv(&counts, &count_points, "connections"));
    println!(
        "fraction with 1 connection: {:.2}  fraction with >15: {:.2}\n",
        counts.fraction_at_or_below(1.0),
        1.0 - counts.fraction_at_or_below(15.0)
    );
}

fn network_size(
    campaign: &mut impl FnMut(MeasurementPeriod, &PaperFlags) -> MeasurementCampaign,
    options: &PaperFlags,
) {
    println!("## Section V — network size (P4)\n");
    let campaign = campaign(MeasurementPeriod::P4, options);
    let dataset = campaign.primary();

    let grouping = ip_grouping(dataset);
    println!("### §V-A IP grouping");
    println!(
        "PIDs {} | connected {} | IPs {} | groups {} | singleton groups {} | largest group {}",
        report::count(grouping.total_pids),
        report::count(grouping.connected_pids),
        report::count(grouping.distinct_ips),
        report::count(grouping.groups),
        report::count(grouping.singleton_groups),
        grouping.largest_group
    );

    println!("\n### Table IV — classification");
    let classes = classify_peers(dataset);
    let rows: Vec<Vec<String>> = classes
        .rows
        .iter()
        .map(|(label, total, servers)| vec![label.clone(), report::count(*total), report::count(*servers)])
        .collect();
    println!("{}", report::text_table(&["Class", "Peers", "DHT-Server"], &rows));

    let estimate = network_size_estimate(dataset);
    let fingerprints = fingerprint_groups(dataset);
    println!("### estimates");
    println!(
        "by PIDs {} | by IP groups {} | by fingerprints {} | core lower bound {} | max simultaneous {} | ground truth {}\n",
        report::count(estimate.by_pids),
        report::count(estimate.by_ip_groups),
        report::count(fingerprints.full_fingerprints),
        report::count(estimate.core_lower_bound),
        report::count(estimate.max_simultaneous_connections),
        report::count(campaign.ground_truth.population_size())
    );
}

// ---- the `sweep` subcommand ------------------------------------------------

fn run_sweep_command(args: &[String]) {
    let sweep = flags("sweep", cli::sweep_flags(args));
    let runner = match sweep.threads {
        Some(n) => SweepRunner::new().with_threads(n),
        None => SweepRunner::new(),
    };

    let total = sweep.grid.cell_count();
    eprintln!("# sweep: {total} campaigns");
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let report = runner.run_with_progress(&sweep.grid, |cell| {
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[{finished}/{total}] {} {} scale {} seed {} ({}): {} conns, {} pids",
            cell.period, cell.scenario, cell.scale, cell.seed, cell.tweak, cell.connections, cell.pids
        );
    });
    eprintln!("# sweep finished in {:.1?}", started.elapsed());
    emit(&report.to_json(), sweep.pretty, sweep.table.then(|| report.summary_table()));
}

// ---- the `scale` subcommand ------------------------------------------------

fn run_scale_command(args: &[String]) {
    use bench::scale::run_scale_with_progress;

    let scale = flags("scale", cli::scale_flags(args));
    if let Some(cfg) = &scale.full_protocol {
        run_full_protocol_command(cfg, scale.out.as_deref());
        return;
    }
    let cfg = &scale.config;
    eprintln!(
        "# scale: {} peers in {} shards on {} threads, {} simulated",
        cfg.peers, cfg.shards, cfg.threads, cfg.duration
    );
    let done = AtomicUsize::new(0);
    let total = cfg.shards;
    let report = run_scale_with_progress(cfg, |shard| {
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[{finished}/{total}] shard {} ({} peers): {} events, checksum {:016x}",
            shard.shard,
            shard.peers,
            shard.total_events(),
            shard.checksum
        );
    });
    eprintln!("# {}", report.summary());
    write_report(scale.out.as_deref(), &report.full_json());
    // stdout carries only the deterministic fields, so two runs with
    // different --threads can be compared byte-for-byte.
    println!("{}", report.deterministic_json().to_string_pretty());
}

/// Runs the `--full-protocol` variant: one coherent population through the
/// cross-shard mailbox engine. The `true_protocol` row is merged into the
/// report file (replacing an earlier `true_protocol` row and preserving an
/// existing classic report if one is there), and
/// stdout carries only the deterministic fields for byte-comparison.
fn run_full_protocol_command(cfg: &bench::scale::TrueProtocolConfig, out: Option<&str>) {
    eprintln!(
        "# scale --full-protocol: {} peers in {} lock-step shards on {} threads, \
         {} simulated, {} epochs",
        cfg.peers,
        cfg.shards,
        cfg.threads,
        cfg.duration,
        cfg.duration.as_millis() / cfg.epoch.as_millis().max(1)
    );
    let report = bench::scale::run_true_protocol(cfg);
    eprintln!("# {}", report.summary());
    if let Some(path) = out {
        let mut root = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| jsonio::Json::parse(&text).ok())
            .filter(|json| json.as_object().is_some())
            .unwrap_or_else(jsonio::Json::object);
        root.insert("true_protocol", report.full_json());
        write_json(path, &root);
        eprintln!("# true_protocol row merged into {path}");
    }
    println!("{}", report.deterministic_json().to_string_pretty());
}

// ---- the `stream` subcommand -----------------------------------------------

fn run_stream_command(args: &[String]) {
    let (suite, window, vantages) = match flags("stream", cli::stream_flags(args)) {
        StreamCommand::Suite(suite, window, vantages) => (suite, window, vantages),
        StreamCommand::LongHorizon(cfg, out) => {
            return run_stream_bench_command(&cfg, out.as_deref())
        }
    };
    eprintln!(
        "# stream: {} at scale {}, seed {}, {window} windows, {vantages} vantage(s), scenarios {}",
        suite.period,
        suite.scale,
        suite.seed,
        suite.labels()
    );
    let started = Instant::now();
    let campaigns = measurement::run_stream_suite(
        suite.period, suite.scale, suite.seed, vantages, window, &suite.scenarios, suite.threads,
    );
    let report = analysis::stream_report(&campaigns);
    eprintln!("# stream finished in {:.1?}", started.elapsed());
    emit(&report.to_json(), suite.pretty, suite.table.then(|| report.summary_table()));
}

fn run_stream_bench_command(cfg: &bench::stream::StreamBenchConfig, out: Option<&str>) {
    eprintln!(
        "# stream --long-horizon: Extended at scale {}, horizons {:?} days, {} windows",
        cfg.scale, cfg.horizons_days, cfg.window
    );
    let report = bench::stream::run_stream_bench_with_progress(cfg, |horizon| {
        eprintln!(
            "[{} days] {} conns, {} pids: batch {} B vs stream exact {} B ({:.1}x) / bucketed {} B",
            horizon.days,
            horizon.connections,
            horizon.pids,
            horizon.batch_bytes,
            horizon.exact_peak_bytes,
            horizon.exact_ratio(),
            horizon.bucketed_peak_bytes
        );
    });
    eprintln!("# {}", report.summary());
    write_report(out, &report.full_json());
    // stdout carries only the deterministic fields, so runs at different
    // thread counts can be compared byte-for-byte.
    println!("{}", report.deterministic_json().to_string_pretty());
}

// ---- the `estimators` subcommand -------------------------------------------

fn run_estimators_command(args: &[String]) {
    let (suite, cfg, out) = flags("estimators", cli::estimators_flags(args));
    eprintln!(
        "# estimators: {} replicates x {} vantage(s) on {} at scale {}, seed {}, \
         {} bootstrap resamples, scenarios {}",
        cfg.replicates,
        cfg.vantages,
        cfg.period,
        cfg.scale,
        cfg.seed,
        cfg.bootstrap,
        suite.labels()
    );
    let started = Instant::now();
    let report = bench::estimators::run_estimators_bench_with_progress(&cfg, suite.threads, |s| {
        eprintln!("# {s}");
    });
    eprintln!("# estimators finished in {:.1?}", started.elapsed());
    eprintln!("# {}", report.summary());
    write_report(out.as_deref(), &report.full_json());
    // stdout carries only the deterministic fields, so runs at different
    // thread counts can be compared byte-for-byte.
    let table = suite.table.then(|| report.report.summary_table());
    emit(&report.deterministic_json(), suite.pretty, table);
}

// ---- the `crawl` subcommand ------------------------------------------------

fn run_crawl_command(args: &[String]) {
    let (suite, out) = flags("crawl", cli::crawl_flags(args));
    eprintln!(
        "# crawl: {} on {} at scale {}, seed {}",
        suite.labels(),
        suite.period,
        suite.scale,
        suite.seed
    );
    let started = Instant::now();
    let campaigns =
        run_scenario_suite(suite.period, suite.scale, suite.seed, &suite.scenarios, suite.threads);
    let report = analysis::crawl_disagreement_report(&campaigns);
    let elapsed = started.elapsed();
    eprintln!("# crawl finished in {elapsed:.1?}");
    let mut full = jsonio::Json::object();
    full.insert("elapsed_secs", elapsed.as_secs_f64());
    full.insert("report", report.to_json());
    write_report(out.as_deref(), &full);
    // stdout carries only deterministic fields, so runs at different thread
    // counts can be compared byte-for-byte.
    emit(&report.to_json(), suite.pretty, suite.table.then(|| report.summary_table()));
}

// ---- the `export` / `analyze` subcommands ----------------------------------

fn run_export_command(args: &[String]) {
    let (dir, suite) = flags("export", cli::export_flags(args));
    eprintln!(
        "# export: {} on {} at scale {}, seed {} -> {dir}/",
        suite.labels(),
        suite.period,
        suite.scale,
        suite.seed
    );
    let started = Instant::now();
    let cells = measurement::export_suite(
        suite.period, suite.scale, suite.seed, &suite.scenarios, suite.threads,
    );
    let mut campaigns = Vec::with_capacity(cells.len());
    let mut archives = Vec::with_capacity(cells.len());
    let mut sim_secs = 0.0;
    let mut encode_secs = 0.0;
    for cell in cells {
        sim_secs += cell.sim_secs;
        encode_secs += cell.encode_secs;
        campaigns.push(cell.campaign);
        archives.push((cell.churn, cell.archive, cell.events));
    }
    let report = analysis::robustness_report(&campaigns);
    // The full simulate + serialise + ingest + report wall time: the baseline
    // that `repro analyze` measures its re-analysis speedup against.
    let direct_secs = started.elapsed().as_secs_f64();

    if let Err(error) = std::fs::create_dir_all(&dir) {
        fail(format!("failed to create {dir}: {error}"));
    }
    let mut manifest_cells = jsonio::Json::array();
    let mut total_bytes = 0usize;
    let mut rows = Vec::new();
    for (index, (churn, archive, events)) in archives.iter().enumerate() {
        let file = format!("cell-{index:02}-{}.obsar", churn.label());
        write_file(&format!("{dir}/{file}"), archive);
        total_bytes += archive.len();
        let mut cell = jsonio::Json::object();
        cell.insert("file", file.as_str());
        cell.insert("scenario", churn.label());
        cell.insert("events", *events as u64);
        cell.insert("bytes", archive.len() as u64);
        cell.insert("checksum", netsim::archive::fnv1a(archive));
        manifest_cells.push(cell);
        rows.push(vec![
            churn.label().to_string(),
            file,
            report::count(*events),
            format!("{}", archive.len()),
            format!("{:.1}", archive.len() as f64 / (*events).max(1) as f64),
        ]);
    }
    let mut manifest = jsonio::Json::object();
    manifest.insert("format_version", netsim::archive::FORMAT_VERSION as u64);
    manifest.insert("period", suite.period.label());
    manifest.insert("scale", suite.scale);
    manifest.insert("seed", suite.seed);
    manifest.insert("cells", manifest_cells);
    manifest.insert("direct_secs", direct_secs);
    manifest.insert("sim_secs", sim_secs);
    manifest.insert("encode_secs", encode_secs);
    write_json(&format!("{dir}/manifest.json"), &manifest);

    eprintln!(
        "# export finished in {:.1?}: {} cells, {} bytes archived",
        started.elapsed(),
        archives.len(),
        total_bytes
    );
    let table = suite.table.then(|| {
        let files = report::text_table(&["Scenario", "File", "Events", "Bytes", "B/event"], &rows);
        format!("{files}\n{}", report.summary_table())
    });
    // stdout is the robustness report of the direct (simulate + ingest) path —
    // byte-identical to `repro scenarios` with the same configuration, and the
    // reference `repro analyze` must reproduce from the archives alone.
    emit(&report.to_json(), suite.pretty, table);
}

/// Exits loudly when the manifest is missing a field — a malformed manifest
/// must never silently degrade into a partial re-analysis.
fn manifest_field<'a>(manifest: &'a jsonio::Json, key: &str) -> &'a jsonio::Json {
    manifest
        .get(key)
        .unwrap_or_else(|| fail(format!("manifest.json is missing the {key:?} field")))
}

fn run_analyze_command(args: &[String]) {
    let analyze = flags("analyze", cli::analyze_flags(args));
    let dir = &analyze.dir;

    let manifest_path = format!("{dir}/manifest.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|error| fail(format!("failed to read {manifest_path}: {error}")));
    let manifest = jsonio::Json::parse(&manifest_text)
        .unwrap_or_else(|error| fail(format!("failed to parse {manifest_path}: {error}")));
    let format_version = manifest_field(&manifest, "format_version")
        .as_u64()
        .unwrap_or(0);
    if format_version != netsim::archive::FORMAT_VERSION as u64 {
        fail(format!(
            "manifest format version {format_version} is not the supported version {}",
            netsim::archive::FORMAT_VERSION
        ));
    }
    let manifest_cells = manifest_field(&manifest, "cells")
        .as_array()
        .unwrap_or_else(|| fail("manifest.json \"cells\" is not an array"));
    let direct_secs = manifest_field(&manifest, "direct_secs").as_f64().unwrap_or(0.0);
    let sim_secs = manifest_field(&manifest, "sim_secs").as_f64().unwrap_or(0.0);
    let encode_secs = manifest_field(&manifest, "encode_secs").as_f64().unwrap_or(0.0);

    eprintln!(
        "# analyze: {} cells from {dir}/ ({} archived at scale {}, seed {})",
        manifest_cells.len(),
        manifest_field(&manifest, "period").as_str().unwrap_or("?"),
        manifest_field(&manifest, "scale").as_f64().unwrap_or(f64::NAN),
        manifest_field(&manifest, "seed").as_u64().unwrap_or(0),
    );

    let started = Instant::now();
    let mut archives = Vec::with_capacity(manifest_cells.len());
    for cell in manifest_cells {
        let file = cell
            .get("file")
            .and_then(jsonio::Json::as_str)
            .unwrap_or_else(|| fail("manifest cell is missing the \"file\" field"));
        let path = format!("{dir}/{file}");
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|error| fail(format!("failed to read {path}: {error}")));
        if let Some(expected) = cell.get("checksum").and_then(jsonio::Json::as_u64) {
            let actual = netsim::archive::fnv1a(&bytes);
            if actual != expected {
                fail(format!(
                    "{path} does not match its manifest checksum \
                     (expected {expected:016x}, got {actual:016x})"
                ));
            }
        }
        archives.push(bytes);
    }
    let read_secs = started.elapsed().as_secs_f64();

    let cells = measurement::analyze_suite(&archives, analyze.threads)
        .unwrap_or_else(|error| fail(format!("failed to decode archives: {error}")));
    let mut campaigns = Vec::with_capacity(cells.len());
    let mut events = 0usize;
    let mut archive_bytes = 0usize;
    let mut resident_bytes = 0usize;
    let mut decode_secs = 0.0;
    for cell in cells {
        events += cell.events;
        archive_bytes += cell.archive_bytes;
        resident_bytes += cell.resident_bytes;
        decode_secs += cell.decode_secs;
        campaigns.push(cell.campaign);
    }
    let report = analysis::robustness_report(&campaigns);
    // Everything between reading the first archive byte and having the report
    // in hand — the quantity the speedup claim is about.
    let reanalyze_secs = started.elapsed().as_secs_f64();

    let per_event = |bytes: usize| bytes as f64 / events.max(1) as f64;
    let throughput = |bytes: usize, secs: f64| {
        if secs > 0.0 { bytes as f64 / secs / 1e6 } else { 0.0 }
    };
    let speedup = if reanalyze_secs > 0.0 { direct_secs / reanalyze_secs } else { 0.0 };
    // Simulation vs archive decode: the cost of re-obtaining the
    // SimulationOutput either way. The ingestion both paths share is
    // excluded, so this is the number that keeps growing with campaign size.
    let output_secs = read_secs + decode_secs;
    let decode_speedup = if output_secs > 0.0 { sim_secs / output_secs } else { 0.0 };

    eprintln!(
        "# analyze finished in {:.1?}: {} events from {} archive bytes \
         ({:.1} B/event archived vs {:.1} B/event resident)",
        started.elapsed(),
        events,
        archive_bytes,
        per_event(archive_bytes),
        per_event(resident_bytes)
    );
    eprintln!(
        "# re-analysis {reanalyze_secs:.3} s vs direct {direct_secs:.3} s -> {speedup:.1}x; \
         decode {output_secs:.3} s vs simulate {sim_secs:.3} s -> {decode_speedup:.1}x \
         (write {:.1} MB/s, read {:.1} MB/s)",
        throughput(archive_bytes, encode_secs),
        throughput(archive_bytes, decode_secs)
    );
    if let Some(bench_out) = &analyze.out {
        let mut bench = jsonio::Json::object();
        bench.insert("cells", campaigns.len() as u64);
        bench.insert("events", events as u64);
        bench.insert("archive_bytes", archive_bytes as u64);
        bench.insert("archive_bytes_per_event", per_event(archive_bytes));
        bench.insert("in_memory_bytes", resident_bytes as u64);
        bench.insert("in_memory_bytes_per_event", per_event(resident_bytes));
        bench.insert("write_mb_per_sec", throughput(archive_bytes, encode_secs));
        bench.insert("read_mb_per_sec", throughput(archive_bytes, decode_secs));
        bench.insert("read_secs", read_secs);
        bench.insert("decode_secs", decode_secs);
        bench.insert("reanalyze_secs", reanalyze_secs);
        bench.insert("direct_secs", direct_secs);
        bench.insert("sim_secs", sim_secs);
        bench.insert("reanalyze_speedup", speedup);
        bench.insert("decode_speedup", decode_speedup);
        write_json(bench_out, &bench);
        eprintln!("# archive bench (with timing) written to {bench_out}");
    }
    // stdout is the robustness report reconstructed from the archives alone —
    // byte-identical to the `repro export` / `repro scenarios` output for the
    // same configuration, with zero re-simulation.
    emit(&report.to_json(), analyze.pretty, analyze.table.then(|| report.summary_table()));
}

// ---- the `vantage` subcommand ----------------------------------------------

fn run_vantage_command(args: &[String]) {
    let (suite, vantages) = flags("vantage", cli::vantage_flags(args));
    eprintln!(
        "# vantage: {vantages} vantage points on {} at scale {}, seed {}, scenarios {}",
        suite.period,
        suite.scale,
        suite.seed,
        suite.labels()
    );
    let started = Instant::now();
    let campaigns = run_vantage_suite(
        suite.period, suite.scale, suite.seed, vantages, &suite.scenarios, suite.threads,
    );
    let report = analysis::vantage_report(&campaigns);
    eprintln!("# vantage finished in {:.1?}", started.elapsed());
    emit(&report.to_json(), suite.pretty, suite.table.then(|| report.summary_table()));
}

// ---- the `scenarios` subcommand --------------------------------------------

fn run_scenarios_command(args: &[String]) {
    let suite = flags("scenarios", cli::scenarios_flags(args));
    eprintln!(
        "# scenarios: {} on {} at scale {}, seed {}",
        suite.labels(),
        suite.period,
        suite.scale,
        suite.seed
    );
    let started = Instant::now();
    let campaigns =
        run_scenario_suite(suite.period, suite.scale, suite.seed, &suite.scenarios, suite.threads);
    let report = analysis::robustness_report(&campaigns);
    eprintln!("# scenarios finished in {:.1?}", started.elapsed());
    emit(&report.to_json(), suite.pretty, suite.table.then(|| report.summary_table()));
}

// ---- the `serve` subcommand ------------------------------------------------

fn run_serve_command(args: &[String]) {
    match flags("serve", cli::serve_flags(args)) {
        ServeCommand::Listen { socket, checkpoint, checkpoint_every, restore } => {
            run_serve_daemon(&socket, checkpoint, checkpoint_every, restore.as_deref());
        }
        ServeCommand::Drive { socket, sim, window, options } => {
            run_serve_drive(&socket, &sim, window, &options);
        }
        ServeCommand::Reference { sim, window } => {
            eprintln!(
                "# serve --reference: {} at scale {}, seed {}",
                sim.period, sim.scale, sim.seed
            );
            let feeds = serve_feeds(&sim, window);
            eprintln!("# serve --reference: {} feed(s) built", feeds.len());
            println!("{}", bench::serve::reference_answers(&feeds).to_string_pretty());
        }
        ServeCommand::Bench(cfg, out) => run_serve_bench_command(&cfg, out.as_deref()),
    }
}

fn serve_feeds(sim: &SuiteFlags, window: SimDuration) -> Vec<bench::serve::ServeFeed> {
    bench::serve::campaign_feeds(sim.period, sim.scale, sim.seed, window, &sim.scenarios)
}

fn run_serve_daemon(
    listen: &str,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    restore: Option<&str>,
) {
    use measurement::serve::{ServeOptions, ServeState};

    let options = ServeOptions {
        checkpoint_path: checkpoint.map(std::path::PathBuf::from),
        checkpoint_every,
    };
    let state = match restore {
        Some(path) => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|error| fail(format!("failed to read checkpoint {path}: {error}")));
            let state = ServeState::restore(&bytes, analysis::serve_answerer(), options)
                .unwrap_or_else(|e| fail(format!("failed to restore checkpoint {path}: {e}")));
            eprintln!(
                "# serve: restored {} tenant(s), {} event(s) from {path}",
                state.tenant_count(),
                state.events_ingested()
            );
            state
        }
        None => ServeState::new(analysis::serve_answerer(), options),
    };
    eprintln!("# serve: listening on {listen}");
    let shared = std::sync::Arc::new(std::sync::Mutex::new(state));
    if let Err(error) = measurement::serve_unix(std::path::Path::new(listen), shared) {
        fail(format!("serve failed: {error}"));
    }
    eprintln!("# serve: shutdown complete");
}

#[cfg(unix)]
fn run_serve_drive(sock: &str, sim: &SuiteFlags, window: SimDuration, options: &DriveOptions) {
    eprintln!(
        "# serve --drive: {} on {} at scale {}, seed {}",
        sock, sim.period, sim.scale, sim.seed
    );
    let feeds = serve_feeds(sim, window);
    eprintln!("# serve --drive: {} feed(s) built, streaming", feeds.len());
    let mut stream = std::os::unix::net::UnixStream::connect(sock)
        .unwrap_or_else(|error| fail(format!("failed to connect to {sock}: {error}")));
    let answers = bench::serve::drive_feeds(&mut stream, &feeds, options)
        .unwrap_or_else(|error| fail(format!("drive failed: {error}")));
    if options.max_batches.is_some() {
        eprintln!("# serve --drive: partial ingest done (no finish sent)");
    } else {
        println!("{}", answers.to_string_pretty());
    }
}

#[cfg(not(unix))]
fn run_serve_drive(_sock: &str, _sim: &SuiteFlags, _window: SimDuration, _options: &DriveOptions) {
    fail("serve --drive requires unix-domain sockets");
}

fn run_serve_bench_command(cfg: &bench::serve::ServeBenchConfig, out: Option<&str>) {
    eprintln!(
        "# serve --bench: {} tenants x {} events, {}-row batches, {} queries",
        cfg.tenants, cfg.events_per_tenant, cfg.batch_rows, cfg.queries
    );
    let report = bench::serve::run_serve_bench(cfg, |round, rounds| {
        eprintln!("# serve --bench: ingest round {round}/{rounds}");
    });
    eprintln!("# {}", report.summary());
    write_report(out, &report.full_json());
    // stdout carries only the deterministic fields, so runs at different
    // thread counts can be compared byte-for-byte.
    println!("{}", report.deterministic_json().to_string_pretty());
}
