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
//! Sweep, scenario, vantage, scale, stream, estimators, crawl, export and analyze stdout is deterministic: the same configuration
//! produces byte-identical JSON regardless of `--threads` (timing numbers go
//! to the `BENCH_*.json` files and stderr only).
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
use measurement::sweep::{ObserverTweak, SweepGrid, SweepRunner};
use measurement::{run_period, run_scenario_suite, run_vantage_suite, MeasurementCampaign};
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::{Cdf, SimDuration};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Options {
    scale: f64,
    seed: u64,
    only: Option<Vec<String>>,
}

fn parse_args() -> Options {
    let mut options = Options {
        scale: 0.02,
        seed: 1975,
        only: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                options.scale = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(options.scale);
                i += 2;
            }
            "--seed" => {
                options.seed = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(options.seed);
                i += 2;
            }
            "--only" => {
                options.only = args
                    .get(i + 1)
                    .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument {other}");
                i += 1;
            }
        }
    }
    options
}

fn wants(options: &Options, key: &str) -> bool {
    match &options.only {
        None => true,
        Some(keys) => keys.iter().any(|k| k == key),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        run_sweep_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("scenarios") {
        run_scenarios_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("vantage") {
        run_vantage_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("scale") {
        run_scale_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("stream") {
        run_stream_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("estimators") {
        run_estimators_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("crawl") {
        run_crawl_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("export") {
        run_export_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("analyze") {
        run_analyze_command(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        run_serve_command(&args[1..]);
        return;
    }
    let options = parse_args();
    println!("# Reproduction harness — scale {}, seed {}\n", options.scale, options.seed);

    let mut campaigns: HashMap<&'static str, MeasurementCampaign> = HashMap::new();
    let mut campaign = |period: MeasurementPeriod, options: &Options| -> MeasurementCampaign {
        campaigns
            .entry(period.label())
            .or_insert_with(|| run_period(period, options.scale, options.seed))
            .clone()
    };

    if wants(&options, "table1") {
        table1();
    }
    if wants(&options, "table2") {
        table2(&mut campaign, &options);
    }
    if wants(&options, "fig2") {
        fig2(&mut campaign, &options);
    }
    if wants(&options, "fig3") || wants(&options, "fig4") || wants(&options, "table3") {
        metadata_section(&mut campaign, &options);
    }
    if wants(&options, "fig5") {
        fig5(&mut campaign, &options);
    }
    if wants(&options, "fig6") {
        fig6(&options);
    }
    if wants(&options, "fig7") {
        fig7(&mut campaign, &options);
    }
    if wants(&options, "table4") || wants(&options, "ipgroups") {
        network_size(&mut campaign, &options);
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
    campaign: &mut impl FnMut(MeasurementPeriod, &Options) -> MeasurementCampaign,
    options: &Options,
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
    campaign: &mut impl FnMut(MeasurementPeriod, &Options) -> MeasurementCampaign,
    options: &Options,
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
    campaign: &mut impl FnMut(MeasurementPeriod, &Options) -> MeasurementCampaign,
    options: &Options,
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
    campaign: &mut impl FnMut(MeasurementPeriod, &Options) -> MeasurementCampaign,
    options: &Options,
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

fn fig6(options: &Options) {
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
    campaign: &mut impl FnMut(MeasurementPeriod, &Options) -> MeasurementCampaign,
    options: &Options,
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
    campaign: &mut impl FnMut(MeasurementPeriod, &Options) -> MeasurementCampaign,
    options: &Options,
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

fn sweep_usage() -> ! {
    eprintln!(
        "usage: repro sweep [--periods P1,P2,...] [--scales 0.01,...] \
         [--seeds N | --seed-list 3,17,...] [--tweaks label=factor,...] \
         [--scenarios baseline,flashcrowd,...] [--vantages 1,3,...] \
         [--base-seed N] [--threads N] [--pretty] [--no-table]"
    );
    std::process::exit(2);
}

fn parse_scenarios(spec: &str) -> Vec<ChurnScenario> {
    spec.split(',')
        .map(|label| {
            ChurnScenario::from_label(label.trim()).unwrap_or_else(|| {
                eprintln!(
                    "unknown scenario {label:?} (expected baseline, diurnal, flashcrowd, \
                     massexit, pidflood, natchurn, sybil, eclipse or poison)"
                );
                std::process::exit(2);
            })
        })
        .collect()
}

fn run_sweep_command(args: &[String]) {
    let mut periods = vec![MeasurementPeriod::P1, MeasurementPeriod::P2];
    let mut scales = vec![0.01];
    let mut seeds: Vec<u64> = (1..=8).collect();
    let mut tweaks = vec![ObserverTweak::default()];
    let mut scenarios = vec![ChurnScenario::Baseline];
    let mut vantages = vec![1usize];
    let mut base_seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| sweep_usage())
        };
        match args[i].as_str() {
            "--periods" => {
                periods = take(i)
                    .split(',')
                    .map(|label| {
                        MeasurementPeriod::from_label(label.trim()).unwrap_or_else(|| {
                            eprintln!("unknown period {label:?} (expected P0..P4 or P14d)");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                i += 2;
            }
            "--scales" => {
                scales = take(i)
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("invalid scale {s:?}");
                        std::process::exit(2);
                    }))
                    .collect();
                i += 2;
            }
            "--seeds" => {
                let n: u64 = take(i).parse().unwrap_or_else(|_| sweep_usage());
                seeds = (1..=n).collect();
                i += 2;
            }
            "--seed-list" => {
                seeds = take(i)
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| sweep_usage()))
                    .collect();
                i += 2;
            }
            "--tweaks" => {
                tweaks = take(i)
                    .split(',')
                    .map(|spec| {
                        let (label, factor) = spec.split_once('=').unwrap_or((spec, "1.0"));
                        let factor: f64 = factor.trim().parse().unwrap_or_else(|_| {
                            eprintln!("invalid tweak {spec:?} (expected label=factor)");
                            std::process::exit(2);
                        });
                        ObserverTweak::limits(label.trim(), factor)
                    })
                    .collect();
                i += 2;
            }
            "--scenarios" => {
                scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--vantages" => {
                vantages = take(i)
                    .split(',')
                    .map(|v| v.trim().parse().unwrap_or_else(|_| sweep_usage()))
                    .collect();
                i += 2;
            }
            "--base-seed" => {
                base_seed = Some(take(i).parse().unwrap_or_else(|_| sweep_usage()));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| sweep_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            _ => sweep_usage(),
        }
    }

    if periods.is_empty() || scales.is_empty() || seeds.is_empty() || tweaks.is_empty()
        || scenarios.is_empty() || vantages.is_empty()
    {
        sweep_usage();
    }

    let mut grid = SweepGrid::new(periods)
        .with_scales(scales)
        .with_seeds(seeds)
        .with_tweaks(tweaks)
        .with_scenarios(scenarios)
        .with_vantages(vantages);
    if let Some(base) = base_seed {
        grid = grid.with_base_seed(base);
    }
    if let Err(problem) = grid.validate() {
        eprintln!("invalid sweep grid: {problem}");
        std::process::exit(2);
    }
    let runner = match threads {
        Some(n) => SweepRunner::new().with_threads(n),
        None => SweepRunner::new(),
    };

    let total = grid.cell_count();
    eprintln!("# sweep: {total} campaigns");
    let started = std::time::Instant::now();
    let done = AtomicUsize::new(0);
    let report = runner.run_with_progress(&grid, |cell| {
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[{finished}/{total}] {} {} scale {} seed {} ({}): {} conns, {} pids",
            cell.period, cell.scenario, cell.scale, cell.seed, cell.tweak, cell.connections, cell.pids
        );
    });
    eprintln!("# sweep finished in {:.1?}", started.elapsed());
    if table {
        eprintln!("\n{}", report.summary_table());
    }
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

// ---- the `scale` subcommand ------------------------------------------------

fn scale_usage() -> ! {
    eprintln!(
        "usage: repro scale [--peers N] [--shards N] [--threads N] \
         [--duration-mins M] [--seed N] [--compat-peers N] \
         [--out BENCH_scale.json] [--no-file] \
         [--full-protocol] [--epoch-secs S] [--tp-observers N]"
    );
    eprintln!(
        "  --full-protocol runs one coherent population through the \
         cross-shard mailbox engine instead of independent per-shard \
         simulations, and writes its `true_protocol` row into the report file, \
         replacing an earlier one"
    );
    std::process::exit(2);
}

fn run_scale_command(args: &[String]) {
    use bench::scale::{run_scale_with_progress, ScaleConfig, TrueProtocolConfig};

    let mut cfg = ScaleConfig::default();
    let mut out_path = String::from("BENCH_scale.json");
    let mut write_file = true;
    let mut full_protocol = false;
    let mut peers_given = false;
    let mut epoch_secs: u64 = 60;
    let mut tp_observers: usize = TrueProtocolConfig::default().observers;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| scale_usage())
        };
        match args[i].as_str() {
            "--peers" => {
                cfg.peers = take(i).parse().unwrap_or_else(|_| scale_usage());
                peers_given = true;
                i += 2;
            }
            "--shards" => {
                cfg.shards = take(i).parse().unwrap_or_else(|_| scale_usage());
                i += 2;
            }
            "--threads" => {
                cfg.threads = take(i).parse().unwrap_or_else(|_| scale_usage());
                i += 2;
            }
            "--duration-mins" => {
                let mins: u64 = take(i).parse().unwrap_or_else(|_| scale_usage());
                cfg.duration = simclock::SimDuration::from_mins(mins);
                i += 2;
            }
            "--seed" => {
                cfg.seed = take(i).parse().unwrap_or_else(|_| scale_usage());
                i += 2;
            }
            "--compat-peers" => {
                cfg.compat_peers = take(i).parse().unwrap_or_else(|_| scale_usage());
                i += 2;
            }
            "--out" => {
                out_path = take(i).to_string();
                i += 2;
            }
            "--no-file" => {
                write_file = false;
                i += 1;
            }
            "--full-protocol" => {
                full_protocol = true;
                i += 1;
            }
            "--epoch-secs" => {
                epoch_secs = take(i).parse().unwrap_or_else(|_| scale_usage());
                i += 2;
            }
            "--tp-observers" => {
                tp_observers = take(i).parse().unwrap_or_else(|_| scale_usage());
                i += 2;
            }
            _ => scale_usage(),
        }
    }
    if cfg.peers == 0 || cfg.shards == 0 || cfg.threads == 0 || cfg.compat_peers == 0 {
        scale_usage();
    }
    if full_protocol {
        if epoch_secs == 0 || tp_observers == 0 {
            scale_usage();
        }
        // The classic harness and the true-protocol campaign default to
        // different population sizes; only an explicit --peers overrides.
        let tp_cfg = TrueProtocolConfig {
            peers: if peers_given {
                cfg.peers
            } else {
                TrueProtocolConfig::default().peers
            },
            shards: cfg.shards,
            threads: cfg.threads,
            duration: cfg.duration,
            epoch: simclock::SimDuration::from_secs(epoch_secs),
            seed: cfg.seed,
            observers: tp_observers,
        };
        run_full_protocol_command(&tp_cfg, &out_path, write_file);
        return;
    }

    eprintln!(
        "# scale: {} peers in {} shards on {} threads, {} simulated",
        cfg.peers, cfg.shards, cfg.threads, cfg.duration
    );
    let done = AtomicUsize::new(0);
    let total = cfg.shards;
    let report = run_scale_with_progress(&cfg, |shard| {
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
    if write_file {
        let mut text = report.full_json().to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(&out_path, text) {
            eprintln!("failed to write {out_path}: {error}");
            std::process::exit(1);
        }
        eprintln!("# full report (with timing) written to {out_path}");
    }
    // stdout carries only the deterministic fields, so two runs with
    // different --threads can be compared byte-for-byte.
    println!("{}", report.deterministic_json().to_string_pretty());
}

/// Runs the `--full-protocol` variant: one coherent population through the
/// cross-shard mailbox engine. The `true_protocol` row is merged into the
/// report file (replacing an earlier `true_protocol` row and preserving an
/// existing classic report if one is there), and
/// stdout carries only the deterministic fields for byte-comparison.
fn run_full_protocol_command(
    cfg: &bench::scale::TrueProtocolConfig,
    out_path: &str,
    write_file: bool,
) {
    use bench::scale::run_true_protocol;

    eprintln!(
        "# scale --full-protocol: {} peers in {} lock-step shards on {} threads, \
         {} simulated, {} epochs",
        cfg.peers,
        cfg.shards,
        cfg.threads,
        cfg.duration,
        cfg.duration.as_millis() / cfg.epoch.as_millis().max(1)
    );
    let report = run_true_protocol(cfg);
    eprintln!("# {}", report.summary());
    if write_file {
        let mut root = std::fs::read_to_string(out_path)
            .ok()
            .and_then(|text| jsonio::Json::parse(&text).ok())
            .filter(|json| json.as_object().is_some())
            .unwrap_or_else(jsonio::Json::object);
        root.insert("true_protocol", report.full_json());
        let mut text = root.to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(out_path, text) {
            eprintln!("failed to write {out_path}: {error}");
            std::process::exit(1);
        }
        eprintln!("# true_protocol row merged into {out_path}");
    }
    println!("{}", report.deterministic_json().to_string_pretty());
}

// ---- the `stream` subcommand -----------------------------------------------

fn stream_usage() -> ! {
    eprintln!(
        "usage: repro stream [--period P4] [--scale 0.005] [--seed N] \
         [--window-hours 6] [--vantages 1] \
         [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
         [--threads N] [--pretty] [--no-table]\n\
         \n\
         long-horizon memory bench:\n\
         repro stream --long-horizon [--horizons 1,3,7] [--bench-scale 0.0025] \
         [--window-hours 6] [--seed N] [--out BENCH_stream.json] [--no-file]"
    );
    std::process::exit(2);
}

fn run_stream_command(args: &[String]) {
    if args.iter().any(|a| a == "--long-horizon") {
        run_stream_bench_command(args);
        return;
    }
    let mut period = MeasurementPeriod::P4;
    let mut scale: f64 = 0.005;
    let mut seed = 1975u64;
    let mut window_hours = 6u64;
    let mut vantages = 1usize;
    let mut scenarios = vec![ChurnScenario::Baseline];
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| stream_usage())
        };
        match args[i].as_str() {
            "--period" => {
                period = MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| {
                    eprintln!("unknown period {:?} (expected P0..P4 or P14d)", args[i + 1]);
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale" => {
                scale = take(i).parse().unwrap_or_else(|_| stream_usage());
                i += 2;
            }
            "--seed" => {
                seed = take(i).parse().unwrap_or_else(|_| stream_usage());
                i += 2;
            }
            "--window-hours" => {
                window_hours = take(i).parse().unwrap_or_else(|_| stream_usage());
                i += 2;
            }
            "--vantages" => {
                vantages = take(i).parse().unwrap_or_else(|_| stream_usage());
                i += 2;
            }
            "--scenarios" => {
                scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| stream_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            _ => stream_usage(),
        }
    }
    if scenarios.is_empty() || vantages == 0 || window_hours == 0 || !scale.is_finite() || scale <= 0.0 {
        stream_usage();
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    let window = SimDuration::from_hours(window_hours);
    eprintln!(
        "# stream: {period} at scale {scale}, seed {seed}, {window_hours} h windows, \
         {vantages} vantage(s), scenarios {}",
        scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = std::time::Instant::now();
    let campaigns = measurement::run_stream_suite(
        period, scale, seed, vantages, window, &scenarios, threads,
    );
    let report = analysis::stream_report(&campaigns);
    eprintln!("# stream finished in {:.1?}", started.elapsed());
    if table {
        eprintln!("\n{}", report.summary_table());
    }
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

fn run_stream_bench_command(args: &[String]) {
    use bench::stream::{run_stream_bench_with_progress, StreamBenchConfig};

    let mut cfg = StreamBenchConfig::default();
    let mut out_path = String::from("BENCH_stream.json");
    let mut write_file = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| stream_usage())
        };
        match args[i].as_str() {
            "--long-horizon" => {
                i += 1;
            }
            "--horizons" => {
                cfg.horizons_days = take(i)
                    .split(',')
                    .map(|v| v.trim().parse().unwrap_or_else(|_| stream_usage()))
                    .collect();
                i += 2;
            }
            "--bench-scale" => {
                cfg.scale = take(i).parse().unwrap_or_else(|_| stream_usage());
                i += 2;
            }
            "--window-hours" => {
                let hours: u64 = take(i).parse().unwrap_or_else(|_| stream_usage());
                cfg.window = SimDuration::from_hours(hours);
                i += 2;
            }
            "--seed" => {
                cfg.seed = take(i).parse().unwrap_or_else(|_| stream_usage());
                i += 2;
            }
            "--out" => {
                out_path = take(i).to_string();
                i += 2;
            }
            "--no-file" => {
                write_file = false;
                i += 1;
            }
            _ => stream_usage(),
        }
    }
    if cfg.horizons_days.is_empty() || cfg.window.is_zero() || !cfg.scale.is_finite() || cfg.scale <= 0.0 {
        stream_usage();
    }

    eprintln!(
        "# stream --long-horizon: Extended at scale {}, horizons {:?} days, {} windows",
        cfg.scale, cfg.horizons_days, cfg.window
    );
    let report = run_stream_bench_with_progress(&cfg, |horizon| {
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
    if write_file {
        let mut text = report.full_json().to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(&out_path, text) {
            eprintln!("failed to write {out_path}: {error}");
            std::process::exit(1);
        }
        eprintln!("# full report (with timing) written to {out_path}");
    }
    // stdout carries only the deterministic fields, so runs at different
    // thread counts can be compared byte-for-byte.
    println!("{}", report.deterministic_json().to_string_pretty());
}

// ---- the `estimators` subcommand -------------------------------------------

fn estimators_usage() -> ! {
    eprintln!(
        "usage: repro estimators [--period P4] [--scale 0.005] [--seed N] \
         [--vantages 3] [--replicates 5] [--bootstrap 200] [--window-hours 6] \
         [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
         [--threads N] [--pretty] [--no-table] \
         [--out BENCH_estimators.json] [--no-file]"
    );
    std::process::exit(2);
}

fn run_estimators_command(args: &[String]) {
    use bench::estimators::{run_estimators_bench_with_progress, EstimatorsBenchConfig};

    let mut cfg = EstimatorsBenchConfig::default();
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;
    let mut out_path = String::from("BENCH_estimators.json");
    let mut write_file = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| estimators_usage())
        };
        match args[i].as_str() {
            "--period" => {
                cfg.period = MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| {
                    eprintln!("unknown period {:?} (expected P0..P4 or P14d)", args[i + 1]);
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale" => {
                cfg.scale = take(i).parse().unwrap_or_else(|_| estimators_usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = take(i).parse().unwrap_or_else(|_| estimators_usage());
                i += 2;
            }
            "--vantages" => {
                cfg.vantages = take(i).parse().unwrap_or_else(|_| estimators_usage());
                i += 2;
            }
            "--replicates" => {
                cfg.replicates = take(i).parse().unwrap_or_else(|_| estimators_usage());
                i += 2;
            }
            "--bootstrap" => {
                cfg.bootstrap = take(i).parse().unwrap_or_else(|_| estimators_usage());
                i += 2;
            }
            "--window-hours" => {
                let hours: u64 = take(i).parse().unwrap_or_else(|_| estimators_usage());
                cfg.window = SimDuration::from_hours(hours);
                i += 2;
            }
            "--scenarios" => {
                cfg.scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| estimators_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            "--out" => {
                out_path = take(i).to_string();
                i += 2;
            }
            "--no-file" => {
                write_file = false;
                i += 1;
            }
            _ => estimators_usage(),
        }
    }
    if cfg.scenarios.is_empty() || cfg.vantages == 0 || cfg.replicates == 0
        || cfg.window.is_zero() || !cfg.scale.is_finite() || cfg.scale <= 0.0
    {
        estimators_usage();
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    eprintln!(
        "# estimators: {} replicates x {} vantage(s) on {} at scale {}, seed {}, \
         {} bootstrap resamples, scenarios {}",
        cfg.replicates,
        cfg.vantages,
        cfg.period,
        cfg.scale,
        cfg.seed,
        cfg.bootstrap,
        cfg.scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = std::time::Instant::now();
    let report = run_estimators_bench_with_progress(&cfg, threads, |stage| {
        eprintln!("# {stage}");
    });
    eprintln!("# estimators finished in {:.1?}", started.elapsed());
    eprintln!("# {}", report.summary());
    if table {
        eprintln!("\n{}", report.report.summary_table());
    }
    if write_file {
        let mut text = report.full_json().to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(&out_path, text) {
            eprintln!("failed to write {out_path}: {error}");
            std::process::exit(1);
        }
        eprintln!("# full report (with timing) written to {out_path}");
    }
    // stdout carries only the deterministic fields, so runs at different
    // thread counts can be compared byte-for-byte.
    if pretty {
        println!("{}", report.deterministic_json().to_string_pretty());
    } else {
        println!("{}", report.deterministic_json().to_string_compact());
    }
}

// ---- the `crawl` subcommand ------------------------------------------------

fn crawl_usage() -> ! {
    eprintln!(
        "usage: repro crawl [--period P4] [--scale 0.005] [--seed N] \
         [--scenarios baseline,sybil,eclipse,poison] \
         [--threads N] [--pretty] [--no-table] \
         [--out BENCH_crawl.json] [--no-file]"
    );
    std::process::exit(2);
}

fn run_crawl_command(args: &[String]) {
    let mut period = MeasurementPeriod::P4;
    let mut scale: f64 = 0.005;
    let mut seed = 1975u64;
    let mut scenarios = {
        let mut list = vec![ChurnScenario::Baseline];
        list.extend(ChurnScenario::adversaries());
        list
    };
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;
    let mut out_path = String::from("BENCH_crawl.json");
    let mut write_file = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| crawl_usage())
        };
        match args[i].as_str() {
            "--period" => {
                period = MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| {
                    eprintln!("unknown period {:?} (expected P0..P4 or P14d)", args[i + 1]);
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale" => {
                scale = take(i).parse().unwrap_or_else(|_| crawl_usage());
                i += 2;
            }
            "--seed" => {
                seed = take(i).parse().unwrap_or_else(|_| crawl_usage());
                i += 2;
            }
            "--scenarios" => {
                scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| crawl_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            "--out" => {
                out_path = take(i).to_string();
                i += 2;
            }
            "--no-file" => {
                write_file = false;
                i += 1;
            }
            _ => crawl_usage(),
        }
    }
    if scenarios.is_empty() || !scale.is_finite() || scale <= 0.0 {
        crawl_usage();
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    eprintln!(
        "# crawl: {} on {period} at scale {scale}, seed {seed}",
        scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = std::time::Instant::now();
    let campaigns = run_scenario_suite(period, scale, seed, &scenarios, threads);
    let report = analysis::crawl_disagreement_report(&campaigns);
    let elapsed = started.elapsed();
    eprintln!("# crawl finished in {elapsed:.1?}");
    if table {
        eprintln!("\n{}", report.summary_table());
    }
    if write_file {
        let mut full = jsonio::Json::object();
        full.insert("elapsed_secs", elapsed.as_secs_f64());
        full.insert("report", report.to_json());
        let mut text = full.to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(&out_path, text) {
            eprintln!("failed to write {out_path}: {error}");
            std::process::exit(1);
        }
        eprintln!("# full report (with timing) written to {out_path}");
    }
    // stdout carries only deterministic fields, so runs at different thread
    // counts can be compared byte-for-byte.
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

// ---- the `export` / `analyze` subcommands ----------------------------------

fn export_usage() -> ! {
    eprintln!(
        "usage: repro export --dir DIR [--period P4] [--scale 0.005] [--seed N] \
         [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
         [--threads N] [--pretty] [--no-table]"
    );
    std::process::exit(2);
}

fn run_export_command(args: &[String]) {
    let mut dir: Option<String> = None;
    let mut period = MeasurementPeriod::P4;
    let mut scale: f64 = 0.005;
    let mut seed = 1975u64;
    let mut scenarios = ChurnScenario::all();
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| export_usage())
        };
        match args[i].as_str() {
            "--dir" => {
                dir = Some(take(i).to_string());
                i += 2;
            }
            "--period" => {
                period = MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| {
                    eprintln!("unknown period {:?} (expected P0..P4 or P14d)", args[i + 1]);
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale" => {
                scale = take(i).parse().unwrap_or_else(|_| export_usage());
                i += 2;
            }
            "--seed" => {
                seed = take(i).parse().unwrap_or_else(|_| export_usage());
                i += 2;
            }
            "--scenarios" => {
                scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| export_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            _ => export_usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| export_usage());
    if scenarios.is_empty() || !scale.is_finite() || scale <= 0.0 {
        export_usage();
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    eprintln!(
        "# export: {} on {period} at scale {scale}, seed {seed} -> {dir}/",
        scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = std::time::Instant::now();
    let cells = measurement::export_suite(period, scale, seed, &scenarios, threads);
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
        eprintln!("failed to create {dir}: {error}");
        std::process::exit(1);
    }
    let mut manifest_cells = jsonio::Json::array();
    let mut total_bytes = 0usize;
    let mut rows = Vec::new();
    for (index, (churn, archive, events)) in archives.iter().enumerate() {
        let file = format!("cell-{index:02}-{}.obsar", churn.label());
        let path = format!("{dir}/{file}");
        if let Err(error) = std::fs::write(&path, archive) {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
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
            format!(
                "{:.1}",
                archive.len() as f64 / (*events).max(1) as f64
            ),
        ]);
    }
    let mut manifest = jsonio::Json::object();
    manifest.insert("format_version", netsim::archive::FORMAT_VERSION as u64);
    manifest.insert("period", period.label());
    manifest.insert("scale", scale);
    manifest.insert("seed", seed);
    manifest.insert("cells", manifest_cells);
    manifest.insert("direct_secs", direct_secs);
    manifest.insert("sim_secs", sim_secs);
    manifest.insert("encode_secs", encode_secs);
    let manifest_path = format!("{dir}/manifest.json");
    let mut text = manifest.to_string_pretty();
    text.push('\n');
    if let Err(error) = std::fs::write(&manifest_path, text) {
        eprintln!("failed to write {manifest_path}: {error}");
        std::process::exit(1);
    }

    eprintln!(
        "# export finished in {:.1?}: {} cells, {} bytes archived",
        started.elapsed(),
        archives.len(),
        total_bytes
    );
    if table {
        eprintln!(
            "\n{}",
            report::text_table(
                &["Scenario", "File", "Events", "Bytes", "B/event"],
                &rows
            )
        );
        eprintln!("{}", report.summary_table());
    }
    // stdout is the robustness report of the direct (simulate + ingest) path —
    // byte-identical to `repro scenarios` with the same configuration, and the
    // reference `repro analyze` must reproduce from the archives alone.
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

fn analyze_usage() -> ! {
    eprintln!(
        "usage: repro analyze --dir DIR [--threads N] [--pretty] [--no-table] \
         [--bench-out BENCH_archive.json] [--no-file]"
    );
    std::process::exit(2);
}

/// Exits loudly when the manifest is missing a field — a malformed manifest
/// must never silently degrade into a partial re-analysis.
fn manifest_field<'a>(manifest: &'a jsonio::Json, key: &str) -> &'a jsonio::Json {
    manifest.get(key).unwrap_or_else(|| {
        eprintln!("manifest.json is missing the {key:?} field");
        std::process::exit(1);
    })
}

fn run_analyze_command(args: &[String]) {
    let mut dir: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;
    let mut bench_out = String::from("BENCH_archive.json");
    let mut write_file = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| analyze_usage())
        };
        match args[i].as_str() {
            "--dir" => {
                dir = Some(take(i).to_string());
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| analyze_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            "--bench-out" => {
                bench_out = take(i).to_string();
                i += 2;
            }
            "--no-file" => {
                write_file = false;
                i += 1;
            }
            _ => analyze_usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| analyze_usage());
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });

    let manifest_path = format!("{dir}/manifest.json");
    let manifest_text = std::fs::read_to_string(&manifest_path).unwrap_or_else(|error| {
        eprintln!("failed to read {manifest_path}: {error}");
        std::process::exit(1);
    });
    let manifest = jsonio::Json::parse(&manifest_text).unwrap_or_else(|error| {
        eprintln!("failed to parse {manifest_path}: {error}");
        std::process::exit(1);
    });
    let format_version = manifest_field(&manifest, "format_version")
        .as_u64()
        .unwrap_or(0);
    if format_version != netsim::archive::FORMAT_VERSION as u64 {
        eprintln!(
            "manifest format version {format_version} is not the supported version {}",
            netsim::archive::FORMAT_VERSION
        );
        std::process::exit(1);
    }
    let manifest_cells = manifest_field(&manifest, "cells").as_array().unwrap_or_else(|| {
        eprintln!("manifest.json \"cells\" is not an array");
        std::process::exit(1);
    });
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

    let started = std::time::Instant::now();
    let mut archives = Vec::with_capacity(manifest_cells.len());
    for cell in manifest_cells {
        let file = cell.get("file").and_then(jsonio::Json::as_str).unwrap_or_else(|| {
            eprintln!("manifest cell is missing the \"file\" field");
            std::process::exit(1);
        });
        let path = format!("{dir}/{file}");
        let bytes = std::fs::read(&path).unwrap_or_else(|error| {
            eprintln!("failed to read {path}: {error}");
            std::process::exit(1);
        });
        if let Some(expected) = cell.get("checksum").and_then(jsonio::Json::as_u64) {
            let actual = netsim::archive::fnv1a(&bytes);
            if actual != expected {
                eprintln!(
                    "{path} does not match its manifest checksum \
                     (expected {expected:016x}, got {actual:016x})"
                );
                std::process::exit(1);
            }
        }
        archives.push(bytes);
    }
    let read_secs = started.elapsed().as_secs_f64();

    let cells = measurement::analyze_suite(&archives, threads).unwrap_or_else(|error| {
        eprintln!("failed to decode archives: {error}");
        std::process::exit(1);
    });
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
    if table {
        eprintln!("\n{}", report.summary_table());
    }
    if write_file {
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
        let mut text = bench.to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(&bench_out, text) {
            eprintln!("failed to write {bench_out}: {error}");
            std::process::exit(1);
        }
        eprintln!("# archive bench (with timing) written to {bench_out}");
    }
    // stdout is the robustness report reconstructed from the archives alone —
    // byte-identical to the `repro export` / `repro scenarios` output for the
    // same configuration, with zero re-simulation.
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

// ---- the `vantage` subcommand ----------------------------------------------

fn vantage_usage() -> ! {
    eprintln!(
        "usage: repro vantage [--period P4] [--scale 0.005] [--seed N] \
         [--vantages 3] \
         [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
         [--threads N] [--pretty] [--no-table]"
    );
    std::process::exit(2);
}

fn run_vantage_command(args: &[String]) {
    let mut period = MeasurementPeriod::P4;
    let mut scale: f64 = 0.005;
    let mut seed = 1975u64;
    let mut vantages = 3usize;
    let mut scenarios = vec![ChurnScenario::Baseline];
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| vantage_usage())
        };
        match args[i].as_str() {
            "--period" => {
                period = MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| {
                    eprintln!("unknown period {:?} (expected P0..P4 or P14d)", args[i + 1]);
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale" => {
                scale = take(i).parse().unwrap_or_else(|_| vantage_usage());
                i += 2;
            }
            "--seed" => {
                seed = take(i).parse().unwrap_or_else(|_| vantage_usage());
                i += 2;
            }
            "--vantages" => {
                vantages = take(i).parse().unwrap_or_else(|_| vantage_usage());
                i += 2;
            }
            "--scenarios" => {
                scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| vantage_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            _ => vantage_usage(),
        }
    }
    if scenarios.is_empty() || vantages == 0 || !scale.is_finite() || scale <= 0.0 {
        vantage_usage();
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    eprintln!(
        "# vantage: {vantages} vantage points on {period} at scale {scale}, seed {seed}, scenarios {}",
        scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = std::time::Instant::now();
    let campaigns = run_vantage_suite(period, scale, seed, vantages, &scenarios, threads);
    let report = analysis::vantage_report(&campaigns);
    eprintln!("# vantage finished in {:.1?}", started.elapsed());
    if table {
        eprintln!("\n{}", report.summary_table());
    }
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

// ---- the `scenarios` subcommand --------------------------------------------

fn scenarios_usage() -> ! {
    eprintln!(
        "usage: repro scenarios [--period P4] [--scale 0.005] [--seed N] \
         [--scenarios baseline,diurnal,flashcrowd,massexit,pidflood,natchurn] \
         [--threads N] [--pretty] [--no-table]"
    );
    std::process::exit(2);
}

fn run_scenarios_command(args: &[String]) {
    let mut period = MeasurementPeriod::P4;
    let mut scale: f64 = 0.005;
    let mut seed = 1975u64;
    let mut scenarios = ChurnScenario::all();
    let mut threads: Option<usize> = None;
    let mut pretty = false;
    let mut table = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| scenarios_usage())
        };
        match args[i].as_str() {
            "--period" => {
                period = MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| {
                    eprintln!("unknown period {:?} (expected P0..P4 or P14d)", args[i + 1]);
                    std::process::exit(2);
                });
                i += 2;
            }
            "--scale" => {
                scale = take(i).parse().unwrap_or_else(|_| scenarios_usage());
                i += 2;
            }
            "--seed" => {
                seed = take(i).parse().unwrap_or_else(|_| scenarios_usage());
                i += 2;
            }
            "--scenarios" => {
                scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--threads" => {
                threads = Some(take(i).parse().unwrap_or_else(|_| scenarios_usage()));
                i += 2;
            }
            "--pretty" => {
                pretty = true;
                i += 1;
            }
            "--no-table" => {
                table = false;
                i += 1;
            }
            _ => scenarios_usage(),
        }
    }
    if scenarios.is_empty() || !scale.is_finite() || scale <= 0.0 {
        scenarios_usage();
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    eprintln!(
        "# scenarios: {} on {period} at scale {scale}, seed {seed}",
        scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    let started = std::time::Instant::now();
    let campaigns = run_scenario_suite(period, scale, seed, &scenarios, threads);
    let report = analysis::robustness_report(&campaigns);
    eprintln!("# scenarios finished in {:.1?}", started.elapsed());
    if table {
        eprintln!("\n{}", report.summary_table());
    }
    if pretty {
        println!("{}", report.to_json_string_pretty());
    } else {
        println!("{}", report.to_json_string());
    }
}

// ---- the `serve` subcommand ------------------------------------------------

fn serve_usage() -> ! {
    eprintln!(
        "usage:\n\
         repro serve --listen SOCK [--checkpoint FILE] [--checkpoint-every N] [--restore FILE]\n\
         repro serve --drive SOCK [--period P2] [--scale 0.005] [--seed N] [--window-hours 6] \
         [--scenarios baseline,...] [--batch-rows 512] [--resume] [--max-batches N] [--shutdown]\n\
         repro serve --reference [--period P2] [--scale 0.005] [--seed N] [--window-hours 6] \
         [--scenarios baseline,...]\n\
         repro serve --bench [--tenants 1000] [--events 240] [--batch-rows 48] [--queries 1000] \
         [--seed N] [--out BENCH_serve.json] [--no-file]"
    );
    std::process::exit(2);
}

struct ServeSimFlags {
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    window_hours: u64,
    scenarios: Vec<ChurnScenario>,
}

impl ServeSimFlags {
    fn feeds(&self) -> Vec<bench::serve::ServeFeed> {
        bench::serve::campaign_feeds(
            self.period,
            self.scale,
            self.seed,
            SimDuration::from_hours(self.window_hours),
            &self.scenarios,
        )
    }
}

fn run_serve_command(args: &[String]) {
    if args.iter().any(|a| a == "--listen") {
        run_serve_daemon(args);
    } else if args.iter().any(|a| a == "--drive") {
        run_serve_drive(args);
    } else if args.iter().any(|a| a == "--reference") {
        run_serve_reference(args);
    } else if args.iter().any(|a| a == "--bench") {
        run_serve_bench_command(args);
    } else {
        serve_usage();
    }
}

fn run_serve_daemon(args: &[String]) {
    use measurement::serve::{ServeOptions, ServeState};

    let mut listen: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut restore: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| serve_usage())
        };
        match args[i].as_str() {
            "--listen" => {
                listen = Some(take(i).to_string());
                i += 2;
            }
            "--checkpoint" => {
                checkpoint = Some(take(i).to_string());
                i += 2;
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(take(i).parse().unwrap_or_else(|_| serve_usage()));
                i += 2;
            }
            "--restore" => {
                restore = Some(take(i).to_string());
                i += 2;
            }
            _ => serve_usage(),
        }
    }
    let listen = listen.unwrap_or_else(|| serve_usage());

    let options = ServeOptions {
        checkpoint_path: checkpoint.map(std::path::PathBuf::from),
        checkpoint_every,
    };
    let state = match restore {
        Some(path) => {
            let bytes = std::fs::read(&path).unwrap_or_else(|error| {
                eprintln!("failed to read checkpoint {path}: {error}");
                std::process::exit(1);
            });
            let state = ServeState::restore(&bytes, analysis::serve_answerer(), options)
                .unwrap_or_else(|error| {
                    eprintln!("failed to restore checkpoint {path}: {error}");
                    std::process::exit(1);
                });
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
    if let Err(error) = measurement::serve_unix(std::path::Path::new(&listen), shared) {
        eprintln!("serve failed: {error}");
        std::process::exit(1);
    }
    eprintln!("# serve: shutdown complete");
}

#[cfg(unix)]
fn run_serve_drive(args: &[String]) {
    use bench::serve::{drive_feeds, DriveOptions};

    let mut sock: Option<String> = None;
    let mut sim = ServeSimFlags {
        period: MeasurementPeriod::P2,
        scale: 0.005,
        seed: 1975,
        window_hours: 6,
        scenarios: vec![ChurnScenario::Baseline],
    };
    let mut options = DriveOptions {
        batch_rows: 512,
        resume: false,
        max_batches: None,
        shutdown: false,
    };

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| serve_usage())
        };
        match args[i].as_str() {
            "--drive" => {
                sock = Some(take(i).to_string());
                i += 2;
            }
            "--period" => {
                sim.period =
                    MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| serve_usage());
                i += 2;
            }
            "--scale" => {
                sim.scale = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--seed" => {
                sim.seed = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--window-hours" => {
                sim.window_hours = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--scenarios" => {
                sim.scenarios = parse_scenarios(take(i));
                i += 2;
            }
            "--batch-rows" => {
                options.batch_rows = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--max-batches" => {
                options.max_batches = Some(take(i).parse().unwrap_or_else(|_| serve_usage()));
                i += 2;
            }
            "--resume" => {
                options.resume = true;
                i += 1;
            }
            "--shutdown" => {
                options.shutdown = true;
                i += 1;
            }
            _ => serve_usage(),
        }
    }
    let sock = sock.unwrap_or_else(|| serve_usage());
    if sim.scenarios.is_empty() || sim.window_hours == 0 || options.batch_rows == 0 {
        serve_usage();
    }

    eprintln!(
        "# serve --drive: {} on {} at scale {}, seed {}",
        sock,
        sim.period,
        sim.scale,
        sim.seed
    );
    let feeds = sim.feeds();
    eprintln!("# serve --drive: {} feed(s) built, streaming", feeds.len());
    let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap_or_else(|error| {
        eprintln!("failed to connect to {sock}: {error}");
        std::process::exit(1);
    });
    let answers = drive_feeds(&mut stream, &feeds, &options).unwrap_or_else(|error| {
        eprintln!("drive failed: {error}");
        std::process::exit(1);
    });
    if options.max_batches.is_some() {
        eprintln!("# serve --drive: partial ingest done (no finish sent)");
    } else {
        println!("{}", answers.to_string_pretty());
    }
}

#[cfg(not(unix))]
fn run_serve_drive(_args: &[String]) {
    eprintln!("serve --drive requires unix-domain sockets");
    std::process::exit(1);
}

fn run_serve_reference(args: &[String]) {
    let mut sim = ServeSimFlags {
        period: MeasurementPeriod::P2,
        scale: 0.005,
        seed: 1975,
        window_hours: 6,
        scenarios: vec![ChurnScenario::Baseline],
    };

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| serve_usage())
        };
        match args[i].as_str() {
            "--reference" => {
                i += 1;
            }
            "--period" => {
                sim.period =
                    MeasurementPeriod::from_label(take(i)).unwrap_or_else(|| serve_usage());
                i += 2;
            }
            "--scale" => {
                sim.scale = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--seed" => {
                sim.seed = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--window-hours" => {
                sim.window_hours = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--scenarios" => {
                sim.scenarios = parse_scenarios(take(i));
                i += 2;
            }
            _ => serve_usage(),
        }
    }
    if sim.scenarios.is_empty() || sim.window_hours == 0 {
        serve_usage();
    }

    eprintln!(
        "# serve --reference: {} at scale {}, seed {}",
        sim.period, sim.scale, sim.seed
    );
    let feeds = sim.feeds();
    eprintln!("# serve --reference: {} feed(s) built", feeds.len());
    println!("{}", bench::serve::reference_answers(&feeds).to_string_pretty());
}

fn run_serve_bench_command(args: &[String]) {
    use bench::serve::{run_serve_bench, ServeBenchConfig};

    let mut cfg = ServeBenchConfig::default();
    let mut out_path = String::from("BENCH_serve.json");
    let mut write_file = true;

    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| serve_usage())
        };
        match args[i].as_str() {
            "--bench" => {
                i += 1;
            }
            "--tenants" => {
                cfg.tenants = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--events" => {
                cfg.events_per_tenant = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--batch-rows" => {
                cfg.batch_rows = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--queries" => {
                cfg.queries = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = take(i).parse().unwrap_or_else(|_| serve_usage());
                i += 2;
            }
            "--out" => {
                out_path = take(i).to_string();
                i += 2;
            }
            "--no-file" => {
                write_file = false;
                i += 1;
            }
            _ => serve_usage(),
        }
    }
    if cfg.tenants == 0 || cfg.events_per_tenant == 0 || cfg.batch_rows == 0 {
        serve_usage();
    }

    eprintln!(
        "# serve --bench: {} tenants x {} events, {}-row batches, {} queries",
        cfg.tenants, cfg.events_per_tenant, cfg.batch_rows, cfg.queries
    );
    let report = run_serve_bench(&cfg, |round, rounds| {
        eprintln!("# serve --bench: ingest round {round}/{rounds}");
    });
    eprintln!("# {}", report.summary());
    if write_file {
        let mut text = report.full_json().to_string_pretty();
        text.push('\n');
        if let Err(error) = std::fs::write(&out_path, text) {
            eprintln!("failed to write {out_path}: {error}");
            std::process::exit(1);
        }
        eprintln!("# full report (with timing) written to {out_path}");
    }
    // stdout carries only the deterministic fields, so runs at different
    // thread counts can be compared byte-for-byte.
    println!("{}", report.deterministic_json().to_string_pretty());
}
