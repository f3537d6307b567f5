//! The `repro` flag parser, driven in-process through `bench::cli`.
//!
//! Every subcommand rejects an unknown flag, a valued flag without a value,
//! an unparsable number, an unknown period or scenario label and a scale that
//! is not finite and positive; a repeated flag takes its last value; and
//! every subcommand's defaults are the documented ones. The binary turns each
//! error into its usage text and exit code 2 (the CI `build-test` job checks
//! those exit codes on the real binary).

use bench::cli::{self, ServeCommand, StreamCommand};
use bench::estimators::EstimatorsBenchConfig;
use bench::scale::{ScaleConfig, TrueProtocolConfig};
use bench::stream::StreamBenchConfig;
use population::{ChurnScenario, MeasurementPeriod};
use simclock::SimDuration;

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

const COMMANDS: [&str; 10] = [
    "sweep",
    "scenarios",
    "vantage",
    "stream",
    "estimators",
    "crawl",
    "export",
    "analyze",
    "scale",
    "serve",
];

/// Parses `line` (subcommand first; none for the paper harness) with the
/// parser of its subcommand, keeping only whether it was accepted.
fn check(line: &str) -> Result<(), String> {
    let all = args(line);
    let (command, rest) = match all.first().map(String::as_str) {
        Some(command) if COMMANDS.contains(&command) => (command, &all[1..]),
        _ => ("", &all[..]),
    };
    match command {
        "" => cli::paper_flags(rest).map(drop),
        "sweep" => cli::sweep_flags(rest).map(drop),
        "scenarios" => cli::scenarios_flags(rest).map(drop),
        "vantage" => cli::vantage_flags(rest).map(drop),
        "stream" => cli::stream_flags(rest).map(drop),
        "estimators" => cli::estimators_flags(rest).map(drop),
        "crawl" => cli::crawl_flags(rest).map(drop),
        "export" => cli::export_flags(rest).map(drop),
        "analyze" => cli::analyze_flags(rest).map(drop),
        "scale" => cli::scale_flags(rest).map(drop),
        "serve" => cli::serve_flags(rest).map(drop),
        _ => unreachable!(),
    }
}

fn rejected(line: &str) -> String {
    check(line)
        .err()
        .unwrap_or_else(|| panic!("{line:?} must be rejected"))
}

/// Each subcommand (and mode) with the arguments it needs to be accepted.
const BASES: [&str; 14] = [
    "",
    "sweep",
    "scenarios",
    "vantage",
    "stream",
    "stream --long-horizon",
    "estimators",
    "crawl",
    "export --dir archives",
    "analyze --dir archives",
    "scale",
    "serve --listen /tmp/repro.sock",
    "serve --drive /tmp/repro.sock",
    "serve --reference",
];

#[test]
fn every_subcommand_accepts_its_bare_invocation() {
    for base in BASES.iter().chain(&["serve --bench"]) {
        assert_eq!(check(base), Ok(()), "{base:?}");
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    for base in BASES.iter().chain(&["serve --bench"]) {
        let error = rejected(&format!("{base} --bogus"));
        assert!(error.contains("--bogus"), "{base}: {error}");
    }
    // A stray word is as unknown as a stray flag; the paper harness used to
    // warn and run everything anyway.
    rejected("table1");
    rejected("serve");
}

#[test]
fn a_valued_flag_needs_a_value() {
    for line in [
        "--scale",
        "--only",
        "sweep --periods",
        "scenarios --scale",
        "vantage --vantages",
        "stream --long-horizon --horizons",
        "estimators --bootstrap",
        "crawl --out",
        "export --dir",
        "analyze --dir",
        "scale --peers",
        "serve --listen",
        "serve --reference --seed",
        "serve --bench --tenants",
    ] {
        let error = rejected(line);
        assert!(error.contains("needs a value"), "{line}: {error}");
    }
    // The next argument is always the value, even when it looks like a flag.
    let (dir, _) = cli::export_flags(&args("--dir --pretty")).unwrap();
    assert_eq!(dir, "--pretty");
}

#[test]
fn unparsable_numbers_are_rejected() {
    for line in [
        "--seed x",
        "--scale abc",
        "sweep --seeds two",
        "sweep --seed-list 1,x",
        "sweep --scales 0.01,big",
        "sweep --vantages 1,-3",
        "sweep --tweaks tight=half",
        "scenarios --seed 1.5",
        "scenarios --threads many",
        "vantage --vantages 3x",
        "stream --window-hours 6h",
        "stream --long-horizon --horizons 1,3,x",
        "estimators --replicates -2",
        "crawl --seed 0x10",
        "export --dir archives --threads x",
        "analyze --dir archives --threads 1.0",
        "scale --duration-mins 10m",
        "serve --listen s --checkpoint-every often",
        "serve --drive s --max-batches x",
        "serve --reference --seed x",
        "serve --bench --queries 1e3",
    ] {
        rejected(line);
    }
    // Numbers are not trimmed, but list items are.
    assert!(cli::scenarios_flags(&["--seed".to_string(), " 7".to_string()]).is_err());
    assert_eq!(check("sweep --seed-list 3,17"), Ok(()));
}

#[test]
fn unknown_periods_and_scenarios_are_rejected() {
    for base in [
        "scenarios",
        "vantage",
        "stream",
        "estimators",
        "crawl",
        "export --dir d",
        "serve --drive s",
        "serve --reference",
    ] {
        let error = rejected(&format!("{base} --period P9"));
        assert!(error.contains("P9"), "{base}: {error}");
        let error = rejected(&format!("{base} --scenarios baseline,bogus"));
        assert!(error.contains("bogus"), "{base}: {error}");
    }
    rejected("sweep --periods P1,P9");
    rejected("sweep --scenarios baseline,bogus");
    // Labels are case-insensitive and scenario labels are trimmed.
    let suite = cli::scenarios_flags(&args("--period p14d --scenarios Baseline,PIDFLOOD")).unwrap();
    assert_eq!(suite.period, MeasurementPeriod::Extended);
    assert_eq!(suite.labels(), "baseline,pidflood");
}

#[test]
fn every_scale_must_be_finite_and_positive() {
    for base in [
        "--scale",
        "sweep --scales",
        "scenarios --scale",
        "vantage --scale",
        "stream --scale",
        "stream --long-horizon --bench-scale",
        "estimators --scale",
        "crawl --scale",
        "export --dir d --scale",
        "serve --drive s --scale",
        "serve --reference --scale",
    ] {
        for bad in ["nan", "NaN", "inf", "-inf", "0", "-0", "-1"] {
            rejected(&format!("{base} {bad}"));
        }
        assert_eq!(check(&format!("{base} 0.003")), Ok(()), "{base}");
    }
    let paper = cli::paper_flags(&args("--scale 1e-2")).unwrap();
    assert_eq!(paper.scale, 0.01);
}

#[test]
fn counts_that_must_be_positive_reject_zero() {
    for line in [
        "sweep --seeds 0",
        "sweep --vantages 1,0",
        "vantage --vantages 0",
        "stream --vantages 0",
        "stream --window-hours 0",
        "stream --long-horizon --window-hours 0",
        "estimators --vantages 0",
        "estimators --replicates 0",
        "estimators --window-hours 0",
        "scale --peers 0",
        "scale --shards 0",
        "scale --threads 0",
        "scale --compat-peers 0",
        "scale --full-protocol --epoch-secs 0",
        "scale --full-protocol --tp-observers 0",
        "serve --drive s --batch-rows 0",
        "serve --drive s --window-hours 0",
        "serve --reference --window-hours 0",
        "serve --bench --tenants 0",
        "serve --bench --events 0",
        "serve --bench --batch-rows 0",
    ] {
        rejected(line);
    }
    // These only matter to the full-protocol campaign.
    assert_eq!(check("scale --epoch-secs 0 --tp-observers 0"), Ok(()));
    // A bootstrap of 0 means analytic CIs only.
    assert_eq!(check("estimators --bootstrap 0"), Ok(()));
}

#[test]
fn the_last_repeat_wins_but_every_repeat_must_parse() {
    let suite = cli::scenarios_flags(&args(
        "--seed 1 --period P1 --seed 2 --period P3 --scenarios natchurn",
    ))
    .unwrap();
    assert_eq!((suite.seed, suite.period), (2, MeasurementPeriod::P3));
    assert_eq!(suite.scenarios, vec![ChurnScenario::nat_churn()]);
    rejected("scenarios --seed abc --seed 2");
    rejected("scenarios --scale nan --scale 0.01");

    let sweep = cli::sweep_flags(&args("--seeds 3 --seed-list 5,6")).unwrap();
    assert_eq!(sweep.grid.seeds, vec![5, 6]);
    let sweep = cli::sweep_flags(&args("--seed-list 5,6 --seeds 3")).unwrap();
    assert_eq!(sweep.grid.seeds, vec![1, 2, 3]);
    rejected("sweep --seeds x --seed-list 5,6");

    let paper = cli::paper_flags(&args("--only table1 --only fig7,table4")).unwrap();
    assert_eq!(
        paper.only,
        Some(vec!["fig7".to_string(), "table4".to_string()])
    );
    assert!(paper.wants("table4") && !paper.wants("table1"));

    let analyze = cli::analyze_flags(&args("--dir a --dir b --bench-out x.json")).unwrap();
    assert_eq!(
        (analyze.dir.as_str(), analyze.out.as_deref()),
        ("b", Some("x.json"))
    );
    // --no-file wins over any --out, wherever it stands.
    let (_, out) = cli::crawl_flags(&args("--no-file --out c.json")).unwrap();
    assert_eq!(out, None);
}

#[test]
fn suite_commands_default_to_p4_at_0_005_with_seed_1975() {
    let (vantage, vantages) = cli::vantage_flags(&[]).unwrap();
    let (crawl, crawl_out) = cli::crawl_flags(&[]).unwrap();
    let (dir, export) = cli::export_flags(&args("--dir d")).unwrap();
    let (estimators, cfg, estimators_out) = cli::estimators_flags(&[]).unwrap();
    let StreamCommand::Suite(stream, window, stream_vantages) = cli::stream_flags(&[]).unwrap()
    else {
        panic!("stream without --long-horizon runs the suite");
    };
    let scenarios = cli::scenarios_flags(&[]).unwrap();
    for suite in [&scenarios, &vantage, &stream, &crawl, &export, &estimators] {
        assert_eq!(suite.period, MeasurementPeriod::P4);
        assert_eq!(suite.scale, 0.005);
        assert_eq!(suite.seed, 1975);
        assert_eq!(suite.threads, cli::default_threads());
        assert!(!suite.pretty && suite.table);
    }
    let mut crawl_scenarios = vec![ChurnScenario::Baseline];
    crawl_scenarios.extend(ChurnScenario::adversaries());
    assert_eq!(scenarios.scenarios, ChurnScenario::all());
    assert_eq!(export.scenarios, ChurnScenario::all());
    assert_eq!(estimators.scenarios, ChurnScenario::all());
    assert_eq!(vantage.scenarios, vec![ChurnScenario::Baseline]);
    assert_eq!(stream.scenarios, vec![ChurnScenario::Baseline]);
    assert_eq!(crawl.scenarios, crawl_scenarios);
    assert_eq!(crawl.labels(), "baseline,sybil,eclipse,poison");

    assert_eq!(vantages, 3);
    assert_eq!((window, stream_vantages), (SimDuration::from_hours(6), 1));
    assert_eq!(dir, "d");
    assert_eq!(cfg, EstimatorsBenchConfig::default());
    assert_eq!(crawl_out.as_deref(), Some("BENCH_crawl.json"));
    assert_eq!(estimators_out.as_deref(), Some("BENCH_estimators.json"));

    let switched = cli::scenarios_flags(&args("--pretty --no-table --threads 3")).unwrap();
    assert!(switched.pretty && !switched.table);
    assert_eq!(switched.threads, 3);
}

#[test]
fn other_subcommands_keep_their_defaults() {
    let paper = cli::paper_flags(&[]).unwrap();
    assert_eq!((paper.scale, paper.seed, paper.only), (0.02, 1975, None));

    let sweep = cli::sweep_flags(&[]).unwrap();
    assert_eq!(
        sweep.grid.periods,
        vec![MeasurementPeriod::P1, MeasurementPeriod::P2]
    );
    assert_eq!(sweep.grid.scales, vec![0.01]);
    assert_eq!(sweep.grid.seeds, (1..=8).collect::<Vec<u64>>());
    assert_eq!(sweep.grid.scenarios, vec![ChurnScenario::Baseline]);
    assert_eq!(sweep.grid.vantages, vec![1]);
    assert_eq!(
        sweep.grid.base_seed,
        measurement::SweepGrid::new(vec![]).base_seed
    );
    assert_eq!(sweep.threads, None);
    assert_eq!(
        cli::sweep_flags(&args("--base-seed 9"))
            .unwrap()
            .grid
            .base_seed,
        9
    );

    let analyze = cli::analyze_flags(&args("--dir d")).unwrap();
    assert_eq!(analyze.out.as_deref(), Some("BENCH_archive.json"));
    assert_eq!(analyze.threads, cli::default_threads());

    let scale = cli::scale_flags(&[]).unwrap();
    assert_eq!(scale.config, ScaleConfig::default());
    assert_eq!(scale.full_protocol, None);
    assert_eq!(scale.out.as_deref(), Some("BENCH_scale.json"));
    // --full-protocol keeps its own 10M-peer default unless --peers is given.
    let full = cli::scale_flags(&args("--full-protocol --shards 4")).unwrap();
    let tp = full.full_protocol.unwrap();
    assert_eq!(tp.peers, TrueProtocolConfig::default().peers);
    assert_eq!(tp.shards, 4);
    let full = cli::scale_flags(&args("--full-protocol --peers 5000 --epoch-secs 30")).unwrap();
    let tp = full.full_protocol.unwrap();
    assert_eq!((tp.peers, tp.epoch), (5000, SimDuration::from_secs(30)));

    let StreamCommand::LongHorizon(cfg, out) = cli::stream_flags(&args("--long-horizon")).unwrap()
    else {
        panic!("--long-horizon runs the memory bench");
    };
    assert_eq!(cfg, StreamBenchConfig::default());
    assert_eq!(out.as_deref(), Some("BENCH_stream.json"));
}

#[test]
fn serve_defaults_to_p2_and_picks_its_mode() {
    for line in ["--reference", "--drive s"] {
        let (sim, window) = match cli::serve_flags(&args(line)).unwrap() {
            ServeCommand::Reference { sim, window } => (sim, window),
            ServeCommand::Drive {
                socket,
                sim,
                window,
                options,
            } => {
                assert_eq!(socket, "s");
                assert_eq!(options.batch_rows, 512);
                assert!(!options.resume && !options.shutdown && options.max_batches.is_none());
                (sim, window)
            }
            _ => panic!("{line}: wrong mode"),
        };
        assert_eq!(sim.period, MeasurementPeriod::P2);
        assert_eq!((sim.scale, sim.seed), (0.005, 1975));
        assert_eq!(sim.scenarios, vec![ChurnScenario::Baseline]);
        assert_eq!(window, SimDuration::from_hours(6));
    }
    match cli::serve_flags(&args("--checkpoint c --listen s --checkpoint-every 4")).unwrap() {
        ServeCommand::Listen {
            socket,
            checkpoint,
            checkpoint_every,
            restore,
        } => {
            assert_eq!((socket.as_str(), checkpoint.as_deref()), ("s", Some("c")));
            assert_eq!((checkpoint_every, restore), (Some(4), None));
        }
        _ => panic!("--listen runs the daemon"),
    }
    match cli::serve_flags(&args("--bench")).unwrap() {
        ServeCommand::Bench(cfg, out) => {
            assert_eq!(
                (cfg.tenants, cfg.events_per_tenant, cfg.batch_rows),
                (1000, 240, 48)
            );
            assert_eq!((cfg.queries, cfg.seed), (1000, 2022));
            assert_eq!(out.as_deref(), Some("BENCH_serve.json"));
        }
        _ => panic!("--bench runs the load harness"),
    }
    // --listen takes precedence over --drive, which then is unknown.
    rejected("serve --drive s --listen t");
    rejected("serve --reference --bench");
    // A mode flag given only as another flag's value does not count.
    rejected("serve --checkpoint --listen");
}

#[test]
fn every_subcommand_has_a_usage_text() {
    for command in std::iter::once("").chain(COMMANDS) {
        let text = cli::usage_text(command);
        assert!(text.starts_with("usage:"), "{command:?}");
        assert!(
            text.contains(&format!("repro {command}").trim_end().to_string()),
            "{command:?}"
        );
    }
}
