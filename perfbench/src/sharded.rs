//! `sharded`: one coherent population through the cross-shard mailbox
//! engine (`netsim::run_full_protocol`), as `repro scale --full-protocol`
//! runs it. No monitors, archive or analysis run.

use crate::common::{
    layer_table, median, peak_rss_mb, ratio, repeated_setup, reset_peak_rss, run_passes, timed,
    Checks, Outcome,
};
use crate::trace::Tracer;
use bench::scale::{true_protocol_observers, true_protocol_population, TrueProtocolConfig};
use netsim::{run_full_protocol, FullProtocolConfig, MailboxStats, RemotePeerSpec};

const PEERS: usize = 250_000;
const SHARDS: usize = 16;
const THREADS: usize = 2;

fn engine_run(
    cfg: &TrueProtocolConfig,
    threads: usize,
    population: Vec<RemotePeerSpec>,
) -> MailboxStats {
    let engine = FullProtocolConfig::new(cfg.seed, cfg.duration, true_protocol_observers(cfg))
        .with_epoch(cfg.epoch)
        .with_shards(cfg.shards)
        .with_threads(threads);
    run_full_protocol(&engine, population).stats
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let cfg = TrueProtocolConfig {
        peers: PEERS,
        shards: SHARDS,
        threads: THREADS,
        seed,
        ..TrueProtocolConfig::default()
    };
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let (population, setup_s) = repeated_setup(5, || true_protocol_population(&cfg));
    reset_peak_rss()?;

    let mut runs: Vec<MailboxStats> = Vec::new();
    let passes = run_passes(
        &mut tracer,
        trace,
        seconds,
        if trace { 1 } else { 2 },
        |t| {
            let copy = population.clone();
            let (stats, secs) =
                timed(|| t.span("netsim.mailbox", |_| engine_run(&cfg, THREADS, copy)));
            runs.push(stats);
            secs
        },
    );
    let first = runs[0];
    let expected_epochs = cfg.duration.as_millis() / cfg.epoch.as_millis();
    checks.check(first.observations > 0 && first.sim_events > 0, || {
        format!("engine recorded nothing: {first:?}")
    });
    checks.check(first.epochs == expected_epochs, || {
        format!("{} epochs, expected {expected_epochs}", first.epochs)
    });
    for (i, stats) in runs.iter().enumerate().skip(1) {
        checks.check(*stats == first, || {
            format!("pass {i} differs from pass 0: {stats:?}")
        });
    }

    let run_s_2t = passes.median_s();
    let e2e = vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN), "MB"),
        ("job_s", run_s_2t, "s"),
        ("events_per_s", first.sim_events as f64 / run_s_2t, "1/s"),
    ];

    let layers = if trace {
        let (one, run_s_1t) = timed(|| {
            tracer.span("netsim.mailbox", |_| {
                engine_run(&cfg, 1, population.clone())
            })
        });
        checks.check(
            one.checksum == first.checksum && one.observations == first.observations,
            || {
                format!(
                    "1-thread checksum {:016x} differs from 2-thread {:016x}",
                    one.checksum, first.checksum
                )
            },
        );
        let traced_2t = median(&passes.traced_s);
        let speedup = ratio(run_s_1t, traced_2t);
        let peak_bytes = peak_rss_mb(None).unwrap_or(f64::NAN) * 1024.0 * 1024.0;
        // Self time per traced pass counts the 1-thread run too.
        layer_table(
            &tracer,
            passes.traced_s.len() + 1,
            passes.overhead_share(),
            vec![
                ("population.build_s", setup_s),
                ("population.self_s", setup_s),
                ("netsim.mailbox.run_s_1t", run_s_1t),
                ("netsim.mailbox.run_s_2t", traced_2t),
                ("netsim.mailbox.speedup_2t", speedup),
                // Amdahl on 2 threads: speedup = 1 / (f + (1 - f) / 2).
                ("netsim.mailbox.serial_fraction", 2.0 / speedup - 1.0),
                ("netsim.mailbox.sim_events", first.sim_events as f64),
                (
                    "netsim.mailbox.cross_shard_ratio",
                    ratio(first.cross_shard_events as f64, first.mailbox_events as f64),
                ),
                ("netsim.mailbox.epochs", first.epochs as f64),
                ("netsim.mailbox.bytes_per_peer", peak_bytes / PEERS as f64),
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
            ("peers", PEERS as u64),
            ("shards", SHARDS as u64),
            ("epochs", first.epochs),
            ("sim_events", first.sim_events),
            ("mailbox_events", first.mailbox_events),
            ("cross_shard_events", first.cross_shard_events),
            ("observations", first.observations),
            ("output_digest", first.checksum & ((1u64 << 53) - 1)),
        ],
        info: vec![("passes".to_string(), runs.len() as f64, "count")],
        tracer,
    })
}
