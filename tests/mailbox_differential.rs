//! Differential pins of the cross-shard full-protocol engine
//! (`netsim::mailbox`): the sharded driver must be byte-identical to the
//! plain single-engine reference driver for every shard count and every
//! worker-thread count, on the paper's benign measurement-period grid.

use netsim::{run_full_protocol, run_reference, FullProtocolConfig, FullProtocolRun};
use population::{MeasurementPeriod, Scenario};

const GRID: [MeasurementPeriod; 5] = [
    MeasurementPeriod::P0,
    MeasurementPeriod::P1,
    MeasurementPeriod::P2,
    MeasurementPeriod::P3,
    MeasurementPeriod::P4,
];

/// Combined trace checksum of each benign period at the test scale/seed,
/// pinned so a behaviour change in the engine cannot hide behind the
/// reference driver changing in lock-step.
const PINNED_CHECKSUMS: [u64; 5] = [
    0xe0c2_fe9f_c711_310d,
    0x8952_e459_2381_25cb,
    0xa4b7_a96a_3743_c5c1,
    0x5633_40a1_9c39_b6c7,
    0xdea4_1238_1f40_0865,
];

fn engine_config(period: MeasurementPeriod, shards: usize, threads: usize) -> (FullProtocolConfig, Vec<netsim::RemotePeerSpec>) {
    let run = Scenario::new(period).with_scale(0.004).with_seed(17).build();
    assert!(
        run.events.is_empty(),
        "benign periods must not script population events"
    );
    let cfg = FullProtocolConfig::from_network(&run.config)
        .with_shards(shards)
        .with_threads(threads);
    (cfg, run.population.specs)
}

fn reference(period: MeasurementPeriod) -> FullProtocolRun {
    let (cfg, specs) = engine_config(period, 1, 1);
    run_reference(&cfg, specs)
}

fn sharded(period: MeasurementPeriod, shards: usize, threads: usize) -> FullProtocolRun {
    let (cfg, specs) = engine_config(period, shards, threads);
    run_full_protocol(&cfg, specs)
}

/// Byte-level comparison of two runs: per-observer tables (checksum + rows),
/// log identities, ground truth and the combined trace checksum.
fn assert_byte_identical(a: &FullProtocolRun, b: &FullProtocolRun, context: &str) {
    assert_eq!(a.stats.checksum, b.stats.checksum, "{context}: trace checksum");
    assert_eq!(
        a.stats.observations, b.stats.observations,
        "{context}: observation count"
    );
    assert_eq!(a.output.logs.len(), b.output.logs.len(), "{context}: log count");
    for (la, lb) in a.output.logs.iter().zip(&b.output.logs) {
        assert_eq!(la.observer, lb.observer, "{context}: observer order");
        assert_eq!(la.peer_id, lb.peer_id, "{context}: observer identity");
        assert_eq!(
            la.table().len(),
            lb.table().len(),
            "{context}: rows of {}",
            la.observer
        );
        assert_eq!(
            la.table().checksum(),
            lb.table().checksum(),
            "{context}: table bytes of {}",
            la.observer
        );
    }
    assert_eq!(
        a.output.ground_truth.peers, b.output.ground_truth.peers,
        "{context}: ground-truth population"
    );
    assert_eq!(
        a.output.ground_truth.events, b.output.ground_truth.events,
        "{context}: ground-truth events"
    );
}

#[test]
fn one_shard_run_is_byte_identical_to_single_engine_on_benign_grid() {
    for (i, period) in GRID.iter().enumerate() {
        let reference = reference(*period);
        assert!(
            reference.stats.observations > 0,
            "{period:?}: grid campaign produced no observations"
        );
        let one_shard = sharded(*period, 1, 1);
        assert_byte_identical(&reference, &one_shard, &format!("{period:?} shards=1"));
        assert_eq!(
            reference.stats.checksum, PINNED_CHECKSUMS[i],
            "{period:?}: pinned trace checksum changed — if intentional, repin"
        );
    }
}

#[test]
fn four_shard_run_is_thread_invariant() {
    let serial = sharded(MeasurementPeriod::P1, 4, 1);
    let threaded = sharded(MeasurementPeriod::P1, 4, 8);
    assert!(serial.stats.cross_shard_events > 0, "P1 shards=4: no cross-shard traffic");
    assert_byte_identical(&serial, &threaded, "P1 shards=4 threads 1 vs 8");
}

#[test]
fn trace_is_invariant_across_shard_counts() {
    let reference = reference(MeasurementPeriod::P1);
    for shards in [2usize, 4, 8] {
        let run = sharded(MeasurementPeriod::P1, shards, 2);
        assert_byte_identical(&reference, &run, &format!("P1 shards={shards}"));
    }
}

/// The configuration the repository benchmark runs: 16 shards on 2 worker
/// threads, so every thread builds eight destinations' barrier batches.
#[test]
fn sixteen_shards_on_two_threads_match_reference() {
    let reference = reference(MeasurementPeriod::P1);
    let run = sharded(MeasurementPeriod::P1, 16, 2);
    assert!(run.stats.cross_shard_events > 0, "P1 shards=16: no cross-shard traffic");
    assert_byte_identical(&reference, &run, "P1 shards=16 threads=2");
}
