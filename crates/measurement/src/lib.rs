//! Passive measurement clients and data sets.
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! instrumented measurement clients and the data sets they export.
//!
//! * [`GoIpfsMonitor`] mirrors the instrumented go-ipfs client of §III-A: a
//!   single-identity node that dumps its Peerstore and connection table every
//!   30 s, so connection durations are quantised to the 30 s refresh.
//! * [`HydraMonitor`] mirrors the instrumented hydra-booster of §III-B:
//!   multiple heads with independent PIDs share one record store, peer data
//!   is refreshed every minute and connection events are logged individually.
//! * [`ActiveCrawler`] is the WB-crawler baseline of Fig. 2: a DHT crawler
//!   that takes a fresh snapshot of the online DHT-Servers every eight hours.
//! * [`MeasurementDataset`] is the JSON-exportable record format (peers,
//!   metadata changes, connections, periodic snapshots) that all analyses in
//!   the `analysis` crate consume.
//! * [`MeasurementCampaign`] / [`run_period`] tie everything together: build
//!   a scenario, run the simulation, feed every monitor and return the
//!   complete data for one measurement period.
//! * [`sweep`] scales that to whole grids of campaigns: periods × scales ×
//!   seeds × observer configurations × vantage counts run in parallel with
//!   deterministic per-cell seed derivation, aggregated into cross-seed
//!   statistics.
//! * [`vantage`] deploys several primary-client vantage points in one
//!   campaign and produces per-vantage data sets plus their deduplicating
//!   union — the input of the capture–recapture network-size estimators in
//!   the `analysis` crate.
//! * [`replicate`] reruns one vantage suite under R deterministically
//!   derived seeds — the independent realisations the estimator
//!   calibration lab (`analysis::calibration`) measures coverage over.
//! * [`serve`] wraps the streaming engine in a long-lived multi-tenant
//!   daemon (`repro serve`): one [`StreamingMonitor`] per named feed,
//!   ingesting columnar event batches over a length-prefixed frame
//!   protocol, answering live queries and checkpointing/restoring the
//!   whole tenant table for crash recovery.
//! * [`stream`] is the single-pass alternative to materialised data sets: a
//!   [`StreamingMonitor`] consumes the engine's emissions live (teed next to
//!   the classic pipeline) and maintains sliding/tumbling-window state in
//!   `O(window + peers)` memory; its cumulative summary reproduces the batch
//!   estimators byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod crawler;
pub mod dataset;
pub mod monitor;
pub(crate) mod parallel;
pub mod record;
pub mod replicate;
pub mod runner;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod vantage;

pub use archive::{
    analyze_suite, export_suite, read_campaign_archive, write_campaign_archive,
    AnalyzedCell, ArchivedCampaign, CampaignMeta, ExportedCell,
};
pub use crawler::{ActiveCrawler, CrawlSnapshot, CrawlSummary};
pub use dataset::MeasurementDataset;
pub use monitor::{GoIpfsMonitor, HydraMonitor};
pub use record::{ConnectionRecord, MetadataChangeRecord, PeerRecord, SnapshotRecord};
pub use replicate::{replicate_seed, run_replicated_vantage_suite, ReplicateSuite};
pub use runner::{
    campaign_from_output, run_built, run_built_full_protocol, run_period,
    run_period_full_protocol, run_scenario, run_scenario_suite, MeasurementCampaign,
};
pub use serve::{
    config_from_json, config_to_json, debug_answerer, read_frame, serve_connection, serve_unix,
    write_frame, Frame, QueryAnswerer, ServeOptions, ServeState, FRAME_CONTROL, FRAME_EVENTS,
    FRAME_REGISTRY, MAX_FRAME_LEN,
};
pub use stream::{
    batch_resident_bytes, run_stream_suite, run_streaming_built, run_streaming_campaign,
    sliding_windows, DirectionAgg, DurationMode, PaneSummary, PeerStreamAgg, StreamConfig,
    StreamSummary, StreamingCampaign, StreamingMonitor, WindowEvent, WindowSnapshot, WindowState,
};
pub use sweep::{run_sweep, ObserverTweak, SweepGrid, SweepReport, SweepRunner};
pub use vantage::{
    run_vantage_built, run_vantage_campaign, run_vantage_suite, single_vantage_view,
    VantageCampaign,
};
