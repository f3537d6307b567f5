//! Campaign-level trace archives: write a simulated campaign to disk once,
//! re-analyse it forever.
//!
//! This is the measurement half of the archive subsystem. `netsim::archive`
//! owns the binary container (blocks, dictionary pages, checksums, footer
//! index); this module gives the container campaign semantics:
//!
//! * [`write_campaign_archive`] serialises a finished [`SimulationOutput`]
//!   plus the scenario metadata that `analysis::robustness` needs — period,
//!   churn regime, scale, seed, vantage count, ground-truth participants and
//!   run duration — into one archive file per campaign cell.
//! * [`read_campaign_archive`] reverses it: the registry, the per-observer
//!   columns, the ground truth and the DHT history come back value-identical,
//!   and [`ArchivedCampaign::into_campaign`] feeds them through the *same*
//!   [`campaign_from_output`] ingestion path the direct simulation uses. The
//!   resulting reports are byte-identical to the simulate-and-analyse path —
//!   `tests/archive_differential.rs` pins this — with zero re-simulation:
//!   re-analysis pays for monitor ingestion and crawler replay only.
//! * [`export_suite`] and [`analyze_suite`] are the `repro export` /
//!   `repro analyze` entry points: one archive per churn regime of a
//!   scenario suite, cells processed in parallel, deterministic order at any
//!   thread count.

use crate::parallel::run_parallel_ordered;
use crate::runner::{campaign_from_output, MeasurementCampaign};
use netsim::archive::{ArchiveError, ByteReader, ByteWriter};
use netsim::SimulationOutput;
use population::{ChurnScenario, MeasurementPeriod, Scenario};
use simclock::SimDuration;

/// The scenario metadata stored in an archive's metadata block — everything
/// [`campaign_from_output`] and `analysis::robustness` read besides the
/// simulation output itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignMeta {
    /// The scenario the archived output was simulated from.
    pub scenario: Scenario,
    /// Ground-truth participant count of the run.
    pub ground_truth_participants: usize,
    /// Duration of the measurement period.
    pub duration: SimDuration,
}

impl CampaignMeta {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(self.scenario.period.label());
        w.put_str(self.scenario.churn.label());
        w.put_u64(self.scenario.seed);
        w.put_f64(self.scenario.scale);
        w.put_uvarint(self.scenario.vantages as u64);
        w.put_uvarint(self.ground_truth_participants as u64);
        w.put_uvarint(self.duration.as_millis());
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, ArchiveError> {
        let mut r = ByteReader::new(bytes);
        let period_label = r.str("period label")?;
        let period = MeasurementPeriod::from_label(period_label).ok_or_else(|| {
            ArchiveError::Malformed {
                context: format!("unknown measurement period {period_label:?}"),
            }
        })?;
        let churn_label = r.str("churn label")?;
        let churn = ChurnScenario::from_label(churn_label).ok_or_else(|| {
            ArchiveError::Malformed {
                context: format!("unknown churn scenario {churn_label:?}"),
            }
        })?;
        let seed = r.u64("scenario seed")?;
        let scale = r.f64("scenario scale")?;
        let vantages = r.uvarint("vantage count")? as usize;
        let ground_truth_participants = r.uvarint("participant count")? as usize;
        let duration = SimDuration::from_millis(r.uvarint("duration")?);
        r.finish("campaign metadata")?;
        Ok(CampaignMeta {
            scenario: Scenario::new(period)
                .with_seed(seed)
                .with_scale(scale)
                .with_churn(churn)
                .with_vantage_points(vantages),
            ground_truth_participants,
            duration,
        })
    }
}

/// A campaign read back from an archive: the metadata plus the reconstructed
/// simulation output, before ingestion.
#[derive(Debug)]
pub struct ArchivedCampaign {
    /// The scenario metadata of the archived run.
    pub meta: CampaignMeta,
    /// The reconstructed simulation output.
    pub output: SimulationOutput,
}

impl ArchivedCampaign {
    /// Runs the archived output through the standard campaign-ingestion path
    /// (monitors + crawler replay) — the zero-re-simulation analyse step.
    pub fn into_campaign(self) -> MeasurementCampaign {
        campaign_from_output(
            self.meta.scenario,
            self.meta.ground_truth_participants,
            self.meta.duration,
            self.output,
        )
    }
}

/// Serialises one campaign cell (scenario metadata + simulation output) into
/// archive file bytes.
pub fn write_campaign_archive(
    meta: &CampaignMeta,
    output: &SimulationOutput,
) -> Result<Vec<u8>, ArchiveError> {
    netsim::archive::encode_output(output, &meta.encode())
}

/// Parses archive file bytes back into metadata and simulation output,
/// verifying every block checksum.
pub fn read_campaign_archive(bytes: &[u8]) -> Result<ArchivedCampaign, ArchiveError> {
    let (meta_bytes, output) = netsim::archive::decode_output(bytes)?;
    let meta = CampaignMeta::decode(&meta_bytes)?;
    Ok(ArchivedCampaign { meta, output })
}

/// One exported campaign cell: the archive bytes plus the direct-path
/// campaign produced from the same simulation output.
#[derive(Debug)]
pub struct ExportedCell {
    /// The churn regime of this cell.
    pub churn: ChurnScenario,
    /// The serialised archive.
    pub archive: Vec<u8>,
    /// Total observation events across the cell's observer logs.
    pub events: usize,
    /// Wall-clock seconds the simulation itself took — what re-analysis
    /// avoids paying again, and the numerator of the decode-speedup claim.
    pub sim_secs: f64,
    /// Wall-clock seconds spent serialising this cell's archive (excluding
    /// simulation and ingestion) — the write-throughput numerator.
    pub encode_secs: f64,
    /// The campaign from the direct (simulate + ingest) path — the
    /// byte-identity reference, produced without a second simulation.
    pub campaign: MeasurementCampaign,
}

/// Runs a scenario suite (one cell per churn regime, same period/scale/seed)
/// and archives every cell.
///
/// Each cell is simulated once; the output is serialised *and* fed through
/// the normal ingestion path, so the caller gets the archives and the
/// direct-path campaigns from a single simulation per cell. Cells run in
/// parallel; the returned vector is in `scenarios` order for any `threads`.
pub fn export_suite(
    period: MeasurementPeriod,
    scale: f64,
    seed: u64,
    scenarios: &[ChurnScenario],
    threads: usize,
) -> Vec<ExportedCell> {
    run_parallel_ordered(scenarios, threads, move |_, churn| {
        let scenario = Scenario::new(period)
            .with_scale(scale)
            .with_seed(seed)
            .with_churn(churn.clone());
        let run = scenario.build();
        let scenario = run.scenario;
        let meta = CampaignMeta {
            scenario: scenario.clone(),
            ground_truth_participants: run.ground_truth_participants,
            duration: run.config.duration,
        };
        let sim_started = std::time::Instant::now();
        let output = netsim::Network::new(run.config, run.population.specs)
            .with_population_events(run.events)
            .run();
        let sim_secs = sim_started.elapsed().as_secs_f64();
        let encode_started = std::time::Instant::now();
        let archive = write_campaign_archive(&meta, &output)
            .expect("engine outputs always share one registry");
        let encode_secs = encode_started.elapsed().as_secs_f64();
        let events = output.logs.iter().map(|log| log.table().len()).sum();
        let campaign = campaign_from_output(
            meta.scenario.clone(),
            meta.ground_truth_participants,
            meta.duration,
            output,
        );
        ExportedCell {
            churn: churn.clone(),
            archive,
            events,
            sim_secs,
            encode_secs,
            campaign,
        }
    })
}

/// One re-analysed cell: the campaign plus the size/time accounting the
/// archive bench reports.
#[derive(Debug)]
pub struct AnalyzedCell {
    /// The campaign reconstructed from the archive with zero re-simulation.
    pub campaign: MeasurementCampaign,
    /// Total observation events across the cell's observer logs.
    pub events: usize,
    /// Size of the archive file in bytes.
    pub archive_bytes: usize,
    /// Approximate resident bytes of the reconstructed columnar store
    /// (tables + registry) — the in-memory side of the bytes-per-event
    /// comparison.
    pub resident_bytes: usize,
    /// Wall-clock seconds spent decoding (checksums + column
    /// reconstruction), excluding ingestion.
    pub decode_secs: f64,
}

/// Decodes and ingests a suite of archives in one parallel pass, recording
/// per-cell decode time and size accounting — the `repro analyze` path.
/// Campaigns come back in input order for any `threads`.
pub fn analyze_suite(
    archives: &[Vec<u8>],
    threads: usize,
) -> Result<Vec<AnalyzedCell>, ArchiveError> {
    run_parallel_ordered(archives, threads, |_, bytes| {
        let decode_started = std::time::Instant::now();
        let cell = read_campaign_archive(bytes)?;
        let decode_secs = decode_started.elapsed().as_secs_f64();
        let events = cell.output.logs.iter().map(|log| log.table().len()).sum();
        let resident_bytes = cell
            .output
            .logs
            .iter()
            .map(|log| log.table().approx_bytes())
            .sum::<usize>()
            + cell
                .output
                .logs
                .first()
                .map_or(0, |log| log.registry().approx_bytes());
        Ok(AnalyzedCell {
            campaign: cell.into_campaign(),
            events,
            archive_bytes: bytes.len(),
            resident_bytes,
            decode_secs,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_meta() -> CampaignMeta {
        CampaignMeta {
            scenario: Scenario::new(MeasurementPeriod::P1)
                .with_scale(0.004)
                .with_seed(11)
                .with_churn(ChurnScenario::diurnal()),
            ground_truth_participants: 123,
            duration: SimDuration::from_days(1),
        }
    }

    #[test]
    fn campaign_meta_roundtrips() {
        let meta = tiny_meta();
        let decoded = CampaignMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn meta_rejects_unknown_labels() {
        let mut w = ByteWriter::new();
        w.put_str("P99");
        w.put_str("baseline");
        w.put_u64(0);
        w.put_f64(1.0);
        w.put_uvarint(1);
        w.put_uvarint(0);
        w.put_uvarint(0);
        assert!(matches!(
            CampaignMeta::decode(&w.into_bytes()),
            Err(ArchiveError::Malformed { .. })
        ));
    }

    #[test]
    fn archived_cell_reproduces_the_direct_campaign() {
        let cells = export_suite(
            MeasurementPeriod::P4,
            0.004,
            7,
            &[ChurnScenario::Baseline],
            1,
        );
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert!(cell.events > 0);
        let archived = read_campaign_archive(&cell.archive).unwrap();
        assert_eq!(archived.meta.scenario, cell.campaign.scenario);
        let replayed = archived.into_campaign();
        assert_eq!(replayed.ground_truth_participants, cell.campaign.ground_truth_participants);
        assert_eq!(replayed.go_ipfs, cell.campaign.go_ipfs);
        assert_eq!(replayed.hydra_heads, cell.campaign.hydra_heads);
        assert_eq!(replayed.hydra_union, cell.campaign.hydra_union);
        assert_eq!(replayed.crawls, cell.campaign.crawls);
        assert_eq!(replayed.ground_truth, cell.campaign.ground_truth);
    }
}
