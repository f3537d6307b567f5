//! Differential tests for the columnar trace-archive subsystem.
//!
//! The acceptance bar of the archive format: for **every** measurement
//! period P0–P4, exporting a campaign to an archive and re-analysing it from
//! the file bytes alone must reproduce the robustness report of the direct
//! simulate-and-analyse path **byte-identically** — same bits in every
//! float of the JSON rendering — with zero re-simulation. Both paths ingest
//! the same simulation through `campaign_from_output`, so any divergence is
//! a serialisation bug, not a seed artefact.
//!
//! Also pinned here: archives are byte-identical at any thread count (so CI
//! can `cmp` the files themselves), re-analysis is thread-count independent,
//! a single flipped bit anywhere in a block payload fails loudly with a
//! checksum mismatch, truncations at any point fail cleanly instead of
//! panicking, and unknown format versions are rejected up front.

use ipfs_passive_measurement::prelude::*;
use measurement::{analyze_suite, export_suite, read_campaign_archive, ExportedCell};
use netsim::ArchiveError;
use std::sync::OnceLock;

mod common;
use common::{SCALE, SEED};

fn periods() -> [MeasurementPeriod; 5] {
    [
        MeasurementPeriod::P0,
        MeasurementPeriod::P1,
        MeasurementPeriod::P2,
        MeasurementPeriod::P3,
        MeasurementPeriod::P4,
    ]
}

/// One small exported cell, shared by the corruption tests so they pay for
/// one simulation, not one each.
fn sample_cell() -> &'static ExportedCell {
    static CELL: OnceLock<ExportedCell> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cells = export_suite(
            MeasurementPeriod::P4,
            0.004,
            SEED,
            &[ChurnScenario::Baseline],
            1,
        );
        cells.remove(0)
    })
}

/// Re-analyses archives through `analyze_suite`, the path `repro analyze`
/// runs, keeping only the reconstructed campaigns.
fn reanalyze(archives: &[Vec<u8>], threads: usize) -> Vec<MeasurementCampaign> {
    analyze_suite(archives, threads)
        .map(|cells| cells.into_iter().map(|cell| cell.campaign).collect())
        .expect("archives must decode")
}

#[test]
fn export_then_analyze_reproduces_the_direct_report_byte_for_byte() {
    let scenarios = [ChurnScenario::Baseline, ChurnScenario::diurnal()];
    for period in periods() {
        let cells = export_suite(period, SCALE, SEED, &scenarios, 2);
        let mut direct = Vec::new();
        let mut archives = Vec::new();
        for cell in cells {
            assert!(cell.events > 0, "{period}: empty campaign");
            direct.push(cell.campaign);
            archives.push(cell.archive);
        }
        let direct_report = robustness_report(&direct);

        let replayed = reanalyze(&archives, 2);
        let replayed_report = robustness_report(&replayed);
        assert_eq!(
            replayed_report.to_json_string(),
            direct_report.to_json_string(),
            "{period}: the re-analysed report must be byte-identical to the direct one"
        );
    }
}

#[test]
fn archives_and_reanalysis_are_thread_count_independent() {
    let scenarios = [ChurnScenario::Baseline, ChurnScenario::flash_crowd()];
    let one = export_suite(MeasurementPeriod::P1, SCALE, SEED, &scenarios, 1);
    let eight = export_suite(MeasurementPeriod::P1, SCALE, SEED, &scenarios, 8);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(
            a.archive, b.archive,
            "archive bytes must not depend on the export thread count"
        );
    }

    let archives: Vec<Vec<u8>> = one.into_iter().map(|cell| cell.archive).collect();
    let serial = reanalyze(&archives, 1);
    let parallel = reanalyze(&archives, 8);
    assert_eq!(
        robustness_report(&serial).to_json_string(),
        robustness_report(&parallel).to_json_string(),
        "re-analysis must be byte-identical at 1 and 8 threads"
    );
}

#[test]
fn analyze_suite_accounts_the_cells_it_decodes() {
    let cell = sample_cell();
    let archives = vec![cell.archive.clone()];
    let analyzed = analyze_suite(&archives, 1).expect("archive must decode");
    assert_eq!(analyzed.len(), 1);
    assert_eq!(analyzed[0].events, cell.events);
    assert_eq!(analyzed[0].archive_bytes, cell.archive.len());
    assert!(analyzed[0].resident_bytes > 0);
    assert_eq!(
        format!("{:?}", analyzed[0].campaign.crawls),
        format!("{:?}", cell.campaign.crawls),
        "the crawler replay must reproduce the direct crawl summaries"
    );
}

#[test]
fn a_flipped_bit_in_a_block_payload_fails_the_checksum() {
    let archive = &sample_cell().archive;
    // Byte 12 is the first payload byte after the 8-byte magic + u32 version
    // header: corrupting it must surface as a checksum mismatch, naming the
    // damaged block.
    let mut corrupt = archive.clone();
    corrupt[12] ^= 0x01;
    match read_campaign_archive(&corrupt) {
        Err(ArchiveError::ChecksumMismatch { .. }) => {}
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
}

#[test]
fn flipped_bits_anywhere_never_decode_silently() {
    let archive = &sample_cell().archive;
    // Sample offsets across the whole file — block payloads, the footer
    // index and the tail. Every single-bit corruption must either fail or
    // (never) produce the original value; silent acceptance of damaged
    // bytes is the one outcome the format must rule out.
    let step = (archive.len() / 64).max(1);
    for offset in (12..archive.len()).step_by(step) {
        let mut corrupt = archive.clone();
        corrupt[offset] ^= 0x10;
        assert!(
            read_campaign_archive(&corrupt).is_err(),
            "flipping byte {offset} of {} decoded without an error",
            archive.len()
        );
    }
}

#[test]
fn truncations_fail_cleanly_at_every_cut() {
    let archive = &sample_cell().archive;
    // Headers, mid-payload, inside the footer index and inside the tail:
    // every prefix must produce an error, never a panic or a partial result.
    let mut cuts = vec![0, 1, 7, 8, 11, 12, archive.len() / 2];
    for back in 1..=32 {
        cuts.push(archive.len() - back);
    }
    for cut in cuts {
        assert!(
            read_campaign_archive(&archive[..cut]).is_err(),
            "decoding a {cut}-byte prefix of {} bytes did not fail",
            archive.len()
        );
    }
}

#[test]
fn unknown_format_versions_are_rejected() {
    let archive = &sample_cell().archive;
    let mut future = archive.clone();
    // The format version is the little-endian u32 right after the magic.
    future[8..12].copy_from_slice(&0xEEu32.to_le_bytes());
    match read_campaign_archive(&future) {
        Err(ArchiveError::UnsupportedVersion { found: 0xEE }) => {}
        other => panic!("expected an unsupported-version error, got {other:?}"),
    }
}
