//! Shared fixtures for the benchmark / reproduction harness.
//!
//! Every Criterion bench regenerates one table or figure of the paper; the
//! expensive part — running the measurement campaign — is shared through
//! [`bench_campaign`], which memoises one small-scale campaign per
//! measurement period for the lifetime of the bench process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod estimators;
pub mod scale;
pub mod serve;
pub mod stream;

use measurement::{run_period, MeasurementCampaign};
use population::MeasurementPeriod;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The population scale used by the benches (kept small so `cargo bench`
/// finishes in minutes; the `repro` binary accepts larger scales).
pub const BENCH_SCALE: f64 = 0.01;

/// The seed used by the benches.
pub const BENCH_SEED: u64 = 0xbe_c4;

/// Returns (and memoises) the benchmark campaign for a measurement period.
pub fn bench_campaign(period: MeasurementPeriod) -> MeasurementCampaign {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, MeasurementCampaign>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("bench cache lock");
    cache
        .entry(period.label())
        .or_insert_with(|| run_period(period, BENCH_SCALE, BENCH_SEED))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_memoised_per_period() {
        let a = bench_campaign(MeasurementPeriod::P3);
        let b = bench_campaign(MeasurementPeriod::P3);
        assert_eq!(a.primary().pid_count(), b.primary().pid_count());
    }
}
