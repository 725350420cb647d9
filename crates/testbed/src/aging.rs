//! Estimate-aging experiments (Figs. 16 and 17).
//!
//! "In order to validate the instantaneous value of the information we have
//! used an old channel estimation to either compare the difference with the
//! recent channel estimation or to decode a recent packet." — the sweep
//! varies the age of the estimate from 0 (original) to 20 s and reports MSE
//! and PER for the Preamble-Genie estimate and for VVD.
//!
//! Each `(technique, age)` pair is just another [`ChannelEstimator`]
//! ([`AgedPreamble`] buffering past preamble estimates, [`Vvd::aged`]
//! reading an older depth frame), streamed through the same generic core as
//! the Figs. 11–15 comparison; the VVD network is trained once per sweep
//! and shared across all ages through the [`VvdModelPool`].
//!
//! [`ChannelEstimator`]: vvd_estimation::ChannelEstimator

use crate::campaign::Campaign;
use crate::combinations::SetCombination;
use crate::evaluate::{EvalOptions, TechniqueMetrics};
use crate::stream::{
    stream_estimators, training_cirs, CombinationDatasets, LabeledEstimator, StreamOptions,
};
use vvd_core::VvdVariant;
use vvd_estimation::estimator::{AgedPreamble, BoxedEstimator, Inactive, Vvd, VvdModelPool};
use vvd_estimation::{ModelCache, Technique};

/// The ages swept in Figs. 16–17, in seconds (0 = "Original").
pub const PAPER_AGES_S: [f64; 8] = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0];

/// Result of the aging sweep for one technique.
#[derive(Debug, Clone)]
pub struct AgingCurve {
    /// Technique the curve belongs to (Preamble-Genie or VVD-Current).
    pub technique: Technique,
    /// Ages in seconds (first entry 0 = original).
    pub ages_s: Vec<f64>,
    /// MSE against the current perfect estimate, per age (Fig. 16; 0 for
    /// an age that produced no estimate).
    pub mse: Vec<f64>,
    /// Packet error rate when decoding with the aged estimate (Fig. 17).
    pub per: Vec<f64>,
}

/// Builds the aged estimator modelling `technique` at the given lags.
/// Techniques outside the paper's Figs. 16–17 pair are inert (every packet
/// skipped), matching the published sweeps.
fn aged_estimator(technique: Technique, lag_packets: usize, lag_frames: usize) -> BoxedEstimator {
    match technique {
        Technique::PreambleBasedGenie => Box::new(AgedPreamble::packets(lag_packets)),
        Technique::VvdCurrent => Box::new(Vvd::aged(VvdVariant::Current, lag_frames)),
        _ => Box::new(Inactive),
    }
}

/// Runs the aging sweep on one combination's test set.
///
/// For age `Δ`, packet `k` (at time `t`) is decoded with the estimate derived
/// from the packet/frame at time `t − Δ`; packets whose history does not
/// reach back far enough are skipped so every age uses the same packets.
pub fn aging_sweep(
    campaign: &Campaign,
    combination: &SetCombination,
    ages_s: &[f64],
    techniques: &[Technique],
) -> Vec<AgingCurve> {
    aging_sweep_with(
        campaign,
        combination,
        ages_s,
        techniques,
        &EvalOptions::default(),
    )
}

/// [`aging_sweep`] with explicit execution options.
pub fn aging_sweep_with(
    campaign: &Campaign,
    combination: &SetCombination,
    ages_s: &[f64],
    techniques: &[Technique],
    options: &EvalOptions,
) -> Vec<AgingCurve> {
    aging_sweep_cached(campaign, combination, ages_s, techniques, options, None)
}

/// [`aging_sweep_with`] resolving VVD trainings through a shared
/// [`ModelCache`] — every age of the sweep (and any other consumer of the
/// cache) reuses the one training of each provenance.
pub fn aging_sweep_cached(
    campaign: &Campaign,
    combination: &SetCombination,
    ages_s: &[f64],
    techniques: &[Technique],
    options: &EvalOptions,
    cache: Option<&ModelCache>,
) -> Vec<AgingCurve> {
    let cfg = &campaign.config;
    let packet_period = cfg.packet_period_s();
    let frame_period = cfg.frame_period_s();

    let max_age = ages_s.iter().cloned().fold(0.0f64, f64::max);
    let max_lag_packets = (max_age / packet_period).round() as usize;
    let score_from = max_lag_packets.max(cfg.kalman_warmup_packets);

    // One dataset source + model pool for the whole sweep: the VVD network
    // is trained on the first age that needs it; every later age's fit is
    // a model-cache hit on the same training provenance.
    let cirs = training_cirs(campaign, combination);
    let source = CombinationDatasets::new(campaign, combination);
    let pool = match cache {
        Some(cache) => VvdModelPool::with_cache(&cfg.vvd, &source, cache),
        None => VvdModelPool::new(&cfg.vvd, &source),
    };

    let mut curves: Vec<AgingCurve> = techniques
        .iter()
        .map(|&t| AgingCurve {
            technique: t,
            ages_s: ages_s.to_vec(),
            mse: Vec::with_capacity(ages_s.len()),
            per: Vec::with_capacity(ages_s.len()),
        })
        .collect();

    for &age in ages_s {
        let lag_packets = (age / packet_period).round() as usize;
        let lag_frames = (age / frame_period).round() as usize;
        let estimators = techniques
            .iter()
            .map(|&t| LabeledEstimator::new(t.label(), aged_estimator(t, lag_packets, lag_frames)))
            .collect();
        let traces = stream_estimators(
            campaign,
            combination,
            estimators,
            &cirs,
            &pool,
            &StreamOptions {
                score_from,
                parallel: options.parallel,
            },
        );
        for (curve, trace) in curves.iter_mut().zip(&traces) {
            let metrics = TechniqueMetrics::from_trace(trace);
            curve.mse.push(metrics.mse.unwrap_or(0.0));
            curve.per.push(metrics.per);
        }
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinations::combinations_for;
    use crate::config::EvalConfig;

    #[test]
    fn preamble_genie_mse_grows_with_age() {
        let mut cfg = EvalConfig::smoke();
        cfg.packets_per_set = 60;
        cfg.kalman_warmup_packets = 2;
        let campaign = Campaign::generate(&cfg);
        let combos = combinations_for(cfg.n_sets, 1);
        let curves = aging_sweep(
            &campaign,
            &combos[0],
            &[0.0, 0.5, 2.0],
            &[Technique::PreambleBasedGenie],
        );
        assert_eq!(curves.len(), 1);
        let c = &curves[0];
        assert_eq!(c.mse.len(), 3);
        // A 2-second-old estimate must be worse (in MSE) than the fresh one.
        assert!(
            c.mse[2] > c.mse[0],
            "aged MSE {} should exceed fresh MSE {}",
            c.mse[2],
            c.mse[0]
        );
        // PER values are valid rates.
        assert!(c.per.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn paper_age_grid_matches_figure_16() {
        assert_eq!(PAPER_AGES_S.len(), 8);
        assert_eq!(PAPER_AGES_S[0], 0.0);
        assert_eq!(PAPER_AGES_S[7], 20.0);
    }
}
