//! Plugging a custom channel estimator into the evaluation pipeline.
//!
//! Implements an exponentially-weighted moving average (EWMA) over the
//! perfect estimates of past packets — a one-line smoother the paper never
//! evaluated — registers it under the spec head `ewma:<alpha>`, and runs it
//! through the exact same streaming harness as the paper's techniques,
//! standalone and inside a `fallback:` chain.  No harness edits required.
//!
//! Run with:
//! ```sh
//! cargo run --release --example custom_estimator
//! ```

use vvd::dsp::FirFilter;
use vvd::estimation::estimator::{ChannelEstimator, Estimate, EstimateRequest, PacketObservation};
use vvd::estimation::registry::SpecError;
use vvd::estimation::{spec_label, EstimatorRegistry};
use vvd::testbed::{
    combinations_for, evaluate_estimators, Campaign, EvalConfig, EvalOptions, LabeledEstimator,
};

/// EWMA over the (phase-aligned) perfect estimates of past packets:
/// `s[k] = α · h[k] + (1 − α) · s[k−1]`, used blindly for packet `k + 1`.
struct Ewma {
    alpha: f64,
    state: Option<FirFilter>,
}

impl Ewma {
    fn new(alpha: f64) -> Self {
        Ewma { alpha, state: None }
    }
}

impl ChannelEstimator for Ewma {
    fn observe(&mut self, obs: &PacketObservation<'_>) {
        let next = match &self.state {
            // The paper's Eq.-8 alignment re-attaches the per-packet phase
            // at decode time, so the smoother tracks the aligned history.
            Some(prev) => FirFilter::new(
                prev.taps()
                    .scale(1.0 - self.alpha)
                    .add(&obs.aligned_cir.taps().scale(self.alpha)),
            ),
            None => obs.aligned_cir.clone(),
        };
        self.state = Some(next);
    }

    fn estimate(&mut self, _req: &EstimateRequest<'_>) -> Estimate {
        match &self.state {
            // Blind estimate from past packets only: ask for alignment.
            Some(state) => Estimate::aligned(state.clone()),
            None => Estimate::Skip,
        }
    }
}

fn main() {
    // Register the new estimator family; `ewma:<alpha>` now composes with
    // every built-in spec, including fallback chains.
    let mut registry = EstimatorRegistry::new();
    registry.register("ewma", |_, args| {
        let alpha: f64 = args
            .parse()
            .map_err(|_| SpecError::new(&format!("ewma:{args}"), "expected `ewma:<alpha>`"))?;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(SpecError::new(
                &format!("ewma:{args}"),
                "alpha must be in [0, 1]",
            ));
        }
        Ok(Box::new(Ewma::new(alpha)))
    });

    let mut config = EvalConfig::quick();
    config.n_sets = 3;
    config.packets_per_set = 60;
    config.n_combinations = 1;
    config.kalman_warmup_packets = 10;

    println!("Generating the measurement campaign...");
    let campaign = Campaign::generate(&config);
    let combination = &combinations_for(config.n_sets, 1)[0];

    let specs = [
        "ground-truth",
        "previous:100ms",
        "ewma:0.3",
        "ewma:0.7",
        "fallback:preamble,ewma:0.5",
    ];
    println!("Evaluating {} estimators: {specs:?}\n", specs.len());
    let estimators = specs
        .iter()
        .map(|&spec| {
            LabeledEstimator::new(spec_label(spec), registry.build(spec).expect("valid spec"))
        })
        .collect();
    let result = evaluate_estimators(&campaign, combination, estimators, &EvalOptions::default());

    println!(
        "{:<28} {:>8} {:>8} {:>12} {:>8}",
        "estimator", "PER", "CER", "MSE", "packets"
    );
    for (label, m) in &result.metrics {
        println!(
            "{:<28} {:>8.4} {:>8.4} {:>12} {:>8}",
            label,
            m.per,
            m.cer,
            m.mse.map_or("-".to_string(), |v| format!("{v:.3e}")),
            m.packets
        );
    }
}
