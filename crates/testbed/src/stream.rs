//! The generic streaming evaluation core.
//!
//! One function, [`stream_estimators`], replays a combination's test set
//! packet by packet over a set of boxed
//! [`ChannelEstimator`]s: fit on the training sets, then, per packet,
//! [`step_packet`] — *estimate → decode → score → observe*.  Both the
//! Figs. 11–15 technique comparison (`crate::evaluate`) and the Figs. 16–17
//! aging sweeps (`crate::aging`) are thin layers over this core, so a new
//! estimator — registered by spec string, any AR order, any fallback
//! chain — runs through every experiment without harness edits.
//!
//! The streaming phase is one packet loop: each packet's products are
//! synthesized once and shared by every estimator.  Estimators are
//! independent by construction (no shared state after fitting), so each
//! packet's steps optionally fan out over [`vvd_dsp::fan_out`] workers; the
//! per-estimator arithmetic is identical either way, which makes the
//! parallel results bit-identical to the sequential ones.
//!
//! The per-session serving pipeline in `vvd-serve` decodes every packet
//! through the same [`step_packet`], over products of the same
//! [`PacketProducts::synthesize`], so its [`EstimatorTrace`]s equal
//! [`stream_estimators`]' ones by construction; it reuses
//! [`CombinationDatasets`] and [`training_cirs`] to fit its sessions.
//!
//! On top of the per-combination core, [`run_scenario_sweep`] fans the
//! same machinery out over a (scenario × estimator) grid: each scenario
//! spec generates its own campaign (batched CIR/waveform synthesis on
//! worker threads, see `crate::campaign`), every estimator spec streams
//! through every combination of it, and the scenarios themselves are
//! spread over workers with the remaining cores divided among them as
//! synthesis threads — so one call evaluates, say, 4 scenarios × 14
//! techniques × all combinations without leaving cores idle.  One
//! content-addressed model cache is shared across the whole grid, so grid
//! cells whose VVD trainings have identical provenance train once and hit
//! the cache afterwards ([`run_scenario_sweep_report`] returns the
//! hit/miss accounting alongside the outcomes).

use crate::campaign::{Campaign, MeasurementSet, PacketRecord};
use crate::combinations::{combinations_for, SetCombination};
use crate::evaluate::{
    evaluate_specs_with_cache, CombinationResult, EvalOptions, EvaluationSummary,
};
use std::fmt;
use vvd_channel::scenario::{ScenarioRegistry, SpecParseError};
use vvd_core::VvdVariant;
use vvd_dsp::{fan_out, par_map, CVec, FirFilter};
use vvd_estimation::decode::decode_with_reference;
use vvd_estimation::estimator::{
    BoxedEstimator, ChannelEstimator, Estimate, EstimateRequest, FrameSource, PacketObservation,
    TrainingContext, VvdDatasetSource, VvdModelPool,
};
use vvd_estimation::ls::preamble_estimate;
use vvd_estimation::phase::align_mean_phase;
use vvd_estimation::EqualizerConfig;
use vvd_estimation::{ModelCache, ModelCacheStats};
use vvd_phy::{DecodeOutcome, ModulatedFrame, Receiver};
use vvd_vision::DepthImage;

/// An estimator plus the label its results are reported under.
pub struct LabeledEstimator {
    /// Metric key (a paper label for canonical techniques, the spec string
    /// otherwise).
    pub label: String,
    /// The estimator instance (single-use; see the trait's state lifecycle).
    pub estimator: BoxedEstimator,
}

impl LabeledEstimator {
    /// Pairs an estimator with a label.
    pub fn new(label: impl Into<String>, estimator: BoxedEstimator) -> Self {
        LabeledEstimator {
            label: label.into(),
            estimator,
        }
    }
}

/// Options of one streaming run.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Index of the first test packet that is scored; earlier packets are
    /// only streamed through [`ChannelEstimator::observe`] (estimator
    /// warm-up, cf. the paper's 200-packet Kalman warm-up).
    pub score_from: usize,
    /// Stream estimators on worker threads (capped at the available
    /// parallelism).  Results are bit-identical to the sequential path.
    pub parallel: bool,
}

/// Per-estimator result of a streaming run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EstimatorTrace {
    /// The estimator's label.
    pub label: String,
    /// Decode outcomes of the scored packets for which the estimator
    /// produced a decodable result (everything except [`Estimate::Skip`]).
    pub scored: Vec<DecodeOutcome>,
    /// The (phase-aligned) estimates actually used on scored packets, for
    /// the Eq.-9 MSE.
    pub estimates: Vec<FirFilter>,
    /// The matching perfect estimates.
    pub truths: Vec<FirFilter>,
    /// One outcome per scored packet *including* skips (recorded as
    /// zero-sized losses), aligned across estimators — the Fig.-15 time
    /// series is assembled from these.
    pub per_packet: Vec<DecodeOutcome>,
}

impl EstimatorTrace {
    /// An empty trace reported under `label`.
    pub fn new(label: impl Into<String>) -> Self {
        EstimatorTrace {
            label: label.into(),
            ..Self::default()
        }
    }

    /// Checks that `estimates` and `truths` pair up for the Eq.-9 MSE:
    /// equal counts, and equal tap counts in every pair.
    ///
    /// # Errors
    /// A description of the disagreement.
    pub fn check_estimates(&self) -> Result<(), String> {
        let paired = self.estimates.len() == self.truths.len()
            && (self.estimates.iter().zip(&self.truths)).all(|(e, t)| e.len() == t.len());
        paired.then_some(()).ok_or_else(|| {
            let (estimates, truths) = (self.estimates.len(), self.truths.len());
            format!("{estimates} estimates do not pair up tap for tap with {truths} truths")
        })
    }

    /// Checks that the trace has the shape [`step_packet`] gives one after
    /// `streamed` packets scored from packet `score_from` on: one
    /// `per_packet` outcome per scored packet, `estimates ≤ scored ≤
    /// per_packet`, and estimates that pair up with their truths.
    ///
    /// # Errors
    /// A description of the disagreement.
    pub fn check_shape(&self, streamed: usize, score_from: usize) -> Result<(), String> {
        let (estimates, scored) = (self.estimates.len(), self.scored.len());
        let per_packet = self.per_packet.len();
        if per_packet != streamed.saturating_sub(score_from)
            || scored > per_packet
            || estimates > scored
        {
            return Err(format!(
                "{estimates} estimates, {scored} scored and {per_packet} per-packet outcomes \
                 after {streamed} packets scored from packet {score_from} on"
            ));
        }
        self.check_estimates()
    }
}

/// Builds the VVD training/validation datasets of a combination, on demand
/// per variant (the [`VvdModelPool`] caches the trained models).
pub struct CombinationDatasets<'a> {
    campaign: &'a Campaign,
    combination: &'a SetCombination,
}

impl<'a> CombinationDatasets<'a> {
    /// Dataset source over a campaign's combination.
    pub fn new(campaign: &'a Campaign, combination: &'a SetCombination) -> Self {
        CombinationDatasets {
            campaign,
            combination,
        }
    }
}

impl VvdDatasetSource for CombinationDatasets<'_> {
    fn datasets(&self, variant: VvdVariant) -> (vvd_core::VvdDataset, vvd_core::VvdDataset) {
        let cfg = &self.campaign.config;
        let train = crate::evaluate::build_vvd_dataset(
            self.campaign,
            &self.combination.training,
            variant,
            cfg.max_vvd_training_samples,
        );
        let validation = crate::evaluate::build_vvd_dataset(
            self.campaign,
            &[self.combination.validation],
            variant,
            if cfg.max_vvd_training_samples > 0 {
                cfg.max_vvd_training_samples / 4
            } else {
                0
            },
        );
        (train, validation)
    }
}

/// The chronological sequence of (phase-aligned) perfect channel estimates
/// of the combination's training sets — what time-series estimators fit on.
pub fn training_cirs(campaign: &Campaign, combination: &SetCombination) -> Vec<FirFilter> {
    combination
        .training
        .iter()
        .flat_map(|&set_id| campaign.set(set_id).packets.iter())
        .map(|p| p.aligned_cir.clone())
        .collect()
}

/// Median channel energy of the training sequence, the "unblocked"
/// reference of the Fig.-15 LoS-blockage indicator.
///
/// # Panics
/// Panics when the training sequence is empty — every combination must
/// contribute at least one training packet; a silent fallback would skew
/// every blockage classification.
pub fn nominal_energy(training_cirs: &[FirFilter]) -> f64 {
    assert!(
        !training_cirs.is_empty(),
        "cannot derive the nominal channel energy from an empty training set"
    );
    let mut energies: Vec<f64> = training_cirs.iter().map(|c| c.energy()).collect();
    energies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    energies[energies.len() / 2]
}

/// A measurement set serves its depth frames to estimators by frame index.
impl FrameSource for MeasurementSet {
    fn frame(&self, index: usize) -> &DepthImage {
        &self.frames[index].image
    }
    fn n_frames(&self) -> usize {
        self.frames.len()
    }
}

/// The estimator-independent DSP products of one packet: its regenerated
/// transmitted frame, received waveform and preamble LS fit.
pub struct PacketProducts {
    /// The regenerated transmitted frame.
    pub tx: ModulatedFrame,
    /// The regenerated received waveform.
    pub received: CVec,
    /// The preamble LS channel fit (when the solve succeeded).
    pub preamble_est: Option<FirFilter>,
}

impl PacketProducts {
    /// Regenerates the products of packet `record_index` of set `set_id` —
    /// the one synthesis routine behind every decoded packet, offline and
    /// served.
    pub fn synthesize(campaign: &Campaign, set_id: usize, record_index: usize) -> Self {
        let (tx, received) = campaign.received_waveform(set_id, record_index);
        let taps = campaign.config.equalizer.channel_taps;
        let preamble_est = preamble_estimate(&tx, received.as_slice(), taps).ok();
        PacketProducts {
            tx,
            received,
            preamble_est,
        }
    }
}

/// One test packet as [`step_packet`] sees it.
pub struct StreamPacket<'a> {
    /// The campaign the packet belongs to.
    pub campaign: &'a Campaign,
    /// Id of the packet's test set.
    pub set: usize,
    /// Index of the packet within the set.
    pub index: usize,
    /// `true` when the packet is decoded and scored (else only observed).
    pub score: bool,
    /// The packet's products: required when it is scored.
    pub products: Option<&'a PacketProducts>,
}

impl<'a> StreamPacket<'a> {
    /// The packet's record.
    fn record(&self) -> &'a PacketRecord {
        &self.campaign.set(self.set).packets[self.index]
    }

    /// What the estimator is asked for this packet (also what a serve
    /// session plans its batched inference from).
    pub fn request(&self) -> EstimateRequest<'a> {
        let record = self.record();
        EstimateRequest {
            packet_index: self.index,
            perfect_cir: &record.perfect_cir,
            preamble_estimate: self.products.and_then(|p| p.preamble_est.as_ref()),
            preamble_detected: record.preamble_detected,
            frame_index: record.frame_index,
            frames: self.campaign.set(self.set),
        }
    }
}

/// The per-packet step behind every reported number: for a scored packet,
/// estimate (with `prediction`, a batch-computed VVD output, when one was
/// planned), decode and score; then show the estimator the packet's ground
/// truth (and its preamble estimate, if it wants preamble observations).
///
/// What each [`Estimate`] adds to `trace`:
/// - `Bypass`: standard decoding, to `scored` and `per_packet`;
/// - `Ready`: equalized decoding, to `scored` and `per_packet`, and the
///   estimate as used (after any phase alignment) with the perfect one,
///   the Eq.-9 MSE pair, to `estimates` / `truths`;
/// - `Lost`: a loss of every PSDU chip and symbol, to `scored` and
///   `per_packet`;
/// - `Skip`: a zero-sized loss to `per_packet` only, which keeps the
///   per-packet series aligned across estimators.
///
/// # Panics
/// Panics when a scored packet comes without products.
pub fn step_packet(
    estimator: &mut dyn ChannelEstimator,
    trace: &mut EstimatorTrace,
    packet: &StreamPacket<'_>,
    prediction: Option<&FirFilter>,
) {
    let record = packet.record();
    let preamble_est = packet.products.and_then(|p| p.preamble_est.as_ref());
    if packet.score {
        let PacketProducts { tx, received, .. } =
            packet.products.expect("scored packets are synthesized");
        let cfg = &packet.campaign.config;
        let receiver = Receiver::new(cfg.phy);
        let outcome = match estimator.estimate_with_vvd(&packet.request(), prediction) {
            Estimate::Bypass => {
                let offset = receiver.synchronize(received.as_slice(), tx).offset;
                Some(receiver.decode_standard(&received.as_slice()[offset..], tx))
            }
            Estimate::Ready { cir, align_phase } => {
                // Aligned once, here: the decode equalizes exactly the
                // estimate the Eq.-9 MSE pair records.
                let used = match (align_phase && cfg.equalizer.align_phase, preamble_est) {
                    (true, Some(reference)) => align_mean_phase(&cir, reference).0,
                    _ => cir,
                };
                let config = EqualizerConfig {
                    align_phase: false,
                    ..cfg.equalizer
                };
                let outcome =
                    decode_with_reference(&receiver, tx, received.as_slice(), &used, None, &config);
                trace.estimates.push(used);
                trace.truths.push(record.perfect_cir.clone());
                Some(outcome)
            }
            Estimate::Lost => Some(DecodeOutcome::lost(
                tx.psdu_chips().len(),
                tx.frame.psdu_symbols().len(),
            )),
            Estimate::Skip => None,
        };
        trace.scored.extend(outcome);
        trace
            .per_packet
            .push(outcome.unwrap_or(DecodeOutcome::lost(0, 0)));
    }

    let observed_preamble = preamble_est.filter(|_| estimator.wants_preamble_observations());
    estimator.observe(&PacketObservation {
        perfect_cir: &record.perfect_cir,
        aligned_cir: &record.aligned_cir,
        preamble_estimate: observed_preamble,
    });
}

/// Fits the estimators on the combination's training data and streams the
/// test set through them, returning one trace per estimator (input order).
///
/// Fitting is sequential — expensive artefacts are shared through the
/// caller's `pool`, and the pool trains each variant deterministically on
/// first use.  Streaming is one packet loop: each packet's products are
/// synthesized once — when the packet is scored or some estimator wants
/// preamble observations — and every estimator steps through them with
/// [`step_packet`].  With [`StreamOptions::parallel`] each packet's steps
/// fan out over contiguous chunks of estimators through
/// [`vvd_dsp::fan_out`]; every worker only touches its own estimators, so
/// scheduling cannot affect the results.
pub fn stream_estimators(
    campaign: &Campaign,
    combination: &SetCombination,
    mut estimators: Vec<LabeledEstimator>,
    cirs: &[FirFilter],
    pool: &VvdModelPool<'_>,
    options: &StreamOptions,
) -> Vec<EstimatorTrace> {
    // --- Fit phase (sequential, deterministic order) --------------------
    let ctx = TrainingContext::new(cirs).with_vvd(pool);
    for labeled in &mut estimators {
        labeled.estimator.fit(&ctx);
    }

    // --- Streaming phase ------------------------------------------------
    let workers = if options.parallel {
        vvd_dsp::worker_budget()
    } else {
        1
    };
    let any_wants_preamble = estimators
        .iter()
        .any(|labeled| labeled.estimator.wants_preamble_observations());
    let mut steps: Vec<(BoxedEstimator, EstimatorTrace)> = estimators
        .into_iter()
        .map(|labeled| (labeled.estimator, EstimatorTrace::new(labeled.label)))
        .collect();
    let set = combination.test;
    for (index, record) in campaign.set(set).packets.iter().enumerate() {
        let score = index >= options.score_from;
        let products = (score || any_wants_preamble)
            .then(|| PacketProducts::synthesize(campaign, set, record.index));
        let packet = StreamPacket {
            campaign,
            set,
            index,
            score,
            products: products.as_ref(),
        };
        fan_out(&mut steps, workers, |_, steps| {
            for (estimator, trace) in steps {
                step_packet(estimator.as_mut(), trace, &packet, None);
            }
        });
    }
    steps.into_iter().map(|(_, trace)| trace).collect()
}

// ---------------------------------------------------------------------------
// Scenario × estimator sweeps
// ---------------------------------------------------------------------------

/// A spec failed to validate before a sweep started (no compute is spent
/// on a sweep with an invalid cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepSpecError {
    /// A scenario spec was rejected by the [`ScenarioRegistry`].
    Scenario(SpecParseError),
    /// An estimator spec was rejected by the
    /// [`EstimatorRegistry`](vvd_estimation::EstimatorRegistry).
    Estimator(vvd_estimation::registry::SpecError),
}

impl fmt::Display for SweepSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepSpecError::Scenario(e) => write!(f, "{e}"),
            SweepSpecError::Estimator(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepSpecError {}

impl From<SpecParseError> for SweepSpecError {
    fn from(e: SpecParseError) -> Self {
        SweepSpecError::Scenario(e)
    }
}

impl From<vvd_estimation::registry::SpecError> for SweepSpecError {
    fn from(e: vvd_estimation::registry::SpecError) -> Self {
        SweepSpecError::Estimator(e)
    }
}

/// Everything one scenario contributed to a sweep.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Canonical spec of the scenario (also the campaign label).
    pub scenario: String,
    /// Per-combination results, keyed exactly like
    /// [`crate::evaluate::evaluate_specs`] keys them.
    pub results: Vec<CombinationResult>,
    /// Box statistics over the combinations.
    pub summary: EvaluationSummary,
    /// `true` when the scenario produced no physical blockers (static
    /// camera view): estimators whose
    /// [`uses_camera`](vvd_estimation::ChannelEstimator::uses_camera) is
    /// `true` can at best learn the mean channel here.
    pub camera_blind: bool,
}

/// A scenario sweep's outcomes plus the shared model-cache accounting.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Usage counters of the model cache shared across the whole grid —
    /// every hit is a CNN training the sweep did *not* repeat.
    pub model_cache: ModelCacheStats,
}

/// Runs the full (scenario × estimator) grid: every estimator spec is
/// streamed through every combination of every scenario's campaign.
///
/// All specs are validated up front — an invalid cell fails the call
/// before any campaign is generated.  With [`EvalOptions::parallel`],
/// scenarios are spread over [`par_map`] workers and the remaining
/// hardware parallelism is divided among them as each worker's
/// campaign-synthesis thread budget (a 2-scenario sweep on 16 cores runs
/// 2 scenario workers with 8 synthesis threads each); inner
/// estimator streaming stays sequential per worker to avoid a third
/// fan-out level.  With a single scenario the inner pipeline fans out over
/// estimators instead.  Either way the outcome list is in input order and
/// bit-identical to the sequential path.
///
/// One content-addressed [`ModelCache`] is shared across the entire grid:
/// cells whose VVD trainings have identical provenance (same variant,
/// hyper-parameters and training data — e.g. several estimator specs
/// wrapping the same `vvd:…` head, or every age of an aging column) train
/// once; see [`run_scenario_sweep_report`] for the hit/miss accounting.
pub fn run_scenario_sweep(
    config: &crate::config::EvalConfig,
    scenario_specs: &[&str],
    estimator_specs: &[&str],
    options: &EvalOptions,
) -> Result<Vec<ScenarioOutcome>, SweepSpecError> {
    run_scenario_sweep_report(config, scenario_specs, estimator_specs, options)
        .map(|report| report.outcomes)
}

/// [`run_scenario_sweep`], additionally reporting the shared model cache's
/// hit/miss/eviction counters.
///
/// Setting `VVD_MODEL_CACHE_DIR` persists trained models to that
/// directory and consults it on misses.  Cache hits (memory or disk) run
/// no training, so the corresponding
/// [`CombinationResult::vvd_reports`] entries are absent — on a fully warm
/// disk cache every cell's report list is empty.  Decoded results are
/// unaffected: a hit returns the bit-identical model a fresh training
/// would have produced.
pub fn run_scenario_sweep_report(
    config: &crate::config::EvalConfig,
    scenario_specs: &[&str],
    estimator_specs: &[&str],
    options: &EvalOptions,
) -> Result<SweepReport, SweepSpecError> {
    // Validate every cell before spending compute.
    let estimator_registry = vvd_estimation::EstimatorRegistry::new();
    for spec in estimator_specs {
        estimator_registry.build(spec)?;
    }
    let scenario_registry = ScenarioRegistry::new().with_cir_config(config.cir);
    for spec in scenario_specs {
        scenario_registry.build(spec)?;
    }

    // One model cache for the whole grid, shared across scenario workers.
    // With `VVD_MODEL_CACHE_DIR` set, trained models also persist to disk,
    // so re-running a sweep (or running sibling figure benches over the
    // same campaigns) skips every training whose provenance is on disk —
    // bit-identically, since a key collision requires identical variant,
    // hyper-parameters, seed and dataset content.
    let cache = match std::env::var_os("VVD_MODEL_CACHE_DIR") {
        Some(dir) => ModelCache::new().with_disk_dir(std::path::PathBuf::from(dir)),
        None => ModelCache::new(),
    };

    // Several scenario workers each evaluate with a sequential inner
    // pipeline but a share of the synthesis threads; a single worker keeps
    // the caller's options and every thread.
    let available = vvd_dsp::worker_budget();
    let workers = if options.parallel {
        available.min(scenario_specs.len().max(1))
    } else {
        1
    };
    let inner = EvalOptions {
        parallel: options.parallel && workers == 1,
    };
    let synthesis_workers = if options.parallel {
        (available / workers).max(1)
    } else {
        1
    };
    // Each worker builds its own stateful scenario from the validated spec.
    let outcomes = par_map(scenario_specs, workers, |_, spec| {
        let mut scenario = scenario_registry
            .build(spec)
            .expect("scenario specs are validated before the sweep starts");
        let campaign =
            Campaign::generate_scenario_with(config, scenario.as_mut(), synthesis_workers);
        evaluate_scenario(config, campaign, estimator_specs, &inner, &cache)
    });
    Ok(SweepReport {
        outcomes,
        model_cache: cache.stats(),
    })
}

/// Evaluates one scenario cell of a sweep over its generated campaign:
/// stream every estimator spec through every combination (resolving VVD
/// trainings through the sweep-wide model cache), aggregate.
fn evaluate_scenario(
    config: &crate::config::EvalConfig,
    campaign: Campaign,
    estimator_specs: &[&str],
    options: &EvalOptions,
    cache: &ModelCache,
) -> ScenarioOutcome {
    let camera_blind = campaign
        .sets
        .iter()
        .all(|set| set.frames.iter().all(|f| f.blockers.is_empty()));

    let combos = combinations_for(config.n_sets, config.n_combinations);
    let results: Vec<CombinationResult> = combos
        .iter()
        .map(|combo| {
            evaluate_specs_with_cache(&campaign, combo, estimator_specs, options, Some(cache))
                .expect("sweep specs are validated before evaluation starts")
        })
        .collect();
    let summary = EvaluationSummary::from_results(&results);

    ScenarioOutcome {
        scenario: campaign.scenario.clone(),
        results,
        summary,
        camera_blind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};
    use std::sync::{Arc, Mutex};
    use vvd_estimation::estimator::{GroundTruth, Previous, Standard};

    fn smoke() -> (Campaign, SetCombination) {
        let campaign = Campaign::generate(&EvalConfig::smoke());
        let combo = crate::combinations::combinations_for(campaign.config.n_sets, 1)
            .into_iter()
            .next()
            .unwrap();
        (campaign, combo)
    }

    fn run(campaign: &Campaign, combo: &SetCombination, parallel: bool) -> Vec<EstimatorTrace> {
        let cirs = training_cirs(campaign, combo);
        let source = CombinationDatasets::new(campaign, combo);
        let pool = VvdModelPool::new(&campaign.config.vvd, &source);
        let estimators = vec![
            LabeledEstimator::new("standard", Box::new(Standard)),
            LabeledEstimator::new("ground-truth", Box::new(GroundTruth)),
            LabeledEstimator::new("previous", Box::new(Previous::packets(1))),
        ];
        stream_estimators(
            campaign,
            combo,
            estimators,
            &cirs,
            &pool,
            &StreamOptions {
                score_from: campaign.config.kalman_warmup_packets,
                parallel,
            },
        )
    }

    #[test]
    fn traces_are_aligned_and_ordered() {
        let (campaign, combo) = smoke();
        let traces = run(&campaign, &combo, false);
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].label, "standard");
        let scored_packets =
            campaign.config.packets_per_set - campaign.config.kalman_warmup_packets;
        for t in &traces {
            assert_eq!(t.per_packet.len(), scored_packets);
        }
        // Standard decoding decodes everything, produces no estimates.
        assert_eq!(traces[0].scored.len(), scored_packets);
        assert!(traces[0].estimates.is_empty());
        // Ground truth scores everything with estimates.
        assert_eq!(traces[1].estimates.len(), scored_packets);
        assert_eq!(traces[1].truths.len(), scored_packets);
    }

    #[test]
    fn parallel_streaming_is_bit_identical_to_sequential() {
        let (campaign, combo) = smoke();
        let sequential = run(&campaign, &combo, false);
        let parallel = run(&campaign, &combo, true);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.scored, p.scored);
            assert_eq!(s.per_packet, p.per_packet);
            assert_eq!(s.estimates.len(), p.estimates.len());
            for (a, b) in s.estimates.iter().zip(&p.estimates) {
                assert_eq!(a.taps(), b.taps());
            }
        }
    }

    /// Records, per packet, where the preamble estimate it is shown lives.
    struct ProductsRecorder {
        seen: Arc<Mutex<BTreeMap<usize, BTreeSet<usize>>>>,
    }

    impl ChannelEstimator for ProductsRecorder {
        fn estimate(&mut self, req: &EstimateRequest<'_>) -> Estimate {
            let preamble = req.preamble_estimate.expect("the LS fit succeeds");
            let address = preamble as *const FirFilter as usize;
            let mut seen = self.seen.lock().expect("no recorder panics");
            seen.entry(req.packet_index).or_default().insert(address);
            Estimate::Skip
        }
    }

    #[test]
    fn every_estimator_steps_through_one_synthesis_per_packet() {
        // Estimators in different worker chunks still share each packet's
        // products: one synthesis, one address, per packet.
        let (campaign, combo) = smoke();
        let cirs = training_cirs(&campaign, &combo);
        let source = CombinationDatasets::new(&campaign, &combo);
        let pool = VvdModelPool::new(&campaign.config.vvd, &source);
        let seen = Arc::default();
        let estimators = (0..4)
            .map(|k| {
                let recorder = ProductsRecorder {
                    seen: Arc::clone(&seen),
                };
                LabeledEstimator::new(format!("recorder {k}"), Box::new(recorder))
            })
            .collect();
        let options = StreamOptions {
            score_from: 0,
            parallel: true,
        };
        stream_estimators(&campaign, &combo, estimators, &cirs, &pool, &options);
        let seen = seen.lock().expect("no recorder panics");
        assert_eq!(seen.len(), campaign.config.packets_per_set);
        assert!(seen.values().all(|addresses| addresses.len() == 1));
    }

    /// An estimator that answers a fixed script and records what the step
    /// shows it.
    struct Scripted {
        script: VecDeque<Estimate>,
        wants_preamble: bool,
        predictions: Vec<Option<FirFilter>>,
        observed_preamble: Vec<bool>,
    }

    impl Scripted {
        fn new(script: impl IntoIterator<Item = Estimate>, wants_preamble: bool) -> Self {
            Scripted {
                script: script.into_iter().collect(),
                wants_preamble,
                predictions: Vec::new(),
                observed_preamble: Vec::new(),
            }
        }
    }

    impl ChannelEstimator for Scripted {
        fn observe(&mut self, obs: &PacketObservation<'_>) {
            self.observed_preamble.push(obs.preamble_estimate.is_some());
        }
        fn estimate(&mut self, req: &EstimateRequest<'_>) -> Estimate {
            self.estimate_with_vvd(req, None)
        }
        fn estimate_with_vvd(
            &mut self,
            _req: &EstimateRequest<'_>,
            prediction: Option<&FirFilter>,
        ) -> Estimate {
            self.predictions.push(prediction.cloned());
            self.script
                .pop_front()
                .expect("one scripted estimate per call")
        }
        fn wants_preamble_observations(&self) -> bool {
            self.wants_preamble
        }
    }

    #[test]
    fn step_packet_books_each_estimate_arm() {
        let (campaign, combo) = smoke();
        let set = combo.test;
        let products: Vec<PacketProducts> = (0..6)
            .map(|k| PacketProducts::synthesize(&campaign, set, k))
            .collect();
        let packet = |index: usize, score: bool| StreamPacket {
            campaign: &campaign,
            set,
            index,
            score,
            products: Some(&products[index]),
        };
        let truth = |k: usize| campaign.set(set).packets[k].perfect_cir.clone();
        let lengths = |t: &EstimatorTrace| {
            [
                t.scored.len(),
                t.per_packet.len(),
                t.estimates.len(),
                t.truths.len(),
            ]
        };

        // Packets 1..=5, one arm each, with the growth of (scored,
        // per_packet, estimates, truths) it must cause.
        let stale = truth(0);
        let script = [
            (Estimate::Bypass, [1, 1, 0, 0]),
            (Estimate::phased(truth(2)), [1, 1, 1, 1]),
            (Estimate::aligned(stale.clone()), [1, 1, 1, 1]),
            (Estimate::Lost, [1, 1, 0, 0]),
            (Estimate::Skip, [0, 1, 0, 0]),
        ];
        let mut estimator = Scripted::new(script.iter().map(|(e, _)| e.clone()), false);
        let mut trace = EstimatorTrace::new("scripted");
        // A warm-up packet is observed, never estimated.
        step_packet(&mut estimator, &mut trace, &packet(0, false), None);
        assert_eq!(trace, EstimatorTrace::new("scripted"));
        let prediction = truth(1);
        for (k, (_, growth)) in (1..).zip(&script) {
            let before = lengths(&trace);
            let supplied = (k == 2).then_some(&prediction);
            step_packet(&mut estimator, &mut trace, &packet(k, true), supplied);
            let after = lengths(&trace);
            let grown: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            assert_eq!(grown, growth, "packet {k}");
        }

        // Ready: the estimate as the equalizer used it, against the
        // packet's perfect estimate — aligned only when asked to.
        let reference = products[3]
            .preamble_est
            .as_ref()
            .expect("the LS fit succeeds");
        let aligned = align_mean_phase(&stale, reference).0;
        assert_ne!(aligned, stale);
        assert_eq!(trace.estimates, vec![truth(2), aligned]);
        assert_eq!(trace.truths, vec![truth(2), truth(3)]);
        // Lost counts every PSDU chip and symbol; Skip is a zero-sized
        // loss in the per-packet series only.
        let tx = &products[4].tx;
        let lost = DecodeOutcome::lost(tx.psdu_chips().len(), tx.frame.psdu_symbols().len());
        assert_eq!(trace.scored[3], lost);
        assert_eq!(trace.per_packet[4], DecodeOutcome::lost(0, 0));
        // observe ran once per packet, warm-up included, without the
        // preamble estimate; the prediction reached the estimator.
        assert_eq!(estimator.observed_preamble, vec![false; 6]);
        assert_eq!(
            estimator.predictions,
            vec![None, Some(prediction), None, None, None]
        );

        // A preamble-observing estimator sees the estimate whenever the
        // packet comes with products, warm-up included.
        let mut observer = Scripted::new([Estimate::Skip], true);
        let mut trace = EstimatorTrace::new("observer");
        let bare = StreamPacket {
            products: None,
            ..packet(1, false)
        };
        step_packet(&mut observer, &mut trace, &packet(0, false), None);
        step_packet(&mut observer, &mut trace, &bare, None);
        step_packet(&mut observer, &mut trace, &packet(2, true), None);
        assert_eq!(observer.observed_preamble, vec![true, false, true]);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn nominal_energy_rejects_an_empty_training_sequence() {
        let _ = nominal_energy(&[]);
    }

    #[test]
    fn scenario_sweep_covers_the_grid_in_input_order() {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 3;
        cfg.packets_per_set = 16;
        cfg.kalman_warmup_packets = 2;
        let scenarios = ["paper", "rayleigh:doppler=10", "paper+snr-offset:db=10"];
        let estimators = ["ground-truth", "previous:100ms"];
        let outcomes = run_scenario_sweep(
            &cfg,
            &scenarios,
            &estimators,
            &crate::evaluate::EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 3);
        for (outcome, spec) in outcomes.iter().zip(&scenarios) {
            assert_eq!(outcome.scenario, *spec);
            assert_eq!(outcome.results.len(), cfg.n_combinations);
            for result in &outcome.results {
                assert_eq!(result.metrics.len(), estimators.len());
                for metrics in result.metrics.values() {
                    assert!((0.0..=1.0).contains(&metrics.per));
                    assert!(metrics.packets > 0);
                }
            }
        }
        // Camera-blindness is a property of the scenario, not the specs.
        assert!(!outcomes[0].camera_blind);
        assert!(outcomes[1].camera_blind);
        assert!(!outcomes[2].camera_blind);
        // 10 dB of extra SNR headroom can only help the stale estimator.
        let per_of =
            |o: &ScenarioOutcome, label: &str| o.summary.per.get(label).map(|s| s.mean).unwrap();
        assert!(
            per_of(&outcomes[2], "100ms Previous") <= per_of(&outcomes[0], "100ms Previous") + 1e-9
        );
    }

    #[test]
    fn scenario_sweep_parallel_matches_sequential() {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 3;
        cfg.packets_per_set = 12;
        cfg.kalman_warmup_packets = 2;
        let scenarios = ["paper", "rician:k=6,doppler=30"];
        let estimators = ["ground-truth", "standard"];
        let run = |parallel: bool| {
            run_scenario_sweep(
                &cfg,
                &scenarios,
                &estimators,
                &crate::evaluate::EvalOptions { parallel },
            )
            .unwrap()
        };
        let sequential = run(false);
        let parallel = run(true);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.scenario, p.scenario);
            assert_eq!(s.camera_blind, p.camera_blind);
            for (rs, rp) in s.results.iter().zip(&p.results) {
                assert_eq!(rs.metrics, rp.metrics);
            }
        }
    }

    #[test]
    fn sweep_shares_trainings_across_cells_through_the_model_cache() {
        let mut cfg = EvalConfig::smoke();
        cfg.packets_per_set = 24;
        cfg.kalman_warmup_packets = 2;
        cfg.max_vvd_training_samples = 30;
        let scenarios = ["paper", "rician:k=6,doppler=30"];
        let estimators = ["vvd:current", "fallback:preamble,vvd:current"];
        let report = run_scenario_sweep_report(
            &cfg,
            &scenarios,
            &estimators,
            &crate::evaluate::EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        let stats = report.model_cache;
        // Each scenario's combination trains VVD-Current once (a miss);
        // the fallback's inner vvd:current head shares that training
        // through the cache (a hit per shared training config).
        assert_eq!(stats.misses, 2, "one training per scenario");
        assert!(
            stats.hits >= 2,
            "every cell sharing a training config must hit the cache, got {stats}"
        );
        // The shared model decodes identically for both specs: the pure
        // vvd:current column and the fallback's vvd arm disagree only
        // where the preamble primary produced the estimate.
        for outcome in &report.outcomes {
            assert_eq!(outcome.results.len(), cfg.n_combinations);
        }
    }

    #[test]
    fn scenario_sweep_rejects_invalid_cells_before_computing() {
        let cfg = EvalConfig::smoke();
        let options = crate::evaluate::EvalOptions::default();
        match run_scenario_sweep(&cfg, &["warp-drive"], &["standard"], &options) {
            Err(SweepSpecError::Scenario(e)) => assert!(!e.to_string().is_empty()),
            other => panic!("expected a scenario spec error, got {other:?}"),
        }
        match run_scenario_sweep(&cfg, &["paper"], &["nonsense"], &options) {
            Err(SweepSpecError::Estimator(e)) => assert!(!e.to_string().is_empty()),
            other => panic!("expected an estimator spec error, got {other:?}"),
        }
    }
}
