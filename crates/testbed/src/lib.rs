//! # vvd-testbed
//!
//! Measurement-campaign simulator and evaluation harness for the Veni Vidi
//! Dixi reproduction.
//!
//! The original paper evaluates on a hardware trace: 22,704 IEEE 802.15.4
//! packets captured with a USRP sniffer in a laboratory while a single
//! human moves, synchronised (via an LED blink) with the frames of a ZED
//! depth camera, split into 15 measurement sets and evaluated over the 15
//! train/validation/test combinations of Table 2.  This crate rebuilds that
//! campaign on top of the simulators in the other crates and reproduces the
//! paper's experiments:
//!
//! * [`mobility`] — blocker mobility models (now re-exported from
//!   `vvd_channel::mobility`, where the scenario engine lives),
//! * [`campaign`] — per-packet channel realisations, per-frame depth
//!   images, packet↔frame association and the perfect (ground-truth) LS
//!   estimates; the environment is any
//!   [`vvd_channel::ChannelScenario`] built from a spec
//!   string (`"paper"`, `"room:large,humans=4,speed=1.5"`,
//!   `"rician:k=6,doppler=30"`, overlays like `"paper+burst-noise:p=0.01"`),
//!   with frame rendering and per-packet waveform synthesis batched across
//!   [`vvd_dsp::par_map`] workers,
//! * [`combinations`] — Table 2 (the 15 set combinations) plus generated
//!   equivalents for reduced campaign sizes,
//! * [`stream`] — the generic streaming core that fits boxed
//!   `ChannelEstimator`s and replays a test set through them
//!   (estimate → decode → score → observe), optionally on worker threads,
//!   plus the (scenario × estimator) sweep driver
//!   [`stream::run_scenario_sweep`],
//! * [`evaluate`] — the per-combination comparison of estimation
//!   techniques (PER / CER / MSE, Figs. 11–14), the packet-by-packet time
//!   series of Fig. 15 and the box-plot aggregation over combinations; all
//!   estimators are built through the `EstimatorRegistry` (spec strings
//!   included),
//! * [`aging`] — the estimate-aging sweeps of Figs. 16–17, as aged
//!   estimators over the same streaming core,
//! * [`hypothesis`] — the Sec.-3.1 hypothesis test behind Fig. 5,
//! * [`report`] — plain-text tables/series used by the `vvd-bench`
//!   reproduction harnesses,
//! * [`config`] — the `quick`/`paper` evaluation presets that scale the
//!   campaign to the available compute.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aging;
pub mod campaign;
pub mod combinations;
pub mod config;
pub mod evaluate;
pub mod hypothesis;
pub mod mobility;
pub mod report;
pub mod stream;

pub use campaign::{Campaign, FrameRecord, MeasurementSet, PacketRecord};
pub use combinations::{combinations_for, SetCombination};
pub use config::EvalConfig;
pub use evaluate::{
    evaluate_combination, evaluate_combination_with, evaluate_combination_with_cache,
    evaluate_estimators, evaluate_estimators_with_cache, evaluate_specs, evaluate_specs_with_cache,
    run_evaluation, run_evaluation_with, run_evaluation_with_cache, CombinationResult, EvalOptions,
    EvaluationSummary, TechniqueMetrics,
};
pub use mobility::RandomWaypoint;
pub use stream::{
    run_scenario_sweep, run_scenario_sweep_report, stream_estimators, EstimatorTrace,
    LabeledEstimator, ScenarioOutcome, StreamOptions, SweepReport, SweepSpecError,
};
