//! Checkpoint property suite:
//!
//! * **Idempotent frames** — for every built-in estimator technique
//!   (nested fallback chains included), checkpointing, resuming a fresh
//!   engine from the frame and checkpointing again yields **byte-identical**
//!   frames: `save → load → save` loses nothing and invents nothing.
//! * **Resume ≡ uninterrupted** — over randomized session mixes,
//!   checkpoint ticks and shard counts (1–8 on both sides of the cut),
//!   the resumed run's digest equals the uninterrupted run's.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use vvd::serve::{
    serve, EngineCheckpoint, LoadGenerator, ServeEngine, ServeOptions, SessionSpec, Workload,
};
use vvd::testbed::{Campaign, EvalConfig};

fn tiny_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 10;
    cfg.kalman_warmup_packets = 2;
    cfg.max_vvd_training_samples = 24;
    cfg
}

const SCENARIOS: [&str; 2] = ["paper", "rayleigh:doppler=10"];

/// Campaigns are deterministic, so generating them once per process and
/// sharing across proptest cases is a pure speedup.
fn campaigns() -> &'static BTreeMap<String, Arc<Campaign>> {
    static CAMPAIGNS: OnceLock<BTreeMap<String, Arc<Campaign>>> = OnceLock::new();
    CAMPAIGNS.get_or_init(|| {
        let cfg = tiny_config();
        SCENARIOS
            .into_iter()
            .map(|s| {
                (
                    s.to_string(),
                    Arc::new(Campaign::generate_spec(&cfg, s).expect("scenario is valid")),
                )
            })
            .collect()
    })
}

fn build_workload(specs: &[SessionSpec]) -> Workload {
    let mut generator = LoadGenerator::new(tiny_config());
    for (spec, campaign) in campaigns() {
        generator = generator.with_campaign(spec.clone(), Arc::clone(campaign));
    }
    generator.build(specs).expect("specs are valid")
}

/// Every built-in technique, plus a right-nested fallback chain — the
/// deepest state shape the registry can produce.
const ALL_TECHNIQUES: [&str; 15] = [
    "standard",
    "ground-truth",
    "preamble",
    "preamble:genie",
    "previous:100ms",
    "previous:500ms",
    "kalman:ar=1",
    "kalman:ar=5",
    "kalman:ar=20",
    "vvd:current",
    "vvd:future33ms",
    "vvd:future100ms",
    "fallback:preamble,vvd:current",
    "fallback:preamble,kalman:ar=20",
    "fallback:preamble,fallback:kalman:ar=5,vvd:current",
];

#[test]
fn every_technique_round_trips_to_a_byte_identical_frame() {
    // One session per technique, staggered so mid-run state differs
    // between sessions (some mid-history, some untouched).
    let specs: Vec<SessionSpec> = ALL_TECHNIQUES
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            SessionSpec::new(SCENARIOS[i % 2], *spec)
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect();

    // Checkpoint at several depths: untouched, mid-stream, drained.
    for at_tick in [0u64, 5, u64::MAX] {
        let mut engine = ServeEngine::new(build_workload(&specs), &ServeOptions { shards: 2 });
        engine.run_ticks(at_tick);
        let first = engine
            .checkpoint()
            .expect("tick boundaries always checkpoint")
            .to_frame()
            .expect("frame fits the payload cap");

        let resumed = ServeEngine::resume(
            build_workload(&specs),
            &ServeOptions { shards: 4 },
            &EngineCheckpoint::from_frame(&first).expect("own frame decodes"),
        )
        .expect("own checkpoint resumes");
        let second = resumed
            .checkpoint()
            .expect("a just-resumed engine is at a tick boundary")
            .to_frame()
            .expect("frame fits the payload cap");
        assert_eq!(
            first, second,
            "save → load → save must be byte-identical (checkpoint tick {at_tick})"
        );
    }
}

/// Cheap stateful estimators only — the proptest sweep exercises the
/// cut-point/shard space, not model training.
const CHEAP_TECHNIQUES: [&str; 6] = [
    "ground-truth",
    "standard",
    "preamble",
    "previous:100ms",
    "kalman:ar=2",
    "fallback:preamble,kalman:ar=2",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A run cut at a random tick and resumed under a random shard count
    /// digests identically to the uninterrupted run.
    #[test]
    fn randomized_resume_matches_uninterrupted(
        sessions in proptest::collection::vec((0usize..2, 0usize..6, 1u64..4, 0u64..3), 1..6),
        cut_fraction in 0.0f64..=1.0,
        shards_before in 1usize..=8,
        shards_after in 1usize..=8,
    ) {
        let specs: Vec<SessionSpec> = sessions
            .iter()
            .map(|&(scenario, estimator, every, offset)| {
                SessionSpec::new(SCENARIOS[scenario], CHEAP_TECHNIQUES[estimator])
                    .every(every)
                    .offset(offset)
            })
            .collect();

        let reference = serve(build_workload(&specs), &ServeOptions { shards: 1 });
        let cut = ((reference.ticks as f64) * cut_fraction).floor() as u64;

        let mut engine = ServeEngine::new(
            build_workload(&specs),
            &ServeOptions { shards: shards_before },
        );
        engine.run_ticks(cut);
        let frame = engine
            .checkpoint()
            .expect("tick boundaries always checkpoint")
            .to_frame()
            .expect("frame fits the payload cap");
        drop(engine);

        let mut resumed = ServeEngine::resume(
            build_workload(&specs),
            &ServeOptions { shards: shards_after },
            &EngineCheckpoint::from_frame(&frame).expect("own frame decodes"),
        )
        .expect("own checkpoint resumes");
        while !resumed.finished() {
            resumed.run_ticks(5);
        }
        let report = resumed.finish();
        prop_assert!(
            report.digest() == reference.digest(),
            "cut at {}/{} with shards {}→{} diverged",
            cut,
            reference.ticks,
            shards_before,
            shards_after
        );
        prop_assert_eq!(report.packets_streamed, reference.packets_streamed);
    }
}
