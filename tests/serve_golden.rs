//! Serve-vs-sequential golden: every session served by the sharded,
//! batched `vvd-serve` engine must produce a trace **bit-identical** to
//! running that session alone through the offline streaming pipeline
//! (`vvd_testbed::stream::stream_estimators`) — at shard counts 1, 2
//! and 8, over a mixed-scenario campaign with heterogeneous arrival
//! schedules, with VVD heads whose forward passes the engine batches
//! across sessions.

use std::collections::BTreeMap;
use std::sync::Arc;
use vvd::estimation::estimator::VvdModelPool;
use vvd::estimation::{spec_label, EstimatorRegistry};
use vvd::serve::{serve, LoadGenerator, ServeOptions, SessionSpec};
use vvd::testbed::stream::{
    stream_estimators, training_cirs, CombinationDatasets, EstimatorTrace, LabeledEstimator,
    StreamOptions,
};
use vvd::testbed::{combinations_for, Campaign, EvalConfig};

fn golden_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 24;
    cfg.kalman_warmup_packets = 4;
    cfg.max_vvd_training_samples = 40;
    cfg
}

/// The sequential reference: the session's estimator streamed alone
/// through the offline pipeline over the same campaign and combination.
fn sequential_reference(
    cfg: &EvalConfig,
    campaigns: &BTreeMap<String, Arc<Campaign>>,
    spec: &SessionSpec,
) -> EstimatorTrace {
    let campaign = &campaigns[&spec.scenario];
    let combination = combinations_for(cfg.n_sets, cfg.n_combinations)[spec.combination].clone();
    let cirs = training_cirs(campaign, &combination);
    let source = CombinationDatasets::new(campaign, &combination);
    let pool = VvdModelPool::new(&cfg.vvd, &source);
    let registry = EstimatorRegistry::new();
    let estimator = registry.build(&spec.estimator).expect("spec is valid");
    stream_estimators(
        campaign,
        &combination,
        vec![LabeledEstimator::new(
            spec_label(&spec.estimator),
            estimator,
        )],
        &cirs,
        &pool,
        &StreamOptions {
            score_from: cfg.kalman_warmup_packets,
            parallel: false,
        },
    )
    .remove(0)
}

fn assert_traces_bit_identical(served: &EstimatorTrace, reference: &EstimatorTrace, what: &str) {
    assert_eq!(served.label, reference.label, "{what}: label");
    assert_eq!(served.scored, reference.scored, "{what}: scored outcomes");
    assert_eq!(
        served.per_packet, reference.per_packet,
        "{what}: per-packet outcomes"
    );
    assert_eq!(
        served.estimates.len(),
        reference.estimates.len(),
        "{what}: estimate count"
    );
    for (i, (a, b)) in served
        .estimates
        .iter()
        .zip(&reference.estimates)
        .enumerate()
    {
        assert_eq!(a.taps(), b.taps(), "{what}: estimate {i}");
    }
    for (i, (a, b)) in served.truths.iter().zip(&reference.truths).enumerate() {
        assert_eq!(a.taps(), b.taps(), "{what}: truth {i}");
    }
}

#[test]
fn serve_matches_the_sequential_pipeline_at_shard_counts_1_2_and_8() {
    let cfg = golden_config();
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "ground-truth",
        "previous:100ms",
        "vvd:current",
        "fallback:preamble,vvd:current",
        "kalman:ar=2",
        "standard",
    ];
    // 8 sessions over a mixed campaign with heterogeneous arrivals; the
    // VVD sessions of each scenario share one trained network.
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| {
            SessionSpec::new(scenarios[i % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect();

    // Generate each distinct campaign once and share it between the serve
    // runs and the sequential references (exactly what the load generator
    // would have produced itself).
    let mut campaigns: BTreeMap<String, Arc<Campaign>> = BTreeMap::new();
    for scenario in scenarios {
        campaigns.insert(
            scenario.to_string(),
            Arc::new(Campaign::generate_spec(&cfg, scenario).unwrap()),
        );
    }

    let references: Vec<EstimatorTrace> = specs
        .iter()
        .map(|spec| sequential_reference(&cfg, &campaigns, spec))
        .collect();

    let mut digests = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut generator = LoadGenerator::new(cfg);
        for (spec, campaign) in &campaigns {
            generator = generator.with_campaign(spec.clone(), Arc::clone(campaign));
        }
        let workload = generator.build(&specs).unwrap();
        let report = serve(workload, &ServeOptions { shards });

        assert_eq!(report.traces.len(), specs.len());
        for ((trace, reference), spec) in report.traces.iter().zip(&references).zip(&specs) {
            assert_traces_bit_identical(
                trace,
                reference,
                &format!(
                    "shards={shards} session `{}`/`{}`",
                    spec.scenario, spec.estimator
                ),
            );
        }
        digests.push(report.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "shard counts 1/2/8 must digest identically: {digests:?}"
    );
}

#[test]
fn batched_inference_issues_fewer_forward_calls_than_packets_served() {
    let cfg = golden_config();
    // Eight synchronised sessions over one campaign, all resolving to the
    // *same* trained VVD network (the pure head and the fallback's inner
    // head share training provenance through the workload's model cache).
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| {
            SessionSpec::new(
                "paper",
                if i % 2 == 0 {
                    "vvd:current"
                } else {
                    "fallback:preamble,vvd:current"
                },
            )
        })
        .collect();
    let campaign = Arc::new(Campaign::generate_spec(&cfg, "paper").unwrap());
    let workload = LoadGenerator::new(cfg)
        .with_campaign("paper", Arc::clone(&campaign))
        .build(&specs)
        .unwrap();
    let report = serve(workload, &ServeOptions { shards: 2 });

    // One training, shared by all eight sessions.
    assert_eq!(report.model_cache.misses, 1, "{}", report.model_cache);
    assert!(report.model_cache.hits >= 7);

    // Every tick coalesces the eight same-model plans into one forward
    // call: occupancy is the full session count, and the engine issued
    // far fewer NN calls than it served packets.
    assert!(report.packets_served > 0);
    assert!(
        report.batches.batch_calls < report.packets_served,
        "batched inference must issue fewer NN forward calls ({}) than packets served ({})",
        report.batches.batch_calls,
        report.packets_served,
    );
    assert!(
        report.batch_occupancy() > 1.0,
        "batch occupancy {} must exceed 1",
        report.batch_occupancy()
    );
    // The four pure-VVD sessions plan on every scored tick; the fallback
    // sessions join the same batch on ticks whose preamble was missed
    // (their lookahead suppresses the dead forward pass otherwise).
    assert!(report.batches.max_batch >= specs.len() / 2);

    // And batching is invisible in the results: the serve trace matches
    // the sequential pipeline for every session.
    let mut campaigns = BTreeMap::new();
    campaigns.insert("paper".to_string(), campaign);
    for (trace, spec) in report.traces.iter().zip(&specs) {
        let reference = sequential_reference(&cfg, &campaigns, spec);
        assert_traces_bit_identical(trace, &reference, &spec.estimator);
    }
}
