//! Property-based concurrency suite for the serving engine: whatever the
//! session mix, arrival schedule or shard count, a workload's outcomes —
//! captured by [`ServeReport::digest`] — never change.  This is the
//! serve-layer analogue of the kernel bit-exactness proptests: scheduling
//! may move *when* work happens, never *what* is computed.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use vvd::net::{serve_cluster, ClusterOptions, WorkerBackend};
use vvd::serve::{serve, LoadGenerator, ServeOptions, SessionSpec};
use vvd::testbed::{Campaign, EvalConfig};

/// Cheap estimator heads (no CNN training) so the suite explores many
/// workloads per second; the VVD path's bit-identity is pinned separately
/// by the golden test.
const HEADS: &[&str] = &[
    "ground-truth",
    "standard",
    "preamble",
    "preamble:genie",
    "previous:100ms",
    "previous:300ms",
    "kalman:ar=1",
    "fallback:preamble,previous:100ms",
];

fn property_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 10;
    cfg.kalman_warmup_packets = 2;
    cfg
}

/// One campaign, generated once and shared by every proptest case (the
/// engine never mutates it).
fn shared_campaign() -> Arc<Campaign> {
    static CAMPAIGN: OnceLock<Arc<Campaign>> = OnceLock::new();
    Arc::clone(
        CAMPAIGN.get_or_init(|| {
            Arc::new(Campaign::generate_spec(&property_config(), "paper").unwrap())
        }),
    )
}

/// A randomised arrival schedule for `n` sessions.
fn schedule_strategy(n: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1u64..4, 0u64..6), n)
}

fn build_specs(heads: &[usize], schedule: &[(u64, u64)]) -> Vec<SessionSpec> {
    heads
        .iter()
        .zip(schedule)
        .map(|(&head, &(interval, offset))| {
            SessionSpec::new("paper", HEADS[head % HEADS.len()])
                .every(interval)
                .offset(offset)
        })
        .collect()
}

fn run_digest(heads: &[usize], schedule: &[(u64, u64)], shards: usize) -> (u64, u64) {
    let cfg = property_config();
    let workload = LoadGenerator::new(cfg)
        .with_campaign("paper", shared_campaign())
        .build(&build_specs(heads, schedule))
        .unwrap();
    let report = serve(workload, &ServeOptions { shards });
    (report.digest(), report.packets_streamed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomised session mixes, arrival orders and shard counts always
    /// produce identical report digests.
    #[test]
    fn digest_is_invariant_to_schedule_and_shard_count(
        heads in proptest::collection::vec(0usize..HEADS.len(), 1..10),
        schedule_a in schedule_strategy(10),
        schedule_b in schedule_strategy(10),
        shards_a in 1usize..=8,
        shards_b in 1usize..=8,
    ) {
        let n = heads.len();
        let (digest_a, streamed_a) = run_digest(&heads, &schedule_a[..n], shards_a);
        let (digest_b, streamed_b) = run_digest(&heads, &schedule_b[..n], shards_b);
        // Same sessions: same packets streamed, bit-identical outcomes —
        // whatever the timing and sharding.
        prop_assert_eq!(streamed_a, streamed_b);
        prop_assert!(
            digest_a == digest_b,
            "schedules {:?}/{:?} shards {}/{} diverged",
            &schedule_a[..n], &schedule_b[..n], shards_a, shards_b
        );
    }

    /// The digest is not degenerate: workloads with different estimator
    /// mixes digest differently (different labels and outcomes).
    #[test]
    fn digest_distinguishes_different_workloads(
        head_a in 0usize..HEADS.len(),
        head_b in 0usize..HEADS.len(),
    ) {
        prop_assume!(head_a != head_b);
        let schedule = [(1u64, 0u64)];
        let (digest_a, _) = run_digest(&[head_a], &schedule, 1);
        let (digest_b, _) = run_digest(&[head_b], &schedule, 1);
        prop_assert_ne!(digest_a, digest_b);
    }
}

proptest! {
    // Each case runs a full cluster (workers rebuild their campaign
    // slice), so a handful of cases keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The process axis extends the invariance: partitioning a random
    /// workload over 1–5 loopback worker processes at any barrier
    /// granularity reproduces the single-process digest bit-exactly.
    #[test]
    fn digest_is_invariant_to_worker_process_count(
        heads in proptest::collection::vec(0usize..HEADS.len(), 1..6),
        schedule in schedule_strategy(6),
        workers in 1usize..=5,
        granularity in 1u64..16,
    ) {
        let n = heads.len();
        let (reference, streamed) = run_digest(&heads, &schedule[..n], 1);
        let report = serve_cluster(
            &property_config(),
            &build_specs(&heads, &schedule[..n]),
            &ClusterOptions {
                workers,
                shards: 2,
                granularity,
                cache_dir: None,
                backend: WorkerBackend::Loopback,
                checkpoints: false,
                fault: None,
            },
        )
        .unwrap();
        prop_assert_eq!(report.packets_streamed, streamed);
        prop_assert!(
            report.digest() == reference,
            "digest diverged at {} workers, granularity {}", workers, granularity
        );
    }
}
