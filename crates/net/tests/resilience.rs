//! Crash-recovery golden over **real worker processes**: a `vvd-worker`
//! child killed mid-stream (SIGKILL via the deterministic
//! [`InjectedFault`] hook, always at a tick barrier) is respawned by the
//! coordinator and resumed from its last acked checkpoint frame — and the
//! merged report digests **bit-identically** to the uninterrupted
//! single-process run, at 1, 2 and 4 worker processes.

use std::path::PathBuf;
use vvd_net::{serve_cluster, ClusterError, ClusterOptions, InjectedFault, WorkerBackend};
use vvd_serve::{serve, LoadGenerator, ServeOptions, SessionSpec};
use vvd_testbed::EvalConfig;

fn golden_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 12;
    cfg.kalman_warmup_packets = 2;
    cfg.max_vvd_training_samples = 30;
    cfg
}

/// Mixed workload including VVD heads, so recovery rebuilds (and
/// cache-hits) trained models, not just classical state.
fn mixed_specs() -> Vec<SessionSpec> {
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "vvd:current",
        "ground-truth",
        "fallback:preamble,vvd:current",
        "previous:100ms",
        "kalman:ar=2",
        "standard",
    ];
    (0..8)
        .map(|i| {
            SessionSpec::new(scenarios[(i / 2) % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect()
}

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_vvd-worker"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vvd-net-resilience-{tag}-{}", std::process::id()))
}

#[test]
fn a_killed_worker_process_is_resumed_with_an_identical_digest_at_1_2_and_4() {
    let cfg = golden_config();
    let specs = mixed_specs();
    let reference = serve(
        LoadGenerator::new(cfg).build(&specs).unwrap(),
        &ServeOptions { shards: 1 },
    );

    for (workers, at_tick) in [(1usize, 2u64), (2, 2), (2, 4), (4, 2)] {
        let cache_dir = scratch_dir(&format!("k{workers}t{at_tick}"));
        let report = serve_cluster(
            &cfg,
            &specs,
            &ClusterOptions {
                workers,
                shards: 2,
                granularity: 2,
                cache_dir: Some(cache_dir.clone()),
                backend: WorkerBackend::Binary(worker_binary()),
                checkpoints: true,
                fault: Some(InjectedFault { worker: 0, at_tick }),
            },
        )
        .unwrap_or_else(|e| {
            panic!("recovery at {workers} workers (kill at tick {at_tick}) failed: {e}")
        });

        assert_eq!(
            report.digest(),
            reference.digest(),
            "digest diverged at {workers} workers after a kill at tick {at_tick}"
        );
        assert_eq!(report.sessions.len(), reference.sessions.len());
        assert_eq!(report.packets_streamed, reference.packets_streamed);
        for (merged, single) in report.sessions.iter().zip(&reference.sessions) {
            assert_eq!(merged.session_id, single.session_id);
            assert_eq!(merged.per.to_bits(), single.per.to_bits());
            assert_eq!(merged.cer.to_bits(), single.cer.to_bits());
        }
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}

#[test]
fn checkpoints_are_harmless_when_no_fault_fires() {
    // The checkpoint stream rides along every barrier ack; with no crash
    // it must be pure overhead — same digest as the checkpoint-free run.
    let cfg = golden_config();
    let specs = mixed_specs();
    let reference = serve(
        LoadGenerator::new(cfg).build(&specs).unwrap(),
        &ServeOptions { shards: 1 },
    );
    let report = serve_cluster(
        &cfg,
        &specs,
        &ClusterOptions {
            workers: 2,
            shards: 2,
            granularity: 3,
            cache_dir: None,
            backend: WorkerBackend::Binary(worker_binary()),
            checkpoints: true,
            fault: None,
        },
    )
    .unwrap();
    assert_eq!(report.digest(), reference.digest());
}

#[test]
fn a_killed_worker_process_without_checkpoints_is_a_final_wire_error() {
    let cfg = golden_config();
    let specs = mixed_specs();
    let err = serve_cluster(
        &cfg,
        &specs,
        &ClusterOptions {
            workers: 2,
            shards: 1,
            granularity: 2,
            cache_dir: None,
            backend: WorkerBackend::Binary(worker_binary()),
            checkpoints: false,
            fault: Some(InjectedFault {
                worker: 1,
                at_tick: 2,
            }),
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Wire { worker: 1, .. }),
        "expected the kill to surface as a wire error, got {err}"
    );
}
