//! Cross-process golden: a cluster of **real worker processes** (the
//! `vvd-worker` binary, framed over stdio pipes) serving a mixed
//! VVD + fallback workload must produce a report bit-identical to the
//! single-process in-process run — at 1, 2 and 4 worker processes — and,
//! with a shared on-disk model cache, must train every distinct model
//! exactly once cluster-wide.

use std::path::PathBuf;
use vvd_net::{serve_cluster, ClusterOptions, WorkerBackend};
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

/// Mixed workload with VVD heads (so trainings, the model cache and
/// batched inference are all on the wire path) alongside cheap classical
/// and fallback heads, across two scenarios and a staggered schedule.
fn mixed_specs() -> Vec<SessionSpec> {
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "vvd:current",
        "ground-truth",
        "fallback:preamble,vvd:current",
        "previous:100ms",
        "standard",
    ];
    // Scenario blocks of two (not `i % 2`): under round-robin partition
    // the same scenario's VVD sessions then land on *different* workers at
    // every tested worker count, so the shared-disk-cache path is
    // genuinely exercised (later workers disk-hit models earlier workers
    // trained).
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
    std::env::temp_dir().join(format!("vvd-net-golden-{tag}-{}", std::process::id()))
}

#[test]
fn worker_processes_reproduce_the_single_process_digest_at_1_2_and_4() {
    let cfg = golden_config();
    let specs = mixed_specs();
    let reference = serve(
        LoadGenerator::new(cfg).build(&specs).unwrap(),
        &ServeOptions { shards: 1 },
    );

    for workers in [1usize, 2, 4] {
        let cache_dir = scratch_dir(&format!("k{workers}"));
        let report = serve_cluster(
            &cfg,
            &specs,
            &ClusterOptions {
                workers,
                shards: 2,
                granularity: 5,
                cache_dir: Some(cache_dir.clone()),
                backend: WorkerBackend::Binary(worker_binary()),
                checkpoints: false,
                fault: None,
            },
        )
        .unwrap_or_else(|e| panic!("cluster of {workers} worker processes failed: {e}"));

        assert_eq!(
            report.digest(),
            reference.digest(),
            "digest diverged at {workers} worker processes"
        );
        assert_eq!(report.sessions.len(), reference.sessions.len());
        assert_eq!(report.packets_streamed, reference.packets_streamed);
        assert_eq!(report.packets_served, reference.packets_served);
        for (merged, single) in report.sessions.iter().zip(&reference.sessions) {
            assert_eq!(merged.session_id, single.session_id);
            assert_eq!(merged.scenario, single.scenario);
            assert_eq!(merged.estimator, single.estimator);
            assert_eq!(merged.per.to_bits(), single.per.to_bits());
            assert_eq!(merged.cer.to_bits(), single.cer.to_bits());
            assert_eq!(
                merged.mse.map(f64::to_bits),
                single.mse.map(f64::to_bits),
                "session {} MSE",
                single.session_id
            );
        }

        // Shared disk cache + staggered fits: every distinct model trains
        // exactly once *cluster-wide* — exactly as often as the
        // single-process run trains it.
        assert_eq!(
            report.model_cache.misses, reference.model_cache.misses,
            "cluster of {workers} trained more models than one process: {}",
            report.model_cache
        );
        if workers > 1 {
            // Same-provenance sessions land on different workers under
            // round-robin, so later workers resolve from disk.
            assert!(
                report.model_cache.disk_hits > 0,
                "expected shared-cache disk hits at {workers} workers: {}",
                report.model_cache
            );
        }

        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}

#[test]
fn worker_binary_rejects_garbage_without_hanging() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let mut child = Command::new(worker_binary())
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"these bytes are not a frame")
        .unwrap();
    let status = child.wait().unwrap();
    assert!(
        !status.success(),
        "a worker fed garbage must exit non-zero, got {status:?}"
    );
}

#[test]
fn worker_binary_honours_an_early_shutdown() {
    use vvd_net::{ChildTransport, Message, Transport};

    let mut transport =
        ChildTransport::spawn(&mut std::process::Command::new(worker_binary())).unwrap();
    let hello = transport.recv().unwrap();
    assert!(matches!(hello, Message::Hello(_)), "got {hello:?}");
    transport.send(&Message::Shutdown).unwrap();
    let status = transport.finish().unwrap();
    assert!(status.success(), "shutdown before assignment must be clean");
}
