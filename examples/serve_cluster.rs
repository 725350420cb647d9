//! Serving one workload across **worker processes** — and proving it
//! changes nothing.
//!
//! Builds a 12-session mixed workload (two radio environments, six
//! estimator families, VVD heads included) and serves it three times
//! through the `vvd-net` coordinator: as 1, 2 and 4 worker processes,
//! all sharing one on-disk model cache.  Every process is this same
//! executable, re-exec'd in worker mode (`maybe_run_worker` at the top
//! of `main` diverts those invocations), talking the framed wire
//! protocol over stdin/stdout pipes.
//!
//! Things to notice in the output:
//!
//! * the three report digests are **bit-identical** — partitioning
//!   sessions over processes is invisible in every decoded result, the
//!   same invariant the in-process engine holds for shard counts;
//! * cluster-wide trainings stay at the single-process count: the
//!   coordinator staggers worker fits over the shared disk cache, so
//!   each distinct model trains exactly once no matter how many
//!   processes need it (later workers load it as disk hits);
//! * the per-worker tick counts agree — workers advance in lockstep
//!   barrier rounds.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serve_cluster
//! ```

use vvd::net::{serve_cluster_detailed, ClusterOptions, WorkerBackend};
use vvd::serve::SessionSpec;
use vvd::testbed::EvalConfig;

fn main() {
    // Worker invocations re-enter here; they run the wire-protocol loop
    // inside this call and never return from it.
    vvd::net::maybe_run_worker();

    // A small campaign so three full cluster runs finish in minutes.
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 24;
    cfg.kalman_warmup_packets = 4;
    cfg.max_vvd_training_samples = 50;

    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "vvd:current",
        "fallback:preamble,vvd:current",
        "kalman:ar=5",
        "previous:100ms",
        "ground-truth",
        "preamble",
    ];
    // Blocks of two per scenario, so round-robin partitioning puts
    // same-scenario VVD sessions on *different* workers — the shared
    // disk cache is doing real cross-process work, not sitting idle.
    let specs: Vec<SessionSpec> = (0..12)
        .map(|i| {
            SessionSpec::new(scenarios[(i / 2) % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect();

    let cache_dir =
        std::env::temp_dir().join(format!("vvd-serve-cluster-example-{}", std::process::id()));

    let mut digests = Vec::new();
    for workers in [1usize, 2, 4] {
        println!("serving 12 sessions across {workers} worker process(es) …");
        let run = serve_cluster_detailed(
            &cfg,
            &specs,
            &ClusterOptions {
                workers,
                shards: vvd::dsp::per_process_worker_budget(workers),
                granularity: 16,
                cache_dir: Some(cache_dir.clone()),
                backend: WorkerBackend::SelfExec,
                checkpoints: false,
                fault: None,
            },
        )
        .expect("cluster serve succeeds");

        println!(
            "  {} packets ({} scored) in {} ticks, {:.2?} wall",
            run.report.packets_streamed,
            run.report.packets_served,
            run.report.ticks,
            run.report.wall,
        );
        for (w, stats) in run.per_worker.iter().enumerate() {
            println!(
                "  worker {w}: {} ticks, {} trainings, {} mem hits, {} disk hits",
                stats.ticks, stats.cache.misses, stats.cache.hits, stats.cache.disk_hits,
            );
        }
        println!("  digest: {:016x}\n", run.report.digest());
        digests.push(run.report.digest());
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "digests diverged across process counts: {digests:x?}"
    );
    println!("all three digests identical — worker processes are invisible in the results");
    println!("(the shared disk cache means later runs and later workers skip every training)");
}
