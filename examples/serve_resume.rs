//! Killing a worker process mid-stream — and proving it changes nothing.
//!
//! Builds a 10-session mixed workload and serves it twice through the
//! `vvd-net` coordinator with 2 worker processes (this same executable,
//! re-exec'd in worker mode):
//!
//! 1. **Uninterrupted**, checkpoints off — the baseline digest.
//! 2. **With a deterministic crash**: checkpoints on, and an
//!    [`InjectedFault`] SIGKILLs worker 0 at the tick-4 barrier.  Every
//!    barrier ack carries a checkpoint frame, so the coordinator holds a
//!    resume point exactly as fresh as the progress it has acked: it
//!    respawns the dead worker, hands it the original assignment plus the
//!    last checkpoint frame, and the replacement rebuilds its workload
//!    slice (deterministic retraining — or a cache hit — included),
//!    restores the streaming state and rejoins the barrier dance.
//!
//! The two report digests are **bit-identical**: crash recovery, like
//! sharding and process partitioning before it, is invisible in every
//! decoded result.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serve_resume
//! ```

use vvd::net::{serve_cluster, ClusterOptions, InjectedFault, WorkerBackend};
use vvd::serve::SessionSpec;
use vvd::testbed::EvalConfig;

fn main() {
    // Worker invocations (including respawned replacements) re-enter
    // here; they run the wire-protocol loop and never return.
    vvd::net::maybe_run_worker();

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
    ];
    let specs: Vec<SessionSpec> = (0..10)
        .map(|i| {
            SessionSpec::new(scenarios[(i / 2) % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect();

    let options = |fault| ClusterOptions {
        workers: 2,
        shards: vvd::dsp::per_process_worker_budget(2),
        granularity: 2,
        cache_dir: None,
        backend: WorkerBackend::SelfExec,
        checkpoints: fault,
        fault: fault.then_some(InjectedFault {
            worker: 0,
            at_tick: 4,
        }),
    };

    println!("serving 10 sessions across 2 worker processes, uninterrupted …");
    let baseline = serve_cluster(&cfg, &specs, &options(false)).expect("cluster serve succeeds");
    println!(
        "  {} packets ({} scored), digest {:016x}\n",
        baseline.packets_streamed,
        baseline.packets_served,
        baseline.digest()
    );

    println!("same workload, but worker 0 is SIGKILLed at the tick-4 barrier …");
    let recovered =
        serve_cluster(&cfg, &specs, &options(true)).expect("crash recovery reproduces the run");
    println!(
        "  {} packets ({} scored), digest {:016x}\n",
        recovered.packets_streamed,
        recovered.packets_served,
        recovered.digest()
    );

    assert_eq!(
        baseline.digest(),
        recovered.digest(),
        "recovery must be invisible in the decoded results"
    );
    println!("digests identical — the killed worker resumed from its checkpoint");
    println!("(state restored, fit products re-derived deterministically, replay to the barrier)");
}
