//! The coordinator: partitions a workload over worker processes and
//! merges their traces into one [`ServeReport`].
//!
//! [`serve_cluster`] is the cross-process counterpart of
//! [`vvd_serve::serve`], and produces a report whose
//! [`digest`](ServeReport::digest) is **bit-identical** to the
//! single-process run of the same specs, at any worker count.  The
//! argument, end to end:
//!
//! 1. Sessions share no mutable state, and training is deterministic —
//!    a worker rebuilding sessions `{i : i ≡ w (mod K)}` via
//!    [`LoadGenerator::build_assigned`] produces sessions bit-identical
//!    to those of the full single-process build (model-cache hits hand
//!    back models a fresh training would reproduce bit for bit, so the
//!    fit order and cache topology are invisible).
//! 2. Batch composition and stepping granularity never change values,
//!    only scheduling — pinned engine properties.
//! 3. The wire codec moves floats as IEEE-754 bit patterns, so collected
//!    traces are bit-identical to the workers' in-memory traces.
//! 4. Traces are merged in ascending workload-global session order —
//!    exactly the order the single-process report uses.
//!
//! The digest deliberately excludes everything that legitimately differs
//! across cluster shapes (tick counts, batch occupancy, cache counters,
//! wall-clock).
//!
//! # Staggered fit
//!
//! Workers are assigned one at a time: the coordinator waits for worker
//! `w`'s ready ack (sent after its fit completes) before assigning worker
//! `w+1`.  With a shared on-disk model cache this makes every distinct
//! training run **exactly once cluster-wide** — later workers load the
//! published model instead of retraining it.  Serving itself then runs
//! fully concurrently between tick barriers.

use crate::message::{
    AssignSessions, AssignedSession, CacheStats, Message, ResumeSessions, TickBarrier,
};
use crate::transport::{loopback_pair, ChildTransport, LoopbackTransport, Transport};
use crate::wire::WireError;
use crate::worker::{run_worker, WORKER_ARG};
use std::fmt;
use std::path::PathBuf;
use std::process::Command;
use vvd_estimation::ModelCacheStats;
use vvd_serve::timing::Stopwatch;
use vvd_serve::{
    BatchCounters, LoadGenerator, ReportAssemblyError, ServeReport, ServeSpecError, SessionSpec,
    SynthCounters,
};
use vvd_testbed::EvalConfig;

/// How the coordinator materialises its workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerBackend {
    /// In-process worker threads over loopback channels.  The full wire
    /// protocol runs (every frame is encoded and decoded), only the OS
    /// process boundary is elided — fast and self-contained, the default.
    Loopback,
    /// Spawn the given worker binary (`vvd-worker`) per worker, framed
    /// over its stdio pipes.
    Binary(PathBuf),
    /// Re-execute the current binary with [`WORKER_ARG`] as its first
    /// argument.  The binary must call
    /// [`maybe_run_worker`](crate::maybe_run_worker) first thing in
    /// `main` — this is how examples and benches become their own worker
    /// fleet without a second binary.
    SelfExec,
}

/// A deterministic fault injection: kill worker `worker`'s transport once
/// at least `at_tick` ticks have been offered to it — always at a tick
/// barrier, so the "crash" lands at the same protocol point on every run.
/// This is how the resilience tests exercise crash recovery without
/// nondeterministic signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Index of the worker to kill.
    pub worker: usize,
    /// Cumulative offered-tick threshold at which the kill fires.
    pub at_tick: u64,
}

/// Execution options of a cluster serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterOptions {
    /// Number of worker processes. Defaults to
    /// [`vvd_dsp::proc_budget`] (the `VVD_PROCS` override).
    pub workers: usize,
    /// Thread shards per worker.  Defaults to
    /// [`vvd_dsp::per_process_worker_budget`], which honours an explicit
    /// `VVD_WORKERS` verbatim and otherwise divides the hardware
    /// parallelism across the workers.
    pub shards: usize,
    /// Tick budget per barrier round (≥ 1).  Pure scheduling: invisible
    /// in the digest.
    pub granularity: u64,
    /// Shared on-disk model cache directory.  With one, every distinct
    /// training runs exactly once cluster-wide (see the module docs);
    /// without, each worker trains its own models.
    pub cache_dir: Option<PathBuf>,
    /// Worker materialisation.
    pub backend: WorkerBackend,
    /// When `true`, every worker ships a checkpoint frame with each
    /// barrier ack and the coordinator recovers dead workers by
    /// respawning them and resuming from the last acked checkpoint.
    /// Defaults to whether `VVD_CHECKPOINT_TICKS` is set (the ambient
    /// checkpoint policy of [`vvd_dsp::checkpoint_interval`]).
    pub checkpoints: bool,
    /// A deterministic fault injection, for testing crash recovery.
    /// `None` (the default) injects nothing.
    pub fault: Option<InjectedFault>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        let workers = vvd_dsp::proc_budget();
        ClusterOptions {
            workers,
            shards: vvd_dsp::per_process_worker_budget(workers),
            granularity: 64,
            cache_dir: None,
            backend: WorkerBackend::Loopback,
            checkpoints: vvd_dsp::checkpoint_interval().is_some(),
            fault: None,
        }
    }
}

/// A cluster serve run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The workload specs failed validation (nothing was spawned).
    Spec(ServeSpecError),
    /// The campaign configuration could not be serialized for transport.
    Config(String),
    /// A worker process could not be spawned.
    Spawn(std::io::Error),
    /// The link to a worker failed (transport or codec).
    Wire {
        /// Index of the worker whose link failed.
        worker: usize,
        /// The underlying wire failure.
        error: WireError,
    },
    /// A worker reported a failure of its own (bad workload build, …).
    Worker {
        /// Index of the reporting worker.
        worker: usize,
        /// The worker's failure description.
        message: String,
    },
    /// A worker violated the protocol (unexpected message, bad session
    /// ids, short report stream).
    Protocol {
        /// Index of the offending worker.
        worker: usize,
        /// What was violated.
        context: String,
    },
    /// The collected per-session reports do not merge into one complete
    /// report (duplicate, missing or misordered session ids).
    Merge(ReportAssemblyError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Spec(e) => write!(f, "invalid workload: {e}"),
            ClusterError::Config(msg) => write!(f, "config serialization failed: {msg}"),
            ClusterError::Spawn(e) => write!(f, "worker spawn failed: {e}"),
            ClusterError::Wire { worker, error } => {
                write!(f, "link to worker {worker} failed: {error}")
            }
            ClusterError::Worker { worker, message } => {
                write!(f, "worker {worker} failed: {message}")
            }
            ClusterError::Protocol { worker, context } => {
                write!(f, "worker {worker} violated the protocol: {context}")
            }
            ClusterError::Merge(e) => {
                write!(f, "collected session reports do not merge: {e}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ServeSpecError> for ClusterError {
    fn from(e: ServeSpecError) -> Self {
        ClusterError::Spec(e)
    }
}

/// One live worker link: the transport plus whatever must be joined or
/// reaped when the run ends.
enum WorkerLink {
    Loopback {
        transport: LoopbackTransport,
        thread: Option<std::thread::JoinHandle<()>>,
    },
    Child(ChildTransport),
}

impl WorkerLink {
    fn transport(&mut self) -> &mut dyn Transport {
        match self {
            WorkerLink::Loopback { transport, .. } => transport,
            WorkerLink::Child(child) => child,
        }
    }

    /// Kills the worker mid-protocol (the [`InjectedFault`] hook).  For a
    /// child process this kills it outright; for a loopback worker the
    /// coordinator's transport end is swapped for a dead one, so the
    /// worker thread sees a closed stream and exits — either way the
    /// coordinator subsequently observes exactly what a real crash looks
    /// like: sends fail and receives report a broken stream.
    fn kill(&mut self) {
        match self {
            WorkerLink::Loopback { transport, thread } => {
                let (dead, _) = loopback_pair();
                // Dropping the old end closes both directions; the worker
                // thread exits on its next recv and is left detached.
                *transport = dead;
                drop(thread.take());
            }
            WorkerLink::Child(child) => child.kill(),
        }
    }

    /// Orderly teardown after the protocol completed.
    fn close(self) {
        match self {
            WorkerLink::Loopback {
                transport,
                mut thread,
            } => {
                // Dropping the transport closes the worker's stream; the
                // thread (already past its Shutdown recv) exits.
                drop(transport);
                if let Some(handle) = thread.take() {
                    let _ = handle.join();
                }
            }
            WorkerLink::Child(child) => {
                let _ = child.finish();
            }
        }
    }
}

fn spawn_link(backend: &WorkerBackend) -> Result<WorkerLink, ClusterError> {
    match backend {
        WorkerBackend::Loopback => {
            let (coordinator_end, mut worker_end) = loopback_pair();
            let thread = std::thread::spawn(move || {
                // Worker-side failures surface at the coordinator as
                // Error frames or closed streams; nothing to do here.
                let _ = run_worker(&mut worker_end);
            });
            Ok(WorkerLink::Loopback {
                transport: coordinator_end,
                thread: Some(thread),
            })
        }
        WorkerBackend::Binary(path) => {
            let child =
                ChildTransport::spawn(&mut Command::new(path)).map_err(ClusterError::Spawn)?;
            Ok(WorkerLink::Child(child))
        }
        WorkerBackend::SelfExec => {
            let exe = std::env::current_exe().map_err(ClusterError::Spawn)?;
            let mut cmd = Command::new(exe);
            cmd.arg(WORKER_ARG);
            let child = ChildTransport::spawn(&mut cmd).map_err(ClusterError::Spawn)?;
            Ok(WorkerLink::Child(child))
        }
    }
}

/// A finished cluster run: the merged report plus each worker's own
/// accounting (which the merge sums away).
#[derive(Debug)]
pub struct ClusterRun {
    /// The merged report — digest bit-identical to the single-process run.
    pub report: ServeReport,
    /// Each worker's end-of-run accounting, indexed by worker.  The
    /// per-worker model-cache counters are how a shared disk cache shows
    /// its work: later workers report `disk_hits` where the first worker
    /// to need a model reports the single `miss` that trained it.
    pub per_worker: Vec<CacheStats>,
}

/// Serves the workload across `options.workers` worker processes and
/// merges their traces into one report.
///
/// Sessions are partitioned round-robin (session `i` → worker `i mod K`)
/// and merged back in ascending global session order, so the merged
/// report's [`digest`](ServeReport::digest) is bit-identical to
/// `vvd_serve::serve` over the same specs — the property
/// `crates/net/tests/cluster_golden.rs` pins across worker counts and
/// backends.  The merged report's `ticks` is the maximum over workers
/// (each worker only ticks instants at which one of *its* sessions is
/// due); batching, synthesis-memo and cache counters are summed, except
/// the largest batch and the memo's peak residency, which take the
/// per-worker maximum.
///
/// # Errors
/// Validation failures before anything is spawned; spawn, wire, worker
/// and protocol failures afterwards (in-flight workers are reaped on the
/// way out — links kill their child on drop).
pub fn serve_cluster(
    config: &EvalConfig,
    specs: &[SessionSpec],
    options: &ClusterOptions,
) -> Result<ServeReport, ClusterError> {
    serve_cluster_detailed(config, specs, options).map(|run| run.report)
}

/// [`serve_cluster`], additionally surfacing each worker's own
/// accounting (per-worker cache/batching counters and tick counts).
///
/// # Errors
/// See [`serve_cluster`].
pub fn serve_cluster_detailed(
    config: &EvalConfig,
    specs: &[SessionSpec],
    options: &ClusterOptions,
) -> Result<ClusterRun, ClusterError> {
    let started = Stopwatch::start();

    let generator = LoadGenerator::new(*config);
    generator.validate(specs)?;
    let config_json =
        serde_json::to_string(config).map_err(|e| ClusterError::Config(e.to_string()))?;

    let workers = options.workers.max(1);
    let granularity = options.granularity.max(1);
    let cache_dir = options
        .cache_dir
        .as_ref()
        .map(|p| p.to_string_lossy().into_owned());

    // Round-robin partition in stable session order.
    let mut parts: Vec<Vec<AssignedSession>> = (0..workers).map(|_| Vec::new()).collect();
    for (id, spec) in specs.iter().enumerate() {
        parts[id % workers].push(AssignedSession {
            id: id as u64,
            spec: spec.clone(),
        });
    }

    let checkpoints = options.checkpoints;
    let mut fault = options.fault;

    // Each worker's assignment is kept verbatim: it is what a replacement
    // worker receives (inside a ResumeSessions) when the original dies.
    let assigns: Vec<AssignSessions> = parts
        .iter()
        .enumerate()
        .map(|(w, sessions)| AssignSessions {
            worker_index: w as u32,
            shards: options.shards.max(1) as u32,
            cache_dir: cache_dir.clone(),
            config_json: config_json.clone(),
            sessions: sessions.clone(),
            checkpoints,
        })
        .collect();

    // Spawn + assign, staggered: wait for each worker's ready ack (fit
    // complete) before assigning the next, so shared-cache trainings
    // never race (module docs).
    let mut links: Vec<WorkerLink> = Vec::with_capacity(workers);
    let mut done: Vec<bool> = Vec::with_capacity(workers);
    // Last checkpoint frame acked per worker (the resume point), and how
    // many respawns each worker has left (bounds a crash-looping host).
    let mut last_frame: Vec<Option<Vec<u8>>> = vec![None; workers];
    let mut respawns_left: Vec<usize> = vec![MAX_RESPAWNS; workers];
    for (w, assign) in assigns.iter().enumerate() {
        let mut link = spawn_link(&options.backend)?;
        let transport = link.transport();
        expect_hello(transport.recv(), w)?;
        transport
            .send(&Message::AssignSessions(assign.clone()))
            .map_err(|error| ClusterError::Wire { worker: w, error })?;
        let ready = recv_ready(transport, w, checkpoints, &mut last_frame[w])?;
        done.push(ready.done);
        links.push(link);
    }

    // Barrier rounds: offer every unfinished worker a tick budget, then
    // collect every ack.  Workers advance concurrently within a round.
    // A worker whose link dies mid-round (transport error where an ack was
    // due) is — when checkpoints are on — respawned, handed its original
    // assignment plus the last checkpoint frame it acked, and replays
    // forward deterministically; without checkpoints the failure is final.
    let mut offered: u64 = 0;
    while done.iter().any(|d| !d) {
        // Deterministic fault injection, always at a barrier boundary.
        if let Some(f) = fault {
            if offered >= f.at_tick && f.worker < links.len() && !done[f.worker] {
                links[f.worker].kill();
                fault = None;
            }
        }
        offered += granularity;

        for (w, link) in links.iter_mut().enumerate() {
            if !done[w] {
                // A failed send means the link is dead; the recv pass
                // below observes the same dead link and recovers it.
                let _ = link.transport().send(&Message::TickBarrier(TickBarrier {
                    ticks: granularity,
                    done: false,
                }));
            }
        }
        for w in 0..links.len() {
            if done[w] {
                continue;
            }
            match recv_ready(links[w].transport(), w, checkpoints, &mut last_frame[w]) {
                Ok(ack) => done[w] = ack.done,
                // Transport/codec death at a barrier: recover when we can.
                Err(ClusterError::Wire { error, .. }) => {
                    let (link, ready) = recover_worker(
                        w,
                        &options.backend,
                        &assigns[w],
                        &mut last_frame[w],
                        &mut respawns_left[w],
                        checkpoints,
                        error,
                    )?;
                    links[w] = link;
                    done[w] = ready.done;
                }
                // Worker-reported and protocol errors are not crashes.
                Err(other) => return Err(other),
            }
        }
    }

    // Collect: each drained worker streams one report per assigned
    // session (ascending global id) then its run accounting.
    let mut session_reports: Vec<crate::message::SessionReport> = Vec::with_capacity(specs.len());
    let mut per_worker: Vec<CacheStats> = Vec::with_capacity(workers);
    for (w, link) in links.iter_mut().enumerate() {
        let transport = link.transport();
        for _ in 0..parts[w].len() {
            match transport.recv() {
                Ok(Message::SessionReport(report)) => session_reports.push(report),
                Ok(Message::Error { message }) => {
                    return Err(ClusterError::Worker { worker: w, message })
                }
                Ok(other) => {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        context: format!("expected SessionReport, got {}", other.name()),
                    })
                }
                Err(error) => return Err(ClusterError::Wire { worker: w, error }),
            }
        }
        match transport.recv() {
            Ok(Message::CacheStats(stats)) => per_worker.push(stats),
            Ok(other) => {
                return Err(ClusterError::Protocol {
                    worker: w,
                    context: format!("expected CacheStats, got {}", other.name()),
                })
            }
            Err(error) => return Err(ClusterError::Wire { worker: w, error }),
        }
        transport
            .send(&Message::Shutdown)
            .map_err(|error| ClusterError::Wire { worker: w, error })?;
    }
    let mut ticks = 0u64;
    let mut batches = BatchCounters::default();
    let mut synth = SynthCounters::default();
    let mut model_cache = ModelCacheStats::default();
    for stats in &per_worker {
        ticks = ticks.max(stats.ticks);
        batches.absorb(stats.batches);
        synth.absorb(stats.synth);
        model_cache.absorb(&stats.cache);
    }
    for link in links {
        link.close();
    }

    // Merge in ascending global session order — the single-process order.
    // Completeness (exactly ids 0..specs.len(), no duplicates, no gaps) is
    // the report assembler's job now: a session lost to an unrecovered
    // worker surfaces as a typed merge error, never a mis-zipped report.
    session_reports.sort_by_key(|r| r.id);

    let (meta, traces): (Vec<_>, Vec<_>) = session_reports
        .into_iter()
        .map(|r| {
            let label = r.trace.label.clone();
            let meta = (
                r.id as usize,
                r.scenario,
                label,
                r.packets_streamed as usize,
            );
            (meta, r.trace)
        })
        .unzip();

    let mut report = ServeReport::assemble_complete(
        specs.len(),
        meta,
        traces,
        ticks,
        batches,
        model_cache,
        started.elapsed(),
    )
    .map_err(ClusterError::Merge)?;
    report.synth = synth;
    Ok(ClusterRun { report, per_worker })
}

/// How many times one worker slot may be respawned before its failures
/// become final — bounds a host that crash-loops faster than it serves.
const MAX_RESPAWNS: usize = 3;

/// Receives a worker's barrier ack — preceded, when checkpoints are on,
/// by the checkpoint frame the ack vouches for (stored as the worker's
/// resume point).
fn recv_ready(
    transport: &mut dyn Transport,
    worker: usize,
    checkpoints: bool,
    last_frame: &mut Option<Vec<u8>>,
) -> Result<TickBarrier, ClusterError> {
    if checkpoints {
        match transport.recv() {
            Ok(Message::CheckpointFrame(checkpoint)) => *last_frame = Some(checkpoint.frame),
            Ok(Message::Error { message }) => return Err(ClusterError::Worker { worker, message }),
            Ok(other) => {
                return Err(ClusterError::Protocol {
                    worker,
                    context: format!("expected CheckpointFrame, got {}", other.name()),
                })
            }
            Err(error) => return Err(ClusterError::Wire { worker, error }),
        }
    }
    expect_barrier(transport.recv(), worker)
}

/// Crash recovery for one worker slot: respawn, hand over the original
/// assignment plus the last acked checkpoint frame, and wait for the
/// replacement's ready ack (it replays to the checkpoint tick during its
/// rebuild — deterministically, so the recovered run's traces are
/// bit-identical to an uninterrupted one).
///
/// Without checkpoints (no resume point is ever collected) or once the
/// respawn budget is spent, the original transport error is final.
fn recover_worker(
    worker: usize,
    backend: &WorkerBackend,
    assign: &AssignSessions,
    last_frame: &mut Option<Vec<u8>>,
    respawns_left: &mut usize,
    checkpoints: bool,
    original: WireError,
) -> Result<(WorkerLink, TickBarrier), ClusterError> {
    if !checkpoints || *respawns_left == 0 {
        return Err(ClusterError::Wire {
            worker,
            error: original,
        });
    }
    *respawns_left -= 1;

    let mut link = spawn_link(backend)?;
    let transport = link.transport();
    expect_hello(transport.recv(), worker)?;
    transport
        .send(&Message::ResumeSessions(ResumeSessions {
            assign: assign.clone(),
            frame: last_frame.clone(),
        }))
        .map_err(|error| ClusterError::Wire { worker, error })?;
    let ready = recv_ready(transport, worker, checkpoints, last_frame)?;
    Ok((link, ready))
}

fn expect_hello(received: Result<Message, WireError>, worker: usize) -> Result<(), ClusterError> {
    match received {
        Ok(Message::Hello(_)) => Ok(()),
        Ok(Message::Error { message }) => Err(ClusterError::Worker { worker, message }),
        Ok(other) => Err(ClusterError::Protocol {
            worker,
            context: format!("expected Hello, got {}", other.name()),
        }),
        Err(error) => Err(ClusterError::Wire { worker, error }),
    }
}

fn expect_barrier(
    received: Result<Message, WireError>,
    worker: usize,
) -> Result<TickBarrier, ClusterError> {
    match received {
        Ok(Message::TickBarrier(barrier)) => Ok(barrier),
        Ok(Message::Error { message }) => Err(ClusterError::Worker { worker, message }),
        Ok(other) => Err(ClusterError::Protocol {
            worker,
            context: format!("expected TickBarrier, got {}", other.name()),
        }),
        Err(error) => Err(ClusterError::Wire { worker, error }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vvd_serve::{serve, ServeOptions};

    fn tiny_config() -> EvalConfig {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 3;
        cfg.packets_per_set = 10;
        cfg.kalman_warmup_packets = 2;
        cfg
    }

    fn mixed_specs() -> Vec<SessionSpec> {
        vec![
            SessionSpec::new("paper", "ground-truth"),
            SessionSpec::new("paper", "previous:100ms").every(2),
            SessionSpec::new("paper", "standard").every(3).offset(4),
            SessionSpec::new("rayleigh:doppler=10", "preamble:genie")
                .every(2)
                .offset(1),
            SessionSpec::new("rayleigh:doppler=10", "standard").offset(2),
        ]
    }

    #[test]
    fn loopback_cluster_matches_single_process_digest() {
        let cfg = tiny_config();
        let reference = serve(
            LoadGenerator::new(cfg).build(&mixed_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );
        for workers in [1usize, 2, 3, 5, 7] {
            let report = serve_cluster(
                &cfg,
                &mixed_specs(),
                &ClusterOptions {
                    workers,
                    shards: 2,
                    granularity: 3,
                    cache_dir: None,
                    backend: WorkerBackend::Loopback,
                    checkpoints: false,
                    fault: None,
                },
            )
            .unwrap();
            assert_eq!(
                report.digest(),
                reference.digest(),
                "digest diverged at {workers} workers"
            );
            assert_eq!(report.sessions.len(), reference.sessions.len());
            assert_eq!(report.packets_streamed, reference.packets_streamed);
            // The workers' memo counters cross the wire and sum: every
            // session requests the same products wherever it runs, and
            // each worker synthesizes its own copy of a shared packet.
            assert_eq!(report.synth.requests, reference.synth.requests);
            assert!(report.synth.syntheses >= reference.synth.syntheses);
            // Session summaries merge back in global order with identical
            // quality numbers.
            for (merged, single) in report.sessions.iter().zip(&reference.sessions) {
                assert_eq!(merged.session_id, single.session_id);
                assert_eq!(merged.estimator, single.estimator);
                assert_eq!(merged.per.to_bits(), single.per.to_bits());
                assert_eq!(merged.cer.to_bits(), single.cer.to_bits());
            }
        }
    }

    #[test]
    fn more_workers_than_sessions_leaves_idle_workers_harmless() {
        let cfg = tiny_config();
        let specs = vec![
            SessionSpec::new("paper", "ground-truth"),
            SessionSpec::new("paper", "standard").every(2),
        ];
        let reference = serve(
            LoadGenerator::new(cfg).build(&specs).unwrap(),
            &ServeOptions { shards: 1 },
        );
        let run = serve_cluster_detailed(
            &cfg,
            &specs,
            &ClusterOptions {
                workers: 6,
                shards: 1,
                granularity: 1000,
                cache_dir: None,
                backend: WorkerBackend::Loopback,
                checkpoints: false,
                fault: None,
            },
        )
        .unwrap();
        assert_eq!(run.report.digest(), reference.digest());
        // Every worker reports accounting, the idle ones all zeros.
        assert_eq!(run.per_worker.len(), 6);
        assert!(run.per_worker[2..].iter().all(|s| s.ticks == 0));
    }

    #[test]
    fn invalid_specs_fail_before_any_worker_spawns() {
        let cfg = tiny_config();
        let err = serve_cluster(
            &cfg,
            &[SessionSpec::new("paper", "nonsense")],
            &ClusterOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::Spec(_)), "got {err}");
    }

    #[test]
    fn granularity_is_pure_scheduling() {
        let cfg = tiny_config();
        let mut digests = Vec::new();
        for granularity in [1u64, 7, 10_000] {
            let report = serve_cluster(
                &cfg,
                &mixed_specs(),
                &ClusterOptions {
                    workers: 2,
                    shards: 1,
                    granularity,
                    cache_dir: None,
                    backend: WorkerBackend::Loopback,
                    checkpoints: false,
                    fault: None,
                },
            )
            .unwrap();
            digests.push(report.digest());
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn killed_worker_resumes_from_checkpoint_with_identical_digest() {
        let cfg = tiny_config();
        let reference = serve(
            LoadGenerator::new(cfg).build(&mixed_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );
        // Kill a worker at several protocol points: before any serving
        // tick (only the ready-ack checkpoint exists) and mid-stream.
        for (worker, at_tick) in [(0usize, 0u64), (0, 2), (1, 4)] {
            let report = serve_cluster(
                &cfg,
                &mixed_specs(),
                &ClusterOptions {
                    workers: 2,
                    shards: 1,
                    granularity: 2,
                    cache_dir: None,
                    backend: WorkerBackend::Loopback,
                    checkpoints: true,
                    fault: Some(InjectedFault { worker, at_tick }),
                },
            )
            .unwrap();
            assert_eq!(
                report.digest(),
                reference.digest(),
                "digest diverged after killing worker {worker} at tick {at_tick}"
            );
        }
    }

    #[test]
    fn a_crash_without_checkpoints_is_final() {
        let cfg = tiny_config();
        let err = serve_cluster(
            &cfg,
            &mixed_specs(),
            &ClusterOptions {
                workers: 2,
                shards: 1,
                granularity: 2,
                cache_dir: None,
                backend: WorkerBackend::Loopback,
                checkpoints: false,
                fault: Some(InjectedFault {
                    worker: 0,
                    at_tick: 2,
                }),
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ClusterError::Wire { worker: 0, .. }),
            "got {err}"
        );
    }
}
