//! The worker side of the cluster protocol.
//!
//! A worker is a protocol loop around one [`ServeEngine`]: it announces
//! itself, receives its session subset, rebuilds exactly that slice of the
//! workload ([`LoadGenerator::build_assigned`] preserves workload-global
//! session ids, so the traces it will report are bit-identical to the
//! corresponding sessions of a single-process run), then advances the
//! engine between the coordinator's tick barriers and streams its traces
//! back once drained.
//!
//! The fit happens *before* the ready ack — the coordinator assigns
//! workers one at a time and waits for each ready ack, so with a shared
//! on-disk model cache every distinct training runs exactly once
//! cluster-wide: the first worker to need a model trains and publishes it,
//! every later worker loads it from disk.

use crate::message::{
    AssignSessions, CacheStats, CheckpointFrame, Hello, Message, SessionReport, TickBarrier,
};
use crate::transport::{StdioTransport, Transport};
use crate::wire::WireError;
use vvd_estimation::ModelCache;
use vvd_serve::{EngineCheckpoint, LoadGenerator, ServeEngine, ServeOptions, SessionSpec};
use vvd_testbed::EvalConfig;

/// Argument sentinel that switches a self-executing binary into worker
/// mode (see [`maybe_run_worker`]).
pub const WORKER_ARG: &str = "vvd-net-worker";

/// Runs the worker protocol over the given transport until the
/// coordinator shuts it down.
///
/// # Errors
/// Any transport failure, or [`WireError::Protocol`] when the coordinator
/// violates the protocol or the assigned workload fails to build (the
/// failure is also reported to the coordinator as a [`Message::Error`]
/// frame when the transport still works).
pub fn run_worker<T: Transport>(transport: &mut T) -> Result<(), WireError> {
    transport.send(&Message::Hello(Hello {
        pid: u64::from(std::process::id()),
    }))?;

    // A fresh assignment or a crash-recovery re-assignment (the original
    // assignment plus the last good checkpoint frame to replay from).
    let (assign, resume_frame) = match transport.recv()? {
        Message::AssignSessions(a) => (a, None),
        Message::ResumeSessions(resume) => (resume.assign, resume.frame),
        Message::Shutdown => return Ok(()),
        other => {
            return Err(protocol_violation("AssignSessions", &other));
        }
    };

    let mut engine = match build_engine(&assign, resume_frame.as_deref()) {
        Ok(engine) => engine,
        Err(message) => {
            transport.send(&Message::Error {
                message: message.clone(),
            })?;
            return Err(WireError::Protocol(message));
        }
    };

    // Ready ack: the fit is done (every assigned model trained or loaded).
    // With checkpoints on, every barrier ack — this one included — is
    // preceded by a checkpoint frame, so the coordinator always holds a
    // resume point exactly as fresh as the progress it has acked.
    if assign.checkpoints {
        send_checkpoint(transport, &engine)?;
    }
    transport.send(&Message::TickBarrier(TickBarrier {
        ticks: engine.ticks(),
        done: engine.finished(),
    }))?;

    while !engine.finished() {
        match transport.recv()? {
            Message::TickBarrier(barrier) => {
                engine.run_ticks(barrier.ticks.max(1));
                if assign.checkpoints {
                    send_checkpoint(transport, &engine)?;
                }
                transport.send(&Message::TickBarrier(TickBarrier {
                    ticks: engine.ticks(),
                    done: engine.finished(),
                }))?;
            }
            // An early shutdown aborts the run without reporting.
            Message::Shutdown => return Ok(()),
            other => return Err(protocol_violation("TickBarrier", &other)),
        }
    }

    // Drained: stream one report per session (ascending global id — the
    // subset order build_assigned preserved), then the run accounting.
    let report = engine.finish();
    for (summary, trace) in report.sessions.iter().zip(report.traces) {
        transport.send(&Message::SessionReport(SessionReport {
            id: summary.session_id as u64,
            scenario: summary.scenario.clone(),
            packets_streamed: summary.packets_streamed as u64,
            trace,
        }))?;
    }
    transport.send(&Message::CacheStats(CacheStats {
        ticks: report.ticks,
        cache: report.model_cache,
        batches: report.batches,
        synth: report.synth,
    }))?;

    match transport.recv()? {
        Message::Shutdown => Ok(()),
        other => Err(protocol_violation("Shutdown", &other)),
    }
}

/// Runs the worker protocol over this process's stdin/stdout — the body
/// of the `vvd-worker` binary.
///
/// # Errors
/// See [`run_worker`].
pub fn run_stdio_worker() -> Result<(), WireError> {
    let mut transport = StdioTransport::new();
    run_worker(&mut transport)
}

/// Self-exec guard for coordinator binaries (examples, benches): when the
/// process was invoked with [`WORKER_ARG`] as its first argument, runs the
/// stdio worker protocol and **exits the process** — never returning to
/// the caller.  Call this first in `main` to make the binary its own
/// worker under [`WorkerBackend::SelfExec`](crate::WorkerBackend).
pub fn maybe_run_worker() {
    let mut argv = std::env::args();
    let _program = argv.next();
    if argv.next().as_deref() == Some(WORKER_ARG) {
        let code = match run_stdio_worker() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("vvd-worker: {e}");
                1
            }
        };
        std::process::exit(code);
    }
}

/// Snapshots the engine and ships the frame ahead of a barrier ack.
fn send_checkpoint<T: Transport>(transport: &mut T, engine: &ServeEngine) -> Result<(), WireError> {
    let frame = engine
        .checkpoint()
        .and_then(|checkpoint| checkpoint.to_frame());
    match frame {
        Ok(frame) => transport.send(&Message::CheckpointFrame(CheckpointFrame { frame })),
        Err(e) => {
            let message = format!("checkpoint failed: {e}");
            transport.send(&Message::Error {
                message: message.clone(),
            })?;
            Err(WireError::Protocol(message))
        }
    }
}

/// Rebuilds the assigned workload slice and wraps it in a stepping engine
/// — from scratch, or resumed from a checkpoint frame when recovering a
/// dead worker's sessions.
fn build_engine(
    assign: &AssignSessions,
    resume_frame: Option<&[u8]>,
) -> Result<ServeEngine, String> {
    let config: EvalConfig = serde_json::from_str(&assign.config_json)
        .map_err(|e| format!("invalid campaign config: {e}"))?;

    let mut cache = ModelCache::new();
    if let Some(dir) = &assign.cache_dir {
        cache = cache.with_disk_dir(dir);
    }

    let assigned: Vec<(usize, SessionSpec)> = assign
        .sessions
        .iter()
        .map(|s| (s.id as usize, s.spec.clone()))
        .collect();

    let workload = LoadGenerator::new(config)
        .build_assigned(&assigned, cache)
        .map_err(|e| format!("workload build failed: {e}"))?;

    let options = ServeOptions {
        shards: assign.shards.max(1) as usize,
    };
    match resume_frame {
        None => Ok(ServeEngine::new(workload, &options)),
        Some(bytes) => {
            let checkpoint = EngineCheckpoint::from_frame(bytes)
                .map_err(|e| format!("checkpoint frame decode failed: {e}"))?;
            ServeEngine::resume(workload, &options, &checkpoint)
                .map_err(|e| format!("resume from checkpoint failed: {e}"))
        }
    }
}

fn protocol_violation(expected: &str, got: &Message) -> WireError {
    match got {
        Message::Error { message } => {
            WireError::Protocol(format!("peer reported an error: {message}"))
        }
        other => WireError::Protocol(format!("expected {expected}, got {}", other.name())),
    }
}
