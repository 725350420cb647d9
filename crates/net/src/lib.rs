//! # vvd-net
//!
//! Cross-process serving for the Veni Vidi Dixi reproduction: a
//! coordinator partitions a multi-link serve workload over worker
//! *processes* and merges their traces into one report that is
//! **bit-identical** to the single-process run — the same
//! any-topology-invisible guarantee the serve engine gives for threads,
//! extended across process boundaries.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — `vvd-serve`'s binary codec, re-exported: length-prefixed
//!   frames (`magic · version · kind · len`), a deterministic
//!   little-endian [`WireCodec`] (floats travel as IEEE-754 bit patterns),
//!   and typed [`WireError`]s for every way a stream can be truncated,
//!   corrupted or oversized — decoding never panics and never allocates
//!   from an untrusted length.  Engine checkpoints are frames of the same
//!   codec, so one codec carries every byte that leaves a process.
//! * [`message`] — the nine-message cluster protocol
//!   ([`Hello`](message::Hello) … [`Message::Shutdown`]), including the
//!   checkpoint/resume pair ([`CheckpointFrame`](message::CheckpointFrame),
//!   [`ResumeSessions`](message::ResumeSessions)) behind crash recovery.
//!   Messages carry serve's own types ([`SessionSpec`](vvd_serve::SessionSpec),
//!   [`EstimatorTrace`](vvd_testbed::stream::EstimatorTrace), the run
//!   counters) through their codec impls.
//! * [`transport`] — who carries the frames: in-process loopback channel
//!   pairs, worker-side stdio, coordinator-side child processes.
//! * [`worker`] / [`cluster`] — the two protocol roles: a worker wraps a
//!   stepping [`ServeEngine`](vvd_serve::ServeEngine) over its assigned
//!   session subset; the coordinator ([`serve_cluster`]) partitions
//!   round-robin, staggers fits so a shared disk model cache trains every
//!   distinct model exactly once cluster-wide, drives tick barriers and
//!   merges traces in global session order.  With checkpoints on
//!   ([`ClusterOptions::checkpoints`]), every barrier ack carries a
//!   checkpoint frame and a worker that dies mid-stream is respawned and
//!   resumed from its last acked checkpoint — the merged digest is still
//!   bit-identical to the uninterrupted run.
//!
//! Cluster sizing follows `VVD_PROCS` × `VVD_WORKERS`
//! ([`vvd_dsp::proc_budget`] / [`vvd_dsp::per_process_worker_budget`]).
//! The `vvd-worker` binary in this crate is the spawnable worker; any
//! coordinator binary can instead be its own worker fleet via
//! [`maybe_run_worker`] + [`WorkerBackend::SelfExec`].

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod message;
pub mod transport;
pub mod worker;

pub use vvd_serve::wire;

pub use cluster::{
    serve_cluster, serve_cluster_detailed, ClusterError, ClusterOptions, ClusterRun, InjectedFault,
    WorkerBackend,
};
pub use message::Message;
pub use transport::{loopback_pair, ChildTransport, StdioTransport, Transport};
pub use wire::{WireCodec, WireError};
pub use worker::{maybe_run_worker, run_stdio_worker, run_worker, WORKER_ARG};
