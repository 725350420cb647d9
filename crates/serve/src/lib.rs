//! # vvd-serve
//!
//! A deterministic, event-driven multi-link serving engine for the Veni
//! Vidi Dixi reproduction — the layer that runs VVD *online*: a base
//! station tracking many concurrent links, each feeding camera frames and
//! packet preambles into its own streaming
//! [`ChannelEstimator`](vvd_estimation::ChannelEstimator) in real time.
//!
//! The offline harness in `vvd-testbed` streams one combination's test set
//! through a list of estimators; this crate turns that inside out and
//! multiplexes *thousands of sessions* over shared compute:
//!
//! * [`SessionSpec`] / [`LoadGenerator`] — declarative workloads: each
//!   session names a scenario spec (its radio environment, one generated
//!   campaign per distinct spec, `Arc`-shared), an estimator spec, an
//!   arrival interval and a start offset.  Every VVD training resolves
//!   through one shared content-addressed model cache, so same-provenance
//!   sessions hold `Arc`-clones of a single trained network.
//! * [`SessionStore`] — owns the [`LinkSession`]s and shards each engine
//!   phase over [`vvd_dsp::fan_out`] workers.
//! * The **synthesis memo** (`SynthCounters`) — each distinct packet's
//!   estimator-independent DSP products (waveform regeneration + preamble
//!   LS) are synthesized once per engine and shared, behind an `Arc`, by
//!   every session that streams the same test set.  Retention is
//!   demand-counted (a product is dropped when its last consumer has
//!   prepared it) and bounded by a fixed byte budget; since every product
//!   is the output of one pure routine on immutable inputs, the memo never
//!   changes a bit.
//! * The **inference planner** (`BatchCounters` and friends) — coalesces
//!   the NN forward passes all due sessions would run this tick, grouped
//!   by the model's training-provenance
//!   [`ModelKey`](vvd_core::ModelKey), into one
//!   [`predict_batch`](vvd_core::VvdModel::predict_batch) call per
//!   distinct model, amortising the cost that dominates per-packet CPU
//!   time.
//! * [`wire`] — the workspace's one binary codec: length-prefixed frames
//!   (`magic · version · kind · len`), the deterministic little-endian
//!   [`WireCodec`](wire::WireCodec) (floats as IEEE-754 bit patterns)
//!   with impls for the value types that leave a process, and typed
//!   [`WireError`](wire::WireError)s for every way bytes can be
//!   truncated, corrupted or oversized.  `vvd-net` re-exports it for its
//!   cluster messages.
//! * [`checkpoint`] — session durability: each [`EngineCheckpoint`] is one
//!   wire frame of kind [`CHECKPOINT_KIND`] carrying every session's
//!   *streaming* state (cursor, trace, estimator state) across process
//!   boundaries, with in-memory and on-disk [`CheckpointStore`]s.
//!   Resuming from a checkpoint is bit-identical to never having stopped,
//!   because fit products are re-derived deterministically by the load
//!   generator and only streaming position is restored.
//! * [`serve`] / [`ServeReport`] — the tick loop and its accounting:
//!   per-session PER/CER/MSE, throughput, batch occupancy, synthesis-memo
//!   and model-cache counters, plus a stable outcome
//!   [`digest`](ServeReport::digest).
//!
//! # Determinism
//!
//! Serving is bit-identical to the offline pipeline by construction:
//! sessions share no mutable state, each engine phase visits each session
//! exactly once, and batched prediction is bit-identical to per-image
//! prediction (a pinned kernel-layer property) — so shard counts, arrival
//! orders and batch compositions are invisible in every decoded result.
//! `tests/serve_golden.rs` pins serve traces against
//! [`stream_estimators`](vvd_testbed::stream::stream_estimators) at shard
//! counts 1, 2 and 8, and `tests/serve_properties.rs` holds the report
//! digest fixed under randomised workloads.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod loadgen;
mod memo;
pub mod planner;
pub mod report;
pub mod session;
pub mod store;
pub mod timing;
pub mod wire;

pub use checkpoint::{
    load_checkpoint_file, CheckpointError, CheckpointStore, DirCheckpointStore, EngineCheckpoint,
    MemoryCheckpointStore, SessionCheckpoint, CHECKPOINT_KIND,
};
pub use engine::{serve, ServeEngine, ServeOptions};
pub use loadgen::{mixed_session_specs, LoadGenerator, ServeSpecError, Workload};
pub use memo::SynthCounters;
pub use planner::BatchCounters;
pub use report::{PhaseTimings, ReportAssemblyError, ServeReport, SessionReport};
pub use session::{LinkSession, SessionSpec};
pub use store::SessionStore;
