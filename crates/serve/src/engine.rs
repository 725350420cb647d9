//! The event-driven serving loop.
//!
//! [`serve`] drains a [`Workload`] tick by tick.  A tick is one instant of
//! the arrival schedule at which at least one session has a packet due —
//! empty instants are skipped, so the number of loop iterations is
//! bounded by the number of distinct arrival instants (each iteration
//! still scans every session for a cheap due/pending check; a due-tick
//! priority queue is the natural upgrade once idle sessions dominate).
//! Each tick runs three phases:
//!
//! 1. **Prepare** (parallel over shards): the synthesis memo
//!    (`crate::memo`) synthesizes each distinct packet the due sessions
//!    need that it does not already hold — waveform regeneration plus the
//!    preamble LS fit, the per-packet work that dominates CPU cost besides
//!    the forward pass itself — and every due session takes its packet's
//!    products from the memo and surfaces its NN inference plan.
//! 2. **Plan + batch** (sequential): the planner groups all plans by model
//!    key and issues one `predict_batch` per distinct model
//!    (`crate::planner`), scattering predictions back.
//! 3. **Complete** (parallel over shards): every due session decodes with
//!    the injected prediction, scores the packet and observes it.
//!
//! # Determinism
//!
//! Every number the loop produces is independent of the shard count *and*
//! of the arrival schedule: sessions share no mutable state (the memo
//! hands out immutable products of one pure routine), each phase visits
//! each session exactly once, batch composition only affects how
//! predictions are grouped — never their values (`predict_batch` is
//! bit-identical to per-image prediction) — and traces are kept per
//! session.  The serve golden test pins this down against the offline
//! streaming pipeline at shard counts 1, 2 and 8.
//!
//! [`ServeEngine`] exposes the same loop in stepping form (`run_ticks`),
//! which is what the cross-process coordinator in `vvd-net` drives between
//! tick barriers — stepping granularity is pure scheduling and invisible
//! in every trace.

use crate::checkpoint::{CheckpointError, CheckpointStore, EngineCheckpoint};
use crate::loadgen::Workload;
use crate::memo::{SynthMemo, SYNTH_BUDGET_BYTES};
use crate::planner::{run_batched_inference, BatchCounters};
use crate::report::{PhaseTimings, ServeReport};
use crate::store::SessionStore;
use crate::timing::Stopwatch;

/// Execution options of a serve run.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Number of shards (worker threads) the session store and the
    /// synthesis memo fan out over.  The default follows
    /// `vvd_dsp::worker_budget()` (the `VVD_WORKERS` override included);
    /// any value produces bit-identical results.
    pub shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: vvd_dsp::worker_budget(),
        }
    }
}

/// Runs the workload to completion and reports what happened.
pub fn serve(workload: Workload, options: &ServeOptions) -> ServeReport {
    let mut engine = ServeEngine::new(workload, options);
    while engine.step_tick() {}
    engine.finish()
}

/// A stepping form of the serve loop: the same three-phase tick engine as
/// [`serve`], but advanced explicitly, a bounded number of ticks at a
/// time.
///
/// This is what the cross-process serving layer (`vvd-net`) drives: a
/// worker process holds one `ServeEngine` over its assigned session
/// subset and advances it between coordinator tick barriers.  Stepping
/// granularity is pure scheduling — every trace the engine produces is
/// bit-identical whether the workload ran through one [`serve`] call or
/// through any sequence of [`run_ticks`](Self::run_ticks) calls.
pub struct ServeEngine {
    store: SessionStore,
    cache: vvd_estimation::ModelCache,
    shards: usize,
    ticks: u64,
    batches: BatchCounters,
    started: Stopwatch,
    phases: PhaseTimings,
    /// Each distinct packet's synthesized products, shared by every
    /// session that streams it.  Never checkpointed: the memo is
    /// recomputable, so a resume simply starts with an empty one.
    memo: SynthMemo,
    policy: Option<CheckpointPolicy>,
}

/// The engine's periodic checkpoint policy: write a frame to the store
/// every `every_ticks` processed ticks.
struct CheckpointPolicy {
    store: Box<dyn CheckpointStore>,
    every_ticks: u64,
    last_error: Option<CheckpointError>,
}

/// Snapshots a session store at a tick boundary (free function so the
/// engine can snapshot while holding `&mut self.policy`).
fn snapshot(
    store: &SessionStore,
    ticks: u64,
    batches: BatchCounters,
) -> Result<EngineCheckpoint, CheckpointError> {
    let mut sessions = Vec::with_capacity(store.sessions().len());
    for session in store.sessions() {
        sessions.push(session.checkpoint()?);
    }
    Ok(EngineCheckpoint {
        ticks,
        batches,
        sessions,
    })
}

impl ServeEngine {
    /// Wraps a built workload in a stepping engine.
    pub fn new(workload: Workload, options: &ServeOptions) -> Self {
        Self::with_synth_budget(workload, options, SYNTH_BUDGET_BYTES)
    }

    /// [`new`](Self::new) with the synthesis memo retaining at most
    /// `budget` bytes (the engine's own budget is `SYNTH_BUDGET_BYTES`).
    pub(crate) fn with_synth_budget(
        workload: Workload,
        options: &ServeOptions,
        budget: usize,
    ) -> Self {
        let Workload {
            store,
            cache,
            campaigns,
        } = workload;
        let campaigns = campaigns.into_iter().map(|(_, c)| c).collect();
        ServeEngine {
            store,
            cache,
            shards: options.shards.max(1),
            ticks: 0,
            batches: BatchCounters::default(),
            started: Stopwatch::start(),
            phases: PhaseTimings::default(),
            memo: SynthMemo::new(campaigns, budget),
            policy: None,
        }
    }

    /// Enables periodic checkpointing: after every `every_ticks` processed
    /// ticks (and the value is clamped to ≥ 1) the engine writes a frame
    /// to `store`.  Checkpoint *write* failures never interrupt serving —
    /// the durability layer is advisory — but the last error is kept and
    /// visible through [`checkpoint_error`](Self::checkpoint_error).
    pub fn with_checkpoints(mut self, store: Box<dyn CheckpointStore>, every_ticks: u64) -> Self {
        self.policy = Some(CheckpointPolicy {
            store,
            every_ticks: every_ticks.max(1),
            last_error: None,
        });
        self
    }

    /// Snapshots the engine at the current tick boundary.
    ///
    /// # Errors
    /// [`CheckpointError::MidTick`] when any session holds a pending
    /// packet (cannot happen between [`step_tick`](Self::step_tick)
    /// calls — ticks are atomic).
    pub fn checkpoint(&self) -> Result<EngineCheckpoint, CheckpointError> {
        snapshot(&self.store, self.ticks, self.batches)
    }

    /// Rebuilds an engine from a freshly built workload and a checkpoint:
    /// the fit products come from the workload (re-derived
    /// deterministically or rehydrated through the shared model cache),
    /// the streaming position from the checkpoint.  The resumed engine's
    /// remaining run is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    /// [`CheckpointError::SessionCount`] / `SessionMismatch` / `State`
    /// when the checkpoint does not belong to this workload or disagrees
    /// with itself.
    pub fn resume(
        workload: Workload,
        options: &ServeOptions,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let mut engine = ServeEngine::new(workload, options);
        if engine.store.len() != checkpoint.sessions.len() {
            return Err(CheckpointError::SessionCount {
                expected: checkpoint.sessions.len(),
                found: engine.store.len(),
            });
        }
        for (session, ckpt) in engine
            .store
            .sessions_mut()
            .iter_mut()
            .zip(&checkpoint.sessions)
        {
            session.restore(ckpt)?;
        }
        engine.ticks = checkpoint.ticks;
        engine.batches = checkpoint.batches;
        Ok(engine)
    }

    /// The last checkpoint-write failure, when periodic checkpointing is
    /// on and a write failed.  Serving itself is never interrupted by
    /// durability errors.
    pub fn checkpoint_error(&self) -> Option<&CheckpointError> {
        self.policy.as_ref().and_then(|p| p.last_error.as_ref())
    }

    /// `true` once every session has streamed all of its packets.
    pub fn finished(&self) -> bool {
        self.store.next_due_tick().is_none()
    }

    /// Ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Runs one tick (prepare / batch-infer / complete over every due
    /// session).  Returns `false` — without ticking — once the workload is
    /// drained.
    pub fn step_tick(&mut self) -> bool {
        let Some(tick) = self.store.next_due_tick() else {
            return false;
        };

        // Phase 1: synthesize the distinct packets the memo is missing,
        // then prepare every due session's packet (both sharded).
        let sw = Stopwatch::start();
        let keys = self.memo.fill(self.store.sessions(), tick, self.shards);
        let memo = &self.memo;
        self.store.for_each_sharded(self.shards, |session| {
            if session.due(tick) {
                let regen = session.next_synth_key().map(|key| memo.get(key));
                session.prepare(tick, regen);
            }
        });
        self.memo.release(&keys);
        self.phases.dsp += sw.elapsed();

        // Phase 2: one batched forward pass per distinct model.
        let sw = Stopwatch::start();
        self.batches
            .absorb(run_batched_inference(self.store.sessions_mut()));
        self.phases.infer += sw.elapsed();

        // Phase 3: decode, score, observe (sharded).
        let sw = Stopwatch::start();
        self.store.for_each_sharded(self.shards, |session| {
            if session.has_pending() {
                session.complete();
            }
        });
        self.phases.dsp += sw.elapsed();

        self.ticks += 1;

        // Periodic checkpointing, at the just-completed tick boundary.
        let due = self
            .policy
            .as_ref()
            .is_some_and(|p| self.ticks.is_multiple_of(p.every_ticks));
        if due {
            let snap = snapshot(&self.store, self.ticks, self.batches);
            let policy = self.policy.as_mut().expect("policy presence checked above");
            if let Err(e) = snap.and_then(|c| policy.store.save(&c)) {
                policy.last_error = Some(e);
            }
        }

        true
    }

    /// Runs up to `max_ticks` ticks, returning the number actually
    /// processed (less than `max_ticks` only when the workload drained).
    pub fn run_ticks(&mut self, max_ticks: u64) -> u64 {
        let mut processed = 0;
        while processed < max_ticks && self.step_tick() {
            processed += 1;
        }
        processed
    }

    /// Consumes the engine, assembling the final report.
    pub fn finish(self) -> ServeReport {
        let wall = self.started.elapsed();
        let sessions = self.store.into_sessions();
        let meta: Vec<(usize, String, String, usize)> = sessions
            .iter()
            .map(|s| {
                (
                    s.id(),
                    s.scenario().to_string(),
                    s.label().to_string(),
                    s.total_packets(),
                )
            })
            .collect();
        let traces = sessions
            .into_iter()
            .map(|s| s.into_trace())
            .collect::<Vec<_>>();

        let mut report = ServeReport::assemble(
            meta,
            traces,
            self.ticks,
            self.batches,
            self.cache.stats(),
            wall,
        )
        .expect("engine sessions are unique, id-ordered and stepped by construction");
        report.phases = self.phases;
        report.synth = self.memo.counters();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::LoadGenerator;
    use crate::session::SessionSpec;
    use vvd_testbed::EvalConfig;

    fn tiny_config() -> EvalConfig {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 3;
        cfg.packets_per_set = 12;
        cfg.kalman_warmup_packets = 2;
        cfg
    }

    fn cheap_specs() -> Vec<SessionSpec> {
        vec![
            SessionSpec::new("paper", "ground-truth"),
            SessionSpec::new("paper", "previous:100ms").every(2),
            SessionSpec::new("paper", "standard").every(3).offset(4),
            SessionSpec::new("rayleigh:doppler=10", "preamble:genie")
                .every(2)
                .offset(1),
        ]
    }

    #[test]
    fn stepping_engine_matches_one_shot_serve_at_any_granularity() {
        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let reference = serve(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );
        for granularity in [1u64, 3, 7, 1000] {
            let workload = gen.build(&cheap_specs()).unwrap();
            let mut engine = ServeEngine::new(workload, &ServeOptions { shards: 2 });
            assert!(!engine.finished());
            while !engine.finished() {
                let processed = engine.run_ticks(granularity);
                assert!(processed <= granularity);
            }
            assert_eq!(engine.run_ticks(5), 0, "a drained engine must not tick");
            assert_eq!(engine.memo.resident_bytes(), 0, "granularity {granularity}");
            let report = engine.finish();
            assert_eq!(report.digest(), reference.digest());
            assert_eq!(report.ticks, reference.ticks);
            assert_eq!(report.packets_streamed, reference.packets_streamed);
        }
    }

    #[test]
    fn serve_drains_every_session_and_reports_consistently() {
        let cfg = tiny_config();
        let workload = LoadGenerator::new(cfg).build(&cheap_specs()).unwrap();
        let report = serve(workload, &ServeOptions { shards: 2 });

        assert_eq!(report.sessions.len(), 4);
        let per_session = cfg.packets_per_set;
        for s in &report.sessions {
            assert_eq!(s.packets_streamed, per_session);
            assert!((0.0..=1.0).contains(&s.per));
        }
        assert_eq!(report.packets_streamed, 4 * per_session as u64);
        // Only non-empty ticks are processed: at least one tick per
        // arrival of the slowest session, at most the full schedule span
        // of the slowest session (every 3 ticks from offset 4).
        assert!(report.ticks >= per_session as u64);
        assert!(report.ticks <= 4 + 3 * (per_session as u64 - 1) + 1);
        assert!(report.packets_per_tick() > 0.0);
        // No VVD estimator in the mix: the planner never ran.
        assert_eq!(report.batches.batch_calls, 0);
        assert_eq!(report.batch_occupancy(), 0.0);
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted_run() {
        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let reference = serve(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );

        // Interrupt after 5 ticks, snapshot, resume in a fresh engine.
        let mut first = ServeEngine::new(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 2 },
        );
        assert_eq!(first.run_ticks(5), 5);
        let checkpoint = first.checkpoint().unwrap();
        drop(first);

        let mut resumed = ServeEngine::resume(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 3 },
            &checkpoint,
        )
        .unwrap();
        assert_eq!(resumed.ticks(), 5);
        while resumed.step_tick() {}
        let report = resumed.finish();
        assert_eq!(report.digest(), reference.digest());
        assert_eq!(report.ticks, reference.ticks);
    }

    #[test]
    fn periodic_checkpoint_policy_writes_resumable_frames() {
        use crate::checkpoint::{EngineCheckpoint, MemoryCheckpointStore};

        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let reference = serve(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );

        let mut engine = ServeEngine::new(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 2 },
        )
        .with_checkpoints(Box::new(MemoryCheckpointStore::new()), 3);
        assert_eq!(engine.run_ticks(7), 7);
        assert!(engine.checkpoint_error().is_none());

        // Reach inside: the policy wrote frames at ticks 3 and 6, and the
        // latest resumes to the same final digest.
        let store = engine
            .policy
            .take()
            .expect("checkpointing was enabled")
            .store;
        let latest = store.load_latest().unwrap().expect("frames were written");
        assert_eq!(latest.ticks, 6);
        // Frames survive a byte-level round trip (the wire is what crosses
        // process boundaries).
        let latest = EngineCheckpoint::from_frame(&latest.to_frame().unwrap()).unwrap();

        let mut resumed = ServeEngine::resume(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 1 },
            &latest,
        )
        .unwrap();
        while resumed.step_tick() {}
        assert_eq!(resumed.finish().digest(), reference.digest());
    }

    #[test]
    fn resume_rejects_a_foreign_checkpoint() {
        use crate::checkpoint::CheckpointError;

        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let mut engine = ServeEngine::new(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );
        engine.run_ticks(2);
        let checkpoint = engine.checkpoint().unwrap();

        // Wrong session count.
        let fewer: Vec<SessionSpec> = cheap_specs().into_iter().take(2).collect();
        assert!(matches!(
            ServeEngine::resume(
                gen.build(&fewer).unwrap(),
                &ServeOptions { shards: 1 },
                &checkpoint
            ),
            Err(CheckpointError::SessionCount { .. })
        ));

        // Same count, different workload shape.
        let swapped: Vec<SessionSpec> = cheap_specs().into_iter().rev().collect();
        assert!(matches!(
            ServeEngine::resume(
                gen.build(&swapped).unwrap(),
                &ServeOptions { shards: 1 },
                &checkpoint
            ),
            Err(CheckpointError::SessionMismatch { .. })
        ));
    }

    #[test]
    fn resume_rejects_a_checkpoint_that_disagrees_with_itself() {
        use crate::checkpoint::{CheckpointError, EngineCheckpoint, SessionCheckpoint};

        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let options = ServeOptions { shards: 1 };
        let reference = serve(gen.build(&cheap_specs()).unwrap(), &options);
        let mut engine = ServeEngine::new(gen.build(&cheap_specs()).unwrap(), &options);
        assert_eq!(engine.run_ticks(8), 8);
        let checkpoint = engine.checkpoint().unwrap();
        // Session 0 (ground truth, every tick) has scored and estimated.
        assert!(!checkpoint.sessions[0].trace.estimates.is_empty());

        let resume = |edit: fn(&mut SessionCheckpoint)| {
            let mut edited = checkpoint.clone();
            edit(&mut edited.sessions[0]);
            let frame = edited.to_frame().unwrap();
            let decoded = EngineCheckpoint::from_frame(&frame).unwrap();
            ServeEngine::resume(gen.build(&cheap_specs()).unwrap(), &options, &decoded)
        };
        let edits: [fn(&mut SessionCheckpoint); 4] = [
            |s| s.cursor += 1,
            |s| {
                s.trace.per_packet.pop();
            },
            |s| s.next_due += 3,
            |s| {
                s.trace.estimates.pop();
            },
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            assert!(
                matches!(
                    resume(edit),
                    Err(CheckpointError::SessionMismatch { session: 0, .. })
                ),
                "edit {i}"
            );
        }
        let mut unedited = resume(|_| ()).unwrap();
        while unedited.step_tick() {}
        assert_eq!(unedited.finish().digest(), reference.digest());
    }

    #[test]
    fn shard_count_and_arrival_schedule_do_not_change_the_digest() {
        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let base = serve(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 1 },
        );
        // Different shard count.
        let sharded = serve(
            gen.build(&cheap_specs()).unwrap(),
            &ServeOptions { shards: 3 },
        );
        assert_eq!(base.digest(), sharded.digest());
        // Different arrival schedule (all sessions burst at tick 0, one
        // packet per tick): same outcomes, different timing.
        let burst: Vec<SessionSpec> = cheap_specs()
            .into_iter()
            .map(|s| s.every(1).offset(0))
            .collect();
        let bursty = serve(gen.build(&burst).unwrap(), &ServeOptions { shards: 2 });
        assert_eq!(base.digest(), bursty.digest());
        assert!(bursty.ticks < base.ticks);
    }

    /// Steps an engine until the workload drains — the loop of [`serve`].
    fn drain(mut engine: ServeEngine) -> ServeEngine {
        while engine.step_tick() {}
        engine
    }

    #[test]
    fn memo_synthesizes_each_distinct_packet_once() {
        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let scored = (cfg.packets_per_set - cfg.kalman_warmup_packets) as u64;

        // Three sessions replay one test stream at intervals 1, 2 and 3.
        // Registry estimators regenerate exactly their scored packets.
        let replay = [
            SessionSpec::new("paper", "ground-truth"),
            SessionSpec::new("paper", "standard").every(2),
            SessionSpec::new("paper", "previous:100ms")
                .every(3)
                .offset(1),
        ];
        for shards in [1, 3] {
            let report = serve(gen.build(&replay).unwrap(), &ServeOptions { shards });
            assert_eq!(report.synth.requests, report.packets_served);
            assert_eq!(report.synth.requests, 3 * scored);
            assert_eq!(report.synth.syntheses, scored);
            assert!(report.synth.peak_resident_bytes > 0);
        }

        // Sessions on distinct test sets share nothing.
        let mut cfg = tiny_config();
        cfg.n_combinations = 3;
        let distinct = [
            SessionSpec::new("paper", "ground-truth"),
            SessionSpec::new("paper", "standard")
                .combination(1)
                .every(2),
            SessionSpec::new("paper", "previous:100ms").combination(2),
            SessionSpec::new("rayleigh:doppler=10", "ground-truth").every(3),
        ];
        let report = serve(
            LoadGenerator::new(cfg).build(&distinct).unwrap(),
            &ServeOptions { shards: 2 },
        );
        assert!(report.synth.requests > 0);
        assert_eq!(report.synth.syntheses, report.synth.requests);
    }

    #[test]
    fn memo_holds_nothing_once_the_workload_drains() {
        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let options = ServeOptions { shards: 2 };

        let engine = drain(ServeEngine::new(
            gen.build(&cheap_specs()).unwrap(),
            &options,
        ));
        assert_eq!(engine.memo.resident_bytes(), 0);
        let reference = engine.finish();
        assert!(reference.synth.peak_resident_bytes > 0);

        // Resumed from a cut at the first, middle and last tick: demand is
        // counted from the restored cursors, so products consumed before
        // the cut are never waited for.
        for cut in [1, reference.ticks / 2, reference.ticks - 1] {
            let mut first = ServeEngine::new(gen.build(&cheap_specs()).unwrap(), &options);
            assert_eq!(first.run_ticks(cut), cut);
            let checkpoint = first.checkpoint().unwrap();
            let resumed = drain(
                ServeEngine::resume(gen.build(&cheap_specs()).unwrap(), &options, &checkpoint)
                    .unwrap(),
            );
            assert_eq!(resumed.memo.resident_bytes(), 0, "cut after tick {cut}");
            assert_eq!(resumed.finish().digest(), reference.digest());
        }
    }

    #[test]
    fn a_tiny_synthesis_budget_bounds_residency_without_changing_a_bit() {
        let cfg = tiny_config();
        let gen = LoadGenerator::new(cfg);
        let options = ServeOptions { shards: 2 };
        let unbounded = serve(gen.build(&cheap_specs()).unwrap(), &options);
        let peak = unbounded.synth.peak_resident_bytes as usize;

        for budget in [0, peak / 4, peak / 2] {
            let mut engine = ServeEngine::with_synth_budget(
                gen.build(&cheap_specs()).unwrap(),
                &options,
                budget,
            );
            while engine.step_tick() {
                assert!(engine.memo.resident_bytes() <= budget);
            }
            let report = engine.finish();
            assert!(report.synth.peak_resident_bytes as usize <= budget);
            assert_eq!(report.digest(), unbounded.digest(), "budget {budget}");
            assert_eq!(report.synth.requests, unbounded.synth.requests);
            // Products that did not fit were synthesized again.
            assert!(report.synth.syntheses > unbounded.synth.syntheses);
        }
    }
}
