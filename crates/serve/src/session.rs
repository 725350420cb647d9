//! Link sessions: the unit of state the serving engine multiplexes.
//!
//! One [`LinkSession`] is one tracked radio link — a fitted
//! [`ChannelEstimator`](vvd_estimation::ChannelEstimator) streaming the
//! packets of its campaign's test set in transmission order through the
//! offline streaming core's per-packet step
//! ([`step_packet`]), split into the two halves the engine
//! interleaves across sessions:
//!
//! 1. `LinkSession::prepare` — take the due packet's products from the
//!    engine's synthesis memo, and ask the estimator for its
//!    [`VvdInferencePlan`] (the NN forward pass it would run inline);
//! 2. `LinkSession::complete` — run [`step_packet`] with the
//!    batch-computed prediction, when one was planned.
//!
//! Between the two halves the engine's planner coalesces all sessions'
//! plans into per-model `predict_batch` calls.  Because batched prediction
//! is bit-identical to per-image prediction and sessions share no mutable
//! state, every session's trace is bit-identical to running that session
//! alone through `vvd_testbed::stream::stream_estimators` — regardless of
//! how many other sessions were in flight, in which order packets arrived,
//! or how many shards the store ran on.

use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use crate::memo::SynthKey;
use std::sync::Arc;
use vvd_core::VvdModel;
use vvd_dsp::FirFilter;
use vvd_estimation::estimator::{BoxedEstimator, VvdInferencePlan};
use vvd_testbed::stream::{step_packet, EstimatorTrace, PacketProducts, StreamPacket};
use vvd_testbed::{Campaign, SetCombination};
use vvd_vision::DepthImage;

/// Declarative description of one link session of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Scenario spec string of the link's environment (sessions with equal
    /// specs share one generated campaign).
    pub scenario: String,
    /// Estimator spec string (anything the
    /// [`EstimatorRegistry`](vvd_estimation::EstimatorRegistry) builds).
    pub estimator: String,
    /// Packet arrival period in engine ticks (≥ 1).
    pub interval_ticks: u64,
    /// Tick of the first packet arrival.
    pub offset_ticks: u64,
    /// Index of the campaign set combination the session streams
    /// (`< EvalConfig::n_combinations`).
    pub combination: usize,
}

impl SessionSpec {
    /// A session over the given scenario and estimator specs, with one
    /// packet per tick starting at tick 0 on combination 0.
    pub fn new(scenario: impl Into<String>, estimator: impl Into<String>) -> Self {
        SessionSpec {
            scenario: scenario.into(),
            estimator: estimator.into(),
            interval_ticks: 1,
            offset_ticks: 0,
            combination: 0,
        }
    }

    /// Sets the arrival period in ticks.
    pub fn every(mut self, ticks: u64) -> Self {
        self.interval_ticks = ticks;
        self
    }

    /// Sets the first-arrival tick.
    pub fn offset(mut self, ticks: u64) -> Self {
        self.offset_ticks = ticks;
        self
    }

    /// Sets the set-combination index the session streams.
    pub fn combination(mut self, index: usize) -> Self {
        self.combination = index;
        self
    }
}

/// Everything [`LinkSession::prepare`] computed for the due packet, handed
/// through the planner to [`LinkSession::complete`].
struct PendingPacket {
    /// The packet's synthesized products, shared with every other session
    /// of the same test set — present iff the packet is scored or the
    /// estimator wants preamble observations (mirroring the regeneration
    /// policy of the offline streaming core).
    regen: Option<Arc<PacketProducts>>,
    /// The NN forward pass the estimator would run inline, if any.
    plan: Option<VvdInferencePlan>,
    /// The batch-computed output of `plan`, injected by the planner.
    prediction: Option<FirFilter>,
}

/// One live link session: a fitted estimator plus its streaming cursor and
/// accumulated trace.
pub struct LinkSession {
    id: usize,
    scenario: String,
    campaign: Arc<Campaign>,
    /// The campaign's index in the workload (the first part of every
    /// [`SynthKey`] of this session).
    campaign_slot: usize,
    combination: SetCombination,
    estimator: BoxedEstimator,
    wants_preamble: bool,
    score_from: usize,
    interval: u64,
    offset: u64,
    next_due: u64,
    cursor: usize,
    pending: Option<PendingPacket>,
    trace: EstimatorTrace,
}

impl LinkSession {
    /// Wires up a session from its fitted estimator and shared campaign.
    ///
    /// The estimator must already be fitted on the combination's training
    /// sets (the [`LoadGenerator`](crate::LoadGenerator) does this, sharing
    /// trainings through one model cache so that same-provenance sessions
    /// hold `Arc`-clones of one network).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        scenario: String,
        label: String,
        campaign: Arc<Campaign>,
        campaign_slot: usize,
        combination: SetCombination,
        estimator: BoxedEstimator,
        score_from: usize,
        interval: u64,
        offset: u64,
    ) -> Self {
        let wants_preamble = estimator.wants_preamble_observations();
        LinkSession {
            id,
            scenario,
            campaign,
            campaign_slot,
            combination,
            estimator,
            wants_preamble,
            score_from,
            interval: interval.max(1),
            offset,
            next_due: offset,
            cursor: 0,
            pending: None,
            trace: EstimatorTrace::new(label),
        }
    }

    /// The session's workload-wide identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The scenario spec the session's campaign was generated from.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The label the session's results are reported under.
    pub fn label(&self) -> &str {
        &self.trace.label
    }

    /// Number of test packets this session streams in total.
    pub fn total_packets(&self) -> usize {
        self.campaign.set(self.combination.test).packets.len()
    }

    /// `true` once every test packet has been streamed.
    pub fn finished(&self) -> bool {
        self.cursor >= self.total_packets()
    }

    /// The tick of the session's next packet arrival (meaningless once
    /// [`finished`](Self::finished)).
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// `true` when a packet of this session is due at `tick`.
    pub fn due(&self, tick: u64) -> bool {
        !self.finished() && self.next_due <= tick
    }

    /// `true` when `prepare` ran and `complete` has not yet consumed its
    /// output.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// `true` when packet `k` needs its synthesized products (it is scored
    /// or the estimator consumes preamble observations) — the exact
    /// condition [`prepare`](Self::prepare) takes a product under.
    fn needs_regen(&self, k: usize) -> bool {
        k >= self.score_from || self.wants_preamble
    }

    /// The memo key of packet `k`'s products, or `None` when packet `k`
    /// is served without them.
    fn synth_key(&self, k: usize) -> Option<SynthKey> {
        self.needs_regen(k).then(|| {
            let test = self.combination.test;
            (
                self.campaign_slot,
                test,
                self.campaign.set(test).packets[k].index,
            )
        })
    }

    /// The memo key the next [`prepare`](Self::prepare) consumes, if any.
    pub(crate) fn next_synth_key(&self) -> Option<SynthKey> {
        self.synth_key(self.cursor)
    }

    /// One memo key per product the session has yet to consume, in
    /// streaming order.
    pub(crate) fn remaining_synth_keys(&self) -> impl Iterator<Item = SynthKey> + '_ {
        (self.cursor..self.total_packets()).filter_map(|k| self.synth_key(k))
    }

    /// The accumulated trace (borrowed; see
    /// [`into_trace`](Self::into_trace) for the owned form).
    pub fn trace(&self) -> &EstimatorTrace {
        &self.trace
    }

    /// Consumes the session, returning its trace.
    pub fn into_trace(self) -> EstimatorTrace {
        self.trace
    }

    /// Snapshots the session's streaming state (cursor, next-due tick,
    /// accumulated trace, estimator state) as a [`SessionCheckpoint`].
    ///
    /// Only valid at a tick boundary: a session holding a
    /// prepared-but-uncompleted packet cannot be snapshotted (the pending
    /// half-state is deliberately not serializable).
    pub(crate) fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        if self.pending.is_some() {
            return Err(CheckpointError::MidTick { session: self.id });
        }
        Ok(SessionCheckpoint {
            id: self.id,
            scenario: self.scenario.clone(),
            interval: self.interval,
            next_due: self.next_due,
            cursor: self.cursor,
            estimator: self.estimator.save_state(),
            trace: self.trace.clone(),
        })
    }

    /// Restores a freshly built (and freshly *fitted*) session to the
    /// checkpointed streaming position.
    ///
    /// The checkpoint carries only streaming state; the fit products
    /// (Kalman AR coefficients, VVD weights) were already re-derived by
    /// the load generator — deterministically, or rehydrated through the
    /// model cache — before this runs.  The identity fields pin that the
    /// rebuilt session really is the checkpointed one, and the trace and
    /// the next-due tick must be the ones streaming reaches at the cursor.
    pub(crate) fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        let mismatch = |context: String| CheckpointError::SessionMismatch {
            session: ckpt.id,
            context,
        };
        if self.id != ckpt.id {
            return Err(mismatch(format!("id {} in the rebuilt workload", self.id)));
        }
        if self.scenario != ckpt.scenario {
            return Err(mismatch(format!(
                "scenario {:?} vs checkpointed {:?}",
                self.scenario, ckpt.scenario
            )));
        }
        if self.trace.label != ckpt.trace.label {
            return Err(mismatch(format!(
                "label {:?} vs checkpointed {:?}",
                self.trace.label, ckpt.trace.label
            )));
        }
        if self.interval != ckpt.interval {
            return Err(mismatch(format!(
                "interval {} vs checkpointed {}",
                self.interval, ckpt.interval
            )));
        }
        if ckpt.cursor > self.total_packets() {
            return Err(mismatch(format!(
                "cursor {} beyond the campaign's {} test packets",
                ckpt.cursor,
                self.total_packets()
            )));
        }
        ckpt.trace
            .check_shape(ckpt.cursor, self.score_from)
            .map_err(|e| mismatch(format!("trace at cursor {}: {e}", ckpt.cursor)))?;
        let due = u64::try_from(ckpt.cursor)
            .ok()
            .and_then(|cursor| cursor.checked_mul(self.interval))
            .and_then(|ticks| ticks.checked_add(self.offset));
        if due != Some(ckpt.next_due) {
            return Err(mismatch(format!(
                "next due tick {} at cursor {} (interval {}, offset {})",
                ckpt.next_due, ckpt.cursor, self.interval, self.offset
            )));
        }
        self.estimator
            .load_state(&ckpt.estimator)
            .map_err(|error| CheckpointError::State {
                session: ckpt.id,
                error,
            })?;
        self.next_due = ckpt.next_due;
        self.cursor = ckpt.cursor;
        self.trace = ckpt.trace.clone();
        Ok(())
    }

    /// Phase 1 of serving the due packet: take its synthesized products
    /// (the memo's product for [`next_synth_key`](Self::next_synth_key))
    /// and record the estimator's inference plan.
    ///
    /// # Panics
    /// Panics when no packet is due (the engine only calls this for due
    /// sessions), when a pending packet was never completed, or when
    /// `regen` is missing for a packet that needs products (or given for
    /// one that does not).
    pub(crate) fn prepare(&mut self, tick: u64, regen: Option<Arc<PacketProducts>>) {
        assert!(self.due(tick), "prepare() without a due packet");
        assert!(
            self.pending.is_none(),
            "prepare() with an unconsumed pending packet"
        );
        assert_eq!(
            regen.is_some(),
            self.needs_regen(self.cursor),
            "prepare() takes products exactly for regenerated packets"
        );
        let packet = StreamPacket {
            campaign: &self.campaign,
            set: self.combination.test,
            index: self.cursor,
            score: self.cursor >= self.score_from,
            products: regen.as_deref(),
        };
        // The inference plan is only collected for packets the engine will
        // actually decode — the step never estimates warm-up packets.
        let plan = packet
            .score
            .then(|| self.estimator.vvd_plan(&packet.request()))
            .flatten();
        self.pending = Some(PendingPacket {
            regen,
            plan,
            prediction: None,
        });
    }

    /// The pending inference plan, as `(model, input image)` — what the
    /// planner groups by [`VvdModel::key`] into batched forward passes.
    pub(crate) fn pending_plan(&self) -> Option<(&VvdModel, &DepthImage)> {
        let pending = self.pending.as_ref()?;
        let plan = pending.plan.as_ref()?;
        let test_set = self.campaign.set(self.combination.test);
        Some((&plan.model, &test_set.frames[plan.frame_index].image))
    }

    /// Hands the session the batch-computed output of its pending plan.
    ///
    /// # Panics
    /// Panics when no plan is pending — predictions must match plans
    /// one-to-one.
    pub(crate) fn inject_prediction(&mut self, prediction: FirFilter) {
        let pending = self
            .pending
            .as_mut()
            .expect("inject_prediction() without a pending packet");
        assert!(
            pending.plan.is_some(),
            "inject_prediction() without a pending plan"
        );
        pending.prediction = Some(prediction);
    }

    /// Phase 2 of serving the due packet: [`step_packet`] with the
    /// injected prediction, then advance.
    ///
    /// # Panics
    /// Panics when [`prepare`](Self::prepare) has not run for this packet.
    pub(crate) fn complete(&mut self) {
        let pending = self
            .pending
            .take()
            .expect("complete() without a prepared packet");
        let packet = StreamPacket {
            campaign: &self.campaign,
            set: self.combination.test,
            index: self.cursor,
            score: self.cursor >= self.score_from,
            products: pending.regen.as_deref(),
        };
        step_packet(
            self.estimator.as_mut(),
            &mut self.trace,
            &packet,
            pending.prediction.as_ref(),
        );
        self.cursor += 1;
        self.next_due += self.interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_every_knob() {
        let spec = SessionSpec::new("paper", "ground-truth")
            .every(3)
            .offset(7)
            .combination(1);
        assert_eq!(spec.scenario, "paper");
        assert_eq!(spec.estimator, "ground-truth");
        assert_eq!(spec.interval_ticks, 3);
        assert_eq!(spec.offset_ticks, 7);
        assert_eq!(spec.combination, 1);
    }
}
