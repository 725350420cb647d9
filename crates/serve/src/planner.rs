//! The cross-session inference planner.
//!
//! After the prepare phase of a tick, every due session holds at most one
//! [`VvdInferencePlan`](vvd_estimation::VvdInferencePlan): the NN forward
//! pass its estimator would have run inline.  The planner groups those
//! plans by the model's training-provenance [`ModelKey`] — equal keys mean
//! bit-identical weights, so the plans are interchangeable — and issues
//! *one* [`VvdModel::predict_batch`] call per distinct model per tick,
//! scattering the outputs back to their sessions in session-id order.
//!
//! This is where the serving layer wins: with `S` same-model sessions due
//! in a tick, the per-packet cost pays one batched forward pass instead of
//! `S` single-image passes.  `predict_batch` is
//! bit-identical to per-image prediction (a pinned property of the kernel
//! layer), so batching is invisible in every decoded result — only in the
//! [`BatchCounters`].

use crate::session::LinkSession;
use std::collections::BTreeMap;
use vvd_core::{ModelKey, VvdModel};

/// Counters describing the planner's batching effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Batched forward calls issued ([`VvdModel::predict_batch`] calls).
    pub batch_calls: u64,
    /// Images predicted across all batched calls.
    pub images: u64,
    /// Largest single batch.
    pub max_batch: usize,
}

vvd_dsp::wire_struct!(BatchCounters {
    batch_calls,
    images,
    max_batch
});

impl BatchCounters {
    /// Mean images per batched call — the "batch occupancy".  An occupancy
    /// above 1 means the planner amortised forward passes across sessions;
    /// 0 when no inference ran at all.
    pub fn occupancy(&self) -> f64 {
        if self.batch_calls == 0 {
            0.0
        } else {
            self.images as f64 / self.batch_calls as f64
        }
    }

    /// Accumulates another tick's counters.
    pub fn absorb(&mut self, other: BatchCounters) {
        self.batch_calls += other.batch_calls;
        self.images += other.images;
        self.max_batch = self.max_batch.max(other.max_batch);
    }
}

/// One session's contribution to a tick's batch plan.
struct PlanItem {
    session: usize,
    model: VvdModel,
}

/// Groups the pending plans of all due sessions by model key, runs one
/// batched forward pass per distinct model, and injects each prediction
/// back into its session.  Returns the tick's batching counters.
///
/// Sessions are scanned and batched in session-id order and the groups in
/// `ModelKey` order, so the composition of every batch — and therefore the
/// counters — is deterministic and independent of shard count.
pub(crate) fn run_batched_inference(sessions: &mut [LinkSession]) -> BatchCounters {
    let mut groups: BTreeMap<ModelKey, Vec<PlanItem>> = BTreeMap::new();
    for (idx, session) in sessions.iter().enumerate() {
        if let Some((model, _)) = session.pending_plan() {
            groups.entry(model.key()).or_default().push(PlanItem {
                session: idx,
                model: model.clone(),
            });
        }
    }

    let mut counters = BatchCounters::default();
    for items in groups.into_values() {
        let predictions = {
            let images = items
                .iter()
                .map(|item| {
                    sessions[item.session]
                        .pending_plan()
                        .expect("plan items only exist for planning sessions")
                        .1
                })
                .collect::<Vec<_>>();
            items[0].model.predict_batch(images)
        };
        counters.batch_calls += 1;
        counters.images += items.len() as u64;
        counters.max_batch = counters.max_batch.max(items.len());
        for (item, prediction) in items.iter().zip(predictions) {
            sessions[item.session].inject_prediction(prediction);
        }
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_images_per_call() {
        let mut c = BatchCounters::default();
        assert_eq!(c.occupancy(), 0.0);
        c.absorb(BatchCounters {
            batch_calls: 2,
            images: 10,
            max_batch: 7,
        });
        c.absorb(BatchCounters {
            batch_calls: 2,
            images: 2,
            max_batch: 1,
        });
        assert!((c.occupancy() - 3.0).abs() < 1e-12);
        assert_eq!(c.max_batch, 7);
    }
}
