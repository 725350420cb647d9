//! The synthesis memo: each distinct packet is synthesized once per engine.
//!
//! A packet's estimator-independent DSP products ([`PacketProducts`]: the
//! transmitted frame, the received waveform and the preamble LS fit) are a
//! pure function of the `Arc`-shared immutable campaign and the packet's
//! `(test set, record index)`.  Sessions that stream the same test set
//! (every session of a scenario on the same combination) therefore need
//! the very same bytes, usually at different ticks.  The memo keys each
//! product by [`SynthKey`] — `(campaign slot, test set, record index)`,
//! where the slot is the campaign's index in the
//! [`Workload`](crate::Workload) the [`LoadGenerator`](crate::LoadGenerator)
//! built — and hands every consumer an `Arc` of the one synthesized copy.
//!
//! Each tick [`SynthMemo::fill`] collects the due sessions' keys and
//! synthesizes only the distinct keys the memo is missing, fanned out over
//! the shards.  The sessions then prepare from [`SynthMemo::get`], and
//! [`SynthMemo::release`] retires every consumed demand.
//!
//! **Retention is exact.**  On its first fill — after a resume has
//! restored the cursors — the memo counts each key's remaining consumers
//! by walking every session's remaining packets under the session's
//! regeneration rule.  A product is dropped as soon as its last consumer
//! has prepared it, so a drained engine holds nothing.
//!
//! **Retention is bounded.**  Retained products never exceed
//! [`SYNTH_BUDGET_BYTES`].  A product that does not fit serves its own
//! tick and is dropped; its later consumers synthesize it again, with
//! identical bits.
//!
//! **The memo cannot change a result.**  Every product is the output of
//! [`PacketProducts::synthesize`], the offline streaming core's routine too,
//! on the same immutable inputs, whether it was retained, re-synthesized or
//! synthesized by another shard.  The memo is never checkpointed: a
//! resumed engine starts with an empty memo and simply synthesizes what it
//! needs.

use crate::session::LinkSession;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vvd_dsp::{par_map, Complex, FirFilter};
use vvd_testbed::stream::PacketProducts;
use vvd_testbed::Campaign;

/// Identifies one synthesized packet within an engine: `(campaign slot,
/// test set, record index)`.
pub(crate) type SynthKey = (usize, usize, usize);

/// Upper bound on the bytes of products the memo retains across ticks
/// (256 MiB).  A product is about 0.33 MB at the tiny preset and about
/// 1.2 MB at the paper preset.
pub(crate) const SYNTH_BUDGET_BYTES: usize = 256 << 20;

/// Counters describing the synthesis memo's work.
///
/// Observability only: they are left out of the report digest and —
/// unlike [`BatchCounters`](crate::BatchCounters) — out of checkpoint
/// frames, so a resumed engine counts from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthCounters {
    /// Products the due sessions asked for (one per regenerated packet).
    pub requests: u64,
    /// Products actually synthesized.
    pub syntheses: u64,
    /// Largest number of bytes the memo retained at once.
    pub peak_resident_bytes: u64,
}

vvd_dsp::wire_struct!(SynthCounters {
    requests,
    syntheses,
    peak_resident_bytes
});

impl SynthCounters {
    /// Accumulates another engine's counters: requests and syntheses sum,
    /// the peak is the largest single-engine peak (each engine's memo is
    /// bounded on its own).
    pub fn absorb(&mut self, other: SynthCounters) {
        self.requests += other.requests;
        self.syntheses += other.syntheses;
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
    }
}

/// The bytes a product occupies: its buffers plus the struct itself.
fn product_bytes(product: &PacketProducts) -> usize {
    let complex = std::mem::size_of::<Complex>();
    std::mem::size_of::<PacketProducts>()
        + product.tx.frame.psdu.len()
        + product.tx.chips.len() * std::mem::size_of::<f64>()
        + product.tx.waveform.len() * complex
        + product.received.len() * complex
        + product.preamble_est.as_ref().map_or(0, FirFilter::len) * complex
}

/// A product the memo keeps across ticks, with its accounted size.
struct Retained {
    product: Arc<PacketProducts>,
    bytes: usize,
}

/// The demand-counted synthesis memo of one engine.
pub(crate) struct SynthMemo {
    /// The workload's campaigns, indexed by campaign slot.
    campaigns: Vec<Arc<Campaign>>,
    /// Retention budget in bytes.
    budget: usize,
    /// Remaining consumers per key; `None` until the first fill.
    demand: Option<BTreeMap<SynthKey, usize>>,
    /// Products kept for later consumers.
    retained: BTreeMap<SynthKey, Retained>,
    /// Products over budget, kept for the current tick only.
    transient: BTreeMap<SynthKey, Arc<PacketProducts>>,
    /// Bytes of `retained`.
    resident_bytes: usize,
    counters: SynthCounters,
}

impl SynthMemo {
    /// An empty memo over the workload's campaigns (indexed by slot).
    pub(crate) fn new(campaigns: Vec<Arc<Campaign>>, budget: usize) -> Self {
        SynthMemo {
            campaigns,
            budget,
            demand: None,
            retained: BTreeMap::new(),
            transient: BTreeMap::new(),
            resident_bytes: 0,
            counters: SynthCounters::default(),
        }
    }

    /// The memo's counters so far.
    pub(crate) fn counters(&self) -> SynthCounters {
        self.counters
    }

    /// Bytes the memo currently retains.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Makes every product the sessions due at `tick` will prepare
    /// available through [`get`](Self::get), synthesizing the missing
    /// distinct keys over up to `shards` threads.  Returns the due keys,
    /// one per consumer, for the matching [`release`](Self::release).
    pub(crate) fn fill(
        &mut self,
        sessions: &[LinkSession],
        tick: u64,
        shards: usize,
    ) -> Vec<SynthKey> {
        if self.demand.is_none() {
            let mut demand = BTreeMap::new();
            for key in sessions.iter().flat_map(LinkSession::remaining_synth_keys) {
                *demand.entry(key).or_insert(0) += 1;
            }
            self.demand = Some(demand);
        }

        let keys: Vec<SynthKey> = sessions
            .iter()
            .filter(|s| s.due(tick))
            .filter_map(LinkSession::next_synth_key)
            .collect();
        let missing: Vec<SynthKey> = keys
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .filter(|key| !self.retained.contains_key(key))
            .collect();
        self.counters.requests += keys.len() as u64;
        self.counters.syntheses += missing.len() as u64;

        let products = par_map(&missing, shards, |_, &(slot, set, record)| {
            PacketProducts::synthesize(&self.campaigns[slot], set, record)
        });
        for (key, product) in missing.iter().zip(products) {
            let bytes = product_bytes(&product);
            let product = Arc::new(product);
            if self.resident_bytes + bytes <= self.budget {
                self.resident_bytes += bytes;
                self.retained.insert(*key, Retained { product, bytes });
            } else {
                self.transient.insert(*key, product);
            }
        }
        self.counters.peak_resident_bytes = self
            .counters
            .peak_resident_bytes
            .max(self.resident_bytes as u64);
        keys
    }

    /// The product of a key the current tick's [`fill`](Self::fill)
    /// covered.
    ///
    /// # Panics
    /// Panics when the key was not filled this tick.
    pub(crate) fn get(&self, key: SynthKey) -> Arc<PacketProducts> {
        let product = match self.retained.get(&key) {
            Some(retained) => &retained.product,
            None => self
                .transient
                .get(&key)
                .expect("fill() synthesized every due key"),
        };
        Arc::clone(product)
    }

    /// Retires one demand per key (the keys [`fill`](Self::fill)
    /// returned, once their sessions have prepared), dropping every
    /// product whose last consumer is done and every over-budget product.
    pub(crate) fn release(&mut self, keys: &[SynthKey]) {
        let demand = self.demand.as_mut().expect("fill() primes the demand");
        for key in keys {
            let remaining = demand.get_mut(key).map_or(0, |n| {
                *n -= 1;
                *n
            });
            if remaining == 0 {
                demand.remove(key);
                if let Some(retained) = self.retained.remove(key) {
                    self.resident_bytes -= retained.bytes;
                }
            }
        }
        self.transient.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_absorb_sums_work_and_keeps_the_largest_peak() {
        let mut c = SynthCounters::default();
        c.absorb(SynthCounters {
            requests: 30,
            syntheses: 10,
            peak_resident_bytes: 700,
        });
        c.absorb(SynthCounters {
            requests: 6,
            syntheses: 2,
            peak_resident_bytes: 400,
        });
        assert_eq!(c.requests, 36);
        assert_eq!(c.syntheses, 12);
        assert_eq!(c.peak_resident_bytes, 700);
    }
}
