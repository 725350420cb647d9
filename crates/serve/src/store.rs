//! The sharded session store.
//!
//! A [`SessionStore`] owns every [`LinkSession`] of a workload and fans
//! per-tick work out through [`vvd_dsp::fan_out`], the workspace's one
//! thread fan-out: sessions are split into `shards` contiguous chunks, each
//! worker owns its chunk mutably for the duration of one phase, and no two
//! phases overlap.  Sessions never share mutable state (trained networks
//! are behind `Arc`s and predicted through `&self`), so the shard count is
//! invisible in every result — the property the golden and property-based
//! serve tests pin down at shard counts 1, 2 and 8.

use crate::session::LinkSession;

/// Owns the sessions of a workload and runs phase closures over them on a
/// configurable number of shards.
pub struct SessionStore {
    sessions: Vec<LinkSession>,
}

impl SessionStore {
    /// A store over the given sessions (in session-id order).
    pub(crate) fn new(sessions: Vec<LinkSession>) -> Self {
        SessionStore { sessions }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The sessions, in session-id order.
    pub fn sessions(&self) -> &[LinkSession] {
        &self.sessions
    }

    /// Mutable access for the planner (same order).
    pub(crate) fn sessions_mut(&mut self) -> &mut [LinkSession] {
        &mut self.sessions
    }

    /// Consumes the store, yielding the sessions in id order.
    pub fn into_sessions(self) -> Vec<LinkSession> {
        self.sessions
    }

    /// `true` once every session has streamed all of its packets.
    pub fn all_finished(&self) -> bool {
        self.sessions.iter().all(LinkSession::finished)
    }

    /// The earliest tick at which any unfinished session has a packet due,
    /// or `None` when the workload is drained.
    pub fn next_due_tick(&self) -> Option<u64> {
        self.sessions
            .iter()
            .filter(|s| !s.finished())
            .map(LinkSession::next_due)
            .min()
    }

    /// Runs `f` over every session, fanning contiguous chunks out over up
    /// to `shards` threads through [`vvd_dsp::fan_out`].
    ///
    /// `f` must be pure per session (it may freely mutate *its* session) —
    /// with that, the shard count cannot change any result: each session
    /// is visited exactly once, by exactly one worker.
    pub(crate) fn for_each_sharded<F>(&mut self, shards: usize, f: F)
    where
        F: Fn(&mut LinkSession) + Sync,
    {
        vvd_dsp::fan_out(&mut self.sessions, shards, |_, chunk| {
            chunk.iter_mut().for_each(&f)
        });
    }
}
