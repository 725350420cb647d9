//! Durable session checkpoints: an engine's *streaming* state as one
//! [`wire`](crate::wire) frame, carried across process boundaries.
//!
//! A checkpoint is taken only at a tick boundary (no session holds a
//! pending half-served packet) and records, per session, exactly the
//! state that streaming accumulated: the arrival cursor, the next-due
//! tick, the accumulated [`EstimatorTrace`] and the estimator's
//! [`EstimatorState`].  Everything else — campaigns, fitted AR models,
//! trained VVD weights — is a deterministic function of the workload spec
//! and is rebuilt by [`LoadGenerator`](crate::LoadGenerator) on resume
//! (VVD weights rehydrate through the shared
//! [`ModelCache`](vvd_estimation::ModelCache); the checkpointed
//! [`ModelKey`](vvd_core::ModelKey) pins that the rehydrated model is the
//! one the checkpoint saw).  That split is what makes resume
//! *deterministic by construction*: a resumed engine replays the same
//! per-tick plan the uninterrupted engine would have run, so its final
//! [`ServeReport::digest`](crate::ServeReport::digest) is bit-identical.
//!
//! # Frame layout
//!
//! A checkpoint is one wire frame of kind [`CHECKPOINT_KIND`], so it
//! shares the cluster messages' header (magic, protocol version, 64 MiB
//! payload cap), their conventions (little-endian integers, floats as
//! IEEE-754 bit patterns, length-prefixed sequences decoded element-wise)
//! and their typed errors, wrapped as [`CheckpointError::Wire`].  The
//! payload is the [`WireCodec`] encoding of [`EngineCheckpoint`]:
//!
//! ```text
//! payload := ticks u64 · batches · session*
//! batches := batch_calls u64 · images u64 · max_batch u64
//! session := id u64 · scenario str · interval u64 · next_due u64
//!            · cursor u64 · estimator state · trace
//! trace   := label str · outcome* · outcome* · fir* · fir*   (scored,
//!            per-packet, estimates, truths)
//! state   := tag u8 · variant payload (recursive for fallback, at most
//!            MAX_STATE_DEPTH levels)
//! ```
//!
//! Frames are self-delimiting, so a [`CheckpointStore`] can keep many and
//! heal from a corrupt newest frame by replaying from the previous good
//! one (`load_latest` skips frames that fail to decode).

use crate::planner::BatchCounters;
use crate::wire::{split_frame, write_frame, Decoder, Encoder, WireCodec, WireError};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use vvd_estimation::{EstimatorState, StateError};
use vvd_testbed::stream::EstimatorTrace;

pub use vvd_estimation::MAX_STATE_DEPTH;

/// Frame kind of a checkpoint, outside the cluster message kinds 1–9: a
/// message frame handed to [`EngineCheckpoint::from_frame`], or a
/// checkpoint frame handed to the message decoder, fails with
/// [`WireError::UnknownKind`].
pub const CHECKPOINT_KIND: u16 = 0x0100;

/// Everything that can go wrong writing, reading or applying a
/// checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying I/O failure (store directory, file read/write).
    Io(io::Error),
    /// The frame cannot be written or read: a bad header, truncation, a
    /// malformed field, trailing bytes, a payload over the cap, a frame of
    /// another kind, or an estimator state deeper than
    /// [`MAX_STATE_DEPTH`].
    Wire(WireError),
    /// A checkpoint was requested mid-tick: the session still holds a
    /// prepared-but-uncompleted packet.  Checkpoints are only taken at
    /// tick boundaries.
    MidTick {
        /// Id of the offending session.
        session: usize,
    },
    /// A checkpointed session does not match the session the resumed
    /// workload built at the same position, or its trace or next-due tick
    /// disagrees with its cursor.
    SessionMismatch {
        /// Id of the offending session.
        session: usize,
        /// What disagreed.
        context: String,
    },
    /// The checkpoint and the resumed workload have different session
    /// counts.
    SessionCount {
        /// Sessions in the checkpoint.
        expected: usize,
        /// Sessions in the resumed workload.
        found: usize,
    },
    /// An estimator rejected its checkpointed state.
    State {
        /// Id of the offending session.
        session: usize,
        /// The estimator's own error.
        error: StateError,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Wire(e) => write!(f, "checkpoint frame: {e}"),
            CheckpointError::MidTick { session } => {
                write!(
                    f,
                    "cannot checkpoint mid-tick: session {session} holds a pending packet"
                )
            }
            CheckpointError::SessionMismatch { session, context } => {
                write!(f, "checkpointed session {session} mismatch: {context}")
            }
            CheckpointError::SessionCount { expected, found } => {
                write!(
                    f,
                    "checkpoint has {expected} sessions but the resumed workload built {found}"
                )
            }
            CheckpointError::State { session, error } => {
                write!(
                    f,
                    "session {session} rejected its checkpointed state: {error}"
                )
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Wire(e) => Some(e),
            CheckpointError::State { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

/// The checkpointed streaming state of one [`LinkSession`](crate::LinkSession).
///
/// Two checkpoints are the same exactly when their
/// [`EngineCheckpoint::to_frame`] bytes are: derived `PartialEq` would
/// call a NaN estimate unequal to itself, frame bytes compare its bits.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// Workload-wide session id.
    pub id: usize,
    /// Scenario spec the session's campaign was generated from (resume
    /// validation: the rebuilt session must match).
    pub scenario: String,
    /// Arrival period in ticks.
    pub interval: u64,
    /// Tick of the next packet arrival.
    pub next_due: u64,
    /// Index of the next test packet to stream.
    pub cursor: usize,
    /// The estimator's streaming state.
    pub estimator: EstimatorState,
    /// The accumulated trace up to the checkpoint tick; its label is the
    /// one the session reports under.
    pub trace: EstimatorTrace,
}

/// A whole-engine snapshot at a tick boundary: every session's
/// [`SessionCheckpoint`] plus the engine's own counters.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Ticks the engine had processed.
    pub ticks: u64,
    /// Accumulated batching counters.
    pub batches: BatchCounters,
    /// Per-session state, in session-id order.
    pub sessions: Vec<SessionCheckpoint>,
}

impl EngineCheckpoint {
    /// Encodes the checkpoint as one wire frame of kind
    /// [`CHECKPOINT_KIND`].
    ///
    /// # Errors
    /// [`WireError::Malformed`] when a session's estimator state is deeper
    /// than [`MAX_STATE_DEPTH`], and [`WireError::FrameTooLarge`] when the
    /// payload exceeds the frame cap — exactly the frames
    /// [`from_frame`](Self::from_frame) would refuse.
    pub fn to_frame(&self) -> Result<Vec<u8>, CheckpointError> {
        for session in &self.sessions {
            session.estimator.check_depth()?;
        }
        let mut payload = Encoder::new();
        self.encode(&mut payload);
        let mut frame = Vec::new();
        write_frame(&mut frame, CHECKPOINT_KIND, &payload.into_bytes())?;
        Ok(frame)
    }

    /// Decodes one frame, totally: every error path (wrong magic, wrong
    /// version, wrong kind, truncation, oversized length, trailing bytes)
    /// is a typed [`CheckpointError::Wire`], never a panic, and no
    /// allocation is sized from an untrusted length.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (kind, payload) = split_frame(bytes)?;
        if kind != CHECKPOINT_KIND {
            return Err(WireError::UnknownKind { found: kind }.into());
        }
        let mut dec = Decoder::new(payload);
        let checkpoint = EngineCheckpoint::decode(&mut dec)?;
        dec.finish()?;
        Ok(checkpoint)
    }
}

vvd_dsp::wire_struct!(EngineCheckpoint {
    ticks,
    batches,
    sessions
});

vvd_dsp::wire_struct!(SessionCheckpoint {
    id,
    scenario,
    interval,
    next_due,
    cursor,
    estimator,
    trace
});

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

/// Somewhere checkpoint frames can be kept and the latest good one
/// recovered from.
///
/// Stores keep *frames*, not decoded checkpoints: a store never trusts
/// its own contents, and `load_latest` heals from a corrupt newest frame
/// by falling back to the previous good one.
pub trait CheckpointStore: Send {
    /// Persists one checkpoint.
    ///
    /// # Errors
    /// Any store-level failure (I/O for on-disk stores).
    fn save(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), CheckpointError>;

    /// Decodes the newest checkpoint that is still readable, skipping
    /// corrupt newer frames ("heal by replaying from the previous good
    /// frame").  `Ok(None)` when the store holds no frames at all.
    ///
    /// # Errors
    /// When frames exist but none decodes, the newest frame's decode
    /// error.
    fn load_latest(&self) -> Result<Option<EngineCheckpoint>, CheckpointError>;
}

/// The heal loop behind both stores' `load_latest`: the first attempt that
/// decodes (attempts run newest first, and lazily, so the scan stops
/// there), else the newest attempt's error, else `None` for no frames.
fn newest_good(
    attempts: impl Iterator<Item = Result<EngineCheckpoint, CheckpointError>>,
) -> Result<Option<EngineCheckpoint>, CheckpointError> {
    let mut newest_error = None;
    for attempt in attempts {
        match attempt {
            Ok(checkpoint) => return Ok(Some(checkpoint)),
            Err(e) => {
                newest_error.get_or_insert(e);
            }
        }
    }
    newest_error.map_or(Ok(None), Err)
}

/// An in-memory [`CheckpointStore`]: every saved frame, in save order.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    frames: Vec<(u64, Vec<u8>)>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryCheckpointStore { frames: Vec::new() }
    }

    /// The saved `(ticks, frame)` pairs, oldest first.
    pub fn frames(&self) -> &[(u64, Vec<u8>)] {
        &self.frames
    }

    /// The newest saved frame's bytes, undecoded.
    pub fn latest_frame(&self) -> Option<&[u8]> {
        self.frames.last().map(|(_, f)| f.as_slice())
    }

    /// Appends a raw frame (tests use this to inject corrupt frames).
    pub fn push_raw(&mut self, ticks: u64, frame: Vec<u8>) {
        self.frames.push((ticks, frame));
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), CheckpointError> {
        self.frames.push((checkpoint.ticks, checkpoint.to_frame()?));
        Ok(())
    }

    fn load_latest(&self) -> Result<Option<EngineCheckpoint>, CheckpointError> {
        newest_good(
            self.frames
                .iter()
                .rev()
                .map(|(_, frame)| EngineCheckpoint::from_frame(frame)),
        )
    }
}

/// An on-disk [`CheckpointStore`]: one `ckpt-<ticks>.vvdc` file per frame
/// in one directory, written atomically (temp file + rename) so a crash
/// mid-write can at worst leave a temp file behind, never a torn frame
/// under the real name.
#[derive(Debug)]
pub struct DirCheckpointStore {
    dir: PathBuf,
}

impl DirCheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirCheckpointStore { dir })
    }

    /// The directory frames are kept in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn frame_paths_newest_first(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("ckpt-") && name.ends_with(".vvdc") {
                names.push(name);
            }
        }
        // Zero-padded tick counts make lexicographic order = tick order.
        names.sort_unstable();
        names.reverse();
        Ok(names.into_iter().map(|n| self.dir.join(n)).collect())
    }
}

impl CheckpointStore for DirCheckpointStore {
    fn save(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), CheckpointError> {
        let name = format!("ckpt-{:020}.vvdc", checkpoint.ticks);
        let tmp = self.dir.join(format!(".{name}.tmp"));
        fs::write(&tmp, checkpoint.to_frame()?)?;
        fs::rename(&tmp, self.dir.join(name))?;
        Ok(())
    }

    fn load_latest(&self) -> Result<Option<EngineCheckpoint>, CheckpointError> {
        newest_good(
            self.frame_paths_newest_first()?
                .iter()
                .map(|path| load_checkpoint_file(path)),
        )
    }
}

/// Reads and decodes one checkpoint frame file, surfacing the typed
/// decode error directly (no healing — that is
/// [`CheckpointStore::load_latest`]'s job).
///
/// # Errors
/// [`CheckpointError::Io`] for unreadable files, any decode error for
/// corrupt ones.
pub fn load_checkpoint_file(path: &Path) -> Result<EngineCheckpoint, CheckpointError> {
    EngineCheckpoint::from_frame(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_FRAME_PAYLOAD;
    use vvd_core::ModelKey;
    use vvd_dsp::{CVec, Complex, FirFilter};
    use vvd_estimation::{EstimatorRegistry, KalmanTapState};
    use vvd_phy::DecodeOutcome;

    fn fir(scale: f64, taps: usize) -> FirFilter {
        FirFilter::new(CVec(
            (0..taps)
                .map(|k| Complex::new(scale + k as f64 * 0.25, -scale * 0.5))
                .collect(),
        ))
    }

    fn outcome(k: usize) -> DecodeOutcome {
        DecodeOutcome {
            crc_ok: k.is_multiple_of(2),
            chip_errors: k,
            chip_count: 32 * (k + 1),
            symbol_errors: k / 2,
        }
    }

    fn sample_checkpoint() -> EngineCheckpoint {
        EngineCheckpoint {
            ticks: 42,
            batches: BatchCounters {
                batch_calls: 7,
                images: 19,
                max_batch: 5,
            },
            sessions: vec![
                SessionCheckpoint {
                    id: 0,
                    scenario: "paper".into(),
                    interval: 1,
                    next_due: 42,
                    cursor: 12,
                    estimator: EstimatorState::Stateless,
                    trace: EstimatorTrace {
                        label: "Ground Truth".into(),
                        scored: vec![outcome(0), outcome(3)],
                        estimates: vec![fir(1.0, 3)],
                        truths: vec![fir(2.0, 3)],
                        per_packet: vec![outcome(0), outcome(1), outcome(3)],
                    },
                },
                SessionCheckpoint {
                    id: 5,
                    scenario: "rician:k=6,doppler=30".into(),
                    interval: 3,
                    next_due: 44,
                    cursor: 4,
                    estimator: EstimatorState::Fallback {
                        primary: Box::new(EstimatorState::AgedPreamble {
                            history: vec![None, Some(fir(0.5, 2))],
                        }),
                        secondary: Box::new(EstimatorState::Fallback {
                            primary: Box::new(EstimatorState::Kalman {
                                taps: vec![KalmanTapState {
                                    state: vec![Complex::new(0.1, 0.2), Complex::new(0.3, 0.4)],
                                    cov: vec![Complex::ONE; 4],
                                    history: vec![Complex::new(-0.5, 0.25)],
                                }],
                            }),
                            secondary: Box::new(EstimatorState::Vvd {
                                key: Some(ModelKey::from_parts(0xdead_beef, 0x1234_5678)),
                            }),
                        }),
                    },
                    trace: EstimatorTrace {
                        label: "Combined".into(),
                        scored: Vec::new(),
                        estimates: Vec::new(),
                        truths: Vec::new(),
                        per_packet: vec![outcome(2)],
                    },
                },
            ],
        }
    }

    fn traces_equal(a: &EstimatorTrace, b: &EstimatorTrace) -> bool {
        a.label == b.label
            && a.scored == b.scored
            && a.estimates == b.estimates
            && a.truths == b.truths
            && a.per_packet == b.per_packet
    }

    #[test]
    fn frame_round_trips_bit_identically() {
        let checkpoint = sample_checkpoint();
        let frame = checkpoint.to_frame().unwrap();
        let decoded = EngineCheckpoint::from_frame(&frame).unwrap();
        assert_eq!(decoded.ticks, checkpoint.ticks);
        assert_eq!(decoded.batches, checkpoint.batches);
        assert_eq!(decoded.sessions.len(), checkpoint.sessions.len());
        for (a, b) in decoded.sessions.iter().zip(&checkpoint.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.trace.label, b.trace.label);
            assert_eq!(a.interval, b.interval);
            assert_eq!(a.next_due, b.next_due);
            assert_eq!(a.cursor, b.cursor);
            assert_eq!(a.estimator, b.estimator);
            assert!(traces_equal(&a.trace, &b.trace));
        }
        // Determinism of the encoding itself: re-encoding the decoded
        // checkpoint yields the same bytes.
        assert_eq!(decoded.to_frame().unwrap(), frame);
    }

    #[test]
    fn every_corruption_mode_is_a_typed_error() {
        let frame = sample_checkpoint().to_frame().unwrap();

        // Wrong magic.
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::Wire(WireError::BadMagic { .. }))
        ));

        // Wrong version.
        let mut bad = frame.clone();
        bad[4] = 99;
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::Wire(WireError::UnsupportedVersion {
                found: 99
            }))
        ));

        // Truncation at every cut: any prefix must fail with a typed
        // error, never panic.
        for cut in 0..frame.len() {
            let err = EngineCheckpoint::from_frame(&frame[..cut])
                .expect_err("truncated frame must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Wire(
                        WireError::Truncated { .. } | WireError::Malformed { .. }
                    )
                ),
                "cut at {cut} produced {err:?}"
            );
        }

        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::Wire(WireError::TrailingBytes { extra: 1 }))
        ));

        // Oversized declared length.
        let mut bad = frame.clone();
        bad[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::Wire(WireError::FrameTooLarge { .. }))
        ));

        // A corrupt interior length cannot trigger a huge allocation —
        // it must run into a typed error instead.
        let mut bad = frame.clone();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(EngineCheckpoint::from_frame(&bad).is_err());
    }

    #[test]
    fn over_cap_payload_is_a_typed_error_not_a_panic() {
        // 4.2 M taps at 16 bytes each put the payload just over the 64 MiB
        // cap: encoding refuses it and a store saves nothing.
        let mut checkpoint = sample_checkpoint();
        checkpoint.sessions[0]
            .trace
            .estimates
            .push(fir(1.0, 4_200_000));
        assert!(matches!(
            checkpoint.to_frame(),
            Err(CheckpointError::Wire(WireError::FrameTooLarge { len }))
                if len > MAX_FRAME_PAYLOAD as u64
        ));
        let mut store = MemoryCheckpointStore::new();
        assert!(matches!(
            store.save(&checkpoint),
            Err(CheckpointError::Wire(WireError::FrameTooLarge { .. }))
        ));
        assert!(store.frames().is_empty());
    }

    #[test]
    fn state_trees_deeper_than_the_decoder_accepts_are_refused_on_encode() {
        // The registry nests fallback chains without a bound.
        let registry = EstimatorRegistry::new();
        let chain = |fallbacks: usize| {
            registry
                .build(&("fallback:preamble,".repeat(fallbacks) + "standard"))
                .unwrap()
                .save_state()
        };
        let mut checkpoint = sample_checkpoint();

        // Fifteen fallbacks make a 16-level tree: it round-trips.
        checkpoint.sessions[1].estimator = chain(MAX_STATE_DEPTH - 1);
        let frame = checkpoint.to_frame().unwrap();
        let decoded = EngineCheckpoint::from_frame(&frame).unwrap();
        assert_eq!(
            decoded.sessions[1].estimator,
            checkpoint.sessions[1].estimator
        );

        // Sixteen are one level too deep: refused before a byte is
        // written, and a store saves nothing.
        checkpoint.sessions[1].estimator = chain(MAX_STATE_DEPTH);
        assert!(matches!(
            checkpoint.to_frame(),
            Err(CheckpointError::Wire(WireError::Malformed { .. }))
        ));
        let mut store = MemoryCheckpointStore::new();
        assert!(matches!(
            store.save(&checkpoint),
            Err(CheckpointError::Wire(WireError::Malformed { .. }))
        ));
        assert!(store.frames().is_empty());

        // The decoder's guard is the same bound: the frame to_frame
        // refuses, framed by hand, does not read back.
        let mut payload = Encoder::new();
        checkpoint.encode(&mut payload);
        let mut frame = Vec::new();
        write_frame(&mut frame, CHECKPOINT_KIND, &payload.into_bytes()).unwrap();
        assert!(matches!(
            EngineCheckpoint::from_frame(&frame),
            Err(CheckpointError::Wire(WireError::Malformed { .. }))
        ));
    }

    #[test]
    fn memory_store_heals_from_a_corrupt_newest_frame() {
        let mut store = MemoryCheckpointStore::new();
        assert!(store.load_latest().unwrap().is_none());

        let good = sample_checkpoint();
        store.save(&good).unwrap();
        let mut newer = sample_checkpoint();
        newer.ticks = 50;
        store.save(&newer).unwrap();
        // Newest wins while intact.
        assert_eq!(store.load_latest().unwrap().unwrap().ticks, 50);

        // A corrupt even-newer frame is skipped: the previous good frame
        // heals the store.
        store.push_raw(60, b"VVDCgarbage".to_vec());
        assert_eq!(store.load_latest().unwrap().unwrap().ticks, 50);

        // When *nothing* decodes, the newest error surfaces.
        let mut all_bad = MemoryCheckpointStore::new();
        all_bad.push_raw(1, vec![1, 2, 3]);
        assert!(all_bad.load_latest().is_err());
    }

    #[test]
    fn dir_store_round_trips_atomically_and_heals() {
        let dir =
            std::env::temp_dir().join(format!("vvd-checkpoint-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = DirCheckpointStore::new(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());

        let mut checkpoint = sample_checkpoint();
        store.save(&checkpoint).unwrap();
        checkpoint.ticks = 99;
        store.save(&checkpoint).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().ticks, 99);
        // No temp files linger after atomic writes.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                name.starts_with("ckpt-") && name.ends_with(".vvdc"),
                "unexpected file {name}"
            );
        }

        // Direct file loads surface typed errors...
        let newest = store.dir().join("ckpt-00000000000000000099.vvdc");
        let mut bytes = fs::read(&newest).unwrap();
        bytes.truncate(10);
        fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint_file(&newest),
            Err(CheckpointError::Wire(WireError::Truncated { .. }))
        ));
        // ...while load_latest heals to the previous good frame.
        assert_eq!(store.load_latest().unwrap().unwrap().ticks, 42);

        let _ = fs::remove_dir_all(&dir);
    }
}
