//! Durable session checkpoints: versioned binary frames that carry a
//! serve engine's *streaming* state across process boundaries.
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
//! [`ModelKey`] pins that the rehydrated model is the
//! one the checkpoint saw).  That split is what makes resume
//! *deterministic by construction*: a resumed engine replays the same
//! per-tick plan the uninterrupted engine would have run, so its final
//! [`ServeReport::digest`](crate::ServeReport::digest) is bit-identical.
//!
//! # Frame layout
//!
//! The encoding follows the `vvd-net` wire-codec conventions — explicit
//! little-endian integers, floats as IEEE-754 bit patterns, length-
//! prefixed sequences decoded element-wise (never allocated from an
//! untrusted length), total decoding with a typed [`CheckpointError`] for
//! every way a frame can be truncated, corrupted or oversized:
//!
//! ```text
//! frame   := magic "VVDC" · version u16 · len u32 · payload
//! payload := ticks u64 · batches · n_sessions u64 · session*
//! batches := batch_calls u64 · images u64 · max_batch u64
//! session := id u64 · scenario str · label str · interval u64
//!            · next_due u64 · cursor u64 · estimator state · trace
//! trace   := label str · outcome* · outcome* · fir* · fir*   (scored,
//!            per-packet, estimates, truths; each length-prefixed)
//! state   := tag u8 · variant payload (recursive for fallback)
//! ```
//!
//! Frames are self-delimiting, so a [`CheckpointStore`] can keep many and
//! heal from a corrupt newest frame by replaying from the previous good
//! one (`load_latest` skips frames that fail to decode).

use crate::planner::BatchCounters;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use vvd_core::ModelKey;
use vvd_dsp::{CVec, Complex, FirFilter};
use vvd_estimation::{EstimatorState, KalmanTapState, StateError};
use vvd_phy::DecodeOutcome;
use vvd_testbed::stream::EstimatorTrace;

/// Leading magic of every checkpoint frame.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"VVDC";

/// Version of the checkpoint frame layout.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Upper bound on a frame's payload size — large enough for any real
/// workload snapshot, small enough that a corrupt length field cannot
/// drive decoding into absurd territory.
pub const MAX_CHECKPOINT_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Everything that can go wrong writing, reading or applying a
/// checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying I/O failure (store directory, file read/write).
    Io(io::Error),
    /// The frame does not start with [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The frame's version is not [`CHECKPOINT_VERSION`].
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The frame ended before the named field was complete.
    Truncated {
        /// Which field was being decoded.
        context: &'static str,
    },
    /// A field decoded but its value is invalid.
    Malformed {
        /// Which field was invalid.
        context: &'static str,
    },
    /// The frame decoded completely but bytes were left over.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// The frame's payload length — declared in a frame being decoded,
    /// or actual in a checkpoint being encoded — exceeds
    /// [`MAX_CHECKPOINT_PAYLOAD`].
    FrameTooLarge {
        /// The payload length in bytes.
        len: u64,
    },
    /// A checkpoint was requested mid-tick: the session still holds a
    /// prepared-but-uncompleted packet.  Checkpoints are only taken at
    /// tick boundaries.
    MidTick {
        /// Id of the offending session.
        session: usize,
    },
    /// A checkpointed session does not match the session the resumed
    /// workload built at the same position.
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
            CheckpointError::BadMagic { found } => {
                write!(f, "bad checkpoint magic {found:02x?}")
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::Truncated { context } => {
                write!(f, "checkpoint frame truncated while decoding {context}")
            }
            CheckpointError::Malformed { context } => {
                write!(f, "malformed checkpoint field: {context}")
            }
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after checkpoint payload")
            }
            CheckpointError::FrameTooLarge { len } => {
                write!(
                    f,
                    "checkpoint payload of {len} bytes exceeds the {MAX_CHECKPOINT_PAYLOAD}-byte budget"
                )
            }
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

/// The checkpointed streaming state of one [`LinkSession`](crate::LinkSession).
///
/// No `PartialEq`: [`EstimatorTrace`] does not compare, and checkpoint
/// equality is defined at the *frame* level anyway — two checkpoints are
/// the same exactly when their [`EngineCheckpoint::to_frame`] bytes are.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// Workload-wide session id.
    pub id: usize,
    /// Scenario spec the session's campaign was generated from (resume
    /// validation: the rebuilt session must match).
    pub scenario: String,
    /// Label the session reports under.
    pub label: String,
    /// Arrival period in ticks.
    pub interval: u64,
    /// Tick of the next packet arrival.
    pub next_due: u64,
    /// Index of the next test packet to stream.
    pub cursor: usize,
    /// The estimator's streaming state.
    pub estimator: EstimatorState,
    /// The accumulated trace up to the checkpoint tick.
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
    /// Encodes the checkpoint as one self-delimiting versioned frame.
    ///
    /// # Errors
    /// [`CheckpointError::FrameTooLarge`] when the payload exceeds
    /// [`MAX_CHECKPOINT_PAYLOAD`], i.e. when
    /// [`from_frame`](Self::from_frame) would refuse the frame.
    pub fn to_frame(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.ticks);
        put_u64(&mut payload, self.batches.batch_calls);
        put_u64(&mut payload, self.batches.images);
        put_u64(&mut payload, self.batches.max_batch as u64);
        put_u64(&mut payload, self.sessions.len() as u64);
        for session in &self.sessions {
            put_u64(&mut payload, session.id as u64);
            put_str(&mut payload, &session.scenario);
            put_str(&mut payload, &session.label);
            put_u64(&mut payload, session.interval);
            put_u64(&mut payload, session.next_due);
            put_u64(&mut payload, session.cursor as u64);
            put_state(&mut payload, &session.estimator);
            put_trace(&mut payload, &session.trace);
        }
        if payload.len() as u64 > MAX_CHECKPOINT_PAYLOAD as u64 {
            return Err(CheckpointError::FrameTooLarge {
                len: payload.len() as u64,
            });
        }
        let mut frame = Vec::with_capacity(4 + 2 + 4 + payload.len());
        frame.extend_from_slice(&CHECKPOINT_MAGIC);
        frame.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        Ok(frame)
    }

    /// Decodes one frame, totally: every error path (wrong magic, wrong
    /// version, truncation, oversized length, trailing bytes) is a typed
    /// [`CheckpointError`], never a panic, and no allocation is sized
    /// from an untrusted length.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut dec = Dec::new(bytes);
        let magic = dec.take(4, "magic")?;
        if magic != CHECKPOINT_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(CheckpointError::BadMagic { found });
        }
        let version = dec.take_u16("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let len = dec.take_u32("payload length")?;
        if len > MAX_CHECKPOINT_PAYLOAD {
            return Err(CheckpointError::FrameTooLarge { len: len as u64 });
        }
        if dec.remaining() != len as usize {
            // The declared length must match the carried payload exactly:
            // less is truncation, more is trailing garbage.
            if dec.remaining() < len as usize {
                return Err(CheckpointError::Truncated { context: "payload" });
            }
            return Err(CheckpointError::TrailingBytes {
                extra: dec.remaining() - len as usize,
            });
        }

        let ticks = dec.take_u64("ticks")?;
        let batches = BatchCounters {
            batch_calls: dec.take_u64("batch calls")?,
            images: dec.take_u64("batch images")?,
            max_batch: dec.take_u64("max batch")? as usize,
        };
        let n_sessions = dec.take_u64("session count")?;
        let mut sessions = Vec::new();
        for _ in 0..n_sessions {
            let id = dec.take_u64("session id")? as usize;
            let scenario = take_str(&mut dec, "session scenario")?;
            let label = take_str(&mut dec, "session label")?;
            let interval = dec.take_u64("session interval")?;
            let next_due = dec.take_u64("session next-due tick")?;
            let cursor = dec.take_u64("session cursor")? as usize;
            let estimator = take_state(&mut dec, 0)?;
            let trace = take_trace(&mut dec)?;
            sessions.push(SessionCheckpoint {
                id,
                scenario,
                label,
                interval,
                next_due,
                cursor,
                estimator,
                trace,
            });
        }
        dec.finish()?;
        Ok(EngineCheckpoint {
            ticks,
            batches,
            sessions,
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives (little-endian, following the vvd-net conventions)
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_complex(out: &mut Vec<u8>, c: Complex) {
    put_f64(out, c.re);
    put_f64(out, c.im);
}

fn put_fir(out: &mut Vec<u8>, f: &FirFilter) {
    put_u64(out, f.len() as u64);
    for &tap in f.taps().iter() {
        put_complex(out, tap);
    }
}

fn put_outcome(out: &mut Vec<u8>, o: &DecodeOutcome) {
    put_u8(out, u8::from(o.crc_ok));
    put_u64(out, o.chip_errors as u64);
    put_u64(out, o.chip_count as u64);
    put_u64(out, o.symbol_errors as u64);
}

fn put_trace(out: &mut Vec<u8>, t: &EstimatorTrace) {
    put_str(out, &t.label);
    put_u64(out, t.scored.len() as u64);
    for o in &t.scored {
        put_outcome(out, o);
    }
    put_u64(out, t.per_packet.len() as u64);
    for o in &t.per_packet {
        put_outcome(out, o);
    }
    put_u64(out, t.estimates.len() as u64);
    for f in &t.estimates {
        put_fir(out, f);
    }
    put_u64(out, t.truths.len() as u64);
    for f in &t.truths {
        put_fir(out, f);
    }
}

fn put_state(out: &mut Vec<u8>, state: &EstimatorState) {
    match state {
        EstimatorState::Stateless => put_u8(out, 0),
        EstimatorState::Previous { history } => {
            put_u8(out, 1);
            put_u64(out, history.len() as u64);
            for f in history {
                put_fir(out, f);
            }
        }
        EstimatorState::AgedPreamble { history } => {
            put_u8(out, 2);
            put_u64(out, history.len() as u64);
            for entry in history {
                match entry {
                    Some(f) => {
                        put_u8(out, 1);
                        put_fir(out, f);
                    }
                    None => put_u8(out, 0),
                }
            }
        }
        EstimatorState::Kalman { taps } => {
            put_u8(out, 3);
            put_u64(out, taps.len() as u64);
            for tap in taps {
                put_u64(out, tap.state.len() as u64);
                for &c in &tap.state {
                    put_complex(out, c);
                }
                for &c in &tap.cov {
                    put_complex(out, c);
                }
                put_u64(out, tap.history.len() as u64);
                for &c in &tap.history {
                    put_complex(out, c);
                }
            }
        }
        EstimatorState::Vvd { key } => {
            put_u8(out, 4);
            match key {
                Some(k) => {
                    put_u8(out, 1);
                    let (a, b) = k.to_parts();
                    put_u64(out, a);
                    put_u64(out, b);
                }
                None => put_u8(out, 0),
            }
        }
        EstimatorState::Fallback { primary, secondary } => {
            put_u8(out, 5);
            put_state(out, primary);
            put_state(out, secondary);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding primitives (total: typed errors, no untrusted-length allocation)
// ---------------------------------------------------------------------------

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { context });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self, context: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, context)?[0])
    }

    fn take_u16(&mut self, context: &'static str) -> Result<u16, CheckpointError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn take_u32(&mut self, context: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self, context: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, context)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn take_f64(&mut self, context: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn take_str(dec: &mut Dec<'_>, context: &'static str) -> Result<String, CheckpointError> {
    let len = dec.take_u64(context)? as usize;
    let bytes = dec.take(len, context)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Malformed { context })
}

fn take_complex(dec: &mut Dec<'_>, context: &'static str) -> Result<Complex, CheckpointError> {
    Ok(Complex::new(dec.take_f64(context)?, dec.take_f64(context)?))
}

fn take_fir(dec: &mut Dec<'_>, context: &'static str) -> Result<FirFilter, CheckpointError> {
    let len = dec.take_u64(context)?;
    // Element-wise: the Vec grows as real bytes are consumed, so a corrupt
    // length can only run into `Truncated`, never a huge allocation.
    let mut taps = Vec::new();
    for _ in 0..len {
        taps.push(take_complex(dec, context)?);
    }
    Ok(FirFilter::new(CVec(taps)))
}

fn take_outcome(
    dec: &mut Dec<'_>,
    context: &'static str,
) -> Result<DecodeOutcome, CheckpointError> {
    let crc = dec.take_u8(context)?;
    if crc > 1 {
        return Err(CheckpointError::Malformed { context });
    }
    Ok(DecodeOutcome {
        crc_ok: crc == 1,
        chip_errors: dec.take_u64(context)? as usize,
        chip_count: dec.take_u64(context)? as usize,
        symbol_errors: dec.take_u64(context)? as usize,
    })
}

fn take_trace(dec: &mut Dec<'_>) -> Result<EstimatorTrace, CheckpointError> {
    let label = take_str(dec, "trace label")?;
    let n_scored = dec.take_u64("scored count")?;
    let mut scored = Vec::new();
    for _ in 0..n_scored {
        scored.push(take_outcome(dec, "scored outcome")?);
    }
    let n_per_packet = dec.take_u64("per-packet count")?;
    let mut per_packet = Vec::new();
    for _ in 0..n_per_packet {
        per_packet.push(take_outcome(dec, "per-packet outcome")?);
    }
    let n_estimates = dec.take_u64("estimate count")?;
    let mut estimates = Vec::new();
    for _ in 0..n_estimates {
        estimates.push(take_fir(dec, "estimate taps")?);
    }
    let n_truths = dec.take_u64("truth count")?;
    let mut truths = Vec::new();
    for _ in 0..n_truths {
        truths.push(take_fir(dec, "truth taps")?);
    }
    Ok(EstimatorTrace {
        label,
        scored,
        estimates,
        truths,
        per_packet,
    })
}

/// Guard against unboundedly recursive (corrupt) fallback nesting.
const MAX_STATE_DEPTH: u8 = 16;

fn take_state(dec: &mut Dec<'_>, depth: u8) -> Result<EstimatorState, CheckpointError> {
    if depth >= MAX_STATE_DEPTH {
        return Err(CheckpointError::Malformed {
            context: "estimator state nesting too deep",
        });
    }
    match dec.take_u8("estimator state tag")? {
        0 => Ok(EstimatorState::Stateless),
        1 => {
            let n = dec.take_u64("previous history count")?;
            let mut history = Vec::new();
            for _ in 0..n {
                history.push(take_fir(dec, "previous history taps")?);
            }
            Ok(EstimatorState::Previous { history })
        }
        2 => {
            let n = dec.take_u64("aged-preamble history count")?;
            let mut history = Vec::new();
            for _ in 0..n {
                match dec.take_u8("aged-preamble entry tag")? {
                    0 => history.push(None),
                    1 => history.push(Some(take_fir(dec, "aged-preamble taps")?)),
                    _ => {
                        return Err(CheckpointError::Malformed {
                            context: "aged-preamble entry tag",
                        })
                    }
                }
            }
            Ok(EstimatorState::AgedPreamble { history })
        }
        3 => {
            let n_taps = dec.take_u64("kalman tap count")?;
            let mut taps = Vec::new();
            for _ in 0..n_taps {
                let order = dec.take_u64("kalman order")? as usize;
                let mut state = Vec::new();
                for _ in 0..order {
                    state.push(take_complex(dec, "kalman state")?);
                }
                let mut cov = Vec::new();
                for _ in 0..order.saturating_mul(order) {
                    cov.push(take_complex(dec, "kalman covariance")?);
                }
                let n_history = dec.take_u64("kalman history count")?;
                let mut history = Vec::new();
                for _ in 0..n_history {
                    history.push(take_complex(dec, "kalman history")?);
                }
                taps.push(KalmanTapState {
                    state,
                    cov,
                    history,
                });
            }
            Ok(EstimatorState::Kalman { taps })
        }
        4 => match dec.take_u8("vvd key tag")? {
            0 => Ok(EstimatorState::Vvd { key: None }),
            1 => {
                let a = dec.take_u64("vvd key")?;
                let b = dec.take_u64("vvd key")?;
                Ok(EstimatorState::Vvd {
                    key: Some(ModelKey::from_parts(a, b)),
                })
            }
            _ => Err(CheckpointError::Malformed {
                context: "vvd key tag",
            }),
        },
        5 => {
            let primary = Box::new(take_state(dec, depth + 1)?);
            let secondary = Box::new(take_state(dec, depth + 1)?);
            Ok(EstimatorState::Fallback { primary, secondary })
        }
        _ => Err(CheckpointError::Malformed {
            context: "estimator state tag",
        }),
    }
}

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
        let mut newest_error = None;
        for (_, frame) in self.frames.iter().rev() {
            match EngineCheckpoint::from_frame(frame) {
                Ok(checkpoint) => return Ok(Some(checkpoint)),
                Err(e) => {
                    if newest_error.is_none() {
                        newest_error = Some(e);
                    }
                }
            }
        }
        match newest_error {
            Some(e) => Err(e),
            None => Ok(None),
        }
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
        let mut newest_error = None;
        for path in self.frame_paths_newest_first()? {
            match load_checkpoint_file(&path) {
                Ok(checkpoint) => return Ok(Some(checkpoint)),
                Err(e) => {
                    if newest_error.is_none() {
                        newest_error = Some(e);
                    }
                }
            }
        }
        match newest_error {
            Some(e) => Err(e),
            None => Ok(None),
        }
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
                    label: "Ground Truth".into(),
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
                    label: "Combined".into(),
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
            assert_eq!(a.label, b.label);
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
            Err(CheckpointError::BadMagic { .. })
        ));

        // Wrong version.
        let mut bad = frame.clone();
        bad[4] = 99;
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));

        // Truncation at every cut: any prefix must fail with a typed
        // error, never panic.
        for cut in 0..frame.len() {
            let err = EngineCheckpoint::from_frame(&frame[..cut])
                .expect_err("truncated frame must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::Malformed { .. }
                ),
                "cut at {cut} produced {err:?}"
            );
        }

        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::TrailingBytes { extra: 1 })
        ));

        // Oversized declared length.
        let mut bad = frame.clone();
        bad[6..10].copy_from_slice(&(MAX_CHECKPOINT_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            EngineCheckpoint::from_frame(&bad),
            Err(CheckpointError::FrameTooLarge { .. })
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
            Err(CheckpointError::FrameTooLarge { len }) if len > MAX_CHECKPOINT_PAYLOAD as u64
        ));
        let mut store = MemoryCheckpointStore::new();
        assert!(matches!(
            store.save(&checkpoint),
            Err(CheckpointError::FrameTooLarge { .. })
        ));
        assert!(store.frames().is_empty());
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
            Err(CheckpointError::Truncated { .. })
        ));
        // ...while load_latest heals to the previous good frame.
        assert_eq!(store.load_latest().unwrap().unwrap().ticks, 42);

        let _ = fs::remove_dir_all(&dir);
    }
}
