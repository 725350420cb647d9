//! The one binary codec of the workspace: a dependency-free,
//! length-prefixed frame format and the [`WireCodec`] trait every byte
//! format implements.
//!
//! Two formats ride on it: the cluster messages of `vvd-net` (which
//! re-exports this module as `vvd_net::wire`) and the engine checkpoints
//! of [`checkpoint`](crate::checkpoint), one frame of kind
//! [`CHECKPOINT_KIND`](crate::checkpoint::CHECKPOINT_KIND) each.  Every
//! value travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"VVDN"
//! 4       2     protocol version (little-endian u16, currently 3)
//! 6       2     kind             (little-endian u16)
//! 8       4     payload length   (little-endian u32, <= MAX_FRAME_PAYLOAD)
//! 12      n     payload          ([`WireCodec`]-encoded)
//! ```
//!
//! All integers are little-endian; floats travel as their IEEE-754 bit
//! patterns ([`f64::to_bits`]), so a decoded value is *bit-identical* to
//! the encoded one — the property that lets a coordinator merge worker
//! traces into a report whose digest matches the in-process run exactly,
//! and a resumed engine continue exactly where its checkpoint stopped.
//!
//! # Robustness
//!
//! Decoding malformed input **never panics and never hangs**: truncated
//! frames, oversized length prefixes, bad magic/version bytes, unknown
//! kinds, mid-frame EOF and trailing garbage all surface as typed
//! [`WireError`]s (pinned by the adversarial-decode proptest suite in
//! `crates/net/tests/codec_properties.rs`).  An oversized length prefix is
//! rejected *before* any allocation, and length-prefixed collections are
//! decoded element by element, so a frame cannot force an allocation
//! larger than the frame itself.

use crate::memo::SynthCounters;
use crate::planner::BatchCounters;
use crate::session::SessionSpec;
use std::fmt;
use std::io::{Read, Write};
use vvd_dsp::{CVec, Complex, FirFilter};
use vvd_estimation::ModelCacheStats;
use vvd_phy::DecodeOutcome;
use vvd_testbed::stream::EstimatorTrace;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"VVDN";

/// Version of the wire protocol (frame header field).
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on a frame's payload size (64 MiB).  Large enough for any
/// serve trace or checkpoint the workspace produces, small enough that a
/// corrupt or hostile length prefix cannot drive an enormous allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Size of the frame header (magic, version, kind, payload length).
const HEADER_LEN: usize = 12;

/// Everything that can go wrong on the wire.  Every decode failure is a
/// typed error — malformed input never panics.
#[derive(Debug)]
pub enum WireError {
    /// The underlying byte stream failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream ended in the middle of a frame header or payload.
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The frame header named a protocol version this build does not
    /// speak.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The frame header named a kind this build does not know, or not the
    /// kind the reader expected (a message frame handed to the checkpoint
    /// decoder, or the reverse).
    UnknownKind {
        /// The kind tag actually found.
        found: u16,
    },
    /// The length prefix exceeded [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge {
        /// The length the header claimed.
        len: u64,
    },
    /// A payload field was structurally invalid (bad bool byte, invalid
    /// UTF-8, out-of-range enum tag, …).
    Malformed {
        /// Which field was malformed.
        context: &'static str,
    },
    /// The payload decoded cleanly but left unconsumed bytes behind.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The peer violated the message protocol (unexpected message order),
    /// or reported a failure of its own.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Closed => write!(f, "peer closed the stream"),
            WireError::Truncated { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {MAGIC:02x?})")
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownKind { found } => write!(f, "unknown frame kind {found}"),
            WireError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
                )
            }
            WireError::Malformed { context } => write!(f, "malformed payload field: {context}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "payload decoded with {extra} trailing bytes")
            }
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encoding buffer: the write half of [`WireCodec`].
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decoding cursor over a frame payload: the read half of [`WireCodec`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of input.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than 2 bytes remain.
    pub fn take_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than 4 bytes remain.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than 8 bytes remain.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Fails with [`WireError::TrailingBytes`] unless the cursor consumed
    /// everything.
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`] when unconsumed bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        } else {
            Ok(())
        }
    }
}

/// Deterministic binary encode/decode of one wire value.
///
/// The layout contract: `decode(encode(x)) == x` bit-for-bit, the byte
/// stream is identical across platforms (little-endian integers, IEEE-754
/// bit patterns for floats), and `decode` of arbitrary bytes returns a
/// typed [`WireError`] — never panics, never over-allocates beyond the
/// input's own length.
pub trait WireCodec: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes one value from the cursor.
    ///
    /// # Errors
    /// A typed [`WireError`] on truncated or structurally invalid input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError>;
}

impl WireCodec for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(*self));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed {
                context: "bool byte not 0/1",
            }),
        }
    }
}

impl WireCodec for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.take_u8("u8")
    }
}

impl WireCodec for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.take_u32("u32")
    }
}

impl WireCodec for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.take_u64("u64")
    }
}

impl WireCodec for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        usize::try_from(dec.take_u64("usize")?).map_err(|_| WireError::Malformed {
            context: "usize exceeds this platform's pointer width",
        })
    }
}

impl WireCodec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.to_bits());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(dec.take_u64("f64")?))
    }
}

impl WireCodec for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        enc.put_bytes(self.as_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = dec.take_u32("string length")? as usize;
        let bytes = dec.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            context: "string is not valid UTF-8",
        })
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            _ => Err(WireError::Malformed {
                context: "option tag not 0/1",
            }),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = dec.take_u32("vec length")? as usize;
        // No up-front reservation from the (untrusted) length prefix: a
        // hostile count larger than the payload fails at the first
        // truncated element instead of forcing a huge allocation.
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

/// Writes one frame (`kind` + encoded payload) to `w`, flushing it.
///
/// # Errors
/// [`WireError::Io`] when the underlying stream fails, or
/// [`WireError::FrameTooLarge`] for an over-cap payload.
pub fn write_frame(w: &mut impl Write, kind: u16, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > u64::from(MAX_FRAME_PAYLOAD) {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&kind.to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Checks a frame header — magic, version, payload cap — and returns the
/// frame's `(kind, payload length)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u16, usize), WireError> {
    let mut dec = Decoder::new(header);
    let magic = dec.take(4, "frame magic")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic {
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = dec.take_u16("frame version")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let kind = dec.take_u16("frame kind")?;
    let len = dec.take_u32("frame length")?;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            len: u64::from(len),
        });
    }
    Ok((kind, len as usize))
}

/// Reads one frame from `r`, returning `(kind, payload)`.
///
/// A clean EOF *between* frames is [`WireError::Closed`]; an EOF anywhere
/// inside a frame is [`WireError::Truncated`].  The payload length is
/// validated against [`MAX_FRAME_PAYLOAD`] before any allocation.
///
/// # Errors
/// Typed [`WireError`]s for every I/O, framing or size failure.
pub fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Err(WireError::Closed)
            } else {
                Err(WireError::Truncated {
                    context: "frame header",
                })
            };
        }
        filled += n;
    }
    let (kind, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                context: "frame payload",
            }
        } else {
            WireError::Io(e)
        }
    })?;
    Ok((kind, payload))
}

/// Splits one whole frame held in memory into `(kind, payload)`, without
/// copying.  The header is checked as in [`read_frame`], and the payload
/// must fill the rest of `bytes` exactly; nothing is allocated.
///
/// # Errors
/// [`WireError::Truncated`] when `bytes` ends before the declared payload
/// does, [`WireError::TrailingBytes`] when it runs past it, and any header
/// error.
pub(crate) fn split_frame(bytes: &[u8]) -> Result<(u16, &[u8]), WireError> {
    let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(WireError::Truncated {
            context: "frame header",
        });
    };
    let (kind, len) = parse_header(header)?;
    if payload.len() < len {
        return Err(WireError::Truncated {
            context: "frame payload",
        });
    }
    if payload.len() > len {
        return Err(WireError::TrailingBytes {
            extra: payload.len() - len,
        });
    }
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Workspace value types.  The orphan rule puts the impls for types of other
// crates beside the trait; serve's own counters and specs sit with them.
// ---------------------------------------------------------------------------

impl WireCodec for Complex {
    fn encode(&self, enc: &mut Encoder) {
        self.re.encode(enc);
        self.im.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Complex::new(f64::decode(dec)?, f64::decode(dec)?))
    }
}

impl WireCodec for FirFilter {
    fn encode(&self, enc: &mut Encoder) {
        self.taps().0.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(FirFilter::new(CVec(Vec::decode(dec)?)))
    }
}

impl WireCodec for DecodeOutcome {
    fn encode(&self, enc: &mut Encoder) {
        self.crc_ok.encode(enc);
        self.chip_errors.encode(enc);
        self.chip_count.encode(enc);
        self.symbol_errors.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(DecodeOutcome {
            crc_ok: bool::decode(dec)?,
            chip_errors: usize::decode(dec)?,
            chip_count: usize::decode(dec)?,
            symbol_errors: usize::decode(dec)?,
        })
    }
}

impl WireCodec for EstimatorTrace {
    fn encode(&self, enc: &mut Encoder) {
        self.label.encode(enc);
        self.scored.encode(enc);
        self.per_packet.encode(enc);
        self.estimates.encode(enc);
        self.truths.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(EstimatorTrace {
            label: String::decode(dec)?,
            scored: Vec::decode(dec)?,
            per_packet: Vec::decode(dec)?,
            estimates: Vec::decode(dec)?,
            truths: Vec::decode(dec)?,
        })
    }
}

impl WireCodec for SessionSpec {
    fn encode(&self, enc: &mut Encoder) {
        self.scenario.encode(enc);
        self.estimator.encode(enc);
        self.interval_ticks.encode(enc);
        self.offset_ticks.encode(enc);
        self.combination.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SessionSpec {
            scenario: String::decode(dec)?,
            estimator: String::decode(dec)?,
            interval_ticks: u64::decode(dec)?,
            offset_ticks: u64::decode(dec)?,
            combination: usize::decode(dec)?,
        })
    }
}

impl WireCodec for BatchCounters {
    fn encode(&self, enc: &mut Encoder) {
        self.batch_calls.encode(enc);
        self.images.encode(enc);
        self.max_batch.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(BatchCounters {
            batch_calls: u64::decode(dec)?,
            images: u64::decode(dec)?,
            max_batch: usize::decode(dec)?,
        })
    }
}

impl WireCodec for SynthCounters {
    fn encode(&self, enc: &mut Encoder) {
        self.requests.encode(enc);
        self.syntheses.encode(enc);
        self.peak_resident_bytes.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SynthCounters {
            requests: u64::decode(dec)?,
            syntheses: u64::decode(dec)?,
            peak_resident_bytes: u64::decode(dec)?,
        })
    }
}

impl WireCodec for ModelCacheStats {
    fn encode(&self, enc: &mut Encoder) {
        self.hits.encode(enc);
        self.disk_hits.encode(enc);
        self.misses.encode(enc);
        self.evictions.encode(enc);
        self.entries.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ModelCacheStats {
            hits: u64::decode(dec)?,
            disk_hits: u64::decode(dec)?,
            misses: u64::decode(dec)?,
            evictions: u64::decode(dec)?,
            entries: usize::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut enc = Encoder::new();
        true.encode(&mut enc);
        0xDEAD_BEEFu32.encode(&mut enc);
        u64::MAX.encode(&mut enc);
        (-0.0f64).encode(&mut enc);
        f64::NAN.encode(&mut enc);
        "héllo".to_string().encode(&mut enc);
        Some(7u64).encode(&mut enc);
        Option::<u64>::None.encode(&mut enc);
        vec![1u32, 2, 3].encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(bool::decode(&mut dec).unwrap());
        assert_eq!(u32::decode(&mut dec).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut dec).unwrap(), u64::MAX);
        assert_eq!(
            f64::decode(&mut dec).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert!(f64::decode(&mut dec).unwrap().is_nan());
        assert_eq!(String::decode(&mut dec).unwrap(), "héllo");
        assert_eq!(Option::<u64>::decode(&mut dec).unwrap(), Some(7));
        assert_eq!(Option::<u64>::decode(&mut dec).unwrap(), None);
        assert_eq!(Vec::<u32>::decode(&mut dec).unwrap(), vec![1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_and_malformed_bytes_are_typed_errors() {
        let mut dec = Decoder::new(&[]);
        assert!(matches!(
            u64::decode(&mut dec),
            Err(WireError::Truncated { .. })
        ));
        let mut dec = Decoder::new(&[2]);
        assert!(matches!(
            bool::decode(&mut dec),
            Err(WireError::Malformed { .. })
        ));
        // A vec length prefix far beyond the payload fails at the first
        // missing element, not with an allocation.
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            Vec::<u64>::decode(&mut dec),
            Err(WireError::Truncated { .. })
        ));
        // Invalid UTF-8 is malformed, not a panic.
        let mut enc = Encoder::new();
        enc.put_u32(2);
        enc.put_bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            String::decode(&mut dec),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let payload = b"hello frame".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, &payload).unwrap();
        let (kind, decoded) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!((kind, decoded), (3, payload.clone()));

        // Clean EOF between frames.
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(WireError::Closed)
        ));

        // EOF inside the header.
        assert!(matches!(
            read_frame(&mut buf[..5].as_ref()),
            Err(WireError::Truncated { .. })
        ));

        // EOF inside the payload.
        assert!(matches!(
            read_frame(&mut buf[..buf.len() - 3].as_ref()),
            Err(WireError::Truncated { .. })
        ));

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadMagic { .. })
        ));

        // Unsupported version.
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::UnsupportedVersion { found: 99 })
        ));

        // Oversized length prefix: rejected before allocation.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn split_frame_checks_the_header_and_the_exact_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x0100, b"payload").unwrap();
        assert_eq!(split_frame(&buf).unwrap(), (0x0100, b"payload".as_slice()));

        // Every strict prefix is truncated, inside the header or after it.
        for cut in 0..buf.len() {
            assert!(matches!(
                split_frame(&buf[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }

        // A frame followed by anything is not one whole frame.
        let mut long = buf.clone();
        long.extend_from_slice(&[0, 0]);
        assert!(matches!(
            split_frame(&long),
            Err(WireError::TrailingBytes { extra: 2 })
        ));

        // The header checks are read_frame's.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(split_frame(&bad), Err(WireError::BadMagic { .. })));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            split_frame(&bad),
            Err(WireError::UnsupportedVersion { found: 99 })
        ));
        let mut bad = buf;
        bad[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            split_frame(&bad),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_writes_are_rejected() {
        struct NullWriter;
        impl Write for NullWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // A payload over the cap must be refused without being written.
        // (Constructed via a zero-filled vec; never actually sent.)
        let huge = vec![0u8; MAX_FRAME_PAYLOAD as usize + 1];
        assert!(matches!(
            write_frame(&mut NullWriter, 1, &huge),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn errors_display_something_useful() {
        for e in [
            WireError::Closed,
            WireError::Truncated { context: "header" },
            WireError::BadMagic { found: [0; 4] },
            WireError::UnsupportedVersion { found: 2 },
            WireError::UnknownKind { found: 42 },
            WireError::FrameTooLarge { len: 1 << 40 },
            WireError::Malformed { context: "bool" },
            WireError::TrailingBytes { extra: 3 },
            WireError::Protocol("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
