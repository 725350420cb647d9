//! The cluster message set and its [`WireCodec`] encodings.
//!
//! Nine messages run the whole coordinator ⇄ worker protocol:
//!
//! | message                    | direction        | meaning                                        |
//! |----------------------------|------------------|------------------------------------------------|
//! | [`Hello`]                  | worker → coord   | liveness + identity, first frame on the wire   |
//! | [`AssignSessions`]         | coord → worker   | the worker's session subset + campaign config  |
//! | [`TickBarrier`]            | both             | advance-up-to-N-ticks / progress ack           |
//! | [`SessionReport`]          | worker → coord   | one session's full trace, bit-exact            |
//! | [`CacheStats`]             | worker → coord   | end-of-run cache, batching + memo accounting   |
//! | [`Message::Shutdown`]      | coord → worker   | orderly exit                                   |
//! | [`Message::Error`]         | both             | typed failure, terminates the peer's run       |
//! | [`CheckpointFrame`]        | worker → coord   | engine checkpoint frame, sent before each ack  |
//! | [`ResumeSessions`]         | coord → worker   | re-assignment of a dead worker's sessions plus |
//! |                            |                  | the last good checkpoint to replay from        |
//!
//! Payload encodings are deterministic little-endian ([`WireCodec`]);
//! floats travel as IEEE-754 bit patterns, so the traces a coordinator
//! collects are **bit-identical** to the worker's in-memory traces — the
//! foundation of the cluster-equals-single-process digest guarantee — and
//! a worker rebuilds its campaign from the very [`EvalConfig`] bits the
//! coordinator holds.  Messages carry the workspace's own types
//! ([`SessionSpec`], [`EstimatorTrace`], [`EvalConfig`], the run
//! counters), each encoded by the impl beside its type.

use crate::wire::{Decoder, Encoder, WireCodec, WireError};
use vvd_dsp::wire_struct;
use vvd_estimation::ModelCacheStats;
use vvd_serve::{BatchCounters, SessionSpec, SynthCounters};
use vvd_testbed::stream::EstimatorTrace;
use vvd_testbed::EvalConfig;

/// First frame a worker sends: proves the channel is alive and framed
/// correctly before any work is assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The worker's OS process id (0 for in-process loopback workers).
    pub pid: u64,
}

/// One session assignment: the session's workload-global id plus its
/// spec, which the worker builds verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignedSession {
    /// Workload-global session id (index into the full spec list).
    pub id: u64,
    /// The session's spec.
    pub spec: SessionSpec,
}

/// The coordinator's work order: everything a worker needs to rebuild its
/// session subset bit-identically to the corresponding slice of the
/// single-process workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignSessions {
    /// Index of this worker in the cluster (0-based).
    pub worker_index: u32,
    /// Thread shards the worker's engine fans out over.
    pub shards: u32,
    /// Shared on-disk model cache directory, when the cluster uses one.
    pub cache_dir: Option<String>,
    /// The campaign/evaluation configuration.
    pub config: EvalConfig,
    /// The assigned sessions, in ascending global-id order.
    pub sessions: Vec<AssignedSession>,
    /// When `true`, the worker sends a [`CheckpointFrame`] before every
    /// barrier ack (the ready ack included), giving the coordinator a
    /// resume point for crash recovery.
    pub checkpoints: bool,
}

/// Coordinator → worker: advance your engine by up to `ticks` ticks.
/// Worker → coordinator: progress ack (`ticks` = total ticks processed so
/// far, `done` once the subset is drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickBarrier {
    /// Tick budget (request) or cumulative ticks processed (ack).
    pub ticks: u64,
    /// Ack only: `true` once every assigned session has drained.
    pub done: bool,
}

/// One served session's complete outcome trace, bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Workload-global session id.
    pub id: u64,
    /// Scenario spec of the session.
    pub scenario: String,
    /// Packets streamed (warm-up included).
    pub packets_streamed: u64,
    /// The session's trace; its label is the one the session reports
    /// under.
    pub trace: EstimatorTrace,
}

/// End-of-run accounting a worker reports after its last session trace:
/// the worker-local model-cache counters (disk hits against the shared
/// directory included), batching and synthesis-memo counters and tick
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Ticks the worker's engine processed.
    pub ticks: u64,
    /// The worker's model-cache counters.
    pub cache: ModelCacheStats,
    /// The worker's inference-batching counters.
    pub batches: BatchCounters,
    /// The worker's synthesis-memo counters.
    pub synth: SynthCounters,
}

/// An engine checkpoint in transit: the worker's
/// [`EngineCheckpoint`](vvd_serve::EngineCheckpoint) already encoded as a
/// self-delimiting wire frame of kind
/// [`CHECKPOINT_KIND`](vvd_serve::CHECKPOINT_KIND).  The coordinator keeps
/// it opaque: it only ever stores the latest frame per worker and hands
/// it back in a [`ResumeSessions`], and never decodes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFrame {
    /// The encoded checkpoint frame.
    pub frame: Vec<u8>,
}

/// The coordinator's crash-recovery order: the dead worker's original
/// assignment plus the last good checkpoint frame to resume from (`None`
/// when the worker died before its first checkpoint — the replacement
/// starts from scratch).
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeSessions {
    /// The original assignment, verbatim.
    pub assign: AssignSessions,
    /// The last checkpoint frame the dead worker acked, if any.
    pub frame: Option<Vec<u8>>,
}

/// Every frame that travels between coordinator and worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker liveness + identity (first frame).
    Hello(Hello),
    /// The coordinator's work order.
    AssignSessions(AssignSessions),
    /// Tick-budget request / progress ack.
    TickBarrier(TickBarrier),
    /// One session's bit-exact trace.
    SessionReport(SessionReport),
    /// Worker end-of-run accounting.
    CacheStats(CacheStats),
    /// Orderly shutdown request.
    Shutdown,
    /// A typed failure report; the sender abandons its run.
    Error {
        /// Human-readable description of what failed.
        message: String,
    },
    /// An engine checkpoint frame (worker → coordinator, before each
    /// barrier ack when checkpoints are on).
    CheckpointFrame(CheckpointFrame),
    /// Crash recovery: re-assignment plus the checkpoint to resume from.
    ResumeSessions(ResumeSessions),
}

impl Message {
    /// The frame-header kind tag of this message.
    pub fn kind(&self) -> u16 {
        match self {
            Message::Hello(_) => 1,
            Message::AssignSessions(_) => 2,
            Message::TickBarrier(_) => 3,
            Message::SessionReport(_) => 4,
            Message::CacheStats(_) => 5,
            Message::Shutdown => 6,
            Message::Error { .. } => 7,
            Message::CheckpointFrame(_) => 8,
            Message::ResumeSessions(_) => 9,
        }
    }

    /// The message's name, for protocol-violation diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello(_) => "Hello",
            Message::AssignSessions(_) => "AssignSessions",
            Message::TickBarrier(_) => "TickBarrier",
            Message::SessionReport(_) => "SessionReport",
            Message::CacheStats(_) => "CacheStats",
            Message::Shutdown => "Shutdown",
            Message::Error { .. } => "Error",
            Message::CheckpointFrame(_) => "CheckpointFrame",
            Message::ResumeSessions(_) => "ResumeSessions",
        }
    }

    /// Encodes this message's payload (the frame body after the header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Message::Hello(m) => m.encode(&mut enc),
            Message::AssignSessions(m) => m.encode(&mut enc),
            Message::TickBarrier(m) => m.encode(&mut enc),
            Message::SessionReport(m) => m.encode(&mut enc),
            Message::CacheStats(m) => m.encode(&mut enc),
            Message::Shutdown => {}
            Message::Error { message } => message.encode(&mut enc),
            Message::CheckpointFrame(m) => m.encode(&mut enc),
            Message::ResumeSessions(m) => m.encode(&mut enc),
        }
        enc.into_bytes()
    }

    /// Decodes a message from its frame `kind` tag and payload bytes.
    ///
    /// # Errors
    /// [`WireError::UnknownKind`] for an unrecognized tag, any payload
    /// decode error, or [`WireError::TrailingBytes`] when the payload is
    /// longer than the message.
    pub fn decode_payload(kind: u16, payload: &[u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(payload);
        let msg = match kind {
            1 => Message::Hello(Hello::decode(&mut dec)?),
            2 => Message::AssignSessions(AssignSessions::decode(&mut dec)?),
            3 => Message::TickBarrier(TickBarrier::decode(&mut dec)?),
            4 => Message::SessionReport(SessionReport::decode(&mut dec)?),
            5 => Message::CacheStats(CacheStats::decode(&mut dec)?),
            6 => Message::Shutdown,
            7 => Message::Error {
                message: String::decode(&mut dec)?,
            },
            8 => Message::CheckpointFrame(CheckpointFrame::decode(&mut dec)?),
            9 => Message::ResumeSessions(ResumeSessions::decode(&mut dec)?),
            other => return Err(WireError::UnknownKind { found: other }),
        };
        dec.finish()?;
        Ok(msg)
    }
}

wire_struct!(Hello { pid });

wire_struct!(AssignedSession { id, spec });

wire_struct!(AssignSessions {
    worker_index,
    shards,
    cache_dir,
    config,
    sessions,
    checkpoints
});

wire_struct!(CheckpointFrame { frame });

wire_struct!(ResumeSessions { assign, frame });

wire_struct!(TickBarrier { ticks, done });

wire_struct!(SessionReport {
    id,
    scenario,
    packets_streamed,
    trace
});

wire_struct!(CacheStats {
    ticks,
    cache,
    batches,
    synth
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame};
    use vvd_core::{VvdConfig, VvdDataset, VvdModel, VvdSample, VvdVariant, MODEL_KIND};
    use vvd_dsp::{Complex, FirFilter};
    use vvd_phy::DecodeOutcome;
    use vvd_serve::{CheckpointError, EngineCheckpoint, CHECKPOINT_KIND};
    use vvd_vision::DepthImage;

    /// The model-file frame of a small trained network.
    fn model_frame() -> Vec<u8> {
        let mut config = VvdConfig::quick();
        (config.conv_filters, config.dense_units, config.channel_taps) = (2, 4, 2);
        config.epochs = 1;
        let mut train = VvdDataset::new();
        for k in 0..4 {
            train.push(VvdSample {
                image: DepthImage::filled(30, 26, 0.2 * k as f32),
                target_cir: FirFilter::from_taps(&[
                    Complex::new(1e-3, 0.0),
                    Complex::new(0.0, 1e-4),
                ]),
            });
        }
        let (model, _) = VvdModel::train(VvdVariant::Current, &config, &train, &VvdDataset::new());
        model.to_frame().unwrap()
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello(Hello { pid: 4242 }),
            Message::AssignSessions(AssignSessions {
                worker_index: 2,
                shards: 4,
                cache_dir: Some("/tmp/cache".into()),
                config: EvalConfig::smoke(),
                sessions: vec![AssignedSession {
                    id: 7,
                    spec: SessionSpec {
                        scenario: "rician:k=6,doppler=30".into(),
                        estimator: "fallback:preamble,vvd:current".into(),
                        interval_ticks: 3,
                        offset_ticks: 1,
                        combination: 0,
                    },
                }],
                checkpoints: true,
            }),
            Message::TickBarrier(TickBarrier {
                ticks: 16,
                done: false,
            }),
            Message::SessionReport(SessionReport {
                id: 7,
                scenario: "paper".into(),
                packets_streamed: 24,
                trace: EstimatorTrace {
                    label: "VVD".into(),
                    scored: vec![DecodeOutcome {
                        crc_ok: true,
                        chip_errors: 3,
                        chip_count: 1024,
                        symbol_errors: 1,
                    }],
                    per_packet: vec![],
                    estimates: vec![FirFilter::from_taps(&[
                        Complex::new(1.25e-3, -7.5e-4),
                        Complex::new(-0.0, f64::MIN_POSITIVE),
                    ])],
                    truths: vec![FirFilter::from_taps(&[Complex::new(0.5, 0.25)])],
                },
            }),
            Message::CacheStats(CacheStats {
                ticks: 99,
                cache: ModelCacheStats {
                    hits: 5,
                    disk_hits: 2,
                    misses: 1,
                    evictions: 0,
                    entries: 3,
                },
                batches: BatchCounters {
                    batch_calls: 10,
                    images: 63,
                    max_batch: 8,
                },
                synth: SynthCounters {
                    requests: 3200,
                    syntheses: 100,
                    peak_resident_bytes: 27 << 20,
                },
            }),
            Message::Shutdown,
            Message::Error {
                message: "nope".into(),
            },
            Message::CheckpointFrame(CheckpointFrame {
                frame: vec![b'V', b'V', b'D', b'C', 1, 0, 0, 0, 0, 0, 255],
            }),
            Message::ResumeSessions(ResumeSessions {
                assign: AssignSessions {
                    worker_index: 0,
                    shards: 1,
                    cache_dir: None,
                    config: EvalConfig::paper(),
                    sessions: vec![],
                    checkpoints: true,
                },
                frame: Some(vec![0xde, 0xad]),
            }),
        ]
    }

    #[test]
    fn every_message_round_trips_bit_exactly() {
        for msg in sample_messages() {
            let payload = msg.encode_payload();
            let decoded = Message::decode_payload(msg.kind(), &payload).unwrap();
            assert_eq!(decoded, msg, "{} must round-trip", msg.name());
        }
    }

    #[test]
    fn kinds_are_distinct_and_names_stable() {
        let msgs = sample_messages();
        let mut kinds: Vec<u16> = msgs.iter().map(Message::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len(), "kind tags must be unique");
        assert!(matches!(
            Message::decode_payload(0xFFFF, &[]),
            Err(WireError::UnknownKind { found: 0xFFFF })
        ));

        // Checkpoints and messages share the frame format but not a kind:
        // neither decoder accepts the other's frames.
        assert!(!kinds.contains(&CHECKPOINT_KIND));
        let checkpoint = EngineCheckpoint {
            ticks: 3,
            batches: BatchCounters::default(),
            sessions: Vec::new(),
        };
        let frame = checkpoint.to_frame().unwrap();
        let (kind, payload) = read_frame(&mut frame.as_slice()).unwrap();
        assert!(matches!(
            Message::decode_payload(kind, &payload),
            Err(WireError::UnknownKind {
                found: CHECKPOINT_KIND
            })
        ));
        for msg in msgs {
            let mut frame = Vec::new();
            write_frame(&mut frame, msg.kind(), &msg.encode_payload()).unwrap();
            assert!(
                matches!(
                    EngineCheckpoint::from_frame(&frame),
                    Err(CheckpointError::Wire(WireError::UnknownKind { found }))
                        if found == msg.kind()
                ),
                "{} frame decoded as a checkpoint",
                msg.name()
            );
            assert!(
                matches!(
                    VvdModel::from_frame(&frame),
                    Err(WireError::UnknownKind { found }) if found == msg.kind()
                ),
                "{} frame decoded as a model",
                msg.name()
            );
        }

        // Model files share the format too, under a kind of their own.
        assert!(!kinds.contains(&MODEL_KIND) && MODEL_KIND != CHECKPOINT_KIND);
        assert!(matches!(
            VvdModel::from_frame(&frame),
            Err(WireError::UnknownKind {
                found: CHECKPOINT_KIND
            })
        ));
        let model = model_frame();
        assert!(VvdModel::from_frame(&model).is_ok());
        let (kind, payload) = read_frame(&mut model.as_slice()).unwrap();
        assert!(matches!(
            Message::decode_payload(kind, &payload),
            Err(WireError::UnknownKind { found: MODEL_KIND })
        ));
        assert!(matches!(
            EngineCheckpoint::from_frame(&model),
            Err(CheckpointError::Wire(WireError::UnknownKind {
                found: MODEL_KIND
            }))
        ));
    }

    #[test]
    fn trailing_bytes_after_a_payload_are_rejected() {
        let msg = Message::TickBarrier(TickBarrier {
            ticks: 1,
            done: true,
        });
        let mut payload = msg.encode_payload();
        payload.push(0);
        assert!(matches!(
            Message::decode_payload(msg.kind(), &payload),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn truncated_session_reports_fail_typed_at_every_cut() {
        let msg = sample_messages().remove(3);
        let payload = msg.encode_payload();
        for cut in 0..payload.len() {
            let err = Message::decode_payload(msg.kind(), &payload[..cut])
                .expect_err("every strict prefix must fail to decode");
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::Malformed { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }
}
