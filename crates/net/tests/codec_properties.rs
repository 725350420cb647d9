//! Property suite for the one wire codec, over the three byte formats
//! that ride on it — cluster messages, engine checkpoint frames and model
//! files: whatever bytes arrive, decoding is total — it returns a value or
//! a typed [`WireError`], never panics, never hangs, never allocates from
//! an untrusted length — and whatever *valid* value leaves, it round-trips
//! bit-exactly.

use proptest::prelude::*;
use std::sync::OnceLock;
use vvd_core::{
    ModelKey, PoolingKind, VvdConfig, VvdDataset, VvdModel, VvdSample, VvdVariant, MODEL_KIND,
};
use vvd_estimation::{EstimatorState, KalmanTapState, ModelCacheStats};
use vvd_net::message::{
    AssignSessions, AssignedSession, CacheStats, CheckpointFrame, Hello, Message, ResumeSessions,
    SessionReport, TickBarrier,
};
use vvd_net::wire::{read_frame, write_frame, WireError, MAX_FRAME_PAYLOAD};
use vvd_phy::DecodeOutcome;
use vvd_serve::checkpoint::MAX_STATE_DEPTH;
use vvd_serve::{
    BatchCounters, CheckpointError, EngineCheckpoint, SessionCheckpoint, SessionSpec,
    SynthCounters, CHECKPOINT_KIND,
};
use vvd_testbed::stream::EstimatorTrace;
use vvd_testbed::EvalConfig;
use vvd_vision::DepthImage;

/// A random-but-valid message assembled from drawn primitives.  Floats are
/// drawn as raw bit patterns (NaNs and infinities included), so round
/// trips are compared on re-encoded bytes, not on `PartialEq`.
fn build_message(selector: usize, words: &[u64], text: &str, flags: (bool, bool)) -> Message {
    let word = |i: usize| words[i % words.len().max(1)];
    let outcome = |i: usize| DecodeOutcome {
        crc_ok: word(i) % 2 == 0,
        chip_errors: word(i + 1) as usize,
        chip_count: word(i + 2) as usize,
        symbol_errors: word(i + 3) as usize,
    };
    let filter = |i: usize| {
        let taps: Vec<vvd_dsp::Complex> = (0..(word(i) % 5) as usize)
            .map(|t| {
                vvd_dsp::Complex::new(f64::from_bits(word(i + t)), f64::from_bits(word(i + t + 1)))
            })
            .collect();
        vvd_dsp::FirFilter::from_taps(&taps)
    };
    let assign = || AssignSessions {
        worker_index: word(0) as u32,
        shards: word(1) as u32,
        cache_dir: flags.0.then(|| text.to_string()),
        config: eval_config(&word),
        sessions: (0..words.len() % 4)
            .map(|i| AssignedSession {
                id: word(i),
                spec: SessionSpec {
                    scenario: text.to_string(),
                    estimator: text.chars().rev().collect(),
                    interval_ticks: word(i + 1),
                    offset_ticks: word(i + 2),
                    combination: word(i + 3) as usize,
                },
            })
            .collect(),
        checkpoints: flags.1,
    };
    match selector % 9 {
        0 => Message::Hello(Hello { pid: word(0) }),
        1 => Message::AssignSessions(assign()),
        2 => Message::TickBarrier(TickBarrier {
            ticks: word(0),
            done: flags.1,
        }),
        3 => Message::SessionReport(SessionReport {
            id: word(0),
            scenario: text.to_string(),
            packets_streamed: word(1),
            trace: EstimatorTrace {
                label: text.to_uppercase(),
                scored: (0..words.len() % 5).map(outcome).collect(),
                per_packet: (0..words.len() % 3).map(outcome).collect(),
                estimates: (0..words.len() % 3).map(filter).collect(),
                truths: (0..words.len() % 3).map(filter).collect(),
            },
        }),
        4 => Message::CacheStats(CacheStats {
            ticks: word(0),
            cache: ModelCacheStats {
                hits: word(1),
                disk_hits: word(2),
                misses: word(3),
                evictions: word(4),
                entries: word(5) as usize,
            },
            batches: BatchCounters {
                batch_calls: word(6),
                images: word(7),
                max_batch: word(8) as usize,
            },
            synth: SynthCounters {
                requests: word(9),
                syntheses: word(10),
                peak_resident_bytes: word(11),
            },
        }),
        5 => Message::Shutdown,
        6 => Message::CheckpointFrame(CheckpointFrame {
            frame: (0..words.len() % 6).map(|i| word(i) as u8).collect(),
        }),
        7 => Message::ResumeSessions(ResumeSessions {
            assign: assign(),
            frame: flags
                .0
                .then(|| (0..words.len() % 6).map(|i| word(i) as u8).collect()),
        }),
        _ => Message::Error {
            message: text.to_string(),
        },
    }
}

/// A float from a drawn word, with NaN payloads (quiet and signalling),
/// −0 and the infinities over-represented: uniform words almost never hit
/// them.
fn float_from(w: u64) -> f64 {
    f64::from_bits(match w % 8 {
        0 => 0x7FF8_0000_0000_0000 | (w >> 8),
        1 => 0x7FF0_0000_0000_0001,
        2 => (-0.0f64).to_bits(),
        3 => f64::INFINITY.to_bits() | (w & 1) << 63,
        _ => w,
    })
}

/// An `f32` from a drawn word, with the same specials as [`float_from`].
fn float32_from(w: u64) -> f32 {
    f32::from_bits(match w % 8 {
        0 => 0x7FC0_0000 | (w >> 8) as u32 & 0x3F_FFFF,
        1 => 0x7F80_0001,
        2 => (-0.0f32).to_bits(),
        3 => f32::INFINITY.to_bits() | ((w & 1) as u32) << 31,
        _ => w as u32,
    })
}

/// A campaign configuration with every field drawn: counts as raw words,
/// floats as raw bit patterns (NaN payloads, −0 and ±∞ included).
fn eval_config(word: &dyn Fn(usize) -> u64) -> EvalConfig {
    let mut c = EvalConfig::smoke();
    c.phy.samples_per_chip = word(0) as usize;
    c.phy.psdu_octets = word(1) as usize;
    c.phy.preamble_threshold = float_from(word(2));
    c.phy.sync_search_window = word(3) as usize;
    c.cir.n_taps = word(4) as usize;
    c.cir.los_tap = word(5) as usize;
    c.cir.delay_taps_per_meter = float_from(word(6));
    c.cir.human_scatter_reflectivity = float_from(word(7));
    c.cir.diffuse_relative_std = float_from(word(8));
    c.cir.diffuse_decay = float_from(word(9));
    c.vvd.conv_filters = word(10) as usize;
    c.vvd.dense_units = word(11) as usize;
    c.vvd.channel_taps = word(12) as usize;
    c.vvd.pooling = [PoolingKind::Average, PoolingKind::Max][(word(13) % 2) as usize];
    c.vvd.batch_norm = word(14) % 2 == 1;
    c.vvd.epochs = word(15) as usize;
    c.vvd.batch_size = word(16) as usize;
    c.vvd.learning_rate = float32_from(word(17));
    c.vvd.lr_decay = float32_from(word(18));
    c.vvd.seed = word(19);
    c.equalizer.equalizer_taps = word(20) as usize;
    c.equalizer.channel_taps = word(21) as usize;
    c.equalizer.align_phase = word(22) % 2 == 1;
    c.snr_db = float_from(word(23));
    c.n_sets = word(24) as usize;
    c.packets_per_set = word(25) as usize;
    c.n_combinations = word(26) as usize;
    c.kalman_warmup_packets = word(27) as usize;
    c.max_vvd_training_samples = word(28) as usize;
    c.seed = word(29);
    c
}

/// The model-file frame of a small trained network, trained once.
fn model_frame() -> &'static [u8] {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| {
        let mut config = VvdConfig::quick();
        (config.conv_filters, config.dense_units, config.channel_taps) = (2, 4, 2);
        config.epochs = 1;
        let mut train = VvdDataset::new();
        for k in 0..4 {
            train.push(VvdSample {
                image: DepthImage::filled(30, 26, 0.2 * k as f32),
                target_cir: vvd_dsp::FirFilter::from_taps(&[
                    vvd_dsp::Complex::new(1e-3, 0.0),
                    vvd_dsp::Complex::new(0.0, 1e-4),
                ]),
            });
        }
        let (model, _) = VvdModel::train(VvdVariant::Current, &config, &train, &VvdDataset::new());
        model.to_frame().unwrap()
    })
}

/// Every strict prefix of a model frame is truncated: the header pins the
/// payload length, so no cut decodes.
#[test]
fn every_strict_prefix_of_a_model_frame_is_truncated() {
    let frame = model_frame();
    assert!(VvdModel::from_frame(frame).is_ok());
    for cut in 0..frame.len() {
        let err = VvdModel::from_frame(&frame[..cut]).err();
        assert!(
            matches!(err, Some(WireError::Truncated { .. })),
            "cut at {cut} of {}: {err:?}",
            frame.len()
        );
    }
}

/// Every single-byte corruption of a model frame, at every offset — the
/// header, the variant, the configuration, the normaliser, the image size,
/// the key, the architecture tag, every length prefix and weight — decodes
/// to a model or a typed error, never a panic.  Decoding is canonical, so a
/// corrupted frame that still decodes re-encodes to exactly its bytes.
#[test]
fn single_byte_corruption_of_a_model_frame_is_handled_totally() {
    let frame = model_frame();
    for at in 0..frame.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bad = frame.to_vec();
            bad[at] ^= flip;
            if let Ok(model) = VvdModel::from_frame(&bad) {
                assert_eq!(model.to_frame().unwrap(), bad, "flip {flip:#x} at {at}");
            }
        }
    }
}

/// A random-but-valid engine checkpoint assembled from drawn primitives.
/// Session `i`'s estimator state is a fallback chain of
/// `1 + (levels + i) % MAX_STATE_DEPTH` levels over the leaf shapes, so
/// drawing `levels` from `0..MAX_STATE_DEPTH` reaches every depth up to
/// the deepest tree a frame may hold.
fn build_checkpoint(selector: usize, words: &[u64], text: &str, levels: usize) -> EngineCheckpoint {
    let word = |i: usize| words[i % words.len().max(1)];
    let complex = |i: usize| vvd_dsp::Complex::new(float_from(word(i)), float_from(word(i + 1)));
    let complexes = |i: usize, n: usize| (0..n).map(|t| complex(i + t)).collect::<Vec<_>>();
    let filter = |i: usize| vvd_dsp::FirFilter::from_taps(&complexes(i, (word(i) % 5) as usize));
    let outcome = |i: usize| DecodeOutcome {
        crc_ok: word(i) % 2 == 0,
        chip_errors: word(i + 1) as usize,
        chip_count: word(i + 2) as usize,
        symbol_errors: word(i + 3) as usize,
    };
    // Every leaf shape of an estimator state.
    let leaf = |shape: usize| match shape % 5 {
        0 => EstimatorState::Stateless,
        1 => EstimatorState::Previous {
            history: (0..word(shape) % 4)
                .map(|i| filter(shape + i as usize))
                .collect(),
        },
        2 => EstimatorState::AgedPreamble {
            history: (0..word(shape) % 4)
                .map(|i| (word(i as usize) % 2 == 0).then(|| filter(shape + i as usize)))
                .collect(),
        },
        3 => EstimatorState::Kalman {
            taps: (0..word(shape) % 3)
                .map(|i| {
                    let order = (word(shape + i as usize) % 4) as usize;
                    KalmanTapState {
                        state: complexes(shape, order),
                        cov: complexes(shape + 1, order * order),
                        history: complexes(shape + 2, order / 2),
                    }
                })
                .collect(),
        },
        _ => EstimatorState::Vvd {
            key: (word(shape) % 2 == 0).then(|| ModelKey::from_parts(word(1), word(2))),
        },
    };
    let chain = |shape: usize, depth: usize| {
        (1..depth).fold(leaf(shape), |inner, level| EstimatorState::Fallback {
            primary: Box::new(leaf(shape + level)),
            secondary: Box::new(inner),
        })
    };
    EngineCheckpoint {
        ticks: word(0),
        batches: BatchCounters {
            batch_calls: word(1),
            images: word(2),
            max_batch: word(3) as usize,
        },
        sessions: (0..1 + words.len() % 3)
            .map(|i| SessionCheckpoint {
                id: word(i) as usize,
                scenario: text.to_string(),
                interval: word(i + 1),
                next_due: word(i + 2),
                cursor: word(i + 3) as usize,
                estimator: chain(selector + i, 1 + (levels + i) % MAX_STATE_DEPTH),
                trace: EstimatorTrace {
                    label: text.to_uppercase(),
                    scored: (0..words.len() % 5).map(outcome).collect(),
                    per_packet: (0..words.len() % 3).map(outcome).collect(),
                    estimates: (0..words.len() % 3).map(filter).collect(),
                    truths: (0..words.len() % 3).map(filter).collect(),
                },
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid messages survive a full frame round trip bit-exactly:
    /// encode → frame → unframe → decode → re-encode yields the same
    /// payload bytes and the same kind tag (byte comparison sidesteps
    /// NaN's `PartialEq`).
    #[test]
    fn messages_round_trip_through_frames_bit_exactly(
        selector in 0usize..9,
        words in proptest::collection::vec(any::<u64>(), 1..12),
        text_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        flags in (any::<bool>(), any::<bool>()),
    ) {
        let text = String::from_utf8_lossy(&text_bytes).into_owned();
        let msg = build_message(selector, &words, &text, flags);
        let payload = msg.encode_payload();

        let mut framed = Vec::new();
        write_frame(&mut framed, msg.kind(), &payload).unwrap();
        let (kind, unframed) = read_frame(&mut framed.as_slice()).unwrap();
        prop_assert_eq!(kind, msg.kind());
        prop_assert_eq!(&unframed, &payload);

        let decoded = Message::decode_payload(kind, &unframed).unwrap();
        prop_assert_eq!(decoded.kind(), msg.kind());
        prop_assert_eq!(decoded.encode_payload(), payload);
        // Float-free messages compare field by field too (the end-of-run
        // counters, synthesis-memo counters included).
        if let Message::CacheStats(_) = &msg {
            prop_assert_eq!(&decoded, &msg);
        }
    }

    /// Arbitrary byte soup never panics or hangs the frame reader: it
    /// yields a frame or a typed error.
    #[test]
    fn random_bytes_never_panic_the_frame_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        match read_frame(&mut bytes.as_slice()) {
            Ok((kind, payload)) => {
                // A random blob that frames correctly must really carry
                // that many bytes.
                prop_assert!(payload.len() as u32 <= MAX_FRAME_PAYLOAD);
                let _ = Message::decode_payload(kind, &payload);
            }
            Err(
                WireError::Closed
                | WireError::Truncated { .. }
                | WireError::BadMagic { .. }
                | WireError::UnsupportedVersion { .. }
                | WireError::FrameTooLarge { .. }
                | WireError::Io(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// Arbitrary payload bytes under every kind tag decode totally:
    /// a message or a typed error, never a panic — and never an
    /// allocation driven by an untrusted length prefix (a hostile
    /// `u32::MAX` element count must fail, not OOM).
    #[test]
    fn random_payloads_never_panic_the_message_decoder(
        kind in 0u16..10,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = Message::decode_payload(kind, &payload);
    }

    /// Every strict prefix of a valid frame fails with a typed error —
    /// mid-frame EOF at any byte offset is handled, not panicked on.
    #[test]
    fn every_truncation_of_a_valid_frame_fails_typed(
        selector in 0usize..9,
        words in proptest::collection::vec(any::<u64>(), 1..6),
        cut_point in any::<prop::sample::Index>(),
    ) {
        let msg = build_message(selector, &words, "труба-77", (true, false));
        let mut framed = Vec::new();
        write_frame(&mut framed, msg.kind(), &msg.encode_payload()).unwrap();

        let cut = cut_point.index(framed.len());
        // The length prefix pins the payload size, so a strict prefix of
        // the byte stream must fail at one layer or the other — a cut can
        // never be self-delimiting.
        let failure = match read_frame(&mut framed[..cut].as_ref()) {
            Err(e) => Some(e),
            Ok((kind, payload)) => Message::decode_payload(kind, &payload).err(),
        };
        prop_assert!(
            failure.is_some(),
            "cut at {} of {} decoded fully", cut, framed.len()
        );
        let err = failure.expect("just asserted Some");
        prop_assert!(
            matches!(
                err,
                WireError::Closed
                    | WireError::Truncated { .. }
                    | WireError::Malformed { .. }
                    | WireError::TrailingBytes { .. }
            ),
            "cut at {} of {}: unexpected error {:?}", cut, framed.len(), err
        );
    }

    /// The synthesis-memo counters close the `CacheStats` payload: a
    /// payload cut anywhere inside them fails typed instead of decoding
    /// short.
    #[test]
    fn cache_stats_cut_inside_the_synth_counters_fails_typed(
        words in proptest::collection::vec(any::<u64>(), 1..12),
        cut_back in 1usize..=24,
    ) {
        let msg = build_message(4, &words, "", (false, false));
        let payload = msg.encode_payload();
        let err = Message::decode_payload(msg.kind(), &payload[..payload.len() - cut_back])
            .expect_err("a truncated CacheStats must not decode");
        prop_assert!(
            matches!(err, WireError::Truncated { .. }),
            "cut {} bytes short: unexpected error {:?}", cut_back, err
        );
    }

    /// Flipping any single byte of a valid frame never panics the
    /// reader/decoder stack; it yields some message or a typed error.
    #[test]
    fn single_byte_corruption_is_handled_totally(
        selector in 0usize..9,
        words in proptest::collection::vec(any::<u64>(), 1..6),
        flip_at in any::<prop::sample::Index>(),
        flip_with in 1u8..=255,
    ) {
        let msg = build_message(selector, &words, "frame", (false, true));
        let mut framed = Vec::new();
        write_frame(&mut framed, msg.kind(), &msg.encode_payload()).unwrap();
        let at = flip_at.index(framed.len());
        framed[at] ^= flip_with;

        if let Ok((kind, payload)) = read_frame(&mut framed.as_slice()) {
            let _ = Message::decode_payload(kind, &payload);
        }
    }
    /// Valid checkpoints survive `to_frame → from_frame → to_frame` with
    /// byte-identical frames: every state shape, fallback chains up to the
    /// depth limit, and raw float bit patterns (NaN payloads, −0).
    #[test]
    fn checkpoints_round_trip_to_byte_identical_frames(
        selector in 0usize..5,
        words in proptest::collection::vec(any::<u64>(), 1..12),
        text_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        levels in 0usize..MAX_STATE_DEPTH,
    ) {
        let text = String::from_utf8_lossy(&text_bytes).into_owned();
        let checkpoint = build_checkpoint(selector, &words, &text, levels);
        let frame = checkpoint.to_frame().unwrap();
        let decoded = EngineCheckpoint::from_frame(&frame).unwrap();
        prop_assert_eq!(decoded.sessions.len(), checkpoint.sessions.len());
        prop_assert_eq!(decoded.to_frame().unwrap(), frame);
    }

    /// Arbitrary bytes — bare, or as the payload of a well-formed
    /// checkpoint header — never panic the checkpoint decoder: every
    /// failure is a typed wire error.
    #[test]
    fn random_bytes_never_panic_the_checkpoint_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, CHECKPOINT_KIND, &bytes).unwrap();
        for input in [&bytes, &framed] {
            if let Err(err) = EngineCheckpoint::from_frame(input) {
                prop_assert!(
                    matches!(err, CheckpointError::Wire(_)),
                    "unexpected error class: {:?}", err
                );
            }
        }
    }

    /// Every strict prefix of a valid checkpoint frame is truncated: the
    /// header pins the payload length, so no cut decodes.
    #[test]
    fn every_strict_prefix_of_a_checkpoint_frame_is_truncated(
        selector in 0usize..5,
        words in proptest::collection::vec(any::<u64>(), 1..6),
        levels in 0usize..MAX_STATE_DEPTH,
        cut_point in any::<prop::sample::Index>(),
    ) {
        let frame = build_checkpoint(selector, &words, "труба-77", levels)
            .to_frame()
            .unwrap();
        let cut = cut_point.index(frame.len());
        let err = EngineCheckpoint::from_frame(&frame[..cut])
            .expect_err("a strict prefix must not decode");
        prop_assert!(
            matches!(err, CheckpointError::Wire(WireError::Truncated { .. })),
            "cut at {} of {}: unexpected error {:?}", cut, frame.len(), err
        );
    }

    /// Flipping any single byte of a valid checkpoint frame never panics
    /// the decoder.  Decoding is canonical, so a flipped frame that still
    /// decodes re-encodes to exactly the flipped bytes.
    #[test]
    fn single_byte_corruption_of_a_checkpoint_is_handled_totally(
        selector in 0usize..5,
        words in proptest::collection::vec(any::<u64>(), 1..6),
        levels in 0usize..MAX_STATE_DEPTH,
        flip_at in any::<prop::sample::Index>(),
        flip_with in 1u8..=255,
    ) {
        let mut frame = build_checkpoint(selector, &words, "frame", levels)
            .to_frame()
            .unwrap();
        let at = flip_at.index(frame.len());
        frame[at] ^= flip_with;
        match EngineCheckpoint::from_frame(&frame) {
            Ok(decoded) => prop_assert_eq!(decoded.to_frame().unwrap(), frame),
            Err(err) => prop_assert!(
                matches!(err, CheckpointError::Wire(_)),
                "flip at {}: unexpected error {:?}", at, err
            ),
        }
    }

    /// Arbitrary bytes — bare, as the payload of a model-file header, or
    /// spliced into a real model frame's payload — never panic the model
    /// decoder.
    #[test]
    fn random_bytes_never_panic_the_model_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        splice_at in any::<prop::sample::Index>(),
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, MODEL_KIND, &bytes).unwrap();
        let real = &model_frame()[12..];
        let at = splice_at.index(real.len());
        let mut spliced = Vec::new();
        write_frame(&mut spliced, MODEL_KIND, &[&real[..at], &bytes].concat()).unwrap();
        for input in [&bytes, &framed, &spliced] {
            let _ = VvdModel::from_frame(input);
        }
    }
}
