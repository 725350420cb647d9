//! Cross-crate integration tests: PHY + channel + estimation + testbed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vvd::channel::{apply_channel, ChannelRealization, CirConfig, CirSynthesizer, Human, Room};
use vvd::dsp::Complex;
use vvd::estimation::decode::decode_with_estimate;
use vvd::estimation::ls::{perfect_estimate, preamble_estimate};
use vvd::estimation::{EqualizerConfig, Technique};
use vvd::phy::{modulate_frame, PhyConfig, PsduBuilder, Receiver};
use vvd::testbed::{combinations_for, evaluate_combination, Campaign, EvalConfig};

/// A packet passed through the geometric channel simulator decodes cleanly
/// when equalized with the ground-truth estimate, for several human
/// positions (clear and blocking the LoS).
#[test]
fn ground_truth_equalization_decodes_through_simulated_channel() {
    let phy = PhyConfig::short_packets(16);
    let receiver = Receiver::new(phy);
    let tx = modulate_frame(&phy, &PsduBuilder::new(&phy).build(3));
    let synth = CirSynthesizer::new(Room::laboratory(), CirConfig::default());
    let mut rng = StdRng::seed_from_u64(1);

    for (x, y) in [(2.2, 4.5), (4.0, 3.0), (5.5, 2.0)] {
        let cir = synth.cir(&Human::at(x, y), &mut rng);
        let realization = ChannelRealization {
            fir: cir,
            phase_offset: 0.7,
            noise_std: 0.0,
        };
        let received = apply_channel(&tx.waveform, &realization, &mut rng);
        let estimate = perfect_estimate(&tx, received.as_slice(), 11).unwrap();
        let outcome = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &estimate,
            &EqualizerConfig {
                align_phase: false,
                ..EqualizerConfig::default()
            },
        );
        assert!(
            outcome.crc_ok,
            "position ({x},{y}): {} chip errors",
            outcome.chip_errors
        );
    }
}

/// The preamble-based estimate decodes noiseless packets as well as the
/// ground truth does; under strong blockage plus noise it degrades.
#[test]
fn preamble_estimate_matches_ground_truth_without_noise() {
    let phy = PhyConfig::short_packets(16);
    let receiver = Receiver::new(phy);
    let tx = modulate_frame(&phy, &PsduBuilder::new(&phy).build(9));
    let synth = CirSynthesizer::new(Room::laboratory(), CirConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    let cir = synth.cir(&Human::at(3.1, 2.4), &mut rng);
    let realization = ChannelRealization {
        fir: cir,
        phase_offset: -1.2,
        noise_std: 0.0,
    };
    let received = apply_channel(&tx.waveform, &realization, &mut rng);
    let est = preamble_estimate(&tx, received.as_slice(), 11).unwrap();
    let outcome = decode_with_estimate(
        &receiver,
        &tx,
        received.as_slice(),
        &est,
        &EqualizerConfig {
            align_phase: false,
            ..EqualizerConfig::default()
        },
    );
    assert!(outcome.crc_ok);
    assert_eq!(outcome.chip_errors, 0);
}

/// A miniature end-to-end evaluation produces internally consistent metrics
/// with the expected qualitative ordering.
#[test]
fn smoke_evaluation_orders_classical_techniques_sensibly() {
    let campaign = Campaign::generate(&EvalConfig::smoke());
    let combos = combinations_for(campaign.config.n_sets, 1);
    let techniques = [
        Technique::StandardDecoding,
        Technique::GroundTruth,
        Technique::PreambleBasedGenie,
        Technique::Previous100ms,
        Technique::Previous500ms,
        Technique::KalmanAr1,
    ];
    let result = evaluate_combination(&campaign, &combos[0], &techniques);

    let per = |t: Technique| result.metric(t).unwrap().per;
    let cer = |t: Technique| result.metric(t).unwrap().cer;
    let mse = |t: Technique| result.metric(t).unwrap().mse.unwrap();

    // Every rate is a valid probability.
    for t in techniques {
        assert!((0.0..=1.0).contains(&per(t)), "{t}: PER {}", per(t));
        assert!((0.0..=1.0).contains(&cer(t)), "{t}: CER {}", cer(t));
    }
    // Ground truth is the performance bound among estimate-based techniques
    // (standard decoding is excluded from this ordering: with the clean
    // simulated DSSS receiver, skipping ZF noise enhancement can make it
    // competitive at low SNR).
    assert!(per(Technique::GroundTruth) <= per(Technique::Previous500ms) + 0.05);
    assert!(cer(Technique::GroundTruth) <= cer(Technique::Previous500ms) + 1e-3);
    // A 100 ms old estimate cannot be much worse (in MSE) than a 500 ms old
    // one on average.
    assert!(mse(Technique::Previous100ms) <= mse(Technique::Previous500ms) * 1.5);
    // The genie preamble estimate produces a usable channel estimate: its
    // MSE stays within an order of magnitude of the stale 500 ms estimate
    // (at the low operating SNR the SHR-only LS fit is noisier than a
    // full-packet fit from another time, so it is not strictly better).
    assert!(mse(Technique::PreambleBasedGenie) <= mse(Technique::Previous500ms) * 10.0);
    assert!(mse(Technique::PreambleBasedGenie).is_finite());
}

/// Crystal phase offsets of arbitrary size never break ground-truth
/// decoding: the perfect estimate absorbs them.
#[test]
fn phase_offsets_are_absorbed_by_perfect_estimation() {
    let phy = PhyConfig::short_packets(8);
    let receiver = Receiver::new(phy);
    let tx = modulate_frame(&phy, &PsduBuilder::new(&phy).build(1));
    let synth = CirSynthesizer::new(Room::laboratory(), CirConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    let cir = synth.deterministic_cir(&Human::at(2.5, 4.0));

    for k in 0..8 {
        let phase = -3.0 + k as f64 * 0.8;
        let realization = ChannelRealization {
            fir: cir.clone(),
            phase_offset: phase,
            noise_std: 0.0,
        };
        let received = apply_channel(&tx.waveform, &realization, &mut rng);
        let estimate = perfect_estimate(&tx, received.as_slice(), 11).unwrap();
        let outcome = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &estimate,
            &EqualizerConfig {
                align_phase: false,
                ..EqualizerConfig::default()
            },
        );
        assert!(outcome.crc_ok, "phase {phase} broke decoding");
    }
}

/// The effective channel (taps + crystal phase) estimated by the perfect LS
/// estimator matches the realisation that generated the waveform.
#[test]
fn perfect_estimate_recovers_effective_channel_of_simulator() {
    let phy = PhyConfig::short_packets(8);
    let tx = modulate_frame(&phy, &PsduBuilder::new(&phy).build(2));
    let synth = CirSynthesizer::new(Room::laboratory(), CirConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let cir = synth.cir(&Human::at(4.4, 2.2), &mut rng);
    let realization = ChannelRealization {
        fir: cir,
        phase_offset: 2.1,
        noise_std: 0.0,
    };
    let received = apply_channel(&tx.waveform, &realization, &mut rng);
    let estimate = perfect_estimate(&tx, received.as_slice(), 11).unwrap();
    let effective = realization.effective_fir();
    let rel = estimate.taps().squared_error(effective.taps()) / effective.energy();
    assert!(rel < 1e-12, "relative estimation error {rel}");
    // And the phase offset shows up as the mean phase difference between the
    // aligned and raw channels.
    let raw_phase = estimate.taps().dot_h(realization.fir.taps()).arg();
    assert!((raw_phase - 2.1).abs() < 1e-3);
    let _ = Complex::ONE;
}
