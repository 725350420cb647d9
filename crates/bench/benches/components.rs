//! Criterion micro-benchmarks of the building blocks: LS estimation, ZF
//! equalizer design and application, O-QPSK modulation/demodulation,
//! despreading, CNN inference and depth rendering (the full frame, and the
//! campaign's per-frame render over its pre-traced crop window).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vvd_channel::{CirConfig, CirSynthesizer, Human, Room};
use vvd_core::{build_vvd_cnn, VvdConfig};
use vvd_estimation::ls::{perfect_estimate, preamble_estimate};
use vvd_estimation::zf::ZfEqualizer;
use vvd_nn::Tensor;
use vvd_phy::oqpsk::{demodulate_chips, modulate_chips};
use vvd_phy::{modulate_frame, PhyConfig, PsduBuilder};
use vvd_testbed::campaign::{build_camera, build_scene, camera_view, render_frame};
use vvd_vision::render_depth;

fn bench_phy(c: &mut Criterion) {
    let cfg = PhyConfig::short_packets(32);
    let frame = PsduBuilder::new(&cfg).build(1);
    let tx = modulate_frame(&cfg, &frame);

    c.bench_function("phy/modulate_32B_frame", |b| {
        b.iter(|| modulate_frame(&cfg, &frame))
    });
    c.bench_function("phy/oqpsk_chip_roundtrip_1symbol", |b| {
        let chips = vvd_phy::pn::chip_sequence_bipolar(7);
        b.iter(|| {
            let wave = modulate_chips(&chips, 4);
            demodulate_chips(wave.as_slice(), 32, 4)
        })
    });
    c.bench_function("phy/despread_psdu", |b| {
        let soft = tx.chips.clone();
        b.iter(|| vvd_phy::despread_symbols(&soft))
    });
}

fn bench_estimation(c: &mut Criterion) {
    let cfg = PhyConfig::short_packets(32);
    let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(2));
    let synth = CirSynthesizer::new(Room::laboratory(), CirConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let channel = synth.cir(&Human::at(4.0, 3.0), &mut rng);
    let received = channel.filter_full(tx.full_waveform());

    c.bench_function("estimation/perfect_ls_11taps", |b| {
        b.iter(|| perfect_estimate(&tx, received.as_slice(), 11).unwrap())
    });
    c.bench_function("estimation/preamble_ls_11taps", |b| {
        b.iter(|| preamble_estimate(&tx, received.as_slice(), 11).unwrap())
    });
    let estimate = perfect_estimate(&tx, received.as_slice(), 11).unwrap();
    c.bench_function("estimation/zf_design_21taps", |b| {
        b.iter(|| ZfEqualizer::design(&estimate, 21).unwrap())
    });
    let eq = ZfEqualizer::design(&estimate, 21).unwrap();
    c.bench_function("estimation/zf_equalize_packet", |b| {
        b.iter(|| eq.equalize(received.as_slice(), tx.full_waveform().len()))
    });
}

fn bench_channel_and_vision(c: &mut Criterion) {
    let room = Room::laboratory();
    let synth = CirSynthesizer::new(room.clone(), CirConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("channel/cir_synthesis", |b| {
        b.iter(|| synth.cir(&Human::at(3.5, 2.5), &mut rng))
    });
    let camera = build_camera(&room);
    let scene = build_scene(&room, &[(4.0, 3.0)]);
    c.bench_function("vision/render_depth_108x72", |b| {
        b.iter(|| render_depth(&scene, &camera))
    });
    let view = camera_view(&room, &camera);
    c.bench_function("vision/render_frame_50x90", |b| {
        b.iter(|| render_frame(&view, &[(4.0, 3.0)]))
    });
}

fn bench_cnn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = VvdConfig::quick();
    let model = build_vvd_cnn(50, 90, &cfg, &mut rng);
    let input = Tensor::zeros(&[1, 1, 50, 90]);
    c.bench_function("cnn/vvd_inference_quick_arch", |b| {
        b.iter(|| model.predict(&input))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_phy, bench_estimation, bench_channel_and_vision, bench_cnn
}
criterion_main!(benches);
