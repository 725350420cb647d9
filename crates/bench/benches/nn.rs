//! Criterion micro-benchmarks of the vvd-nn compute core: batched
//! inference and a few training steps through the Fig.-8 CNN, one full
//! training epoch, and the trained-model cache's hit-versus-miss cost.
//!
//! The inference and training targets exercise the sample-sharded
//! model passes (direct convolution kernels per shard, the dense layers'
//! GEMMs on the calling thread) on the quick-preset architecture; the cache
//! targets show what a content-addressed hit saves relative to retraining
//! the same provenance.
//!
//! Before the criterion targets the binary times the passes the workloads
//! run, best of several repetitions each: every quick-preset convolution
//! layer's forward, input-gradient and weight-gradient kernel on a
//! 16-image training batch (the first layer's input gradient is never
//! computed, see `Layer::backward_head`), the dense layer's forward GEMM
//! over 90 validation images, and one whole training step on a 16-image
//! batch.  Set `VVD_BENCH_JSON=<path>` to write those timings as a JSON
//! snapshot (`BENCH_nn.json` at the repo root is the committed reference
//! of the tiny preset).

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vvd_core::{build_vvd_cnn, ModelKey, VvdConfig, VvdDataset, VvdModel, VvdSample, VvdVariant};
use vvd_dsp::{Complex, FirFilter};
use vvd_estimation::ModelCache;
use vvd_nn::kernels::{
    conv2d_forward, conv2d_input_grad, conv2d_weight_partials, gemm_bt, ConvGeometry,
};
use vvd_nn::{Nadam, Tensor, TrainConfig, Trainer};
use vvd_vision::DepthImage;

/// Deterministic synthetic batch of depth-image-shaped inputs.
fn batch(n: usize, h: usize, w: usize) -> Tensor {
    let data: Vec<f32> = (0..n * h * w)
        .map(|i| 0.5 + 0.4 * ((i as f32) * 0.013).sin())
        .collect();
    Tensor::from_vec(&[n, 1, h, w], data)
}

fn bench_forward_and_step(c: &mut Criterion) {
    let cfg = VvdConfig::quick();
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = build_vvd_cnn(50, 90, &cfg, &mut rng);
    let x = batch(CONV_BATCH, 50, 90);

    c.bench_function("nn/forward_batch16_quick_arch", |b| {
        b.iter(|| model.infer(&x))
    });

    let (trainer, y, no_x, no_y) = one_step_fit(&cfg, 50, 90);
    let mut optimizer = Nadam::new(cfg.learning_rate, cfg.lr_decay);
    let name = format!("nn/fit_{STEP_EPOCHS}_steps_batch16_quick_arch");
    c.bench_function(&name, |b| {
        b.iter(|| trainer.fit(&mut model, &mut optimizer, &x, &y, &no_x, &no_y))
    });
}

/// A trainer whose fit over a [`CONV_BATCH`]-image set is one training
/// step per epoch ([`STEP_EPOCHS`] of them, no validation), its targets,
/// and the empty validation set.
fn one_step_fit(cfg: &VvdConfig, h: usize, w: usize) -> (Trainer, Tensor, Tensor, Tensor) {
    let trainer = Trainer::new(TrainConfig {
        epochs: STEP_EPOCHS,
        batch_size: CONV_BATCH,
        shuffle_seed: 0,
        keep_best_validation_epoch: false,
    });
    let targets: Vec<f32> = (0..CONV_BATCH * cfg.output_units())
        .map(|i| (i as f32 * 0.1).cos())
        .collect();
    (
        trainer,
        Tensor::from_vec(&[CONV_BATCH, cfg.output_units()], targets),
        Tensor::zeros(&[0, 1, h, w]),
        Tensor::zeros(&[0, cfg.output_units()]),
    )
}

fn bench_train_epoch(c: &mut Criterion) {
    let mut cfg = VvdConfig::quick();
    cfg.conv_filters = 4;
    cfg.dense_units = 16;
    let mut rng = StdRng::seed_from_u64(11);
    let (h, w) = (26, 30);
    let train_x = batch(48, h, w);
    let target: Vec<Vec<f32>> = (0..48)
        .map(|i| {
            (0..cfg.output_units())
                .map(|j| ((i + j) as f32 * 0.1).cos())
                .collect()
        })
        .collect();
    let train_y = Tensor::stack(&target, &[cfg.output_units()]);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 16,
        shuffle_seed: 0,
        keep_best_validation_epoch: false,
    });

    c.bench_function("nn/train_epoch_48samples", |b| {
        b.iter(|| {
            let mut model = build_vvd_cnn(h, w, &cfg, &mut rng);
            let mut optimizer = Nadam::new(cfg.learning_rate, cfg.lr_decay);
            trainer.fit(
                &mut model,
                &mut optimizer,
                &train_x,
                &train_y,
                &Tensor::zeros(&[0, 1, h, w]),
                &Tensor::zeros(&[0, cfg.output_units()]),
            )
        })
    });
}

/// A tiny but complete VVD training job for the cache benchmarks.
fn tiny_job() -> (VvdConfig, VvdDataset) {
    let mut cfg = VvdConfig::quick();
    cfg.conv_filters = 2;
    cfg.dense_units = 8;
    cfg.channel_taps = 3;
    cfg.epochs = 1;
    let mut ds = VvdDataset::new();
    for k in 0..6 {
        let mut img = DepthImage::filled(30, 26, 0.8);
        img.set(4, (k * 3) % 20, 0.2);
        let mut taps = vec![Complex::ZERO; 3];
        taps[1] = Complex::new(1e-3 + 1e-5 * k as f64, -5e-4);
        ds.push(VvdSample {
            image: img,
            target_cir: FirFilter::from_taps(&taps),
        });
    }
    (cfg, ds)
}

fn bench_model_cache(c: &mut Criterion) {
    let (cfg, train) = tiny_job();
    let validation = VvdDataset::new();
    let key = ModelKey::for_training(VvdVariant::Current, &cfg, &train, &validation);

    // Miss: every iteration starts from an empty cache and must train.
    c.bench_function("nn/model_cache_miss_trains", |b| {
        b.iter(|| {
            let cache = ModelCache::new();
            let (model, report) = cache.get_or_train(key, || {
                VvdModel::train(VvdVariant::Current, &cfg, &train, &validation)
            });
            assert!(report.is_some());
            model
        })
    });

    // Hit: the provenance is resident; the lookup costs a key comparison
    // and an Arc clone.
    let warm = ModelCache::new();
    let _ = warm.get_or_train(key, || {
        VvdModel::train(VvdVariant::Current, &cfg, &train, &validation)
    });
    c.bench_function("nn/model_cache_hit", |b| {
        b.iter(|| {
            let (model, report) = warm.get_or_train(key, || unreachable!("warm cache"));
            assert!(report.is_none());
            model
        })
    });
}

/// Timed repetitions per pass; the minimum is reported.
const REPS: usize = 15;

/// Training mini-batch of the quick preset.
const CONV_BATCH: usize = 16;

/// Training steps per timed fit of the training-step row: the fit's
/// one-off buffer sizing is spread over this many steps.
const STEP_EPOCHS: usize = 8;

/// The dense GEMM the workloads run, `(m, k, n)`: the first dense layer's
/// forward pass over 90 validation images at the quick preset.
const DENSE_BT: (usize, usize, usize) = (90, 288, 64);

/// One kernel timing, ready for the JSON snapshot.
struct PassTiming {
    pass: String,
    shape: String,
    best_ms: f64,
}

/// Best-of-[`REPS`] wall time of `f`.
fn best_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = std::time::Duration::MAX;
    for _ in 0..REPS {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best.as_secs_f64() * 1e3
}

/// Deterministic operand data.
fn operand(len: usize, step: f32) -> Vec<f32> {
    (0..len).map(|i| ((i as f32) * step).sin()).collect()
}

/// Best-of-[`REPS`] times of the quick preset's convolution kernels (one
/// thread, whole batch, into reused buffers), its dense GEMM and one
/// training step.
fn pass_timings() -> Vec<PassTiming> {
    let cfg = VvdConfig::quick();
    let (filters, n) = (cfg.conv_filters, CONV_BATCH);
    let mut rows = Vec::new();
    let (mut channels, mut h, mut w) = (1, 50, 90);
    for layer in 1..=3 {
        let geometry = ConvGeometry::valid(channels, h, w, 3);
        let (oh, ow) = geometry.output_hw();
        let x = operand(n * geometry.item_len(), 0.013);
        let weight = operand(filters * geometry.patch(), 0.29);
        let bias = operand(filters, 0.41);
        let g = operand(n * filters * oh * ow, 0.07);
        let shape = format!("{n}x{channels}x{h}x{w} * {filters}x{channels}x3x3");
        let mut out = vec![0.0f32; n * filters * oh * ow];
        let mut dx = vec![0.0f32; n * geometry.item_len()];
        let mut partials = vec![0.0f32; n * filters * geometry.patch()];
        let mut time = |pass: &str, best_ms| {
            rows.push(PassTiming {
                pass: format!("conv{layer} {pass}"),
                shape: shape.clone(),
                best_ms,
            })
        };
        time(
            "forward",
            best_ms(|| conv2d_forward(&x, n, &geometry, &weight, &bias, filters, &mut out)),
        );
        if layer > 1 {
            time(
                "input_grad",
                best_ms(|| conv2d_input_grad(&g, n, &geometry, &weight, filters, &mut dx)),
            );
        }
        time(
            "weight_grad",
            best_ms(|| conv2d_weight_partials(&x, &g, n, &geometry, filters, &mut partials)),
        );
        (channels, h, w) = (filters, oh / 2, ow / 2);
    }
    let (m, k, dn) = DENSE_BT;
    let (a, b) = (operand(m * k, 0.29), operand(dn * k, 0.41));
    rows.push(PassTiming {
        pass: "dense gemm_bt".to_string(),
        shape: format!("{m}x{k}x{dn}"),
        best_ms: best_ms(|| gemm_bt(&a, &b, m, k, dn)),
    });
    let mut model = build_vvd_cnn(50, 90, &cfg, &mut StdRng::seed_from_u64(7));
    let mut optimizer = Nadam::new(cfg.learning_rate, cfg.lr_decay);
    let x = batch(n, 50, 90);
    let (trainer, y, no_x, no_y) = one_step_fit(&cfg, 50, 90);
    let fit = best_ms(|| trainer.fit(&mut model, &mut optimizer, &x, &y, &no_x, &no_y));
    rows.push(PassTiming {
        pass: "train step".to_string(),
        shape: format!("{n}x1x50x90 quick CNN, {} shards", vvd_dsp::worker_budget()),
        best_ms: fit / STEP_EPOCHS as f64,
    });
    for r in &rows {
        println!(
            "{} [{}]: best of {REPS} {:.3}ms",
            r.pass, r.shape, r.best_ms
        );
    }
    rows
}

fn write_snapshot(rows: &[PassTiming]) {
    let Ok(path) = std::env::var("VVD_BENCH_JSON") else {
        return;
    };
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"pass\": {:?}, \"shape\": {:?}, \"best_ms\": {:.3} }}",
                r.pass, r.shape, r.best_ms
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"nn\",\n",
            "  \"preset\": {preset:?},\n",
            "  \"reps\": {reps},\n",
            "  \"passes\": [\n{entries}\n  ]\n",
            "}}\n"
        ),
        preset = std::env::var("VVD_BENCH_PRESET").unwrap_or_else(|_| "tiny".to_string()),
        reps = REPS,
        entries = entries.join(",\n"),
    );
    std::fs::write(&path, json).expect("snapshot path is writable");
    println!("wrote snapshot to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_forward_and_step, bench_train_epoch, bench_model_cache
}

fn main() {
    let rows = pass_timings();
    write_snapshot(&rows);
    benches();
}
