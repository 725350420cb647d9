//! Criterion micro-benchmarks of the vvd-nn compute core: batched forward
//! and backward passes through the Fig.-8 CNN, one full training epoch, and
//! the trained-model cache's hit-versus-miss cost.
//!
//! The forward/backward targets exercise the blocked-GEMM + batched-im2col
//! kernels on the quick-preset architecture; the cache targets show what a
//! content-addressed hit saves relative to retraining the same provenance.
//!
//! Before the criterion targets the binary times the GEMM shapes the
//! workloads run, best of several repetitions each.  Set
//! `VVD_BENCH_JSON=<path>` to write those timings as a JSON snapshot
//! (`BENCH_nn.json` at the repo root is the committed reference of the
//! tiny preset).

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vvd_core::{build_vvd_cnn, ModelKey, VvdConfig, VvdDataset, VvdModel, VvdSample, VvdVariant};
use vvd_dsp::{Complex, FirFilter};
use vvd_estimation::ModelCache;
use vvd_nn::kernels::{gemm, gemm_at, gemm_bt};
use vvd_nn::loss::mse;
use vvd_nn::{Nadam, Tensor, TrainConfig, Trainer};
use vvd_vision::DepthImage;

/// Deterministic synthetic batch of depth-image-shaped inputs.
fn batch(n: usize, h: usize, w: usize) -> Tensor {
    let data: Vec<f32> = (0..n * h * w)
        .map(|i| 0.5 + 0.4 * ((i as f32) * 0.013).sin())
        .collect();
    Tensor::from_vec(&[n, 1, h, w], data)
}

fn bench_forward_backward(c: &mut Criterion) {
    let cfg = VvdConfig::quick();
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = build_vvd_cnn(50, 90, &cfg, &mut rng);
    let x = batch(16, 50, 90);

    c.bench_function("nn/forward_batch16_quick_arch", |b| {
        b.iter(|| model.infer(&x))
    });

    let y = model.forward(&x, true);
    let target = Tensor::zeros(y.shape());
    let (_, grad) = mse(&y, &target);
    c.bench_function("nn/backward_batch16_quick_arch", |b| {
        b.iter(|| {
            model.zero_grad();
            model.backward(&grad)
        })
    });
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

/// A GEMM entry point: `(a, b, m, k, n) -> c`.
type Gemm = fn(&[f32], &[f32], usize, usize, usize) -> Vec<f32>;

/// The GEMM shapes the workloads run, `(op, kernel, m, k, n)` at the quick-preset
/// architecture: the first and second conv layers' forward passes and the
/// second one's backward-data pass on a 16-image training batch, and the
/// dense layer's forward pass over 90 images.  The first three take the
/// column-panelled branch of the kernels; the last fits in cache.
const GEMM_SHAPES: [(&str, Gemm, usize, usize, usize); 4] = [
    ("nn", gemm, 8, 9, 67584),
    ("nn", gemm, 8, 72, 14784),
    ("at", gemm_at, 72, 8, 14784),
    ("bt", gemm_bt, 90, 288, 64),
];

/// Timed repetitions per shape; the minimum is reported.
const GEMM_REPS: usize = 15;

/// One GEMM timing, ready for the JSON snapshot.
struct GemmTiming {
    op: &'static str,
    m: usize,
    k: usize,
    n: usize,
    best_ms: f64,
}

/// Best-of-[`GEMM_REPS`] wall time of each shape in [`GEMM_SHAPES`].
fn gemm_timings() -> Vec<GemmTiming> {
    GEMM_SHAPES
        .iter()
        .map(|&(op, kernel, m, k, n)| {
            // Every orientation reads m·k and k·n operand elements.
            let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.29).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.41).cos()).collect();
            let mut best = std::time::Duration::MAX;
            for _ in 0..GEMM_REPS {
                let start = std::time::Instant::now();
                let c = kernel(&a, &b, m, k, n);
                let elapsed = start.elapsed();
                std::hint::black_box(c);
                best = best.min(elapsed);
            }
            let best_ms = best.as_secs_f64() * 1e3;
            println!("gemm {op} {m}x{k}x{n}: best of {GEMM_REPS} {best_ms:.3}ms");
            GemmTiming {
                op,
                m,
                k,
                n,
                best_ms,
            }
        })
        .collect()
}

fn write_snapshot(rows: &[GemmTiming]) {
    let Ok(path) = std::env::var("VVD_BENCH_JSON") else {
        return;
    };
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"op\": {op:?},\n",
                    "      \"m\": {m},\n",
                    "      \"k\": {k},\n",
                    "      \"n\": {n},\n",
                    "      \"best_ms\": {best_ms:.3}\n",
                    "    }}"
                ),
                op = r.op,
                m = r.m,
                k = r.k,
                n = r.n,
                best_ms = r.best_ms,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"nn\",\n",
            "  \"preset\": {preset:?},\n",
            "  \"gemm_reps\": {reps},\n",
            "  \"gemm\": [\n{entries}\n  ]\n",
            "}}\n"
        ),
        preset = std::env::var("VVD_BENCH_PRESET").unwrap_or_else(|_| "tiny".to_string()),
        reps = GEMM_REPS,
        entries = entries.join(",\n"),
    );
    std::fs::write(&path, json).expect("snapshot path is writable");
    println!("wrote snapshot to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_forward_backward, bench_train_epoch, bench_model_cache
}

fn main() {
    let rows = gemm_timings();
    write_snapshot(&rows);
    benches();
}
