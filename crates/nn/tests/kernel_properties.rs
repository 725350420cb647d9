//! Property tests pinning the blocked kernels to the naive references —
//! *bit-identical*, not approximately equal — across randomized shapes,
//! strides and paddings, and pinning batched passes to their per-sample
//! equivalents.
//!
//! These are the proofs behind the kernel-refactor guarantee: blocking,
//! batching and threading never change a single bit of any result, which
//! is why the evaluation goldens survive the rewrite and why cached
//! trained models are indistinguishable from fresh ones.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vvd_nn::kernels::{self, reference, ConvGeometry};
use vvd_nn::layers::Layer;
use vvd_nn::{AvgPool2d, Conv2d, Dense, Flatten, Relu, Sequential, Tensor};

/// Deterministic test data: finite values in (-2, 2) with exact zeros (and
/// negative zeros) sprinkled in to exercise the kernels' zero-skips.
fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0u8..12) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

proptest! {
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive(
        dims in (1usize..12, 1usize..80, 1usize..600),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a = data(m * k, seed);
        let b = data(k * n, seed.wrapping_add(1));
        prop_assert_eq!(
            kernels::gemm(&a, &b, m, k, n),
            reference::matmul(&a, &b, m, k, n)
        );
    }

    #[test]
    fn blocked_gemm_at_is_bit_identical_to_naive(
        dims in (1usize..80, 1usize..12, 1usize..600),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a = data(k * m, seed);
        let b = data(k * n, seed.wrapping_add(2));
        prop_assert_eq!(
            kernels::gemm_at(&a, &b, m, k, n),
            reference::matmul_at(&a, &b, m, k, n)
        );
    }

    #[test]
    fn tiled_gemm_bt_is_bit_identical_to_naive(
        dims in (1usize..70, 1usize..90, 1usize..40),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a = data(m * k, seed);
        let b = data(n * k, seed.wrapping_add(3));
        prop_assert_eq!(
            kernels::gemm_bt(&a, &b, m, k, n),
            reference::matmul_bt(&a, &b, m, k, n)
        );
    }

    /// im2col + GEMM convolution (any stride, any padding) is bit-identical
    /// to the direct convolution reference.
    #[test]
    fn lowered_convolution_matches_direct_reference(
        channels in (1usize..4, 1usize..5),
        hw in (1usize..12, 1usize..12),
        ksp in (1usize..5, 1usize..4, 0usize..3),
        seed in 0u64..1_000_000,
    ) {
        let (in_channels, out_channels) = channels;
        let (height, width) = hw;
        let (kernel, stride, pad) = ksp;
        prop_assume!(height + 2 * pad >= kernel && width + 2 * pad >= kernel);
        let geometry = ConvGeometry { in_channels, height, width, kernel, stride, pad };
        let (oh, ow) = geometry.output_hw();
        let patch = geometry.patch();
        let item = data(geometry.item_len(), seed);
        let weight = data(out_channels * patch, seed.wrapping_add(4));
        let bias = data(out_channels, seed.wrapping_add(5));

        let col = kernels::im2col(&item, &geometry);
        let mut lowered = kernels::gemm(&weight, &col, out_channels, patch, oh * ow);
        for oc in 0..out_channels {
            for v in &mut lowered[oc * oh * ow..(oc + 1) * oh * ow] {
                *v += bias[oc];
            }
        }
        let direct = reference::conv2d_direct(&item, &weight, &bias, out_channels, &geometry);
        prop_assert_eq!(lowered, direct);
    }

    /// One batched forward pass through the full layer stack equals the
    /// concatenation of per-sample passes, bit for bit.
    #[test]
    fn batched_forward_equals_per_sample_forward(
        n in 1usize..5,
        hw in (9usize..14, 9usize..14),
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = hw;
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Sequential::new()
            .add(Conv2d::new(1, 3, 3, &mut rng))
            .add(Relu::new())
            .add(AvgPool2d::new(2))
            .add(Flatten::new())
            .add(Dense::new(3 * ((h - 2) / 2) * ((w - 2) / 2), 7, &mut rng))
            .add(Relu::new())
            .add(Dense::new(7, 2, &mut rng));

        let batch = Tensor::from_vec(&[n, 1, h, w], data(n * h * w, seed.wrapping_add(6)));
        let batched = model.infer(&batch);
        prop_assert_eq!(batched.shape(), &[n, 2]);

        let mut concatenated: Vec<f32> = Vec::new();
        for i in 0..n {
            let item = Tensor::from_vec(&[1, 1, h, w], batch.item(i).to_vec());
            concatenated.extend_from_slice(model.infer(&item).data());
        }
        prop_assert_eq!(batched.data(), &concatenated[..]);
    }

    /// One batched backward pass accumulates exactly the gradients of the
    /// per-sample passes applied in sample order.
    #[test]
    fn batched_backward_equals_per_sample_backward(
        n in 1usize..5,
        channels in (1usize..3, 1usize..4),
        hw in (4usize..8, 4usize..8),
        kernel in 2usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (in_channels, out_channels) = channels;
        let (h, w) = hw;
        prop_assume!(h >= kernel && w >= kernel);
        let (oh, ow) = (h + 1 - kernel, w + 1 - kernel);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batched = Conv2d::new(in_channels, out_channels, kernel, &mut rng);
        let mut per_sample = batched.clone();

        let x = Tensor::from_vec(
            &[n, in_channels, h, w],
            data(n * in_channels * h * w, seed.wrapping_add(7)),
        );
        let g = Tensor::from_vec(
            &[n, out_channels, oh, ow],
            data(n * out_channels * oh * ow, seed.wrapping_add(8)),
        );

        let _ = batched.forward(&x, true);
        let gi = batched.backward(&g);

        let mut gi_concat: Vec<f32> = Vec::new();
        for i in 0..n {
            let xi = Tensor::from_vec(&[1, in_channels, h, w], x.item(i).to_vec());
            let gsi = Tensor::from_vec(&[1, out_channels, oh, ow], g.item(i).to_vec());
            let _ = per_sample.forward(&xi, true);
            gi_concat.extend_from_slice(per_sample.backward(&gsi).data());
        }

        let batched_params: Vec<Vec<f32>> = batched
            .parameters()
            .into_iter()
            .map(|p| p.grad.clone())
            .collect();
        let per_sample_params: Vec<Vec<f32>> = per_sample
            .parameters()
            .into_iter()
            .map(|p| p.grad.clone())
            .collect();
        prop_assert_eq!(batched_params, per_sample_params);
        prop_assert_eq!(gi.data(), &gi_concat[..]);
    }
}
