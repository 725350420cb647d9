//! Property tests pinning the blocked kernels to the naive references —
//! *bit-identical*, not approximately equal — across randomized shapes,
//! and pinning batched passes to their per-sample equivalents.
//!
//! These are the proofs behind the kernel-refactor guarantee: blocking and
//! batching never change a single bit of any result, which
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

/// The raw bits of `values`, so `-0.0` and `+0.0` compare unequal.
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Convolution shapes `(n, out_channels, geometry)`: batch 1–5, input
/// channels 1–5, output channels 1–9, kernel 1–4, output height 1–5 and
/// output width 1–17.
fn conv_shapes() -> impl Strategy<Value = (usize, usize, ConvGeometry)> {
    let channels = (1usize..6, 1usize..6, 1usize..10);
    let spatial = (1usize..5, 1usize..6, 1usize..18);
    (channels, spatial).prop_map(|((n, in_channels, out_channels), (kernel, oh, ow))| {
        let geometry = ConvGeometry::valid(in_channels, oh + kernel - 1, ow + kernel - 1, kernel);
        (n, out_channels, geometry)
    })
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

    /// The direct forward kernel is bit-identical, item by item, to the
    /// loop-nest reference.  Shapes reach every tile remainder: output
    /// channels past one 4-block, output widths past two 8-lane tiles.
    #[test]
    fn conv_forward_matches_direct_reference(
        shape in conv_shapes(),
        seed in 0u64..1_000_000,
    ) {
        let (n, out_channels, geometry) = shape;
        let input = data(n * geometry.item_len(), seed);
        let weight = data(out_channels * geometry.patch(), seed.wrapping_add(4));
        let bias = data(out_channels, seed.wrapping_add(5));

        let (oh, ow) = geometry.output_hw();
        let mut batched = vec![f32::NAN; n * out_channels * oh * ow];
        kernels::conv2d_forward(&input, n, &geometry, &weight, &bias, out_channels, &mut batched);
        let mut per_item = Vec::new();
        for item in input.chunks(geometry.item_len()) {
            per_item.extend(reference::conv2d_direct(item, &weight, &bias, out_channels, &geometry));
        }
        prop_assert_eq!(bits(&batched), bits(&per_item));
    }

    /// A `Conv2d` layer lowered onto the direct forward kernel is
    /// bit-identical, item by item, to the loop-nest reference run on the
    /// layer's own weight and bias, through both `forward` and `infer`.
    #[test]
    fn lowered_convolution_matches_direct_reference(
        shape in conv_shapes(),
        seed in 0u64..1_000_000,
    ) {
        let (n, out_channels, geometry) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(geometry.in_channels, out_channels, geometry.kernel, &mut rng);
        let input = data(n * geometry.item_len(), seed.wrapping_add(10));
        let x = Tensor::from_vec(&[n, geometry.in_channels, geometry.height, geometry.width], input.clone());

        let inferred = conv.infer(&x);
        let layer = conv.forward(&x, true);
        let params = conv.parameters();
        let (weight, bias) = (&params[0].value, &params[1].value);
        let mut per_item = Vec::new();
        for item in input.chunks(geometry.item_len()) {
            per_item.extend(reference::conv2d_direct(item, weight, bias, out_channels, &geometry));
        }
        let (oh, ow) = geometry.output_hw();
        prop_assert_eq!(layer.shape(), &[n, out_channels, oh, ow]);
        prop_assert_eq!(bits(layer.data()), bits(&per_item));
        prop_assert_eq!(bits(inferred.data()), bits(&per_item));
    }

    /// The direct input-gradient kernel is bit-identical, item by item, to
    /// the loop-nest reference.
    #[test]
    fn conv_input_grad_matches_reference(
        shape in conv_shapes(),
        seed in 0u64..1_000_000,
    ) {
        let (n, out_channels, geometry) = shape;
        let (oh, ow) = geometry.output_hw();
        let g_len = out_channels * oh * ow;
        let grad_output = data(n * g_len, seed);
        let weight = data(out_channels * geometry.patch(), seed.wrapping_add(6));

        let mut batched = vec![f32::NAN; n * geometry.item_len()];
        kernels::conv2d_input_grad(&grad_output, n, &geometry, &weight, out_channels, &mut batched);
        let mut per_item = Vec::new();
        for g in grad_output.chunks(g_len) {
            per_item.extend(reference::conv2d_input_grad(g, &weight, out_channels, &geometry));
        }
        prop_assert_eq!(bits(&batched), bits(&per_item));
    }

    /// The direct weight-gradient kernel accumulates exactly the
    /// reference's per-sample partials, in sample order, on top of an
    /// existing gradient.
    #[test]
    fn conv_weight_grad_matches_reference(
        shape in conv_shapes(),
        seed in 0u64..1_000_000,
    ) {
        let (n, out_channels, geometry) = shape;
        let (oh, ow) = geometry.output_hw();
        let input = data(n * geometry.item_len(), seed);
        let grad_output = data(n * out_channels * oh * ow, seed.wrapping_add(7));
        let prior = data(out_channels * geometry.patch(), seed.wrapping_add(8));

        let mut kernel_grad = prior.clone();
        kernels::conv2d_weight_grad(&input, &grad_output, n, &geometry, out_channels, &mut kernel_grad);
        let mut reference_grad = prior;
        reference::conv2d_weight_grad(&input, &grad_output, n, out_channels, &geometry, &mut reference_grad);
        prop_assert_eq!(bits(&kernel_grad), bits(&reference_grad));
    }

    /// `AvgPool2d`'s row-wise forward and backward passes are bit-identical
    /// to the nested-loop references, ragged edges included.
    #[test]
    fn avg_pool_matches_reference(
        dims in (1usize..6, 1usize..6, 1usize..18, 1usize..18),
        window in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (n, channels, h, w) = dims;
        let input = data(n * channels * h * w, seed);
        let mut pool = AvgPool2d::new(window);
        let out = pool.forward(&Tensor::from_vec(&[n, channels, h, w], input.clone()), true);
        prop_assert_eq!(
            bits(out.data()),
            bits(&reference::avg_pool2d(&input, n, channels, h, w, window))
        );

        let grad_output = data(out.len(), seed.wrapping_add(9));
        let grad_input = pool.backward(&Tensor::from_vec(out.shape(), grad_output.clone()));
        prop_assert_eq!(
            bits(grad_input.data()),
            bits(&reference::avg_pool2d_backward(&grad_output, n, channels, h, w, window))
        );
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
