//! The Fig.-8 CNN architecture.
//!
//! Input: a single-channel `H × W` depth image (50 × 90 after the Fig.-7
//! preprocessing).  The network is three convolution stages (3 × 3 kernels,
//! ReLU, 2 × 2 pooling), a flatten, a 256-unit dense layer with ReLU and a
//! linear output layer with `2 · N` units (22 for the 11-tap CIR).

use crate::config::{PoolingKind, VvdConfig};
use rand::Rng;
use vvd_nn::{AvgPool2d, BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2d, Relu, Sequential};

/// Spatial output size of one "conv(3×3, valid) + pool(2×2)" stage.
///
/// Saturates at zero for undersized inputs so that [`flattened_features`]
/// reports 0 (and [`build_vvd_cnn`] panics with its own message) instead of
/// underflowing — `h - 2` would only panic in debug builds and wrap in
/// release builds.
fn stage_output(h: usize, w: usize) -> (usize, usize) {
    (h.saturating_sub(2) / 2, w.saturating_sub(2) / 2)
}

/// Number of flattened features after the three convolution stages.
pub fn flattened_features(input_h: usize, input_w: usize, filters: usize) -> usize {
    let (h1, w1) = stage_output(input_h, input_w);
    let (h2, w2) = stage_output(h1, w1);
    let (h3, w3) = stage_output(h2, w2);
    filters * h3 * w3
}

/// The lengths of the parameters and of the buffers [`build_vvd_cnn`]
/// creates, each in layer order, computed without building anything:
/// `None` when the input is too small for the stack or a length overflows.
pub(crate) fn parameter_layout(
    input_h: usize,
    input_w: usize,
    cfg: &VvdConfig,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let (h1, w1) = stage_output(input_h, input_w);
    let (h2, w2) = stage_output(h1, w1);
    let (h3, w3) = stage_output(h2, w2);
    let filters = cfg.conv_filters;
    let features = filters.checked_mul(h3)?.checked_mul(w3)?;
    let outputs = cfg.channel_taps.checked_mul(2)?;
    if features == 0 {
        return None;
    }
    let (mut parameters, mut buffers) = (Vec::new(), Vec::new());
    let mut in_ch = 1usize;
    for _stage in 0..3 {
        parameters.extend([filters.checked_mul(in_ch.checked_mul(9)?)?, filters]);
        if cfg.batch_norm {
            parameters.extend([filters, filters]);
            buffers.extend([filters, filters]);
        }
        in_ch = filters;
    }
    parameters.extend([
        features.checked_mul(cfg.dense_units)?,
        cfg.dense_units,
        cfg.dense_units.checked_mul(outputs)?,
        outputs,
    ]);
    Some((parameters, buffers))
}

/// Builds the VVD CNN for the given input image size and configuration.
///
/// # Panics
/// Panics if the input image is too small to survive three conv/pool stages.
pub fn build_vvd_cnn<R: Rng + ?Sized>(
    input_h: usize,
    input_w: usize,
    cfg: &VvdConfig,
    rng: &mut R,
) -> Sequential {
    let features = flattened_features(input_h, input_w, cfg.conv_filters);
    assert!(features > 0, "input image too small for the Fig.-8 stack");

    let mut model = Sequential::new();
    let mut in_ch = 1usize;
    for _stage in 0..3 {
        model = model.add(Conv2d::new(in_ch, cfg.conv_filters, 3, rng));
        if cfg.batch_norm {
            model = model.add(BatchNorm2d::new(cfg.conv_filters));
        }
        model = model.add(Relu::new());
        model = match cfg.pooling {
            PoolingKind::Average => model.add(AvgPool2d::new(2)),
            PoolingKind::Max => model.add(MaxPool2d::new(2)),
        };
        in_ch = cfg.conv_filters;
    }
    model
        .add(Flatten::new())
        .add(Dense::new(features, cfg.dense_units, rng))
        .add(Relu::new())
        .add(Dense::new(cfg.dense_units, cfg.output_units(), rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vvd_nn::Tensor;

    #[test]
    fn paper_input_size_flattens_as_expected() {
        // 50x90 -> conv 48x88 -> pool 24x44 -> conv 22x42 -> pool 11x21
        //       -> conv 9x19  -> pool 4x9   => 32 * 4 * 9 = 1152 features.
        assert_eq!(flattened_features(50, 90, 32), 1152);
    }

    #[test]
    fn forward_pass_produces_22_outputs_for_paper_config() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = VvdConfig::quick();
        cfg.conv_filters = 4; // keep the test fast
        let model = build_vvd_cnn(50, 90, &cfg, &mut rng);
        let x = Tensor::zeros(&[2, 1, 50, 90]);
        let y = model.predict(&x);
        assert_eq!(y.shape(), &[2, 22]);
    }

    #[test]
    fn layer_stack_matches_fig8() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = VvdConfig::quick();
        let model = build_vvd_cnn(50, 90, &cfg, &mut rng);
        let names = model.layer_names();
        assert_eq!(
            names,
            vec![
                "Conv2d",
                "ReLU",
                "AvgPool2d",
                "Conv2d",
                "ReLU",
                "AvgPool2d",
                "Conv2d",
                "ReLU",
                "AvgPool2d",
                "Flatten",
                "Dense",
                "ReLU",
                "Dense"
            ]
        );
    }

    #[test]
    fn ablation_variants_change_the_stack() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = VvdConfig::quick();
        cfg.pooling = PoolingKind::Max;
        cfg.batch_norm = true;
        let model = build_vvd_cnn(50, 90, &cfg, &mut rng);
        let names = model.layer_names();
        assert!(names.contains(&"MaxPool2d"));
        assert!(names.contains(&"BatchNorm2d"));
        assert!(!names.contains(&"AvgPool2d"));
    }

    #[test]
    fn parameter_layout_matches_the_built_network() {
        let mut rng = StdRng::seed_from_u64(0);
        for (h, w, batch_norm, pooling) in [
            (50, 90, false, PoolingKind::Average),
            (26, 30, true, PoolingKind::Max),
            (22, 22, true, PoolingKind::Average),
        ] {
            let mut cfg = VvdConfig::quick();
            cfg.conv_filters = 3;
            cfg.batch_norm = batch_norm;
            cfg.pooling = pooling;
            let mut model = build_vvd_cnn(h, w, &cfg, &mut rng);
            let lengths = |v: Vec<Vec<f32>>| v.iter().map(Vec::len).collect::<Vec<_>>();
            assert_eq!(
                parameter_layout(h, w, &cfg),
                Some((lengths(model.state()), lengths(model.buffers_state())))
            );
        }
        let cfg = VvdConfig::quick();
        assert_eq!(parameter_layout(8, 8, &cfg), None, "too small");
        let mut huge = cfg;
        huge.conv_filters = usize::MAX / 2;
        assert_eq!(parameter_layout(50, 90, &huge), None, "overflow");
    }

    #[test]
    #[should_panic]
    fn too_small_input_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = VvdConfig::quick();
        let _ = build_vvd_cnn(8, 8, &cfg, &mut rng);
    }
}
