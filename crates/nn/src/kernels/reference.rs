//! Naive reference kernels.
//!
//! These are the loop-nest implementations the blocked kernels in
//! [`super`] and the pooling layers are verified against: the property
//! tests in `crates/nn/tests/kernel_properties.rs` assert *bit-identical*
//! results across randomized shapes.  Each loop nest spells out the
//! per-element addition order its kernel must reproduce.  They are kept
//! small and obviously correct; do not optimise them.

use super::ConvGeometry;

/// Row-major matrix multiply `C = A(m×k) · B(k×n)`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul: A size mismatch");
    assert_eq!(b.len(), k * n, "matmul: B size mismatch");
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &a_val) in a_row.iter().enumerate() {
            if a_val == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_val * b_v;
            }
        }
    }
    c
}

/// Row-major matrix multiply with the first operand transposed:
/// `C = Aᵀ · B` where `a` is stored as `(k × m)`.
pub fn matmul_at(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), k * m, "matmul_at: A size mismatch");
    assert_eq!(b.len(), k * n, "matmul_at: B size mismatch");
    let mut c = vec![0.0f32; m * n];
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &a_val) in a_row.iter().enumerate() {
            if a_val == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_val * b_v;
            }
        }
    }
    c
}

/// Row-major matrix multiply with the second operand transposed:
/// `C = A(m×k) · Bᵀ` where `b` is stored as `(n × k)`.
pub fn matmul_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_bt: A size mismatch");
    assert_eq!(b.len(), n * k, "matmul_bt: B size mismatch");
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Direct 2-D convolution of one `[C, H, W]` item, the reference
/// [`super::conv2d_forward`] is verified against.
///
/// `weight` is stored `(out_channels × patch)` with patch index
/// `(c·k + ky)·k + kx`; each output element accumulates its products in
/// ascending patch order from `+0.0`, then adds the bias.
pub fn conv2d_direct(
    item: &[f32],
    weight: &[f32],
    bias: &[f32],
    out_channels: usize,
    geometry: &ConvGeometry,
) -> Vec<f32> {
    let g = geometry;
    let (oh, ow) = g.output_hw();
    let (k, h, w, patch) = (g.kernel, g.height, g.width, g.patch());
    assert_eq!(item.len(), g.item_len());
    assert_eq!(weight.len(), out_channels * patch);
    assert_eq!(bias.len(), out_channels);
    let mut out = vec![0.0f32; out_channels * oh * ow];
    for oc in 0..out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for c in 0..g.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let w_val = weight[oc * patch + (c * k + ky) * k + kx];
                            acc += w_val * item[(c * h + oy + ky) * w + ox + kx];
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc + bias[oc];
            }
        }
    }
    out
}

/// Input gradient of one item's convolution, the reference
/// [`super::conv2d_input_grad`] is verified against.
///
/// `grad_output` is the item's `[out_channels, oh, ow]` gradient.  Each
/// input element sums, from `+0.0` over its in-range `(ky, kx)` ascending,
/// the term `t = Σ_oc W[oc][p]·g[oc][y−ky][x−kx]`, itself summed with `oc`
/// ascending from `+0.0`.
pub fn conv2d_input_grad(
    grad_output: &[f32],
    weight: &[f32],
    out_channels: usize,
    geometry: &ConvGeometry,
) -> Vec<f32> {
    let g = geometry;
    let (oh, ow) = g.output_hw();
    let (k, h, w, patch) = (g.kernel, g.height, g.width, g.patch());
    assert_eq!(grad_output.len(), out_channels * oh * ow);
    assert_eq!(weight.len(), out_channels * patch);
    let mut grad_input = vec![0.0f32; g.item_len()];
    for c in 0..g.in_channels {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for ky in 0..k {
                    for kx in 0..k {
                        if y < ky || y - ky >= oh || x < kx || x - kx >= ow {
                            continue;
                        }
                        let (oy, ox) = (y - ky, x - kx);
                        let mut t = 0.0f32;
                        for oc in 0..out_channels {
                            let w_val = weight[oc * patch + (c * k + ky) * k + kx];
                            t += w_val * grad_output[(oc * oh + oy) * ow + ox];
                        }
                        acc += t;
                    }
                }
                grad_input[(c * h + y) * w + x] = acc;
            }
        }
    }
    grad_input
}

/// Weight gradient of a batch of `n` items, accumulated into `grad`
/// (`out_channels × patch`): the reference [`super::conv2d_weight_grad`] is
/// verified against.
///
/// Each sample's partial sums `g[oc][oy][ox]·x[c][oy+ky][ox+kx]` over the
/// output positions in row-major order from `+0.0`; the partials are then
/// added into `grad` in sample order.
pub fn conv2d_weight_grad(
    input: &[f32],
    grad_output: &[f32],
    n: usize,
    out_channels: usize,
    geometry: &ConvGeometry,
    grad: &mut [f32],
) {
    let g = geometry;
    let (oh, ow) = g.output_hw();
    let (k, h, w, patch) = (g.kernel, g.height, g.width, g.patch());
    let g_len = out_channels * oh * ow;
    assert_eq!(input.len(), n * g.item_len());
    assert_eq!(grad_output.len(), n * g_len);
    assert_eq!(grad.len(), out_channels * patch);
    for i in 0..n {
        let x = &input[i * g.item_len()..(i + 1) * g.item_len()];
        let gy = &grad_output[i * g_len..(i + 1) * g_len];
        let mut partial = vec![0.0f32; out_channels * patch];
        for oc in 0..out_channels {
            for c in 0..g.in_channels {
                for ky in 0..k {
                    for kx in 0..k {
                        let mut acc = 0.0f32;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                acc += gy[(oc * oh + oy) * ow + ox]
                                    * x[(c * h + oy + ky) * w + ox + kx];
                            }
                        }
                        partial[oc * patch + (c * k + ky) * k + kx] = acc;
                    }
                }
            }
        }
        for (acc, v) in grad.iter_mut().zip(&partial) {
            *acc += v;
        }
    }
}

/// Average pooling of `n` items of `[channels, h, w]`, square `window` and
/// matching stride (ragged edges are dropped): each output sums its window
/// in `(dy, dx)` order from `+0.0`, then divides by `window²`.
pub fn avg_pool2d(
    input: &[f32],
    n: usize,
    channels: usize,
    h: usize,
    w: usize,
    window: usize,
) -> Vec<f32> {
    assert_eq!(input.len(), n * channels * h * w);
    let (oh, ow) = (h / window, w / window);
    let win2 = (window * window) as f32;
    let mut out = vec![0.0f32; n * channels * oh * ow];
    for plane in 0..n * channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for dy in 0..window {
                    for dx in 0..window {
                        acc += input[(plane * h + oy * window + dy) * w + ox * window + dx];
                    }
                }
                out[(plane * oh + oy) * ow + ox] = acc / win2;
            }
        }
    }
    out
}

/// Gradient of [`avg_pool2d`]: every cell of a window receives
/// `0.0 + g / window²`; cells of the dropped ragged edges stay `+0.0`.
pub fn avg_pool2d_backward(
    grad_output: &[f32],
    n: usize,
    channels: usize,
    h: usize,
    w: usize,
    window: usize,
) -> Vec<f32> {
    let (oh, ow) = (h / window, w / window);
    assert_eq!(grad_output.len(), n * channels * oh * ow);
    let win2 = (window * window) as f32;
    let mut grad_input = vec![0.0f32; n * channels * h * w];
    for plane in 0..n * channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let v = grad_output[(plane * oh + oy) * ow + ox] / win2;
                for dy in 0..window {
                    for dx in 0..window {
                        grad_input[(plane * h + oy * window + dy) * w + ox * window + dx] += v;
                    }
                }
            }
        }
    }
    grad_input
}
