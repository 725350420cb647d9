//! Direct 2-D convolution kernels (square kernel, stride 1, valid padding):
//! forward, input gradient and weight gradient over whole `[N, C, H, W]`
//! batches, reading the activation and gradient tensors in place.
//!
//! Each kernel computes a row at a time in register tiles: one dimension of
//! the row runs in *lanes* — tiles 8 wide, then at most one each 4, 2 and 1
//! wide — and a second is blocked [`BLOCK`] rows at a time, so a tile's
//! accumulators stay in registers while its reduction runs.  Per output
//! element the additions happen in exactly the order of the loop nests in
//! [`super::reference`]:
//!
//! * **forward** — `(Σ_p W[oc][p]·x[c][oy+ky][ox+kx]) + b[oc]`, patch index
//!   `p = (c, ky, kx)` ascending from `+0.0`, the bias added last;
//! * **input gradient** — `Σ_(ky,kx) t_p[y−ky][x−kx]` over the in-range
//!   `(ky, kx)` ascending from `+0.0`, where `t_p = Σ_oc W[oc][p]·g[oc]`
//!   with `oc` ascending from `+0.0`;
//! * **weight gradient** — per sample,
//!   `Σ_(oy,ox) g[oc][oy][ox]·x[c][oy+ky][ox+kx]` over the output positions
//!   in row-major order from `+0.0`; the per-sample partials are added into
//!   the gradient in sample order.
//!
//! Every kernel runs on the calling thread and writes a caller-provided
//! buffer, so a model pass can reuse its buffers from step to step.  Only
//! the input gradient and the weight partials accumulate, so only they
//! zero their buffer first; the forward pass writes every element.

/// Geometry of a square-kernel, stride-1, valid-padding convolution: the
/// one shape computation every convolution kernel, reference and layer
/// goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
}

impl ConvGeometry {
    /// Geometry of a valid-padding convolution over `[in_channels, height,
    /// width]` items.
    pub fn valid(in_channels: usize, height: usize, width: usize, kernel: usize) -> Self {
        ConvGeometry {
            in_channels,
            height,
            width,
            kernel,
        }
    }

    /// Output spatial size `(height − kernel + 1, width − kernel + 1)`.
    ///
    /// # Panics
    /// Panics when the kernel is empty or larger than the input, in release
    /// builds too (the subtraction is never left to wrap).
    pub fn output_hw(&self) -> (usize, usize) {
        assert!(
            self.kernel >= 1 && self.height >= self.kernel && self.width >= self.kernel,
            "convolution kernel {k}x{k} does not fit a {h}x{w} input",
            k = self.kernel,
            h = self.height,
            w = self.width,
        );
        (self.height - self.kernel + 1, self.width - self.kernel + 1)
    }

    /// Weights per output channel: `in_channels · kernel²`.
    pub fn patch(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Elements of one input item: `in_channels · height · width`.
    pub fn item_len(&self) -> usize {
        self.in_channels * self.height * self.width
    }
}

/// Rows of the blocked tile dimension per register tile.
const BLOCK: usize = 4;

/// A row of a kernel, computed one register tile at a time.
trait Tiles {
    /// Computes the `B × L` tile whose first blocked row is `block` and
    /// whose first lane is `lane`.
    fn tile<const B: usize, const L: usize>(&mut self, block: usize, lane: usize);
}

/// Covers `blocks × lanes` with tiles: [`BLOCK`] blocked rows at a time,
/// then single rows; across each, 8-lane tiles, then at most one tile each
/// of 4, 2 and 1 lanes.
fn cover<T: Tiles>(blocks: usize, lanes: usize, row: &mut T) {
    let mut block = 0;
    while block + BLOCK <= blocks {
        cover_lanes::<BLOCK, T>(block, lanes, row);
        block += BLOCK;
    }
    while block < blocks {
        cover_lanes::<1, T>(block, lanes, row);
        block += 1;
    }
}

fn cover_lanes<const B: usize, T: Tiles>(block: usize, lanes: usize, row: &mut T) {
    let mut lane = 0;
    while lane + 8 <= lanes {
        row.tile::<B, 8>(block, lane);
        lane += 8;
    }
    if lane + 4 <= lanes {
        row.tile::<B, 4>(block, lane);
        lane += 4;
    }
    if lane + 2 <= lanes {
        row.tile::<B, 2>(block, lane);
        lane += 2;
    }
    if lane < lanes {
        row.tile::<B, 1>(block, lane);
    }
}

/// The `L`-lane window of `row` starting at `start`.
fn window<const L: usize>(row: &[f32], start: usize) -> &[f32; L] {
    row[start..start + L]
        .try_into()
        .expect("a lane window is exactly L long")
}

/// Batched forward pass: `[N, C, H, W]` input to the `[N, out_channels,
/// oh, ow]` output `out`, every element of which it writes.  `weight` is
/// `(out_channels × patch)` with patch index `(c·k + ky)·k + kx`.
///
/// Bit-identical to [`super::reference::conv2d_direct`] on every item.
pub fn conv2d_forward(
    input: &[f32],
    n: usize,
    geometry: &ConvGeometry,
    weight: &[f32],
    bias: &[f32],
    out_channels: usize,
    out: &mut [f32],
) {
    let g = *geometry;
    let (oh, ow) = g.output_hw();
    assert_eq!(input.len(), n * g.item_len(), "conv input size");
    assert_eq!(weight.len(), out_channels * g.patch(), "conv weight size");
    assert_eq!(bias.len(), out_channels, "conv bias size");
    let out_len = out_channels * oh * ow;
    assert_eq!(out.len(), n * out_len, "conv output size");
    for i in 0..n {
        let x = &input[i * g.item_len()..][..g.item_len()];
        let out = &mut out[i * out_len..][..out_len];
        for oy in 0..oh {
            let mut row = ForwardRow {
                g,
                x,
                weight,
                bias,
                oy,
                out: &mut *out,
            };
            cover(out_channels, ow, &mut row);
        }
    }
}

/// Output row `oy` of one item: blocks are output channels, lanes output
/// columns.
struct ForwardRow<'a> {
    g: ConvGeometry,
    x: &'a [f32],
    weight: &'a [f32],
    bias: &'a [f32],
    oy: usize,
    out: &'a mut [f32],
}

impl Tiles for ForwardRow<'_> {
    fn tile<const B: usize, const L: usize>(&mut self, oc0: usize, ox0: usize) {
        let g = &self.g;
        let (k, h, w, patch) = (g.kernel, g.height, g.width, g.patch());
        let (oh, ow) = g.output_hw();
        let w_rows: [&[f32]; B] =
            std::array::from_fn(|b| &self.weight[(oc0 + b) * patch..][..patch]);
        let mut acc = [[0.0f32; L]; B];
        for c in 0..g.in_channels {
            for ky in 0..k {
                let x_row = &self.x[(c * h + self.oy + ky) * w..][..w];
                for kx in 0..k {
                    let p = (c * k + ky) * k + kx;
                    let xs = window::<L>(x_row, ox0 + kx);
                    for (acc, w_row) in acc.iter_mut().zip(&w_rows) {
                        let wv = w_row[p];
                        for (a, &xv) in acc.iter_mut().zip(xs) {
                            *a += wv * xv;
                        }
                    }
                }
            }
        }
        for (b, acc) in acc.iter().enumerate() {
            let bias = self.bias[oc0 + b];
            let dst = &mut self.out[((oc0 + b) * oh + self.oy) * ow + ox0..][..L];
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d = a + bias;
            }
        }
    }
}

/// Batched input gradient: `[N, out_channels, oh, ow]` output gradient to
/// the `[N, C, H, W]` input gradient `grad_input`, which it zeroes first.
///
/// Bit-identical to [`super::reference::conv2d_input_grad`] on every item.
pub fn conv2d_input_grad(
    grad_output: &[f32],
    n: usize,
    geometry: &ConvGeometry,
    weight: &[f32],
    out_channels: usize,
    grad_input: &mut [f32],
) {
    let g = *geometry;
    let (oh, ow) = g.output_hw();
    let g_len = out_channels * oh * ow;
    assert_eq!(grad_output.len(), n * g_len, "conv gradient size");
    assert_eq!(weight.len(), out_channels * g.patch(), "conv weight size");
    let item_len = g.item_len();
    assert_eq!(grad_input.len(), n * item_len, "conv input gradient size");
    grad_input.fill(0.0);
    for i in 0..n {
        let gy = &grad_output[i * g_len..][..g_len];
        let dx = &mut grad_input[i * item_len..][..item_len];
        // Input row y takes its (ky, kx) terms in ascending order: each
        // pass adds one term to every element of the row.
        for y in 0..g.height {
            for ky in (0..g.kernel).filter(|&ky| y >= ky && y - ky < oh) {
                for kx in 0..g.kernel {
                    let mut row = InputGradRow {
                        g,
                        gy,
                        weight,
                        out_channels,
                        y,
                        ky,
                        kx,
                        dx: &mut *dx,
                    };
                    cover(g.in_channels, ow, &mut row);
                }
            }
        }
    }
}

/// The `(ky, kx)` term of input row `y` of one item: blocks are input
/// channels, lanes output columns `ox`, landing on input columns `ox + kx`.
struct InputGradRow<'a> {
    g: ConvGeometry,
    gy: &'a [f32],
    weight: &'a [f32],
    out_channels: usize,
    y: usize,
    ky: usize,
    kx: usize,
    dx: &'a mut [f32],
}

impl Tiles for InputGradRow<'_> {
    fn tile<const B: usize, const L: usize>(&mut self, c0: usize, ox0: usize) {
        let g = &self.g;
        let (k, h, w, patch) = (g.kernel, g.height, g.width, g.patch());
        let (oh, ow) = g.output_hw();
        let oy = self.y - self.ky;
        let mut t = [[0.0f32; L]; B];
        for oc in 0..self.out_channels {
            let gs = window::<L>(&self.gy[(oc * oh + oy) * ow..][..ow], ox0);
            let w_row = &self.weight[oc * patch..][..patch];
            for (b, t) in t.iter_mut().enumerate() {
                let wv = w_row[((c0 + b) * k + self.ky) * k + self.kx];
                for (tv, &gv) in t.iter_mut().zip(gs) {
                    *tv += wv * gv;
                }
            }
        }
        for (b, t) in t.iter().enumerate() {
            let row = &mut self.dx[((c0 + b) * h + self.y) * w..][..w];
            for (d, &tv) in row[ox0 + self.kx..][..L].iter_mut().zip(t) {
                *d += tv;
            }
        }
    }
}

/// Per-sample weight-gradient partials: writes sample `i`'s `gᵢ ⋆ xᵢ`
/// (`out_channels × patch`, each element summed from `+0.0`) to the `i`-th
/// block of `partials`, which it zeroes first.  The batch's weight
/// gradient is these partials added up in sample order.
pub fn conv2d_weight_partials(
    input: &[f32],
    grad_output: &[f32],
    n: usize,
    geometry: &ConvGeometry,
    out_channels: usize,
    partials: &mut [f32],
) {
    let g = *geometry;
    let (oh, ow) = g.output_hw();
    let g_len = out_channels * oh * ow;
    let partial_len = out_channels * g.patch();
    assert_eq!(input.len(), n * g.item_len(), "conv input size");
    assert_eq!(grad_output.len(), n * g_len, "conv gradient size");
    assert_eq!(partials.len(), n * partial_len, "conv weight partials size");
    partials.fill(0.0);
    for i in 0..n {
        let partial = &mut partials[i * partial_len..][..partial_len];
        // Rows outermost: each element's sum runs over (oy, ox) in
        // row-major order, its accumulator parked in `partial` between
        // rows.
        for oy in 0..oh {
            let mut row = WeightGradRow {
                g,
                x: &input[i * g.item_len()..][..g.item_len()],
                gy: &grad_output[i * g_len..][..g_len],
                oy,
                partial: &mut *partial,
            };
            cover(g.patch(), out_channels, &mut row);
        }
    }
}

/// Batched weight gradient: adds each sample's partial `gᵢ ⋆ xᵢ` (see
/// [`conv2d_weight_partials`]) into `grad` (`out_channels × patch`), in
/// sample order.
///
/// Bit-identical to [`super::reference::conv2d_weight_grad`].
pub fn conv2d_weight_grad(
    input: &[f32],
    grad_output: &[f32],
    n: usize,
    geometry: &ConvGeometry,
    out_channels: usize,
    grad: &mut [f32],
) {
    let partial_len = out_channels * geometry.patch();
    assert_eq!(grad.len(), partial_len, "conv weight gradient size");
    let mut partials = vec![0.0f32; n * partial_len];
    conv2d_weight_partials(input, grad_output, n, geometry, out_channels, &mut partials);
    if partial_len == 0 {
        return;
    }
    for partial in partials.chunks(partial_len) {
        for (acc, &v) in grad.iter_mut().zip(partial) {
            *acc += v;
        }
    }
}

/// Output row `oy`'s contribution to one sample's partial: blocks are patch
/// entries, lanes output channels.
struct WeightGradRow<'a> {
    g: ConvGeometry,
    x: &'a [f32],
    gy: &'a [f32],
    oy: usize,
    partial: &'a mut [f32],
}

impl Tiles for WeightGradRow<'_> {
    fn tile<const B: usize, const L: usize>(&mut self, p0: usize, oc0: usize) {
        let g = &self.g;
        let (k, h, w, patch) = (g.kernel, g.height, g.width, g.patch());
        let (oh, ow) = g.output_hw();
        let x_rows: [&[f32]; B] = std::array::from_fn(|b| {
            let p = p0 + b;
            let (c, ky, kx) = (p / (k * k), p / k % k, p % k);
            &self.x[(c * h + self.oy + ky) * w + kx..][..ow]
        });
        let g_rows: [&[f32]; L] =
            std::array::from_fn(|l| &self.gy[((oc0 + l) * oh + self.oy) * ow..][..ow]);
        let mut acc = [[0.0f32; L]; B];
        for (b, acc) in acc.iter_mut().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                *a = self.partial[(oc0 + l) * patch + p0 + b];
            }
        }
        for ox in 0..ow {
            let gv: [f32; L] = std::array::from_fn(|l| g_rows[l][ox]);
            for (acc, x_row) in acc.iter_mut().zip(&x_rows) {
                let xv = x_row[ox];
                for (a, &gl) in acc.iter_mut().zip(&gv) {
                    *a += gl * xv;
                }
            }
        }
        for (b, acc) in acc.iter().enumerate() {
            for (l, &a) in acc.iter().enumerate() {
                self.partial[(oc0 + l) * patch + p0 + b] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * 0.37 + seed).sin()).collect()
    }

    fn forward(x: &[f32], n: usize, g: &ConvGeometry, weight: &[f32], bias: &[f32]) -> Vec<f32> {
        let (oh, ow) = g.output_hw();
        let mut out = vec![0.0; n * bias.len() * oh * ow];
        conv2d_forward(x, n, g, weight, bias, bias.len(), &mut out);
        out
    }

    fn input_grad(gy: &[f32], n: usize, g: &ConvGeometry, weight: &[f32], oc: usize) -> Vec<f32> {
        let mut dx = vec![0.0; n * g.item_len()];
        conv2d_input_grad(gy, n, g, weight, oc, &mut dx);
        dx
    }

    #[test]
    fn forward_matches_manual_patches() {
        // One 3x3 channel, 2x2 kernel: each output is its window's dot
        // product with the kernel, plus the bias.
        let g = ConvGeometry::valid(1, 3, 3, 2);
        let x: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let weight = [1.0, 2.0, 3.0, 4.0];
        let y = forward(&x, 1, &g, &weight, &[0.5]);
        let dot = |a: usize| x[a] + 2.0 * x[a + 1] + 3.0 * x[a + 3] + 4.0 * x[a + 4] + 0.5;
        assert_eq!(g.output_hw(), (2, 2));
        assert_eq!(y, vec![dot(0), dot(1), dot(3), dot(4)]);
    }

    #[test]
    fn batch_is_the_concatenation_of_per_sample_outputs() {
        // Forward and input-gradient passes over a two-item batch equal the
        // two single-item passes laid end to end.
        let g = ConvGeometry::valid(2, 4, 5, 2);
        let (oh, ow) = g.output_hw();
        let out_channels = 3;
        let weight = item(out_channels * g.patch(), 0.4);
        let bias = item(out_channels, 0.9);
        let (a, b) = (item(g.item_len(), 0.2), item(g.item_len(), 2.1));
        let both = [a.as_slice(), b.as_slice()].concat();
        let fwd = |x: &[f32], n| forward(x, n, &g, &weight, &bias);
        assert_eq!(fwd(&both, 2), [fwd(&a, 1), fwd(&b, 1)].concat());

        let g_len = out_channels * oh * ow;
        let (ya, yb) = (item(g_len, 1.7), item(g_len, -0.6));
        let grads = [ya.as_slice(), yb.as_slice()].concat();
        let back = |y: &[f32], n| input_grad(y, n, &g, &weight, out_channels);
        assert_eq!(back(&grads, 2), [back(&ya, 1), back(&yb, 1)].concat());
    }

    #[test]
    fn input_grad_is_the_adjoint_of_forward() {
        // <conv(x) - b, y> == <x, conv_input_grad(y)> up to rounding.
        let g = ConvGeometry::valid(2, 5, 6, 3);
        let (oh, ow) = g.output_hw();
        let out_channels = 3;
        let x = item(g.item_len(), 0.1);
        let weight = item(out_channels * g.patch(), 0.7);
        let y = item(out_channels * oh * ow, 1.3);
        let forward = forward(&x, 1, &g, &weight, &[0.0; 3]);
        let back = input_grad(&y, 1, &g, &weight, out_channels);
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .fold(0.0, |acc, v| acc + v)
        };
        let (lhs, rhs) = (dot(&forward, &y), dot(&x, &back));
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn reused_buffers_give_fresh_results() {
        // Buffers a previous pass left dirty: the forward pass overwrites
        // every element, the accumulating passes zero theirs first.
        let g = ConvGeometry::valid(2, 5, 4, 2);
        let (oh, ow) = g.output_hw();
        let (n, oc) = (2, 3);
        let x = item(n * g.item_len(), 0.3);
        let weight = item(oc * g.patch(), 0.8);
        let bias = item(oc, 1.1);
        let gy = item(n * oc * oh * ow, -0.4);

        let mut out = vec![f32::NAN; n * oc * oh * ow];
        conv2d_forward(&x, n, &g, &weight, &bias, oc, &mut out);
        assert_eq!(out, forward(&x, n, &g, &weight, &bias));

        let mut dx = vec![f32::NAN; n * g.item_len()];
        conv2d_input_grad(&gy, n, &g, &weight, oc, &mut dx);
        assert_eq!(dx, input_grad(&gy, n, &g, &weight, oc));

        let mut partials = vec![f32::NAN; n * oc * g.patch()];
        conv2d_weight_partials(&x, &gy, n, &g, oc, &mut partials);
        let mut grad = vec![0.0; oc * g.patch()];
        conv2d_weight_grad(&x, &gy, n, &g, oc, &mut grad);
        let (first, second) = partials.split_at(oc * g.patch());
        let summed: Vec<f32> = first.iter().zip(second).map(|(a, b)| 0.0 + a + b).collect();
        assert_eq!(grad, summed);
    }
}
