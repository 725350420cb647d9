//! Average and max pooling (square windows, stride = window size).
//!
//! The paper uses 2 × 2 *average* pooling throughout and notes that max
//! pooling performed slightly worse (Sec. 4); both are provided so the
//! ablation bench can reproduce that comparison.

use crate::layers::{Layer, PerSample};
use crate::tensor::Tensor;

/// 2-D average pooling with a square window and matching stride.
#[derive(Clone)]
pub struct AvgPool2d {
    window: usize,
    cached_shape: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average pooling layer with the given window size.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        AvgPool2d {
            window,
            cached_shape: Vec::new(),
        }
    }

    fn pool(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "AvgPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut out = Tensor::zeros(&[n, c, h / self.window, w / self.window]);
        avg_pool(input.data(), out.data_mut(), h, w, self.window);
        out
    }
}

/// Average pooling of `[.., h, w]` planes into `out`, square `win` windows
/// with matching stride, ragged edges dropped.
pub(crate) fn avg_pool(input: &[f32], out: &mut [f32], h: usize, w: usize, win: usize) {
    if out.is_empty() {
        return;
    }
    // The Fig.-8 window gets a copy of the loops with its size fixed.
    match win {
        2 => avg_pool_rows(input, out, h, w, 2),
        win => avg_pool_rows(input, out, h, w, win),
    }
}

/// Gradient of [`avg_pool`] into `grad_input`, every element of which it
/// writes: the windows' cells, and the `+0.0` of the ragged edges.
pub(crate) fn avg_pool_backward(
    grad: &[f32],
    grad_input: &mut [f32],
    h: usize,
    w: usize,
    win: usize,
) {
    if grad.is_empty() {
        grad_input.fill(0.0);
        return;
    }
    match win {
        2 => avg_pool_rows_backward(grad, grad_input, h, w, 2),
        win => avg_pool_rows_backward(grad, grad_input, h, w, win),
    }
}

/// Row-wise average pooling of `[.., h, w]` planes into `out`: each output
/// row reads its `win` input rows and sums every window in `(dy, dx)` order
/// from `+0.0`, then divides by `win²` — the order of
/// [`crate::kernels::reference::avg_pool2d`].  Inlined so a constant `win`
/// unrolls the window loops.
#[inline(always)]
fn avg_pool_rows(input: &[f32], out: &mut [f32], h: usize, w: usize, win: usize) {
    let (oh, ow) = (h / win, w / win);
    let win2 = (win * win) as f32;
    let planes = input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
    for (plane, out_plane) in planes {
        let rows = plane
            .chunks_exact(win * w)
            .zip(out_plane.chunks_exact_mut(ow));
        for (rows, out_row) in rows {
            for (ox, out) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for dy in 0..win {
                    for dx in 0..win {
                        acc += rows[dy * w + ox * win + dx];
                    }
                }
                *out = acc / win2;
            }
        }
    }
}

/// Row-wise gradient of [`avg_pool_rows`]: every cell of a window receives
/// `0.0 + g / win²`, as [`crate::kernels::reference::avg_pool2d_backward`]
/// adds it into a zeroed gradient; ragged edges get `+0.0`.
#[inline(always)]
fn avg_pool_rows_backward(grad: &[f32], grad_input: &mut [f32], h: usize, w: usize, win: usize) {
    let (oh, ow) = (h / win, w / win);
    let win2 = (win * win) as f32;
    let planes = grad
        .chunks_exact(oh * ow)
        .zip(grad_input.chunks_exact_mut(h * w));
    for (g_plane, plane) in planes {
        let (windows, bottom) = plane.split_at_mut(oh * win * w);
        bottom.fill(0.0);
        let rows = g_plane
            .chunks_exact(ow)
            .zip(windows.chunks_exact_mut(win * w));
        for (g_row, rows) in rows {
            for row in rows.chunks_exact_mut(w) {
                let (cells, right) = row.split_at_mut(ow * win);
                right.fill(0.0);
                for (&g, cell) in g_row.iter().zip(cells.chunks_exact_mut(win)) {
                    let v = 0.0 + g / win2;
                    for d in cell {
                        *d = v;
                    }
                }
            }
        }
    }
}

impl Layer for AvgPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let out = self.pool(input);
        self.cached_shape = input.shape().to_vec();
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.pool(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = &self.cached_shape;
        let (h, w) = (shape[2], shape[3]);
        let mut grad_input = Tensor::zeros(shape);
        avg_pool_backward(grad_output.data(), grad_input.data_mut(), h, w, self.window);
        grad_input
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }

    fn per_sample(&self) -> Option<PerSample<'_>> {
        Some(PerSample::AvgPool {
            window: self.window,
        })
    }
}

/// 2-D max pooling with a square window and matching stride.
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    cached_shape: Vec<usize>,
    cached_argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max pooling layer with the given window size.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        MaxPool2d {
            window,
            cached_shape: Vec::new(),
            cached_argmax: Vec::new(),
        }
    }

    fn pool_with_argmax(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut out = Tensor::zeros(&[n, c, h / self.window, w / self.window]);
        let mut argmax = vec![0; out.len()];
        max_pool(input.data(), out.data_mut(), &mut argmax, h, w, self.window);
        (out, argmax)
    }
}

/// Max pooling of `[.., h, w]` planes into `out`, square `win` windows with
/// matching stride, ragged edges dropped.  Each window's winning cell —
/// its index in the plane — goes to `argmax`: the first cell, in `(dy, dx)`
/// order, strictly greater than every cell before it and than `−∞`.  A
/// window of `−∞` and NaN has no such cell and keeps its own first cell, so
/// its gradient still lands inside it.
pub(crate) fn max_pool(
    input: &[f32],
    out: &mut [f32],
    argmax: &mut [usize],
    h: usize,
    w: usize,
    win: usize,
) {
    let (oh, ow) = (h / win, w / win);
    if out.is_empty() {
        return;
    }
    let planes = input.chunks_exact(h * w).zip(
        out.chunks_exact_mut(oh * ow)
            .zip(argmax.chunks_exact_mut(oh * ow)),
    );
    for (plane, (out, argmax)) in planes {
        for (k, (out, argmax)) in out.iter_mut().zip(argmax.iter_mut()).enumerate() {
            let first = (k / ow) * win * w + (k % ow) * win;
            let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
            for dy in 0..win {
                for dx in 0..win {
                    let idx = first + dy * w + dx;
                    if plane[idx] > best {
                        best = plane[idx];
                        best_idx = idx;
                    }
                }
            }
            *out = best;
            *argmax = best_idx;
        }
    }
}

/// Gradient of [`max_pool`] into `grad_input`, every element of which it
/// writes: each window's winning cell receives `0.0 + g`, every other cell
/// — ragged edges included — `+0.0`.
pub(crate) fn max_pool_backward(
    grad: &[f32],
    argmax: &[usize],
    grad_input: &mut [f32],
    h: usize,
    w: usize,
    win: usize,
) {
    let (oh, ow) = (h / win, w / win);
    if grad.is_empty() {
        grad_input.fill(0.0);
        return;
    }
    let planes = grad_input
        .chunks_exact_mut(h * w)
        .zip(grad.chunks_exact(oh * ow).zip(argmax.chunks_exact(oh * ow)));
    for (plane, (grad, argmax)) in planes {
        for (y, row) in plane.chunks_exact_mut(w).enumerate() {
            for (x, cell) in row.iter_mut().enumerate() {
                let (oy, ox) = (y / win, x / win);
                let window = oy * ow + ox;
                *cell = if oy < oh && ox < ow && argmax[window] == y * w + x {
                    0.0 + grad[window]
                } else {
                    0.0
                };
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let (out, argmax) = self.pool_with_argmax(input);
        self.cached_argmax = argmax;
        self.cached_shape = input.shape().to_vec();
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.pool_with_argmax(input).0
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = &self.cached_shape;
        let (h, w) = (shape[2], shape[3]);
        let mut grad_input = Tensor::zeros(shape);
        max_pool_backward(
            grad_output.data(),
            &self.cached_argmax,
            grad_input.data_mut(),
            h,
            w,
            self.window,
        );
        grad_input
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn per_sample(&self) -> Option<PerSample<'_>> {
        Some(PerSample::MaxPool {
            window: self.window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;

    #[test]
    fn avg_pool_averages_blocks() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 4], vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[2.5, 6.5]);
    }

    #[test]
    fn avg_pool_backward_distributes_evenly() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = pool.forward(&x, true);
        let g = Tensor::from_vec(&[1, 1, 1, 1], vec![4.0]);
        let gi = pool.backward(&g);
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn max_pool_picks_maximum_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 3.0, 2.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[9.0]);
        let g = Tensor::from_vec(&[1, 1, 1, 1], vec![5.0]);
        let gi = pool.backward(&g);
        assert_eq!(gi.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn odd_sizes_are_truncated() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::zeros(&[1, 2, 5, 7]);
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2, 2, 3]);
        // Backward still produces a full-size gradient (zeros at truncated
        // edges).
        let gi = pool.backward(&Tensor::zeros(y.shape()));
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn avg_and_max_agree_on_constant_input() {
        let x = Tensor::from_vec(&[1, 1, 4, 4], vec![0.7; 16]);
        let mut avg = AvgPool2d::new(2);
        let mut max = MaxPool2d::new(2);
        assert_eq!(avg.forward(&x, true).data(), max.forward(&x, true).data());
    }

    #[test]
    fn max_pool_keeps_a_degenerate_windows_gradient_inside_it() {
        // The right window holds only -inf: no cell beats the -inf start,
        // so its own first cell (index 2) takes its gradient, not the left
        // window's top-left cell.
        let inf = f32::NEG_INFINITY;
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 4], vec![1.0, 2.0, inf, inf, 3.0, 4.0, inf, inf]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[4.0, inf]);
        let gi = pool.backward(&Tensor::from_vec(&[1, 1, 1, 2], vec![5.0, 7.0]));
        assert_eq!(gi.data(), &[0.0, 0.0, 7.0, 0.0, 0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_passes_overwrite_dirty_buffers() {
        // A 5x7 plane pools to 2x3 with a ragged bottom row and right
        // column; both backward passes write every cell of a reused buffer.
        let (h, w, win) = (5, 7, 2);
        let x: Vec<f32> = (0..h * w).map(|i| (i as f32 * 0.7).sin()).collect();
        let g: Vec<f32> = (1..=6).map(|i| i as f32).collect();
        let fresh = |backward: &dyn Fn(&mut [f32])| {
            let mut zeroed = vec![0.0; h * w];
            backward(&mut zeroed);
            let mut dirty = vec![f32::NAN; h * w];
            backward(&mut dirty);
            assert_eq!(zeroed, dirty);
        };
        fresh(&|gi| avg_pool_backward(&g, gi, h, w, win));
        let (mut out, mut argmax) = (vec![0.0; 6], vec![0; 6]);
        max_pool(&x, &mut out, &mut argmax, h, w, win);
        fresh(&|gi| max_pool_backward(&g, &argmax, gi, h, w, win));
    }
}
