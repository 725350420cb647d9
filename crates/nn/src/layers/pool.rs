//! Average and max pooling (square windows, stride = window size).
//!
//! The paper uses 2 × 2 *average* pooling throughout and notes that max
//! pooling performed slightly worse (Sec. 4); both are provided so the
//! ablation bench can reproduce that comparison.

use crate::layers::Layer;
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

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.window, w / self.window)
    }

    fn pool(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "AvgPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        if !out.is_empty() {
            // The Fig.-8 window gets a copy of the loops with its size fixed.
            match self.window {
                2 => avg_pool_rows(input.data(), out.data_mut(), h, w, 2),
                win => avg_pool_rows(input.data(), out.data_mut(), h, w, win),
            }
        }
        out
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
/// adds it into a zeroed gradient; ragged edges keep their `+0.0`.
#[inline(always)]
fn avg_pool_rows_backward(grad: &[f32], grad_input: &mut [f32], h: usize, w: usize, win: usize) {
    let (oh, ow) = (h / win, w / win);
    let win2 = (win * win) as f32;
    let planes = grad
        .chunks_exact(oh * ow)
        .zip(grad_input.chunks_exact_mut(h * w));
    for (g_plane, plane) in planes {
        let rows = g_plane
            .chunks_exact(ow)
            .zip(plane.chunks_exact_mut(win * w));
        for (g_row, rows) in rows {
            for row in rows.chunks_exact_mut(w) {
                for (&g, cell) in g_row.iter().zip(row.chunks_exact_mut(win)) {
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
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        if !grad_output.is_empty() {
            match self.window {
                2 => avg_pool_rows_backward(grad_output.data(), grad_input.data_mut(), h, w, 2),
                win => avg_pool_rows_backward(grad_output.data(), grad_input.data_mut(), h, w, win),
            }
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
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

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.window, w / self.window)
    }

    fn pool_with_argmax(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0; n * c * oh * ow];
        for i in 0..n {
            let item = input.item(i);
            let out_item = out.item_mut(i);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..self.window {
                            for dx in 0..self.window {
                                let idx = ch * h * w
                                    + (oy * self.window + dy) * w
                                    + ox * self.window
                                    + dx;
                                if item[idx] > best {
                                    best = item[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ch * oh * ow + oy * ow + ox;
                        out_item[out_idx] = best;
                        argmax[i * c * oh * ow + out_idx] = best_idx;
                    }
                }
            }
        }
        (out, argmax)
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
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        for i in 0..n {
            let g = grad_output.item(i);
            let gi = grad_input.item_mut(i);
            for (idx, &gval) in g[..c * oh * ow].iter().enumerate() {
                let src = self.cached_argmax[i * c * oh * ow + idx];
                gi[src] += gval;
            }
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
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
}
