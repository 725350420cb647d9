//! Sample shards: the buffers and per-shard passes behind the model passes
//! of [`crate::model`].
//!
//! A network's leading [`PerSample`] layers — its *prefix* — treat every
//! sample of a batch on its own, so a batch can be cut into contiguous
//! shards of samples that run the prefix side by side.  [`each_shard`] is
//! that cut: one [`vvd_dsp::fan_out`] per pass, one shard per worker.
//!
//! A [`Shard`] owns one shard's buffers, sized once for a [`Layout`] and a
//! sample capacity and reused by every pass: its gathered input, the output
//! of each convolution and pool (ReLU and flatten work in place), the two
//! gradient buffers the backward pass alternates between, and each
//! convolution's per-sample weight partials and bias sums, which
//! [`add_partials`] adds into the parameter gradients in sample order on
//! the calling thread.  Every pass writes each element it later reads, so a
//! reused buffer is zeroed only where a kernel accumulates: the
//! convolution's input gradient and weight partials, and the ragged edges
//! of a pooling gradient.

use crate::kernels::{self, ConvGeometry};
use crate::layers::{self, Layer, PerSample};
use crate::tensor::Tensor;
use std::ops::Range;
use vvd_dsp::fan_out;

/// The item shapes and buffer plan of a network's per-sample prefix.
pub(crate) struct Layout {
    /// The item shape entering each prefix op, then the prefix output's.
    shapes: Vec<Vec<usize>>,
    /// The buffer each op reads, then the one holding the prefix output.
    /// Buffer 0 is the gathered input; a convolution or pool writes a
    /// buffer of its own, ReLU and flatten work on the one they read.
    reads: Vec<usize>,
}

impl Layout {
    /// The layout of `prefix`, whose every layer is [`PerSample`], for
    /// items of `item_shape`.
    ///
    /// # Panics
    /// Panics when a convolution or pool meets an item that is not
    /// `[C, H, W]`, or a convolution's kernel does not fit.
    pub(crate) fn new(prefix: &[Box<dyn Layer>], item_shape: &[usize]) -> Layout {
        let mut shapes = vec![item_shape.to_vec()];
        let mut reads = vec![0];
        let mut written = 0;
        for layer in prefix {
            let shape = &shapes[shapes.len() - 1];
            let (next, writes) = match per_sample(layer.as_ref()) {
                PerSample::Conv {
                    out_channels,
                    kernel,
                    ..
                } => {
                    let (c, h, w) = planes(shape);
                    let (oh, ow) = ConvGeometry::valid(c, h, w, kernel).output_hw();
                    (vec![out_channels, oh, ow], true)
                }
                PerSample::AvgPool { window } | PerSample::MaxPool { window } => {
                    let (c, h, w) = planes(shape);
                    (vec![c, h / window, w / window], true)
                }
                PerSample::Relu => (shape.clone(), false),
                PerSample::Flatten => (vec![item_len(shape)], false),
            };
            written += usize::from(writes);
            reads.push(if writes {
                written
            } else {
                reads[reads.len() - 1]
            });
            shapes.push(next);
        }
        Layout { shapes, reads }
    }

    /// Number of prefix layers.
    pub(crate) fn len(&self) -> usize {
        self.shapes.len() - 1
    }

    /// Item shape of the prefix output.
    fn out_shape(&self) -> &[usize] {
        &self.shapes[self.len()]
    }

    /// Whether prefix op `i` writes a buffer of its own.
    fn writes(&self, i: usize) -> bool {
        self.reads[i + 1] != self.reads[i]
    }
}

/// One shard's buffers; see the module docs.
pub(crate) struct Shard {
    /// Buffer 0 is the gathered input, then one per op that writes its own.
    bufs: Vec<Vec<f32>>,
    /// Each max pool's winning cells (empty for every other op).
    argmax: Vec<Vec<usize>>,
    /// Each convolution's per-sample weight partials and bias sums (empty
    /// for every other op, and in a forward-only shard).
    partials: Vec<Vec<f32>>,
    bias_sums: Vec<Vec<f32>>,
    /// The gradient flowing backwards, and the buffer the next op writes
    /// its input gradient to (empty in a forward-only shard).
    grad: Vec<f32>,
    spare: Vec<f32>,
    /// Samples in the current pass.
    len: usize,
}

impl Shard {
    /// Buffers for up to `cap` samples of `layout`, with the backward
    /// pass's only when `backward`.
    fn new(prefix: &[Box<dyn Layer>], layout: &Layout, cap: usize, backward: bool) -> Shard {
        let mut bufs = vec![vec![0.0; cap * item_len(&layout.shapes[0])]];
        let (mut argmax, mut partials, mut bias_sums) = (Vec::new(), Vec::new(), Vec::new());
        for (i, layer) in prefix.iter().enumerate() {
            let out_len = cap * item_len(&layout.shapes[i + 1]);
            if layout.writes(i) {
                bufs.push(vec![0.0; out_len]);
            }
            let (mut winners, mut weights, mut biases) = (Vec::new(), Vec::new(), Vec::new());
            match per_sample(layer.as_ref()) {
                PerSample::MaxPool { .. } => winners = vec![0; out_len],
                PerSample::Conv { weight, bias, .. } if backward => {
                    weights = vec![0.0; cap * weight.len()];
                    biases = vec![0.0; cap * bias.len()];
                }
                _ => {}
            }
            argmax.push(winners);
            partials.push(weights);
            bias_sums.push(biases);
        }
        // The head's input gradient is never computed, so no gradient is
        // ever the size of the input.
        let grad_len = if backward {
            cap * layout.shapes[1..]
                .iter()
                .map(|s| item_len(s))
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        Shard {
            bufs,
            argmax,
            partials,
            bias_sums,
            grad: vec![0.0; grad_len],
            spare: vec![0.0; grad_len],
            len: 0,
        }
    }

    /// Runs `prefix` forward over `samples` of `x`, gathered into this
    /// shard's input buffer, and returns the prefix output as a tensor.
    pub(crate) fn forward(
        &mut self,
        prefix: &[Box<dyn Layer>],
        layout: &Layout,
        x: &Tensor,
        samples: &[usize],
    ) -> Tensor {
        assert_eq!(&x.shape()[1..], &layout.shapes[0][..], "input item shape");
        let n = samples.len();
        let item = x.item_len();
        for (k, &sample) in samples.iter().enumerate() {
            self.bufs[0][k * item..][..item].copy_from_slice(x.item(sample));
        }
        self.len = n;
        for (i, layer) in prefix.iter().enumerate() {
            let (from, to) = (layout.reads[i], layout.reads[i + 1]);
            let in_len = n * item_len(&layout.shapes[i]);
            let out_len = n * item_len(&layout.shapes[i + 1]);
            match per_sample(layer.as_ref()) {
                PerSample::Conv {
                    out_channels,
                    kernel,
                    weight,
                    bias,
                } => {
                    let (c, h, w) = planes(&layout.shapes[i]);
                    let geometry = ConvGeometry::valid(c, h, w, kernel);
                    let (input, out) = read_write(&mut self.bufs, from, to, in_len, out_len);
                    kernels::conv2d_forward(input, n, &geometry, weight, bias, out_channels, out);
                }
                PerSample::AvgPool { window } => {
                    let (_, h, w) = planes(&layout.shapes[i]);
                    let (input, out) = read_write(&mut self.bufs, from, to, in_len, out_len);
                    layers::avg_pool(input, out, h, w, window);
                }
                PerSample::MaxPool { window } => {
                    let (_, h, w) = planes(&layout.shapes[i]);
                    let (input, out) = read_write(&mut self.bufs, from, to, in_len, out_len);
                    layers::max_pool(input, out, &mut self.argmax[i][..out_len], h, w, window);
                }
                PerSample::Relu => layers::relu_in_place(&mut self.bufs[from][..in_len]),
                PerSample::Flatten => {}
            }
        }
        let mut shape = vec![n];
        shape.extend_from_slice(layout.out_shape());
        let out_len = n * item_len(layout.out_shape());
        Tensor::from_vec(
            &shape,
            self.bufs[layout.reads[layout.len()]][..out_len].to_vec(),
        )
    }

    /// Runs `prefix` backward over the samples of the last
    /// [`Shard::forward`], from `grad`, their prefix output's gradient.
    /// Writes every convolution's per-sample weight partials and bias
    /// sums; the network's first layer computes no input gradient.
    pub(crate) fn backward(&mut self, prefix: &[Box<dyn Layer>], layout: &Layout, grad: &[f32]) {
        let n = self.len;
        self.grad[..grad.len()].copy_from_slice(grad);
        for (i, layer) in prefix.iter().enumerate().rev() {
            let in_len = n * item_len(&layout.shapes[i]);
            let out_len = n * item_len(&layout.shapes[i + 1]);
            let g = &self.grad[..out_len];
            match per_sample(layer.as_ref()) {
                PerSample::Conv {
                    out_channels,
                    kernel,
                    weight,
                    bias,
                } => {
                    let (c, h, w) = planes(&layout.shapes[i]);
                    let geometry = ConvGeometry::valid(c, h, w, kernel);
                    let x = &self.bufs[layout.reads[i]][..in_len];
                    let partials = &mut self.partials[i][..n * weight.len()];
                    kernels::conv2d_weight_partials(x, g, n, &geometry, out_channels, partials);
                    let (oh, ow) = geometry.output_hw();
                    layers::bias_sums(g, oh * ow, &mut self.bias_sums[i][..n * bias.len()]);
                    if i > 0 {
                        let dx = &mut self.spare[..in_len];
                        kernels::conv2d_input_grad(g, n, &geometry, weight, out_channels, dx);
                    }
                }
                _ if i == 0 => {}
                PerSample::AvgPool { window } => {
                    let (_, h, w) = planes(&layout.shapes[i]);
                    layers::avg_pool_backward(g, &mut self.spare[..in_len], h, w, window);
                }
                PerSample::MaxPool { window } => {
                    let (_, h, w) = planes(&layout.shapes[i]);
                    let (winners, dx) = (&self.argmax[i][..out_len], &mut self.spare[..in_len]);
                    layers::max_pool_backward(g, winners, dx, h, w, window);
                }
                PerSample::Relu => {
                    let y = &self.bufs[layout.reads[i + 1]][..out_len];
                    layers::relu_backward(y, &mut self.grad[..out_len]);
                }
                PerSample::Flatten => {}
            }
            if i > 0 && layout.writes(i) {
                std::mem::swap(&mut self.grad, &mut self.spare);
            }
        }
    }
}

/// Every shard buffer of a model pass, for batches of up to `batch`
/// samples cut into up to `shards` shards.
pub(crate) struct Scratch {
    pub(crate) layout: Layout,
    pub(crate) shards: Vec<Shard>,
}

impl Scratch {
    /// Buffers for `prefix` over items of `item_shape`; see [`Scratch`].
    pub(crate) fn new(
        prefix: &[Box<dyn Layer>],
        item_shape: &[usize],
        batch: usize,
        shards: usize,
        backward: bool,
    ) -> Scratch {
        let layout = Layout::new(prefix, item_shape);
        let count = shards.clamp(1, batch.max(1));
        let cap = batch.div_ceil(count);
        let shards = (0..count)
            .map(|_| Shard::new(prefix, &layout, cap, backward))
            .collect();
        Scratch { layout, shards }
    }
}

/// Runs `f(shard, samples)` on each of the contiguous shards that a batch
/// of `n` samples is cut into — `n / shards.len()` samples each, rounded
/// up, so no shard is empty — in one [`fan_out`] with a worker per shard,
/// and returns the results in sample order.  A scratch sized for `batch`
/// samples fits every `n ≤ batch`.
pub(crate) fn each_shard<R, F>(shards: &mut [Shard], n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Shard, Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let per = n.div_ceil(shards.len().clamp(1, n));
    let used = n.div_ceil(per);
    let chunks = fan_out(&mut shards[..used], used, |first, chunk| {
        (first..)
            .zip(chunk)
            .map(|(s, shard)| f(shard, s * per..(n.min((s + 1) * per))))
            .collect::<Vec<R>>()
    });
    chunks.into_iter().flatten().collect()
}

/// Adds the per-sample weight partials and bias sums of `shards`' last
/// backward pass into each prefix convolution's parameter gradients
/// (`[weight, bias]`), in sample order.
pub(crate) fn add_partials(prefix: &mut [Box<dyn Layer>], shards: &[Shard]) {
    for (i, layer) in prefix.iter_mut().enumerate() {
        if !matches!(layer.per_sample(), Some(PerSample::Conv { .. })) {
            continue;
        }
        let mut params = layer.parameters();
        let [weight, bias] = &mut params[..] else {
            unreachable!("a convolution's parameters are [weight, bias]")
        };
        let (wl, bl) = (weight.len(), bias.len());
        for shard in shards {
            for k in 0..shard.len {
                add(&mut weight.grad, &shard.partials[i][k * wl..][..wl]);
                add(&mut bias.grad, &shard.bias_sums[i][k * bl..][..bl]);
            }
        }
    }
}

fn add(acc: &mut [f32], values: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(values) {
        *a += v;
    }
}

/// The buffer an op reads and the one it writes (`from < to`).
fn read_write(
    bufs: &mut [Vec<f32>],
    from: usize,
    to: usize,
    in_len: usize,
    out_len: usize,
) -> (&[f32], &mut [f32]) {
    let (done, rest) = bufs.split_at_mut(to);
    (&done[from][..in_len], &mut rest[0][..out_len])
}

/// A prefix layer's [`PerSample`] view.
fn per_sample(layer: &dyn Layer) -> PerSample<'_> {
    layer
        .per_sample()
        .expect("the sharded prefix holds per-sample layers only")
}

/// `(C, H, W)` of an image item.
fn planes(shape: &[usize]) -> (usize, usize, usize) {
    match *shape {
        [c, h, w] => (c, h, w),
        _ => panic!("convolution and pooling expect [C, H, W] items, got {shape:?}"),
    }
}

fn item_len(shape: &[usize]) -> usize {
    shape.iter().product::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_every_sample_exactly_once() {
        // Every batch a scratch is sized for splits into contiguous,
        // non-empty, in-order shards within the shard capacity.
        for batch in 1..=9 {
            for count in 1..=6 {
                let mut scratch = Scratch::new(&[], &[2], batch, count, false);
                let cap = batch.div_ceil(count.min(batch));
                for n in 0..=batch {
                    let ranges = each_shard(&mut scratch.shards, n, |_, samples| samples);
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "batch {batch}, count {count}, n {n}");
                        assert!(!r.is_empty() && r.len() <= cap);
                        next = r.end;
                    }
                    assert_eq!(next, n);
                    assert!(ranges.len() <= count);
                }
            }
        }
    }

    #[test]
    fn an_empty_batch_runs_nothing() {
        let mut scratch = Scratch::new(&[], &[2], 4, 2, false);
        let runs: Vec<()> = each_shard(&mut scratch.shards, 0, |_, _| panic!("no samples"));
        assert!(runs.is_empty());
    }
}
