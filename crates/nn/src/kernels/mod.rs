//! The compute kernels behind the layers: cache-blocked GEMM for the
//! dense layers and direct convolution kernels for `Conv2d`.
//!
//! Every layer's arithmetic bottoms out in one of the kernels here.  The
//! kernels are written around one hard invariant:
//!
//! > **Per-output-element accumulation order is preserved.**  Each output
//! > element is produced by exactly the same sequence of floating-point
//! > additions as the naive reference kernels in [`mod@reference`], so the
//! > blocked kernels are *bit-identical* to the references — blocking,
//! > batching and worker threads only reorder work *between* output
//! > elements, never *within* one.
//!
//! This is what lets the evaluation goldens (`tests/parity_golden.rs`,
//! `tests/scenario_golden.rs`) survive kernel rewrites unchanged, and what
//! makes a cached trained model indistinguishable from a freshly trained
//! one.  The convolution kernels ([`conv2d_forward`], [`conv2d_input_grad`],
//! [`conv2d_weight_grad`]) read the `[N, C, H, W]` tensors in place; no
//! column matrix is built.
//!
//! Two well-definedness notes the property tests rely on:
//!
//! * Skipping a multiplicand that is exactly `±0.0` is bit-equivalent to
//!   adding its product, because an accumulator that starts at `+0.0` and
//!   only ever has values added to it can never become `-0.0` (IEEE 754
//!   round-to-nearest: `x + y == -0.0` only when both `x` and `y` are
//!   `-0.0`), and adding `±0.0` to anything else leaves it unchanged.  So a
//!   kernel may keep or drop a zero-skip its reference has: the GEMMs skip
//!   zero `A` entries, the convolution kernels skip nothing.  The
//!   equivalence assumes finite data: a skipped `0.0` that would have
//!   multiplied an `Inf`/`NaN` suppresses the `NaN` a no-skip kernel
//!   produces.  Training that reaches non-finite values is broken either
//!   way, so the kernels do not pay to preserve `NaN` propagation.
//! * The kernels fan out through [`vvd_dsp::fan_out`], the workspace's one
//!   thread fan-out: worker threads only ever write disjoint, contiguous
//!   row blocks of the output, so the result is bit-identical at any
//!   worker count.

mod conv;
mod gemm;
pub mod reference;

pub use conv::{conv2d_forward, conv2d_input_grad, conv2d_weight_grad, ConvGeometry};
pub use gemm::{gemm, gemm_at, gemm_bt};
use vvd_dsp::{fan_out, worker_budget};

/// Runs `f` over contiguous row blocks of the `m × n` row-major buffer `c`,
/// one [`vvd_dsp::fan_out`] chunk per block.
///
/// `f(first_row, rows, block)` receives the index of its first row, its row
/// count and the mutable block.  Blocks are disjoint, so the worker count
/// cannot affect any result; `min_rows` bounds the smallest block a worker
/// is spawned for.  An empty buffer (`m` or `n` zero) runs nothing.
pub(crate) fn run_row_chunks<F>(c: &mut [f32], m: usize, n: usize, min_rows: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let workers = worker_budget().min(m.div_ceil(min_rows.max(1)));
    let block_rows = m.div_ceil(workers);
    // At most `workers` blocks, so every fan-out chunk is one block.
    let mut blocks: Vec<&mut [f32]> = c.chunks_mut(block_rows * n).collect();
    fan_out(&mut blocks, workers, |first, blocks| {
        for (b, block) in (first..).zip(blocks) {
            f(b * block_rows, block.len() / n, block);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_cover_every_row_exactly_once() {
        let mut c = vec![0.0f32; 7 * 3];
        run_row_chunks(&mut c, 7, 3, 1, |first, rows, chunk| {
            assert_eq!(chunk.len(), rows * 3);
            for (row, values) in (first..).zip(chunk.chunks_mut(3)) {
                for v in values {
                    assert_eq!(*v, 0.0);
                    *v += 1.0 + row as f32;
                }
            }
        });
        let expected: Vec<f32> = (0..7).flat_map(|row| [1.0 + row as f32; 3]).collect();
        assert_eq!(c, expected);
    }

    #[test]
    fn empty_output_is_a_no_op() {
        let mut c: Vec<f32> = Vec::new();
        run_row_chunks(&mut c, 0, 4, 1, |_, _, _| panic!("no rows to visit"));
    }
}
