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
//! > batching and sample sharding only reorder work *between* output
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
//! * Every kernel runs on its calling thread.  Parallelism lives one level
//!   up, in the model passes of [`crate::model`], which cut a batch into
//!   contiguous sample shards and fan out once per pass: no kernel ever
//!   sees a worker count.

mod conv;
mod gemm;
pub mod reference;

pub use conv::{
    conv2d_forward, conv2d_input_grad, conv2d_weight_grad, conv2d_weight_partials, ConvGeometry,
};
pub use gemm::{gemm, gemm_at, gemm_bt};
