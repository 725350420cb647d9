//! # vvd-dsp
//!
//! Complex arithmetic, dense complex linear algebra and basic DSP primitives
//! used throughout the Veni Vidi Dixi (CoNEXT '19) reproduction.
//!
//! The paper models the wireless channel as a sample-spaced complex FIR
//! filter (a tapped delay line, Eq. 2–3) and obtains estimates of it via
//! linear least squares on convolution matrices (Eq. 4–5).  Everything needed
//! for that — a [`Complex`] scalar, complex vectors/matrices, a linear
//! solver, convolution-matrix construction, FIR filtering and correlation —
//! lives in this crate so the higher layers (PHY, channel simulator,
//! estimators) can share one numerically consistent substrate.
//!
//! The crate is dependency-free (besides `serde` for persistence) and fully
//! synchronous: the workload is small dense algebra (11–64 tap systems), not
//! I/O, so there is no benefit to an async runtime here.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod accum;
pub mod cmatrix;
pub mod complex;
pub mod convolution;
pub mod correlation;
pub mod cvec;
pub mod fir;
pub mod resample;
pub mod solve;
pub mod stats;
pub mod workers;

pub use cmatrix::CMatrix;
pub use complex::Complex;
pub use convolution::{convolution_matrix, convolve, convolve_full};
pub use correlation::{autocorrelation, autocorrelation_coefficients, cross_correlation};
pub use cvec::CVec;
pub use fir::FirFilter;
pub use solve::{convolution_least_squares, least_squares, solve_linear};
pub use workers::{
    checkpoint_interval, fan_out, par_map, per_process_worker_budget, proc_budget, worker_budget,
};
