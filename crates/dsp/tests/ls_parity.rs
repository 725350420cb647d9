//! Pins the matrix-free convolution least squares to the dense reference —
//! *bit-identical*, every tap, including the sign of zero parts — over
//! reference lengths 1–64, tap counts 1–24 (so `N > M` too, the ZF shape
//! 11 → 21 among them), sparse and real-valued references, and
//! observations shorter than, equal to and longer than `M + N − 1`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vvd_dsp::solve::{convolution_least_squares, least_squares, SolveError};
use vvd_dsp::{convolution_matrix, CVec, Complex};

/// Reference flavours: dense complex, sparse complex (exact zeros and
/// negative zeros), real-valued (zero imaginary parts) and sparse real.
const FLAVOURS: u8 = 4;

fn part(rng: &mut StdRng, sparse: bool) -> f64 {
    match rng.gen_range(0u8..8) {
        0 | 1 if sparse => 0.0,
        2 if sparse => -0.0,
        _ => rng.gen_range(-2.0f64..2.0),
    }
}

fn samples(len: usize, flavour: u8, rng: &mut StdRng) -> Vec<Complex> {
    let sparse = flavour % 2 == 1;
    let real = flavour >= 2;
    (0..len)
        .map(|_| {
            let re = part(rng, sparse);
            let im = if real { 0.0 } else { part(rng, sparse) };
            Complex::new(re, im)
        })
        .collect()
}

/// `observed` length for mode 0 (short), 1 (exact) or 2 (long).
fn observed_len(rows: usize, mode: u8, rng: &mut StdRng) -> usize {
    match mode {
        0 => rng.gen_range(0..rows),
        1 => rows,
        _ => rows + rng.gen_range(1..16),
    }
}

/// The dense path: pad or truncate to `M + N − 1`, build `X`, solve.
fn dense(reference: &[Complex], observed: &[Complex], n_taps: usize) -> Result<CVec, SolveError> {
    let x = convolution_matrix(reference, n_taps);
    least_squares(&x, &CVec(observed.to_vec()).resized(x.rows()))
}

fn bits(result: &Result<CVec, SolveError>) -> Result<Vec<(u64, u64)>, SolveError> {
    result
        .as_ref()
        .map(|taps| {
            taps.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        })
        .map_err(Clone::clone)
}

fn check(m: usize, n_taps: usize, flavour: u8, mode: u8, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = samples(m, flavour, &mut rng);
    let len = observed_len(m + n_taps - 1, mode, &mut rng);
    let observed = samples(len, flavour, &mut rng);
    assert_eq!(
        bits(&convolution_least_squares(&reference, &observed, n_taps)),
        bits(&dense(&reference, &observed, n_taps)),
        "M = {m}, N = {n_taps}, flavour {flavour}, observed mode {mode}, seed {seed}"
    );
}

#[test]
fn every_length_and_tap_count_matches_the_dense_path() {
    for m in 1..=64 {
        for n_taps in 1..=24 {
            for mode in 0..3 {
                let flavour = ((m + n_taps + mode) % FLAVOURS as usize) as u8;
                check(m, n_taps, flavour, mode as u8, (m * 100 + n_taps) as u64);
            }
        }
    }
}

#[test]
fn zf_shaped_designs_match_the_dense_path() {
    // An 11-tap channel estimate fitted by a 21-tap equalizer against a
    // unit impulse, as `ZfEqualizer::design_with_delay` does.
    let mut rng = StdRng::seed_from_u64(7);
    for flavour in 0..FLAVOURS {
        for delay in 0..31 {
            let estimate = samples(11, flavour, &mut rng);
            let mut u = vec![Complex::ZERO; 31];
            u[delay] = Complex::ONE;
            assert_eq!(
                bits(&convolution_least_squares(&estimate, &u, 21)),
                bits(&dense(&estimate, &u, 21)),
                "flavour {flavour}, delay {delay}"
            );
        }
    }
}

#[test]
fn degenerate_references_give_the_same_error() {
    for m in 1..=16 {
        for n_taps in 1..=24 {
            // All zero, including too-short (M < N) ones: singular either way.
            let zeros = vec![Complex::ZERO; m];
            let observed = vec![Complex::ONE; m + n_taps - 1];
            let fast = convolution_least_squares(&zeros, &observed, n_taps);
            assert_eq!(fast, Err(SolveError::Singular));
            assert_eq!(bits(&fast), bits(&dense(&zeros, &observed, n_taps)));
        }
    }
    // Where `convolution_matrix` would panic, the helper returns a typed error.
    assert_eq!(
        convolution_least_squares(&[], &[Complex::ONE; 4], 3),
        Err(SolveError::DimensionMismatch)
    );
    assert_eq!(
        convolution_least_squares(&[Complex::ONE; 4], &[Complex::ONE; 4], 0),
        Err(SolveError::DimensionMismatch)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_fits_match_the_dense_path(
        m in 1usize..=64,
        n_taps in 1usize..=24,
        flavour in 0u8..FLAVOURS,
        mode in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        check(m, n_taps, flavour, mode, seed);
    }
}
