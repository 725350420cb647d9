//! Cache-blocked GEMM kernels, bit-identical to the naive references.
//!
//! The blocking strategy only tiles the *output*: every output element is
//! still produced by one straight, ascending-`k` chain of fused
//! multiply-adds starting from `+0.0`, exactly like the reference kernels
//! in [`super::reference`].  Column panels keep the streamed operand
//! resident in cache while the panel is reused across output rows.
//!
//! The block sizes are fixed constants.  Because tiles only partition the
//! *output*, any block size would produce the same bits; the reference
//! parity tests below (panelled branch included) and in
//! `crates/nn/tests/kernel_properties.rs` pin the one schedule in use.

/// Column-panel width in `f32` elements (1 KiB per panel row): the panel
/// of the streamed operand stays in L1/L2 while it is reused across rows.
const COL_BLOCK: usize = 256;

/// Row-tile height of the dot-product kernel: the tile of `A` rows stays
/// hot while the whole of `B` streams past it once per tile.
const ROW_BLOCK: usize = 32;

/// `B` matrices at most this many `f32`s (2 MiB) are treated as cache
/// resident and processed without column panelling — the panel bookkeeping
/// only pays for itself once `B` is streamed from memory.  Blocking never
/// changes per-output-element accumulation order, so the threshold cannot
/// affect any result bit.
const PANEL_THRESHOLD: usize = 512 * 1024;

/// Panel width for a `(k × n)` streamed operand: full-width (no panelling)
/// while it plausibly stays in cache, `col_block` once it does not.
fn panel_width(k: usize, n: usize, col_block: usize) -> usize {
    if k * n <= PANEL_THRESHOLD {
        n
    } else {
        col_block.max(1)
    }
}

/// Row-major matrix multiply `C = A(m×k) · B(k×n)`, blocked.
///
/// Bit-identical to [`super::reference::matmul`].
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "gemm: A size mismatch");
    assert_eq!(b.len(), k * n, "gemm: B size mismatch");
    let mut c = vec![0.0f32; m * n];
    let panel = panel_width(k, n, COL_BLOCK);
    let mut j0 = 0;
    while j0 < n {
        let jb = panel.min(n - j0);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j0..i * n + j0 + jb];
            for (kk, &a_val) in a_row.iter().enumerate() {
                if a_val == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n + j0..kk * n + j0 + jb];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_v += a_val * b_v;
                }
            }
        }
        j0 += jb;
    }
    c
}

/// `C = Aᵀ · B` with `a` stored `(k × m)`, blocked.
///
/// Bit-identical to [`super::reference::matmul_at`].
pub fn gemm_at(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), k * m, "gemm_at: A size mismatch");
    assert_eq!(b.len(), k * n, "gemm_at: B size mismatch");
    let mut c = vec![0.0f32; m * n];
    // Here the panel keeps the *output* resident: every column panel of C
    // is revisited k times (once per kk), so C is the operand to protect.
    let panel = panel_width(m, n, COL_BLOCK);
    let mut j0 = 0;
    while j0 < n {
        let jb = panel.min(n - j0);
        for kk in 0..k {
            let b_row = &b[kk * n + j0..kk * n + j0 + jb];
            let a_col = &a[kk * m..(kk + 1) * m];
            for (i, &a_val) in a_col.iter().enumerate() {
                if a_val == 0.0 {
                    continue;
                }
                let c_row = &mut c[i * n + j0..i * n + j0 + jb];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_v += a_val * b_v;
                }
            }
        }
        j0 += jb;
    }
    c
}

/// `C = A(m×k) · Bᵀ` with `b` stored `(n × k)`, tiled.
///
/// Bit-identical to [`super::reference::matmul_bt`].
pub fn gemm_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "gemm_bt: A size mismatch");
    assert_eq!(b.len(), n * k, "gemm_bt: B size mismatch");
    let mut c = vec![0.0f32; m * n];
    let mut i0 = 0;
    while i0 < m {
        let ib = ROW_BLOCK.min(m - i0);
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            for i in i0..i0 + ib {
                let a_row = &a[i * k..(i + 1) * k];
                let mut acc = 0.0f32;
                for (av, bv) in a_row.iter().zip(b_row.iter()) {
                    acc += av * bv;
                }
                c[i * n + j] = acc;
            }
        }
        i0 += ib;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;

    fn pattern(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32) * 0.37 + seed).sin()).collect()
    }

    #[test]
    fn gemm_matches_reference_bitwise_across_shapes() {
        // (3, 72, 7400) has k·n = 532,800 > PANEL_THRESHOLD, so it takes the
        // column-panelled branch with a ragged last panel.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (8, 72, 300),
            (5, 513, 7),
            (3, 72, 7400),
        ] {
            let a = pattern(m * k, 0.1);
            let b = pattern(k * n, 0.7);
            assert_eq!(gemm(&a, &b, m, k, n), reference::matmul(&a, &b, m, k, n));
        }
    }

    #[test]
    fn gemm_at_matches_reference_bitwise_across_shapes() {
        // (72, 2, 7400) has m·n = 532,800 > PANEL_THRESHOLD: panelled output.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 3, 6),
            (72, 8, 300),
            (9, 2, 513),
            (72, 2, 7400),
        ] {
            let a = pattern(k * m, 0.2);
            let b = pattern(k * n, 0.9);
            assert_eq!(
                gemm_at(&a, &b, m, k, n),
                reference::matmul_at(&a, &b, m, k, n)
            );
        }
    }

    #[test]
    fn gemm_bt_matches_reference_bitwise_across_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (5, 4, 3), (40, 100, 6), (33, 7, 33)] {
            let a = pattern(m * k, 0.3);
            let b = pattern(n * k, 0.5);
            assert_eq!(
                gemm_bt(&a, &b, m, k, n),
                reference::matmul_bt(&a, &b, m, k, n)
            );
        }
    }

    #[test]
    fn zeros_in_either_operand_do_not_break_parity() {
        let (m, k, n) = (4, 6, 5);
        let mut a = pattern(m * k, 0.0);
        let mut b = pattern(k * n, 1.0);
        for i in (0..a.len()).step_by(3) {
            a[i] = 0.0;
        }
        for i in (0..b.len()).step_by(4) {
            b[i] = -0.0;
        }
        assert_eq!(gemm(&a, &b, m, k, n), reference::matmul(&a, &b, m, k, n));
        let at = pattern(k * m, 0.0);
        assert_eq!(
            gemm_at(&at, &b, m, k, n),
            reference::matmul_at(&at, &b, m, k, n)
        );
    }
}
