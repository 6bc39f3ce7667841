//! Register-tiled matmul kernels with a bitwise-determinism contract.
//!
//! Every matmul entry point on [`crate::Matrix`] runs the register-blocked
//! micro-kernels below: they unroll 4–8 output elements wide so the
//! compiler's vectorizer has independent accumulator lanes to work with.
//!
//! # The fixed-reduction-tree contract
//!
//! Float addition is not associative, so "same math, different order" means
//! different bits — and the workspace's credibility rests on byte-identical
//! checkpoints across thread counts. The kernels therefore compute every
//! output element with **exactly one accumulator that folds the `k` products
//! in ascending-`p` order, starting from `+0.0`** — the reduction tree of the
//! plain dense triple loop. They never split a dot product into partial
//! lanes; they vectorize *across* output elements instead: an `MR x NR`
//! register tile holds `MR·NR` independent chains and advances all of them
//! one `p` step at a time. That makes them equal to the dense triple loop
//! bit-for-bit by construction (asserted against a test oracle in
//! `tests/par_matmul.rs`, NaN/±inf operands included), while still reusing
//! every loaded `a`/`b` value across the tile and keeping the accumulators
//! out of memory. Thread-count invariance comes for free: row-block
//! partitioning ([`rll_par::for_each_row_block`]) never changes per-element
//! arithmetic.

/// True when the running CPU supports AVX; cached by the detection macro.
/// The tiled kernels then route through [`avx`]'s `target_feature` wrappers,
/// which compile the *same* portable tile bodies with AVX codegen — wider
/// registers, identical per-element IEEE-754 operations (rustc never
/// contracts `a * b + c` into a fused multiply-add, so no single-rounding
/// sneaks in), hence identical bits.
#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// `#[target_feature(enable = "avx")]` clones of the portable tile bodies.
/// Each wrapper `#[inline(always)]`-inlines its body, so LLVM vectorizes the
/// independent accumulator lanes with 256-bit `vmulpd`/`vaddpd` — never FMA,
/// which is not enabled here and would break the byte contract.
#[cfg(target_arch = "x86_64")]
mod avx {
    /// # Safety
    /// The caller must have verified AVX support at runtime
    /// ([`super::avx_available`]).
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn nn_tiled(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
        super::nn_tiled_body(a, b, out, k, n);
    }

    /// # Safety
    /// The caller must have verified AVX support at runtime
    /// ([`super::avx_available`]).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn tn_tiled(
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        rows: std::ops::Range<usize>,
        m: usize,
        k: usize,
        n: usize,
    ) {
        super::tn_tiled_body(a, b, block, rows, m, k, n);
    }

    /// # Safety
    /// The caller must have verified AVX support at runtime
    /// ([`super::avx_available`]).
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn nt_tiled(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
        super::nt_tiled_body(a, b, out, k, n);
    }
}

/// Rows per register tile (output rows advanced together).
const MR: usize = 4;
/// Columns per register tile (output columns advanced together).
const NR: usize = 4;
/// Rows per register tile for the `nt` (dot-product) kernel; `2 x 4` keeps
/// eight independent chains live, which is what breaks the add-latency bound
/// of the single-chain scalar dot.
const NT_MR: usize = 2;
/// Columns per register tile for the `nt` kernel.
const NT_NR: usize = 4;

// ----------------------------------------------------------------------
// nn: out[i][j] = Σ_p a[i][p] · b[p][j]   (a: m x k, b: k x n)
// ----------------------------------------------------------------------

/// `out = a · b` (+ an optional broadcast `bias` row) into pre-zeroed `out`
/// (m·n), row-blocked over `threads`.
///
/// The bias is added once per element *after* that element's accumulation
/// chain completes — exactly the arithmetic of a separate
/// matmul-then-broadcast pass, fused here to skip the intermediate
/// allocation and copy.
pub(crate) fn matmul_nn(
    a: &[f64],
    b: &[f64],
    bias: Option<&[f64]>,
    out: &mut [f64],
    k: usize,
    n: usize,
    threads: usize,
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        // Empty-sum product: out stays all-zero; the bias pass still applies
        // (`0.0 + bias`, not `bias` — the bits differ for a -0.0 bias).
        if let Some(bias) = bias {
            for out_row in out.chunks_exact_mut(n) {
                add_bias_row(out_row, bias);
            }
        }
        return;
    }
    rll_par::for_each_row_block(out, n, threads, |rows, block| {
        nn_tiled(&a[rows.start * k..rows.end * k], b, block, k, n);
        if let Some(bias) = bias {
            for out_row in block.chunks_exact_mut(n) {
                add_bias_row(out_row, bias);
            }
        }
    });
}

/// Adds the broadcast bias row to one finished output row.
fn add_bias_row(out_row: &mut [f64], bias: &[f64]) {
    for (o, &bv) in out_row.iter_mut().zip(bias) {
        *o += bv;
    }
}

fn nn_tiled(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: gated on runtime AVX detection; the wrapper runs the exact
        // portable body below, just compiled with AVX codegen.
        unsafe { avx::nn_tiled(a, b, out, k, n) };
        return;
    }
    nn_tiled_body(a, b, out, k, n);
}

#[inline(always)]
fn nn_tiled_body(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    let rows = out.len() / n;
    let mut i = 0;
    while i + MR <= rows {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f64; NR]; MR];
            for p in 0..k {
                let bq = &b[p * n + j..p * n + j + NR];
                let av = [a0[p], a1[p], a2[p], a3[p]];
                for (acc_row, &avr) in acc.iter_mut().zip(&av) {
                    for (o, &bv) in acc_row.iter_mut().zip(bq) {
                        *o += avr * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc_row);
            }
            j += NR;
        }
        // Column tail: strided per-element chains, still p-ascending.
        for jj in j..n {
            let mut acc = [0.0f64; MR];
            for p in 0..k {
                let bv = b[p * n + jj];
                acc[0] += a0[p] * bv;
                acc[1] += a1[p] * bv;
                acc[2] += a2[p] * bv;
                acc[3] += a3[p] * bv;
            }
            for (r, &accr) in acc.iter().enumerate() {
                out[(i + r) * n + jj] = accr;
            }
        }
        i += MR;
    }
    // Row tail: the dense row loop (same chains).
    for ii in i..rows {
        let a_row = &a[ii * k..(ii + 1) * k];
        let out_row = &mut out[ii * n..(ii + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

// ----------------------------------------------------------------------
// tn: out[i][j] = Σ_p a[p][i] · b[p][j]   (a: k x m, b: k x n, out: m x n)
// ----------------------------------------------------------------------

/// `out = aᵀ · b` without materializing the transpose; `a` is `k x m`
/// accessed column-wise, `out` is `m x n` pre-zeroed.
pub(crate) fn matmul_tn(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    if k == 0 || n == 0 {
        return;
    }
    rll_par::for_each_row_block(out, n, threads, |rows, block| {
        tn_tiled(a, b, block, rows, m, k, n)
    });
}

fn tn_tiled(
    a: &[f64],
    b: &[f64],
    block: &mut [f64],
    rows: std::ops::Range<usize>,
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: gated on runtime AVX detection; same portable body, AVX
        // codegen.
        unsafe { avx::tn_tiled(a, b, block, rows, m, k, n) };
        return;
    }
    tn_tiled_body(a, b, block, rows, m, k, n);
}

#[inline(always)]
fn tn_tiled_body(
    a: &[f64],
    b: &[f64],
    block: &mut [f64],
    rows: std::ops::Range<usize>,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = rows.start;
    while i + MR <= rows.end {
        let local = i - rows.start;
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f64; NR]; MR];
            for p in 0..k {
                let arow = &a[p * m + i..p * m + i + MR];
                let bq = &b[p * n + j..p * n + j + NR];
                for (acc_row, &avr) in acc.iter_mut().zip(arow) {
                    for (o, &bv) in acc_row.iter_mut().zip(bq) {
                        *o += avr * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                block[(local + r) * n + j..(local + r) * n + j + NR].copy_from_slice(acc_row);
            }
            j += NR;
        }
        for jj in j..n {
            let mut acc = [0.0f64; MR];
            for p in 0..k {
                let bv = b[p * n + jj];
                let arow = &a[p * m + i..p * m + i + MR];
                for (accr, &avr) in acc.iter_mut().zip(arow) {
                    *accr += avr * bv;
                }
            }
            for (r, &accr) in acc.iter().enumerate() {
                block[(local + r) * n + jj] = accr;
            }
        }
        i += MR;
    }
    for ii in i..rows.end {
        let local = ii - rows.start;
        let out_row = &mut block[local * n..(local + 1) * n];
        for p in 0..k {
            let av = a[p * m + ii];
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

// ----------------------------------------------------------------------
// nt: out[i][j] = Σ_p a[i][p] · b[j][p]   (a: m x k, b: n x k)
// ----------------------------------------------------------------------

/// `out = a · bᵀ` without materializing the transpose; every output element
/// is one contiguous dot product.
pub(crate) fn matmul_nt(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize, threads: usize) {
    if k == 0 || n == 0 {
        // Every element is an empty dot product: exactly the zeros already
        // in `out`.
        return;
    }
    rll_par::for_each_row_block(out, n, threads, |rows, block| {
        nt_tiled(&a[rows.start * k..rows.end * k], b, block, k, n)
    });
}

fn nt_tiled(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: gated on runtime AVX detection; same portable body, AVX
        // codegen.
        unsafe { avx::nt_tiled(a, b, out, k, n) };
        return;
    }
    nt_tiled_body(a, b, out, k, n);
}

#[inline(always)]
fn nt_tiled_body(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    let rows = out.len() / n;
    let mut i = 0;
    while i + NT_MR <= rows {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j = 0;
        while j + NT_NR <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [[0.0f64; NT_NR]; NT_MR];
            for p in 0..k {
                let x0 = a0[p];
                let x1 = a1[p];
                let y = [b0[p], b1[p], b2[p], b3[p]];
                for (o, &yv) in acc[0].iter_mut().zip(&y) {
                    *o += x0 * yv;
                }
                for (o, &yv) in acc[1].iter_mut().zip(&y) {
                    *o += x1 * yv;
                }
            }
            out[i * n + j..i * n + j + NT_NR].copy_from_slice(&acc[0]);
            out[(i + 1) * n + j..(i + 1) * n + j + NT_NR].copy_from_slice(&acc[1]);
            j += NT_NR;
        }
        for jj in j..n {
            let b_row = &b[jj * k..(jj + 1) * k];
            let mut acc0 = 0.0;
            let mut acc1 = 0.0;
            for ((&x0, &x1), &y) in a0.iter().zip(a1).zip(b_row) {
                acc0 += x0 * y;
                acc1 += x1 * y;
            }
            out[i * n + jj] = acc0;
            out[(i + 1) * n + jj] = acc1;
        }
        i += NT_MR;
    }
    for ii in i..rows {
        let a_row = &a[ii * k..(ii + 1) * k];
        let out_row = &mut out[ii * n..(ii + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}
