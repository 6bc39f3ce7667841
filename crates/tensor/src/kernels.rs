//! Register-tiled matmul kernels with a bitwise-determinism contract.
//!
//! Every matmul entry point on [`crate::Matrix`] runs one of the two
//! register-blocked micro-kernels below, `nn` (`a · b`) and `tn` (`aᵀ · b`);
//! `a · bᵀ` is `nn` on a materialized transpose of `b`. They unroll 4x4
//! output elements so the compiler's vectorizer has independent accumulator
//! lanes to work with.
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
//! arithmetic. The one exception to "one chain per element" is `tn`'s
//! segmented form, which keeps one chain per element *per segment* (see
//! [`matmul_tn`]).

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
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn tn_tiled(
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        rows: std::ops::Range<usize>,
        ends: &[usize],
        m: usize,
        n: usize,
    ) {
        super::tn_tiled_body(a, b, block, rows, ends, m, n);
    }
}

/// Rows per register tile (output rows advanced together).
const MR: usize = 4;
/// Columns per register tile (output columns advanced together).
const NR: usize = 4;

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
///
/// `ends` splits the `k` reduction steps into consecutive segments (the
/// last end is `k`; `[k]` is the plain product). Each segment is its own
/// chain from `+0.0`; the first chain is the element's value and each later
/// one is added to it in segment order — exactly one product per segment
/// followed by an in-order `+=` of the results, which is how per-group
/// weight gradients are summed (DESIGN.md §17).
pub(crate) fn matmul_tn(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ends: &[usize],
    m: usize,
    n: usize,
    threads: usize,
) {
    rll_par::for_each_row_block(out, n, threads, |rows, block| {
        tn_tiled(a, b, block, rows, ends, m, n)
    });
}

fn tn_tiled(
    a: &[f64],
    b: &[f64],
    block: &mut [f64],
    rows: std::ops::Range<usize>,
    ends: &[usize],
    m: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: gated on runtime AVX detection; same portable body, AVX
        // codegen.
        unsafe { avx::tn_tiled(a, b, block, rows, ends, m, n) };
        return;
    }
    tn_tiled_body(a, b, block, rows, ends, m, n);
}

/// Fills `block` (output rows `rows`) strip by strip: `MR` rows at a time,
/// then one row at a time for the tail.
#[inline(always)]
fn tn_tiled_body(
    a: &[f64],
    b: &[f64],
    block: &mut [f64],
    rows: std::ops::Range<usize>,
    ends: &[usize],
    m: usize,
    n: usize,
) {
    let mut i = rows.start;
    while i < rows.end {
        let at = (i - rows.start) * n;
        if i + MR <= rows.end {
            tn_strip::<MR>(a, b, &mut block[at..at + MR * n], ends, m, n, i);
            i += MR;
        } else {
            tn_strip::<1>(a, b, &mut block[at..at + n], ends, m, n, i);
            i += 1;
        }
    }
}

/// The `R` output rows from row `i`: `NR`-wide tiles, then one column at a
/// time for the tail.
#[inline(always)]
fn tn_strip<const R: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ends: &[usize],
    m: usize,
    n: usize,
    i: usize,
) {
    let mut j = 0;
    while j + NR <= n {
        let tile = tn_tile::<R, NR>(a, b, ends, m, n, i, j);
        for (r, tile_row) in tile.iter().enumerate() {
            out[r * n + j..r * n + j + NR].copy_from_slice(tile_row);
        }
        j += NR;
    }
    for jj in j..n {
        let tile = tn_tile::<R, 1>(a, b, ends, m, n, i, jj);
        for (r, tile_row) in tile.iter().enumerate() {
            out[r * n + jj] = tile_row[0];
        }
    }
}

/// One `R x C` output tile at `(i, j)`: the first segment's chains, plus
/// each later segment's chains in order.
#[inline(always)]
fn tn_tile<const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    ends: &[usize],
    m: usize,
    n: usize,
    i: usize,
    j: usize,
) -> [[f64; C]; R] {
    let Some((&first, rest)) = ends.split_first() else {
        return [[0.0f64; C]; R];
    };
    let mut tile = tn_chains::<R, C>(a, b, 0..first, m, n, i, j);
    let mut start = first;
    for &end in rest {
        let acc = tn_chains::<R, C>(a, b, start..end, m, n, i, j);
        for r in 0..R {
            for c in 0..C {
                tile[r][c] += acc[r][c];
            }
        }
        start = end;
    }
    tile
}

/// `R x C` independent chains from `+0.0` over the steps `ps`, advanced one
/// `p` step at a time.
#[inline(always)]
fn tn_chains<const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    ps: std::ops::Range<usize>,
    m: usize,
    n: usize,
    i: usize,
    j: usize,
) -> [[f64; C]; R] {
    let mut acc = [[0.0f64; C]; R];
    for p in ps {
        let arow = &a[p * m + i..p * m + i + R];
        let bq = &b[p * n + j..p * n + j + C];
        for (acc_row, &avr) in acc.iter_mut().zip(arow) {
            for (o, &bv) in acc_row.iter_mut().zip(bq) {
                *o += avr * bv;
            }
        }
    }
    acc
}
