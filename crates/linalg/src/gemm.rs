//! Matrix-matrix multiplication kernels built on one packed, cache-blocked
//! microkernel engine.
//!
//! Mathematically equivalent implementations with different performance
//! characteristics are precisely the situation the paper studies, and these
//! kernels are the *measured workloads* of the reproduction — so they must
//! be fast **and** interchangeable without perturbing any seeded result:
//!
//! * [`gemm_naive`] — triple loop in `ikj` order; the correctness reference.
//! * [`gemm_blocked`] — the packed microkernel engine (serial).
//! * [`gemm_parallel_with`] — the engine parallelized
//!   over row-block indices through
//!   [`relperf_parallel::parallel_map_indexed_with`].
//!
//! # Bit-identity
//!
//! The naive `ikj` loop gives every output element `C[i][j]` a single
//! accumulator (its memory cell) and applies the fused update
//! [`crate::fmadd`]`(A[i][l], B[l][j], acc)` for `l = 0, 1, …, k−1` **in
//! increasing `l` order**. The microkernel keeps a register accumulator per
//! element of an `MR x NR` tile and sweeps the full `k` extent in the same
//! order with the same fused op, so every variant in this module produces
//! *bit-identical* output to [`gemm_naive`] for any shape, any thread
//! count, and any [`Parallelism`] — property-tested in `tests/`. That is
//! what lets the factorizations and the measured workloads swap engines
//! freely while seeded experiment goldens stay byte-stable.
//!
//! Two consequences shape the design:
//!
//! * blocking over `k` ([`KC`] chunks) keeps each element's **single**
//!   accumulator: between chunks it is spilled to `C` and reloaded, and a
//!   spill does not round — what would break bit-identity is *splitting*
//!   the accumulation into partial sums that are added afterwards, which
//!   the engine never does;
//! * the AVX-512 microkernel is a free win: `vfmadd` rounds once per lane
//!   exactly like [`f64::mul_add`], so runtime ISA dispatch cannot perturb
//!   results.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use relperf_parallel::Parallelism;

/// Rows per microkernel tile. `MR x NR` accumulators stay in registers
/// while the packed operand panels stream past them.
pub const MR: usize = 8;

/// Columns per microkernel tile (two 512-bit vectors of `f64` per row),
/// giving `MR · NR / 8 = 16` independent accumulator vectors — enough to
/// hide the FMA latency chain — while each packed `A` element feeds 16
/// output columns.
pub const NR: usize = 16;

/// Row-block granularity: rows of `C` computed per packed `A` block, and
/// the unit of work distributed to threads by [`gemm_parallel_with`].
/// 128 rows keep a `BLOCK x KC` packed `A` block L2-resident.
pub const BLOCK: usize = 128;

/// `k`-chunk granularity: the accumulation runs over `KC`-long slices of
/// the inner dimension so the `KC x NR` packed `B` panel (16 KiB) stays
/// L1-resident. Between chunks each element's accumulator is spilled to
/// `C` and reloaded — spilling does not round, so the per-element fused
/// accumulation sequence (and therefore the result, bit for bit) is the
/// same as one full-length pass.
pub const KC: usize = 128;

fn check_shapes(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Naive `ikj`-order GEMM; the correctness and bit-identity reference for
/// the blocked engine.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let aval = a[(i, l)];
            let brow = b.row(l);
            let crow = c.row_mut(i);
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = crate::fmadd(aval, bv, *cv);
            }
        }
    }
    Ok(c)
}

/// How the microkernel combines a computed tile with the output region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acc {
    /// Overwrite: each element accumulates from `0.0` (plain product).
    Set,
    /// Subtract: each element accumulates from its current value with the
    /// products negated (`C ← C − A·B`), the trailing-update form the
    /// right-looking factorizations need.
    Sub,
}

/// Reusable packing buffers. One arena per caller (or per worker thread)
/// keeps the hot path allocation-free across repeated kernel invocations.
pub(crate) struct PackArena {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl PackArena {
    pub(crate) fn new() -> Self {
        PackArena {
            a: Vec::new(),
            b: Vec::new(),
        }
    }
}

/// Packs a logical `rows x k` operand region into microtile-interleaved
/// form: microtile `t` covers logical rows `t·MR..t·MR+MR` and occupies a
/// `k·MR` slab where slot `l·MR + r` holds logical element `(t·MR + r, l)`.
/// Rows past `rows` are zero (their accumulators are discarded on store).
///
/// `trans == false`: logical `(i, l)` reads `src[(r0 + i)·stride + c0 + l]`.
/// `trans == true`:  logical `(i, l)` reads `src[(r0 + l)·stride + c0 + i]`
/// (the transposed region, used by `AᵀA`-style kernels).
///
/// `neg` packs `−A` instead: IEEE-754 negation is exact and
/// `fmadd(−a, b, x)` is the single-rounding `x − a·b`, so the `Sub` update
/// mode reuses the one microkernel with negated packing.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    src: &[f64],
    stride: usize,
    r0: usize,
    c0: usize,
    trans: bool,
    neg: bool,
    rows: usize,
    k: usize,
    out: &mut Vec<f64>,
) {
    let tiles = rows.div_ceil(MR);
    // Grow without a full zero pass: every live lane is overwritten below,
    // and pad lanes (rows past `rows` in the last microtile) are zeroed
    // explicitly.
    out.resize(tiles * k * MR, 0.0);
    for t in 0..tiles {
        let slab = &mut out[t * k * MR..(t + 1) * k * MR];
        let mr = (rows - t * MR).min(MR);
        if !trans {
            if mr == MR && k > 0 {
                // Full microtile: gather the MR row streams l-outer so the
                // packed writes are sequential cache lines.
                let rows: [&[f64]; MR] = std::array::from_fn(|r| {
                    &src[(r0 + t * MR + r) * stride + c0..][..k]
                });
                for (l, dst) in slab.chunks_exact_mut(MR).enumerate() {
                    for (d, row) in dst.iter_mut().zip(&rows) {
                        *d = row[l];
                    }
                }
            } else {
                for r in 0..mr {
                    let row = &src[(r0 + t * MR + r) * stride + c0..][..k];
                    for (l, &v) in row.iter().enumerate() {
                        slab[l * MR + r] = v;
                    }
                }
            }
        } else {
            for (l, dst) in slab.chunks_exact_mut(MR).take(k).enumerate() {
                let row = &src[(r0 + l) * stride + c0 + t * MR..][..mr];
                dst[..mr].copy_from_slice(row);
            }
        }
        if mr < MR {
            for l in 0..k {
                for r in mr..MR {
                    slab[l * MR + r] = 0.0;
                }
            }
        }
        if neg {
            for v in slab.iter_mut() {
                *v = -*v;
            }
        }
    }
}

/// Packs a logical `k x cols` operand region into panel-interleaved form:
/// panel `p` covers logical columns `p·NR..p·NR+NR` and occupies a `k·NR`
/// slab where slot `l·NR + c` holds logical element `(l, p·NR + c)`.
/// Columns past `cols` are zero.
///
/// `trans == false`: logical `(l, j)` reads `src[(r0 + l)·stride + c0 + j]`.
/// `trans == true`:  logical `(l, j)` reads `src[(r0 + j)·stride + c0 + l]`.
fn pack_b(
    src: &[f64],
    stride: usize,
    r0: usize,
    c0: usize,
    trans: bool,
    k: usize,
    cols: usize,
    out: &mut Vec<f64>,
) {
    let panels = cols.div_ceil(NR);
    // Grow without a full zero pass; pad columns of the last panel are
    // zeroed explicitly.
    out.resize(panels * k * NR, 0.0);
    for p in 0..panels {
        let slab = &mut out[p * k * NR..(p + 1) * k * NR];
        let nr = (cols - p * NR).min(NR);
        if !trans {
            for (l, dst) in slab.chunks_exact_mut(NR).take(k).enumerate() {
                let row = &src[(r0 + l) * stride + c0 + p * NR..][..nr];
                dst[..nr].copy_from_slice(row);
                dst[nr..].fill(0.0);
            }
        } else {
            for dst in slab.chunks_exact_mut(NR).take(k) {
                dst[nr..].fill(0.0);
            }
            for j in 0..nr {
                let col = &src[(r0 + p * NR + j) * stride + c0..][..k];
                for (l, &v) in col.iter().enumerate() {
                    slab[l * NR + j] = v;
                }
            }
        }
    }
}

/// The portable microkernel: `acc[r][c] = fmadd(A[r][l], B[l][c], acc[r][c])`
/// for `l = 0..k`, **in increasing `l` order with one accumulator per
/// element** — the bit-identity contract with the naive `ikj` loop.
/// Accumulator rows live in explicit locals so they stay in SIMD registers
/// across the whole `k` sweep.
#[inline(always)]
fn microkernel_generic(k: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    const { assert!(MR % 4 == 0) };
    // Four rows at a time: enough independent accumulator chains to hide
    // FMA latency without exceeding the registers of narrower SIMD ISAs.
    for (q, quad) in acc.chunks_exact_mut(4).enumerate() {
        let r0 = q * 4;
        let (h0, rest) = quad.split_at_mut(1);
        let (h1, rest) = rest.split_at_mut(1);
        let (h2, h3) = rest.split_at_mut(1);
        let mut a0 = h0[0];
        let mut a1 = h1[0];
        let mut a2 = h2[0];
        let mut a3 = h3[0];
        for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(k) {
            let b: &[f64; NR] = b_row.try_into().expect("NR-sized chunk");
            macro_rules! row {
                ($acc:ident, $i:expr) => {{
                    let x = a_col[r0 + $i];
                    for c in 0..NR {
                        $acc[c] = crate::fmadd(x, b[c], $acc[c]);
                    }
                }};
            }
            row!(a0, 0);
            row!(a1, 1);
            row!(a2, 2);
            row!(a3, 3);
        }
        h0[0] = a0;
        h1[0] = a1;
        h2[0] = a2;
        h3[0] = a3;
    }
}

/// The AVX-512 microkernel: the same accumulation as
/// [`microkernel_generic`] — per-lane fused multiply-adds in increasing
/// `l` order — expressed with explicit 512-bit vectors, writing the tile
/// straight into the (strided) output region. `vfmadd` rounds once per
/// lane exactly like [`f64::mul_add`], so the two kernels are
/// **bit-identical**; which one runs is a pure speed decision made at
/// runtime from CPU features.
///
/// `init_from_out == false` starts every accumulator at `0.0` (`Set`);
/// `true` seeds them from the current output values (`Sub`, with the `A`
/// panel packed negated).
///
/// # Safety
/// Caller must verify `avx512f` support and that `out` addresses a full
/// `MR x NR` tile: rows `r = 0..MR` at `out + r·stride`, each `NR` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    k: usize,
    ap: &[f64],
    bp: &[f64],
    out: *mut f64,
    stride: usize,
    init_from_out: bool,
) {
    use std::arch::x86_64::*;
    assert!(ap.len() >= k * MR && bp.len() >= k * NR);
    // SAFETY: the asserted pack lengths cover every packed offset below;
    // the caller guarantees the `out` tile (see the doc contract).
    unsafe {
        let mut c: [__m512d; MR * NR / 8] = if init_from_out {
            std::array::from_fn(|i| _mm512_loadu_pd(out.add((i / 2) * stride + (i % 2) * 8)))
        } else {
            [_mm512_setzero_pd(); MR * NR / 8]
        };
        let mut apt = ap.as_ptr();
        let mut bpt = bp.as_ptr();
        for _ in 0..k {
            // wrapping_add: near the end of the slab these prefetch
            // addresses run past the allocation, which is fine for the
            // prefetch instruction but would be UB for pointer::add.
            _mm_prefetch::<_MM_HINT_T0>(bpt.wrapping_add(NR * 8) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(apt.wrapping_add(MR * 8) as *const i8);
            let b0 = _mm512_loadu_pd(bpt);
            let b1 = _mm512_loadu_pd(bpt.add(8));
            macro_rules! pair {
                ($r:expr) => {{
                    let x = _mm512_set1_pd(*apt.add($r));
                    c[2 * $r] = _mm512_fmadd_pd(x, b0, c[2 * $r]);
                    c[2 * $r + 1] = _mm512_fmadd_pd(x, b1, c[2 * $r + 1]);
                }};
            }
            pair!(0);
            pair!(1);
            pair!(2);
            pair!(3);
            pair!(4);
            pair!(5);
            pair!(6);
            pair!(7);
            apt = apt.add(MR);
            bpt = bpt.add(NR);
        }
        for r in 0..MR {
            _mm512_storeu_pd(out.add(r * stride), c[2 * r]);
            _mm512_storeu_pd(out.add(r * stride + 8), c[2 * r + 1]);
        }
    }
}

/// `true` when the AVX-512 microkernel can run (cached by `std` after the
/// first query).
#[inline]
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Computes one `rows x cols` output region from a packed `A` block and a
/// packed `B` region. `out` is row-major with `stride` values per row;
/// logical output `(i, j)` lives at `out[i·stride + j]`.
///
/// `init_from_out` seeds every accumulator from the current output value
/// (later `k` chunks, and every subtractive update — whose `A` block is
/// packed negated); otherwise accumulators start at `0.0`.
fn drive_block(
    out: &mut [f64],
    stride: usize,
    rows: usize,
    cols: usize,
    k: usize,
    apack: &[f64],
    bpack: &[f64],
    init_from_out: bool,
) {
    let use_avx512 = avx512_available();
    let tiles = rows.div_ceil(MR);
    let panels = cols.div_ceil(NR);
    // Panel-outer order: the `k x NR` B panel stays cache-hot across all
    // the A microtiles of the block, which stream past it exactly once.
    for p in 0..panels {
        let nr = (cols - p * NR).min(NR);
        let bp = &bpack[p * k * NR..(p + 1) * k * NR];
        for t in 0..tiles {
            let mr = (rows - t * MR).min(MR);
            let ap = &apack[t * k * MR..(t + 1) * k * MR];
            let full = mr == MR && nr == NR;
            #[cfg(target_arch = "x86_64")]
            if use_avx512 && full {
                // Bounds: the last element touched is
                // (t·MR + MR − 1)·stride + p·NR + NR ≤ out.len().
                let base = t * MR * stride + p * NR;
                assert!(base + (MR - 1) * stride + NR <= out.len());
                // SAFETY: avx512 verified; the asserted bound covers the
                // whole tile; `out` is borrowed mutably for the call.
                unsafe {
                    microkernel_avx512(
                        k,
                        ap,
                        bp,
                        out.as_mut_ptr().add(base),
                        stride,
                        init_from_out,
                    );
                }
                continue;
            }
            let _ = full;
            let mut acc = [[0.0f64; NR]; MR];
            if init_from_out {
                for r in 0..mr {
                    let src = &out[(t * MR + r) * stride + p * NR..][..nr];
                    acc[r][..nr].copy_from_slice(src);
                }
            }
            microkernel_generic(k, ap, bp, &mut acc);
            for r in 0..mr {
                let dst = &mut out[(t * MR + r) * stride + p * NR..][..nr];
                dst.copy_from_slice(&acc[r][..nr]);
            }
        }
    }
}

/// The crate-internal region engine powering [`gemm_blocked`] and the
/// trailing updates of the blocked factorizations:
///
/// `C[cr0.., cc0..] (Set|Sub)= A_region · B_region`
///
/// with per-element, full-length, in-order `k` accumulation — bit-identical
/// to the corresponding naive per-element loop. The `A` region is the
/// logical `m x k` operand at `(ar0, ac0)` of the row-major buffer `a_src`
/// (`a_trans` reads the transposed region); `B` likewise, logical `k x n`.
/// The output region must not alias either source buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_region(
    c: &mut [f64],
    c_stride: usize,
    cr0: usize,
    cc0: usize,
    m: usize,
    n: usize,
    k: usize,
    a_src: &[f64],
    a_stride: usize,
    ar0: usize,
    ac0: usize,
    a_trans: bool,
    b_src: &[f64],
    b_stride: usize,
    br0: usize,
    bc0: usize,
    b_trans: bool,
    mode: Acc,
    arena: &mut PackArena,
) {
    if m == 0 || n == 0 {
        return;
    }
    let neg = mode == Acc::Sub;
    let mut k0 = 0;
    loop {
        let kc = (k - k0).min(KC);
        // Chunk offsets: logical A element (i, k0 + l), B element (k0 + l, j).
        let (bar0, bac0) = if b_trans { (br0, bc0 + k0) } else { (br0 + k0, bc0) };
        pack_b(b_src, b_stride, bar0, bac0, b_trans, kc, n, &mut arena.b);
        let init = neg || k0 > 0;
        for i0 in (0..m).step_by(BLOCK) {
            let rows = (m - i0).min(BLOCK);
            let (pr0, pc0) = if a_trans {
                (ar0 + k0, ac0 + i0)
            } else {
                (ar0 + i0, ac0 + k0)
            };
            pack_a(a_src, a_stride, pr0, pc0, a_trans, neg, rows, kc, &mut arena.a);
            let out = &mut c[(cr0 + i0) * c_stride + cc0..];
            drive_block(out, c_stride, rows, n, kc, &arena.a, &arena.b, init);
        }
        k0 += kc;
        if k0 >= k {
            break;
        }
    }
}

/// [`gemm_region`] with the row-block loop fanned out across threads —
/// the parallel trailing-update engine of the blocked factorizations.
///
/// Each work item is one [`BLOCK`]-row band of the output region,
/// computed into a private band buffer (seeded from the current output
/// values, which `Sub` mode and later `k` chunks reload from) and copied
/// back in index order. The packed `B` chunks are built once and shared
/// read-only; each worker reuses one packing arena across its bands. Per
/// element the accumulation is the same full-length in-order `k` sweep
/// with the same spill/reload points as the serial engine, so the region
/// is **bit-identical** to
/// [`gemm_region`] for any [`Parallelism`]; one worker short-circuits to
/// the serial engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_region_parallel(
    c: &mut [f64],
    c_stride: usize,
    cr0: usize,
    cc0: usize,
    m: usize,
    n: usize,
    k: usize,
    a_src: &[f64],
    a_stride: usize,
    ar0: usize,
    ac0: usize,
    a_trans: bool,
    b_src: &[f64],
    b_stride: usize,
    br0: usize,
    bc0: usize,
    b_trans: bool,
    mode: Acc,
    arena: &mut PackArena,
    parallelism: Parallelism,
) {
    if m == 0 || n == 0 {
        return;
    }
    let nblocks = m.div_ceil(BLOCK);
    if parallelism.effective_threads(nblocks) <= 1 {
        return gemm_region(
            c, c_stride, cr0, cc0, m, n, k, a_src, a_stride, ar0, ac0, a_trans, b_src, b_stride,
            br0, bc0, b_trans, mode, arena,
        );
    }
    let neg = mode == Acc::Sub;
    // Pack every KC chunk of B once, shared read-only across workers.
    let mut bpacks: Vec<(usize, usize, Vec<f64>)> = Vec::new(); // (k0, kc, pack)
    let mut k0 = 0;
    loop {
        let kc = (k - k0).min(KC);
        let (bar0, bac0) = if b_trans { (br0, bc0 + k0) } else { (br0 + k0, bc0) };
        let mut bp = Vec::new();
        pack_b(b_src, b_stride, bar0, bac0, b_trans, kc, n, &mut bp);
        bpacks.push((k0, kc, bp));
        k0 += kc;
        if k0 >= k {
            break;
        }
    }
    // Sub mode reads the current output values before overwriting them;
    // stage each band's starting rows so workers never touch `c`.
    let band_inits: Vec<Vec<f64>> = if neg {
        (0..nblocks)
            .map(|bi| {
                let i0 = bi * BLOCK;
                let rows = (m - i0).min(BLOCK);
                let mut init = Vec::with_capacity(rows * n);
                for r in 0..rows {
                    init.extend_from_slice(&c[(cr0 + i0 + r) * c_stride + cc0..][..n]);
                }
                init
            })
            .collect()
    } else {
        Vec::new()
    };
    let bands = relperf_parallel::parallel_map_indexed_with(
        nblocks,
        parallelism,
        Vec::<f64>::new,
        |apack, bi| {
            let i0 = bi * BLOCK;
            let rows = (m - i0).min(BLOCK);
            let mut band = if neg {
                band_inits[bi].clone()
            } else {
                vec![0.0; rows * n]
            };
            for (ci, (k0, kc, bp)) in bpacks.iter().enumerate() {
                let (pr0, pc0) = if a_trans {
                    (ar0 + k0, ac0 + i0)
                } else {
                    (ar0 + i0, ac0 + k0)
                };
                pack_a(a_src, a_stride, pr0, pc0, a_trans, neg, rows, *kc, apack);
                drive_block(&mut band, n, rows, n, *kc, apack, bp, neg || ci > 0);
            }
            band
        },
    );
    for (bi, band) in bands.iter().enumerate() {
        let i0 = bi * BLOCK;
        let rows = (m - i0).min(BLOCK);
        for r in 0..rows {
            c[(cr0 + i0 + r) * c_stride + cc0..][..n].copy_from_slice(&band[r * n..(r + 1) * n]);
        }
    }
}

/// Cache-blocked GEMM: the packed microkernel engine, serial.
/// Bit-identical to [`gemm_naive`] for every shape.
pub fn gemm_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let mut arena = PackArena::new();
    gemm_region(
        c.as_mut_slice(),
        n,
        0,
        0,
        m,
        n,
        k,
        a.as_slice(),
        k,
        0,
        0,
        false,
        b.as_slice(),
        n,
        0,
        0,
        false,
        Acc::Set,
        &mut arena,
    );
    Ok(c)
}

/// The blocked engine parallelized over row-block indices: one
/// `gemm_region_parallel` call over the whole of a zeroed `C`.
///
/// Each work item is one [`BLOCK`]-row band of `C`; every worker reuses a
/// private packed-`A` arena across the bands it processes, while the packed
/// `B` panels are built once and shared read-only. Each output element is
/// computed by exactly one worker with the same full-length in-order `k`
/// accumulation, so the result is **bit-identical** to [`gemm_blocked`]
/// (and therefore to [`gemm_naive`]) for any [`Parallelism`].
pub fn gemm_parallel_with(a: &Matrix, b: &Matrix, parallelism: Parallelism) -> Result<Matrix> {
    check_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    gemm_region_parallel(
        c.as_mut_slice(),
        n,
        0,
        0,
        m,
        n,
        k,
        a.as_slice(),
        k,
        0,
        0,
        false,
        b.as_slice(),
        n,
        0,
        0,
        false,
        Acc::Set,
        &mut PackArena::new(),
        parallelism,
    );
    Ok(c)
}

/// Computes `AᵀA` exploiting symmetry (only the upper triangle is
/// computed, then mirrored), the hot first step of the paper's RLS task.
/// This is the unblocked reference; [`syrk_ata_blocked`] is the engine
/// variant, bit-identical to it (and both agree bit for bit with
/// `gemm_naive(Aᵀ, A)`, since per element all three accumulate the same
/// products in the same row order).
pub fn syrk_ata(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut c = Matrix::zeros(n, n);
    // Accumulate rank-1 contributions row by row of A: AᵀA = Σᵢ aᵢ aᵢᵀ.
    for i in 0..m {
        let row = a.row(i);
        for p in 0..n {
            let v = row[p];
            let crow = c.row_mut(p);
            for q in p..n {
                crow[q] = crate::fmadd(v, row[q], crow[q]);
            }
        }
    }
    // Mirror the upper triangle.
    for p in 0..n {
        for q in (p + 1)..n {
            let v = c[(p, q)];
            c[(q, p)] = v;
        }
    }
    c
}

/// `AᵀA` through the packed microkernel engine: upper-triangle row blocks
/// are computed with the transposed-operand packing, then mirrored.
/// Bit-identical to [`syrk_ata`] for every shape.
pub fn syrk_ata_blocked(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut c = Matrix::zeros(n, n);
    let mut arena = PackArena::new();
    for i0 in (0..n).step_by(BLOCK) {
        let rows = (n - i0).min(BLOCK);
        // C[i0.., i0..] = (A[:, i0..i0+rows])ᵀ · A[:, i0..]: the row block
        // of the upper triangle from column i0 rightwards.
        gemm_region(
            c.as_mut_slice(),
            n,
            i0,
            i0,
            rows,
            n - i0,
            m,
            a.as_slice(),
            n,
            0,
            i0,
            true,
            a.as_slice(),
            n,
            0,
            i0,
            false,
            Acc::Set,
            &mut arena,
        );
    }
    for p in 0..n {
        for q in (p + 1)..n {
            let v = c[(p, q)];
            c[(q, p)] = v;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_matrix;
    use rand::prelude::*;

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert!(
            a.approx_eq(b, 1e-9),
            "matrices differ: max |Δ| = {}",
            a.try_sub(b).map(|d| d.max_abs()).unwrap_or(f64::NAN)
        );
    }

    #[test]
    fn naive_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = gemm_naive(&a, &b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn shape_mismatch_rejected_by_all_variants() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(gemm_naive(&a, &b).is_err());
        assert!(gemm_blocked(&a, &b).is_err());
        assert!(gemm_parallel_with(&a, &b, Parallelism::with_threads(2)).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 17, 17);
        let i = Matrix::identity(17);
        assert_close(&gemm_blocked(&a, &i).unwrap(), &a);
        assert_close(&gemm_blocked(&i, &a).unwrap(), &a);
    }

    #[test]
    fn blocked_bit_identical_to_naive_rectangular() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_matrix(&mut rng, 70, 33);
        let b = random_matrix(&mut rng, 33, 91);
        assert_eq!(gemm_blocked(&a, &b).unwrap(), gemm_naive(&a, &b).unwrap());
    }

    #[test]
    fn blocked_bit_identical_across_tile_remainders() {
        // Shapes straddling every microtile/panel/block boundary.
        let mut rng = StdRng::seed_from_u64(12);
        for (m, k, n) in [
            (1, 1, 1),
            (MR, 3, NR),
            (MR + 1, 5, NR + 1),
            (BLOCK - 1, 17, NR - 1),
            (BLOCK, BLOCK, NR * 2),
            (BLOCK + 3, BLOCK + 5, NR * 3 + 2),
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            assert_eq!(
                gemm_blocked(&a, &b).unwrap(),
                gemm_naive(&a, &b).unwrap(),
                "shape {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_is_the_engine() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 65, 64);
        let b = random_matrix(&mut rng, 64, 67);
        assert_eq!(gemm_blocked(&a, &b).unwrap(), gemm_naive(&a, &b).unwrap());
    }

    #[test]
    fn parallel_bit_identical_to_naive_for_any_parallelism() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(&mut rng, 150, 40);
        let b = random_matrix(&mut rng, 40, 30);
        let reference = gemm_naive(&a, &b).unwrap();
        assert_eq!(gemm_blocked(&a, &b).unwrap(), reference);
        for threads in [1, 2, 3, 4, 7] {
            for chunk in [0, 1, 3] {
                let par =
                    gemm_parallel_with(&a, &b, Parallelism { threads, chunk }).unwrap();
                assert_eq!(par, reference, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn parallel_more_threads_than_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_matrix(&mut rng, 3, 8);
        let b = random_matrix(&mut rng, 8, 5);
        let par = gemm_parallel_with(&a, &b, Parallelism::with_threads(16)).unwrap();
        assert_eq!(par, gemm_naive(&a, &b).unwrap());
    }

    #[test]
    fn parallel_auto_thread_count() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_matrix(&mut rng, 20, 20);
        let b = random_matrix(&mut rng, 20, 20);
        let par = gemm_parallel_with(&a, &b, Parallelism::auto()).unwrap();
        assert_eq!(par, gemm_naive(&a, &b).unwrap());
    }

    #[test]
    fn degenerate_sizes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        let c = gemm_blocked(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 4));
        let c = gemm_parallel_with(&a, &b, Parallelism::with_threads(3)).unwrap();
        assert_eq!(c.shape(), (0, 4));
        // Zero inner dimension: the product is the zero matrix.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        assert_eq!(gemm_blocked(&a, &b).unwrap(), Matrix::zeros(3, 2));
        let a1 = Matrix::from_rows(&[&[2.0]]).unwrap();
        let b1 = Matrix::from_rows(&[&[3.0]]).unwrap();
        assert_eq!(gemm_blocked(&a1, &b1).unwrap()[(0, 0)], 6.0);
    }

    #[test]
    fn syrk_matches_explicit_ata() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_matrix(&mut rng, 23, 17);
        let explicit = gemm_naive(&a.transpose(), &a).unwrap();
        assert_eq!(syrk_ata(&a), explicit);
    }

    #[test]
    fn syrk_blocked_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        for (m, n) in [(1, 1), (23, 17), (40, 70), (100, 65), (7, 130)] {
            let a = random_matrix(&mut rng, m, n);
            assert_eq!(syrk_ata_blocked(&a), syrk_ata(&a), "shape {m}x{n}");
        }
    }

    #[test]
    fn syrk_output_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_matrix(&mut rng, 31, 12);
        assert!(syrk_ata(&a).is_symmetric(1e-12));
        assert!(syrk_ata_blocked(&a).is_symmetric(1e-12));
    }

    #[test]
    fn region_parallel_bit_identical_to_serial_region() {
        // The trailing-update shape of the factorizations: a sub-region at
        // an offset, Sub mode, transposed-B variant included, with enough
        // rows to span several BLOCK bands.
        let mut rng = StdRng::seed_from_u64(14);
        for (m, n, k, b_trans) in [
            (BLOCK * 2 + 17, 40, 32, false),
            (BLOCK + 1, NR + 3, KC + 9, false),
            (BLOCK * 2 + 5, 33, 32, true),
            (5, 4, 3, false),
            (BLOCK * 3, 16, 0, false),
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = if b_trans {
                random_matrix(&mut rng, n, k)
            } else {
                random_matrix(&mut rng, k, n)
            };
            for mode in [Acc::Set, Acc::Sub] {
                let c0 = random_matrix(&mut rng, m + 3, n + 2);
                let mut serial = c0.clone();
                let mut arena = PackArena::new();
                gemm_region(
                    serial.as_mut_slice(),
                    n + 2,
                    3,
                    2,
                    m,
                    n,
                    k,
                    a.as_slice(),
                    k,
                    0,
                    0,
                    false,
                    b.as_slice(),
                    b.cols(),
                    0,
                    0,
                    b_trans,
                    mode,
                    &mut arena,
                );
                for threads in [2usize, 3, 0] {
                    let mut par = c0.clone();
                    let mut arena = PackArena::new();
                    gemm_region_parallel(
                        par.as_mut_slice(),
                        n + 2,
                        3,
                        2,
                        m,
                        n,
                        k,
                        a.as_slice(),
                        k,
                        0,
                        0,
                        false,
                        b.as_slice(),
                        b.cols(),
                        0,
                        0,
                        b_trans,
                        mode,
                        &mut arena,
                        Parallelism::with_threads(threads),
                    );
                    assert_eq!(
                        par, serial,
                        "m={m} n={n} k={k} b_trans={b_trans} {mode:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn sub_mode_region_matches_manual_update() {
        // C -= A·B through the region engine equals the scalar loop.
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_matrix(&mut rng, 13, 9);
        let b = random_matrix(&mut rng, 9, 11);
        let c0 = random_matrix(&mut rng, 13, 11);
        let mut c = c0.clone();
        let mut arena = PackArena::new();
        gemm_region(
            c.as_mut_slice(),
            11,
            0,
            0,
            13,
            11,
            9,
            a.as_slice(),
            9,
            0,
            0,
            false,
            b.as_slice(),
            11,
            0,
            0,
            false,
            Acc::Sub,
            &mut arena,
        );
        let mut expect = c0.clone();
        for i in 0..13 {
            for l in 0..9 {
                let av = a[(i, l)];
                for j in 0..11 {
                    expect[(i, j)] = crate::fmadd(-av, b[(l, j)], expect[(i, j)]);
                }
            }
        }
        assert_eq!(c, expect);
    }
}
