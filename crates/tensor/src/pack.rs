//! Register/cache-blocked GEMM core with explicit B-panel layout.
//!
//! Every product in the crate reduces to `A (m×k) · Bᵀ` where `bt` holds B
//! transposed — each row of `bt` is one column of B, i.e. exactly the packed
//! panel layout a blocked kernel wants. `matmul` packs its right-hand side
//! into that layout once per call (into workspace memory); `matmul_bt`'s
//! operand already *is* that layout and is consumed in place.
//!
//! # Bit-identity contract
//!
//! The repo's invariant is that kernel results are a pure function of their
//! inputs — never of worker count, and (since this module landed) never of
//! blocking strategy. The blocked kernel therefore:
//!
//! * **never splits the k dimension** (no KC blocking): each output element
//!   is produced by one microkernel invocation that walks the full reduction
//!   in order. Blocking is over output rows (MR), output columns (NR), and
//!   column panels (NC) only — pure output partitioning, like the pool.
//! * reproduces the exact accumulation order of the scalar seed kernel
//!   [`dot_seg`] for every element: four k-strided lanes per segment,
//!   reduced left-to-right, then the scalar tail, then segments accumulated
//!   in ascending order.
//!
//! The `seg` parameter generalises the seed `dot` to *segmented* products:
//! the lane reduction restarts at every `seg` boundary. With `seg == k` this
//! is byte-for-byte the original kernel; with `seg < k` it reproduces the
//! accumulation order of a chain of `k/seg` smaller products added in
//! sequence — which is precisely how the per-tap Conv1d reference (one
//! product per kernel tap) and the per-gate GRU reference (one product per
//! gate operand) accumulate.
//! The bridge between the two orders is the fact that `dot_seg` can never
//! return `-0.0` (lane accumulators start at `+0.0`, and under
//! round-to-nearest `x + (-x) = +0.0`), so `acc += segment` is bit-equal to
//! the old "first product assigns, later products add" chain, and
//! all-zero padding segments contribute exactly nothing.

use crate::PARALLEL_FLOP_THRESHOLD;
use pelican_runtime::{current_exec, Pool};

/// Microkernel row tile: output rows computed together.
pub const MR: usize = 2;
/// Microkernel column tile: output columns computed together.
pub const NR: usize = 4;
/// k-strided accumulation lanes — fixed by the seed kernel's order.
const LANES: usize = 4;
/// Column-panel budget in f32s (~256 KiB): columns per NC panel are chosen
/// so `nc × k` stays within it, keeping the panel L2-resident while every
/// row of A sweeps it.
const PANEL_F32S: usize = 64 * 1024;

/// Segmented dot product — the scalar seed kernel.
///
/// Accumulates `a·b` in `seg`-length runs: within a run, four k-strided
/// lanes reduced `((l0+l1)+l2)+l3` plus a scalar tail (the original `dot`
/// order); across runs, plain ascending adds into the running total.
/// `seg >= a.len()` (or `seg == 0`, normalised) gives the original
/// unsegmented kernel.
#[inline]
pub fn dot_seg(a: &[f32], b: &[f32], seg: usize) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let seg = if seg == 0 { k.max(1) } else { seg };
    let mut acc = 0.0f32;
    let mut s0 = 0;
    while s0 < k {
        let s1 = (s0 + seg).min(k);
        let sa = &a[s0..s1];
        let sb = &b[s0..s1];
        let chunks = sa.len() / LANES;
        let mut l = [0.0f32; LANES];
        for i in 0..chunks {
            let j = i * LANES;
            l[0] += sa[j] * sb[j];
            l[1] += sa[j + 1] * sb[j + 1];
            l[2] += sa[j + 2] * sb[j + 2];
            l[3] += sa[j + 3] * sb[j + 3];
        }
        let mut s = l[0] + l[1] + l[2] + l[3];
        for j in chunks * LANES..sa.len() {
            s += sa[j] * sb[j];
        }
        acc += s;
        s0 = s1;
    }
    acc
}

/// Transposes `src` (`rows×cols`, row-major) into `dst` (`cols×rows`), in
/// 32×32 tiles so both sides stay cache-friendly. This is the packing step
/// that turns `matmul`'s right-hand side into the `bt` panel layout.
///
/// # Panics
///
/// Panics if the slice lengths don't match `rows × cols`.
pub fn pack_transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "pack_transpose src len");
    assert_eq!(dst.len(), rows * cols, "pack_transpose dst len");
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// SSE2 lane engine for the microkernels (x86_64 baseline, so always
/// present there). One `__m128` per output element holds that element's
/// four k-strided lanes: each step issues exactly one `mulps` and one
/// `addps` per element — the *same* IEEE-754 multiply and add, in the
/// same order, as the scalar `l[e][q] += a[q] * b[q]` chains, just four
/// lanes per instruction. Lane reduction and tails stay scalar, so the
/// result is bit-identical to the portable path by construction.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{LANES, MR, NR};
    use core::arch::x86_64::*;

    /// Accumulates the LANES-aligned prefix of one A row against four B
    /// columns; returns the four lane partials per output element.
    #[inline]
    pub(super) fn mk1x4(sa0: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; NR] {
        let chunks = sa0.len() / LANES;
        let mut out = [[0.0f32; LANES]; NR];
        // SAFETY: every pointer read below is at offset < chunks*LANES,
        // which is within all five slices (sb slices match sa0's length).
        unsafe {
            let mut acc = [_mm_setzero_ps(); NR];
            let pa0 = sa0.as_ptr();
            let pb = [
                sb[0].as_ptr(),
                sb[1].as_ptr(),
                sb[2].as_ptr(),
                sb[3].as_ptr(),
            ];
            for i in 0..chunks {
                let j = i * LANES;
                let x0 = _mm_loadu_ps(pa0.add(j));
                acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(x0, _mm_loadu_ps(pb[0].add(j))));
                acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(x0, _mm_loadu_ps(pb[1].add(j))));
                acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(x0, _mm_loadu_ps(pb[2].add(j))));
                acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(x0, _mm_loadu_ps(pb[3].add(j))));
            }
            for e in 0..NR {
                _mm_storeu_ps(out[e].as_mut_ptr(), acc[e]);
            }
        }
        out
    }

    /// Accumulates the LANES-aligned prefix of two A rows against four B
    /// columns: eight `__m128` accumulators = 32 independent chains, with
    /// the B loads shared across both rows.
    #[inline]
    pub(super) fn mk2x4(sa0: &[f32], sa1: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; MR * NR] {
        let chunks = sa0.len() / LANES;
        let mut out = [[0.0f32; LANES]; MR * NR];
        // SAFETY: offsets stay below chunks*LANES <= len of all six slices
        // (sa1 and the sb slices match sa0's length).
        unsafe {
            let mut acc = [_mm_setzero_ps(); MR * NR];
            let pa0 = sa0.as_ptr();
            let pa1 = sa1.as_ptr();
            let pb = [
                sb[0].as_ptr(),
                sb[1].as_ptr(),
                sb[2].as_ptr(),
                sb[3].as_ptr(),
            ];
            for i in 0..chunks {
                let j = i * LANES;
                let x0 = _mm_loadu_ps(pa0.add(j));
                let x1 = _mm_loadu_ps(pa1.add(j));
                let y0 = _mm_loadu_ps(pb[0].add(j));
                let y1 = _mm_loadu_ps(pb[1].add(j));
                let y2 = _mm_loadu_ps(pb[2].add(j));
                let y3 = _mm_loadu_ps(pb[3].add(j));
                acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(x0, y0));
                acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(x0, y1));
                acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(x0, y2));
                acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(x0, y3));
                acc[4] = _mm_add_ps(acc[4], _mm_mul_ps(x1, y0));
                acc[5] = _mm_add_ps(acc[5], _mm_mul_ps(x1, y1));
                acc[6] = _mm_add_ps(acc[6], _mm_mul_ps(x1, y2));
                acc[7] = _mm_add_ps(acc[7], _mm_mul_ps(x1, y3));
            }
            for e in 0..MR * NR {
                _mm_storeu_ps(out[e].as_mut_ptr(), acc[e]);
            }
        }
        out
    }
}

/// Portable lane engine: the same accumulation chains in scalar code, for
/// non-x86_64 targets (and the shape the SSE path must mirror).
#[cfg(not(target_arch = "x86_64"))]
mod lanes {
    use super::{LANES, MR, NR};

    #[inline]
    pub(super) fn mk1x4(sa0: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; NR] {
        let mut l = [[0.0f32; LANES]; NR];
        let it = sa0
            .chunks_exact(LANES)
            .zip(sb[0].chunks_exact(LANES))
            .zip(sb[1].chunks_exact(LANES))
            .zip(sb[2].chunks_exact(LANES))
            .zip(sb[3].chunks_exact(LANES));
        for ((((ca, c0), c1), c2), c3) in it {
            for q in 0..LANES {
                let x = ca[q];
                l[0][q] += x * c0[q];
                l[1][q] += x * c1[q];
                l[2][q] += x * c2[q];
                l[3][q] += x * c3[q];
            }
        }
        l
    }

    #[inline]
    pub(super) fn mk2x4(sa0: &[f32], sa1: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; MR * NR] {
        let mut l = [[0.0f32; LANES]; MR * NR];
        let it = sa0
            .chunks_exact(LANES)
            .zip(sa1.chunks_exact(LANES))
            .zip(sb[0].chunks_exact(LANES))
            .zip(sb[1].chunks_exact(LANES))
            .zip(sb[2].chunks_exact(LANES))
            .zip(sb[3].chunks_exact(LANES));
        for (((((ca0, ca1), c0), c1), c2), c3) in it {
            for q in 0..LANES {
                let x0 = ca0[q];
                let x1 = ca1[q];
                l[0][q] += x0 * c0[q];
                l[1][q] += x0 * c1[q];
                l[2][q] += x0 * c2[q];
                l[3][q] += x0 * c3[q];
                l[4][q] += x1 * c0[q];
                l[5][q] += x1 * c1[q];
                l[6][q] += x1 * c2[q];
                l[7][q] += x1 * c3[q];
            }
        }
        l
    }
}

/// 1×NR microkernel: one A row against four packed B columns, segmented.
/// Each of the four outputs keeps its own four lanes, so the per-element
/// order is exactly [`dot_seg`]; the win is reusing the A row loads across
/// columns and giving the CPU 16 independent accumulation chains.
#[inline]
fn mk1x4(a0: &[f32], b: [&[f32]; NR], seg: usize, out: &mut [f32; NR]) {
    let k = a0.len();
    let mut acc = [0.0f32; NR];
    let mut s0 = 0;
    while s0 < k {
        let s1 = (s0 + seg).min(k);
        let sa0 = &a0[s0..s1];
        let sb: [&[f32]; NR] = [&b[0][s0..s1], &b[1][s0..s1], &b[2][s0..s1], &b[3][s0..s1]];
        let l = lanes::mk1x4(sa0, &sb);
        let tail = (sa0.len() / LANES) * LANES;
        for e in 0..NR {
            let mut s = l[e][0] + l[e][1] + l[e][2] + l[e][3];
            for j in tail..sa0.len() {
                s += sa0[j] * sb[e][j];
            }
            acc[e] += s;
        }
        s0 = s1;
    }
    *out = acc;
}

/// MR×NR microkernel: two A rows against four packed B columns, segmented.
/// Eight outputs × four lanes = 32 independent chains; B column loads are
/// shared across both rows.
#[inline]
fn mk2x4(a0: &[f32], a1: &[f32], b: [&[f32]; NR], seg: usize, out: &mut [f32; MR * NR]) {
    let k = a0.len();
    let mut acc = [0.0f32; MR * NR];
    let mut s0 = 0;
    while s0 < k {
        let s1 = (s0 + seg).min(k);
        let sa0 = &a0[s0..s1];
        let sa1 = &a1[s0..s1];
        let sb: [&[f32]; NR] = [&b[0][s0..s1], &b[1][s0..s1], &b[2][s0..s1], &b[3][s0..s1]];
        let l = lanes::mk2x4(sa0, sa1, &sb);
        let tail = (sa0.len() / LANES) * LANES;
        for e in 0..MR * NR {
            let sa = if e < NR { sa0 } else { sa1 };
            let sbe = sb[e % NR];
            let mut s = l[e][0] + l[e][1] + l[e][2] + l[e][3];
            for j in tail..sa.len() {
                s += sa[j] * sbe[j];
            }
            acc[e] += s;
        }
        s0 = s1;
    }
    *out = acc;
}

/// Columns per NC panel for reduction depth `k`: as many NR-aligned columns
/// as fit the panel budget, at least one tile.
fn panel_cols(k: usize, n: usize) -> usize {
    let fit = PANEL_F32S / k.max(1);
    (fit - fit % NR).clamp(NR, n.max(NR))
}

/// Blocked serial driver: computes output rows `row0..row0+out.len()/n` of
/// `A (·×k) · Bᵀ` into `out`, with segmented accumulation (see [`dot_seg`]).
///
/// Loop nest: NC column panels outermost (keeps a `nc×k` slab of `bt` hot
/// while all A rows sweep it), then MR row pairs, then NR column quads into
/// the 2×4 microkernel; ragged edges fall back to 1×4 and scalar
/// [`dot_seg`]. The k dimension is never split.
pub fn gemm_bt_rows(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    seg: usize,
    row0: usize,
) {
    if n == 0 || out.is_empty() {
        return;
    }
    let seg = if seg == 0 { k.max(1) } else { seg };
    let rows = out.len() / n;
    let nc = panel_cols(k, n);
    let mut jc = 0;
    while jc < n {
        let jhi = (jc + nc).min(n);
        let mut r = 0;
        while r + MR <= rows {
            let a0 = &a[(row0 + r) * k..(row0 + r + 1) * k];
            let a1 = &a[(row0 + r + 1) * k..(row0 + r + 2) * k];
            let mut j = jc;
            while j + NR <= jhi {
                let b = [
                    &bt[j * k..(j + 1) * k],
                    &bt[(j + 1) * k..(j + 2) * k],
                    &bt[(j + 2) * k..(j + 3) * k],
                    &bt[(j + 3) * k..(j + 4) * k],
                ];
                let mut res = [0.0f32; MR * NR];
                mk2x4(a0, a1, b, seg, &mut res);
                out[r * n + j..r * n + j + NR].copy_from_slice(&res[..NR]);
                out[(r + 1) * n + j..(r + 1) * n + j + NR].copy_from_slice(&res[NR..]);
                j += NR;
            }
            while j < jhi {
                let bj = &bt[j * k..(j + 1) * k];
                out[r * n + j] = dot_seg(a0, bj, seg);
                out[(r + 1) * n + j] = dot_seg(a1, bj, seg);
                j += 1;
            }
            r += MR;
        }
        if r < rows {
            let a0 = &a[(row0 + r) * k..(row0 + r + 1) * k];
            let mut j = jc;
            while j + NR <= jhi {
                let b = [
                    &bt[j * k..(j + 1) * k],
                    &bt[(j + 1) * k..(j + 2) * k],
                    &bt[(j + 2) * k..(j + 3) * k],
                    &bt[(j + 3) * k..(j + 4) * k],
                ];
                let mut res = [0.0f32; NR];
                mk1x4(a0, b, seg, &mut res);
                out[r * n + j..r * n + j + NR].copy_from_slice(&res);
                j += NR;
            }
            while j < jhi {
                out[r * n + j] = dot_seg(a0, &bt[j * k..(j + 1) * k], seg);
                j += 1;
            }
        }
        jc = jhi;
    }
}

/// The retained seed kernel: unblocked row-major sweep, one [`dot_seg`] per
/// element. This is byte-for-byte the pre-blocking serial GEMM (with
/// `seg == k`) and the reference the equivalence proptests and
/// `bench_kernels` measure against.
pub fn gemm_bt_reference(a: &[f32], bt: &[f32], out: &mut [f32], k: usize, n: usize, seg: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let ar = &a[r * k..(r + 1) * k];
        let or = &mut out[r * n..(r + 1) * n];
        for (j, o) in or.iter_mut().enumerate() {
            *o = dot_seg(ar, &bt[j * k..(j + 1) * k], seg);
        }
    }
}

/// Computes output rows `row0..row0+out.len()/n` of `Aᵀ·B` where `a` is
/// `k×m` and `b` is `k×n`, both row-major. The reduction over `t` runs
/// ascending with the zero-skip, so each output element sees the exact
/// per-element accumulation order of the serial kernel at every partition.
pub fn matmul_at_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    row0: usize,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for t in 0..k {
        let ar = &a[t * m..(t + 1) * m];
        let br = &b[t * n..(t + 1) * n];
        for i in 0..rows {
            let av = ar[row0 + i];
            if av != 0.0 {
                let or = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in or.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Whether a kernel of `flops` multiply-accumulates over `rows` partitionable
/// output rows should engage the pool, and with how many workers. Uses the
/// process-shared cached pool — no thread spawns on this path.
pub(crate) fn plan(flops: usize, rows: usize) -> Option<(Pool, usize)> {
    let exec = current_exec();
    if exec.workers < 2 || rows < 2 {
        return None;
    }
    if flops < PARALLEL_FLOP_THRESHOLD && !exec.force_parallel {
        return None;
    }
    let workers = exec.workers.min(rows);
    Some((Pool::cached(workers), rows.div_ceil(workers)))
}

/// Packed, pooled GEMM: `out = A (m×k) · Bᵀ` with `bt` in panel (n×k)
/// layout and segmented accumulation. Partitions output rows across the
/// cached pool above [`PARALLEL_FLOP_THRESHOLD`]; each row chunk runs the
/// same blocked serial driver, so the result is bit-identical at every
/// worker count.
///
/// This is the single funnel for dense products — `matmul`, `matmul_bt`,
/// the affine step of Dense and Conv1d and the GRU step all land here,
/// which is also where the FLOP counters live.
///
/// # Panics
///
/// Panics if slice lengths don't match `m×k` / `n×k` / `m×n`.
pub fn gemm_bt(a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, seg: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_bt lhs len");
    assert_eq!(bt.len(), n * k, "gemm_bt rhs len");
    assert_eq!(out.len(), m * n, "gemm_bt out len");
    pelican_observe::counter_add("tensor.matmul_calls", 1);
    pelican_observe::counter_add("tensor.matmul_flops", 2 * (m * k * n) as u64);
    if m * n == 0 {
        return;
    }
    match plan(m * k * n, m) {
        None => gemm_bt_rows(a, bt, out, k, n, seg, 0),
        Some((pool, chunk_rows)) => {
            pool.scope_chunks(out, chunk_rows * n, |idx, chunk| {
                gemm_bt_rows(a, bt, chunk, k, n, seg, idx * chunk_rows);
            });
        }
    }
}

/// Pooled `Aᵀ·B` into a caller buffer: `a` is `k×m`, `b` is `k×n`, `out` is
/// `m×n` and is *overwritten* (must arrive zeroed — workspace buffers are).
/// Same kernel, partitioning and counters as [`crate::Tensor::matmul_at`].
///
/// # Panics
///
/// Panics if slice lengths don't match `k×m` / `k×n` / `m×n`.
pub fn matmul_at_into(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_at_into lhs len");
    assert_eq!(b.len(), k * n, "matmul_at_into rhs len");
    assert_eq!(out.len(), m * n, "matmul_at_into out len");
    pelican_observe::counter_add("tensor.matmul_calls", 1);
    pelican_observe::counter_add("tensor.matmul_flops", 2 * (m * k * n) as u64);
    if m * n == 0 {
        return;
    }
    match plan(m * k * n, m) {
        None => matmul_at_rows(a, b, out, k, m, n, 0),
        Some((pool, chunk_rows)) => {
            pool.scope_chunks(out, chunk_rows * n, |idx, chunk| {
                matmul_at_rows(a, b, chunk, k, m, n, idx * chunk_rows);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    #[test]
    fn dot_seg_full_matches_unsegmented_reference() {
        for len in [0usize, 1, 3, 4, 7, 8, 12, 31] {
            let a = fill(len, |i| (i as f32).sin());
            let b = fill(len, |i| (i as f32 * 0.3).cos());
            let full = dot_seg(&a, &b, len.max(1));
            assert_eq!(dot_seg(&a, &b, 0), full, "seg=0 normalisation @ {len}");
            assert_eq!(dot_seg(&a, &b, usize::MAX), full, "oversized seg @ {len}");
        }
    }

    #[test]
    fn dot_seg_segments_match_manual_chain() {
        // seg-chained dot must equal running `acc += dot(segment)`.
        let a = fill(12, |i| (i as f32) * 0.7 - 3.0);
        let b = fill(12, |i| (i as f32).cos());
        for seg in [1usize, 2, 3, 4, 5, 12] {
            let mut acc = 0.0f32;
            let mut s0 = 0;
            while s0 < 12 {
                let s1 = (s0 + seg).min(12);
                acc += dot_seg(&a[s0..s1], &b[s0..s1], seg);
                s0 = s1;
            }
            assert_eq!(dot_seg(&a, &b, seg), acc, "seg {seg}");
        }
    }

    #[test]
    fn dot_seg_never_returns_negative_zero() {
        // The bridge lemma behind the fused kernels: all-cancelling and
        // all-zero inputs still come out +0.0.
        let cases: [(&[f32], &[f32]); 4] = [
            (&[0.0; 8], &[-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0]),
            (&[1.0, -1.0, 2.0, -2.0, 5.0], &[3.0, 3.0, 1.0, 1.0, 0.0]),
            (&[-0.0, -0.0, -0.0], &[1.0, 2.0, 3.0]),
            (&[], &[]),
        ];
        for (a, b) in cases {
            for seg in [1usize, 2, 4, 8] {
                let r = dot_seg(a, b, seg);
                assert_eq!(r, 0.0);
                assert!(r.is_sign_positive(), "-0.0 leaked at seg {seg}");
            }
        }
    }

    #[test]
    fn pack_transpose_round_trips() {
        for (r, c) in [(1usize, 1usize), (3, 5), (33, 40), (64, 31)] {
            let src = fill(r * c, |i| i as f32);
            let mut dst = vec![0.0f32; r * c];
            pack_transpose(&src, r, c, &mut dst);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(dst[j * r + i], src[i * c + j]);
                }
            }
        }
    }

    #[test]
    fn blocked_matches_reference_across_shapes_and_segments() {
        for &(m, k, n) in &[
            (1usize, 0usize, 1usize),
            (1, 1, 1),
            (2, 4, 4),
            (3, 5, 7),
            (5, 8, 4),
            (7, 12, 9),
            (16, 33, 17),
            (2, 121, 121),
        ] {
            let a = fill(m * k, |i| ((i * 37 % 23) as f32 - 11.0) * 0.17);
            let bt = fill(n * k, |i| ((i * 29 % 19) as f32 - 9.0) * 0.23);
            for seg in [1usize, 2, 3, 4, k.max(1)] {
                let mut want = vec![0.0f32; m * n];
                gemm_bt_reference(&a, &bt, &mut want, k, n, seg);
                let mut got = vec![0.0f32; m * n];
                gemm_bt_rows(&a, &bt, &mut got, k, n, seg, 0);
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "m={m} k={k} n={n} seg={seg}");
            }
        }
    }

    #[test]
    fn row0_offset_addresses_the_right_rows() {
        let (m, k, n) = (5usize, 6usize, 3usize);
        let a = fill(m * k, |i| (i as f32).sin());
        let bt = fill(n * k, |i| (i as f32).cos());
        let mut full = vec![0.0f32; m * n];
        gemm_bt_rows(&a, &bt, &mut full, k, n, k, 0);
        let mut tail = vec![0.0f32; 2 * n];
        gemm_bt_rows(&a, &bt, &mut tail, k, n, k, 3);
        assert_eq!(&full[3 * n..], &tail[..]);
    }
}
