//! Cache-blocked, panel-packed matrix-multiplication kernels.
//!
//! This module implements the GEBP (general block-times-panel) decomposition
//! used by high-performance BLAS libraries, specialised to row-major `f32`:
//!
//! * the operand matrices are processed in `MC × KC` blocks of `A` and
//!   `KC × NC` panels of `B`, sized so the packed `A` block lives in L2 and
//!   the packed `B` panel streams through L3,
//! * both operands are **packed** into contiguous micro-tile layouts
//!   (`MR`-row tiles of `A`, `NR`-column tiles of `B`) so the inner loop reads
//!   memory strictly sequentially regardless of the logical layout
//!   (normal, transposed-A or transposed-B),
//! * the micro-kernel keeps an `MR × NR` accumulator block entirely in
//!   registers, turning the classic axpy-style inner loop (2 memory ops per
//!   FMA) into register-resident FMAs (2 loads per `MR × NR` tile update).
//!
//! The same packed micro-kernel serves `A·B`, `Aᵀ·B` and `A·Bᵀ`; only the
//! pack routines differ, so the transposed variants no longer materialise a
//! transposed copy (and no variant special-cases zero elements — `0 · NaN`
//! must stay `NaN`, which the old scalar kernel got wrong).
//!
//! Products up to `DIRECT_THRESHOLD` multiply-adds skip packing and run an
//! unpacked **direct kernel**. Its numeric contract: every output element is
//! one FMA chain over `p = 0..k`, in order, starting from `0.0` (or from the
//! existing output value when accumulating). The `Nn` arm register-blocks
//! output tiles of up to `2·MR × NR`, but blocking only changes which
//! elements are in flight together, never the chain of any one element — so
//! an element's
//! bits are independent of `n` and of its column's position. That is what
//! lets [`matmul_nn_grouped`] lay several convolution samples side by side
//! in one product and still match per-sample products bit for bit.
//!
//! Large products are additionally split row-wise across scoped threads; each
//! thread runs the full blocked loop nest over its row range with its own
//! pack buffers, so no synchronisation is needed beyond the final join.
//! Callers that parallelise at a coarser level (e.g. trial-parallel fault
//! campaigns) wrap their per-worker code in [`serial_scope`] so the kernel
//! does not oversubscribe the machine with nested thread fan-out.
//!
//! Pack buffers are cached in thread-local storage: repeated multiplications
//! from the same long-lived thread — the single-thread path that
//! convolution/linear layers and `serial_scope` workers hit — perform
//! **zero heap allocations** after warm-up. The row-parallel path spawns
//! fresh scoped threads per call, so its workers pack into newly allocated
//! buffers each time; that cost is amortised by the `PARALLEL_THRESHOLD`-sized
//! work it fans out over.

use std::cell::{Cell, RefCell};

/// Rows per micro-tile of `A` (accumulator height).
pub const MR: usize = 4;
/// Columns per micro-tile of `B` (accumulator width; two AVX2 vectors).
pub const NR: usize = 16;
/// Rows of `A` packed per block (sized for L2 residency: `MC·KC` floats).
const MC: usize = 64;
/// Shared-dimension depth packed per block (sized for L1-friendly tiles).
const KC: usize = 256;
/// Columns of `B` packed per panel (sized so the panel streams through L3).
const NC: usize = 512;

/// Minimum `m·k·n` before the kernel spreads row-blocks across threads.
///
/// Lower than the old scalar kernel's `1 << 20`: the packed micro-kernel
/// saturates a core's FMA pipes, so the per-thread fixed cost is amortised
/// sooner.
const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Maximum `m·k·n` handled by the unpacked direct kernel (≈ 64³: below this
/// the operands sit in L1/L2 anyway and packing is pure overhead).
const DIRECT_THRESHOLD: usize = 1 << 18;

/// Target width of a [`matmul_nn_grouped`] product: sixteen `NR`-column
/// tiles, wide enough that each `k × NR` strip of `B` is reused across every
/// row tile of `A`, small enough that the strip set stays cache-resident.
const GROUP_COLUMNS: usize = 16 * NR;

/// Operand layout of a product `C[m,n] = op(A) · op(B)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `A[m,k] · B[k,n]`.
    Nn,
    /// `A[k,m]ᵀ · B[k,n]` (transposed left operand, not materialised).
    Tn,
    /// `A[m,k] · B[n,k]ᵀ` (transposed right operand, not materialised).
    Nt,
}

thread_local! {
    /// Per-thread pack buffers: `(packed A block, packed B panel)`, which
    /// the direct kernel borrows for its zero-padded `(out, B)` edge strips.
    ///
    /// Reused across calls so steady-state multiplications allocate nothing.
    static PACK_BUFFERS: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };

    /// When set, [`matmul_into`] never spawns threads on this thread.
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the kernel's internal row-parallelism disabled on this
/// thread.
///
/// Use this inside worker threads of a coarser parallel decomposition (one
/// worker per core already exists, so nested matmul fan-out would
/// oversubscribe the machine to ~cores² threads). Results are unaffected —
/// the threaded split is bit-identical to the serial loop — only the
/// scheduling changes. The flag is thread-local and restored on exit, so
/// nesting and panics are safe.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|flag| flag.set(self.0));
        }
    }
    let _reset = Reset(FORCE_SERIAL.with(|flag| flag.replace(true)));
    f()
}

/// Whether a [`serial_scope`] on this thread currently disables kernel
/// thread fan-out (shared with the reduced-precision kernels in
/// [`crate::simd`]).
pub(crate) fn serial_forced() -> bool {
    FORCE_SERIAL.with(Cell::get)
}

/// Computes `out[m,n] = op(a) · op(b)` (or `out += …` when `accumulate`).
///
/// Slice lengths must match the layout: `a` is `m·k` elements (`k·m` for
/// [`Layout::Tn`]), `b` is `k·n` (`n·k` for [`Layout::Nt`]) and `out` is
/// `m·n`. All slices are dense row-major.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions (the `Tensor`
/// wrappers validate shapes and report typed errors instead).
#[allow(clippy::too_many_arguments)]
pub fn matmul_into(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(out.len(), m * n, "out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    // Small products: packing overhead outweighs the cache benefit (the
    // whole working set already fits in L1/L2), so run an unpacked
    // vectorised loop instead. `Nt` always packs — its inner dimension is a
    // strided gather that defeats autovectorisation without packing.
    if m * n * k <= DIRECT_THRESHOLD && layout != Layout::Nt {
        direct_kernel(layout, a, b, out, m, k, n, accumulate);
        return;
    }
    let threads = if m * n * k >= PARALLEL_THRESHOLD && !FORCE_SERIAL.with(Cell::get) {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(m)
    } else {
        1
    };
    if threads <= 1 {
        gebp(layout, a, b, out, 0, m, k, n, accumulate);
        return;
    }
    // Partition rows into contiguous chunks, one scoped thread per chunk.
    // Each thread writes a disjoint slice of `out`, so the split is the only
    // synchronisation needed.
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut remaining = out;
        let mut row_start = 0usize;
        while row_start < m {
            let rows = rows_per.min(m - row_start);
            let (chunk, rest) = remaining.split_at_mut(rows * n);
            remaining = rest;
            let start = row_start;
            scope.spawn(move || {
                gebp(layout, a, b, chunk, start, rows, k, n, accumulate);
            });
            row_start += rows;
        }
    });
}

/// How many `n`-column products sharing one `[m, k]` left operand
/// [`matmul_nn_grouped`] should lay side by side: enough to fill about
/// `GROUP_COLUMNS` columns, or 1 when a single product is already large
/// enough for the packed kernel.
pub fn nn_group_len(m: usize, k: usize, n: usize) -> usize {
    if m * k * n > DIRECT_THRESHOLD {
        1
    } else {
        (GROUP_COLUMNS / n.max(1)).max(1)
    }
}

/// Computes `groups` products sharing the left operand in one call:
/// `out[m, groups·n] = a[m, k] · b[k, groups·n]`, where column block `g` of
/// `b` (columns `g·n .. (g+1)·n`) is one product's right operand and the
/// same block of `out` its result.
///
/// Contract: every output block is **bit-identical** to
/// `matmul_into(Layout::Nn, a, b_g, out_g, m, k, n, false)` on that block
/// alone. The kernel is chosen from the per-product size `m·k·n`, never from
/// the grouped width, and both kernels compute each element independently
/// of the column count, so grouping changes scheduling, not numerics.
/// Convolution uses this to multiply [`nn_group_len`] samples at once.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_nn_grouped(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    groups: usize,
) {
    let width = groups * n;
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * width, "rhs length");
    assert_eq!(out.len(), m * width, "out length");
    if m * k * n <= DIRECT_THRESHOLD {
        direct_kernel(Layout::Nn, a, b, out, m, k, width, false);
    } else {
        // Every per-product call would pack too; the packed kernel's
        // per-element sums depend only on `k`.
        matmul_into(Layout::Nn, a, b, out, m, k, width, false);
    }
}

/// Unpacked kernel for small products: a register-blocked tile loop (`Nn`)
/// or an axpy-style depth loop (`Tn`) whose inner updates autovectorise,
/// with no zero-skip branch and no packing traffic. Either way each output
/// element is one in-order FMA chain over the shared dimension (see the
/// module docs).
#[allow(clippy::too_many_arguments)]
fn direct_kernel(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if !accumulate {
        out.fill(0.0);
    }
    match layout {
        Layout::Nn => {
            let tiled_n = n - n % NR;
            for j0 in (0..tiled_n).step_by(NR) {
                nn_strip(a, &b[j0..], n, &mut out[j0..], n, m, k);
            }
            if tiled_n < n {
                // The ragged right edge (fewer than NR columns): copy its
                // strips of B and `out`, zero-padded to NR columns, run them
                // through the same tiles and copy the real columns back.
                let cols = n - tiled_n;
                PACK_BUFFERS.with(|cell| {
                    let (out_strip, b_strip) = &mut *cell.borrow_mut();
                    pad_strip(b, k, n, tiled_n, b_strip);
                    pad_strip(out, m, n, tiled_n, out_strip);
                    nn_strip(a, b_strip, NR, out_strip, NR, m, k);
                    for (dst, src) in out.chunks_exact_mut(n).zip(out_strip.chunks_exact(NR)) {
                        dst[tiled_n..].copy_from_slice(&src[..cols]);
                    }
                });
            }
        }
        Layout::Tn => {
            // A is [k, m]: walk the shared dimension outermost so both A and
            // B rows are read contiguously.
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &av) in a_row.iter().enumerate() {
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
        }
        Layout::Nt => unreachable!("Nt always takes the packed path"),
    }
}

/// Copies columns `j0..` (fewer than `NR`) of the row-major `[rows, n]`
/// matrix `src` into `strip` as a `[rows, NR]` matrix, zero-padded.
fn pad_strip(src: &[f32], rows: usize, n: usize, j0: usize, strip: &mut Vec<f32>) {
    strip.resize(rows * NR, 0.0);
    for (dst, row) in strip.chunks_exact_mut(NR).zip(src.chunks_exact(n)) {
        let (head, tail) = dst.split_at_mut(n - j0);
        head.copy_from_slice(&row[j0..]);
        tail.fill(0.0);
    }
}

/// Multiplies `a[m, k]` by one `NR`-column strip of B (`b` starts at the
/// strip's first column, rows `ldb` apart) into the matching strip of `out`
/// (rows `ldo` apart), in register tiles of `2·MR` rows, then `MR`, then 1.
///
/// A `2·MR × NR` tile is sixteen 256-bit accumulators: enough independent
/// FMA chains to cover the FMA latency on both pipes, and within the 32
/// vector registers of AVX-512.
#[inline(always)]
fn nn_strip(a: &[f32], b: &[f32], ldb: usize, out: &mut [f32], ldo: usize, m: usize, k: usize) {
    let mut i0 = 0;
    while i0 + 2 * MR <= m {
        nn_tile::<{ 2 * MR }>(&a[i0 * k..], b, ldb, &mut out[i0 * ldo..], ldo, k);
        i0 += 2 * MR;
    }
    if i0 + MR <= m {
        nn_tile::<MR>(&a[i0 * k..], b, ldb, &mut out[i0 * ldo..], ldo, k);
        i0 += MR;
    }
    for i in i0..m {
        nn_tile::<1>(&a[i * k..], b, ldb, &mut out[i * ldo..], ldo, k);
    }
}

/// One `R × NR` tile of the direct `Nn` kernel: the accumulators start from
/// `out`, stay in registers while `p` walks `0..k`, and are written back
/// once.
#[inline(always)]
fn nn_tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    k: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc: [[f32; NR]; R] = std::array::from_fn(|r| {
        out[r * ldo..r * ldo + NR]
            .try_into()
            .expect("NR-wide strip")
    });
    for p in 0..k {
        let b_vec: &[f32; NR] = b[p * ldb..p * ldb + NR].try_into().expect("NR-wide strip");
        for (row, a_row) in acc.iter_mut().zip(&a_rows) {
            let av = a_row[p];
            for (o, &bv) in row.iter_mut().zip(b_vec) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * ldo..r * ldo + NR].copy_from_slice(row);
    }
}

/// Blocked loop nest over the row range `[row_start, row_start + rows)`,
/// writing into `out` indexed from `row_start` (i.e. `out` holds `rows · n`
/// elements).
#[allow(clippy::too_many_arguments)]
fn gebp(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row_start: usize,
    rows: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    // Logical row count of op(A): a.len() is m·k for every layout.
    let m_total = a.len() / k;
    debug_assert!(row_start + rows <= m_total);
    PACK_BUFFERS.with(|cell| {
        let (apack, bpack) = &mut *cell.borrow_mut();
        apack.resize(MC.next_multiple_of(MR) * KC, 0.0);
        bpack.resize(KC * NC.next_multiple_of(NR), 0.0);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            let j_tiles = nc.div_ceil(NR);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(layout, b, bpack, pc, kc, jc, nc, k, n);
                let first_panel = pc == 0 && !accumulate;
                for ic in (0..rows).step_by(MC) {
                    let mc = MC.min(rows - ic);
                    let i_tiles = mc.div_ceil(MR);
                    pack_a(layout, a, apack, row_start + ic, mc, pc, kc, m_total, k);
                    for jt in 0..j_tiles {
                        let bp = &bpack[jt * kc * NR..(jt + 1) * kc * NR];
                        for it in 0..i_tiles {
                            let ap = &apack[it * kc * MR..(it + 1) * kc * MR];
                            let mut acc = [[0.0f32; NR]; MR];
                            microkernel(ap, bp, kc, &mut acc);
                            store_tile(
                                out,
                                &acc,
                                ic + it * MR,
                                jc + jt * NR,
                                mc.min(it * MR + MR) - it * MR,
                                nc.min(jt * NR + NR) - jt * NR,
                                n,
                                first_panel,
                            );
                        }
                    }
                }
            }
        }
    });
}

/// Packs the `mc × kc` block of `op(A)` starting at logical row `i0`, depth
/// `pc`, into `MR`-row micro-tiles: `apack[tile][p][r] = A[i0 + tile·MR + r][pc + p]`.
/// Rows beyond `mc` are zero-filled so the micro-kernel never branches.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    layout: Layout,
    a: &[f32],
    apack: &mut [f32],
    i0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    m: usize,
    k: usize,
) {
    let tiles = mc.div_ceil(MR);
    for tile in 0..tiles {
        let base = tile * kc * MR;
        for p in 0..kc {
            for r in 0..MR {
                let i = i0 + tile * MR + r;
                apack[base + p * MR + r] = if tile * MR + r < mc {
                    match layout {
                        // A is [m, k] row-major.
                        Layout::Nn | Layout::Nt => a[i * k + pc + p],
                        // A is [k, m] row-major, read transposed.
                        Layout::Tn => {
                            debug_assert!(i < m);
                            a[(pc + p) * m + i]
                        }
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the `kc × nc` panel of `op(B)` starting at depth `pc`, column `jc`,
/// into `NR`-column micro-tiles: `bpack[tile][p][c] = B[pc + p][jc + tile·NR + c]`.
/// Columns beyond `nc` are zero-filled.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    layout: Layout,
    b: &[f32],
    bpack: &mut [f32],
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    k: usize,
    n: usize,
) {
    let tiles = nc.div_ceil(NR);
    for tile in 0..tiles {
        let base = tile * kc * NR;
        match layout {
            // B is [k, n] row-major: copy NR-wide row segments.
            Layout::Nn | Layout::Tn => {
                let j = jc + tile * NR;
                let width = NR.min(nc - tile * NR);
                for p in 0..kc {
                    let src = (pc + p) * n + j;
                    let dst = base + p * NR;
                    bpack[dst..dst + width].copy_from_slice(&b[src..src + width]);
                    bpack[dst + width..dst + NR].fill(0.0);
                }
            }
            // B is [n, k] row-major, read transposed: gather down columns.
            Layout::Nt => {
                for c in 0..NR {
                    let j = jc + tile * NR + c;
                    if tile * NR + c < nc {
                        for p in 0..kc {
                            bpack[base + p * NR + c] = b[j * k + pc + p];
                        }
                    } else {
                        for p in 0..kc {
                            bpack[base + p * NR + c] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Register-blocked inner kernel: `acc[MR][NR] += apᵀ · bp` over `kc` steps of
/// contiguous packed panels. The constant-bound loops fully unroll; each of
/// the `MR` accumulator rows is a register-resident `NR`-wide FMA update.
#[inline]
fn microkernel(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let (a_tiles, _) = ap.as_chunks::<MR>();
    let (b_tiles, _) = bp.as_chunks::<NR>();
    let a_tiles = &a_tiles[..kc];
    let b_tiles = &b_tiles[..kc];
    // Two k-interleaved accumulator sets double the number of independent
    // FMA dependency chains (2·MR per column vector), hiding FMA latency that
    // a single MR-row set cannot. Each set is small enough (MR·NR floats)
    // for the optimiser to keep fully in registers.
    let mut even = [[0.0f32; NR]; MR];
    let mut odd = [[0.0f32; NR]; MR];
    let mut pairs_a = a_tiles.chunks_exact(2);
    let mut pairs_b = b_tiles.chunks_exact(2);
    for (a2, b2) in (&mut pairs_a).zip(&mut pairs_b) {
        for r in 0..MR {
            let (a0, a1) = (a2[0][r], a2[1][r]);
            for c in 0..NR {
                even[r][c] = a0.mul_add(b2[0][c], even[r][c]);
            }
            for c in 0..NR {
                odd[r][c] = a1.mul_add(b2[1][c], odd[r][c]);
            }
        }
    }
    if let ([a], [b]) = (pairs_a.remainder(), pairs_b.remainder()) {
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                even[r][c] = ar.mul_add(b[c], even[r][c]);
            }
        }
    }
    for r in 0..MR {
        for c in 0..NR {
            acc[r][c] += even[r][c] + odd[r][c];
        }
    }
}

/// Writes (or adds) the valid `rows × cols` region of an accumulator tile to
/// `out` at `(i0, j0)`; `first_panel` selects store vs accumulate semantics
/// across `KC` blocks.
#[allow(clippy::too_many_arguments)]
fn store_tile(
    out: &mut [f32],
    acc: &[[f32; NR]; MR],
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    n: usize,
    first_panel: bool,
) {
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        let dst = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + cols];
        if first_panel {
            dst.copy_from_slice(&acc_row[..cols]);
        } else {
            for (d, &v) in dst.iter_mut().zip(acc_row.iter()) {
                *d += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar three-loop reference (no blocking, no zero-skipping).
    fn naive(layout: Layout, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    let av = match layout {
                        Layout::Nn | Layout::Nt => a[i * k + p],
                        Layout::Tn => a[p * m + i],
                    };
                    let bv = match layout {
                        Layout::Nn | Layout::Tn => b[p * n + j],
                        Layout::Nt => b[j * k + p],
                    };
                    s += av * bv;
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    }

    fn check_all_layouts(m: usize, k: usize, n: usize) {
        for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let expected = naive(layout, &a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul_into(layout, &a, &b, &mut got, m, k, n, false);
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert!(
                    (g - e).abs() <= 1e-4 * (1.0 + e.abs()),
                    "{layout:?} {m}x{k}x{n} idx {i}: got {g}, expected {e}"
                );
            }
        }
    }

    #[test]
    fn parity_with_naive_across_odd_shapes() {
        // 1×1, degenerate k, primes, tile-boundary and beyond-one-block sizes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (1, 64, 1),
            (64, 1, 64),
            (4, 16, 16),
            (5, 17, 19),
            (64, 64, 64),
            (65, 257, 63),
            (31, 300, 47),
        ] {
            check_all_layouts(m, k, n);
        }
    }

    #[test]
    fn accumulate_adds_to_existing_output() {
        let (m, k, n) = (5, 9, 7);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let expected: Vec<f32> = naive(Layout::Nn, &a, &b, m, k, n)
            .iter()
            .map(|v| v + 1.0)
            .collect();
        let mut out = vec![1.0f32; m * n];
        matmul_into(Layout::Nn, &a, &b, &mut out, m, k, n, true);
        for (g, e) in out.iter().zip(&expected) {
            assert!((g - e).abs() <= 1e-4, "got {g}, expected {e}");
        }
    }

    #[test]
    fn zero_times_nan_is_nan() {
        // The old scalar kernel skipped a == 0.0 entries, silently dropping
        // NaN/Inf coming from the right operand. 0 · NaN must be NaN.
        let a = vec![0.0f32, 1.0];
        let b = vec![f32::NAN, 2.0];
        let mut out = vec![0.0f32; 1];
        matmul_into(Layout::Nn, &a, &b, &mut out, 1, 2, 1, false);
        assert!(out[0].is_nan(), "0·NaN + 1·2 must be NaN, got {}", out[0]);
    }

    #[test]
    fn parallel_path_matches_single_thread() {
        // Big enough to cross PARALLEL_THRESHOLD.
        let (m, k, n) = (128, 96, 128);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut parallel = vec![0.0f32; m * n];
        matmul_into(Layout::Nn, &a, &b, &mut parallel, m, k, n, false);
        let mut serial = vec![0.0f32; m * n];
        gebp(Layout::Nn, &a, &b, &mut serial, 0, m, k, n, false);
        assert_eq!(parallel, serial, "threaded split must be bit-identical");
    }

    /// Serving bit-identity foundation: in the packed kernel, one output
    /// row's arithmetic depends only on that row of `op(A)` and on `B` —
    /// never on how many other rows share the product. `Nt` (the layout
    /// `Linear::forward` uses, and the only batch-shaped matmul in an
    /// eval-mode forward pass) always takes the packed path, so a sample's
    /// logits are bit-identical whether it is evaluated alone or inside any
    /// micro-batch. `fitact_serve` builds its guarantee on this; the
    /// `forward_is_batch_invariant` suite in `fitact_nn` pins the
    /// layer-level consequence.
    #[test]
    fn nt_rows_are_independent_of_row_count() {
        // Odd sizes, spanning multiple KC blocks (k > 256) and NR tiles.
        let (k, n) = (300, 47);
        let b = fill(n * k, 11); // B is [n, k], read transposed.
        for m in [2usize, 3, 8, 33] {
            let a = fill(m * k, 12);
            let mut batched = vec![0.0f32; m * n];
            matmul_into(Layout::Nt, &a, &b, &mut batched, m, k, n, false);
            for i in 0..m {
                let mut single = vec![0.0f32; n];
                matmul_into(
                    Layout::Nt,
                    &a[i * k..(i + 1) * k],
                    &b,
                    &mut single,
                    1,
                    k,
                    n,
                    false,
                );
                assert_eq!(
                    &batched[i * n..(i + 1) * n],
                    &single[..],
                    "m={m} row {i} must be bit-identical to the single-row product"
                );
            }
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The direct `Nn` kernel's register tiles (8-, 4- and 1-row tiles,
    /// full and zero-padded ragged column strips) run exactly the chains of
    /// a plain axpy row loop: one in-order FMA chain per element from its
    /// initial value.
    #[test]
    fn direct_nn_tiles_match_axpy_chains_bit_for_bit() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (8, 9, 16),
            (13, 31, 37),
            (9, 300, 20),
            (17, 5, 3),
            (16, 64, 64),
        ] {
            let a = fill(m * k, 21);
            let b = fill(k * n, 22);
            for accumulate in [false, true] {
                let mut expected = if accumulate {
                    fill(m * n, 23)
                } else {
                    vec![0.0; m * n]
                };
                let mut got = fill(m * n, 23);
                for i in 0..m {
                    for p in 0..k {
                        for j in 0..n {
                            expected[i * n + j] =
                                a[i * k + p].mul_add(b[p * n + j], expected[i * n + j]);
                        }
                    }
                }
                direct_kernel(Layout::Nn, &a, &b, &mut got, m, k, n, accumulate);
                assert_eq!(
                    bits(&got),
                    bits(&expected),
                    "{m}x{k}x{n} accumulate={accumulate}"
                );
            }
        }
    }

    /// `matmul_nn_grouped` equals per-sample `matmul_into(Layout::Nn, …)`
    /// bit for bit, for per-sample products just under, at and just over
    /// `DIRECT_THRESHOLD`, with row counts off the tile height, group widths
    /// off the tile width and a ragged last group — both at the width
    /// `nn_group_len` picks and with every sample in one call.
    #[test]
    fn grouped_products_match_per_sample_products_bit_for_bit() {
        // (m, k, n, samples, per-sample product vs DIRECT_THRESHOLD)
        for &(m, k, n, samples, side) in &[
            (13, 100, 20, 30, std::cmp::Ordering::Less),
            (27, 269, 36, 17, std::cmp::Ordering::Less),
            (2, 16384, 8, 35, std::cmp::Ordering::Equal),
            (27, 270, 36, 5, std::cmp::Ordering::Greater),
        ] {
            assert_eq!((m * k * n).cmp(&DIRECT_THRESHOLD), side, "{m}x{k}x{n}");
            let a = fill(m * k, 31);
            let inputs: Vec<Vec<f32>> = (0..samples).map(|s| fill(k * n, 40 + s as u32)).collect();
            let per_sample: Vec<Vec<f32>> = inputs
                .iter()
                .map(|b| {
                    let mut out = vec![0.0f32; m * n];
                    matmul_into(Layout::Nn, &a, b, &mut out, m, k, n, false);
                    out
                })
                .collect();
            for group in [nn_group_len(m, k, n), samples] {
                for first in (0..samples).step_by(group) {
                    let g = group.min(samples - first);
                    let width = g * n;
                    let mut b = vec![0.0f32; k * width];
                    for (s, input) in inputs[first..first + g].iter().enumerate() {
                        for p in 0..k {
                            b[p * width + s * n..p * width + (s + 1) * n]
                                .copy_from_slice(&input[p * n..(p + 1) * n]);
                        }
                    }
                    let mut out = vec![f32::NAN; m * width];
                    matmul_nn_grouped(&a, &b, &mut out, m, k, n, g);
                    for (s, expected) in per_sample[first..first + g].iter().enumerate() {
                        for i in 0..m {
                            assert_eq!(
                                bits(&out[i * width + s * n..i * width + (s + 1) * n]),
                                bits(&expected[i * n..(i + 1) * n]),
                                "{m}x{k}x{n}, group {g} from sample {first}: sample {s} row {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn group_len_fills_the_group_width_below_the_threshold_only() {
        assert_eq!(nn_group_len(32, 288, 4), GROUP_COLUMNS / 4);
        assert_eq!(nn_group_len(32, 288, 16), GROUP_COLUMNS / 16);
        assert_eq!(nn_group_len(4, 27, 1024), 1);
        assert_eq!(nn_group_len(27, 270, 36), 1);
    }

    #[test]
    fn empty_dims_are_handled() {
        let mut out = vec![7.0f32; 4];
        matmul_into(Layout::Nn, &[], &[], &mut out, 2, 0, 2, false);
        assert_eq!(out, vec![0.0; 4]);
        let mut out = vec![7.0f32; 4];
        matmul_into(Layout::Nn, &[], &[], &mut out, 2, 0, 2, true);
        assert_eq!(out, vec![7.0; 4]);
        matmul_into(Layout::Nn, &[], &[], &mut [], 0, 3, 0, false);
    }
}
