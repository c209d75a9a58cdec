//! Explicit-SIMD reduced-precision inference kernels with a bit-identical
//! scalar fallback.
//!
//! Every kernel here exists in two legs:
//!
//! * an **AVX2 + FMA + F16C** leg using explicit `std::arch` intrinsics,
//! * a **scalar** leg that mirrors the SIMD leg's arithmetic exactly — same
//!   lane structure, same fused multiply-adds, same reduction tree, same
//!   conversion semantics (via [`crate::half`]).
//!
//! The legs are **bit-identical by construction**: a dot product accumulates
//! into eight lanes in chunk order, reduces them in a fixed tree
//! (`(l₀+l₄)+(l₂+l₆)` then `(l₁+l₅)+(l₃+l₇)`, summed last), and folds the
//! `k mod 8` tail in with sequential scalar FMAs. The scalar leg performs
//! the same operations on the same values in the same order, so IEEE 754
//! determinism gives equal bits. The `scalar==SIMD` identity suite pins this
//! on hardware, and CI runs the whole test suite in both legs
//! (`FITACT_FORCE_SCALAR=1` force-disables dispatch).
//!
//! Runtime dispatch: [`simd_active`] caches x86-64 feature detection
//! (`avx2`, `fma`, `f16c`) and honours the `FITACT_FORCE_SCALAR`
//! environment variable (any value other than empty or `0` forces the
//! scalar leg). Non-x86-64 builds compile the scalar leg only.
//!
//! Large half-precision products split their *output-channel* range across
//! scoped threads (each thread streams a disjoint slice of the weight
//! words, which is what makes the bandwidth-bound serving case scale);
//! [`crate::matmul::serial_scope`] disables the fan-out exactly as it does
//! for the f32 kernel. Results are bit-identical either way — every output
//! element's arithmetic depends only on its own row/channel pair.

use crate::half::f16_to_f32;
use std::sync::OnceLock;

/// Minimum `m·k·n` before a reduced-precision product fans out threads.
const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Whether this build/host supports the AVX2+FMA+F16C kernel leg.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("f16c")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `FITACT_FORCE_SCALAR` pins this process to the scalar leg.
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("FITACT_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Which leg the dispatched kernels will take in this process.
pub fn simd_active() -> bool {
    simd_available() && !force_scalar()
}

/// Name of the active leg, for logs and reports.
pub fn backend_name() -> &'static str {
    if simd_active() {
        "avx2+fma+f16c"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// The shared lane algorithm (scalar leg).
// ---------------------------------------------------------------------------

/// Reduces eight accumulator lanes in the fixed tree both legs share.
#[inline]
fn reduce8(l: [f32; 8]) -> f32 {
    let p0 = l[0] + l[4];
    let p1 = l[1] + l[5];
    let p2 = l[2] + l[6];
    let p3 = l[3] + l[7];
    (p0 + p2) + (p1 + p3)
}

/// Scalar dot product of one f32 row with one f16 weight row.
#[inline]
fn dot_f16_scalar(x: &[f32], w: &[u16]) -> f32 {
    let k = x.len();
    debug_assert_eq!(w.len(), k);
    let k8 = k & !7;
    let mut lanes = [0.0f32; 8];
    let mut i = 0;
    while i < k8 {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = x[i + j].mul_add(f16_to_f32(w[i + j]), *lane);
        }
        i += 8;
    }
    let mut sum = reduce8(lanes);
    for t in k8..k {
        sum = x[t].mul_add(f16_to_f32(w[t]), sum);
    }
    sum
}

/// Scalar dot product of one f32 row with one dequantised int8 weight row.
#[inline]
fn dot_i8_scalar(x: &[f32], q: &[i8], scale: f32, zp: i32) -> f32 {
    let k = x.len();
    debug_assert_eq!(q.len(), k);
    let k8 = k & !7;
    let mut lanes = [0.0f32; 8];
    let mut i = 0;
    while i < k8 {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let wv = (i32::from(q[i + j]) - zp) as f32 * scale;
            *lane = x[i + j].mul_add(wv, *lane);
        }
        i += 8;
    }
    let mut sum = reduce8(lanes);
    for t in k8..k {
        let wv = (i32::from(q[t]) - zp) as f32 * scale;
        sum = x[t].mul_add(wv, sum);
    }
    sum
}

// ---------------------------------------------------------------------------
// AVX2 + FMA + F16C leg.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::*;
    use std::arch::x86_64::*;

    /// Reduces a 256-bit accumulator with the tree [`super::reduce8`] uses.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn reduce256(acc: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let p = _mm_add_ps(lo, hi); // (l0+l4, l1+l5, l2+l6, l3+l7)
        let q = _mm_add_ps(p, _mm_movehl_ps(p, p)); // (p0+p2, p1+p3, ..)
        let s = _mm_add_ss(q, _mm_shuffle_ps(q, q, 1)); // (p0+p2)+(p1+p3)
        _mm_cvtss_f32(s)
    }

    /// Four simultaneous f16 dot products against one shared `x` row.
    ///
    /// Each output's accumulation chain is exactly [`dot_f16_scalar`]'s;
    /// running four chains concurrently only adds instruction-level
    /// parallelism.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA+F16C support; `x` and each of the
    /// four weight rows must be `k` elements long.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn dot4_f16(x: &[f32], w: [&[u16]; 4], k: usize) -> [f32; 4] {
        let k8 = k & !7;
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i < k8 {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            for r in 0..4 {
                let wv = _mm256_cvtph_ps(_mm_loadu_si128(w[r].as_ptr().add(i).cast()));
                acc[r] = _mm256_fmadd_ps(xv, wv, acc[r]);
            }
            i += 8;
        }
        let mut out = [0.0f32; 4];
        for r in 0..4 {
            let mut sum = reduce256(acc[r]);
            for (&xv, &wv) in x[k8..k].iter().zip(&w[r][k8..k]) {
                sum = xv.mul_add(f16_to_f32(wv), sum);
            }
            out[r] = sum;
        }
        out
    }

    /// Single f16 dot product (remainder rows).
    ///
    /// # Safety
    ///
    /// As for [`dot4_f16`].
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn dot1_f16(x: &[f32], w: &[u16], k: usize) -> f32 {
        let k8 = k & !7;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < k8 {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let wv = _mm256_cvtph_ps(_mm_loadu_si128(w.as_ptr().add(i).cast()));
            acc = _mm256_fmadd_ps(xv, wv, acc);
            i += 8;
        }
        let mut sum = reduce256(acc);
        for (&xv, &wv) in x[k8..k].iter().zip(&w[k8..k]) {
            sum = xv.mul_add(f16_to_f32(wv), sum);
        }
        sum
    }

    /// Single int8 dot product with affine dequantisation.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `x` and `q` must be `k`
    /// elements long.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot1_i8(x: &[f32], q: &[i8], scale: f32, zp: i32, k: usize) -> f32 {
        let k8 = k & !7;
        let scale_v = _mm256_set1_ps(scale);
        let zp_v = _mm256_set1_epi32(zp);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < k8 {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let qv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(q.as_ptr().add(i).cast()));
            let dv = _mm256_cvtepi32_ps(_mm256_sub_epi32(qv, zp_v));
            let wv = _mm256_mul_ps(dv, scale_v);
            acc = _mm256_fmadd_ps(xv, wv, acc);
            i += 8;
        }
        let mut sum = reduce256(acc);
        for (&xv, &qv) in x[k8..k].iter().zip(&q[k8..k]) {
            let wv = (i32::from(qv) - zp) as f32 * scale;
            sum = xv.mul_add(wv, sum);
        }
        sum
    }
}

// ---------------------------------------------------------------------------
// Public kernels: per-leg entry points plus runtime dispatch.
// ---------------------------------------------------------------------------

/// Validates the operand lengths of a reduced-precision product.
fn check_dims(
    xs: usize,
    ws: usize,
    outs: usize,
    bias: Option<usize>,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(xs, m * k, "input length");
    assert_eq!(ws, n * k, "weight length");
    assert_eq!(outs, m * n, "out length");
    if let Some(b) = bias {
        assert_eq!(b, n, "bias length");
    }
}

/// `out[m,n] = x[m,k] · W[n,k]ᵀ (+ bias)` with f16 weights — scalar leg.
pub fn matmul_f16_scalar(
    x: &[f32],
    w: &[u16],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(x.len(), w.len(), out.len(), bias.map(<[f32]>::len), m, k, n);
    for b in 0..m {
        let xr = &x[b * k..(b + 1) * k];
        for o in 0..n {
            let mut v = dot_f16_scalar(xr, &w[o * k..(o + 1) * k]);
            if let Some(bias) = bias {
                v += bias[o];
            }
            out[b * n + o] = v;
        }
    }
}

/// `out[m,n] = x[m,k] · W[n,k]ᵀ (+ bias)` with f16 weights — SIMD leg.
///
/// # Panics
///
/// Panics when the host lacks AVX2/FMA/F16C (callers dispatch through
/// [`matmul_f16`], which never takes this leg on such hosts).
#[cfg(target_arch = "x86_64")]
pub fn matmul_f16_simd(
    x: &[f32],
    w: &[u16],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(simd_available(), "AVX2+FMA+F16C unavailable on this host");
    check_dims(x.len(), w.len(), out.len(), bias.map(<[f32]>::len), m, k, n);
    // Iterate channel-major: a block of four weight rows stays cache-hot
    // across the whole batch while being streamed from memory exactly once.
    let n4 = n & !3;
    for o in (0..n4).step_by(4) {
        let rows = [
            &w[o * k..(o + 1) * k],
            &w[(o + 1) * k..(o + 2) * k],
            &w[(o + 2) * k..(o + 3) * k],
            &w[(o + 3) * k..(o + 4) * k],
        ];
        for b in 0..m {
            let xr = &x[b * k..(b + 1) * k];
            // SAFETY: simd_available() verified the required features.
            let mut vals = unsafe { avx::dot4_f16(xr, rows, k) };
            if let Some(bias) = bias {
                for (r, v) in vals.iter_mut().enumerate() {
                    *v += bias[o + r];
                }
            }
            for (r, v) in vals.iter().enumerate() {
                out[b * n + o + r] = *v;
            }
        }
    }
    for o in n4..n {
        let row = &w[o * k..(o + 1) * k];
        for b in 0..m {
            let xr = &x[b * k..(b + 1) * k];
            // SAFETY: simd_available() verified the required features.
            let mut v = unsafe { avx::dot1_f16(xr, row, k) };
            if let Some(bias) = bias {
                v += bias[o];
            }
            out[b * n + o] = v;
        }
    }
}

/// `out[m,n] = x[m,k] · W[n,k]ᵀ (+ bias)` with f16 weights, runtime
/// dispatched and (for large products outside a
/// [`crate::matmul::serial_scope`]) split channel-wise across threads.
///
/// Both legs and every thread count produce bit-identical results.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_f16(
    x: &[f32],
    w: &[u16],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(x.len(), w.len(), out.len(), bias.map(<[f32]>::len), m, k, n);
    let threads = kernel_threads(m, k, n);
    if threads <= 1 {
        run_f16_leg(x, w, bias, out, m, k, n);
        return;
    }
    // Split the channel range: each thread streams a disjoint slice of the
    // weight words (the bandwidth-dominant operand) and computes a private
    // [m, chunk] block, stitched into `out` afterwards. Every element's
    // arithmetic is independent, so the split cannot change any bit.
    let per = n.div_ceil(threads);
    let mut blocks: Vec<(usize, usize, Vec<f32>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut o0 = 0;
        while o0 < n {
            let nc = per.min(n - o0);
            let wc = &w[o0 * k..(o0 + nc) * k];
            let bc = bias.map(|b| &b[o0..o0 + nc]);
            handles.push((
                o0,
                nc,
                scope.spawn(move || {
                    let mut block = vec![0.0f32; m * nc];
                    run_f16_leg(x, wc, bc, &mut block, m, k, nc);
                    block
                }),
            ));
            o0 += nc;
        }
        for (o0, nc, handle) in handles {
            blocks.push((o0, nc, handle.join().expect("kernel worker panicked")));
        }
    });
    for (o0, nc, block) in blocks {
        for b in 0..m {
            out[b * n + o0..b * n + o0 + nc].copy_from_slice(&block[b * nc..(b + 1) * nc]);
        }
    }
}

/// Runs the active leg on one contiguous channel block.
fn run_f16_leg(
    x: &[f32],
    w: &[u16],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        matmul_f16_simd(x, w, bias, out, m, k, n);
        return;
    }
    matmul_f16_scalar(x, w, bias, out, m, k, n);
}

/// `out[m,n] = x[m,k] · dequant(Q[n,k])ᵀ (+ bias)` — scalar leg. One
/// `(scale, zero_point)` pair per output channel.
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_scalar(
    x: &[f32],
    q: &[i8],
    scales: &[f32],
    zero_points: &[i8],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(x.len(), q.len(), out.len(), bias.map(<[f32]>::len), m, k, n);
    assert_eq!(scales.len(), n, "scale count");
    assert_eq!(zero_points.len(), n, "zero-point count");
    for b in 0..m {
        let xr = &x[b * k..(b + 1) * k];
        for o in 0..n {
            let mut v = dot_i8_scalar(
                xr,
                &q[o * k..(o + 1) * k],
                scales[o],
                i32::from(zero_points[o]),
            );
            if let Some(bias) = bias {
                v += bias[o];
            }
            out[b * n + o] = v;
        }
    }
}

/// `out[m,n] = x[m,k] · dequant(Q[n,k])ᵀ (+ bias)` — SIMD leg.
///
/// # Panics
///
/// Panics when the host lacks AVX2/FMA.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_simd(
    x: &[f32],
    q: &[i8],
    scales: &[f32],
    zero_points: &[i8],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(simd_available(), "AVX2+FMA unavailable on this host");
    check_dims(x.len(), q.len(), out.len(), bias.map(<[f32]>::len), m, k, n);
    assert_eq!(scales.len(), n, "scale count");
    assert_eq!(zero_points.len(), n, "zero-point count");
    for o in 0..n {
        let row = &q[o * k..(o + 1) * k];
        let (scale, zp) = (scales[o], i32::from(zero_points[o]));
        for b in 0..m {
            let xr = &x[b * k..(b + 1) * k];
            // SAFETY: simd_available() verified the required features.
            let mut v = unsafe { avx::dot1_i8(xr, row, scale, zp, k) };
            if let Some(bias) = bias {
                v += bias[o];
            }
            out[b * n + o] = v;
        }
    }
}

/// Int8 product with runtime dispatch and channel-split threading; see
/// [`matmul_f16`] for the contract.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8(
    x: &[f32],
    q: &[i8],
    scales: &[f32],
    zero_points: &[i8],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(x.len(), q.len(), out.len(), bias.map(<[f32]>::len), m, k, n);
    assert_eq!(scales.len(), n, "scale count");
    assert_eq!(zero_points.len(), n, "zero-point count");
    let threads = kernel_threads(m, k, n);
    if threads <= 1 {
        run_i8_leg(x, q, scales, zero_points, bias, out, m, k, n);
        return;
    }
    let per = n.div_ceil(threads);
    let mut blocks: Vec<(usize, usize, Vec<f32>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut o0 = 0;
        while o0 < n {
            let nc = per.min(n - o0);
            let qc = &q[o0 * k..(o0 + nc) * k];
            let sc = &scales[o0..o0 + nc];
            let zc = &zero_points[o0..o0 + nc];
            let bc = bias.map(|b| &b[o0..o0 + nc]);
            handles.push((
                o0,
                nc,
                scope.spawn(move || {
                    let mut block = vec![0.0f32; m * nc];
                    run_i8_leg(x, qc, sc, zc, bc, &mut block, m, k, nc);
                    block
                }),
            ));
            o0 += nc;
        }
        for (o0, nc, handle) in handles {
            blocks.push((o0, nc, handle.join().expect("kernel worker panicked")));
        }
    });
    for (o0, nc, block) in blocks {
        for b in 0..m {
            out[b * n + o0..b * n + o0 + nc].copy_from_slice(&block[b * nc..(b + 1) * nc]);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_i8_leg(
    x: &[f32],
    q: &[i8],
    scales: &[f32],
    zero_points: &[i8],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        matmul_i8_simd(x, q, scales, zero_points, bias, out, m, k, n);
        return;
    }
    matmul_i8_scalar(x, q, scales, zero_points, bias, out, m, k, n);
}

fn kernel_threads(m: usize, k: usize, n: usize) -> usize {
    if m * n * k >= PARALLEL_THRESHOLD && !crate::matmul::serial_forced() {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::f32_to_f16;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<u16>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let w: Vec<u16> = (0..n * k)
            .map(|_| f32_to_f16(rng.gen_range(-1.5..1.5)))
            .collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (x, w, bias)
    }

    #[test]
    fn scalar_f16_matches_reference_values() {
        // k < 8 exercises the pure-tail path; exact values, no rounding.
        let x = [1.0f32, 2.0, -3.0];
        let w: Vec<u16> = [0.5f32, 0.25, 1.0, -1.0, 2.0, 0.0]
            .iter()
            .map(|&v| f32_to_f16(v))
            .collect();
        let mut out = [0.0f32; 2];
        matmul_f16_scalar(&x, &w, None, &mut out, 1, 3, 2);
        assert_eq!(out, [1.0 * 0.5 + 2.0 * 0.25 - 3.0, -1.0 + 4.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_f16_is_bit_identical_to_scalar() {
        if !simd_available() {
            eprintln!("skipping: host lacks AVX2/FMA/F16C");
            return;
        }
        for (m, k, n, seed) in [(1, 7, 1, 1), (3, 16, 5, 2), (4, 33, 9, 3), (32, 130, 17, 4)] {
            let (x, w, bias) = random_case(m, k, n, seed);
            let mut scalar = vec![0.0f32; m * n];
            let mut simd = vec![0.0f32; m * n];
            matmul_f16_scalar(&x, &w, Some(&bias), &mut scalar, m, k, n);
            matmul_f16_simd(&x, &w, Some(&bias), &mut simd, m, k, n);
            assert_eq!(
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_f16_matches_scalar_on_nonfinite_weights() {
        if !simd_available() {
            eprintln!("skipping: host lacks AVX2/FMA/F16C");
            return;
        }
        // Inf, -Inf, quiet NaN, signalling NaN, subnormals — the words a
        // fault campaign actually produces.
        let w: Vec<u16> = vec![
            0x7C00, 0xFC00, 0x7E01, 0x7C01, 0x0001, 0x03FF, 0x8001, 0x3C00, 0x7BFF, 0xFBFF, 0x0000,
            0x8000,
        ];
        let x: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.25).collect();
        let mut scalar = vec![0.0f32; 1];
        let mut simd = vec![0.0f32; 1];
        matmul_f16_scalar(&x, &w, None, &mut scalar, 1, 12, 1);
        matmul_f16_simd(&x, &w, None, &mut simd, 1, 12, 1);
        assert_eq!(scalar[0].to_bits(), simd[0].to_bits());
    }

    #[test]
    fn threaded_f16_is_bit_identical_to_serial() {
        // Big enough to cross PARALLEL_THRESHOLD.
        let (m, k, n) = (32, 96, 128);
        let (x, w, bias) = random_case(m, k, n, 7);
        let mut threaded = vec![0.0f32; m * n];
        matmul_f16(&x, &w, Some(&bias), &mut threaded, m, k, n);
        let mut serial = vec![0.0f32; m * n];
        crate::matmul::serial_scope(|| {
            matmul_f16(&x, &w, Some(&bias), &mut serial, m, k, n);
        });
        assert_eq!(threaded, serial);
    }

    #[test]
    fn scalar_i8_dequantises_exactly() {
        let q: Vec<i8> = vec![10, -10, 0, 127];
        let x = [1.0f32, 1.0, 1.0, 1.0];
        let mut out = [0.0f32; 1];
        matmul_i8_scalar(&x, &q, &[0.5], &[-3], None, &mut out, 1, 4, 1);
        // (10+3) + (-10+3) + 3 + 130 = 139, × 0.5
        assert_eq!(out[0], 139.0 * 0.5);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_i8_is_bit_identical_to_scalar() {
        if !simd_available() {
            eprintln!("skipping: host lacks AVX2/FMA");
            return;
        }
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = (5, 27, 6);
        let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let q: Vec<i8> = (0..n * k).map(|_| rng.gen_range(-128..=127)).collect();
        let scales: Vec<f32> = (0..n).map(|_| rng.gen_range(0.001..0.1)).collect();
        let zps: Vec<i8> = (0..n).map(|_| rng.gen_range(-20..20)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut scalar = vec![0.0f32; m * n];
        let mut simd = vec![0.0f32; m * n];
        matmul_i8_scalar(&x, &q, &scales, &zps, Some(&bias), &mut scalar, m, k, n);
        matmul_i8_simd(&x, &q, &scales, &zps, Some(&bias), &mut simd, m, k, n);
        assert_eq!(
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn threaded_i8_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(13);
        let (m, k, n) = (32, 96, 128);
        let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let q: Vec<i8> = (0..n * k).map(|_| rng.gen_range(-128..=127)).collect();
        let scales: Vec<f32> = (0..n).map(|_| rng.gen_range(0.001..0.1)).collect();
        let zps: Vec<i8> = (0..n).map(|_| rng.gen_range(-20..20)).collect();
        let mut threaded = vec![0.0f32; m * n];
        matmul_i8(&x, &q, &scales, &zps, None, &mut threaded, m, k, n);
        let mut serial = vec![0.0f32; m * n];
        crate::matmul::serial_scope(|| {
            matmul_i8(&x, &q, &scales, &zps, None, &mut serial, m, k, n);
        });
        assert_eq!(threaded, serial);
    }

    #[test]
    fn backend_name_is_consistent_with_dispatch() {
        let name = backend_name();
        if simd_active() {
            assert_eq!(name, "avx2+fma+f16c");
        } else {
            assert_eq!(name, "scalar");
        }
    }
}
