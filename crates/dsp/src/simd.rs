//! Runtime-dispatched SIMD kernels for the DSP hot path.
//!
//! Every per-frame inner loop of the range-profile stage funnels through
//! this module: the mixed-radix Stockham passes of the band transform, the
//! window multiply and dequantizing pack that feed it, and the fixed-point
//! (i16/i32) front half that keeps wire-quantized sweeps in integer form
//! until the last possible dequantization. The radix-2 butterfly ranks and
//! complex pointwise multiplies serve power-of-two transforms and the
//! Bluestein fallback. Each kernel exists twice:
//!
//! * a **scalar** reference implementation (in [`scalar`]), always
//!   compiled, used directly on non-x86 hosts and kept exercised in CI by
//!   the forced-fallback test; and
//! * an **AVX2+FMA** implementation processing two `f64` complex values
//!   (four lanes) or sixteen `i16` lanes per instruction, compiled behind
//!   `target_feature` and reached only after a runtime
//!   `is_x86_feature_detected!` check.
//!
//! The path is selected **once per process** (first kernel call, i.e. at
//! plan build) and recorded in the global telemetry registry: the
//! `dsp/simd_lanes` gauge holds the selected `f64` lane width (4 for
//! AVX2, 1 for scalar) and the `dsp/scalar_fallbacks` counter increments
//! when selection lands on the scalar path — either because the host
//! lacks AVX2/FMA or because `WITRACK_DSP_FORCE_SCALAR=1` (or
//! [`force_scalar`]) pinned it for testing. Numerically the AVX2 float
//! kernels differ from scalar only by FMA rounding (well inside the 1e-9
//! DFT-equivalence suites); the fixed-point kernels are **bit-exact**
//! across paths, since both round with the same `(a·b + 2^14) >> 15`
//! midpoint rule.
//!
//! This module is the one place in the crate allowed to use `unsafe`
//! (raw intrinsics); the crate-level lint downgrade is scoped here and
//! every unsafe block sits behind the feature-detected dispatch above it.
#![allow(unsafe_code)]

use crate::complex::Complex;
use std::sync::OnceLock;

/// Which kernel implementation the process selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// AVX2 + FMA intrinsics: 2 complex `f64` (4 lanes) / 16 `i16` lanes
    /// per operation.
    Avx2Fma,
    /// Portable scalar reference path.
    Scalar,
}

impl KernelPath {
    /// `f64` lanes the path processes per operation (what the
    /// `dsp/simd_lanes` gauge reports).
    pub fn lanes(self) -> usize {
        match self {
            KernelPath::Avx2Fma => 4,
            KernelPath::Scalar => 1,
        }
    }
}

static PATH: OnceLock<KernelPath> = OnceLock::new();

/// Publishes the selected path to the global telemetry registry.
fn record_selection(path: KernelPath) {
    let reg = witrack_obs::global();
    reg.gauge("dsp", "simd_lanes", witrack_obs::Label::Global)
        .set(path.lanes() as i64);
    let fallbacks = reg.counter("dsp", "scalar_fallbacks", witrack_obs::Label::Global);
    if path == KernelPath::Scalar {
        fallbacks.inc();
    }
}

fn select() -> KernelPath {
    if std::env::var_os("WITRACK_DSP_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return KernelPath::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelPath::Avx2Fma;
        }
    }
    KernelPath::Scalar
}

/// The kernel path this process runs. Selected on first call and fixed
/// for the process lifetime — mixed-path results within one pipeline
/// would make numerical regressions irreproducible.
pub fn active() -> KernelPath {
    *PATH.get_or_init(|| {
        let p = select();
        record_selection(p);
        p
    })
}

/// Pins the scalar path for this process, for tests that must exercise
/// the non-SIMD kernels on SIMD-capable CI hosts. Returns `false` when a
/// kernel call (or another caller) already fixed the path. Must be called
/// before any transform work for the pin to win.
pub fn force_scalar() -> bool {
    let won = PATH.set(KernelPath::Scalar).is_ok();
    if won {
        record_selection(KernelPath::Scalar);
    }
    won
}

/// `buf[i] *= k[i]` (conjugating `k` when `conj` — the inverse-direction
/// Bluestein kernel multiply).
pub fn pointwise_mul(buf: &mut [Complex], k: &[Complex], conj: bool) {
    debug_assert_eq!(buf.len(), k.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::pointwise_mul(buf, k, conj) },
        _ => scalar::pointwise_mul(buf, k, conj),
    }
}

/// `out[i] = a[i] * b[i]` (conjugating `b` when `conj`) — the Bluestein
/// chirp multiplies.
pub fn pointwise_mul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj: bool) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::pointwise_mul_into(out, a, b, conj) },
        _ => scalar::pointwise_mul_into(out, a, b, conj),
    }
}

/// Windowed frame average: `dst[i] = src[i] * win[i] * scale`.
pub fn window_scale(dst: &mut [f64], src: &[f64], win: &[f64], scale: f64) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(dst.len(), win.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::window_scale(dst, src, win, scale) },
        _ => scalar::window_scale(dst, src, win, scale),
    }
}

/// Fixed-point windowed accumulate, the front half of the quantized
/// pipeline: `accum[i] += mulhrs(samples[i], win_q15[i])`, where `mulhrs`
/// is the Q15 rounding multiply `(a·b + 2^14) >> 15`. Windowing happens
/// *before* accumulation so the running sum stays exact in `i32`
/// (`sweeps_per_frame · 32767` is far below `i32::MAX`). Bit-exact
/// between the scalar and AVX2 paths.
pub fn window_accum_q(accum: &mut [i32], samples: &[i16], win_q15: &[i16]) {
    debug_assert_eq!(accum.len(), samples.len());
    debug_assert_eq!(accum.len(), win_q15.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::window_accum_q(accum, samples, win_q15) },
        _ => scalar::window_accum_q(accum, samples, win_q15),
    }
}

/// Late-dequantizing two-for-one packing, where the quantized front half
/// re-enters the float domain: `buf[t] = (q[2t] + i·q[2t+1]) · scale`.
/// Four consecutive `i32` lanes convert to exactly two packed complex
/// values, so the AVX2 path is one convert and one multiply per pair.
///
/// # Panics
/// Panics if `q.len() < 2 * buf.len()`.
pub fn pack_dequant(buf: &mut [Complex], q: &[i32], scale: f64) {
    assert!(q.len() >= 2 * buf.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` picks Avx2Fma only on a host with AVX2 and FMA;
        // the assert above bounds every `q` read.
        KernelPath::Avx2Fma => unsafe { avx2::pack_dequant(buf, q, scale) },
        _ => scalar::pack_dequant(buf, q, scale),
    }
}

/// `cos(2π/5)`, `cos(4π/5)`, `sin(2π/5)`, `sin(4π/5)`, `sin(2π/3)`: the
/// radix-5 and radix-3 butterfly constants.
const C1: f64 = 0.309_016_994_374_947_45;
const C2: f64 = -0.809_016_994_374_947_5;
const S1: f64 = 0.951_056_516_295_153_5;
const S2: f64 = 0.587_785_252_292_473_1;
const S3: f64 = 0.866_025_403_784_438_6;

/// One decimation-in-frequency Stockham pass of radix `p ∈ {2, 3, 4, 5}`
/// at stride `s`; the mixed-radix plan in [`crate::fft`] chains them. With
/// `m = src.len() / (p·s)` it writes, for `j < m`, `q < s`, `k < p`:
///
/// `dst[q + s·(p·j + k)] = tw_k(j) · Σ_r src[q + s·(j + r·m)]·e^{-2πirk/p}`
///
/// where `tw_k(j) = tw[(k−1)·m + j]`, `tw_0 = 1`, and an empty `tw` means
/// every twiddle is 1. The AVX2 path runs two columns `q, q+1` per
/// butterfly when `s ≥ 2` (each row's twiddles broadcast), and two rows
/// `j, j+1` when `s == 1` (twiddles loaded in pairs, each result stored
/// as two halves).
///
/// # Panics
/// Panics if `p` is not 2–5, the buffer lengths differ or are not a
/// multiple of `p·s`, or `tw` is neither empty nor `(p−1)·m` long.
pub fn stockham_pass(src: &[Complex], dst: &mut [Complex], p: usize, s: usize, tw: &[Complex]) {
    assert!((2..=5).contains(&p), "radix must be 2, 3, 4 or 5");
    assert_eq!(src.len(), dst.len(), "ping-pong buffers must match");
    assert!(s >= 1 && src.len().is_multiple_of(p * s), "pass shape");
    let m = src.len() / (p * s);
    assert!(
        tw.is_empty() || tw.len() == (p - 1) * m,
        "twiddle table shape"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` picks Avx2Fma only on a host with AVX2 and FMA;
        // the asserts above are the shape the kernel's pointer arithmetic
        // relies on.
        KernelPath::Avx2Fma => unsafe { avx2::stockham_pass(src, dst, p, s, tw) },
        _ => scalar::stockham_pass(src, dst, p, s, tw),
    }
}

/// Even/odd recombination of a packed half-length spectrum: the last step
/// of the real-input band transform. `z` is the `h`-point DFT of
/// `x[2t] + i·x[2t+1]`; bin `k` of the `2h`-point real DFT is
/// `X[k] = E[k] + W^k·O[k]` with `E[k] = (Z[k] + conj(Z[−k]))/2`,
/// `2·O[k] = −i(Z[k] − conj(Z[−k]))` (indices mod `h`), and
/// `unpack[k] = W_{2h}^k/2`. Writes bins `0..out.len()`.
///
/// # Panics
/// Panics if `unpack` is shorter than `out`, `out` is longer than `2h`, or
/// `z` is empty.
pub fn unpack_band(out: &mut [Complex], z: &[Complex], unpack: &[Complex]) {
    assert!(!z.is_empty() && out.len() <= 2 * z.len() && unpack.len() >= out.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` picks Avx2Fma only on a host with AVX2 and FMA;
        // the assert above bounds every vector read of `z` and `unpack`.
        KernelPath::Avx2Fma if !out.is_empty() => unsafe { avx2::unpack_band(out, z, unpack) },
        _ => scalar::unpack_band(out, z, unpack, 0),
    }
}

/// One whole radix-2 stage: the butterfly pass
/// `(a[k], b[k]) ← (a[k] + tw[k]·b[k], a[k] − tw[k]·b[k])` over the lower
/// and upper halves of every `2·half` block of `data` (`tw` holds the
/// stage's twiddles `e^{-2πik/2·half}`, conjugated on the fly when `conj`
/// for the inverse direction), with the block loop *inside* the selected
/// kernel. Dispatching per stage instead of per block matters enormously
/// at the narrow early stages — a 2048-point transform has 1024
/// one-butterfly blocks at `half == 1`, and a per-block dispatch (path
/// load + call + slice setup) costs more than the butterfly itself.
///
/// # Panics
/// Panics (debug) if `data.len()` is not a multiple of `2·half` or
/// `tw.len() < half`.
pub fn fft_stage(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
    debug_assert!(data.len().is_multiple_of(2 * half));
    debug_assert!(tw.len() >= half);
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::fft_stage(data, half, tw, conj) },
        _ => scalar::fft_stage(data, half, tw, conj),
    }
}

/// One whole decimation-in-frequency radix-2 stage:
/// `(a[k], b[k]) ← (a[k] + b[k], (a[k] − b[k])·tw[k])` over every
/// `2·half` block. The DIF ladder (widest rank first) maps natural-order
/// input to a bit-reversed-order spectrum *without* a permutation pass —
/// inside a convolution the matching bit-reversed-input DIT inverse
/// undoes the ordering, so both bit-reversal passes vanish.
///
/// # Panics
/// Panics (debug) if `data.len()` is not a multiple of `2·half` or
/// `tw.len() < half`.
pub fn fft_stage_dif(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
    debug_assert!(data.len().is_multiple_of(2 * half));
    debug_assert!(tw.len() >= half);
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::fft_stage_dif(data, half, tw, conj) },
        _ => scalar::fft_stage_dif(data, half, tw, conj),
    }
}

/// Two consecutive DIT ranks — half-lengths `h` (twiddles `tw1`, length
/// `h`) then `2h` (twiddles `tw2`, length `2h`) — fused into **one** pass
/// over memory. Each group of four points is loaded once, carried through
/// both butterfly ranks in registers, and stored once, halving the FFT's
/// dominant cost (load/store traffic). Requires `h ≥ 2` and a power of
/// two (so the vector kernel never needs a tail).
///
/// # Panics
/// Panics (debug) if `h < 2`, `data.len()` is not a multiple of `4h`, or
/// a twiddle table is short.
pub fn fft_two_stages(
    data: &mut [Complex],
    h: usize,
    tw1: &[Complex],
    tw2: &[Complex],
    conj: bool,
) {
    debug_assert!(h >= 2 && h.is_power_of_two());
    debug_assert!(data.len().is_multiple_of(4 * h));
    debug_assert!(tw1.len() >= h && tw2.len() >= 2 * h);
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::fft_two_stages(data, h, tw1, tw2, conj) },
        _ => scalar::fft_two_stages(data, h, tw1, tw2, conj),
    }
}

/// Two consecutive DIF ranks — half-lengths `2h` (twiddles `tw2`) then
/// `h` (twiddles `tw1`) — fused into one pass over memory; the DIF mirror
/// of [`fft_two_stages`]. Same `h ≥ 2` power-of-two requirement.
///
/// # Panics
/// Panics (debug) if `h < 2`, `data.len()` is not a multiple of `4h`, or
/// a twiddle table is short.
pub fn fft_two_stages_dif(
    data: &mut [Complex],
    h: usize,
    tw1: &[Complex],
    tw2: &[Complex],
    conj: bool,
) {
    debug_assert!(h >= 2 && h.is_power_of_two());
    debug_assert!(data.len().is_multiple_of(4 * h));
    debug_assert!(tw1.len() >= h && tw2.len() >= 2 * h);
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::fft_two_stages_dif(data, h, tw1, tw2, conj) },
        _ => scalar::fft_two_stages_dif(data, h, tw1, tw2, conj),
    }
}

/// Scalar reference implementations. Public so the property suites (and
/// the forced-fallback CI test) can pin SIMD results against them
/// regardless of which path the process selected.
pub mod scalar {
    use super::{Complex, C1, C2, S1, S2, S3};
    use std::ops::Range;

    /// Exact Q15 rounding multiply — the semantics of
    /// `_mm256_mulhrs_epi16` on lanes that cannot overflow (window
    /// coefficients are non-negative, so the `−32768 · −32768` corner
    /// never occurs).
    #[inline]
    pub fn mulhrs(a: i16, b: i16) -> i16 {
        (((a as i32 * b as i32) + (1 << 14)) >> 15) as i16
    }

    /// See [`super::pointwise_mul`].
    pub fn pointwise_mul(buf: &mut [Complex], k: &[Complex], conj: bool) {
        if conj {
            for (b, k) in buf.iter_mut().zip(k) {
                *b *= k.conj();
            }
        } else {
            for (b, k) in buf.iter_mut().zip(k) {
                *b *= *k;
            }
        }
    }

    /// See [`super::pointwise_mul_into`].
    pub fn pointwise_mul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj: bool) {
        if conj {
            for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = *x * y.conj();
            }
        } else {
            for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = *x * *y;
            }
        }
    }

    /// See [`super::window_scale`].
    pub fn window_scale(dst: &mut [f64], src: &[f64], win: &[f64], scale: f64) {
        for (d, (&s, &w)) in dst.iter_mut().zip(src.iter().zip(win)) {
            *d = s * w * scale;
        }
    }

    /// See [`super::window_accum_q`].
    pub fn window_accum_q(accum: &mut [i32], samples: &[i16], win_q15: &[i16]) {
        for (a, (&s, &w)) in accum.iter_mut().zip(samples.iter().zip(win_q15)) {
            *a += mulhrs(s, w) as i32;
        }
    }

    /// See [`super::pack_dequant`].
    pub fn pack_dequant(buf: &mut [Complex], q: &[i32], scale: f64) {
        for (b, pair) in buf.iter_mut().zip(q.chunks_exact(2)) {
            *b = Complex::new(pair[0] as f64 * scale, pair[1] as f64 * scale);
        }
    }

    /// See [`super::stockham_pass`].
    pub fn stockham_pass(src: &[Complex], dst: &mut [Complex], p: usize, s: usize, tw: &[Complex]) {
        for j in 0..src.len() / (p * s) {
            columns(src, dst, p, s, tw, j, 0..s);
        }
    }

    /// The butterflies of row `j`, columns `qs`, of one Stockham pass (the
    /// vector kernel's tails run through here too).
    pub(super) fn columns(
        src: &[Complex],
        dst: &mut [Complex],
        p: usize,
        s: usize,
        tw: &[Complex],
        j: usize,
        qs: Range<usize>,
    ) {
        match p {
            2 => columns_p(src, dst, s, tw, j, qs, bfly2),
            3 => columns_p(src, dst, s, tw, j, qs, bfly3),
            4 => columns_p(src, dst, s, tw, j, qs, bfly4),
            _ => columns_p(src, dst, s, tw, j, qs, bfly5),
        }
    }

    #[inline(always)]
    fn columns_p<const P: usize>(
        src: &[Complex],
        dst: &mut [Complex],
        s: usize,
        tw: &[Complex],
        j: usize,
        qs: Range<usize>,
        bfly: fn([Complex; P]) -> [Complex; P],
    ) {
        let m = src.len() / (P * s);
        let mut w = [Complex::ONE; P];
        if !tw.is_empty() {
            for (k, w) in w.iter_mut().enumerate().skip(1) {
                *w = tw[(k - 1) * m + j];
            }
        }
        for q in qs {
            let y = bfly(std::array::from_fn(|r| src[q + s * (j + r * m)]));
            for (k, (y, w)) in y.iter().zip(&w).enumerate() {
                dst[q + s * (P * j + k)] = if k == 0 { *y } else { *y * *w };
            }
        }
    }

    /// See [`super::unpack_band`]; `out[i]` and `unpack[i]` are bin
    /// `first + i`.
    pub fn unpack_band(out: &mut [Complex], z: &[Complex], unpack: &[Complex], first: usize) {
        let h = z.len();
        for (k, (o, w)) in (first..).zip(out.iter_mut().zip(unpack)) {
            let k = if k >= h { k - h } else { k };
            let zk = z[k];
            let zr = z[if k == 0 { 0 } else { h - k }].conj();
            let e = (zk + zr).scale(0.5);
            let od = Complex::new(0.0, -1.0) * (zk - zr); // 2·O[k]
            *o = e + *w * od;
        }
    }

    /// `i·z`.
    #[inline(always)]
    fn mul_i(z: Complex) -> Complex {
        Complex::new(-z.im, z.re)
    }

    #[inline(always)]
    fn bfly2([a0, a1]: [Complex; 2]) -> [Complex; 2] {
        [a0 + a1, a0 - a1]
    }

    #[inline(always)]
    fn bfly3([a0, a1, a2]: [Complex; 3]) -> [Complex; 3] {
        let t1 = a1 + a2;
        let v = mul_i((a1 - a2).scale(S3));
        let b = a0 - t1.scale(0.5);
        [a0 + t1, b - v, b + v]
    }

    #[inline(always)]
    fn bfly4([a0, a1, a2, a3]: [Complex; 4]) -> [Complex; 4] {
        let (t0, t1) = (a0 + a2, a0 - a2);
        let (t2, t3) = (a1 + a3, mul_i(a1 - a3));
        [t0 + t2, t1 - t3, t0 - t2, t1 + t3]
    }

    #[inline(always)]
    fn bfly5([a0, a1, a2, a3, a4]: [Complex; 5]) -> [Complex; 5] {
        let (t1, t2) = (a1 + a4, a2 + a3);
        let (t3, t4) = (a1 - a4, a2 - a3);
        let b1 = a0 + t1.scale(C1) + t2.scale(C2);
        let b2 = a0 + t1.scale(C2) + t2.scale(C1);
        let v1 = mul_i(t3.scale(S1) + t4.scale(S2));
        let v2 = mul_i(t3.scale(S2) - t4.scale(S1));
        [a0 + t1 + t2, b1 - v1, b2 - v2, b2 + v2, b1 + v1]
    }

    /// One radix-2 butterfly pass over a block (see [`super::fft_stage`]).
    pub fn butterflies(a: &mut [Complex], b: &mut [Complex], tw: &[Complex], conj: bool) {
        for k in 0..a.len() {
            let t = if conj { tw[k].conj() } else { tw[k] };
            let x = a[k];
            let y = b[k] * t;
            a[k] = x + y;
            b[k] = x - y;
        }
    }

    /// See [`super::fft_stage`].
    pub fn fft_stage(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
        for block in data.chunks_exact_mut(2 * half) {
            let (a, b) = block.split_at_mut(half);
            butterflies(a, b, &tw[..half], conj);
        }
    }

    /// See [`super::fft_stage_dif`].
    pub fn fft_stage_dif(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
        for block in data.chunks_exact_mut(2 * half) {
            let (a, b) = block.split_at_mut(half);
            for k in 0..half {
                let t = if conj { tw[k].conj() } else { tw[k] };
                let x = a[k];
                let y = b[k];
                a[k] = x + y;
                b[k] = (x - y) * t;
            }
        }
    }

    /// See [`super::fft_two_stages`].
    pub fn fft_two_stages(
        data: &mut [Complex],
        h: usize,
        tw1: &[Complex],
        tw2: &[Complex],
        conj: bool,
    ) {
        for block in data.chunks_exact_mut(4 * h) {
            for k in 0..h {
                let (t1, t2a, t2b) = if conj {
                    (tw1[k].conj(), tw2[k].conj(), tw2[k + h].conj())
                } else {
                    (tw1[k], tw2[k], tw2[k + h])
                };
                let x0 = block[k];
                let x1 = block[k + h] * t1;
                let x2 = block[k + 2 * h];
                let x3 = block[k + 3 * h] * t1;
                let y0 = x0 + x1;
                let y1 = x0 - x1;
                let u2 = (x2 + x3) * t2a;
                let u3 = (x2 - x3) * t2b;
                block[k] = y0 + u2;
                block[k + 2 * h] = y0 - u2;
                block[k + h] = y1 + u3;
                block[k + 3 * h] = y1 - u3;
            }
        }
    }

    /// See [`super::fft_two_stages_dif`].
    pub fn fft_two_stages_dif(
        data: &mut [Complex],
        h: usize,
        tw1: &[Complex],
        tw2: &[Complex],
        conj: bool,
    ) {
        for block in data.chunks_exact_mut(4 * h) {
            for k in 0..h {
                let (t1, t2a, t2b) = if conj {
                    (tw1[k].conj(), tw2[k].conj(), tw2[k + h].conj())
                } else {
                    (tw1[k], tw2[k], tw2[k + h])
                };
                let x0 = block[k];
                let x1 = block[k + h];
                let x2 = block[k + 2 * h];
                let x3 = block[k + 3 * h];
                let y0 = x0 + x2;
                let y2 = (x0 - x2) * t2a;
                let y1 = x1 + x3;
                let y3 = (x1 - x3) * t2b;
                block[k] = y0 + y1;
                block[k + h] = (y0 - y1) * t1;
                block[k + 2 * h] = y2 + y3;
                block[k + 3 * h] = (y2 - y3) * t1;
            }
        }
    }
}

/// AVX2 + FMA implementations. Everything here requires the caller to
/// have verified `avx2` and `fma` support (the dispatchers above only
/// take this branch after `is_x86_feature_detected!`). `Complex` is
/// `#[repr(C)]` `{ re: f64, im: f64 }`, so a `&[Complex]` is a valid
/// `[re, im, re, im, …]` `f64` sequence and one 256-bit register holds
/// two complex values.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Complex, C1, C2, S1, S2, S3};
    use core::arch::x86_64::*;

    /// Complex multiply of register pairs `a·b`, both `[re0, im0, re1,
    /// im1]`. `CONJ_B` selects `a·conj(b)` at compile time.
    ///
    /// even lane: `ar·br − ai·bi` (or `+` conjugated), odd lane:
    /// `ai·br + ar·bi` (or `−`), via `fmaddsub(a, dup(br), aswap·dup(bi))`.
    #[inline(always)]
    unsafe fn cmul<const CONJ_B: bool>(a: __m256d, b: __m256d) -> __m256d {
        let b_re = _mm256_movedup_pd(b); // [br0, br0, br1, br1]
        let mut b_im = _mm256_permute_pd(b, 0xF); // [bi0, bi0, bi1, bi1]
        if CONJ_B {
            b_im = _mm256_xor_pd(b_im, _mm256_set1_pd(-0.0));
        }
        let a_swap = _mm256_permute_pd(a, 0x5); // [ai0, ar0, ai1, ar1]
        _mm256_fmaddsub_pd(a, b_re, _mm256_mul_pd(a_swap, b_im))
    }

    #[inline(always)]
    unsafe fn load(p: *const Complex) -> __m256d {
        _mm256_loadu_pd(p as *const f64)
    }

    #[inline(always)]
    unsafe fn store(p: *mut Complex, v: __m256d) {
        _mm256_storeu_pd(p as *mut f64, v)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pointwise_mul(buf: &mut [Complex], k: &[Complex], conj: bool) {
        let n = buf.len().min(k.len());
        let pairs = n / 2;
        let bp = buf.as_mut_ptr();
        let kp = k.as_ptr();
        if conj {
            for i in 0..pairs {
                store(
                    bp.add(2 * i),
                    cmul::<true>(load(bp.add(2 * i)), load(kp.add(2 * i))),
                );
            }
        } else {
            for i in 0..pairs {
                store(
                    bp.add(2 * i),
                    cmul::<false>(load(bp.add(2 * i)), load(kp.add(2 * i))),
                );
            }
        }
        super::scalar::pointwise_mul(&mut buf[2 * pairs..n], &k[2 * pairs..n], conj);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pointwise_mul_into(
        out: &mut [Complex],
        a: &[Complex],
        b: &[Complex],
        conj: bool,
    ) {
        let n = out.len();
        let pairs = n / 2;
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        if conj {
            for i in 0..pairs {
                store(
                    op.add(2 * i),
                    cmul::<true>(load(ap.add(2 * i)), load(bp.add(2 * i))),
                );
            }
        } else {
            for i in 0..pairs {
                store(
                    op.add(2 * i),
                    cmul::<false>(load(ap.add(2 * i)), load(bp.add(2 * i))),
                );
            }
        }
        super::scalar::pointwise_mul_into(
            &mut out[2 * pairs..],
            &a[2 * pairs..n],
            &b[2 * pairs..n],
            conj,
        );
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn window_scale(dst: &mut [f64], src: &[f64], win: &[f64], scale: f64) {
        let n = dst.len();
        let quads = n / 4;
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let wp = win.as_ptr();
        let sc = _mm256_set1_pd(scale);
        for i in 0..quads {
            let v = _mm256_mul_pd(
                _mm256_mul_pd(
                    _mm256_loadu_pd(sp.add(4 * i)),
                    _mm256_loadu_pd(wp.add(4 * i)),
                ),
                sc,
            );
            _mm256_storeu_pd(dp.add(4 * i), v);
        }
        super::scalar::window_scale(
            &mut dst[4 * quads..],
            &src[4 * quads..n],
            &win[4 * quads..n],
            scale,
        );
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn window_accum_q(accum: &mut [i32], samples: &[i16], win_q15: &[i16]) {
        let n = accum.len();
        let blocks = n / 16;
        let ap = accum.as_mut_ptr();
        let sp = samples.as_ptr();
        let wp = win_q15.as_ptr();
        for i in 0..blocks {
            let s = _mm256_loadu_si256(sp.add(16 * i) as *const __m256i);
            let w = _mm256_loadu_si256(wp.add(16 * i) as *const __m256i);
            let p = _mm256_mulhrs_epi16(s, w); // 16 × round(s·w / 2^15)
            let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p));
            let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1));
            let a0 = _mm256_loadu_si256(ap.add(16 * i) as *const __m256i);
            let a1 = _mm256_loadu_si256(ap.add(16 * i + 8) as *const __m256i);
            _mm256_storeu_si256(ap.add(16 * i) as *mut __m256i, _mm256_add_epi32(a0, lo));
            _mm256_storeu_si256(ap.add(16 * i + 8) as *mut __m256i, _mm256_add_epi32(a1, hi));
        }
        super::scalar::window_accum_q(
            &mut accum[16 * blocks..],
            &samples[16 * blocks..n],
            &win_q15[16 * blocks..n],
        );
    }

    /// # Safety
    /// The host must support AVX2 and FMA, and `q.len() ≥ 2·buf.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pack_dequant(buf: &mut [Complex], q: &[i32], scale: f64) {
        let n = buf.len();
        let pairs = n / 2;
        let bp = buf.as_mut_ptr();
        let qp = q.as_ptr();
        let sc = _mm256_set1_pd(scale);
        for i in 0..pairs {
            // Four i32 → four f64 lanes = two packed complex values.
            let qi = _mm_loadu_si128(qp.add(4 * i) as *const __m128i);
            store(bp.add(2 * i), _mm256_mul_pd(_mm256_cvtepi32_pd(qi), sc));
        }
        super::scalar::pack_dequant(&mut buf[2 * pairs..], &q[4 * pairs..], scale);
    }

    /// `a · w` for a twiddle splatted as `wr = [re; 4]`, `wi = [im; 4]`.
    ///
    /// # Safety
    /// Only for inlining into an AVX2+FMA function.
    #[inline(always)]
    unsafe fn cmul_splat(a: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        _mm256_fmaddsub_pd(a, wr, _mm256_mul_pd(_mm256_permute_pd(a, 0x5), wi))
    }

    /// A radix-`P` DFT butterfly on two complex values per register.
    trait Radix<const P: usize> {
        /// # Safety
        /// Only for inlining into an AVX2+FMA function.
        unsafe fn bfly(a: [__m256d; P]) -> [__m256d; P];
    }

    struct R2;
    struct R3;
    struct R4;
    struct R5;

    impl Radix<2> for R2 {
        #[inline(always)]
        unsafe fn bfly([a0, a1]: [__m256d; 2]) -> [__m256d; 2] {
            [_mm256_add_pd(a0, a1), _mm256_sub_pd(a0, a1)]
        }
    }

    impl Radix<3> for R3 {
        #[inline(always)]
        unsafe fn bfly([a0, a1, a2]: [__m256d; 3]) -> [__m256d; 3] {
            let t1 = _mm256_add_pd(a1, a2);
            // i·S3·(a1 − a2): swap re/im, with the signs of `i·` folded
            // into the constant.
            let s3 = _mm256_setr_pd(-S3, S3, -S3, S3);
            let v = _mm256_mul_pd(s3, _mm256_permute_pd(_mm256_sub_pd(a1, a2), 0x5));
            let b = _mm256_fnmadd_pd(_mm256_set1_pd(0.5), t1, a0);
            [
                _mm256_add_pd(a0, t1),
                _mm256_sub_pd(b, v),
                _mm256_add_pd(b, v),
            ]
        }
    }

    impl Radix<4> for R4 {
        #[inline(always)]
        unsafe fn bfly([a0, a1, a2, a3]: [__m256d; 4]) -> [__m256d; 4] {
            let t0 = _mm256_add_pd(a0, a2);
            let t1 = _mm256_sub_pd(a0, a2);
            let t2 = _mm256_add_pd(a1, a3);
            // i·(a1 − a3) = (−im, re).
            let sign = _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
            let t3 = _mm256_xor_pd(_mm256_permute_pd(_mm256_sub_pd(a1, a3), 0x5), sign);
            [
                _mm256_add_pd(t0, t2),
                _mm256_sub_pd(t1, t3),
                _mm256_sub_pd(t0, t2),
                _mm256_add_pd(t1, t3),
            ]
        }
    }

    impl Radix<5> for R5 {
        #[inline(always)]
        unsafe fn bfly([a0, a1, a2, a3, a4]: [__m256d; 5]) -> [__m256d; 5] {
            let t1 = _mm256_add_pd(a1, a4);
            let t2 = _mm256_add_pd(a2, a3);
            // The differences enter only through `i·(…)`: swap re/im once
            // here and fold the signs into the sine constants.
            let t3 = _mm256_permute_pd(_mm256_sub_pd(a1, a4), 0x5);
            let t4 = _mm256_permute_pd(_mm256_sub_pd(a2, a3), 0x5);
            let (c1, c2) = (_mm256_set1_pd(C1), _mm256_set1_pd(C2));
            let s1 = _mm256_setr_pd(-S1, S1, -S1, S1);
            let s2 = _mm256_setr_pd(-S2, S2, -S2, S2);
            let b1 = _mm256_fmadd_pd(c1, t1, _mm256_fmadd_pd(c2, t2, a0));
            let b2 = _mm256_fmadd_pd(c2, t1, _mm256_fmadd_pd(c1, t2, a0));
            // v1 = i·(S1·(a1−a4) + S2·(a2−a3)), v2 = i·(S2·(a1−a4) − S1·(a2−a3)).
            let v1 = _mm256_fmadd_pd(s1, t3, _mm256_mul_pd(s2, t4));
            let v2 = _mm256_fmsub_pd(s2, t3, _mm256_mul_pd(s1, t4));
            [
                _mm256_add_pd(a0, _mm256_add_pd(t1, t2)),
                _mm256_sub_pd(b1, v1),
                _mm256_sub_pd(b2, v2),
                _mm256_add_pd(b2, v2),
                _mm256_add_pd(b1, v1),
            ]
        }
    }

    /// # Safety
    /// The host must support AVX2 and FMA, and the shapes must satisfy the
    /// asserts of [`super::stockham_pass`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn stockham_pass(
        src: &[Complex],
        dst: &mut [Complex],
        p: usize,
        s: usize,
        tw: &[Complex],
    ) {
        match p {
            2 => pass::<2, R2>(src, dst, s, tw),
            3 => pass::<3, R3>(src, dst, s, tw),
            4 => pass::<4, R4>(src, dst, s, tw),
            _ => pass::<5, R5>(src, dst, s, tw),
        }
    }

    /// See [`super::stockham_pass`].
    ///
    /// # Safety
    /// Only for inlining into an AVX2+FMA function, with the shapes the
    /// dispatcher asserts: `src.len() == dst.len() == P·s·m` and `tw`
    /// empty or `(P−1)·m` long. Every index below stays under those
    /// lengths: a vector touches elements `i, i+1` only when `i+1` is
    /// still inside its row (`j+1 < m` on the first pass, `q+1 < s` after).
    #[inline(always)]
    unsafe fn pass<const P: usize, B: Radix<P>>(
        src: &[Complex],
        dst: &mut [Complex],
        s: usize,
        tw: &[Complex],
    ) {
        let m = src.len() / (P * s);
        let sp = src.as_ptr();
        let tp = tw.as_ptr();
        let twiddled = !tw.is_empty();
        let mut a = [_mm256_setzero_pd(); P];
        if s == 1 {
            // First pass: rows `j, j+1` share a register. Inputs and
            // twiddles are contiguous pairs. Row `j`'s outputs are
            // contiguous, so adjacent output indices `k, k+1` are
            // regrouped by 128-bit lane into one full store per row.
            let dp = dst.as_mut_ptr();
            let mut j = 0;
            while j + 1 < m {
                for (r, v) in a.iter_mut().enumerate() {
                    *v = load(sp.add(j + r * m));
                }
                let mut y = B::bfly(a);
                if twiddled {
                    for (k, v) in y.iter_mut().enumerate().skip(1) {
                        *v = cmul::<false>(*v, load(tp.add((k - 1) * m + j)));
                    }
                }
                let (row0, row1) = (dp.add(P * j), dp.add(P * (j + 1)));
                for k in (0..P - 1).step_by(2) {
                    store(row0.add(k), _mm256_permute2f128_pd(y[k], y[k + 1], 0x20));
                    store(row1.add(k), _mm256_permute2f128_pd(y[k], y[k + 1], 0x31));
                }
                if P % 2 == 1 {
                    let v = y[P - 1];
                    _mm_storeu_pd(row0.add(P - 1) as *mut f64, _mm256_castpd256_pd128(v));
                    _mm_storeu_pd(row1.add(P - 1) as *mut f64, _mm256_extractf128_pd::<1>(v));
                }
                j += 2;
            }
            if j < m {
                super::scalar::columns(src, dst, P, s, tw, j, 0..1);
            }
            return;
        }
        // Later passes: columns `q, q+1` share a register and each row's
        // twiddles are broadcast once.
        let even = s - s % 2;
        let rows = s * m;
        let mut wr = [_mm256_set1_pd(1.0); P];
        let mut wi = [_mm256_setzero_pd(); P];
        for j in 0..m {
            if twiddled {
                for k in 1..P {
                    let t = *tp.add((k - 1) * m + j);
                    wr[k] = _mm256_set1_pd(t.re);
                    wi[k] = _mm256_set1_pd(t.im);
                }
            }
            let src_j = sp.add(s * j);
            let dst_j = dst.as_mut_ptr().add(s * P * j);
            let mut q = 0;
            while q < even {
                for (r, v) in a.iter_mut().enumerate() {
                    *v = load(src_j.add(q + r * rows));
                }
                let mut y = B::bfly(a);
                if twiddled {
                    for k in 1..P {
                        y[k] = cmul_splat(y[k], wr[k], wi[k]);
                    }
                }
                for (k, &v) in y.iter().enumerate() {
                    store(dst_j.add(q + k * s), v);
                }
                q += 2;
            }
            if even < s {
                super::scalar::columns(src, dst, P, s, tw, j, even..s);
            }
        }
    }

    /// # Safety
    /// The host must support AVX2 and FMA; `out` must be non-empty, no
    /// longer than `2·z.len()`, and no longer than `unpack`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn unpack_band(out: &mut [Complex], z: &[Complex], unpack: &[Complex]) {
        // Bin 0 (its mirror is itself) and bins past `h` take the scalar
        // path; bins `k, k+1` in between read mirrors `h−k, h−k−1`, one
        // reversed pair.
        let h = z.len();
        let end = out.len().min(h);
        super::scalar::unpack_band(&mut out[..1], z, &unpack[..1], 0);
        let (zp, wp, op) = (z.as_ptr(), unpack.as_ptr(), out.as_mut_ptr());
        let conj = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        let half = _mm256_set1_pd(0.5);
        let mut k = 1;
        while k + 1 < end {
            let zk = load(zp.add(k));
            let mirror = load(zp.add(h - k - 1));
            let zr = _mm256_xor_pd(_mm256_permute2f128_pd(mirror, mirror, 0x01), conj);
            let e = _mm256_mul_pd(_mm256_add_pd(zk, zr), half);
            // −i·(zk − zr) = (im, −re).
            let od = _mm256_xor_pd(_mm256_permute_pd(_mm256_sub_pd(zk, zr), 0x5), conj);
            store(
                op.add(k),
                _mm256_add_pd(e, cmul::<false>(od, load(wp.add(k)))),
            );
            k += 2;
        }
        if k < out.len() {
            super::scalar::unpack_band(&mut out[k..], z, &unpack[k..], k);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn butterflies(
        a: &mut [Complex],
        b: &mut [Complex],
        tw: &[Complex],
        conj: bool,
    ) {
        let n = a.len();
        let pairs = n / 2;
        let ap = a.as_mut_ptr();
        let bp = b.as_mut_ptr();
        let tp = tw.as_ptr();
        if conj {
            for k in 0..pairs {
                let y = cmul::<true>(load(bp.add(2 * k)), load(tp.add(2 * k)));
                let x = load(ap.add(2 * k));
                store(ap.add(2 * k), _mm256_add_pd(x, y));
                store(bp.add(2 * k), _mm256_sub_pd(x, y));
            }
        } else {
            for k in 0..pairs {
                let y = cmul::<false>(load(bp.add(2 * k)), load(tp.add(2 * k)));
                let x = load(ap.add(2 * k));
                store(ap.add(2 * k), _mm256_add_pd(x, y));
                store(bp.add(2 * k), _mm256_sub_pd(x, y));
            }
        }
        super::scalar::butterflies(
            &mut a[2 * pairs..],
            &mut b[2 * pairs..],
            &tw[2 * pairs..n],
            conj,
        );
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_stage(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
        if half == 1 {
            // The first rank's lone twiddle is 1 (conjugation included):
            // `(a, b) ← (a + b, a − b)`. Two adjacent blocks are four
            // complex values — shuffle into ([a0, a1], [b0, b1]) halves,
            // add/sub, shuffle back.
            let n = data.len();
            let quads = n / 4;
            let dp = data.as_mut_ptr();
            for i in 0..quads {
                let v0 = load(dp.add(4 * i)); // [a0, b0]
                let v1 = load(dp.add(4 * i + 2)); // [a1, b1]
                let a = _mm256_permute2f128_pd(v0, v1, 0x20); // [a0, a1]
                let b = _mm256_permute2f128_pd(v0, v1, 0x31); // [b0, b1]
                let sum = _mm256_add_pd(a, b);
                let diff = _mm256_sub_pd(a, b);
                store(dp.add(4 * i), _mm256_permute2f128_pd(sum, diff, 0x20));
                store(dp.add(4 * i + 2), _mm256_permute2f128_pd(sum, diff, 0x31));
            }
            for block in data[4 * quads..].chunks_exact_mut(2) {
                let (x, y) = (block[0], block[1]);
                block[0] = x + y;
                block[1] = x - y;
            }
            return;
        }
        for block in data.chunks_exact_mut(2 * half) {
            let (a, b) = block.split_at_mut(half);
            butterflies(a, b, &tw[..half], conj);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_stage_dif(
        data: &mut [Complex],
        half: usize,
        tw: &[Complex],
        conj: bool,
    ) {
        if half == 1 {
            // The last DIF rank's lone twiddle is 1, so it is the same
            // add/sub shuffle as the first DIT rank.
            fft_stage(data, 1, tw, conj);
            return;
        }
        let pairs = half / 2;
        for block in data.chunks_exact_mut(2 * half) {
            let (a, b) = block.split_at_mut(half);
            let ap = a.as_mut_ptr();
            let bp = b.as_mut_ptr();
            let tp = tw.as_ptr();
            if conj {
                for k in 0..pairs {
                    let x = load(ap.add(2 * k));
                    let y = load(bp.add(2 * k));
                    store(ap.add(2 * k), _mm256_add_pd(x, y));
                    let d = _mm256_sub_pd(x, y);
                    store(bp.add(2 * k), cmul::<true>(d, load(tp.add(2 * k))));
                }
            } else {
                for k in 0..pairs {
                    let x = load(ap.add(2 * k));
                    let y = load(bp.add(2 * k));
                    store(ap.add(2 * k), _mm256_add_pd(x, y));
                    let d = _mm256_sub_pd(x, y);
                    store(bp.add(2 * k), cmul::<false>(d, load(tp.add(2 * k))));
                }
            }
            for k in 2 * pairs..half {
                let t = if conj { tw[k].conj() } else { tw[k] };
                let x = a[k];
                let y = b[k];
                a[k] = x + y;
                b[k] = (x - y) * t;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_two_stages(
        data: &mut [Complex],
        h: usize,
        tw1: &[Complex],
        tw2: &[Complex],
        conj: bool,
    ) {
        // `h` is a power of two ≥ 2, so the k-loop (step 2 complex) has no
        // tail and every pointer below stays in bounds.
        let t1p = tw1.as_ptr();
        let t2p = tw2.as_ptr();
        for block in data.chunks_exact_mut(4 * h) {
            let dp = block.as_mut_ptr();
            macro_rules! body {
                ($conj:literal) => {
                    for k in (0..h).step_by(2) {
                        let t1 = load(t1p.add(k));
                        let x0 = load(dp.add(k));
                        let x1 = cmul::<$conj>(load(dp.add(k + h)), t1);
                        let x2 = load(dp.add(k + 2 * h));
                        let x3 = cmul::<$conj>(load(dp.add(k + 3 * h)), t1);
                        let y0 = _mm256_add_pd(x0, x1);
                        let y1 = _mm256_sub_pd(x0, x1);
                        let u2 = cmul::<$conj>(_mm256_add_pd(x2, x3), load(t2p.add(k)));
                        let u3 = cmul::<$conj>(_mm256_sub_pd(x2, x3), load(t2p.add(k + h)));
                        store(dp.add(k), _mm256_add_pd(y0, u2));
                        store(dp.add(k + 2 * h), _mm256_sub_pd(y0, u2));
                        store(dp.add(k + h), _mm256_add_pd(y1, u3));
                        store(dp.add(k + 3 * h), _mm256_sub_pd(y1, u3));
                    }
                };
            }
            if conj {
                body!(true);
            } else {
                body!(false);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_two_stages_dif(
        data: &mut [Complex],
        h: usize,
        tw1: &[Complex],
        tw2: &[Complex],
        conj: bool,
    ) {
        let t1p = tw1.as_ptr();
        let t2p = tw2.as_ptr();
        for block in data.chunks_exact_mut(4 * h) {
            let dp = block.as_mut_ptr();
            macro_rules! body {
                ($conj:literal) => {
                    for k in (0..h).step_by(2) {
                        let x0 = load(dp.add(k));
                        let x1 = load(dp.add(k + h));
                        let x2 = load(dp.add(k + 2 * h));
                        let x3 = load(dp.add(k + 3 * h));
                        let y0 = _mm256_add_pd(x0, x2);
                        let y2 = cmul::<$conj>(_mm256_sub_pd(x0, x2), load(t2p.add(k)));
                        let y1 = _mm256_add_pd(x1, x3);
                        let y3 = cmul::<$conj>(_mm256_sub_pd(x1, x3), load(t2p.add(k + h)));
                        let t1 = load(t1p.add(k));
                        store(dp.add(k), _mm256_add_pd(y0, y1));
                        store(dp.add(k + h), cmul::<$conj>(_mm256_sub_pd(y0, y1), t1));
                        store(dp.add(k + 2 * h), _mm256_add_pd(y2, y3));
                        store(dp.add(k + 3 * h), cmul::<$conj>(_mm256_sub_pd(y2, y3), t1));
                    }
                };
            }
            if conj {
                body!(true);
            } else {
                body!(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complexes(n: usize, seed: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.37 + seed).cos(),
                    (i as f64 * 0.91 - seed).sin(),
                )
            })
            .collect()
    }

    fn close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() <= tol, "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_reference() {
        // Odd lengths force the tail path on every kernel.
        for n in [0usize, 1, 2, 3, 7, 16, 33, 250] {
            let k = complexes(n, 0.3);
            let mut a = complexes(n, 1.1);
            let mut r = a.clone();
            pointwise_mul(&mut a, &k, false);
            scalar::pointwise_mul(&mut r, &k, false);
            close(&a, &r, 1e-12 * (n + 1) as f64);

            let mut a = complexes(n, 2.2);
            let mut r = a.clone();
            pointwise_mul(&mut a, &k, true);
            scalar::pointwise_mul(&mut r, &k, true);
            close(&a, &r, 1e-12 * (n + 1) as f64);

            let q: Vec<i32> = (0..2 * n)
                .map(|i| (i as i32 * 7919) % 65_537 - 32_768)
                .collect();
            let mut a = vec![Complex::ZERO; n];
            let mut r = a.clone();
            pack_dequant(&mut a, &q, 1.0 / 32_768.0);
            scalar::pack_dequant(&mut r, &q, 1.0 / 32_768.0);
            close(&a, &r, 0.0);
        }
    }

    #[test]
    fn unpack_band_matches_scalar_for_every_band_shape() {
        // Bands shorter than, equal to and past `h`, odd and even, so the
        // vector pairs, the bin-0 special case and both tails all run.
        for h in [1usize, 2, 3, 8, 25, 125] {
            let z = complexes(h, 0.8);
            let w = complexes(2 * h, 2.1);
            for keep in [1, 2, 3, h, h + 1, 2 * h - 1, 2 * h] {
                if keep == 0 || keep > 2 * h {
                    continue;
                }
                let mut a = vec![Complex::ZERO; keep];
                let mut r = vec![Complex::ZERO; keep];
                unpack_band(&mut a, &z, &w[..keep]);
                scalar::unpack_band(&mut r, &z, &w[..keep], 0);
                close(&a, &r, 1e-12);
            }
        }
    }

    /// The direct DFT of each radix-`p` column, for checking the
    /// butterflies themselves.
    fn dft_column(a: &[Complex]) -> Vec<Complex> {
        let p = a.len();
        (0..p)
            .map(|k| {
                a.iter()
                    .enumerate()
                    .map(|(r, &x)| {
                        x * Complex::cis(-2.0 * std::f64::consts::PI * (r * k) as f64 / p as f64)
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn stockham_passes_match_scalar_and_the_dft() {
        // Even and odd strides and row counts exercise the vector body and
        // both scalar tails; an empty table means unit twiddles.
        for p in 2..=5usize {
            for (s, m) in [
                (1usize, 1usize),
                (1, 6),
                (1, 7),
                (2, 3),
                (3, 2),
                (10, 5),
                (5, 1),
            ] {
                let n = p * s * m;
                let src = complexes(n, 0.2 * p as f64);
                let tw = complexes((p - 1) * m, 1.3);
                for table in [&tw[..], &[]] {
                    let mut a = vec![Complex::ZERO; n];
                    let mut r = vec![Complex::ZERO; n];
                    stockham_pass(&src, &mut a, p, s, table);
                    scalar::stockham_pass(&src, &mut r, p, s, table);
                    close(&a, &r, 1e-12);
                    for j in 0..m {
                        for q in 0..s {
                            let column: Vec<Complex> =
                                (0..p).map(|k| src[q + s * (j + k * m)]).collect();
                            for (k, y) in dft_column(&column).into_iter().enumerate() {
                                let w = if k == 0 || table.is_empty() {
                                    Complex::ONE
                                } else {
                                    table[(k - 1) * m + j]
                                };
                                let got = r[q + s * (p * j + k)];
                                assert!(
                                    (got - y * w).abs() < 1e-12,
                                    "p={p} s={s} m={m} j={j} q={q} k={k}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_point_kernels_are_bit_exact_across_paths() {
        for n in [0usize, 1, 15, 16, 17, 100, 2500] {
            let samples: Vec<i16> = (0..n).map(|i| ((i * 2731 + 7) % 65536) as i16).collect();
            let win: Vec<i16> = (0..n).map(|i| ((i * 911) % 32768) as i16).collect();
            let mut a = vec![3i32; n];
            let mut r = a.clone();
            window_accum_q(&mut a, &samples, &win);
            scalar::window_accum_q(&mut r, &samples, &win);
            assert_eq!(a, r, "n={n}");
        }
    }

    fn stage_tw(half: usize) -> Vec<Complex> {
        (0..half)
            .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / half as f64))
            .collect()
    }

    #[test]
    fn whole_stage_kernels_match_scalar() {
        // Multiple blocks per stage, including the specialized half == 1
        // pass (with a non-multiple-of-4 total so its scalar tail runs).
        for (n, half) in [(2usize, 1usize), (8, 1), (6, 1), (8, 2), (16, 4), (48, 8)] {
            let tw = stage_tw(half);
            for conj in [false, true] {
                let mut a = complexes(n, 0.4);
                let mut r = a.clone();
                fft_stage(&mut a, half, &tw, conj);
                scalar::fft_stage(&mut r, half, &tw, conj);
                close(&a, &r, 1e-12 * (n + 1) as f64);

                let mut a = complexes(n, 1.9);
                let mut r = a.clone();
                fft_stage_dif(&mut a, half, &tw, conj);
                scalar::fft_stage_dif(&mut r, half, &tw, conj);
                close(&a, &r, 1e-12 * (n + 1) as f64);
            }
        }
    }

    #[test]
    fn fused_two_stage_passes_match_single_stages() {
        // The radix-2² fusion must equal running the two ranks it covers
        // back-to-back through the scalar single-stage reference.
        for (n, h) in [(8usize, 2usize), (16, 2), (16, 4), (64, 8), (256, 16)] {
            let tw1 = stage_tw(h);
            let tw2 = stage_tw(2 * h);
            for conj in [false, true] {
                let mut a = complexes(n, 0.6);
                let mut r = a.clone();
                fft_two_stages(&mut a, h, &tw1, &tw2, conj);
                scalar::fft_stage(&mut r, h, &tw1, conj);
                scalar::fft_stage(&mut r, 2 * h, &tw2, conj);
                close(&a, &r, 1e-12 * (n + 1) as f64);

                let mut a = complexes(n, 2.4);
                let mut r = a.clone();
                fft_two_stages_dif(&mut a, h, &tw1, &tw2, conj);
                scalar::fft_stage_dif(&mut r, 2 * h, &tw2, conj);
                scalar::fft_stage_dif(&mut r, h, &tw1, conj);
                close(&a, &r, 1e-12 * (n + 1) as f64);

                // The scalar fused variants against the same references.
                let mut a = complexes(n, 0.6);
                let mut r = a.clone();
                scalar::fft_two_stages(&mut a, h, &tw1, &tw2, conj);
                scalar::fft_stage(&mut r, h, &tw1, conj);
                scalar::fft_stage(&mut r, 2 * h, &tw2, conj);
                close(&a, &r, 1e-12 * (n + 1) as f64);

                let mut a = complexes(n, 2.4);
                let mut r = a.clone();
                scalar::fft_two_stages_dif(&mut a, h, &tw1, &tw2, conj);
                scalar::fft_stage_dif(&mut r, 2 * h, &tw2, conj);
                scalar::fft_stage_dif(&mut r, h, &tw1, conj);
                close(&a, &r, 1e-12 * (n + 1) as f64);
            }
        }
    }

    #[test]
    fn selection_is_stable_and_reported() {
        let first = active();
        assert_eq!(first, active(), "path must not change once selected");
        assert!(first.lanes() >= 1);
    }
}
