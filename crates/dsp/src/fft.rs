//! Fast Fourier transforms at any length, and the real-input band
//! transform behind every range profile.
//!
//! The FMCW receiver "takes an FFT of the received signal in baseband over
//! every sweep period" (paper §4.1, §7). A sweep is 2.5 ms sampled at
//! 1 MS/s = **2500 samples** — not a power of two. Zero-padding to 4096
//! would change the bin spacing away from the paper's 1/T_sweep = 400 Hz
//! (and thus away from the C/2B = 8.87 cm range bins of Eq. 3), so a plan
//! picks its algorithm from the factors of `n`:
//!
//! * **powers of two** run an iterative, in-place radix-2 Cooley–Tukey
//!   transform (adjacent ranks fused two to a memory pass);
//! * **5-smooth lengths** (`n = 2^a·3^b·5^c`, which covers every sweep
//!   length the repository configures: 2500 = 2²·5⁴, 250, 100) run a
//!   **mixed-radix Stockham** transform with radix-4/2/3/5 passes. The
//!   Stockham form ping-pongs between two buffers and leaves the spectrum
//!   in natural order, so there is no digit-reversal pass;
//! * **anything else** (a prime factor above 5) falls back to Bluestein's
//!   chirp-Z identity, a circular convolution evaluated with the radix-2
//!   core. It is private to this module and only reachable through
//!   [`Fft`].
//!
//! A [`Fft`] value owns its scratch and shares the immutable tables
//! (twiddles, chirps) with every other plan of the same length through a
//! process-wide plan cache, so per-call work is allocation-free.
//!
//! [`RealBand`] is the range profiler's transform: bins `0..keep` of the
//! DFT of a real signal of even length `n`. It packs the `n` reals into
//! `n/2` complex points `z[t] = x[2t] + i·x[2t+1]`, runs **one** `n/2`-point
//! complex transform, and unpacks only the kept bins with the two-for-one
//! split `X[k] = E[k] + W_n^k·O[k]`. At the paper shape that is one
//! 1250 = 2·5⁴ point transform (five Stockham passes) per antenna-frame.

use crate::complex::Complex;
use crate::plan_cache::PlanCache;
use crate::simd;
use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// A reusable FFT plan for a fixed length `n ≥ 1`.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    core: Arc<Core>,
    /// Per-instance working memory (the Stockham ping-pong buffer or the
    /// Bluestein convolution buffer; empty for radix-2).
    scratch: Vec<Complex>,
}

/// The immutable tables of one transform length, shared process-wide.
#[derive(Debug)]
enum Core {
    Radix2(Radix2Plan),
    Mixed(MixedRadixPlan),
    Bluestein(Bluestein),
}

/// Process-wide registry of shared transform cores, by length.
static CORES: OnceLock<PlanCache<usize, Core>> = OnceLock::new();

impl Core {
    fn shared(n: usize) -> Arc<Core> {
        CORES
            .get_or_init(PlanCache::new)
            .get_or_build(n, || Core::new(n))
    }

    fn new(n: usize) -> Core {
        if n.is_power_of_two() {
            Core::Radix2(Radix2Plan::new(n))
        } else if let Some(radices) = smooth_radices(n) {
            Core::Mixed(MixedRadixPlan::new(n, &radices))
        } else {
            Core::Bluestein(Bluestein::new(n))
        }
    }

    /// Working memory a caller must pass to [`Core::forward`].
    fn scratch_len(&self) -> usize {
        match self {
            Core::Radix2(_) => 0,
            Core::Mixed(p) => p.n,
            Core::Bluestein(b) => b.m,
        }
    }

    /// Forward transform of `data`. Returns `true` when the spectrum was
    /// left in `scratch[..n]` instead of `data` (a Stockham plan with an
    /// odd number of passes), so callers that only read it skip a copy.
    fn forward(&self, data: &mut [Complex], scratch: &mut [Complex]) -> bool {
        match self {
            Core::Radix2(p) => {
                p.transform(data, Direction::Forward);
                false
            }
            Core::Mixed(p) => p.forward(data, &mut scratch[..p.n]),
            Core::Bluestein(b) => {
                b.transform(data, scratch, Direction::Forward);
                false
            }
        }
    }

    /// Unnormalized inverse transform; same return convention as
    /// [`Core::forward`].
    fn inverse(&self, data: &mut [Complex], scratch: &mut [Complex]) -> bool {
        match self {
            Core::Radix2(p) => {
                p.transform(data, Direction::Inverse);
                false
            }
            Core::Mixed(p) => {
                // The Stockham passes are forward-only:
                // inverse(x) = conj(forward(conj(x))).
                conj_in_place(data);
                let in_scratch = p.forward(data, &mut scratch[..p.n]);
                conj_in_place(if in_scratch {
                    &mut scratch[..p.n]
                } else {
                    data
                });
                in_scratch
            }
            Core::Bluestein(b) => {
                b.transform(data, scratch, Direction::Inverse);
                false
            }
        }
    }

    /// The radices of the passes this core runs (empty for Bluestein).
    fn radices(&self) -> Vec<usize> {
        match self {
            Core::Radix2(p) => vec![2; p.bitrev.len().trailing_zeros() as usize],
            Core::Mixed(p) => p.passes.iter().map(|s| s.radix).collect(),
            Core::Bluestein(_) => Vec::new(),
        }
    }
}

fn conj_in_place(data: &mut [Complex]) {
    for z in data {
        z.im = -z.im;
    }
}

/// The pass radices of a 5-smooth `n`, or `None` when `n` has a prime
/// factor above 5. Radix-4 and radix-2 passes go first: every later pass
/// then has an even stride, which the vector kernels process two columns
/// at a time without a scalar tail.
fn smooth_radices(mut n: usize) -> Option<Vec<usize>> {
    let mut radices = Vec::new();
    while n.is_multiple_of(4) {
        radices.push(4);
        n /= 4;
    }
    if n.is_multiple_of(2) {
        radices.push(2);
        n /= 2;
    }
    for p in [3, 5] {
        while n.is_multiple_of(p) {
            radices.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(radices)
}

#[derive(Debug)]
struct Radix2Plan {
    /// Per-stage contiguous twiddle tables, concatenated: the stage with
    /// half-length `h` (`h = 1, 2, 4, …, n/2`) owns `stage_tw[h−1..2h−1]`,
    /// holding `e^{-2πik/2h}` for `k < h` (forward direction). Laying the
    /// stage's twiddles out contiguously — instead of striding through one
    /// length-`n/2` table — lets the butterfly kernel stream them with
    /// vector loads. Total size `n − 1`.
    stage_tw: Vec<Complex>,
    /// Bit-reversal permutation.
    bitrev: Vec<u32>,
}

impl Radix2Plan {
    fn new(n: usize) -> Radix2Plan {
        debug_assert!(n.is_power_of_two());
        let mut stage_tw = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            let len = 2 * half;
            stage_tw.extend((0..half).map(|k| Complex::cis(-2.0 * PI * k as f64 / len as f64)));
            half *= 2;
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Radix2Plan { stage_tw, bitrev }
    }

    /// In-place transform. `dir` selects conjugated twiddles for the inverse;
    /// the caller applies 1/n scaling for inverse transforms.
    fn transform(&self, data: &mut [Complex], dir: Direction) {
        let n = data.len();
        debug_assert_eq!(n, self.bitrev.len());
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        // Butterflies: each stage reads its own contiguous twiddle table
        // and hands the whole rank to the vectorized kernel in one call —
        // the per-block loop runs inside the selected path, so the narrow
        // early ranks (1024 one-butterfly blocks at `half == 1` for
        // n = 2048) don't pay a dispatch per block.
        self.dit_ladder(data, dir == Direction::Inverse);
    }

    /// Forward decimation-in-frequency transform with **no** bit-reversal
    /// pass: natural-order input, bit-reversed-order spectrum. Paired with
    /// [`Self::inverse_noperm`] around an order-agnostic pointwise multiply,
    /// both permutations cancel — the Bluestein convolution uses exactly
    /// that.
    fn forward_noperm(&self, data: &mut [Complex]) {
        debug_assert_eq!(data.len(), self.bitrev.len());
        self.dif_ladder(data, false);
    }

    /// Inverse decimation-in-time transform consuming **bit-reversed**
    /// input (as produced by [`Self::forward_noperm`]) and yielding
    /// natural-order output. No 1/n scaling — the caller folds it in.
    fn inverse_noperm(&self, data: &mut [Complex]) {
        debug_assert_eq!(data.len(), self.bitrev.len());
        self.dit_ladder(data, true);
    }

    /// Narrow-to-wide butterfly ranks with adjacent ranks fused two to a
    /// memory pass (radix-2²): rank 1 runs alone through the specialized
    /// add/sub kernel, then `(2,4), (8,16), …` pairs, then at most one
    /// leftover widest rank.
    fn dit_ladder(&self, data: &mut [Complex], conj: bool) {
        let n = data.len();
        if n < 2 {
            return;
        }
        simd::fft_stage(data, 1, &self.stage_tw[0..1], conj);
        let mut half = 2;
        while 4 * half <= n {
            let tw1 = &self.stage_tw[half - 1..2 * half - 1];
            let tw2 = &self.stage_tw[2 * half - 1..4 * half - 1];
            simd::fft_two_stages(data, half, tw1, tw2, conj);
            half *= 4;
        }
        if 2 * half <= n {
            let tw = &self.stage_tw[half - 1..2 * half - 1];
            simd::fft_stage(data, half, tw, conj);
        }
    }

    /// Wide-to-narrow DIF ranks, fused pairwise like [`Self::dit_ladder`]:
    /// `(n/2, n/4), …` down to a possible lone rank 2, with rank 1 always
    /// last through the specialized add/sub kernel.
    fn dif_ladder(&self, data: &mut [Complex], conj: bool) {
        let n = data.len();
        if n < 2 {
            return;
        }
        let mut half = n / 2;
        while half >= 4 {
            let tw1 = &self.stage_tw[half / 2 - 1..half - 1];
            let tw2 = &self.stage_tw[half - 1..2 * half - 1];
            simd::fft_two_stages_dif(data, half / 2, tw1, tw2, conj);
            half /= 4;
        }
        if half == 2 {
            simd::fft_stage_dif(data, 2, &self.stage_tw[1..3], conj);
        }
        simd::fft_stage_dif(data, 1, &self.stage_tw[0..1], conj);
    }
}

/// A mixed-radix decimation-in-frequency Stockham plan for a 5-smooth
/// length. Pass `i` has radix `p`, stride `s` (the product of the earlier
/// radices) and sub-transform length `len = n/s`; with `m = len/p` it maps
///
/// `dst[q + s·(p·j + k)] = W_len^{j·k} · Σ_r src[q + s·(j + r·m)]·W_p^{r·k}`
///
/// for `j < m`, `q < s`, `k < p`. After the last pass the spectrum is in
/// natural order.
#[derive(Debug)]
struct MixedRadixPlan {
    n: usize,
    passes: Vec<StockhamPass>,
}

#[derive(Debug)]
struct StockhamPass {
    radix: usize,
    stride: usize,
    /// `tw[(k−1)·m + j] = W_len^{j·k}` for `1 ≤ k < p`, `j < m`; empty when
    /// `m == 1` (every twiddle is 1).
    tw: Vec<Complex>,
}

impl MixedRadixPlan {
    fn new(n: usize, radices: &[usize]) -> MixedRadixPlan {
        let mut stride = 1;
        let passes = radices
            .iter()
            .map(|&radix| {
                let len = n / stride;
                let m = len / radix;
                let tw = if m > 1 {
                    (1..radix)
                        .flat_map(|k| {
                            (0..m)
                                .map(move |j| Complex::cis(-2.0 * PI * (j * k) as f64 / len as f64))
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let pass = StockhamPass { radix, stride, tw };
                stride *= radix;
                pass
            })
            .collect();
        MixedRadixPlan { n, passes }
    }

    /// Runs every pass, ping-ponging between `a` (which holds the input)
    /// and `b`. Returns `true` when the spectrum ends in `b`.
    fn forward(&self, a: &mut [Complex], b: &mut [Complex]) -> bool {
        let mut in_b = false;
        for pass in &self.passes {
            let (src, dst) = if in_b { (&*b, &mut *a) } else { (&*a, &mut *b) };
            simd::stockham_pass(src, dst, pass.radix, pass.stride, &pass.tw);
            in_b = !in_b;
        }
        in_b
    }
}

/// Bluestein's chirp-Z identity for lengths with a prime factor above 5:
/// `X[k] = c[k] · Σ_j (x[j]·c[j]) · conj(c[k−j])` with `c[t] = e^{-iπt²/n}`,
/// the sum evaluated as a circular convolution of power-of-two length
/// `m ≥ 2n − 1`.
#[derive(Debug)]
struct Bluestein {
    n: usize,
    m: usize,
    inner: Radix2Plan,
    /// `chirp[t] = e^{-iπt²/n}`, the pre- and post-multiply.
    chirp: Vec<Complex>,
    /// Forward transform of the circularly laid-out kernel
    /// `conj(chirp[|u|])`, `u ∈ (−n, n)`, with the inverse transform's
    /// `1/m` folded in. Stored in the bit-reversed order `forward_noperm`
    /// leaves the data in, so neither side of the pointwise multiply pays
    /// a permutation pass.
    kernel_fft: Vec<Complex>,
}

impl Bluestein {
    fn new(n: usize) -> Bluestein {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2Plan::new(m);
        // `t²` is reduced mod `2n` (the chirp's period in `t²`) so large
        // `t` keeps full precision.
        let chirp: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(-PI * ((t * t) % (2 * n)) as f64 / n as f64))
            .collect();
        let inv_m = 1.0 / m as f64;
        let mut kernel = vec![Complex::ZERO; m];
        for (t, c) in chirp.iter().enumerate() {
            kernel[t] = c.conj().scale(inv_m);
            if t > 0 {
                kernel[m - t] = kernel[t];
            }
        }
        inner.forward_noperm(&mut kernel);
        Bluestein {
            n,
            m,
            inner,
            chirp,
            kernel_fft: kernel,
        }
    }

    /// In-place transform of `data` through the convolution buffer `buf`
    /// (length `m`). The inverse direction conjugates every chirp and the
    /// kernel; the caller applies any 1/n normalization.
    fn transform(&self, data: &mut [Complex], buf: &mut [Complex], dir: Direction) {
        let conj = dir == Direction::Inverse;
        let buf = &mut buf[..self.m];
        simd::pointwise_mul_into(&mut buf[..self.n], data, &self.chirp, conj);
        buf[self.n..].fill(Complex::ZERO);
        // DIF forward / DIT inverse with no bit-reversal passes: the
        // spectrum is bit-reversed in between, but the pointwise product
        // is order-agnostic. The kernel is even in `u`, so conjugating its
        // transform is exactly the transform of the conjugated kernel.
        self.inner.forward_noperm(buf);
        simd::pointwise_mul(buf, &self.kernel_fft, conj);
        self.inner.inverse_noperm(buf);
        simd::pointwise_mul_into(data, &buf[..self.n], &self.chirp, conj);
    }
}

impl Fft {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Fft {
        assert!(n > 0, "FFT length must be positive");
        let core = Core::shared(n);
        let scratch = vec![Complex::ZERO; core.scratch_len()];
        Fft { n, core, scratch }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-2πikn/N}`.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&mut self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan");
        if self.core.forward(data, &mut self.scratch) {
            data.copy_from_slice(&self.scratch[..self.n]);
        }
    }

    /// In-place inverse DFT (with 1/N normalization), the exact inverse of
    /// [`Fft::forward`].
    pub fn inverse(&mut self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan");
        if self.core.inverse(data, &mut self.scratch) {
            data.copy_from_slice(&self.scratch[..self.n]);
        }
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }

    /// Forward DFT of `input` written into `out` (the in-place equivalent of
    /// [`Fft::forward`] for callers that must keep the input intact). Never
    /// allocates after plan creation.
    ///
    /// # Panics
    /// Panics if either slice length differs from the plan length.
    pub fn forward_into(&mut self, input: &[Complex], out: &mut [Complex]) {
        assert_eq!(input.len(), self.n, "input length must match plan");
        assert_eq!(out.len(), self.n, "output length must match plan");
        out.copy_from_slice(input);
        self.forward(out);
    }

    /// Forward DFT of a real signal written into caller-owned `out`. This is
    /// the allocation-free form of [`Fft::forward_real`]: after plan
    /// creation, repeated calls never touch the heap.
    ///
    /// # Panics
    /// Panics if either slice length differs from the plan length.
    pub fn forward_real_into(&mut self, signal: &[f64], out: &mut [Complex]) {
        assert_eq!(signal.len(), self.n, "signal length must match plan");
        assert_eq!(out.len(), self.n, "output length must match plan");
        for (o, &x) in out.iter_mut().zip(signal) {
            *o = Complex::real(x);
        }
        self.forward(out);
    }

    /// Convenience: forward-transforms a real signal, allocating the output.
    /// Hot paths should prefer [`Fft::forward_real_into`].
    pub fn forward_real(&mut self, signal: &[f64]) -> Vec<Complex> {
        assert_eq!(signal.len(), self.n, "buffer length must match plan");
        let mut out = vec![Complex::ZERO; self.n];
        self.forward_real_into(signal, &mut out);
        out
    }
}

/// A reusable plan computing bins `0 … keep−1` of the `n`-point DFT of a
/// real signal (see the module docs for the two-for-one packing). The plan
/// is immutable and process-shared by shape ([`RealBand::shared`]); per-call
/// state lives in a caller-owned [`BandScratch`], so one plan serves every
/// antenna of every sensor at a sweep configuration and the hot path never
/// allocates.
#[derive(Debug)]
pub struct RealBand {
    n: usize,
    keep: usize,
    /// The complex transform: length `n/2` for even `n` (packed input),
    /// length `n` for odd `n` (real input widened to complex).
    core: Arc<Core>,
    /// `W_n^k / 2` for `k < keep` — the odd-half rotation of the unpack
    /// (empty for odd `n`).
    unpack: Vec<Complex>,
}

/// Caller-owned working memory for [`RealBand`]: the packed input buffer
/// and the transform's scratch. Create one per stream with
/// [`RealBand::make_scratch`]; repeated transforms never reallocate it.
#[derive(Debug, Clone)]
pub struct BandScratch {
    /// Packed input; after the transform it may hold the spectrum.
    buf: Vec<Complex>,
    /// The core's working memory (the Stockham ping-pong buffer).
    work: Vec<Complex>,
}

impl BandScratch {
    /// Base pointer of the packed input buffer — lets tests assert the
    /// buffer is never reallocated across transforms.
    pub fn buf_ptr(&self) -> *const Complex {
        self.buf.as_ptr()
    }

    /// Capacity of the packed input buffer, for the same purpose.
    pub fn buf_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Base pointer of the transform's working buffer.
    pub fn work_ptr(&self) -> *const Complex {
        self.work.as_ptr()
    }

    /// Capacity of the transform's working buffer.
    pub fn work_capacity(&self) -> usize {
        self.work.capacity()
    }
}

/// Process-wide registry of shared [`RealBand`] plans, keyed by `(n, keep)`.
static SHARED_BANDS: OnceLock<PlanCache<(usize, usize), RealBand>> = OnceLock::new();

impl RealBand {
    /// The process-shared plan for `(n, keep)`: built on first request,
    /// then handed out as clones of one `Arc` for as long as any user
    /// holds it.
    ///
    /// # Panics
    /// Panics on the same degenerate shapes as [`RealBand::new`].
    pub fn shared(n: usize, keep: usize) -> Arc<RealBand> {
        SHARED_BANDS
            .get_or_init(PlanCache::new)
            .get_or_build((n, keep), || RealBand::new(n, keep))
    }

    /// Builds a plan for `keep` output bins over real inputs of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `keep == 0`, or `keep > n`.
    pub fn new(n: usize, keep: usize) -> RealBand {
        assert!(n > 0, "input length must be positive");
        assert!(keep > 0, "must keep at least one bin");
        assert!(keep <= n, "cannot keep more bins than the DFT has");
        if n.is_multiple_of(2) {
            let unpack = (0..keep)
                .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64).scale(0.5))
                .collect();
            RealBand {
                n,
                keep,
                core: Core::shared(n / 2),
                unpack,
            }
        } else {
            RealBand {
                n,
                keep,
                core: Core::shared(n),
                unpack: Vec::new(),
            }
        }
    }

    /// The real input length the plan expects.
    pub fn input_len(&self) -> usize {
        self.n
    }

    /// The number of DFT bins the plan produces.
    pub fn output_len(&self) -> usize {
        self.keep
    }

    /// The radices of the complex transform each call runs (`[2, 5, 5, 5,
    /// 5]` at the paper's 2500-sample sweep: one 1250-point transform).
    pub fn radices(&self) -> Vec<usize> {
        self.core.radices()
    }

    /// Allocates working memory sized for this plan.
    pub fn make_scratch(&self) -> BandScratch {
        BandScratch {
            buf: vec![Complex::ZERO; self.packed_len()],
            work: vec![Complex::ZERO; self.core.scratch_len()],
        }
    }

    /// Complex points the transform runs over: `n/2` packed, or `n` for
    /// odd `n`.
    fn packed_len(&self) -> usize {
        if self.unpack.is_empty() {
            self.n
        } else {
            self.n / 2
        }
    }

    /// Computes `out[k] = Σ_j signal[j]·e^{-2πijk/n}` for `k < keep`,
    /// allocation-free: all working state lives in `scratch`.
    ///
    /// # Panics
    /// Panics if `signal.len() != n`, `out.len() != keep`, or `scratch` was
    /// made for a different plan shape.
    pub fn forward_into(&self, signal: &[f64], out: &mut [Complex], scratch: &mut BandScratch) {
        assert_eq!(signal.len(), self.n, "signal length must match plan");
        self.check(out, scratch);
        if self.unpack.is_empty() {
            for (b, &x) in scratch.buf.iter_mut().zip(signal) {
                *b = Complex::real(x);
            }
        } else {
            for (b, pair) in scratch.buf.iter_mut().zip(signal.chunks_exact(2)) {
                *b = Complex::new(pair[0], pair[1]);
            }
        }
        self.finish(out, scratch);
    }

    /// The quantized twin of [`RealBand::forward_into`]: the same kept band
    /// from an `i32` fixed-point signal, dequantizing `signal_q[j] · scale`
    /// **inside** the packing pass, so the dequantized frame never exists
    /// as an `f64` array.
    ///
    /// # Panics
    /// Panics if `signal_q.len() != n`, `out.len() != keep`, or `scratch`
    /// was made for a different plan shape.
    pub fn forward_q_into(
        &self,
        signal_q: &[i32],
        scale: f64,
        out: &mut [Complex],
        scratch: &mut BandScratch,
    ) {
        assert_eq!(signal_q.len(), self.n, "signal length must match plan");
        self.check(out, scratch);
        if self.unpack.is_empty() {
            for (b, &q) in scratch.buf.iter_mut().zip(signal_q) {
                *b = Complex::real(q as f64 * scale);
            }
        } else {
            simd::pack_dequant(&mut scratch.buf, signal_q, scale);
        }
        self.finish(out, scratch);
    }

    /// Convenience wrapper that allocates the output and scratch — for
    /// tests and one-shot callers, not hot paths.
    pub fn forward(&self, signal: &[f64]) -> Vec<Complex> {
        let mut scratch = self.make_scratch();
        let mut out = vec![Complex::ZERO; self.keep];
        self.forward_into(signal, &mut out, &mut scratch);
        out
    }

    fn check(&self, out: &[Complex], scratch: &BandScratch) {
        assert_eq!(out.len(), self.keep, "output length must match plan");
        assert!(
            scratch.buf.len() == self.packed_len() && scratch.work.len() == self.core.scratch_len(),
            "scratch built for a different plan"
        );
    }

    /// Transforms the packed buffer and writes the kept bins.
    fn finish(&self, out: &mut [Complex], scratch: &mut BandScratch) {
        let in_work = self.core.forward(&mut scratch.buf, &mut scratch.work);
        let spectrum = if in_work {
            &scratch.work[..scratch.buf.len()]
        } else {
            &scratch.buf[..]
        };
        if self.unpack.is_empty() {
            out.copy_from_slice(&spectrum[..self.keep]);
        } else {
            simd::unpack_band(out, spectrum, &self.unpack);
        }
    }
}

/// Reference quadratic-time DFT, used by tests to validate the fast paths.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| data[j] * Complex::cis(-2.0 * PI * ((k * j) % n) as f64 / n as f64))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() <= tol, "bin {i}: {x} vs {y}");
        }
    }

    fn impulse(n: usize, at: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; n];
        v[at] = Complex::ONE;
        v
    }

    fn test_data(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).cos(), (i as f64 * 0.11).sin()))
            .collect()
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.3 * (i as f64 * 2.9).cos())
            .collect()
    }

    fn naive_band(signal: &[f64], keep: usize) -> Vec<Complex> {
        let data: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        let mut full = dft_naive(&data);
        full.truncate(keep);
        full
    }

    #[test]
    fn noperm_ladders_are_the_permuted_transform() {
        // forward_noperm yields the spectrum in bit-reversed order;
        // inverse_noperm consumes that order. Composed around nothing they
        // must reproduce n·identity, and un-permuting the forward output
        // must match the plain transform.
        for n in [2usize, 4, 8, 64, 512, 2048] {
            let plan = Radix2Plan::new(n);
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.53).sin(), (i as f64 * 0.29).cos()))
                .collect();

            let mut noperm = data.clone();
            plan.forward_noperm(&mut noperm);
            let mut unshuffled = vec![Complex::ZERO; n];
            for (i, &v) in noperm.iter().enumerate() {
                unshuffled[plan.bitrev[i] as usize] = v;
            }
            let mut plain = data.clone();
            plan.transform(&mut plain, Direction::Forward);
            spectrum_close(&unshuffled, &plain, 1e-9 * n as f64);

            plan.inverse_noperm(&mut noperm);
            let round: Vec<Complex> = noperm.iter().map(|v| *v / n as f64).collect();
            spectrum_close(&round, &data, 1e-9 * n as f64);
        }
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let data = test_data(n);
            let mut fast = data.clone();
            Fft::new(n).forward(&mut fast);
            spectrum_close(&fast, &dft_naive(&data), 1e-9 * n as f64);
        }
    }

    #[test]
    fn plan_kind_follows_the_factors() {
        assert_eq!(Fft::new(16).core.radices(), vec![2, 2, 2, 2]);
        assert_eq!(Fft::new(2500).core.radices(), vec![4, 5, 5, 5, 5]);
        assert_eq!(Fft::new(1250).core.radices(), vec![2, 5, 5, 5, 5]);
        assert_eq!(Fft::new(360).core.radices(), vec![4, 2, 3, 3, 5]);
        assert!(Fft::new(14).core.radices().is_empty(), "7 is not 5-smooth");
        assert!(Fft::new(2503).core.radices().is_empty(), "prime length");
    }

    #[test]
    fn mixed_radix_matches_naive_for_every_smooth_length() {
        // Every 5-smooth non-power-of-two length up to 1024, plus the
        // packed and full paper sweep lengths; forward and inverse
        // (inverse = conj(DFT(conj x))/n).
        let lengths = (3..=1024usize)
            .filter(|&n| !n.is_power_of_two() && smooth_radices(n).is_some())
            .chain([1250, 2500]);
        for n in lengths {
            let data = test_data(n);
            let mut plan = Fft::new(n);
            assert!(
                matches!(*plan.core, Core::Mixed(_)),
                "n={n} must take the mixed-radix plan"
            );
            let naive = dft_naive(&data);
            let mut fast = data.clone();
            plan.forward(&mut fast);
            spectrum_close(&fast, &naive, 1e-9 * n as f64);

            let conj: Vec<Complex> = data.iter().map(|z| z.conj()).collect();
            let naive_inv: Vec<Complex> = dft_naive(&conj)
                .iter()
                .map(|z| z.conj() / n as f64)
                .collect();
            let mut inv = data.clone();
            plan.inverse(&mut inv);
            spectrum_close(&inv, &naive_inv, 1e-9);
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for n in [7usize, 11, 13, 14, 49, 97, 210, 2503] {
            let data = test_data(n);
            let mut fast = data.clone();
            let mut plan = Fft::new(n);
            assert!(
                matches!(*plan.core, Core::Bluestein(_)),
                "n={n} must take Bluestein"
            );
            plan.forward(&mut fast);
            spectrum_close(&fast, &dft_naive(&data), 1e-8 * n as f64);
            plan.inverse(&mut fast);
            spectrum_close(&fast, &data, 1e-10 * n as f64);
        }
    }

    #[test]
    fn sweep_length_2500_matches_naive() {
        // The exact WiTrack sweep length.
        let n = 2500;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::real((2.0 * PI * 40.0 * i as f64 / n as f64).cos()))
            .collect();
        let mut fast = data.clone();
        Fft::new(n).forward(&mut fast);
        let slow = dft_naive(&data);
        spectrum_close(&fast, &slow, 1e-9 * n as f64);
        // Real tone at cycle 40 → peaks at bins 40 and n−40; check the
        // positive-frequency half only.
        let peak = fast[..n / 2].iter().map(|z| z.abs()).enumerate().fold(
            (0usize, 0.0f64),
            |acc, (i, m)| if m > acc.1 { (i, m) } else { acc },
        );
        assert_eq!(peak.0, 40);
        assert!((peak.1 - n as f64 / 2.0).abs() < 1e-6 * n as f64);
    }

    #[test]
    fn inverse_round_trips() {
        for n in [8usize, 100, 625, 1024, 77] {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let mut buf = data.clone();
            let mut plan = Fft::new(n);
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            spectrum_close(&buf, &data, 1e-10 * n as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        for n in [16usize, 30, 22] {
            let mut buf = impulse(n, 0);
            Fft::new(n).forward(&mut buf);
            for z in &buf {
                assert!((z.abs() - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn shifted_impulse_has_linear_phase() {
        for n in [32usize, 50] {
            let shift = 3;
            let mut buf = impulse(n, shift);
            Fft::new(n).forward(&mut buf);
            for (k, z) in buf.iter().enumerate() {
                let expected = Complex::cis(-2.0 * PI * (k * shift) as f64 / n as f64);
                assert!((*z - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn linearity_holds() {
        let n = 50;
        let a: Vec<Complex> = (0..n)
            .map(|i| Complex::real((i as f64 * 0.2).sin()))
            .collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::real((i as f64 * 0.9).cos()))
            .collect();
        let mut plan = Fft::new(n);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut fab: Vec<Complex> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| *x * 2.0 + *y * -0.5)
            .collect();
        plan.forward(&mut fab);
        let combined: Vec<Complex> = fa
            .iter()
            .zip(&fb)
            .map(|(x, y)| *x * 2.0 + *y * -0.5)
            .collect();
        spectrum_close(&fab, &combined, 1e-9 * n as f64);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 2500;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::real(((i * i) as f64 * 0.001).sin()))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sq()).sum();
        let mut buf = data;
        Fft::new(n).forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0),
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn forward_real_helper() {
        let n = 64;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 5.0 * i as f64 / n as f64).sin())
            .collect();
        let spec = Fft::new(n).forward_real(&signal);
        // Real sine at cycle 5: peaks at bins 5 and n−5.
        let mags: Vec<f64> = spec.iter().map(|z| z.abs()).collect();
        assert!(mags[5] > 0.45 * n as f64);
        assert!(mags[n - 5] > 0.45 * n as f64);
    }

    #[test]
    fn forward_real_into_matches_forward_real() {
        for n in [64usize, 100] {
            let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let mut plan = Fft::new(n);
            let alloc = plan.forward_real(&signal);
            let mut out = vec![Complex::ZERO; n];
            plan.forward_real_into(&signal, &mut out);
            spectrum_close(&alloc, &out, 0.0);
        }
    }

    #[test]
    fn forward_into_preserves_input() {
        let n = 32;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), (i as f64).sin()))
            .collect();
        let snapshot = input.clone();
        let mut out = vec![Complex::ZERO; n];
        let mut plan = Fft::new(n);
        plan.forward_into(&input, &mut out);
        spectrum_close(&input, &snapshot, 0.0);
        let mut in_place = input.clone();
        plan.forward(&mut in_place);
        spectrum_close(&out, &in_place, 0.0);
    }

    #[test]
    fn plans_of_one_length_share_their_tables() {
        let a = Fft::new(750);
        let b = Fft::new(750);
        assert!(Arc::ptr_eq(&a.core, &b.core));
    }

    #[test]
    fn real_band_matches_naive_dft() {
        // Packed (even n) over radix-2, mixed-radix and Bluestein half
        // lengths, and the unpacked odd-n path; bands up to the full n.
        for (n, keep) in [
            (16usize, 5usize),
            (30, 7),
            (100, 50),
            (250, 20),
            (28, 28),
            (2500, 13),
            (2500, 171),
            (25, 5),
            (99, 40),
            (1, 1),
            (2, 2),
        ] {
            let signal = test_signal(n);
            let band = RealBand::new(n, keep);
            spectrum_close(
                &band.forward(&signal),
                &naive_band(&signal, keep),
                1e-9 * n as f64,
            );
        }
    }

    #[test]
    fn real_band_quantized_input_matches_dequantized() {
        for n in [250usize, 2500, 25] {
            let scale = 1.0 / 4096.0;
            let q: Vec<i32> = (0..n)
                .map(|i| ((i as f64 * 0.11).sin() * 50_000.0) as i32)
                .collect();
            let deq: Vec<f64> = q.iter().map(|&v| v as f64 * scale).collect();
            let keep = n.min(40);
            let band = RealBand::new(n, keep);
            let mut scratch = band.make_scratch();
            let mut out = vec![Complex::ZERO; keep];
            band.forward_q_into(&q, scale, &mut out, &mut scratch);
            spectrum_close(&out, &naive_band(&deq, keep), 1e-9 * n as f64);
        }
    }

    #[test]
    fn shared_bands_deduplicate_by_shape() {
        let a = RealBand::shared(96, 11);
        let b = RealBand::shared(96, 11);
        let c = RealBand::shared(96, 12);
        assert!(Arc::ptr_eq(&a, &b), "same shape shares one plan");
        assert!(!Arc::ptr_eq(&a, &c), "different keep is a new plan");
        assert!(Arc::ptr_eq(&a.core, &c.core), "one core per length");
    }

    #[test]
    #[should_panic]
    fn zero_keep_panics() {
        let _ = RealBand::new(8, 0);
    }

    #[test]
    #[should_panic]
    fn keep_beyond_n_panics() {
        let _ = RealBand::new(8, 9);
    }

    #[test]
    #[should_panic]
    fn mismatched_scratch_panics() {
        let a = RealBand::new(64, 10);
        let b = RealBand::new(2500, 200);
        let mut scratch = a.make_scratch();
        let mut out = vec![Complex::ZERO; 200];
        b.forward_into(&test_signal(2500), &mut out, &mut scratch);
    }

    #[test]
    #[should_panic]
    fn zero_length_panics() {
        let _ = Fft::new(0);
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_length_panics() {
        let mut plan = Fft::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.forward(&mut buf);
    }
}
