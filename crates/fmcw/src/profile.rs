//! Sweep → range profile conversion.
//!
//! Paper §7: *"The signal from each receiving antenna is transformed to the
//! Frequency domain using an FFT whose size matches the FMCW sweep period of
//! 2.5 ms. To improve resilience to noise, every five consecutive sweeps are
//! averaged creating one FFT frame."*
//!
//! Averaging five raw sweeps and transforming once is mathematically
//! identical to averaging five FFTs (the DFT is linear) and 5× cheaper, so
//! [`RangeProfiler`] accumulates sweeps in the time domain. The human is
//! quasi-static over the 12.5 ms window (§4.3), so the body tone adds
//! coherently while noise adds incoherently — the paper's stated reason for
//! averaging.
//!
//! Only `keep_bins` of the sweep's beat-frequency bins can hold an indoor
//! target, so the transform is a real-input band transform
//! ([`witrack_dsp::RealBand`]): the 2500 windowed reals are packed into
//! 1250 complex points, run through one mixed-radix (2·5⁴) Stockham FFT,
//! and only the kept bins are unpacked. Every buffer (accumulator,
//! windowed frame, transform scratch, output profile) is owned by the
//! profiler and reused, so the steady-state per-frame path performs no
//! heap allocation.

use crate::config::SweepConfig;
use std::sync::Arc;
use witrack_dsp::window::{WindowKind, Q15_GAIN};
use witrack_dsp::{simd, BandScratch, Complex, RealBand};

/// One sweep of baseband samples, in either representation the wire
/// delivers: dequantized `f64`, or the raw `i16` quantized form plus its
/// dequantization scale (`sample = q · scale`). The quantized form feeds
/// the fixed-point front half of the profiler — windowing and frame
/// accumulation stay in `i16`/`i32` and the samples only become floats
/// inside the band transform's packing pass.
#[derive(Debug, Clone, Copy)]
pub enum Sweep<'a> {
    /// Float samples.
    F64(&'a [f64]),
    /// Wire-quantized samples and their dequantization scale.
    Q(&'a [i16], f64),
}

impl<'a> From<&'a [f64]> for Sweep<'a> {
    fn from(samples: &'a [f64]) -> Sweep<'a> {
        Sweep::F64(samples)
    }
}

impl Sweep<'_> {
    /// Number of samples in the sweep.
    pub fn len(&self) -> usize {
        match self {
            Sweep::F64(s) => s.len(),
            Sweep::Q(s, _) => s.len(),
        }
    }

    /// `true` when the sweep holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Converts accumulated sweeps into complex range profiles.
///
/// The window table and band-transform plan are **process-shared** (via
/// [`WindowKind::shared`] and [`RealBand::shared`]): every profiler at the
/// same sweep configuration — all antennas of all sensors on a serving
/// host — reads one copy of each. Only the per-stream buffers
/// (accumulator, windowed frame, transform scratch, output profile) are
/// owned per instance.
#[derive(Debug, Clone)]
pub struct RangeProfiler {
    samples_per_sweep: usize,
    sweeps_per_frame: usize,
    /// Shared, unscaled analysis window.
    window: Arc<Vec<f64>>,
    /// Shared Q15 window table for the fixed-point path.
    window_q15: Arc<Vec<i16>>,
    /// The frame average (1/sweeps_per_frame), folded into the windowing
    /// multiply so the shared table stays unscaled.
    frame_scale: f64,
    /// Shared band transform producing exactly `keep_bins` bins.
    band: Arc<RealBand>,
    scratch: BandScratch,
    /// Time-domain accumulator for the current frame (float sweeps).
    accum: Vec<f64>,
    /// Fixed-point accumulator for quantized sweeps: windowed Q15
    /// products summed exactly in `i32` (5 sweeps × ±32767 is nowhere
    /// near overflow).
    accum_q: Vec<i32>,
    /// Wire scale the quantized accumulator is denominated in.
    accum_q_scale: f64,
    /// Quantized sweeps folded into the current frame so far.
    q_sweeps: usize,
    /// Windowed average of the accumulated sweeps (transform input), reused.
    windowed: Vec<f64>,
    /// The emitted range profile, reused across frames.
    profile: Vec<Complex>,
    sweeps_accumulated: usize,
    /// Range profiles hold this many bins (positive beat frequencies only;
    /// indoor scenes need ~200 of the 2500).
    keep_bins: usize,
}

impl RangeProfiler {
    /// Creates a profiler for the given sweep configuration, keeping range
    /// bins up to `max_round_trip_m` of round-trip distance.
    pub fn new(cfg: &SweepConfig, window: WindowKind, max_round_trip_m: f64) -> RangeProfiler {
        let n = cfg.samples_per_sweep();
        let keep = (cfg.bin_for_round_trip(max_round_trip_m).ceil() as usize + 1).min(n / 2);
        let keep = keep.max(2).min(n);
        let window_q15 = window.shared_q15(n);
        let window = window.shared(n);
        let band = RealBand::shared(n, keep);
        let scratch = band.make_scratch();
        RangeProfiler {
            samples_per_sweep: n,
            sweeps_per_frame: cfg.sweeps_per_frame,
            window,
            window_q15,
            frame_scale: 1.0 / cfg.sweeps_per_frame as f64,
            band,
            scratch,
            accum: vec![0.0; n],
            accum_q: vec![0; n],
            accum_q_scale: 0.0,
            q_sweeps: 0,
            windowed: vec![0.0; n],
            profile: vec![Complex::ZERO; keep],
            sweeps_accumulated: 0,
            keep_bins: keep,
        }
    }

    /// Number of range bins kept in each profile.
    pub fn keep_bins(&self) -> usize {
        self.keep_bins
    }

    /// The shared band-transform plan this profiler runs (two profilers
    /// at the same sweep configuration return the same `Arc`).
    pub fn plan(&self) -> &Arc<RealBand> {
        &self.band
    }

    /// Sweeps accumulated toward the next frame.
    pub fn pending_sweeps(&self) -> usize {
        self.sweeps_accumulated
    }

    /// Whether the *next* [`RangeProfiler::push_sweep`] will complete a
    /// frame — lets multi-antenna drivers fan the heavy frame work out to
    /// threads only when there is frame work to do.
    pub fn next_sweep_completes_frame(&self) -> bool {
        self.sweeps_accumulated + 1 == self.sweeps_per_frame
    }

    /// Pushes one sweep of baseband samples. Returns the complex range
    /// profile when this sweep completes a frame, `None` otherwise. The
    /// returned slice borrows the profiler's reusable output buffer (valid
    /// until the next call); steady-state calls never allocate.
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep(&mut self, samples: &[f64]) -> Option<&[Complex]> {
        self.push(Sweep::F64(samples))
    }

    /// Pushes one **wire-quantized** sweep (`sample = q · scale`). The
    /// fixed-point fast path: the sweep is windowed in `i16` (Q15
    /// rounding multiplies against the shared quantized window table) and
    /// accumulated exactly in `i32`; on frame completion the integer
    /// accumulator feeds the band transform directly, dequantizing inside
    /// its packing pass. Per-frame the samples are touched once in
    /// integer form — 4× less accumulator memory traffic than the float
    /// path, and no dequantized copy of the frame ever exists.
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep_q(&mut self, samples: &[i16], scale: f64) -> Option<&[Complex]> {
        self.push(Sweep::Q(samples, scale))
    }

    /// Pushes one sweep in either representation. See
    /// [`RangeProfiler::push_sweep`] / [`RangeProfiler::push_sweep_q`].
    ///
    /// # Panics
    /// Panics if the sweep is not exactly one sweep long.
    pub fn push(&mut self, sweep: Sweep<'_>) -> Option<&[Complex]> {
        assert_eq!(
            sweep.len(),
            self.samples_per_sweep,
            "sweep must contain exactly samples_per_sweep samples"
        );
        match sweep {
            Sweep::F64(samples) => {
                for (a, &s) in self.accum.iter_mut().zip(samples) {
                    *a += s;
                }
            }
            // A quantized sweep at the frame's established wire scale
            // stays integer end to end. The first quantized sweep of a
            // frame establishes that scale; a mid-frame scale change
            // (rare — encoders quantize per batch, and a batch is a whole
            // frame) folds the odd sweep into the float accumulator
            // instead of degrading the integer one.
            Sweep::Q(samples, scale) => {
                if self.q_sweeps == 0 {
                    self.accum_q_scale = scale;
                }
                if scale == self.accum_q_scale {
                    simd::window_accum_q(&mut self.accum_q, samples, &self.window_q15);
                    self.q_sweeps += 1;
                } else {
                    for (a, &s) in self.accum.iter_mut().zip(samples) {
                        *a += s as f64 * scale;
                    }
                }
            }
        }
        self.sweeps_accumulated += 1;
        if self.sweeps_accumulated < self.sweeps_per_frame {
            return None;
        }
        self.complete_frame();
        Some(&self.profile)
    }

    /// Frame complete: window the averaged sweeps, transform the kept
    /// band, reset the accumulators. (The 1/sweeps_per_frame average
    /// folds into the windowing — or dequantization — multiply; the
    /// shared tables stay unscaled.)
    fn complete_frame(&mut self) {
        let scale = self.frame_scale;
        // Dequantization scale of the integer accumulator: wire scale ×
        // frame average × the Q15 window tables' uniform gain correction.
        let q_scale = self.accum_q_scale * scale * Q15_GAIN;
        if self.q_sweeps == self.sweeps_accumulated {
            // Pure quantized frame (the serving hot path): the integer
            // accumulator is already windowed; hand it straight to the
            // transform, which dequantizes inside its packing pass.
            self.band
                .forward_q_into(&self.accum_q, q_scale, &mut self.profile, &mut self.scratch);
        } else {
            simd::window_scale(&mut self.windowed, &self.accum, &self.window, scale);
            if self.q_sweeps > 0 {
                // Mixed frame: the quantized part is windowed already.
                for (w, &q) in self.windowed.iter_mut().zip(&self.accum_q) {
                    *w += q as f64 * q_scale;
                }
            }
            self.band
                .forward_into(&self.windowed, &mut self.profile, &mut self.scratch);
        }
        self.clear_accumulators();
    }

    fn clear_accumulators(&mut self) {
        // Only touch the accumulator(s) this frame actually dirtied — a
        // pure quantized frame must not pay a 20 KB float memset.
        if self.q_sweeps > 0 {
            self.accum_q.fill(0);
        }
        if self.q_sweeps < self.sweeps_accumulated {
            self.accum.fill(0.0);
        }
        self.q_sweeps = 0;
        self.accum_q_scale = 0.0;
        self.sweeps_accumulated = 0;
    }

    /// Clears any partially accumulated frame.
    pub fn reset(&mut self) {
        self.clear_accumulators();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            start_freq_hz: 5.56e6,
            bandwidth_hz: 1.69e6,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 256e3,
            sweeps_per_frame: 4,
            transmit_power_w: 1e-3,
        }
    }

    fn tone_sweep(cfg: &SweepConfig, beat_hz: f64, phase: f64) -> Vec<f64> {
        let n = cfg.samples_per_sweep();
        (0..n)
            .map(|i| {
                let t = i as f64 / cfg.sample_rate_hz;
                (2.0 * PI * beat_hz * t + phase).cos()
            })
            .collect()
    }

    #[test]
    fn frame_emitted_every_n_sweeps() {
        let cfg = small_cfg();
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, 50.0);
        let sweep = tone_sweep(&cfg, 10e3, 0.0);
        for k in 0..3 {
            assert!(
                p.push_sweep(&sweep).is_none(),
                "sweep {k} should not complete a frame"
            );
            assert_eq!(p.pending_sweeps(), k + 1);
        }
        assert!(p.push_sweep(&sweep).is_some());
        assert_eq!(p.pending_sweeps(), 0);
    }

    #[test]
    fn tone_lands_in_the_right_bin() {
        let cfg = small_cfg();
        // Choose a beat exactly on a bin: bin spacing = 1 kHz.
        let bin = 12.0;
        let beat = bin * cfg.bin_spacing_hz();
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, cfg.round_trip_for_bin(40.0));
        let sweep = tone_sweep(&cfg, beat, 0.3);
        for _ in 0..cfg.sweeps_per_frame - 1 {
            assert!(p.push_sweep(&sweep).is_none());
        }
        let profile = p.push_sweep(&sweep).unwrap();
        let mags: Vec<f64> = profile.iter().map(|z| z.abs()).collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, bin as usize);
    }

    #[test]
    fn coherent_averaging_boosts_snr() {
        let cfg = small_cfg();
        let bin = 9.0;
        let beat = bin * cfg.bin_spacing_hz();
        // Identical tone in all sweeps + per-sweep alternating-sign "noise"
        // at another bin. Coherent tone stays; alternating noise cancels.
        let mut p = RangeProfiler::new(&cfg, WindowKind::Rectangular, cfg.round_trip_for_bin(40.0));
        let tone = tone_sweep(&cfg, beat, 0.0);
        let noise_tone = tone_sweep(&cfg, 20.0 * cfg.bin_spacing_hz(), 0.0);
        let mut mags = Vec::new();
        for k in 0..cfg.sweeps_per_frame {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            let sweep: Vec<f64> = tone
                .iter()
                .zip(&noise_tone)
                .map(|(&t, &n)| t + sign * n)
                .collect();
            if let Some(profile) = p.push_sweep(&sweep) {
                mags = profile.iter().map(|z| z.abs()).collect();
            }
        }
        assert!(!mags.is_empty(), "frame never completed");
        assert!(
            mags[9] > 50.0 * mags[20],
            "coherent {} incoherent {}",
            mags[9],
            mags[20]
        );
    }

    #[test]
    fn profiles_are_truncated_to_keep_bins() {
        let cfg = small_cfg();
        let max_rt = cfg.round_trip_for_bin(25.0);
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, max_rt);
        assert!(p.keep_bins() <= 27);
        let sweep = tone_sweep(&cfg, 5e3, 0.0);
        for _ in 0..cfg.sweeps_per_frame - 1 {
            assert!(p.push_sweep(&sweep).is_none());
        }
        let keep = p.keep_bins();
        assert_eq!(p.push_sweep(&sweep).unwrap().len(), keep);
    }

    #[test]
    fn band_transform_matches_full_fft_then_truncate() {
        // The plain path: full-length FFT, truncate to keep.
        let cfg = small_cfg();
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, cfg.round_trip_for_bin(40.0));
        let n = cfg.samples_per_sweep();
        let sweep = tone_sweep(&cfg, 7.3 * cfg.bin_spacing_hz(), 0.9);
        let window = WindowKind::Hann.generate(n);
        let windowed: Vec<f64> = sweep.iter().zip(&window).map(|(&s, &w)| s * w).collect();
        let mut reference = witrack_dsp::Fft::new(n).forward_real(&windowed);
        reference.truncate(p.keep_bins());
        for _ in 0..cfg.sweeps_per_frame - 1 {
            p.push_sweep(&sweep);
        }
        let profile = p.push_sweep(&sweep).unwrap();
        for (i, (a, b)) in profile.iter().zip(&reference).enumerate() {
            assert!((*a - *b).abs() < 1e-9 * n as f64, "bin {i}: {a} vs {b}");
        }
    }

    /// Bins `0..keep` of the direct DFT of a real signal.
    fn naive_band(x: &[f64], keep: usize) -> Vec<Complex> {
        let n = x.len();
        (0..keep)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(j, &v)| Complex::cis(-2.0 * PI * ((j * k) % n) as f64 / n as f64) * v)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn paper_config_band_matches_naive_dft_on_both_paths() {
        // n = 2500 (one 1250 = 2·5⁴ point transform), 171 kept bins.
        let cfg = SweepConfig::witrack();
        let n = cfg.samples_per_sweep();
        let mut pf = RangeProfiler::new(&cfg, WindowKind::Hann, 30.0);
        let mut pq = RangeProfiler::new(&cfg, WindowKind::Hann, 30.0);
        assert_eq!((n, pf.keep_bins()), (2500, 171));
        assert_eq!(pf.plan().radices(), vec![2, 5, 5, 5, 5]);
        let window = WindowKind::Hann.generate(n);
        let window_q15 = WindowKind::Hann.shared_q15(n);
        let wire_scale = 1.0 / 32767.0;
        let mut accum = vec![0.0; n];
        let mut accum_q = vec![0i32; n];
        let mut out = (Vec::new(), Vec::new());
        for k in 0..cfg.sweeps_per_frame {
            let sweep = tone_sweep(
                &cfg,
                (37.3 + k as f64) * cfg.bin_spacing_hz(),
                0.4 * k as f64,
            );
            let q: Vec<i16> = sweep
                .iter()
                .map(|&v| (v * 32767.0).round() as i16)
                .collect();
            for (a, &v) in accum.iter_mut().zip(&sweep) {
                *a += v;
            }
            simd::scalar::window_accum_q(&mut accum_q, &q, &window_q15);
            if let Some(p) = pf.push_sweep(&sweep) {
                out.0 = p.to_vec();
            }
            if let Some(p) = pq.push_sweep_q(&q, wire_scale) {
                out.1 = p.to_vec();
            }
        }
        let avg = 1.0 / cfg.sweeps_per_frame as f64;
        let x: Vec<f64> = accum
            .iter()
            .zip(&window)
            .map(|(a, w)| a * w * avg)
            .collect();
        let q_scale = wire_scale * avg * Q15_GAIN;
        let x_q: Vec<f64> = accum_q.iter().map(|&a| a as f64 * q_scale).collect();
        for (got, x) in [(&out.0, &x), (&out.1, &x_q)] {
            let reference = naive_band(x, 171);
            assert_eq!(got.len(), 171);
            for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                assert!((*a - *b).abs() < 1e-9 * n as f64, "bin {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn steady_state_reuses_output_buffer() {
        let cfg = small_cfg();
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, 50.0);
        let sweep = tone_sweep(&cfg, 10e3, 0.0);
        let mut ptrs = Vec::new();
        for _ in 0..3 * cfg.sweeps_per_frame {
            if let Some(profile) = p.push_sweep(&sweep) {
                ptrs.push(profile.as_ptr());
            }
        }
        assert_eq!(ptrs.len(), 3);
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "profile buffer reallocated"
        );
    }

    #[test]
    fn profilers_at_one_config_share_one_plan() {
        let cfg = small_cfg();
        let a = RangeProfiler::new(&cfg, WindowKind::Hann, 50.0);
        let b = RangeProfiler::new(&cfg, WindowKind::Hann, 50.0);
        assert!(
            std::sync::Arc::ptr_eq(a.plan(), b.plan()),
            "same sweep config must share one band plan"
        );
        // And the shared plan still produces per-stream-independent output.
        let mut a = a;
        let mut b = b;
        let s1 = tone_sweep(&cfg, 10e3, 0.0);
        let s2 = tone_sweep(&cfg, 14e3, 0.4);
        let mut last = (Vec::new(), Vec::new());
        for _ in 0..cfg.sweeps_per_frame {
            if let Some(p) = a.push_sweep(&s1) {
                last.0 = p.to_vec();
            }
            if let Some(p) = b.push_sweep(&s2) {
                last.1 = p.to_vec();
            }
        }
        assert!(!last.0.is_empty() && !last.1.is_empty());
        assert_ne!(last.0, last.1, "independent streams, independent output");
    }

    #[test]
    fn reset_discards_partial_frame() {
        let cfg = small_cfg();
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, 50.0);
        let sweep = tone_sweep(&cfg, 10e3, 0.0);
        p.push_sweep(&sweep);
        p.push_sweep(&sweep);
        p.reset();
        assert_eq!(p.pending_sweeps(), 0);
        for k in 0..cfg.sweeps_per_frame - 1 {
            assert!(p.push_sweep(&sweep).is_none(), "sweep {k}");
        }
        assert!(p.push_sweep(&sweep).is_some());
    }

    /// Quantizes a sweep the way the wire does (peak → ±32767).
    fn quantize(sweep: &[f64]) -> (Vec<i16>, f64) {
        let peak = sweep.iter().fold(0.0f64, |m, &s| m.max(s.abs())).max(1e-30);
        let scale = peak / 32767.0;
        (
            sweep.iter().map(|&s| (s / scale).round() as i16).collect(),
            scale,
        )
    }

    #[test]
    fn quantized_path_matches_float_path() {
        let cfg = small_cfg();
        let mut pf = RangeProfiler::new(&cfg, WindowKind::Hann, cfg.round_trip_for_bin(40.0));
        let mut pq = RangeProfiler::new(&cfg, WindowKind::Hann, cfg.round_trip_for_bin(40.0));
        let mut out = (Vec::new(), Vec::new());
        for k in 0..2 * cfg.sweeps_per_frame {
            let sweep = tone_sweep(&cfg, 11e3, 0.1 * k as f64);
            let (q, scale) = quantize(&sweep);
            let dequant: Vec<f64> = q.iter().map(|&v| v as f64 * scale).collect();
            if let Some(p) = pf.push_sweep(&dequant) {
                out.0 = p.to_vec();
            }
            if let Some(p) = pq.push_sweep_q(&q, scale) {
                out.1 = p.to_vec();
            }
        }
        assert!(!out.0.is_empty() && !out.1.is_empty());
        // Both paths see identical wire samples; the only differences are
        // the Q15 window rounding (≤ 1.5e-5 relative) and summation
        // order. The peak magnitude is O(n/2); bound the per-bin error
        // relative to that.
        let n = cfg.samples_per_sweep() as f64;
        for (i, (a, b)) in out.0.iter().zip(&out.1).enumerate() {
            assert!((*a - *b).abs() < 1e-4 * n, "bin {i}: {a} vs {b}");
        }
    }

    #[test]
    fn mixed_and_rescaled_frames_still_match() {
        // One frame mixing a float sweep, quantized sweeps at the frame's
        // wire scale, and a quantized sweep at a DIFFERENT wire scale (a
        // mid-frame AGC step) must agree with a float reference fed the
        // dequantized equivalents of the exact same samples.
        let cfg = small_cfg();
        let mut pf = RangeProfiler::new(&cfg, WindowKind::Hann, cfg.round_trip_for_bin(40.0));
        let mut pq = RangeProfiler::new(&cfg, WindowKind::Hann, cfg.round_trip_for_bin(40.0));
        let mut out = (Vec::new(), Vec::new());
        for k in 0..cfg.sweeps_per_frame {
            let sweep = tone_sweep(&cfg, 9e3, 0.2 * k as f64);
            let (mut q, mut scale) = quantize(&sweep);
            if k == 2 {
                // Same physical samples, coarser wire scale.
                for v in &mut q {
                    *v /= 2;
                }
                scale *= 2.0;
            }
            let dequant: Vec<f64> = q.iter().map(|&v| v as f64 * scale).collect();
            if let Some(p) = pf.push_sweep(&dequant) {
                out.0 = p.to_vec();
            }
            let r = if k == 1 {
                pq.push_sweep(&dequant)
            } else {
                pq.push_sweep_q(&q, scale)
            };
            if let Some(p) = r {
                out.1 = p.to_vec();
            }
        }
        assert!(!out.0.is_empty() && !out.1.is_empty());
        let n = cfg.samples_per_sweep() as f64;
        for (i, (a, b)) in out.0.iter().zip(&out.1).enumerate() {
            assert!((*a - *b).abs() < 1e-4 * n, "bin {i}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic]
    fn wrong_sweep_length_panics() {
        let cfg = small_cfg();
        let mut p = RangeProfiler::new(&cfg, WindowKind::Hann, 50.0);
        p.push_sweep(&[0.0; 10]);
    }
}
