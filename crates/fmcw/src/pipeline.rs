//! The per-antenna TOF estimation pipeline (paper §4 end-to-end).
//!
//! One [`TofEstimator`] owns the §4 stages for a single receive antenna:
//! sweep accumulation and FFT (§4.1), background subtraction (§4.2), bottom-
//! contour tracking (§4.3), and denoising (§4.4). Push raw sweeps in; get a
//! [`TofFrame`] out every `sweeps_per_frame` sweeps.

use crate::background::BackgroundSubtractor;
use crate::config::SweepConfig;
use crate::contour::{ContourConfig, ContourTracker, Detection};
use crate::denoise::{DenoiseConfig, DenoisedDistance, DistanceDenoiser};
use crate::profile::{RangeProfiler, Sweep};
use witrack_dsp::window::WindowKind;

/// Output of the pipeline for one processing frame.
#[derive(Debug, Clone)]
pub struct TofFrame {
    /// Index of this frame since the stream started.
    pub frame_index: u64,
    /// Time (s) at the *end* of the frame's last sweep.
    pub time_s: f64,
    /// Background-subtracted magnitude spectrum (truncated range axis).
    /// Empty for the first frame (no baseline yet).
    pub magnitudes: Vec<f64>,
    /// Raw contour detection before denoising, if any.
    pub detection: Option<Detection>,
    /// Denoised round-trip distance, once the stream has been seeded.
    pub denoised: Option<DenoisedDistance>,
}

impl TofFrame {
    /// The clean round-trip estimate, if available.
    pub fn round_trip_m(&self) -> Option<f64> {
        self.denoised.map(|d| d.round_trip_m)
    }
}

/// Wall times of the heavy per-antenna stages for one frame-completing
/// sweep (see [`TofEstimator::push_sweep_timed`]). Nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Sweep accumulation + range profiling (the band transform).
    pub profile_ns: u64,
    /// Background subtraction + contour detection + denoising.
    pub detect_ns: u64,
}

/// End-to-end §4 processing for one receive antenna.
#[derive(Debug, Clone)]
pub struct TofEstimator {
    cfg: SweepConfig,
    profiler: RangeProfiler,
    background: BackgroundSubtractor,
    contour: ContourTracker,
    denoiser: DistanceDenoiser,
    frame_index: u64,
    sweeps_seen: u64,
}

impl TofEstimator {
    /// Creates an estimator with default contour/denoise tuning, keeping
    /// range bins up to `max_round_trip_m`.
    pub fn new(cfg: SweepConfig, max_round_trip_m: f64) -> TofEstimator {
        TofEstimator::with_tuning(
            cfg,
            max_round_trip_m,
            ContourConfig::default(),
            DenoiseConfig::default(),
        )
    }

    /// Creates an estimator with explicit tuning.
    pub fn with_tuning(
        cfg: SweepConfig,
        max_round_trip_m: f64,
        contour: ContourConfig,
        denoise: DenoiseConfig,
    ) -> TofEstimator {
        TofEstimator {
            cfg,
            profiler: RangeProfiler::new(&cfg, WindowKind::Hann, max_round_trip_m),
            background: BackgroundSubtractor::new(),
            contour: ContourTracker::new(cfg, contour),
            denoiser: DistanceDenoiser::new(denoise),
            frame_index: 0,
            sweeps_seen: 0,
        }
    }

    /// The sweep configuration this estimator runs.
    pub fn sweep_config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Number of range bins in emitted magnitude frames.
    pub fn num_bins(&self) -> usize {
        self.profiler.keep_bins()
    }

    /// Whether the next [`TofEstimator::push_sweep`] completes a frame (and
    /// therefore runs the heavy transform/contour stage). Multi-antenna
    /// drivers use this to fan frame work out across threads only when
    /// there is frame work to do.
    pub fn next_sweep_completes_frame(&self) -> bool {
        self.profiler.next_sweep_completes_frame()
    }

    /// Pushes one sweep of baseband samples; returns a frame every
    /// `sweeps_per_frame` sweeps.
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep(&mut self, samples: &[f64]) -> Option<TofFrame> {
        self.push_inner(Sweep::F64(samples), None)
    }

    /// Pushes one wire-quantized sweep (`sample = q · scale`), keeping
    /// the profile front half in fixed point (see
    /// [`RangeProfiler::push_sweep_q`]).
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep_q(&mut self, samples: &[i16], scale: f64) -> Option<TofFrame> {
        self.push_inner(Sweep::Q(samples, scale), None)
    }

    /// [`Self::push_sweep`], additionally reporting how long the two
    /// heavy stages took on a frame-completing sweep: range profiling
    /// (the band transform) in `times.profile_ns`, background subtraction +
    /// contour detection + denoising in `times.detect_ns`.
    /// Accumulate-only sweeps leave `times` untouched.
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep_timed(
        &mut self,
        samples: &[f64],
        times: &mut StageTimes,
    ) -> Option<TofFrame> {
        self.push_inner(Sweep::F64(samples), Some(times))
    }

    /// [`Self::push_sweep_q`] with the stage timing of
    /// [`Self::push_sweep_timed`].
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep_q_timed(
        &mut self,
        samples: &[i16],
        scale: f64,
        times: &mut StageTimes,
    ) -> Option<TofFrame> {
        self.push_inner(Sweep::Q(samples, scale), Some(times))
    }

    /// Pushes one sweep in either representation.
    ///
    /// # Panics
    /// Panics if the sweep is not exactly one sweep long.
    pub fn push(&mut self, sweep: Sweep<'_>) -> Option<TofFrame> {
        self.push_inner(sweep, None)
    }

    /// Pushes one sweep in either representation, stage-timed.
    ///
    /// # Panics
    /// Panics if the sweep is not exactly one sweep long.
    pub fn push_timed(&mut self, sweep: Sweep<'_>, times: &mut StageTimes) -> Option<TofFrame> {
        self.push_inner(sweep, Some(times))
    }

    fn push_inner(
        &mut self,
        samples: Sweep<'_>,
        mut times: Option<&mut StageTimes>,
    ) -> Option<TofFrame> {
        self.sweeps_seen += 1;
        let profile_start = times
            .as_ref()
            .filter(|_| self.profiler.next_sweep_completes_frame())
            .map(|_| std::time::Instant::now());
        let profile = self.profiler.push(samples)?;
        let detect_start = profile_start.map(|start| {
            let now = std::time::Instant::now();
            if let Some(t) = times.as_deref_mut() {
                t.profile_ns = (now - start).as_nanos().min(u64::MAX as u128) as u64;
            }
            now
        });
        let dt = self.cfg.frame_duration_s();
        let time_s = self.sweeps_seen as f64 * self.cfg.sweep_duration_s;

        let frame = match self.background.push(profile) {
            None => TofFrame {
                frame_index: self.frame_index,
                time_s,
                magnitudes: Vec::new(),
                detection: None,
                denoised: None,
            },
            Some(mags) => {
                let detection = self.contour.detect(mags);
                let denoised = self.denoiser.push(detection.map(|d| d.round_trip_m), dt);
                TofFrame {
                    frame_index: self.frame_index,
                    time_s,
                    magnitudes: mags.to_vec(),
                    detection,
                    denoised,
                }
            }
        };
        if let (Some(start), Some(t)) = (detect_start, times) {
            t.detect_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        }
        self.frame_index += 1;
        Some(frame)
    }

    /// Clears all stream state (baseline, denoiser history, counters).
    pub fn reset(&mut self) {
        self.profiler.reset();
        self.background.reset();
        self.denoiser.reset();
        self.frame_index = 0;
        self.sweeps_seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Reduced config so tests run in milliseconds.
    fn small_cfg() -> SweepConfig {
        SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8, // bin = 1.77 m round trip
            sweep_duration_s: 1e-3,
            sample_rate_hz: 250e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        }
    }

    /// Synthesizes one dechirped sweep: a tone per reflector with the
    /// carrier phase term that makes moving targets survive background
    /// subtraction.
    fn sweep(cfg: &SweepConfig, reflectors: &[(f64, f64)]) -> Vec<f64> {
        let n = cfg.samples_per_sweep();
        let mut out = vec![0.0; n];
        for &(round_trip, amp) in reflectors {
            let tau = round_trip / crate::config::SPEED_OF_LIGHT;
            let beat = cfg.beat_for_tof(tau);
            let phase = 2.0 * PI * cfg.start_freq_hz * tau;
            for (i, o) in out.iter_mut().enumerate() {
                let t = i as f64 / cfg.sample_rate_hz;
                *o += amp * (2.0 * PI * beat * t + phase).cos();
            }
        }
        out
    }

    #[test]
    fn static_scene_never_detects() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(10.0, 50.0), (24.0, 80.0)]);
        let mut frames = 0;
        for _ in 0..cfg.sweeps_per_frame * 20 {
            if let Some(f) = est.push_sweep(&s) {
                frames += 1;
                assert!(
                    f.detection.is_none(),
                    "static reflectors must be subtracted away"
                );
            }
        }
        assert_eq!(frames, 20);
    }

    #[test]
    fn moving_target_is_tracked_through_clutter() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 80.0);
        let mut errors = Vec::new();
        let frame_count = 120;
        for f in 0..frame_count {
            // Body walks outward 10 → 12 m round trip behind huge clutter.
            // Frames are 5 ms in this reduced config, so 2 m over 120 frames
            // is a 3.3 m/s round-trip speed — brisk but physical.
            let rt = 10.0 + 2.0 * f as f64 / frame_count as f64;
            for _ in 0..cfg.sweeps_per_frame {
                let s = sweep(&cfg, &[(6.0, 100.0), (30.0, 120.0), (rt, 1.0)]);
                if let Some(out) = est.push_sweep(&s) {
                    if f > 10 {
                        if let Some(d) = out.round_trip_m() {
                            errors.push((d - rt).abs());
                        }
                    }
                }
            }
        }
        assert!(!errors.is_empty(), "tracker produced no estimates");
        let median = witrack_dsp::stats::median(&errors);
        // Bin size is 1.77 m in this reduced config; sub-bin refinement and
        // the Kalman filter should land well under one bin.
        assert!(median < 0.3, "median error {median}");
    }

    #[test]
    fn frame_cadence_and_indices() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 10.0)]);
        let mut seen = Vec::new();
        for _ in 0..23 {
            if let Some(f) = est.push_sweep(&s) {
                seen.push(f.frame_index);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn first_frame_has_no_baseline() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 10.0)]);
        let mut first = None;
        for _ in 0..cfg.sweeps_per_frame {
            first = est.push_sweep(&s);
        }
        let f = first.unwrap();
        assert!(f.magnitudes.is_empty());
        assert!(f.detection.is_none());
    }

    #[test]
    fn reset_restarts_stream() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 10.0)]);
        for _ in 0..cfg.sweeps_per_frame * 3 {
            est.push_sweep(&s);
        }
        est.reset();
        let mut first = None;
        for _ in 0..cfg.sweeps_per_frame {
            first = est.push_sweep(&s);
        }
        let f = first.unwrap();
        assert_eq!(f.frame_index, 0);
        assert!(f.magnitudes.is_empty());
    }

    #[test]
    fn paper_config_tracks_at_fine_resolution() {
        // Full 2500-sample sweeps at the real bandwidth: one frame's worth,
        // verifying the exact-length Bluestein path in context.
        let cfg = SweepConfig::witrack();
        let mut est = TofEstimator::new(cfg, 30.0);
        // Two frames static scene, then the body moves by 5 cm per frame.
        let clutter = [(4.0, 50.0), (9.0, 70.0)];
        let mut detections = Vec::new();
        for f in 0..8 {
            let rt = 12.0 + 0.05 * f as f64;
            for _ in 0..cfg.sweeps_per_frame {
                let mut refl = clutter.to_vec();
                refl.push((rt, 1.0));
                let s = sweep(&cfg, &refl);
                if let Some(out) = est.push_sweep(&s) {
                    if let Some(d) = out.detection {
                        detections.push((d.round_trip_m - rt).abs());
                    }
                }
            }
        }
        assert!(!detections.is_empty());
        let worst = detections.iter().cloned().fold(0.0_f64, f64::max);
        // Within one range bin (0.177 m round trip) of the truth.
        assert!(worst < 0.2, "worst raw detection error {worst}");
    }
}
