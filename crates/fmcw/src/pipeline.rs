//! The single-antenna TOF estimator (paper §4 end-to-end).
//!
//! One [`TofEstimator`] runs the §4 chain for a single receive antenna: the
//! shared [`FrontEnd`] (sweep accumulation and FFT, §4.1; background
//! subtraction, §4.2), then a contour rule (§4.3) and denoising (§4.4).
//! Push raw sweeps in; get a [`TofFrame`] out every `sweeps_per_frame`
//! sweeps. The figure harnesses and the §4.3 strongest-return ablation use
//! it; the multi-antenna pipelines drive a [`FrontEnd`] directly.

use crate::config::SweepConfig;
use crate::contour::{ContourConfig, ContourTracker, Detection};
use crate::denoise::{DenoiseConfig, DenoisedDistance, DistanceDenoiser};
use crate::front_end::FrontEnd;
use crate::profile::Sweep;

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

/// Picks the body's return from one frame of background-subtracted
/// magnitudes: [`ContourTracker::detect`] (the bottom contour) or, for the
/// §4.3 ablation, [`ContourTracker::detect_strongest`].
pub type DetectionRule = fn(&mut ContourTracker, &[f64]) -> Option<Detection>;

/// End-to-end §4 processing for one receive antenna.
pub struct TofEstimator {
    front: FrontEnd,
    contour: ContourTracker,
    rule: DetectionRule,
    denoiser: DistanceDenoiser,
}

impl TofEstimator {
    /// Creates a bottom-contour estimator with default contour/denoise
    /// tuning, keeping range bins up to `max_round_trip_m`.
    pub fn new(cfg: SweepConfig, max_round_trip_m: f64) -> TofEstimator {
        TofEstimator::with_rule(cfg, max_round_trip_m, ContourTracker::detect)
    }

    /// Creates an estimator with default tuning that picks the body's
    /// return by `rule`.
    pub fn with_rule(cfg: SweepConfig, max_round_trip_m: f64, rule: DetectionRule) -> TofEstimator {
        TofEstimator {
            front: FrontEnd::new(cfg, max_round_trip_m, 1),
            contour: ContourTracker::new(cfg, ContourConfig::default()),
            rule,
            denoiser: DistanceDenoiser::new(DenoiseConfig::default()),
        }
    }

    /// Pushes one sweep of baseband samples; returns a frame every
    /// `sweeps_per_frame` sweeps.
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep(&mut self, samples: &[f64]) -> Option<TofFrame> {
        let dt = self.front.config().frame_duration_s();
        let (contour, rule, denoiser) = (&mut self.contour, self.rule, &mut self.denoiser);
        let mut stage = (Vec::new(), None, None);
        let clock = self
            .front
            .push(std::iter::once(Sweep::F64(samples)), |_, mags| {
                if let Some(mags) = mags {
                    let detection = rule(contour, mags);
                    let denoised = denoiser.push(detection.map(|d| d.round_trip_m), dt);
                    stage = (mags.to_vec(), detection, denoised);
                }
            })?;
        let (magnitudes, detection, denoised) = stage;
        Some(TofFrame {
            frame_index: clock.frame_index,
            time_s: clock.time_s,
            magnitudes,
            detection,
            denoised,
        })
    }

    /// Clears all stream state (baseline, denoiser history, counters).
    pub fn reset(&mut self) {
        self.front.reset();
        self.denoiser.reset();
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
