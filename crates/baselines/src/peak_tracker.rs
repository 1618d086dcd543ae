//! The strongest-return tracking ablation (paper §4.3).
//!
//! WiTrack tracks the *bottom contour* — the nearest strong moving return —
//! because "the point of maximum reflection may abruptly shift due to
//! different indirect paths in the environment" (§4.3). This baseline does
//! what the paper argues against: it tracks the globally strongest moving
//! return, with the same profiling, background subtraction, and denoising
//! stack, so any accuracy gap is attributable to the detection rule alone.

use witrack_fmcw::{ContourTracker, SweepConfig, TofEstimator, TofFrame};

/// Per-antenna TOF estimation that locks onto the strongest return: a
/// [`TofEstimator`] whose detection rule is
/// [`ContourTracker::detect_strongest`], with tuning identical to the
/// WiTrack defaults so the comparison isolates the detection rule.
pub struct StrongestReturnTracker(TofEstimator);

impl StrongestReturnTracker {
    /// Creates the tracker, keeping range bins up to `max_round_trip_m`.
    pub fn new(cfg: SweepConfig, max_round_trip_m: f64) -> StrongestReturnTracker {
        StrongestReturnTracker(TofEstimator::with_rule(
            cfg,
            max_round_trip_m,
            ContourTracker::detect_strongest,
        ))
    }

    /// Pushes one sweep; emits a frame on frame boundaries, exactly like
    /// [`TofEstimator::push_sweep`] but using the strongest-return rule.
    pub fn push_sweep(&mut self, samples: &[f64]) -> Option<TofFrame> {
        self.0.push_sweep(samples)
    }

    /// Clears stream state.
    pub fn reset(&mut self) {
        self.0.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 250e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        }
    }

    fn sweep(cfg: &SweepConfig, reflectors: &[(f64, f64)]) -> Vec<f64> {
        let n = cfg.samples_per_sweep();
        let mut out = vec![0.0; n];
        for &(round_trip, amp) in reflectors {
            let tau = round_trip / 299_792_458.0;
            let beat = cfg.beat_for_tof(tau);
            let phase = 2.0 * PI * cfg.start_freq_hz * tau;
            for (i, o) in out.iter_mut().enumerate() {
                let t = i as f64 / cfg.sample_rate_hz;
                *o += amp * (2.0 * PI * beat * t + phase).cos();
            }
        }
        out
    }

    /// Runs both trackers over a walk where a wall bounce (longer path) is
    /// STRONGER than the occluded direct echo, returning (contour median
    /// error, peak median error).
    fn run_occluded_scenario() -> (f64, f64) {
        let cfg = small_cfg();
        let mut contour = TofEstimator::new(cfg, 80.0);
        let mut peak = StrongestReturnTracker::new(cfg, 80.0);
        let mut contour_errs = Vec::new();
        let mut peak_errs = Vec::new();
        for f in 0..160 {
            let rt = 10.0 + 1.5 * f as f64 / 160.0;
            let bounce_rt = rt + 6.0; // side-wall detour
            for _ in 0..cfg.sweeps_per_frame {
                // Direct echo occluded (weak), bounce strong — §4.3's case.
                let s = sweep(&cfg, &[(rt, 0.3), (bounce_rt, 1.0)]);
                if let (Some(cf), Some(pf)) = (contour.push_sweep(&s), peak.push_sweep(&s)) {
                    if f > 20 {
                        if let Some(d) = cf.round_trip_m() {
                            contour_errs.push((d - rt).abs());
                        }
                        if let Some(d) = pf.round_trip_m() {
                            peak_errs.push((d - rt).abs());
                        }
                    }
                }
            }
        }
        (
            witrack_dsp::stats::median(&contour_errs),
            witrack_dsp::stats::median(&peak_errs),
        )
    }

    #[test]
    fn contour_beats_peak_under_dynamic_multipath() {
        let (contour_med, peak_med) = run_occluded_scenario();
        // The peak tracker locks onto the bounce, ~6 m off; the contour
        // stays on the direct path.
        assert!(contour_med < 1.0, "contour median {contour_med}");
        assert!(peak_med > 3.0, "peak median {peak_med} should be fooled");
    }

    #[test]
    fn trackers_agree_without_multipath() {
        let cfg = small_cfg();
        let mut contour = TofEstimator::new(cfg, 80.0);
        let mut peak = StrongestReturnTracker::new(cfg, 80.0);
        let mut diffs = Vec::new();
        for f in 0..100 {
            let rt = 8.0 + 1.0 * f as f64 / 100.0;
            for _ in 0..cfg.sweeps_per_frame {
                let s = sweep(&cfg, &[(rt, 1.0)]);
                if let (Some(cf), Some(pf)) = (contour.push_sweep(&s), peak.push_sweep(&s)) {
                    if let (Some(a), Some(b)) = (cf.round_trip_m(), pf.round_trip_m()) {
                        diffs.push((a - b).abs());
                    }
                }
            }
        }
        assert!(!diffs.is_empty());
        let worst = diffs.iter().cloned().fold(0.0_f64, f64::max);
        assert!(worst < 0.5, "single-path disagreement {worst}");
    }

    #[test]
    fn frame_cadence_matches_contour_pipeline() {
        let cfg = small_cfg();
        let mut peak = StrongestReturnTracker::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 1.0)]);
        let mut frames = 0;
        for _ in 0..cfg.sweeps_per_frame * 7 {
            if peak.push_sweep(&s).is_some() {
                frames += 1;
            }
        }
        assert_eq!(frames, 7);
        peak.reset();
        let mut first = None;
        for _ in 0..cfg.sweeps_per_frame {
            first = peak.push_sweep(&s);
        }
        assert_eq!(first.unwrap().frame_index, 0);
    }
}
