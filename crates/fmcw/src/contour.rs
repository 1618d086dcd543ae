//! Bottom-contour tracking (paper §4.3).
//!
//! After background subtraction only *moving* reflectors remain: the direct
//! body echo plus dynamic multipath (body → wall → antenna). The direct echo
//! always travels the shortest path, so WiTrack tracks "the smallest local
//! frequency maximum that is substantially above the noise floor" rather
//! than the globally strongest return — indirect bounces can be stronger
//! than a through-wall direct path, but they can never be *shorter*.

use crate::config::SweepConfig;
use serde::{Deserialize, Serialize};
use witrack_dsp::peak;

/// Tuning for [`ContourTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContourConfig {
    /// Robust z-score a bin must exceed over the median noise to count as
    /// "substantially above the noise floor".
    pub noise_floor_k: f64,
    /// Bins below this round-trip distance (m) are ignored: the Tx→Rx direct
    /// leak and antenna coupling live there, not targets.
    pub min_round_trip_m: f64,
    /// Absolute floor on detection magnitude, guarding the all-noise case
    /// where median + k·MAD is still tiny.
    pub min_magnitude: f64,
}

impl Default for ContourConfig {
    fn default() -> Self {
        ContourConfig {
            noise_floor_k: 5.0,
            min_round_trip_m: 0.5,
            min_magnitude: 1e-9,
        }
    }
}

/// A per-frame contour detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Sub-bin-refined FFT bin index of the first strong local maximum.
    pub bin: f64,
    /// The corresponding round-trip distance (m).
    pub round_trip_m: f64,
    /// Magnitude of the detected peak (background-subtracted units).
    pub magnitude: f64,
    /// Noise floor the detection was compared against.
    pub noise_floor: f64,
}

/// Extracts the bottom contour from background-subtracted magnitude frames.
#[derive(Debug, Clone)]
pub struct ContourTracker {
    cfg: ContourConfig,
    sweep: SweepConfig,
    min_bin: usize,
    /// Reused noise-floor scratch (`peak::noise_floor_with_scratch`):
    /// the detect family is `&mut self` so the per-frame robust floor
    /// estimate allocates nothing on the serving hot path.
    floor_scratch: Vec<f64>,
}

impl ContourTracker {
    /// Creates a tracker for the given sweep configuration.
    pub fn new(sweep: SweepConfig, cfg: ContourConfig) -> ContourTracker {
        let min_bin = sweep
            .bin_for_round_trip(cfg.min_round_trip_m)
            .floor()
            .max(0.0) as usize;
        ContourTracker {
            cfg,
            sweep,
            min_bin,
            floor_scratch: Vec::new(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &ContourConfig {
        &self.cfg
    }

    /// Finds the bottom contour in one frame of background-subtracted
    /// magnitudes. Returns `None` when no bin rises substantially above the
    /// noise floor (a static scene).
    pub fn detect(&mut self, magnitudes: &[f64]) -> Option<Detection> {
        if magnitudes.len() <= self.min_bin + 2 {
            return None;
        }
        let usable = &magnitudes[self.min_bin..];
        let floor =
            peak::noise_floor_with_scratch(usable, self.cfg.noise_floor_k, &mut self.floor_scratch)
                .max(self.cfg.min_magnitude);
        let rel = peak::first_maximum_above(usable, floor)?;
        let idx = self.min_bin + rel;
        let refined = peak::parabolic_refine(magnitudes, idx);
        Some(Detection {
            bin: refined,
            round_trip_m: self.sweep.round_trip_for_bin(refined),
            magnitude: magnitudes[idx],
            noise_floor: floor,
        })
    }

    /// Multi-target extension of [`detect`](ContourTracker::detect): the
    /// `k` *nearest* local maxima substantially above the noise floor,
    /// nearest first.
    ///
    /// The §4.3 bottom-contour argument generalizes: with N moving bodies,
    /// each body's direct echo is the shortest path *among its own*
    /// echoes, so the N nearest strong maxima are the N direct echoes
    /// whenever the bodies are radially separated (dynamic-multipath
    /// bounces of a nearer body can outrange a farther body's direct echo,
    /// in which case a bounce is reported — the caller's association gates
    /// reject it). Maxima within `min_separation_bins` of an
    /// already-accepted nearer peak are treated as the same reflector's
    /// spectral lobe and skipped.
    ///
    /// The detections go into `out`, which is cleared and refilled,
    /// reusing its capacity across frames. `detect(m)` is exactly the
    /// first detection of `k = 1` with no separation.
    pub fn detect_top_k_into(
        &mut self,
        magnitudes: &[f64],
        k: usize,
        min_separation_bins: f64,
        out: &mut Vec<Detection>,
    ) {
        out.clear();
        if k == 0 || magnitudes.len() <= self.min_bin + 2 {
            return;
        }
        let usable = &magnitudes[self.min_bin..];
        let floor =
            peak::noise_floor_with_scratch(usable, self.cfg.noise_floor_k, &mut self.floor_scratch)
                .max(self.cfg.min_magnitude);
        let mut last_accepted: Option<f64> = None;
        for rel in peak::local_maxima_above_iter(usable, floor) {
            let idx = self.min_bin + rel;
            if let Some(prev) = last_accepted {
                if (idx as f64 - prev) < min_separation_bins {
                    continue;
                }
            }
            last_accepted = Some(idx as f64);
            let refined = peak::parabolic_refine(magnitudes, idx);
            out.push(Detection {
                bin: refined,
                round_trip_m: self.sweep.round_trip_for_bin(refined),
                magnitude: magnitudes[idx],
                noise_floor: floor,
            });
            if out.len() == k {
                break;
            }
        }
    }

    /// The §4.3 ablation: track the *strongest* return instead of the
    /// nearest strong one. Kept here so the baseline crate and the contour
    /// share identical thresholds.
    pub fn detect_strongest(&mut self, magnitudes: &[f64]) -> Option<Detection> {
        if magnitudes.len() <= self.min_bin + 2 {
            return None;
        }
        let usable = &magnitudes[self.min_bin..];
        let floor =
            peak::noise_floor_with_scratch(usable, self.cfg.noise_floor_k, &mut self.floor_scratch)
                .max(self.cfg.min_magnitude);
        let rel = peak::global_maximum(usable)?;
        if usable[rel] <= floor {
            return None;
        }
        let idx = self.min_bin + rel;
        let refined = peak::parabolic_refine(magnitudes, idx);
        Some(Detection {
            bin: refined,
            round_trip_m: self.sweep.round_trip_for_bin(refined),
            magnitude: magnitudes[idx],
            noise_floor: floor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SweepConfig {
        SweepConfig::witrack()
    }

    /// Builds a frame with Gaussian lobes at given (bin, amplitude) pairs on
    /// a pseudo-noise floor.
    fn frame(n: usize, lobes: &[(f64, f64)], noise_amp: f64) -> Vec<f64> {
        let mut m: Vec<f64> = (0..n)
            .map(|i| {
                // Deterministic pseudo-noise.
                let x = (i as f64 * 12.9898).sin() * 43758.5453;
                noise_amp * (x - x.floor())
            })
            .collect();
        for &(c, a) in lobes {
            for (i, mi) in m.iter_mut().enumerate() {
                *mi += a * (-((i as f64 - c) / 1.2).powi(2)).exp();
            }
        }
        m
    }

    fn top_k(t: &mut ContourTracker, m: &[f64], k: usize, sep: f64) -> Vec<Detection> {
        let mut out = Vec::new();
        t.detect_top_k_into(m, k, sep, &mut out);
        out
    }

    #[test]
    fn picks_nearest_strong_peak_not_strongest() {
        let sweep = cfg();
        let mut t = ContourTracker::new(sweep, ContourConfig::default());
        // Direct body echo at bin 40 (weak), wall bounce at bin 70 (strong).
        let m = frame(200, &[(40.0, 5.0), (70.0, 20.0)], 0.1);
        let d = t.detect(&m).unwrap();
        assert!((d.bin - 40.0).abs() < 0.5, "bin {}", d.bin);
        let s = t.detect_strongest(&m).unwrap();
        assert!((s.bin - 70.0).abs() < 0.5, "bin {}", s.bin);
        // Round-trip mapping matches the sweep config.
        assert!((d.round_trip_m - sweep.round_trip_for_bin(d.bin)).abs() < 1e-12);
    }

    #[test]
    fn top_k_returns_nearest_first_and_matches_detect() {
        let sweep = cfg();
        let mut t = ContourTracker::new(sweep, ContourConfig::default());
        let m = frame(200, &[(40.0, 5.0), (70.0, 20.0), (120.0, 8.0)], 0.1);
        let dets = top_k(&mut t, &m, 3, 2.0);
        assert_eq!(dets.len(), 3);
        assert!((dets[0].bin - 40.0).abs() < 0.5);
        assert!((dets[1].bin - 70.0).abs() < 0.5);
        assert!((dets[2].bin - 120.0).abs() < 0.5);
        // Nearest-first ordering and agreement with the single-target path.
        assert!(dets.windows(2).all(|w| w[0].bin < w[1].bin));
        let single = t.detect(&m).unwrap();
        assert_eq!(dets[0], single);
        // k truncates nearest-first.
        assert_eq!(top_k(&mut t, &m, 2, 2.0).len(), 2);
        assert!((top_k(&mut t, &m, 1, 2.0)[0].bin - 40.0).abs() < 0.5);
    }

    #[test]
    fn top_k_merges_lobes_within_min_separation() {
        let sweep = cfg();
        let mut t = ContourTracker::new(sweep, ContourConfig::default());
        // Two ripples of one wide reflector at bins 50/52, a real second
        // target at 90.
        let m = frame(200, &[(50.0, 10.0), (52.3, 9.0), (90.0, 8.0)], 0.05);
        let dets = top_k(&mut t, &m, 3, 4.0);
        assert_eq!(dets.len(), 2, "{dets:?}");
        assert!((dets[0].bin - 50.0).abs() < 0.6);
        assert!((dets[1].bin - 90.0).abs() < 0.5);
        // With no separation requirement all three maxima surface.
        assert_eq!(top_k(&mut t, &m, 3, 0.0).len(), 3);
    }

    #[test]
    fn top_k_empty_cases() {
        let mut t = ContourTracker::new(cfg(), ContourConfig::default());
        let m = frame(200, &[(40.0, 5.0)], 0.1);
        assert!(top_k(&mut t, &m, 0, 2.0).is_empty());
        assert!(top_k(&mut t, &[1.0, 2.0], 3, 2.0).is_empty());
        assert!(top_k(&mut t, &vec![0.0; 200], 3, 2.0).is_empty());
    }

    #[test]
    fn all_noise_frame_detects_nothing() {
        let mut t = ContourTracker::new(cfg(), ContourConfig::default());
        let m = frame(200, &[], 0.1);
        assert!(t.detect(&m).is_none());
    }

    #[test]
    fn zero_frame_detects_nothing() {
        let mut t = ContourTracker::new(cfg(), ContourConfig::default());
        assert!(t.detect(&vec![0.0; 200]).is_none());
        assert!(t.detect_strongest(&vec![0.0; 200]).is_none());
    }

    #[test]
    fn self_interference_region_is_ignored() {
        let sweep = cfg();
        let mut t = ContourTracker::new(
            sweep,
            ContourConfig {
                min_round_trip_m: 2.0,
                ..ContourConfig::default()
            },
        );
        let leak_bin = sweep.bin_for_round_trip(0.3);
        let body_bin = sweep.bin_for_round_trip(8.0);
        let m = frame(200, &[(leak_bin, 100.0), (body_bin, 5.0)], 0.1);
        let d = t.detect(&m).unwrap();
        assert!(
            (d.bin - body_bin).abs() < 0.5,
            "bin {} body {}",
            d.bin,
            body_bin
        );
    }

    #[test]
    fn subbin_refinement_beats_integer_bins() {
        let sweep = cfg();
        let mut t = ContourTracker::new(sweep, ContourConfig::default());
        let true_bin = 45.4;
        let m = frame(200, &[(true_bin, 10.0)], 0.05);
        let d = t.detect(&m).unwrap();
        assert!(
            (d.bin - true_bin).abs() < 0.1,
            "refined {} true {}",
            d.bin,
            true_bin
        );
    }

    #[test]
    fn short_frames_are_rejected() {
        let mut t = ContourTracker::new(cfg(), ContourConfig::default());
        assert!(t.detect(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn detection_reports_floor_below_peak() {
        let mut t = ContourTracker::new(cfg(), ContourConfig::default());
        let m = frame(200, &[(50.0, 8.0)], 0.1);
        let d = t.detect(&m).unwrap();
        assert!(d.magnitude > d.noise_floor);
    }
}
