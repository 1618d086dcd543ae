//! Contour de-noising (paper §4.4): outlier rejection, interpolation during
//! motion gaps, and Kalman smoothing — composed in the paper's order.

use serde::{Deserialize, Serialize};
use witrack_dsp::filters::{HoldInterpolator, OutlierGate};
use witrack_dsp::kalman::{Kalman1D, KalmanConfig};

/// Tuning for [`DistanceDenoiser`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DenoiseConfig {
    /// Maximum plausible round-trip speed (m/s). Round-trip distance changes
    /// at up to twice the body speed; indoor motion stays below ~3 m/s, so
    /// the default gate is 8 m/s with margin.
    pub max_round_trip_speed: f64,
    /// Consecutive rejections after which the gate re-seeds (the contour
    /// may have legitimately locked onto a new target position).
    pub max_consecutive_rejects: usize,
    /// Kalman measurement noise, in meters of round-trip distance.
    pub measurement_std: f64,
    /// Kalman process acceleration noise (m/s²).
    pub process_accel_std: f64,
    /// After this many held frames, a lone detection is treated as noise:
    /// this many *consecutive* detections are required to break the hold.
    pub reacquire_frames: usize,
}

impl Default for DenoiseConfig {
    fn default() -> Self {
        DenoiseConfig {
            // The §4.4 rule targets *meters* of jump in milliseconds; the
            // raw contour also jitters frame-to-frame as the specular point
            // wanders over the torso (~0.1 m at 80 fps ≈ 10 m/s implied),
            // which must pass the gate.
            max_round_trip_speed: 20.0,
            max_consecutive_rejects: 16,
            // Raw contour detections sit at ~4 cm error with the paper's
            // bandwidth, and walking swings the round trip at up to ±2 m/s
            // with quick reversals: a sluggish filter (low process noise)
            // lags by tens of centimeters, which geometry then amplifies
            // ~(range/separation)× into x and z. These defaults keep the
            // steady-state lag under ~8 cm while still rejecting jitter.
            measurement_std: 0.06,
            process_accel_std: 12.0,
            reacquire_frames: 3,
        }
    }
}

/// One denoised sample of the round-trip distance stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenoisedDistance {
    /// Smoothed round-trip distance (m).
    pub round_trip_m: f64,
    /// Estimated round-trip velocity (m/s) from the Kalman state.
    pub velocity_mps: f64,
    /// `true` when this sample is held/interpolated rather than measured
    /// (person static, §4.4 "Interpolation").
    pub held: bool,
}

/// Accepted raw detections whose median a hold reports.
const RECENT_RAW: usize = 5;

/// The §4.4 denoising stack for one antenna's contour stream.
#[derive(Debug, Clone)]
pub struct DistanceDenoiser {
    cfg: DenoiseConfig,
    gate: OutlierGate,
    hold: HoldInterpolator,
    kalman: Kalman1D,
    /// Recent accepted raw detections. Interpolation holds their median:
    /// lag-free (unlike the Kalman output, which trails fast motion right
    /// when the person stops) yet robust to specular-wander jitter (unlike
    /// the single last detection).
    recent_raw: std::collections::VecDeque<f64>,
    /// Value being held during an interpolation stretch.
    held_value: Option<f64>,
    /// Consecutive detections seen while trying to break a long hold.
    reacquire_run: usize,
}

impl DistanceDenoiser {
    /// Creates a denoiser.
    pub fn new(cfg: DenoiseConfig) -> DistanceDenoiser {
        DistanceDenoiser {
            cfg,
            gate: OutlierGate::new(cfg.max_round_trip_speed, cfg.max_consecutive_rejects),
            hold: HoldInterpolator::new(),
            kalman: Kalman1D::new(KalmanConfig {
                measurement_std: cfg.measurement_std,
                process_accel_std: cfg.process_accel_std,
                ..KalmanConfig::default()
            }),
            recent_raw: std::collections::VecDeque::new(),
            held_value: None,
            reacquire_run: 0,
        }
    }

    /// Pushes one frame's contour measurement (`None` when the contour found
    /// nothing — no motion). `dt` is the frame period in seconds. Returns
    /// the denoised distance once the stream has been seeded.
    pub fn push(&mut self, raw: Option<f64>, dt: f64) -> Option<DenoisedDistance> {
        // Stage 1: outlier rejection. A rejected sample is treated like a
        // missing one — the hold stage bridges it. When the gate re-seeds
        // (the contour has persistently moved somewhere new), the Kalman
        // history describes a stale position, so it restarts too.
        let gated = match raw {
            None => None,
            Some(v) => match self.gate.push(v, dt) {
                witrack_dsp::filters::GateDecision::Accepted(x) => Some(x),
                witrack_dsp::filters::GateDecision::Reseeded(x) => {
                    self.kalman.reset();
                    Some(x)
                }
                witrack_dsp::filters::GateDecision::Rejected { .. } => None,
            },
        };

        // Re-acquisition hysteresis: after a long hold, a lone detection is
        // far more likely to be a noise peak crossing the contour threshold
        // than the person resuming — and accepting it would corrupt the
        // held position permanently. Require a short run of consecutive
        // detections to break a long hold.
        // Only *long* holds (a genuinely static person, ~0.3 s+) demand
        // confirmation; brief detection flicker while walking must re-lock
        // instantly or holds would snowball.
        let long_hold = self.hold.held_frames() >= 8 * self.cfg.reacquire_frames.max(1);
        let gated = match gated {
            Some(v) if long_hold => {
                self.reacquire_run += 1;
                if self.reacquire_run >= self.cfg.reacquire_frames.max(1) {
                    Some(v)
                } else {
                    None
                }
            }
            other => {
                if other.is_none() {
                    self.reacquire_run = 0;
                }
                other
            }
        };

        // Stage 2: interpolation over gaps.
        let held = gated.is_none();
        let value = self.hold.push(gated)?;

        // Stage 3: Kalman smoothing — for measured frames only. A held
        // frame means "the person stopped"; the paper interpolates the
        // latest estimate *unchanged* (§4.4). Hold the median of the recent
        // raw detections: the Kalman output trails fast motion exactly when
        // the person stops, while the median is lag-free and jitter-robust.
        let smoothed = if held {
            let v = *self.held_value.get_or_insert_with(|| {
                if self.recent_raw.is_empty() {
                    value
                } else {
                    let mut vals = [0.0; RECENT_RAW];
                    for (v, &r) in vals.iter_mut().zip(&self.recent_raw) {
                        *v = r;
                    }
                    witrack_dsp::stats::median_in_place(&mut vals[..self.recent_raw.len()])
                }
            });
            self.kalman.hold_at(v);
            v
        } else {
            self.held_value = None;
            self.recent_raw.push_back(value);
            if self.recent_raw.len() > RECENT_RAW {
                self.recent_raw.pop_front();
            }
            self.kalman.update(value, dt)
        };

        Some(DenoisedDistance {
            round_trip_m: smoothed,
            velocity_mps: self.kalman.velocity().unwrap_or(0.0),
            held,
        })
    }

    /// Number of consecutive frames the output has been held.
    pub fn held_frames(&self) -> usize {
        self.hold.held_frames()
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.gate.reset();
        self.hold.reset();
        self.kalman.reset();
        self.recent_raw.clear();
        self.held_value = None;
        self.reacquire_run = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 0.0125;

    #[test]
    fn passes_clean_stream_through() {
        let mut d = DistanceDenoiser::new(DenoiseConfig::default());
        let mut last = None;
        for i in 0..200 {
            let truth = 8.0 + 0.01 * i as f64; // 0.8 m/s round-trip speed
            last = d.push(Some(truth), DT);
        }
        let out = last.unwrap();
        assert!(!out.held);
        assert!(
            (out.round_trip_m - 9.99).abs() < 0.05,
            "got {}",
            out.round_trip_m
        );
        assert!((out.velocity_mps - 0.8).abs() < 0.2);
    }

    #[test]
    fn rejects_multipath_spike() {
        let mut d = DistanceDenoiser::new(DenoiseConfig::default());
        for _ in 0..50 {
            d.push(Some(6.0), DT);
        }
        // A 5 m jump in one frame (§4.4's example of an impossible jump).
        let out = d.push(Some(11.0), DT).unwrap();
        assert!(out.held, "spike should be treated as missing");
        assert!(
            (out.round_trip_m - 6.0).abs() < 0.1,
            "got {}",
            out.round_trip_m
        );
        // Stream recovers when the spike goes away.
        let out = d.push(Some(6.01), DT).unwrap();
        assert!(!out.held);
    }

    #[test]
    fn holds_position_when_person_stops() {
        let mut d = DistanceDenoiser::new(DenoiseConfig::default());
        for _ in 0..100 {
            d.push(Some(5.0), DT);
        }
        // Person stops: contour disappears for 2 seconds.
        let mut out = None;
        for _ in 0..160 {
            out = d.push(None, DT);
        }
        let out = out.unwrap();
        assert!(out.held);
        assert_eq!(d.held_frames(), 160);
        assert!(
            (out.round_trip_m - 5.0).abs() < 0.2,
            "got {}",
            out.round_trip_m
        );
    }

    #[test]
    fn no_output_before_first_detection() {
        let mut d = DistanceDenoiser::new(DenoiseConfig::default());
        assert!(d.push(None, DT).is_none());
        assert!(d.push(None, DT).is_none());
        assert!(d.push(Some(4.0), DT).is_some());
    }

    #[test]
    fn reseeds_after_persistent_new_position() {
        let cfg = DenoiseConfig {
            max_consecutive_rejects: 10,
            ..DenoiseConfig::default()
        };
        let mut d = DistanceDenoiser::new(cfg);
        for _ in 0..50 {
            d.push(Some(4.0), DT);
        }
        // Contour jumps to 9 m and stays: after the reject budget, follow it.
        let mut out = None;
        for _ in 0..60 {
            out = d.push(Some(9.0), DT);
        }
        assert!((out.unwrap().round_trip_m - 9.0).abs() < 0.3);
    }

    #[test]
    fn smooths_jitter() {
        let mut d = DistanceDenoiser::new(DenoiseConfig::default());
        let mut raw_var = 0.0;
        let mut out_var = 0.0;
        let mut n = 0.0;
        for i in 0..500 {
            // ±4 cm alternation (6.4 m/s implied speed) stays inside the
            // outlier gate, so this exercises the Kalman stage.
            let jitter = if i % 2 == 0 { 0.04 } else { -0.04 };
            let out = d.push(Some(7.0 + jitter), DT).unwrap();
            if i > 100 {
                raw_var += jitter * jitter;
                out_var += (out.round_trip_m - 7.0) * (out.round_trip_m - 7.0);
                n += 1.0;
            }
        }
        assert!(
            out_var / n < 0.25 * raw_var / n,
            "out {} raw {}",
            out_var / n,
            raw_var / n
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = DistanceDenoiser::new(DenoiseConfig::default());
        d.push(Some(3.0), DT);
        d.reset();
        assert!(d.push(None, DT).is_none());
    }
}
