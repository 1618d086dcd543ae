//! The per-antenna front end every tracker shares (paper §4.1–§4.2).
//!
//! A [`FrontEnd`] owns one [`RangeProfiler`] and one
//! [`BackgroundSubtractor`] per receive antenna and the stream's sweep
//! clock. Push one sweep interval (one sweep per antenna) in; on each
//! frame-completing sweep it hands every antenna's background-subtracted
//! magnitudes to the caller's §4.3 contour step and returns the frame's
//! [`FrameClock`]. The single-target pipeline follows the step with §4.4
//! denoising, the multi-target one detects the top K contours instead.
//!
//! The antennas run one after another on the caller's thread. Their band
//! transforms share one per-thread working buffer (see [`RangeProfiler`]),
//! and a steady-state frame allocates nothing here.

use crate::background::BackgroundSubtractor;
use crate::config::SweepConfig;
use crate::profile::{RangeProfiler, Sweep};
use std::time::Instant;
use witrack_dsp::window::WindowKind;
use witrack_obs::{Histo, StageStats};

/// When a frame completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameClock {
    /// Index of this frame since the stream started.
    pub frame_index: u64,
    /// Time (s) at the *end* of the frame's last sweep.
    pub time_s: f64,
}

/// Sweep → range profile → background subtraction for every receive
/// antenna of one sensor.
pub struct FrontEnd {
    cfg: SweepConfig,
    profilers: Vec<RangeProfiler>,
    backgrounds: Vec<BackgroundSubtractor>,
    frame_index: u64,
    sweeps_seen: u64,
    /// Per-stage latency histograms, when the owner attached them.
    stats: Option<StageStats>,
}

impl FrontEnd {
    /// A front end for `num_rx` antennas, keeping range bins up to
    /// `max_round_trip_m`.
    pub fn new(cfg: SweepConfig, max_round_trip_m: f64, num_rx: usize) -> FrontEnd {
        FrontEnd {
            cfg,
            profilers: (0..num_rx)
                .map(|_| RangeProfiler::new(&cfg, WindowKind::Hann, max_round_trip_m))
                .collect(),
            backgrounds: (0..num_rx).map(|_| BackgroundSubtractor::new()).collect(),
            frame_index: 0,
            sweeps_seen: 0,
            stats: None,
        }
    }

    /// The sweep configuration in use.
    pub(crate) fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Attaches per-stage latency histograms: each antenna's range
    /// profiling is recorded into `stats.profile` and its background
    /// subtraction plus the caller's contour step into `stats.detect`, on
    /// every frame-completing sweep. The owner records its own
    /// association into `stats.associate`.
    pub fn attach_stage_stats(&mut self, stats: StageStats) {
        self.stats = Some(stats);
    }

    /// The attached stage histograms, if any.
    pub fn stage_stats(&self) -> Option<&StageStats> {
        self.stats.as_ref()
    }

    /// Pushes one sweep interval, one sweep per receive antenna in antenna
    /// order. On a frame-completing sweep, calls `detect(k, magnitudes)`
    /// for each antenna `k` with its background-subtracted magnitudes
    /// (`None` on the first frame, before a baseline exists) and returns
    /// the frame's clock.
    ///
    /// # Panics
    /// Panics unless there is exactly one sweep per receive antenna and
    /// each holds `samples_per_sweep` samples.
    pub fn push<'a>(
        &mut self,
        per_rx: impl ExactSizeIterator<Item = Sweep<'a>> + Clone,
        mut detect: impl FnMut(usize, Option<&[f64]>),
    ) -> Option<FrameClock> {
        let samples = self.cfg.samples_per_sweep();
        assert!(
            per_rx.len() == self.profilers.len() && per_rx.clone().all(|s| s.len() == samples),
            "one sweep of {samples} samples per receive antenna"
        );
        self.sweeps_seen += 1;
        // All profilers share the sweep clock.
        let completes = self
            .profilers
            .first()
            .is_some_and(RangeProfiler::next_sweep_completes_frame);
        if !completes {
            for (prof, sweep) in self.profilers.iter_mut().zip(per_rx) {
                let emitted = prof.push(sweep);
                debug_assert!(emitted.is_none(), "profilers desynchronized");
            }
            return None;
        }
        let stats = self.stats.as_ref();
        let stages = self.profilers.iter_mut().zip(&mut self.backgrounds);
        for (k, ((prof, bg), sweep)) in stages.zip(per_rx).enumerate() {
            let profile = timed(stats.map(|s| &*s.profile), move || prof.push(sweep))
                .expect("frame-completing sweep");
            timed(stats.map(|s| &*s.detect), || detect(k, bg.push(profile)));
        }
        let clock = FrameClock {
            frame_index: self.frame_index,
            time_s: self.sweeps_seen as f64 * self.cfg.sweep_duration_s,
        };
        self.frame_index += 1;
        Some(clock)
    }

    /// Clears all stream state (baselines, partial frames, the clock).
    pub fn reset(&mut self) {
        for p in &mut self.profilers {
            p.reset();
        }
        for b in &mut self.backgrounds {
            b.reset();
        }
        self.frame_index = 0;
        self.sweeps_seen = 0;
    }
}

/// Runs `f`, recording its wall time into `histo` when there is one.
fn timed<T>(histo: Option<&Histo>, f: impl FnOnce() -> T) -> T {
    let Some(histo) = histo else { return f() };
    let start = Instant::now();
    let out = f();
    histo.record_since(start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 100e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        }
    }

    #[test]
    fn hands_every_antenna_to_the_contour_step_on_frame_boundaries() {
        let cfg = small_cfg();
        let mut front = FrontEnd::new(cfg, 40.0, 3);
        let flat: Vec<f64> = (0..3 * cfg.samples_per_sweep())
            .map(|i| (0.3 * i as f64).sin())
            .collect();
        let mut seen = Vec::new();
        let mut clocks = Vec::new();
        for _ in 0..2 * cfg.sweeps_per_frame {
            let per_rx = Sweep::F64(&flat).chunks(cfg.samples_per_sweep());
            clocks.extend(front.push(per_rx, |k, mags| seen.push((k, mags.map(<[f64]>::len)))));
        }
        let bins = RangeProfiler::new(&cfg, WindowKind::Hann, 40.0).keep_bins();
        let first = [(0, None), (1, None), (2, None)];
        let second = [(0, Some(bins)), (1, Some(bins)), (2, Some(bins))];
        assert_eq!(seen, [first, second].concat());
        let frame_s = cfg.frame_duration_s();
        assert_eq!(clocks.len(), 2);
        assert_eq!((clocks[0].frame_index, clocks[1].frame_index), (0, 1));
        assert!((clocks[1].time_s - 2.0 * frame_s).abs() < 1e-12);
        front.reset();
        let per_rx = Sweep::F64(&flat).chunks(cfg.samples_per_sweep());
        assert_eq!(front.push(per_rx, |_, _| {}), None);
    }

    #[test]
    #[should_panic(expected = "per receive antenna")]
    fn a_missing_antenna_panics() {
        let cfg = small_cfg();
        let mut front = FrontEnd::new(cfg, 40.0, 3);
        let flat = vec![0.0; 2 * cfg.samples_per_sweep()];
        front.push(Sweep::F64(&flat).chunks(cfg.samples_per_sweep()), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "per receive antenna")]
    fn a_short_sweep_panics() {
        let cfg = small_cfg();
        let mut front = FrontEnd::new(cfg, 40.0, 3);
        let flat = vec![0; 3 * cfg.samples_per_sweep() - 1];
        front.push(
            Sweep::Q(&flat, 1.0).chunks(cfg.samples_per_sweep()),
            |_, _| {},
        );
    }
}
