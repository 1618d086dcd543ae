//! Equivalence and determinism of the shared per-antenna front end.
//!
//! Over a seeded simulated walk, fed both as `f64` sweeps and as
//! wire-quantized `i16` batches:
//! - [`WiTrack`]'s per-antenna magnitudes, detections and round trips
//!   equal, bit for bit, a chain assembled by hand from the stage types
//!   (`RangeProfiler → BackgroundSubtractor → ContourTracker →
//!   DistanceDenoiser`) for every antenna;
//! - [`MultiWiTrack`]'s per-antenna detection counts equal the same
//!   chain with [`ContourTracker::detect_top_k_into`];
//! - two runs with the same seed give identical [`FrameReport`]s through
//!   [`FramePipeline`], for both backends.

use witrack_core::{FramePipeline, FrameReport, WiTrack, WiTrackConfig};
use witrack_dsp::window::WindowKind;
use witrack_fmcw::{
    BackgroundSubtractor, ContourTracker, Detection, DistanceDenoiser, RangeProfiler, Sweep,
    SweepConfig,
};
use witrack_mtt::{MttConfig, MultiWiTrack};
use witrack_sim::motion::{RandomWalk, Rect};
use witrack_sim::{BodyModel, Channel, Scene, SimConfig, Simulator};

fn config() -> WiTrackConfig {
    WiTrackConfig {
        sweep: SweepConfig::witrack_mid(),
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    }
}

/// One sweep interval in both input forms: per-antenna `f64` sweeps, and
/// the antenna-contiguous `i16` batch with its scale (one scale for the
/// interval's peak, the way wire encoders quantize).
struct Interval {
    per_rx: Vec<Vec<f64>>,
    flat_q: Vec<i16>,
    scale: f64,
}

/// Three seconds of a seeded random walk with pauses, on the T array.
fn record(seed: u64) -> Vec<Interval> {
    let cfg = config();
    let array = WiTrack::new(cfg).expect("valid config").array().clone();
    let walk = RandomWalk::new(Rect::vicon_area(), 1.0, 1.0, 3.0, 0.5, seed);
    let channel = Channel {
        scene: Scene::witrack_lab(false),
        array,
        body: BodyModel::adult(),
        reference_amplitude: 100.0,
    };
    let sim_cfg = SimConfig {
        sweep: cfg.sweep,
        noise_std: 0.05,
        seed,
    };
    let mut sim = Simulator::new(sim_cfg, channel, Box::new(walk));
    let mut out = Vec::new();
    while let Some(set) = sim.next_sweeps() {
        let peak = set
            .per_rx
            .iter()
            .flatten()
            .fold(0.0_f64, |m, &x| m.max(x.abs()));
        let scale = if peak > 0.0 { peak / 32767.0 } else { 1.0 };
        let flat_q = set
            .per_rx
            .iter()
            .flatten()
            .map(|&x| (x / scale).round() as i16)
            .collect();
        out.push(Interval {
            per_rx: set.per_rx,
            flat_q,
            scale,
        });
    }
    out
}

/// One antenna's §4 chain, assembled by hand from the stage types.
struct Chain {
    profiler: RangeProfiler,
    background: BackgroundSubtractor,
    contour: ContourTracker,
    denoiser: DistanceDenoiser,
}

impl Chain {
    fn new(cfg: &WiTrackConfig) -> Chain {
        Chain {
            profiler: RangeProfiler::new(&cfg.sweep, WindowKind::Hann, cfg.max_round_trip_m),
            background: BackgroundSubtractor::new(),
            contour: ContourTracker::new(cfg.sweep, cfg.contour),
            denoiser: DistanceDenoiser::new(cfg.denoise),
        }
    }

    /// Antenna `k`'s sweep of `interval` through the profiler; on a frame
    /// boundary, the background-subtracted magnitudes (empty on the first
    /// frame).
    fn profile(&mut self, interval: &Interval, k: usize, quantized: bool) -> Option<Vec<f64>> {
        let profile = if quantized {
            let n = interval.per_rx[k].len();
            let sweep = &interval.flat_q[k * n..(k + 1) * n];
            self.profiler.push_sweep_q(sweep, interval.scale)
        } else {
            self.profiler.push_sweep(&interval.per_rx[k])
        }?;
        Some(
            self.background
                .push(profile)
                .map_or_else(Vec::new, <[f64]>::to_vec),
        )
    }
}

/// The bit patterns of a detection, so equality is exact.
fn bits(d: Option<Detection>) -> Option<[u64; 4]> {
    d.map(|d| {
        [
            d.bin.to_bits(),
            d.round_trip_m.to_bits(),
            d.magnitude.to_bits(),
            d.noise_floor.to_bits(),
        ]
    })
}

#[test]
fn pipelines_equal_the_hand_assembled_chain() {
    let cfg = MttConfig::with_base(config());
    let (budget, min_sep) = (cfg.detection_budget(), cfg.min_peak_separation_bins);
    let dt = cfg.base.sweep.frame_duration_s();
    let recorded = record(5);
    for quantized in [false, true] {
        let mut wt = WiTrack::new(cfg.base).expect("valid config");
        let mut mtt = MultiWiTrack::new(cfg).expect("valid config");
        let mut chains: Vec<Chain> = (0..3).map(|_| Chain::new(&cfg.base)).collect();
        let mut top_k = Vec::new();
        let (mut frames, mut detected) = (0, 0);
        for (i, interval) in recorded.iter().enumerate() {
            let (single, multi) = if quantized {
                let (flat, n) = (&interval.flat_q, interval.per_rx[0].len());
                (
                    wt.push_sweeps_flat_q(flat, n, interval.scale),
                    mtt.push_sweeps_flat_q(flat, n, interval.scale),
                )
            } else {
                let refs: Vec<&[f64]> = interval.per_rx.iter().map(Vec::as_slice).collect();
                (wt.push_sweeps(&refs), mtt.push_sweeps(&refs))
            };
            let expected: Vec<Option<Vec<f64>>> = chains
                .iter_mut()
                .enumerate()
                .map(|(k, c)| c.profile(interval, k, quantized))
                .collect();
            let (Some(single), Some(multi)) = (single, multi) else {
                assert!(expected.iter().all(Option::is_none), "sweep {i}");
                continue;
            };
            frames += 1;
            for (k, (chain, mags)) in chains.iter_mut().zip(expected).enumerate() {
                let mags = mags.expect("chains share the sweep clock");
                let (detection, round_trip) = if mags.is_empty() {
                    top_k.clear();
                    (None, None)
                } else {
                    chain
                        .contour
                        .detect_top_k_into(&mags, budget, min_sep, &mut top_k);
                    let d = chain.contour.detect(&mags);
                    let denoised = chain.denoiser.push(d.map(|d| d.round_trip_m), dt);
                    (d, denoised.map(|d| d.round_trip_m))
                };
                let frame = &single.frames[k];
                let mag_bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let ctx = format!("quantized {quantized}, sweep {i}, antenna {k}");
                assert_eq!(mag_bits(&frame.magnitudes), mag_bits(&mags), "{ctx}");
                assert_eq!(bits(frame.detection), bits(detection), "{ctx}");
                assert_eq!(
                    single.round_trips[k].map(f64::to_bits),
                    round_trip.map(f64::to_bits),
                    "{ctx}"
                );
                assert_eq!(multi.detections_per_antenna[k], top_k.len(), "{ctx}");
                detected += usize::from(detection.is_some());
            }
        }
        assert!(frames > 500, "only {frames} frames");
        assert!(
            detected > frames,
            "only {detected} detections in {frames} frames"
        );
    }
}

/// Every report one backend serves for `recorded` through the trait.
fn served(
    mut pipeline: Box<dyn FramePipeline>,
    recorded: &[Interval],
    quantized: bool,
) -> Vec<FrameReport> {
    let mut flat = Vec::new();
    recorded
        .iter()
        .filter_map(|interval| {
            if quantized {
                pipeline.process_sweeps(Sweep::Q(&interval.flat_q, interval.scale))
            } else {
                flat.clear();
                flat.extend(interval.per_rx.iter().flatten());
                pipeline.process_sweeps(Sweep::F64(&flat))
            }
        })
        .collect()
}

#[test]
fn same_seed_gives_identical_reports() {
    let backends: [fn() -> Box<dyn FramePipeline>; 2] = [
        || Box::new(WiTrack::new(config()).expect("valid config")),
        || Box::new(MultiWiTrack::new(MttConfig::with_base(config())).expect("valid config")),
    ];
    let (first, second) = (record(9), record(9));
    for quantized in [false, true] {
        for backend in backends {
            let a = served(backend(), &first, quantized);
            let b = served(backend(), &second, quantized);
            assert!(a.len() > 500, "only {} reports", a.len());
            assert!(
                a.iter().filter(|r| !r.targets.is_empty()).count() > a.len() / 2,
                "mostly empty reports"
            );
            assert_eq!(a, b, "quantized {quantized}");
            // `==` on floats would let 0.0 match -0.0: compare the
            // printed form too, which distinguishes them.
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
