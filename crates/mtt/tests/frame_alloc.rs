//! Counting-allocator proof that the frame paths reuse their buffers:
//! once they have grown to the scene's high-water mark, a
//! [`MultiWiTrack::push_sweeps_flat_q`] frame allocates only the two
//! vectors of the `MttUpdate` it returns, a single-target [`WiTrack`]
//! frame served through [`FramePipeline`] allocates only its report's
//! target list, and range profilers sharing a plan on one thread allocate
//! nothing per frame.
//!
//! This file is its own test binary because it installs a global
//! allocator. The allocator counts per thread, so tests running
//! concurrently in this binary do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use witrack_core::{FramePipeline, WiTrack, WiTrackConfig};
use witrack_dsp::window::WindowKind;
use witrack_fmcw::{RangeProfiler, Sweep, SweepConfig};
use witrack_mtt::{MttConfig, MultiWiTrack};
use witrack_sim::motion::{RandomWalk, Rect};
use witrack_sim::multi::{scenario, MultiSimulator};
use witrack_sim::{BodyModel, Channel, Scene, SimConfig, Simulator};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// One sweep interval, quantized the way wire encoders do it: one scale
/// for the peak of the antenna-contiguous batch.
fn quantize(per_rx: &[Vec<f64>]) -> (Vec<i16>, f64) {
    let peak = per_rx
        .iter()
        .flatten()
        .fold(0.0_f64, |m, &x| m.max(x.abs()));
    let scale = if peak > 0.0 { peak / 32767.0 } else { 1.0 };
    let flat = per_rx
        .iter()
        .flatten()
        .map(|&x| (x / scale).round() as i16)
        .collect();
    (flat, scale)
}

#[test]
fn mtt_frame_allocates_only_its_update() {
    let sweep = SweepConfig::witrack_mid();
    let base = WiTrackConfig {
        sweep,
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    };
    let mut wt = MultiWiTrack::new(MttConfig::with_base(base)).expect("valid config");
    let mut sim = MultiSimulator::new(
        SimConfig {
            sweep,
            noise_std: 0.05,
            seed: 3,
        },
        Scene::witrack_lab(false),
        wt.array().clone(),
        scenario::two_walker_crossing(8.0),
    );
    let mut recorded = Vec::new();
    while let Some(set) = sim.next_sweeps() {
        recorded.push(quantize(&set.per_rx));
    }
    let n = sweep.samples_per_sweep();
    // Warm-up: one pass over the recording grows every buffer to this
    // scene's high-water mark (the most tracks, detections and births in
    // any frame). The tracker is deterministic, so after a reset the
    // measured second pass sees exactly the same frames.
    for (flat, scale) in &recorded {
        wt.push_sweeps_flat_q(flat, n, *scale);
    }
    wt.reset();

    let mut frames = 0;
    let mut frames_with_tracks = 0;
    for (i, (flat, scale)) in recorded.iter().enumerate() {
        let (update, allocs) = allocations(|| wt.push_sweeps_flat_q(flat, n, *scale));
        match update {
            None => assert_eq!(allocs, 0, "sweep {i}: an accumulate-only sweep allocated"),
            Some(u) => {
                // `detections_per_antenna`, plus `tracks` unless empty
                // (an empty collect does not allocate).
                let expected = 1 + u64::from(!u.tracks.is_empty());
                assert_eq!(
                    allocs,
                    expected,
                    "sweep {i}: frame with {} tracks made {allocs} allocations",
                    u.tracks.len()
                );
                frames += 1;
                frames_with_tracks += usize::from(!u.tracks.is_empty());
            }
        }
    }
    assert!(frames > 200, "only {frames} measured frames");
    assert!(
        frames_with_tracks > frames / 2,
        "tracker idle in {} of {frames} measured frames",
        frames - frames_with_tracks
    );
}

#[test]
fn witrack_serving_frame_allocates_only_its_targets() {
    let sweep = SweepConfig::witrack_mid();
    let mut wt = WiTrack::new(WiTrackConfig {
        sweep,
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    })
    .expect("valid config");
    // A walk with pauses: a standing person vanishes from the
    // background-subtracted stream, so the denoisers' hold onset (the
    // median of the recent raw detections) runs too.
    let walk = RandomWalk::new(Rect::vicon_area(), 1.0, 1.0, 6.0, 0.5, 11);
    let channel = Channel {
        scene: Scene::witrack_lab(false),
        array: wt.array().clone(),
        body: BodyModel::adult(),
        reference_amplitude: 100.0,
    };
    let sim_cfg = SimConfig {
        sweep,
        noise_std: 0.05,
        seed: 11,
    };
    let mut sim = Simulator::new(sim_cfg, channel, Box::new(walk));
    let mut recorded = Vec::new();
    while let Some(set) = sim.next_sweeps() {
        recorded.push(quantize(&set.per_rx));
    }
    // Warm-up pass, then the measured pass over the same frames.
    for (flat, scale) in &recorded {
        wt.process_sweeps(Sweep::Q(flat, *scale));
    }
    FramePipeline::reset(&mut wt);

    let (mut frames, mut located, mut held) = (0, 0, 0);
    for (i, (flat, scale)) in recorded.iter().enumerate() {
        let (report, allocs) = allocations(|| wt.process_sweeps(Sweep::Q(flat, *scale)));
        match report {
            None => assert_eq!(allocs, 0, "sweep {i}: an accumulate-only sweep allocated"),
            Some(r) => {
                // `targets`, unless empty (an empty collect does not
                // allocate).
                let expected = u64::from(!r.targets.is_empty());
                assert_eq!(
                    allocs, expected,
                    "sweep {i}: frame made {allocs} allocations"
                );
                frames += 1;
                located += usize::from(!r.targets.is_empty());
                held += usize::from(r.targets.iter().any(|t| t.held));
            }
        }
    }
    assert!(frames > 1000, "only {frames} measured frames");
    assert!(
        located > frames / 2,
        "located in {located} of {frames} frames"
    );
    assert!(held > 0, "no held frame: the hold path went unmeasured");
}

#[test]
fn profilers_sharing_a_plan_allocate_nothing_per_frame() {
    let cfg = SweepConfig::witrack();
    let n = cfg.samples_per_sweep();
    let mut profilers: Vec<RangeProfiler> = (0..6)
        .map(|_| RangeProfiler::new(&cfg, WindowKind::Hann, 30.0))
        .collect();
    assert!(profilers
        .windows(2)
        .all(|w| std::sync::Arc::ptr_eq(w[0].plan(), w[1].plan())));
    let sweep_f: Vec<f64> = (0..n).map(|i| (0.37 * i as f64).sin()).collect();
    let sweep_q: Vec<i16> = sweep_f.iter().map(|&x| (x * 32000.0) as i16).collect();
    let run_frame = |profilers: &mut [RangeProfiler]| {
        for (k, p) in profilers.iter_mut().enumerate() {
            for _ in 0..cfg.sweeps_per_frame {
                // Half the antennas on the float path, half fixed point.
                let emitted = if k % 2 == 0 {
                    p.push_sweep(&sweep_f).is_some()
                } else {
                    p.push_sweep_q(&sweep_q, 1.0 / 32000.0).is_some()
                };
                std::hint::black_box(emitted);
            }
        }
    };
    // Warm-up: the first frame on this thread builds its scratch.
    run_frame(&mut profilers);
    for frame in 0..10 {
        let ((), allocs) = allocations(|| run_frame(&mut profilers));
        assert_eq!(allocs, 0, "frame {frame} allocated {allocs} times");
    }
}
