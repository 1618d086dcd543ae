//! t_throughput — end-to-end frames/sec of the streaming pipelines, with a
//! machine-readable `BENCH_throughput.json` artifact.
//!
//! The paper's real-time budget is one frame per 12.5 ms (80 frames/s) per
//! deployment (§7). This harness pre-generates paper-configuration sweeps
//! (so signal synthesis is excluded), then times processing alone for two
//! scenarios:
//!
//! * `single_target_3ant` — the §4+§5 [`WiTrack`] pipeline, one random
//!   walker;
//! * `multi_target_3ant_3people` — the `witrack-mtt` [`MultiWiTrack`]
//!   pipeline, three concurrent walkers.
//!
//! Each scenario also reports per-stage (range-profile / detect /
//! associate) latency p50/p99, recorded by detached `witrack-obs` stage
//! histograms attached to the pipeline under test.
//!
//! Flags: `--frames N` (frames per scenario, default 240), `--seconds S`
//! (measurement floor per scenario — recorded data is replayed in a loop
//! until both the frame count and the time floor are met, default 1.0),
//! `--seed N`, `--out PATH` (default `BENCH_throughput.json`; `-` skips
//! writing). The artifact carries a `host` fingerprint (CPU counts and
//! model, kernel path, rustc) so a baseline from another machine can be
//! told apart.

use std::time::Instant;
use witrack_bench::host::Host;
use witrack_bench::printing::banner;
use witrack_core::{WiTrack, WiTrackConfig};
use witrack_geom::Vec3;
use witrack_mtt::{MttConfig, MultiWiTrack};
use witrack_obs::{HistoSnapshot, StageStats};
use witrack_sim::motion::{RandomWalk, Rect};
use witrack_sim::multi::{scenario, MultiSimulator};
use witrack_sim::{BodyModel, Channel, Scene, SimConfig, Simulator};

struct ScenarioResult {
    name: &'static str,
    frames: u64,
    elapsed_s: f64,
    /// Per-stage latency snapshots (profile, detect, associate).
    stages: [(&'static str, HistoSnapshot); 3],
}

impl ScenarioResult {
    fn fps(&self) -> f64 {
        self.frames as f64 / self.elapsed_s.max(1e-12)
    }
}

/// Snapshots an attached [`StageStats`] in JSON field order.
fn stage_snapshots(stats: &StageStats) -> [(&'static str, HistoSnapshot); 3] {
    [
        ("profile", stats.profile.snapshot()),
        ("detect", stats.detect.snapshot()),
        ("associate", stats.associate.snapshot()),
    ]
}

struct Options {
    frames: u64,
    seconds: f64,
    seed: u64,
    out: Option<String>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        frames: 240,
        seconds: 1.0,
        seed: 7,
        out: Some("BENCH_throughput.json".into()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frames" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.frames = v;
                }
            }
            "--seconds" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.seconds = v;
                }
            }
            "--seed" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.seed = v;
                }
            }
            "--out" => {
                opts.out = it.next().filter(|s| s != "-");
            }
            _ => {}
        }
    }
    opts
}

/// Replays `sweeps` through `push` until at least `min_frames` frames and
/// `min_seconds` of wall clock have been consumed; returns the frame count
/// and elapsed time.
fn measure<F: FnMut(&[&[f64]]) -> bool>(
    sweeps: &[Vec<Vec<f64>>],
    min_frames: u64,
    min_seconds: f64,
    mut push: F,
) -> (u64, f64) {
    let mut frames = 0u64;
    let mut idx = 0usize;
    let start = Instant::now();
    loop {
        let refs: Vec<&[f64]> = sweeps[idx % sweeps.len()]
            .iter()
            .map(|v| v.as_slice())
            .collect();
        if push(&refs) {
            frames += 1;
            if frames >= min_frames && start.elapsed().as_secs_f64() >= min_seconds {
                break;
            }
        }
        idx += 1;
    }
    (frames, start.elapsed().as_secs_f64())
}

fn record_single(seed: u64, seconds: f64) -> Vec<Vec<Vec<f64>>> {
    let sweep = witrack_fmcw::SweepConfig::witrack();
    let array = witrack_geom::AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0);
    let channel = Channel {
        scene: Scene::witrack_lab(true),
        array,
        body: BodyModel::adult(),
        reference_amplitude: 100.0,
    };
    let motion = RandomWalk::new(Rect::vicon_area(), 1.0, 1.0, seconds, 0.0, seed);
    let mut sim = Simulator::new(
        SimConfig {
            sweep,
            noise_std: 0.05,
            seed,
        },
        channel,
        Box::new(motion),
    );
    let mut out = Vec::new();
    while let Some(set) = sim.next_sweeps() {
        out.push(set.per_rx);
    }
    out
}

fn record_multi(seed: u64, seconds: f64, array: &witrack_geom::AntennaArray) -> Vec<Vec<Vec<f64>>> {
    let sweep = witrack_fmcw::SweepConfig::witrack();
    let mut sim = MultiSimulator::new(
        SimConfig {
            sweep,
            noise_std: 0.05,
            seed,
        },
        Scene::witrack_lab(true),
        array.clone(),
        scenario::three_walkers(seconds),
    );
    let mut out = Vec::new();
    while let Some(set) = sim.next_sweeps() {
        out.push(set.per_rx);
    }
    out
}

fn main() {
    let opts = parse_options();
    banner(
        "T-THROUGHPUT",
        "frames/sec of the streaming pipelines (processing only)",
        "real-time budget: 80 frames/s (one frame per 12.5 ms, §7)",
    );
    let host = Host::detect();
    let cfg = WiTrackConfig::witrack_default();
    let sweep = cfg.sweep;
    let frame_period_s = sweep.frame_duration_s();
    // Enough recorded signal to emit the requested frames without replay
    // artifacts dominating (replay wraps if the floor demands more).
    let record_s = (opts.frames as f64 * frame_period_s).clamp(0.25, 5.0);

    let mut results = Vec::new();

    {
        let data = record_single(opts.seed, record_s);
        let mut wt = WiTrack::new(cfg).expect("valid config");
        let stats = StageStats::detached();
        wt.attach_stage_stats(stats.clone());
        let (frames, elapsed_s) = measure(&data, opts.frames, opts.seconds, |refs| {
            wt.push_sweeps(refs).is_some()
        });
        results.push(ScenarioResult {
            name: "single_target_3ant",
            frames,
            elapsed_s,
            stages: stage_snapshots(&stats),
        });
    }

    {
        let base = WiTrackConfig {
            max_round_trip_m: 30.0,
            ..cfg
        };
        let mtt_cfg = MttConfig::with_base(base);
        let mut wt = MultiWiTrack::new(mtt_cfg).expect("valid config");
        let stats = StageStats::detached();
        wt.attach_stage_stats(stats.clone());
        let data = record_multi(opts.seed, record_s, wt.array());
        let (frames, elapsed_s) = measure(&data, opts.frames, opts.seconds, |refs| {
            wt.push_sweeps(refs).is_some()
        });
        results.push(ScenarioResult {
            name: "multi_target_3ant_3people",
            frames,
            elapsed_s,
            stages: stage_snapshots(&stats),
        });
    }

    println!(
        "host: {} ({} cpus, {} in affinity mask), {}",
        host.cpu_model, host.nproc, host.affinity_cpus, host.rustc
    );
    println!(
        "config: {} samples/sweep, {} sweeps/frame, 3 rx antennas, frame period {:.1} ms\n",
        sweep.samples_per_sweep(),
        sweep.sweeps_per_frame,
        frame_period_s * 1e3
    );
    for r in &results {
        println!(
            "{:<28} {:>8} frames in {:>7.3} s -> {:>9.1} frames/s ({:.1}x real time)",
            r.name,
            r.frames,
            r.elapsed_s,
            r.fps(),
            r.fps() * frame_period_s
        );
        for (stage, h) in &r.stages {
            println!(
                "{:<28}   {:>10} p50 {:>8.1} us  p99 {:>8.1} us",
                "",
                stage,
                h.p50() as f64 / 1e3,
                h.p99() as f64 / 1e3
            );
        }
    }

    if let Some(path) = &opts.out {
        let scenarios: Vec<String> = results
            .iter()
            .map(|r| {
                let stages: Vec<String> = r
                    .stages
                    .iter()
                    .map(|(stage, h)| {
                        format!(
                            "      \"{stage}_p50_ns\": {},\n      \"{stage}_p99_ns\": {}",
                            h.p50(),
                            h.p99()
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "    {{\n",
                        "      \"name\": \"{}\",\n",
                        "      \"frames\": {},\n",
                        "      \"elapsed_s\": {:.6},\n",
                        "      \"frames_per_sec\": {:.2},\n",
                        "      \"realtime_factor\": {:.3},\n",
                        "{}\n",
                        "    }}"
                    ),
                    r.name,
                    r.frames,
                    r.elapsed_s,
                    r.fps(),
                    r.fps() * frame_period_s,
                    stages.join(",\n")
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"t_throughput\",\n",
                "  \"host\": {},\n",
                "  \"config\": {{\n",
                "    \"samples_per_sweep\": {},\n",
                "    \"sweeps_per_frame\": {},\n",
                "    \"num_rx\": 3,\n",
                "    \"frame_period_ms\": {:.3},\n",
                "    \"realtime_frames_per_sec\": {:.1}\n",
                "  }},\n",
                "  \"scenarios\": [\n{}\n  ]\n",
                "}}\n"
            ),
            host.to_json(),
            sweep.samples_per_sweep(),
            sweep.sweeps_per_frame,
            frame_period_s * 1e3,
            1.0 / frame_period_s,
            scenarios.join(",\n")
        );
        std::fs::write(path, json).expect("write throughput JSON");
        println!("\nwrote {path}");
    }
}
