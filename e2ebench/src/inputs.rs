//! Input synthesis: every wire frame the server will see, generated once
//! per run from `--seed` and replayed by the load generator.
//!
//! Two kinds of recording:
//!
//! * **single streams** — one sensor, one random walker
//!   ([`MultiSimulator`], the `FleetSimulator` room recipe with pauses
//!   off), for standalone single-target sensors;
//! * **room recordings** — a hallway watched by two facing sensors
//!   ([`MultiVantageSimulator`]) with two walkers crossing the hallway's
//!   zones in opposite lanes, for fused multi-target rooms.
//!
//! The scenarios (walking paths, rooms) are fixed per recording slot and
//! `--seed` drives everything random in the signal: receiver noise and
//! specular wander. Each frame is stored pre-encoded as a quantized (`SweepBatchQ`, i16)
//! wire frame with sensor id and sequence zeroed; the sender patches both
//! in per send. Recordings are played **ping-pong** (forward, then
//! backward) so a short recording loops without a position jump: a
//! reversed frame sequence is the same walker walking back.

use std::f64::consts::PI;
use witrack_core::WiTrackConfig;
use witrack_fuse::{FuseConfig, Registration, Zone};
use witrack_geom::{AntennaArray, RigidTransform, Vec3};
use witrack_serve::wire::{self, Message, SweepBatch, SweepBatchQ, HEADER_LEN};
use witrack_sim::motion::{LinePath, RandomWalk, Rect};
use witrack_sim::vantage::scenario;
use witrack_sim::{MultiSimulator, MultiVantageSimulator, PersonSpec, Scene, SimConfig};

/// Hallway length of a fused room (m): sensor 1 hangs at `y = HALLWAY_M`.
pub const HALLWAY_M: f64 = 10.0;
/// Hard coverage of each room sensor (m of slant range): the two
/// coverages overlap for `3 ≤ y ≤ 7`.
pub const COVERAGE_M: f64 = 7.0;
/// Receiver noise of the synthesized front ends.
const NOISE_STD: f64 = 0.05;

/// One sensor's recording: encoded wire frames in source order.
pub struct Stream {
    /// `SweepBatchQ` wire frames (sensor id 0, seq 0; patched per send).
    pub frames: Vec<Vec<u8>>,
}

impl Stream {
    /// Source frame played at position `pos` of the ping-pong loop.
    pub fn source_frame(&self, pos: u64) -> usize {
        pingpong(self.frames.len(), pos)
    }
}

/// Source frame index at loop position `pos` over `n` frames, forward
/// then backward (`0 1 … n-1 n-2 … 1 0 1 …`).
fn pingpong(n: usize, pos: u64) -> usize {
    if n < 2 {
        return 0;
    }
    let cycle = 2 * (n as u64 - 1);
    let f = pos % cycle;
    if f < n as u64 {
        f as usize
    } else {
        (cycle - f) as usize
    }
}

/// A single-target recording plus its ground truth.
pub struct SingleStream {
    /// The encoded frames.
    pub stream: Stream,
    /// Per source frame: the walker's mean torso reflection point (the
    /// §8(a) truth the paper scores against).
    pub truth: Vec<Vec3>,
}

/// A two-sensor fused-room recording plus its ground truth.
pub struct RoomRecording {
    /// One stream per vantage (index 0 = world frame, 1 = facing it).
    pub sensors: Vec<Stream>,
    /// Per source frame, per walker: body center, world frame.
    pub centers: Vec<Vec<Vec3>>,
    /// Per vantage, per source frame, per walker: the torso reflection
    /// point that vantage sees (world frame), or `None` when the walker
    /// is outside its coverage.
    pub surface: Vec<Vec<Vec<Option<Vec3>>>>,
    /// Per vantage: the sensor → world extrinsic.
    pub world_from_sensor: Vec<RigidTransform>,
}

/// Everything one run replays.
pub struct Inputs {
    /// Standalone single-target sensor recordings.
    pub singles: Vec<SingleStream>,
    /// Fused-room recordings.
    pub rooms: Vec<RoomRecording>,
    /// Wall-clock synthesis time (s), reported as `sim.gen_s`.
    pub gen_s: f64,
}

/// How much to synthesize.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// Distinct single-target recordings.
    pub singles: usize,
    /// Distinct room recordings.
    pub rooms: usize,
    /// Length of each single-target recording (s) before ping-pong
    /// looping.
    pub loop_s: f64,
    /// Length of each room recording (s) before ping-pong looping.
    pub room_loop_s: f64,
}

/// The paper deployment every sensor runs: prototype sweep (2500-sample
/// sweeps, 5 per 12.5 ms frame), T array, default tracker tuning.
pub fn base_config() -> WiTrackConfig {
    WiTrackConfig::witrack_default()
}

/// Synthesizes all recordings from `seed`, two recordings at a time.
pub fn synthesize(base: &WiTrackConfig, spec: InputSpec, seed: u64) -> Inputs {
    let start = std::time::Instant::now();
    let mut singles: Vec<Option<SingleStream>> = (0..spec.singles).map(|_| None).collect();
    let mut rooms: Vec<Option<RoomRecording>> = (0..spec.rooms).map(|_| None).collect();
    // Work items: singles first, then rooms, dealt round-robin to two
    // threads (synthesis is excluded from every timed phase).
    std::thread::scope(|s| {
        let (s_even, s_odd) = split_alternate(&mut singles);
        let (r_even, r_odd) = split_alternate(&mut rooms);
        for (parity, (ss, rs)) in [(0usize, (s_even, r_even)), (1, (s_odd, r_odd))] {
            s.spawn(move || {
                for (k, slot) in ss.into_iter().enumerate() {
                    let i = 2 * k + parity;
                    *slot = Some(record_single(base, spec.loop_s, mix(seed, 1 + i as u64), i));
                }
                for (k, slot) in rs.into_iter().enumerate() {
                    let i = 2 * k + parity;
                    *slot = Some(record_room(
                        base,
                        spec.room_loop_s,
                        mix(seed, 1001 + i as u64),
                        i,
                    ));
                }
            });
        }
    });
    Inputs {
        singles: singles
            .into_iter()
            .map(|s| s.expect("synthesized"))
            .collect(),
        rooms: rooms.into_iter().map(|r| r.expect("synthesized")).collect(),
        gen_s: start.elapsed().as_secs_f64(),
    }
}

fn split_alternate<T>(v: &mut [T]) -> (Vec<&mut T>, Vec<&mut T>) {
    let mut even = Vec::new();
    let mut odd = Vec::new();
    for (i, x) in v.iter_mut().enumerate() {
        if i % 2 == 0 {
            even.push(x);
        } else {
            odd.push(x);
        }
    }
    (even, odd)
}

/// SplitMix64-style seed derivation.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sim_config(base: &WiTrackConfig, seed: u64) -> SimConfig {
    SimConfig {
        sweep: base.sweep,
        noise_std: NOISE_STD,
        seed,
    }
}

/// Midpoint time of source frame `f` (truth is sampled there).
fn frame_mid_s(base: &WiTrackConfig, f: usize) -> f64 {
    (f as f64 + 0.5) * base.sweep.frame_duration_s()
}

/// Packs one frame's sweeps (`[sweep][rx][sample]`) into an encoded
/// quantized wire frame.
fn encode_frame(sweeps: &[Vec<Vec<f64>>]) -> Vec<u8> {
    let batch = SweepBatch::from_sweeps(0, 0, sweeps);
    wire::encode(&Message::SweepBatchQ(SweepBatchQ::quantize(&batch)))
}

/// Patches the sensor id and sequence number into an encoded sweep-batch
/// frame (payload offsets 0..4 and 4..12).
pub fn patch_frame(frame: &mut [u8], sensor_id: u32, seq: u64) {
    frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&sensor_id.to_le_bytes());
    frame[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&seq.to_le_bytes());
}

fn frames_in(base: &WiTrackConfig, loop_s: f64) -> usize {
    (loop_s / base.sweep.frame_duration_s()).round().max(2.0) as usize
}

fn record_single(base: &WiTrackConfig, loop_s: f64, seed: u64, index: usize) -> SingleStream {
    let n_frames = frames_in(base, loop_s);
    let duration = (n_frames as f64 + 1.0) * base.sweep.frame_duration_s();
    // The walk itself is fixed per recording slot; the seed drives the
    // receiver noise and the body's specular wander. Seeds then vary the
    // signal, not the scenario, so error medians compare across seeds.
    let person = PersonSpec::adult(RandomWalk::new(
        Rect::vicon_area(),
        1.0,
        1.0,
        duration,
        0.0,
        0x5EED_0000 + index as u64,
    ));
    // Odd recordings are through-wall, as in the fleet simulator.
    let mut sim = MultiSimulator::new(
        sim_config(base, seed),
        Scene::witrack_lab(index % 2 == 1),
        AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
        vec![person],
    );
    let spf = base.sweep.sweeps_per_frame;
    let mut frames = Vec::with_capacity(n_frames);
    let mut truth = Vec::with_capacity(n_frames);
    let mut pending = Vec::with_capacity(spf);
    while frames.len() < n_frames {
        let set = sim
            .next_sweeps()
            .expect("recording shorter than its script");
        pending.push(set.per_rx);
        if pending.len() == spf {
            truth.push(sim.surface_truth(0, frame_mid_s(base, frames.len())));
            frames.push(encode_frame(&pending));
            pending.clear();
        }
    }
    SingleStream {
        stream: Stream { frames },
        truth,
    }
}

/// Zones along the hallway, ids unique per room recording slot: walkers
/// crossing them fire `ZoneEntered`/`ZoneExited`/`OccupancyChanged`.
pub fn room_zones(room: usize) -> Vec<Zone> {
    let bands = [(2.0, 4.0), (4.0, 5.0), (5.0, 6.0), (6.0, 8.0)];
    bands
        .iter()
        .enumerate()
        .map(|(k, &y)| Zone {
            id: zone_id(room, k),
            name: format!("room{room}-band{k}"),
            x: (-3.0, 3.0),
            y,
        })
        .collect()
}

/// Zone ids live in `1..=ZONE_ID_SPACE`; room `r`'s four zones are spread
/// so that a uniformly drawn zone filter matches about 1% of zone events.
pub const ZONE_ID_SPACE: u32 = 100;

fn zone_id(room: usize, k: usize) -> u32 {
    ((room as u32 * 4 + k as u32) * 7) % ZONE_ID_SPACE + 1
}

/// The fusion tuning of the world-hub acceptance tests at the paper's
/// frame period, plus the room's zones.
pub fn room_fuse_config(base: &WiTrackConfig, room: usize) -> FuseConfig {
    FuseConfig {
        frame_period_s: base.sweep.frame_duration_s(),
        obs_std_floor_m: 0.25,
        gate_mahalanobis_sq: 25.0,
        max_uncorroborated_epochs: 40,
        coverage_margin_m: 0.25,
        min_new_track_separation_m: 2.5,
        zones: room_zones(room),
        ..FuseConfig::default()
    }
}

/// Registration of a room whose two sensors carry `ids`.
pub fn room_registration(ids: [u32; 2]) -> Registration {
    Registration::new()
        .with_sensor(ids[0], RigidTransform::IDENTITY)
        .with_sensor(
            ids[1],
            RigidTransform::from_yaw(PI, Vec3::new(0.0, HALLWAY_M, 0.0)),
        )
        .with_coverage(ids[0], COVERAGE_M)
        .with_coverage(ids[1], COVERAGE_M)
}

fn record_room(base: &WiTrackConfig, loop_s: f64, seed: u64, index: usize) -> RoomRecording {
    let n_frames = frames_in(base, loop_s);
    let walk_s = n_frames as f64 * base.sweep.frame_duration_s();
    // Two walkers in opposite lanes crossing all four zones; lane offsets
    // vary by recording so rooms are not identical.
    let lane = 0.9 + 0.1 * (index % 4) as f64;
    let a = (Vec3::new(-lane, 2.5, 1.05), Vec3::new(-lane, 7.5, 1.05));
    let b = (Vec3::new(lane, 7.5, 0.95), Vec3::new(lane, 2.5, 0.95));
    let people = vec![
        PersonSpec::adult(LinePath::new(a.0, a.1, a.0.distance(a.1) / walk_s)),
        PersonSpec::adult(LinePath::new(b.0, b.1, b.0.distance(b.1) / walk_s)),
    ];
    let mut sim = MultiVantageSimulator::new(
        sim_config(base, seed),
        AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
        scenario::facing_pair(HALLWAY_M, COVERAGE_M),
        people,
    );
    let n_v = sim.num_vantages();
    let n_p = sim.num_people();
    let spf = base.sweep.sweeps_per_frame;
    let mut streams: Vec<Vec<Vec<u8>>> = vec![Vec::with_capacity(n_frames); n_v];
    let mut pending: Vec<Vec<Vec<Vec<f64>>>> = vec![Vec::with_capacity(spf); n_v];
    let mut centers = Vec::with_capacity(n_frames);
    let mut surface: Vec<Vec<Vec<Option<Vec3>>>> = vec![Vec::with_capacity(n_frames); n_v];
    let mut done = 0usize;
    while done < n_frames {
        let round = match sim.next_round() {
            Some(r) => r,
            // The walkers' script ends one frame early at most; the last
            // frames then hold the final pose, which is still valid input.
            None => break,
        };
        for rs in round {
            pending[rs.sensor_id as usize].push(rs.set.per_rx);
        }
        if pending[0].len() == spf {
            let t = frame_mid_s(base, done);
            centers.push((0..n_p).map(|i| sim.true_state(i, t).center).collect());
            for v in 0..n_v {
                surface[v].push(
                    (0..n_p)
                        .map(|i| sim.in_coverage(v, i, t).then(|| sim.surface_truth(v, i, t)))
                        .collect(),
                );
                streams[v].push(encode_frame(&pending[v]));
                pending[v].clear();
            }
            done += 1;
        }
    }
    RoomRecording {
        world_from_sensor: (0..n_v).map(|v| *sim.world_from_sensor(v)).collect(),
        sensors: streams
            .into_iter()
            .map(|frames| Stream { frames })
            .collect(),
        centers,
        surface,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_turns_around_without_jumps() {
        let seq: Vec<usize> = (0..9).map(|p| pingpong(4, p)).collect();
        assert_eq!(seq, [0, 1, 2, 3, 2, 1, 0, 1, 2]);
    }
}
