//! The open-loop load generator: one stage = one server, a fixed sensor
//! fleet paced on the 12.5 ms frame schedule for a fixed time, and the
//! exact per-frame latencies, losses and errors that came back.
//!
//! One pacing thread (the caller's) sends every sensor's frames over at
//! most `nproc` in-process wire connections, sensor `j`'s frame `k` due at
//! `t0 + (k-1)·period + phase_j` with phases spread evenly over one
//! period. A frame is timed from when it was **due**, so a stalled sender
//! charges its lateness to every frame it delays. Answers are matched by
//! `(sensor_id, frame_index)`; fused world updates by `(room, epoch)`.

use crate::inputs::{self, Inputs};
use crate::stats::{median, process_cpu_s, thread_cpu_s, Samples};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use witrack_core::WiTrackConfig;
use witrack_geom::Vec3;
use witrack_serve::engine::EngineConfig;
use witrack_serve::factory::{hello_quantized_for, witrack_factory};
use witrack_serve::hub::{RoomSpec, WorldConfig};
use witrack_serve::pool::BufPool;
use witrack_serve::program::{CompiledProgram, EventCtx, EventKind, SubscriptionBuilder};
use witrack_serve::transport::{in_proc_pair, InProcTransport, TransportTx};
use witrack_serve::wire::{Message, PipelineKind, SubscribeV3};
use witrack_serve::{MetricsSnapshot, SensorClient, Server};

/// The paper's real-time limit on one frame's report (§7).
const LIMIT_MS: f64 = 75.0;
/// First sensor id of fused-room sensors (standalone sensors start at 0).
const ROOM_SENSOR_BASE: u32 = 1000;
/// Depth of each in-process connection queue, per direction.
const CONN_QUEUE: usize = 64;
/// A report this far (m) from every truth is a ghost, not a track.
const TRACKED_M: f64 = 1.5;
/// Sub ids: firehoses, selective programs, and churn subscriptions.
const FIREHOSE_SUB: u64 = 1;
const PROGRAM_SUB_BASE: u64 = 1_000;
const CHURN_SUB_BASE: u64 = 1_000_000;
/// A zone id no room has: churn subscriptions evaluate but never match.
const NO_ZONE: u32 = 10_000;
/// Subscriptions in flight (sent, not yet acknowledged) during set-up.
const SUBSCRIBE_WINDOW: usize = 16;

/// What one stage runs.
#[derive(Debug, Clone, Copy)]
pub struct StagePlan {
    /// Standalone single-target sensors.
    pub singles: usize,
    /// Fused rooms (two multi-target sensors each).
    pub rooms: usize,
    /// Selective event programs, spread over rooms and connections.
    pub programs: usize,
    /// Subscribe/unsubscribe pairs per second alongside the data path.
    pub churn_hz: f64,
    /// Paced measurement time (s).
    pub seconds: f64,
    /// Loop position (frames) the recordings start from, so repeated
    /// stages replay different parts of them.
    pub start: u64,
    /// Leading part of the stage excluded from latency percentiles (s);
    /// its frames still count for loss. Twice this is excluded from error
    /// statistics while the trackers settle.
    pub warmup_s: f64,
}

impl StagePlan {
    /// Sensors the stage runs.
    pub fn sensors(&self) -> usize {
        self.singles + 2 * self.rooms
    }
}

/// One received per-sensor frame report.
struct FrameRx {
    sensor: u32,
    frame: u64,
    time_s: f64,
    at: Instant,
    positions: Vec<Vec3>,
}

/// One received fused world update.
struct WorldRx {
    room: u32,
    epoch: u64,
    at: Instant,
    positions: Vec<Vec3>,
}

/// Identity of a delivered event (kind, zone, track, count, time).
type EventKey = (u32, u16, Option<u32>, Option<u64>, u32, u64);

fn event_key(room: u32, ctx: &EventCtx) -> EventKey {
    (
        room,
        ctx.kind,
        ctx.zone,
        ctx.track,
        ctx.count,
        ctx.time_s.to_bits(),
    )
}

#[derive(Default)]
struct Collected {
    frames: Vec<FrameRx>,
    world: Vec<WorldRx>,
    events: Vec<(u32, EventCtx)>,
    acks: Vec<(u64, Instant)>,
    rejects: u64,
}

/// A selective subscription and the connection carrying it.
pub struct Program {
    /// Connection index carrying it.
    pub conn: usize,
    /// The subscribed room.
    pub room: u32,
    /// The wire subscription.
    pub sub: SubscribeV3,
    /// Its compiled filter (the reference evaluation runs this).
    pub compiled: CompiledProgram,
}

/// Everything measured in one stage.
pub struct StageResult {
    /// The plan that ran.
    pub plan: StagePlan,
    /// Server start → every session's first `UpdateBatch` (s).
    pub setup_s: f64,
    /// Due → `UpdateBatch` latency of the headline sensors (standalone
    /// ones when the stage has any, else the room sensors).
    pub update: Samples,
    /// Due time of an epoch's last contributing frame → `WorldUpdate` at
    /// each firehose subscriber.
    pub world: Samples,
    /// Frames sent after setup.
    pub frames_sent: u64,
    /// Frames whose report never arrived.
    pub frames_lost: u64,
    /// Frames answered more than once, or with an unknown frame index.
    pub frames_duplicated: u64,
    /// World updates expected at firehoses (one per epoch per firehose).
    pub world_expected: u64,
    /// Expected world updates plus reference-expected events missing.
    pub world_missing: u64,
    /// Events delivered that the reference evaluation did not expect, or
    /// firehoses that disagree on the event stream.
    pub events_unexpected: u64,
    /// Events the selective programs were expected to receive.
    pub events_expected: u64,
    /// Reject notices received.
    pub rejects: u64,
    /// Process CPU (user + system, s) from the first paced frame until
    /// every answer was in, less the pacer's CPU spent waiting for due
    /// times.
    pub cpu_s: f64,
    /// 3D errors (m) of headline sensor reports against truth.
    pub track_err_m: Vec<f64>,
    /// 3D errors (m) of fused world tracks after nearest-truth assignment.
    pub world_err_m: Vec<f64>,
    /// Share of covered walker-epochs that had a world track within
    /// [`TRACKED_M`].
    pub world_tracked: f64,
    /// How late the pacing thread issued each send (ns).
    pub late: Samples,
    /// Time the pacing thread spent blocked inside sends (ns).
    pub send_block: Samples,
    /// `SubscribeV3` sent → `SubscribeAck` received (ns).
    pub subscribe: Samples,
    /// Per room epoch: spread between its sensors' report arrivals (ms).
    pub watermark_spread_ms: Vec<f64>,
    /// Latency p50 over the first and last third of the stage (ms):
    /// a rising pair is a growing backlog.
    pub thirds_p50_ms: (f64, f64),
    /// Engine counters at the end of the stage.
    pub metrics: MetricsSnapshot,
    /// Mean shard queue wait (ns) from the registry's histogram sum/count.
    pub queue_wait_mean_ns: f64,
    /// Mean shard dequeue → report sent (ns), likewise.
    pub service_mean_ns: f64,
    /// The first few missing or unexpected deliveries, for diagnosis.
    pub problems: Vec<String>,
}

impl StageResult {
    /// Whether this load level met the real-time limit with no loss and
    /// no growing backlog.
    pub fn sustains(&mut self) -> bool {
        let (early, late) = self.thirds_p50_ms;
        let growing = late > (2.0 * early).max(early + 12.5);
        self.frames_lost == 0
            && self.world_missing == 0
            && self.events_unexpected == 0
            && self.update.quantile_ms(0.99) <= LIMIT_MS
            && !growing
    }
}

/// One sensor of the stage's fleet.
#[derive(Clone, Copy)]
struct Sensor {
    id: u32,
    conn: usize,
    phase: Duration,
    /// `Some(index)` into `inputs.singles`, or the room slot and vantage.
    source: Source,
    /// Ping-pong loop position of frame 0.
    offset: u64,
}

#[derive(Clone, Copy)]
enum Source {
    Single(usize),
    Room { room: usize, vantage: usize },
}

fn sensor_frames<'a>(inputs: &'a Inputs, s: &Sensor) -> &'a inputs::Stream {
    match s.source {
        Source::Single(i) => &inputs.singles[i].stream,
        Source::Room { room, vantage } => &inputs.rooms[room % inputs.rooms.len()].sensors[vantage],
    }
}

fn room_offset(room: usize, n_recordings: usize) -> u64 {
    (room / n_recordings.max(1)) as u64 * 97
}

fn build_fleet(plan: &StagePlan, inputs: &Inputs, n_conn: usize, period: Duration) -> Vec<Sensor> {
    let mut fleet = Vec::with_capacity(plan.sensors());
    for j in 0..plan.singles {
        fleet.push(Sensor {
            id: j as u32,
            conn: 0,
            phase: Duration::ZERO,
            source: Source::Single(j % inputs.singles.len()),
            offset: plan.start + (j / inputs.singles.len()) as u64 * 53,
        });
    }
    for r in 0..plan.rooms {
        for v in 0..2 {
            fleet.push(Sensor {
                id: ROOM_SENSOR_BASE + 2 * r as u32 + v as u32,
                conn: 0,
                phase: Duration::ZERO,
                source: Source::Room {
                    room: r,
                    vantage: v,
                },
                offset: plan.start + room_offset(r, inputs.rooms.len()),
            });
        }
    }
    let n = fleet.len() as u32;
    for (j, s) in fleet.iter_mut().enumerate() {
        s.conn = j % n_conn;
        s.phase = period * j as u32 / n.max(1);
    }
    fleet
}

/// Compiles the stage's selective programs: zone-entry/exit/occupancy
/// filters on a uniformly drawn zone id (≈1% of zone events match), a
/// quarter of them debounced so stateful ops are exercised too.
pub fn make_programs(plan: &StagePlan, n_conn: usize, seed: u64) -> Vec<Program> {
    (0..plan.programs)
        .map(|p| {
            let h = inputs::mix(seed, 7_000 + p as u64);
            let room = (p % plan.rooms) as u32 + 1;
            let zone = (h % inputs::ZONE_ID_SPACE as u64) as u32 + 1;
            let mut b = SubscriptionBuilder::room(room)
                .events(
                    EventKind::ZoneEntered | EventKind::ZoneExited | EventKind::OccupancyChanged,
                )
                .zone(zone)
                .world_updates(false)
                .id(PROGRAM_SUB_BASE + p as u64);
            if (h >> 32).is_multiple_of(4) {
                b = b.debounce(0.5);
            }
            let sub = b.build();
            let compiled = sub.program.compile().expect("benchmark programs compile");
            Program {
                conn: p % n_conn,
                room,
                sub,
                compiled,
            }
        })
        .collect()
}

fn world_config(base: &WiTrackConfig, rooms: usize) -> WorldConfig {
    WorldConfig {
        rooms: (0..rooms)
            .map(|r| {
                let ids = [
                    ROOM_SENSOR_BASE + 2 * r as u32,
                    ROOM_SENSOR_BASE + 2 * r as u32 + 1,
                ];
                RoomSpec {
                    room_id: r as u32 + 1,
                    fuse: inputs::room_fuse_config(base, r),
                    registration: inputs::room_registration(ids),
                }
            })
            .collect(),
    }
}

/// Polls `done`, yielding between polls, until it holds or `timeout`
/// passes. Like [`spin_until`], it keeps the CPU from going idle.
fn wait_for(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Waits until `t` without letting the CPU go idle: yields to any thread
/// that can run, else spins. On a virtual machine an idle virtual CPU
/// halts, and each wake-up then waits for the hypervisor to run it again:
/// with a sleeping pacer the host took 27% of the pinned CPU's time as
/// steal during the paced loop, against 2% while the CPU stayed busy.
/// Returns the calling thread's CPU time spent waiting (s).
fn spin_until(t: Instant) -> f64 {
    if Instant::now() >= t {
        return 0.0;
    }
    let start = thread_cpu_s();
    while Instant::now() < t {
        std::thread::yield_now();
    }
    thread_cpu_s() - start
}

/// Runs one stage. `seconds == 0` runs set-up only (used to repeat the
/// set-up measurement).
pub fn run_stage(
    base: &WiTrackConfig,
    inputs: &Inputs,
    plan: StagePlan,
    n_conn: usize,
    seed: u64,
) -> Result<StageResult, String> {
    let period = Duration::from_secs_f64(base.sweep.frame_duration_s());
    let fleet = build_fleet(&plan, inputs, n_conn, period);
    let programs = make_programs(&plan, n_conn, seed);

    // ---- Set-up: server start → every session's first UpdateBatch.
    let setup_start = Instant::now();
    let mut builder = Server::builder(witrack_factory(*base)).config(EngineConfig::default());
    if plan.rooms > 0 {
        builder = builder.world(world_config(base, plan.rooms));
    }
    let server = builder.start();
    let collected: Vec<Arc<Mutex<Collected>>> = (0..n_conn)
        .map(|_| Arc::new(Mutex::new(Collected::default())))
        .collect();
    let mut clients: Vec<SensorClient<InProcTransport>> = Vec::with_capacity(n_conn);
    for sink in &collected {
        let (client_end, server_end) = in_proc_pair(CONN_QUEUE);
        server
            .attach(server_end)
            .map_err(|e| format!("attach: {e}"))?;
        let sink = Arc::clone(sink);
        let handler = move |msg: &Message| {
            let at = Instant::now();
            let mut c = sink.lock().expect("collector poisoned");
            match msg {
                Message::UpdateBatch(u) => {
                    for r in &u.updates {
                        c.frames.push(FrameRx {
                            sensor: u.sensor_id,
                            frame: r.frame_index,
                            time_s: r.time_s,
                            at,
                            positions: r.targets.iter().map(|t| t.position).collect(),
                        });
                    }
                }
                Message::WorldUpdate(w) => c.world.push(WorldRx {
                    room: w.room_id,
                    epoch: w.frame.epoch,
                    at,
                    positions: w.frame.tracks.iter().map(|t| t.position).collect(),
                }),
                Message::Event(e) => c.events.push((e.room_id, EventCtx::from_event(&e.event))),
                Message::SubscribeAck(a) => c.acks.push((a.sub_id, at)),
                Message::Reject(_) => c.rejects += 1,
                _ => {}
            }
        };
        clients.push(
            SensorClient::connect_with(client_end, Some(Box::new(handler)))
                .map_err(|e| format!("connect: {e}"))?,
        );
    }
    // Subscriptions go in before any sensor speaks, so every subscriber
    // sees the whole event stream the reference evaluation replays.
    let mut sub_sent: HashMap<u64, Instant> = HashMap::new();
    let mut initial_subs = 0usize;
    if plan.rooms > 0 {
        // Acks share the connection's bounded outbox with everything else
        // the server sends, so installs go out in windows: the server
        // sheds what does not fit, acks included.
        let acks = |collected: &[Arc<Mutex<Collected>>]| -> usize {
            collected
                .iter()
                .map(|c| c.lock().expect("poisoned").acks.len())
                .sum()
        };
        let mut subs: Vec<(usize, SubscribeV3)> = Vec::new();
        for c in 0..n_conn {
            for r in 0..plan.rooms as u32 {
                subs.push((
                    c,
                    SubscriptionBuilder::room(r + 1)
                        .id(FIREHOSE_SUB + c as u64)
                        .build(),
                ));
            }
        }
        subs.extend(programs.iter().map(|p| (p.conn, p.sub.clone())));
        for (c, sub) in subs {
            let in_window = wait_for(Duration::from_secs(60), || {
                initial_subs < acks(&collected) + SUBSCRIBE_WINDOW
            });
            if !in_window {
                return Err("subscriptions were not acknowledged within 60 s".into());
            }
            sub_sent.insert(sub.sub_id, Instant::now());
            clients[c]
                .subscribe_with(sub)
                .map_err(|e| format!("subscribe: {e}"))?;
            initial_subs += 1;
        }
        if !wait_for(Duration::from_secs(60), || acks(&collected) >= initial_subs) {
            return Err("subscriptions were not acknowledged within 60 s".into());
        }
    }
    for s in &fleet {
        let kind = match s.source {
            Source::Single(_) => PipelineKind::SingleTarget,
            Source::Room { .. } => PipelineKind::MultiTarget,
        };
        clients[s.conn]
            .hello(hello_quantized_for(base, s.id, kind))
            .map_err(|e| format!("hello: {e}"))?;
    }
    let pool: BufPool<u8> = BufPool::new(4 * CONN_QUEUE * n_conn);
    let send = |clients: &mut Vec<SensorClient<InProcTransport>>, s: &Sensor, k: u64| {
        let stream = sensor_frames(inputs, s);
        let src = &stream.frames[stream.source_frame(s.offset + k)];
        let mut buf = pool.get(src.len());
        buf.extend_from_slice(src);
        inputs::patch_frame(&mut buf, s.id, k);
        clients[s.conn].tx().send_pooled(buf)
    };
    for s in &fleet {
        send(&mut clients, s, 0).map_err(|e| format!("send: {e}"))?;
    }
    let first_all = wait_for(Duration::from_secs(120), || {
        let mut seen = 0usize;
        for c in &collected {
            seen += c
                .lock()
                .expect("poisoned")
                .frames
                .iter()
                .filter(|f| f.frame == 0)
                .count();
        }
        seen >= fleet.len()
    });
    if !first_all {
        return Err("not every session answered its first frame within 120 s".into());
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    // ---- Paced open loop.
    let n_frames = (plan.seconds / period.as_secs_f64()).round() as u64;
    let churn_every = if plan.churn_hz > 0.0 && plan.rooms > 0 {
        ((1.0 / plan.churn_hz) / period.as_secs_f64())
            .round()
            .max(1.0) as u64
    } else {
        0
    };
    let mut late = Samples::default();
    let mut send_block = Samples::default();
    let mut churn_live: Vec<(usize, u32, u64)> = Vec::new();
    let mut churn_next = CHURN_SUB_BASE;
    // The pacer's CPU time spent waiting for due times is not the
    // program's: it is taken back out of the process CPU time.
    let mut spin_cpu_s = 0.0;
    let cpu_start = process_cpu_s();
    let t0 = Instant::now() + period;
    for k in 1..=n_frames {
        let frame_due = t0 + period * (k - 1) as u32;
        for s in &fleet {
            let due = frame_due + s.phase;
            spin_cpu_s += spin_until(due);
            let start = Instant::now();
            late.push((start - due).as_nanos() as u64);
            send(&mut clients, s, k).map_err(|e| format!("send: {e}"))?;
            send_block.push(start.elapsed().as_nanos() as u64);
        }
        if churn_every > 0 && k % churn_every == 0 {
            // Retire the oldest churn subscription and install a new one,
            // alternating connections.
            if churn_live.len() >= 2 {
                let (c, room, id) = churn_live.remove(0);
                clients[c]
                    .unsubscribe(room, id)
                    .map_err(|e| format!("unsubscribe: {e}"))?;
            }
            let c = (churn_next as usize) % n_conn;
            let room = (churn_next % plan.rooms as u64) as u32 + 1;
            let sub = SubscriptionBuilder::room(room)
                .events(EventKind::ZoneEntered)
                .zone(NO_ZONE)
                .world_updates(false)
                .id(churn_next)
                .build();
            sub_sent.insert(churn_next, Instant::now());
            clients[c]
                .subscribe_with(sub)
                .map_err(|e| format!("subscribe: {e}"))?;
            churn_live.push((c, room, churn_next));
            churn_next += 1;
        }
    }
    for (c, room, id) in churn_live.drain(..) {
        clients[c]
            .unsubscribe(room, id)
            .map_err(|e| format!("unsubscribe: {e}"))?;
    }
    for s in &fleet {
        clients[s.conn]
            .teardown(s.id)
            .map_err(|e| format!("teardown: {e}"))?;
    }
    // Every connection stays open until the last answers are in: a
    // connection that hangs up early loses its subscriptions, and with
    // them the final epochs of rooms whose other sensor is still going.
    let want_frames = fleet.len() * (n_frames as usize + 1);
    let counts = || -> (usize, usize) {
        collected.iter().fold((0, 0), |(f, w), c| {
            let c = c.lock().expect("poisoned");
            (f + c.frames.len(), w + c.world.len())
        })
    };
    // Done once every frame is answered and nothing arrived for 50 ms,
    // or once nothing arrived for a second (the rest was shed).
    let mut last = counts();
    let mut idle_polls = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = counts();
        idle_polls = if now == last { idle_polls + 1 } else { 0 };
        if (now.0 >= want_frames && idle_polls >= 1) || idle_polls >= 20 {
            break;
        }
        last = now;
    }
    // Metrics before close: closing tears the sessions down.
    let samples = server.registry().snapshot();
    for client in clients {
        client.close();
    }
    let cpu_s = process_cpu_s() - cpu_start - spin_cpu_s;
    let metrics = server.shutdown();
    let (queue_wait_mean_ns, service_mean_ns) = shard_means(&samples);

    let collected: Vec<Collected> = collected
        .into_iter()
        .map(|c| {
            Arc::try_unwrap(c)
                .map_err(|_| ())
                .expect("drain threads joined")
                .into_inner()
                .expect("collector poisoned")
        })
        .collect();
    let mut result = StageResult {
        plan,
        setup_s,
        update: Samples::default(),
        world: Samples::default(),
        frames_sent: n_frames * fleet.len() as u64,
        frames_lost: 0,
        frames_duplicated: 0,
        world_expected: 0,
        world_missing: 0,
        events_unexpected: 0,
        events_expected: 0,
        rejects: collected.iter().map(|c| c.rejects).sum(),
        cpu_s,
        track_err_m: Vec::new(),
        world_err_m: Vec::new(),
        world_tracked: 0.0,
        late,
        send_block,
        subscribe: Samples::default(),
        watermark_spread_ms: Vec::new(),
        thirds_p50_ms: (0.0, 0.0),
        metrics,
        queue_wait_mean_ns,
        service_mean_ns,
        problems: Vec::new(),
    };
    if n_frames > 0 {
        analyse(
            &mut result,
            base,
            inputs,
            &fleet,
            &programs,
            &collected,
            t0,
            n_frames,
            &sub_sent,
        );
    }
    Ok(result)
}

fn shard_means(samples: &[witrack_obs::MetricSample]) -> (f64, f64) {
    let mean = |name: &str| {
        let (mut sum, mut count) = (0u64, 0u64);
        for s in samples {
            if s.key.subsystem == "shard" && s.key.name == name {
                if let witrack_obs::MetricValue::Histo(h) = &s.value {
                    sum += h.sum;
                    count += h.count;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    };
    (mean("queue_wait_ns"), mean("dequeue_to_report_ns"))
}

#[allow(clippy::too_many_arguments)]
fn analyse(
    out: &mut StageResult,
    base: &WiTrackConfig,
    inputs: &Inputs,
    fleet: &[Sensor],
    programs: &[Program],
    collected: &[Collected],
    t0: Instant,
    n_frames: u64,
    sub_sent: &HashMap<u64, Instant>,
) {
    let period = Duration::from_secs_f64(base.sweep.frame_duration_s());
    let period_s = period.as_secs_f64();
    let due = |s: &Sensor, k: u64| t0 + period * (k - 1) as u32 + s.phase;
    let warm_frames = (out.plan.warmup_s / period_s).ceil() as u64;
    let settle_frames = (2.0 * out.plan.warmup_s / period_s).ceil() as u64;
    let headline_single = out.plan.singles > 0;
    // Per-sensor answers, indexed by frame.
    let index: HashMap<u32, usize> = fleet.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut answers: Vec<Vec<Option<&FrameRx>>> = fleet
        .iter()
        .map(|_| vec![None; n_frames as usize + 1])
        .collect();
    for c in collected {
        for f in &c.frames {
            let slot = index
                .get(&f.sensor)
                .and_then(|&i| answers[i].get_mut(f.frame as usize));
            match slot {
                Some(slot @ None) => *slot = Some(f),
                _ => out.frames_duplicated += 1,
            }
        }
    }
    let mut thirds = [Samples::default(), Samples::default()];
    let third = (n_frames - warm_frames.min(n_frames)) / 3;
    for (i, s) in fleet.iter().enumerate() {
        let is_single = matches!(s.source, Source::Single(_));
        let headline = is_single == headline_single;
        for k in 1..=n_frames {
            let Some(f) = answers[i][k as usize] else {
                out.frames_lost += 1;
                if headline && k > warm_frames {
                    out.update.push_lost();
                }
                continue;
            };
            if !headline {
                continue;
            }
            if k > warm_frames {
                let ns = f.at.saturating_duration_since(due(s, k)).as_nanos() as u64;
                out.update.push(ns);
                if k <= warm_frames + third {
                    thirds[0].push(ns);
                } else if k > n_frames - third {
                    thirds[1].push(ns);
                }
            }
            if k >= settle_frames {
                out.track_err_m
                    .extend(report_error(inputs, s, k, &f.positions));
            }
        }
    }
    out.thirds_p50_ms = (thirds[0].quantile_ms(0.5), thirds[1].quantile_ms(0.5));

    if out.plan.rooms == 0 {
        return;
    }
    // ---- World updates: one per epoch per firehose, timed from the due
    // time of the epoch's last contributing sensor frame.
    let room_sensors: Vec<[usize; 2]> = (0..out.plan.rooms)
        .map(|r| {
            let id = ROOM_SENSOR_BASE + 2 * r as u32;
            [index[&id], index[&(id + 1)]]
        })
        .collect();
    // Epoch numbering vs frame index, from any room sensor's report.
    let epoch_offset = collected
        .iter()
        .flat_map(|c| c.frames.iter())
        .find(|f| f.sensor >= ROOM_SENSOR_BASE)
        .map_or(0, |f| (f.time_s / period_s).round() as i64 - f.frame as i64);
    let mut covered = 0usize;
    let mut tracked = 0usize;
    for (ci, c) in collected.iter().enumerate() {
        let mut got: Vec<Vec<Option<&WorldRx>>> = (0..out.plan.rooms)
            .map(|_| vec![None; n_frames as usize + 1])
            .collect();
        for w in &c.world {
            let k = w.epoch as i64 - epoch_offset;
            let r = w.room as usize - 1;
            if r < out.plan.rooms && (0..=n_frames as i64).contains(&k) {
                got[r][k as usize] = Some(w);
            }
        }
        for (r, sensors) in room_sensors.iter().enumerate() {
            for k in 1..=n_frames {
                out.world_expected += 1;
                let last_due = sensors
                    .iter()
                    .map(|&i| due(&fleet[i], k))
                    .max()
                    .expect("two");
                match got[r][k as usize] {
                    None => {
                        out.world_missing += 1;
                        note(&mut out.problems, || {
                            format!("conn {ci}: no world update for room {} frame {k}", r + 1)
                        });
                        if k > warm_frames {
                            out.world.push_lost();
                        }
                    }
                    Some(w) => {
                        if k > warm_frames {
                            out.world
                                .push(w.at.saturating_duration_since(last_due).as_nanos() as u64);
                        }
                        if ci == 0 && k >= settle_frames {
                            let (c_n, t_n) = world_error(
                                inputs,
                                r,
                                fleet[sensors[0]].offset + k,
                                &w.positions,
                                &mut out.world_err_m,
                            );
                            covered += c_n;
                            tracked += t_n;
                        }
                    }
                }
                if ci == 0 {
                    let arrivals: Vec<Instant> = sensors
                        .iter()
                        .filter_map(|&i| answers[i][k as usize].map(|f| f.at))
                        .collect();
                    if let (Some(a), Some(b)) = (arrivals.iter().min(), arrivals.iter().max()) {
                        out.watermark_spread_ms.push((*b - *a).as_secs_f64() * 1e3);
                    }
                }
            }
        }
    }
    out.world_tracked = tracked as f64 / covered.max(1) as f64;

    // ---- Events: every firehose must carry the same stream, and each
    // connection must receive exactly firehose + reference-matched copies.
    let streams: Vec<HashMap<EventKey, u64>> = collected
        .iter()
        .map(|c| {
            let mut m = HashMap::new();
            for (room, ctx) in &c.events {
                *m.entry(event_key(*room, ctx)).or_insert(0u64) += 1;
            }
            m
        })
        .collect();
    // The firehose stream, in delivery order, from connection 0: the
    // distinct keys in first-seen order.
    let mut firehose: Vec<(u32, EventCtx)> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for (room, ctx) in &collected[0].events {
            if seen.insert(event_key(*room, ctx)) {
                firehose.push((*room, *ctx));
            }
        }
    }
    let mut expected: Vec<HashMap<EventKey, u64>> = (0..collected.len())
        .map(|_| {
            firehose
                .iter()
                .map(|(r, ctx)| (event_key(*r, ctx), 1u64))
                .collect()
        })
        .collect();
    for p in programs {
        let mut state = p.compiled.new_state();
        for (room, ctx) in firehose.iter().filter(|(r, _)| *r == p.room) {
            if p.compiled.eval(&mut state, ctx).matched {
                *expected[p.conn].entry(event_key(*room, ctx)).or_insert(0) += 1;
                out.events_expected += 1;
            }
        }
    }
    for (got, want) in streams.iter().zip(&expected) {
        for (key, &n) in want {
            let g = got.get(key).copied().unwrap_or(0);
            out.world_expected += n;
            out.world_missing += n.saturating_sub(g);
            out.events_unexpected += g.saturating_sub(n);
            if g != n {
                note(&mut out.problems, || {
                    format!("event {key:?}: {g} delivered, {n} expected")
                });
            }
        }
        for (key, &g) in got {
            if !want.contains_key(key) {
                out.events_unexpected += g;
                note(&mut out.problems, || {
                    format!("event {key:?}: {g} delivered, none expected")
                });
            }
        }
    }

    // ---- Subscribe → ack.
    for c in collected {
        for (id, at) in &c.acks {
            if let Some(sent) = sub_sent.get(id) {
                out.subscribe
                    .push(at.saturating_duration_since(*sent).as_nanos() as u64);
            }
        }
    }
}

fn note(problems: &mut Vec<String>, what: impl FnOnce() -> String) {
    if problems.len() < 5 {
        problems.push(what());
    }
}

/// Errors (m) of one sensor report against truth: single-target reports
/// against the walker's reflection point; multi-target reports (carried
/// to the world frame) against the nearest covered walker, ghosts beyond
/// [`TRACKED_M`] excluded.
fn report_error(inputs: &Inputs, s: &Sensor, k: u64, positions: &[Vec3]) -> Vec<f64> {
    match s.source {
        Source::Single(i) => {
            let single = &inputs.singles[i];
            let truth = single.truth[single.stream.source_frame(s.offset + k)];
            positions.iter().map(|p| p.distance(truth)).collect()
        }
        Source::Room { room, vantage } => {
            let rec = &inputs.rooms[room % inputs.rooms.len()];
            let src = rec.sensors[vantage].source_frame(s.offset + k);
            let xf = &rec.world_from_sensor[vantage];
            positions
                .iter()
                .filter_map(|p| {
                    let world = xf.apply(*p);
                    rec.surface[vantage][src]
                        .iter()
                        .flatten()
                        .map(|t| world.distance(*t))
                        .min_by(f64::total_cmp)
                        .filter(|&e| e < TRACKED_M)
                })
                .collect()
        }
    }
}

/// Nearest-track error of each covered walker in one fused epoch;
/// returns (covered walkers, tracked walkers).
fn world_error(
    inputs: &Inputs,
    room: usize,
    pos: u64,
    tracks: &[Vec3],
    errs: &mut Vec<f64>,
) -> (usize, usize) {
    let rec = &inputs.rooms[room % inputs.rooms.len()];
    let src = rec.sensors[0].source_frame(pos);
    let mut covered = 0;
    let mut tracked = 0;
    for (i, center) in rec.centers[src].iter().enumerate() {
        if !rec.surface.iter().any(|v| v[src][i].is_some()) {
            continue;
        }
        covered += 1;
        let nearest = tracks
            .iter()
            .map(|t| t.distance(*center))
            .min_by(f64::total_cmp);
        if let Some(e) = nearest.filter(|&e| e < TRACKED_M) {
            tracked += 1;
            errs.push(e);
        }
    }
    (covered, tracked)
}

/// Median of a list of errors (m) in cm.
pub fn median_cm(errs: &[f64]) -> f64 {
    let mut v = errs.to_vec();
    median(&mut v) * 100.0
}

/// What a capacity ramp grows.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    /// Standalone single-target sensors (the stage's rooms stay).
    Singles,
    /// Fused rooms, two sensors each.
    Rooms,
}

/// How a capacity ramp raises the load.
#[derive(Debug, Clone, Copy)]
pub struct RampSpec {
    /// What each rung adds.
    pub unit: Unit,
    /// Units on the first rung.
    pub start: usize,
    /// Growth factor between rungs until one misses.
    pub growth: f64,
    /// Bisection stops once pass and miss are this many units apart.
    pub resolution: usize,
    /// Upper bound on rungs run.
    pub max_rungs: usize,
    /// Paced time per rung (s).
    pub rung_s: f64,
}

fn run_rung(
    base: &WiTrackConfig,
    inputs: &Inputs,
    plan: StagePlan,
    n_conn: usize,
    seed: u64,
) -> Result<bool, String> {
    let mut r = run_stage(base, inputs, plan, n_conn, seed)?;
    if r.frames_duplicated > 0 || r.rejects > 0 {
        return Err(format!(
            "ramp rung of {} sensors broke correctness: {} duplicate answers, {} rejects",
            plan.sensors(),
            r.frames_duplicated,
            r.rejects
        ));
    }
    let p99 = r.update.quantile_ms(0.99);
    let sustained = r.sustains();
    println!(
        "#   {:>4} sensors: p99 {:>9.3} ms, lost {} frames and {} world updates/events \
         (outbox shed {}), first/last-third p50 {:.2}/{:.2} ms: {}",
        plan.sensors(),
        p99,
        r.frames_lost,
        r.world_missing + r.events_unexpected,
        r.metrics.updates_dropped,
        r.thirds_p50_ms.0,
        r.thirds_p50_ms.1,
        if sustained {
            "sustained"
        } else {
            "over the limit"
        }
    );
    Ok(sustained)
}

/// Raises the load step by step — geometric growth until a rung misses,
/// then bisection down to the spec's resolution — and returns the largest
/// sensor count that sustained the 75 ms p99 limit with zero loss and no
/// growing backlog (0 if none did). Rungs run `stage` without churn,
/// with the ramped unit replaced.
pub fn ramp(
    base: &WiTrackConfig,
    inputs: &Inputs,
    n_conn: usize,
    seed: u64,
    stage: StagePlan,
    spec: &RampSpec,
) -> Result<usize, String> {
    let plan_for = |units: usize| {
        let plan = StagePlan {
            churn_hz: 0.0,
            seconds: spec.rung_s,
            ..stage
        };
        match spec.unit {
            Unit::Singles => StagePlan {
                singles: units,
                ..plan
            },
            Unit::Rooms => StagePlan {
                rooms: units,
                ..plan
            },
        }
    };
    let mut pass: Option<usize> = None;
    let mut fail: Option<usize> = None;
    let mut units = spec.start.max(1);
    for _ in 0..spec.max_rungs {
        let plan = plan_for(units);
        // A rung that misses gets one more try: capacity is what the
        // system can sustain, and a host hiccup during one short rung is
        // not the system's limit.
        let ok = run_rung(base, inputs, plan, n_conn, seed)?
            || run_rung(base, inputs, plan, n_conn, seed)?;
        if ok {
            pass = Some(units);
        } else {
            fail = Some(units);
        }
        let lo = pass.unwrap_or(0);
        units = match fail {
            None => ((units as f64 * spec.growth).ceil() as usize).max(units + 1),
            Some(hi) if hi <= lo + spec.resolution => break,
            Some(hi) => (lo + hi) / 2,
        };
    }
    Ok(pass.map_or(0, |u| plan_for(u).sensors()))
}
