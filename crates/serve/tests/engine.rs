//! Engine + server integration: full wire path over in-process transports
//! (no sockets), session lifecycle, a real walker tracked end-to-end over
//! TCP loopback, and overload behavior.

use std::sync::Arc;
use witrack_core::{FramePipeline, FrameReport, WiTrackConfig};
use witrack_fmcw::{Sweep, SweepConfig};
use witrack_geom::Vec3;
use witrack_serve::engine::{EngineConfig, EngineEvent, OverloadPolicy, ShardedEngine, Submitted};
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::server::{Server, TcpServer};
use witrack_serve::transport::{in_proc_pair, TcpTransport};
use witrack_serve::wire::{Message, PipelineKind, SweepBatch};
use witrack_serve::SensorClient;

fn reduced_base() -> WiTrackConfig {
    WiTrackConfig {
        sweep: SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 100e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        },
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    }
}

fn silent_frame(base: &WiTrackConfig) -> Vec<Vec<Vec<f64>>> {
    let n = base.sweep.samples_per_sweep();
    vec![vec![vec![0.0; n]; 3]; base.sweep.sweeps_per_frame]
}

/// Dechirped sweeps for a reflector at `p`, one frame's worth.
fn frame_for(
    base: &WiTrackConfig,
    array: &witrack_geom::AntennaArray,
    p: Vec3,
) -> Vec<Vec<Vec<f64>>> {
    use std::f64::consts::PI;
    let sw = &base.sweep;
    let n = sw.samples_per_sweep();
    let one_sweep: Vec<Vec<f64>> = (0..array.num_rx())
        .map(|k| {
            let rt = array.round_trip(p, k);
            let tau = rt / 299_792_458.0;
            let beat = sw.beat_for_tof(tau);
            let phase = 2.0 * PI * sw.start_freq_hz * tau;
            (0..n)
                .map(|i| {
                    let t = i as f64 / sw.sample_rate_hz;
                    (2.0 * PI * beat * t + phase).cos()
                })
                .collect()
        })
        .collect();
    vec![one_sweep; sw.sweeps_per_frame]
}

#[test]
fn two_sensors_multiplex_one_in_process_connection() {
    let base = reduced_base();
    let server = Server::start(EngineConfig::default(), witrack_factory(base));
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).unwrap();
    let mut client = SensorClient::connect(client_end).unwrap();

    client
        .hello(hello_for(&base, 1, PipelineKind::SingleTarget))
        .unwrap();
    client
        .hello(hello_for(&base, 2, PipelineKind::MultiTarget))
        .unwrap();
    let frame = silent_frame(&base);
    for seq in 0..6u64 {
        client.send_sweeps(1, seq, &frame).unwrap();
        client.send_sweeps(2, seq, &frame).unwrap();
    }
    client.teardown(1).unwrap();
    client.teardown(2).unwrap();
    let stats = client.close();
    // 6 frames per sensor, batched one frame per update batch.
    assert_eq!(stats.frames, 12, "stats: {stats:?}");
    assert_eq!(stats.rejects, 0);
    assert_eq!(stats.targets, 0, "silence tracks nobody");

    let m = server.shutdown();
    assert_eq!(m.sessions_opened, 2);
    assert_eq!(m.sessions_closed, 2);
    assert_eq!(m.frames_emitted, 12);
    assert_eq!(m.batches_dropped, 0);
}

#[test]
fn a_walker_is_tracked_over_tcp_loopback() {
    let base = reduced_base();
    let server = TcpServer::bind(
        "127.0.0.1:0",
        EngineConfig::default(),
        witrack_factory(base),
    )
    .unwrap();
    let array =
        witrack_geom::TArray::symmetric(base.array_origin, base.antenna_separation).antenna_array();

    let positions = Arc::new(std::sync::Mutex::new(Vec::<Vec3>::new()));
    let sink = Arc::clone(&positions);
    let transport = TcpTransport::connect(server.local_addr()).unwrap();
    let mut client = SensorClient::connect_with(
        transport,
        Some(Box::new(move |msg: &Message| {
            if let Message::UpdateBatch(u) = msg {
                let mut p = sink.lock().unwrap();
                p.extend(
                    u.updates
                        .iter()
                        .flat_map(|r| r.targets.iter().map(|t| t.position)),
                );
            }
        })),
    )
    .unwrap();

    client
        .hello(hello_for(&base, 11, PipelineKind::SingleTarget))
        .unwrap();
    let mut truth = Vec::new();
    for f in 0..60 {
        let s = f as f64 / 60.0;
        let p = Vec3::new(-1.0 + 2.0 * s, 4.0 + 2.0 * s, 1.2);
        truth.push(p);
        client
            .send_sweeps(11, f, &frame_for(&base, &array, p))
            .unwrap();
    }
    client.teardown(11).unwrap();
    let stats = client.close();
    assert_eq!(stats.frames, 60);
    assert!(
        stats.targets > 30,
        "walker mostly tracked, got {}",
        stats.targets
    );

    // The positions that came back over the socket are near the truth.
    let positions = positions.lock().unwrap();
    let worst = positions
        .iter()
        .map(|est| {
            truth
                .iter()
                .map(|t| est.distance(*t))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0_f64, f64::max);
    assert!(worst < 1.5, "worst distance to trajectory {worst}");

    let m = server.shutdown();
    assert_eq!(m.frames_emitted, 60);
    assert_eq!(m.unknown_sensor, 0);
}

/// A pipeline that burns time: forces queue buildup deterministically.
struct SlowPipeline {
    frame: u64,
}

impl FramePipeline for SlowPipeline {
    fn num_rx(&self) -> usize {
        3
    }

    fn process_sweeps(&mut self, _sweeps: Sweep<'_>) -> Option<FrameReport> {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r = FrameReport {
            frame_index: self.frame,
            time_s: 0.0,
            targets: Vec::new(),
        };
        self.frame += 1;
        Some(r)
    }

    fn reset(&mut self) {
        self.frame = 0;
    }
}

#[test]
fn drop_newest_sheds_load_and_counts_it() {
    let cfg = EngineConfig {
        num_shards: 1,
        queue_capacity: 2,
        overload: OverloadPolicy::DropNewest,
    };
    let (engine, events) = ShardedEngine::start(
        cfg,
        Arc::new(|_h: &_| Ok(Box::new(SlowPipeline { frame: 0 }) as _)),
    );
    let handle = engine.handle();
    // The hello's stream shape must match the tiny 4-sample batches the
    // flood sends (batches that disagree with the hello are refused).
    handle
        .submit(Message::Hello(witrack_serve::Hello {
            sensor_id: 0,
            kind: PipelineKind::SingleTarget,
            n_rx: 3,
            samples_per_sweep: 4,
            sweeps_per_frame: 1,
            quantized: false,
        }))
        .unwrap();
    // Flood: a 20 ms/sweep pipeline with a depth-2 queue cannot keep up
    // with 50 instantaneous one-sweep batches, so some must drop.
    let mut queued = 0;
    let mut dropped = 0;
    for seq in 0..50u64 {
        let batch = SweepBatch::from_sweeps(0, seq, &[vec![vec![0.0; 4]; 3]]);
        match handle.submit_batch(batch).unwrap() {
            Submitted::Queued => queued += 1,
            Submitted::Dropped => dropped += 1,
        }
    }
    assert!(dropped > 0, "flood never overflowed the bounded queue");
    assert_eq!(queued + dropped, 50);
    let m = engine.shutdown();
    assert_eq!(m.batches_dropped, dropped);
    assert_eq!(
        m.batches_in as i64,
        queued as i64 + 1,
        "hello + queued batches"
    );
    // The engine still emitted one report per batch it accepted.
    let emitted = events
        .try_iter()
        .filter(|e| matches!(e, EngineEvent::Updates(_)))
        .count();
    assert_eq!(emitted as u64, queued);
    assert!(
        m.max_inflight >= 2,
        "queue reached its bound, lag was observed"
    );
}

#[test]
fn wrong_sweep_length_batch_is_refused_not_a_panic() {
    let base = reduced_base();
    let (engine, events) = ShardedEngine::start(EngineConfig::default(), witrack_factory(base));
    let handle = engine.handle();
    handle
        .submit(Message::Hello(hello_for(
            &base,
            5,
            PipelineKind::SingleTarget,
        )))
        .unwrap();
    // Self-consistent wire batch whose sweeps are 10 samples instead of
    // the configured length: must bounce as BadConfig, not reach the
    // pipeline's panicking length assert and kill the shard.
    let bad = SweepBatch::from_sweeps(5, 0, &[vec![vec![0.0; 10]; 3]]);
    handle.submit_batch(bad).unwrap();
    match events.recv().unwrap() {
        EngineEvent::Rejected(r) => {
            assert_eq!(r.sensor_id, 5);
            assert_eq!(r.code, witrack_serve::RejectCode::BadConfig);
        }
        other => panic!("expected reject, got {other:?}"),
    }
    // The shard survived: a well-shaped frame still processes.
    handle
        .submit_batch(SweepBatch::from_sweeps(5, 1, &silent_frame(&base)))
        .unwrap();
    match events.recv().unwrap() {
        EngineEvent::Updates(u) => assert_eq!(u.updates.len(), 1),
        other => panic!("expected updates, got {other:?}"),
    }
    let m = engine.shutdown();
    assert_eq!(m.batches_rejected, 1);
    assert_eq!(m.frames_emitted, 1);
}

#[test]
fn refused_hello_reaches_the_client_and_leaves_no_state() {
    let base = reduced_base();
    let server = Server::start(EngineConfig::default(), witrack_factory(base));
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).unwrap();
    let mut client = SensorClient::connect(client_end).unwrap();
    // A hello the factory refuses (wrong sweep shape)...
    let mut bad = hello_for(&base, 3, PipelineKind::SingleTarget);
    bad.samples_per_sweep += 1;
    client.hello(bad).unwrap();
    // ...then a corrected one for the same sensor, which must open
    // normally (the refused hello left nothing behind).
    client
        .hello(hello_for(&base, 3, PipelineKind::SingleTarget))
        .unwrap();
    client.send_sweeps(3, 0, &silent_frame(&base)).unwrap();
    // close() must not hang, the reject must have been delivered, and the
    // real session's updates must still arrive.
    let stats = client.close();
    assert_eq!(stats.rejects, 1, "the refused hello was reported");
    assert_eq!(stats.frames, 1, "the corrected session worked");
    let m = server.shutdown();
    assert_eq!(m.sessions_opened, 1);
    assert_eq!(m.sessions_closed, 1, "EOF cleanup closed the real session");
}

#[test]
fn unknown_sensor_batches_are_rejected_over_the_wire() {
    let base = reduced_base();
    let server = Server::start(EngineConfig::default(), witrack_factory(base));
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).unwrap();
    let mut client = SensorClient::connect(client_end).unwrap();
    // No hello at all: every batch must bounce back as a wire-visible
    // Reject, not vanish into silent data loss.
    for seq in 0..3 {
        client.send_sweeps(9, seq, &silent_frame(&base)).unwrap();
    }
    let stats = client.close();
    assert_eq!(stats.rejects, 3, "every orphan batch was reported");
    assert_eq!(stats.frames, 0);
    let m = server.shutdown();
    assert_eq!(m.unknown_sensor, 3);
    assert_eq!(m.sessions_opened, 0);
}
