//! t_ingest — the ingest data plane in isolation: wire decode + shard
//! dispatch, with the tracking pipeline stubbed out.
//!
//! Four variants, crossing the wire form with the buffer strategy:
//!
//! * **f64 / owned** — classic `SweepBatch`, decoded into a fresh
//!   `Vec<f64>` per message (the pre-pool behavior);
//! * **f64 / pooled** — `wire::decode_into` into recycled buffers;
//! * **i16 / owned** — quantized `SweepBatchQ`, decoded owned then
//!   dequantized into a fresh vector;
//! * **i16 / pooled** — quantized, dequantized straight into recycled
//!   buffers: the production hot path (zero allocations per message).
//!
//! Each variant drives a real single-shard engine (so dispatch, queueing,
//! sequence accounting, and buffer hand-off are all in the measured
//! path) whose pipeline consumes sweeps without processing them.
//! Reported: messages/s, wire MB/s, and million samples/s.
//!
//! Flags: `--frames N` (messages per variant, default 512), `--seed N`,
//! `--out PATH` (JSON artifact; default none).

use std::sync::Arc;
use std::time::Instant;
use witrack_bench::printing::banner;
use witrack_core::{FramePipeline, FrameReport, WiTrackConfig};
use witrack_fmcw::Sweep;
use witrack_serve::engine::{EngineConfig, EngineHandle, OverloadPolicy, ShardedEngine};
use witrack_serve::pool::{BatchSamples, PooledBatch};
use witrack_serve::wire::{
    self, DecodedMsg, Hello, Message, PipelineKind, SweepBatch, SweepBatchQ,
};
use witrack_sim::{FleetConfig, FleetSimulator, SimConfig};

/// Consumes sweeps without touching the heap: the bench measures the
/// serving layer's decode + dispatch, not the tracker.
struct NullPipeline {
    n_rx: usize,
}

impl FramePipeline for NullPipeline {
    fn num_rx(&self) -> usize {
        self.n_rx
    }

    fn process_sweeps(&mut self, sweeps: Sweep<'_>) -> Option<FrameReport> {
        debug_assert_eq!(sweeps.len() % self.n_rx, 0);
        None
    }

    fn reset(&mut self) {}
}

struct Options {
    frames: u64,
    seed: u64,
    out: Option<String>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        frames: 512,
        seed: 7,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frames" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.frames = v;
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

fn stub_engine() -> (ShardedEngine, EngineHandle) {
    let (engine, events) = ShardedEngine::start(
        EngineConfig {
            num_shards: 1,
            queue_capacity: 8,
            overload: OverloadPolicy::Block,
        },
        Arc::new(|h: &Hello| {
            Ok(Box::new(NullPipeline {
                n_rx: h.n_rx as usize,
            }) as Box<dyn FramePipeline>)
        }),
    );
    // Nothing interesting flows on the event stream here (no sinks, no
    // reports); park a drainer so the unbounded channel stays empty.
    std::thread::spawn(move || for _ in events {});
    let handle = engine.handle();
    (engine, handle)
}

struct VariantResult {
    name: &'static str,
    bytes_per_frame: usize,
    elapsed_s: f64,
    frames: u64,
    samples_per_frame: usize,
}

impl VariantResult {
    fn msgs_per_sec(&self) -> f64 {
        self.frames as f64 / self.elapsed_s.max(1e-12)
    }

    fn wire_mb_per_sec(&self) -> f64 {
        self.msgs_per_sec() * self.bytes_per_frame as f64 / 1e6
    }

    fn msamples_per_sec(&self) -> f64 {
        self.msgs_per_sec() * self.samples_per_frame as f64 / 1e6
    }
}

/// Runs one variant: decode each pre-encoded frame with `decode_step`
/// and dispatch the result into a fresh stub engine.
fn run_variant(
    name: &'static str,
    frames: &[Vec<u8>],
    hello: Hello,
    samples_per_frame: usize,
    mut decode_step: impl FnMut(&EngineHandle, &[u8]),
) -> VariantResult {
    let (engine, handle) = stub_engine();
    handle.submit(Message::Hello(hello)).expect("hello");
    let bytes_per_frame = frames[0].len();
    let n = frames.len() as u64;
    let start = Instant::now();
    for frame in frames.iter() {
        decode_step(&handle, frame);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let m = engine.shutdown();
    assert_eq!(
        m.sweeps_processed,
        n * hello.sweeps_per_frame as u64,
        "{name}: every sweep must have reached the pipeline"
    );
    assert_eq!(m.batches_rejected, 0, "{name}: protocol-clean workload");
    VariantResult {
        name,
        bytes_per_frame,
        elapsed_s,
        frames: n,
        samples_per_frame,
    }
}

fn main() {
    let opts = parse_options();
    banner(
        "T-INGEST",
        "wire decode + shard dispatch in isolation (pipeline stubbed)",
        "f64 vs quantized i16 wire, owned vs pooled buffers",
    );
    let base = WiTrackConfig::witrack_default();
    let sweeps = base.sweep.sweeps_per_frame;
    let samples = base.sweep.samples_per_sweep();
    let samples_per_frame = sweeps * 3 * samples;

    // One room of real fleet signal, replayed cyclically with patched
    // sequence numbers — every encoded frame is distinct, pre-built, and
    // never cloned in the measured loop (sequence patching is a 12-byte
    // in-place write).
    let source_frames = 32.min(opts.frames as usize).max(1);
    let fleet = FleetSimulator::new(FleetConfig {
        rooms: 1,
        max_walkers_per_room: 1,
        duration_s: (source_frames as f64 + 1.0) * base.sweep.frame_duration_s(),
        sim: SimConfig {
            sweep: base.sweep,
            noise_std: 0.05,
            seed: opts.seed,
        },
    });
    let mut room = fleet.record_frames_flat(sweeps);
    let room = {
        room[0].truncate(source_frames);
        &room[0]
    };
    let batch_for = |seq: u64| SweepBatch {
        sensor_id: 0,
        seq,
        n_sweeps: sweeps as u16,
        n_rx: 3,
        samples_per_sweep: samples as u32,
        data: room[seq as usize % room.len()].clone(),
    };
    eprintln!(
        "encoding {} frames per wire ({} samples each)...",
        opts.frames, samples_per_frame
    );
    let f64_frames: Vec<Vec<u8>> = (0..opts.frames)
        .map(|seq| wire::encode(&Message::SweepBatch(batch_for(seq))))
        .collect();
    let i16_frames: Vec<Vec<u8>> = (0..opts.frames)
        .map(|seq| {
            wire::encode(&Message::SweepBatchQ(SweepBatchQ::quantize(&batch_for(
                seq,
            ))))
        })
        .collect();

    let hello = Hello {
        sensor_id: 0,
        kind: PipelineKind::SingleTarget,
        n_rx: 3,
        samples_per_sweep: samples as u32,
        sweeps_per_frame: sweeps as u32,
        quantized: false,
    };
    let hello_q = Hello {
        quantized: true,
        ..hello
    };

    let results = vec![
        run_variant(
            "f64/owned",
            &f64_frames,
            hello,
            samples_per_frame,
            owned_step,
        ),
        run_variant(
            "f64/pooled",
            &f64_frames,
            hello,
            samples_per_frame,
            pooled_step,
        ),
        run_variant(
            "i16/owned",
            &i16_frames,
            hello_q,
            samples_per_frame,
            owned_step,
        ),
        run_variant(
            "i16/pooled",
            &i16_frames,
            hello_q,
            samples_per_frame,
            pooled_step,
        ),
    ];

    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "variant", "bytes/frame", "msgs/s", "wire MB/s", "Msamples/s"
    );
    for r in &results {
        println!(
            "{:>12} {:>12} {:>12.0} {:>12.1} {:>12.1}",
            r.name,
            r.bytes_per_frame,
            r.msgs_per_sec(),
            r.wire_mb_per_sec(),
            r.msamples_per_sec()
        );
    }
    let by_name = |n: &str| results.iter().find(|r| r.name == n).expect("variant ran");
    println!(
        "\nbandwidth cut (f64 -> i16): {:.1}%  |  decode+dispatch speedup \
         (f64/owned -> i16/pooled): {:.2}x",
        100.0
            * (1.0
                - by_name("i16/pooled").bytes_per_frame as f64
                    / by_name("f64/owned").bytes_per_frame as f64),
        by_name("i16/pooled").msgs_per_sec() / by_name("f64/owned").msgs_per_sec()
    );

    if let Some(path) = &opts.out {
        let cells: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\n",
                        "      \"variant\": \"{}\",\n",
                        "      \"bytes_per_frame\": {},\n",
                        "      \"frames\": {},\n",
                        "      \"elapsed_s\": {:.6},\n",
                        "      \"msgs_per_sec\": {:.1},\n",
                        "      \"wire_mb_per_sec\": {:.2},\n",
                        "      \"msamples_per_sec\": {:.2}\n",
                        "    }}"
                    ),
                    r.name,
                    r.bytes_per_frame,
                    r.frames,
                    r.elapsed_s,
                    r.msgs_per_sec(),
                    r.wire_mb_per_sec(),
                    r.msamples_per_sec()
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"t_ingest\",\n  \"results\": [\n{}\n  ]\n}}\n",
            cells.join(",\n")
        );
        std::fs::write(path, json).expect("write ingest JSON");
        println!("wrote {path}");
    }
}

/// The owned (pre-pool) decode step: fresh `Vec` per message, quantized
/// batches dequantized into another fresh `Vec`.
fn owned_step(handle: &EngineHandle, frame: &[u8]) {
    let (msg, _) = wire::decode(frame).expect("decode");
    match msg {
        Message::SweepBatch(b) => {
            handle
                .submit_batch_pooled(PooledBatch::from_owned(b), None)
                .expect("submit");
        }
        Message::SweepBatchQ(q) => {
            handle
                .submit_batch_pooled(PooledBatch::from_owned_q(q), None)
                .expect("submit");
        }
        other => panic!("unexpected message {other:?}"),
    }
}

/// The pooled decode step: `decode_into` a recycled buffer, dispatch the
/// pooled batch — the production hot path.
fn pooled_step(handle: &EngineHandle, frame: &[u8]) {
    let mut samples = handle.sample_pool().get(0);
    let (decoded, _) = wire::decode_into(frame, &mut samples).expect("decode");
    match decoded {
        DecodedMsg::Sweeps(shape) => {
            handle
                .submit_batch_pooled(
                    PooledBatch {
                        shape,
                        samples: BatchSamples::F64(samples),
                    },
                    None,
                )
                .expect("submit");
        }
        DecodedMsg::Other(other) => panic!("unexpected message {other:?}"),
    }
}
