//! The traced replay: the same generated frames pushed through each
//! layer's public functions one call at a time, with a span around every
//! call.
//!
//! Spans (name, start, end, parent, frame id) are kept in memory and
//! written out when the replay ends. The replay runs twice — once with
//! spans off, once with them on — and the difference is the tracing
//! overhead. Spans wrap calls from outside the program; per-antenna
//! profile/detect and the 3D solve are replayed beside the frame call
//! (`WiTrack::push_sweeps_flat_q` does the same work internally), so
//! `core.frame_ns − 3·(profile + detect) − solve` is what the frame call
//! spends beyond its parts: the per-frame antenna fan-out.

use crate::inputs::{self, Inputs};
use crate::stats::median;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;
use witrack_core::{FrameReport, WiTrack, WiTrackConfig};
use witrack_dsp::window::WindowKind;
use witrack_fmcw::{BackgroundSubtractor, ContourTracker, RangeProfiler};
use witrack_fuse::FusionEngine;
use witrack_mtt::{MttConfig, MultiWiTrack};
use witrack_serve::program::{CompiledProgram, EventCtx};
use witrack_serve::wire::{self, DecodedMsgQ, Message, UpdateBatch, WorldUpdateMsg};

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name (`<module>.<call>`).
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// The frame this span worked on.
    pub frame: u64,
}

/// In-memory span recorder; a disabled tracer records nothing and reads
/// no clocks.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: u32, frame: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Self time of every span: its duration minus what its children
    /// cover (children of one parent never overlap here).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Total duration (ns) of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as a tab-separated line.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tframe\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.frame, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts the replay gathers beside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Frames replayed (single + room sensor frames).
    pub frames: u64,
    /// Standalone single-target frames replayed.
    pub single_frames: u64,
    /// Room sensor frames replayed.
    pub room_frames: u64,
    /// Encoded input bytes over all frames.
    pub bytes_in: u64,
    /// Encoded `UpdateBatch` bytes over all frames.
    pub bytes_out: u64,
    /// Program evaluations run.
    pub evaluated: u64,
}

/// One replay's result.
pub struct Replay {
    /// The recorded spans (empty when untraced).
    pub tracer: Tracer,
    /// Work counts.
    pub counts: ReplayCounts,
    /// Wall time of the whole replay (ns).
    pub wall_ns: u64,
}

/// Per-antenna front half, replayed with the fmcw crate's public calls.
struct AntennaChain {
    profiler: RangeProfiler,
    background: BackgroundSubtractor,
    contour: ContourTracker,
}

impl AntennaChain {
    fn new(base: &WiTrackConfig) -> AntennaChain {
        AntennaChain {
            profiler: RangeProfiler::new(&base.sweep, WindowKind::Hann, base.max_round_trip_m),
            background: BackgroundSubtractor::new(),
            contour: ContourTracker::new(base.sweep, base.contour),
        }
    }
}

/// Decoded frame scratch.
struct Scratch {
    f64s: Vec<f64>,
    i16s: Vec<i16>,
}

/// Replays up to `max_frames` single-target frames and up to
/// `max_epochs` room epochs (both room sensors per epoch), feeding every
/// room epoch's events to `programs`.
pub fn replay(
    base: &WiTrackConfig,
    inputs: &Inputs,
    programs: &[(u32, CompiledProgram)],
    max_frames: usize,
    max_epochs: usize,
    traced: bool,
) -> Replay {
    let mut t = Tracer::new(traced);
    let mut counts = ReplayCounts::default();
    let mut scratch = Scratch {
        f64s: Vec::new(),
        i16s: Vec::new(),
    };
    let start = Instant::now();
    let mut fid = 0u64;

    // Single-target sensors, recording by recording.
    let per_stream = max_frames.div_ceil(inputs.singles.len().max(1));
    for single in &inputs.singles {
        let mut witrack = WiTrack::new(*base).expect("paper config builds");
        let mut chains: Vec<AntennaChain> = (0..3).map(|_| AntennaChain::new(base)).collect();
        for (seq, bytes) in single.stream.frames.iter().take(per_stream).enumerate() {
            let root = t.begin("frame", NO_PARENT, fid);
            let (sps, scale) = decode(&mut t, root, fid, bytes, &mut scratch);
            let span = t.begin("core.frame", root, fid);
            let mut update = None;
            for sweep in scratch.i16s.chunks_exact(3 * sps) {
                update = witrack.push_sweeps_flat_q(sweep, sps, scale).or(update);
            }
            t.end(span);
            let round_trips = front_half(&mut t, root, fid, &mut chains, &scratch.i16s, sps, scale);
            let span = t.begin("core.solve", root, fid);
            std::hint::black_box(witrack.solve(&round_trips));
            t.end(span);
            if let Some(u) = update {
                counts.bytes_out +=
                    encode_update(&mut t, root, fid, seq as u64, FrameReport::from(u));
            }
            t.end(root);
            counts.bytes_in += bytes.len() as u64;
            counts.frames += 1;
            counts.single_frames += 1;
            fid += 1;
        }
    }

    // Fused rooms: both sensors' frames, then fusion, world encode and
    // program evaluation over the epoch's events.
    let per_room = max_epochs.div_ceil(inputs.rooms.len().max(1));
    for (r, rec) in inputs.rooms.iter().enumerate() {
        let ids = [1000 + 2 * r as u32, 1001 + 2 * r as u32];
        let mut fusion = FusionEngine::new(
            inputs::room_fuse_config(base, r),
            inputs::room_registration(ids),
        );
        let mut mtts: Vec<MultiWiTrack> = (0..2)
            .map(|_| MultiWiTrack::new(MttConfig::with_base(*base)).expect("paper config builds"))
            .collect();
        let mut chains: Vec<Vec<AntennaChain>> = (0..2)
            .map(|_| (0..3).map(|_| AntennaChain::new(base)).collect())
            .collect();
        let room_programs: Vec<&CompiledProgram> = programs
            .iter()
            .filter(|(room, _)| *room == r as u32 + 1)
            .map(|(_, p)| p)
            .collect();
        let mut states: Vec<_> = room_programs.iter().map(|p| p.new_state()).collect();
        let mut out_seq = 0u64;
        let epochs = rec.sensors[0].frames.len().min(per_room);
        for e in 0..epochs {
            for v in 0..2 {
                let bytes = &rec.sensors[v].frames[e];
                let root = t.begin("frame", NO_PARENT, fid);
                let (sps, scale) = decode(&mut t, root, fid, bytes, &mut scratch);
                let span = t.begin("mtt.frame", root, fid);
                let mut update = None;
                for sweep in scratch.i16s.chunks_exact(3 * sps) {
                    update = mtts[v].push_sweeps_flat_q(sweep, sps, scale).or(update);
                }
                t.end(span);
                std::hint::black_box(front_half(
                    &mut t,
                    root,
                    fid,
                    &mut chains[v],
                    &scratch.i16s,
                    sps,
                    scale,
                ));
                if let Some(u) = update {
                    let report = FrameReport::from(u);
                    counts.bytes_out += encode_update(&mut t, root, fid, e as u64, report.clone());
                    let span = t.begin("fuse.push_report", root, fid);
                    let frames = fusion.push_report(ids[v], &report);
                    t.end(span);
                    for frame in frames {
                        let span = t.begin("wire.encode_world", root, fid);
                        let msg = Message::WorldUpdate(WorldUpdateMsg {
                            room_id: r as u32 + 1,
                            seq: out_seq,
                            frame: frame.clone(),
                        });
                        std::hint::black_box(wire::encode(&msg));
                        t.end(span);
                        out_seq += 1;
                        for event in &frame.events {
                            let ctx = EventCtx::from_event(event);
                            let span = t.begin("program.eval", root, fid);
                            for (p, state) in room_programs.iter().zip(states.iter_mut()) {
                                std::hint::black_box(p.eval(state, &ctx));
                            }
                            t.end(span);
                            counts.evaluated += room_programs.len() as u64;
                        }
                    }
                }
                t.end(root);
                counts.bytes_in += bytes.len() as u64;
                counts.frames += 1;
                counts.room_frames += 1;
                fid += 1;
            }
        }
    }
    Replay {
        tracer: t,
        counts,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// `wire::decode_into_q` of one sweep-batch frame; returns samples per
/// sweep and the dequantization scale.
fn decode(t: &mut Tracer, root: u32, fid: u64, bytes: &[u8], s: &mut Scratch) -> (usize, f64) {
    let span = t.begin("wire.decode", root, fid);
    let decoded = wire::decode_into_q(bytes, &mut s.f64s, &mut s.i16s);
    t.end(span);
    match decoded {
        Ok((DecodedMsgQ::SweepsQ(shape, scale), _)) => (shape.samples_per_sweep as usize, scale),
        other => panic!(
            "benchmark frames are quantized sweep batches, got {:?}",
            other.map(|_| ())
        ),
    }
}

/// Per-antenna profile (`RangeProfiler::push_sweep_q` over the frame's
/// sweeps) and detect (`BackgroundSubtractor::push` +
/// `ContourTracker::detect`); returns each antenna's round trip.
fn front_half(
    t: &mut Tracer,
    root: u32,
    fid: u64,
    chains: &mut [AntennaChain],
    samples: &[i16],
    sps: usize,
    scale: f64,
) -> Vec<Option<f64>> {
    let n_rx = chains.len();
    chains
        .iter_mut()
        .enumerate()
        .map(|(k, chain)| {
            let span = t.begin("fmcw.profile", root, fid);
            let mut sweeps = samples.chunks_exact(n_rx * sps);
            let last = sweeps.next_back();
            for sweep in sweeps {
                chain.profiler.push_sweep_q(&sweep[k * sps..][..sps], scale);
            }
            let profile =
                last.and_then(|sweep| chain.profiler.push_sweep_q(&sweep[k * sps..][..sps], scale));
            t.end(span);
            let span = t.begin("fmcw.detect", root, fid);
            let rt = profile
                .and_then(|p| chain.background.push(p))
                .and_then(|mags| chain.contour.detect(mags))
                .map(|d| d.round_trip_m);
            t.end(span);
            rt
        })
        .collect()
}

/// `wire::encode` of a one-report `UpdateBatch`; returns its bytes.
fn encode_update(t: &mut Tracer, root: u32, fid: u64, seq: u64, report: FrameReport) -> u64 {
    let span = t.begin("wire.encode_update", root, fid);
    let bytes = wire::encode(&Message::UpdateBatch(UpdateBatch {
        sensor_id: 0,
        seq,
        updates: vec![report],
    }));
    t.end(span);
    bytes.len() as u64
}

/// Median self time per span name.
pub fn medians(t: &Tracer) -> HashMap<&'static str, f64> {
    let selfs = t.self_times();
    let mut by: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (s, &ns) in t.spans.iter().zip(&selfs) {
        by.entry(s.name).or_default().push(ns as f64);
    }
    by.into_iter()
        .map(|(k, mut v)| (k, median(&mut v)))
        .collect()
}
