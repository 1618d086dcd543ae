//! The sharded engine: N sensor streams multiplexed over worker shards.
//!
//! Each sensor id is pinned to one shard (`sensor_id mod num_shards`), and
//! each shard worker owns the [`FramePipeline`] instances of the sensors
//! pinned to it — so a sensor's sweeps are always processed in order, by
//! one thread, with no locking around pipeline state. Shard input queues
//! are **bounded**: a producer outrunning the engine either blocks
//! ([`OverloadPolicy::Block`], socket-like backpressure) or has its newest
//! batch dropped and counted ([`OverloadPolicy::DropNewest`], for sensors
//! where stale sweeps are worse than missing ones).
//!
//! Lifecycle per sensor: [`Hello`] (builds the pipeline via the
//! [`PipelineFactory`]) → any number of [`SweepBatch`]es (sequence-checked;
//! gaps and reordering are counted and reported) → [`Teardown`]. Every
//! frame report is emitted as an `UpdateBatch` carrying a per-sensor
//! output sequence number.
//!
//! Server→client routing is **per session**: a `Hello` submitted with an
//! [`UpdateSink`] ties the session to that sink, and the owning shard
//! sends the session's updates and rejects straight into it (shedding,
//! never blocking, when the sink is full — one lagging client must not
//! stall a shard). Sessions without a sink (direct engine users: tests,
//! benches) get their traffic on the engine-wide [`EngineEvent`] stream
//! instead.

use crate::hub::{HubHandle, HubMsg, WorldConfig, WorldHub};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::pool::{BatchSamples, BufPool, PooledBatch, PooledBuf, SamplePools};
use crate::wire::{self, Hello, Message, Reject, RejectCode, SweepBatch, Teardown, UpdateBatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use witrack_core::{FramePipeline, FrameReport};
use witrack_fmcw::Sweep;
use witrack_obs::{
    AnomalyKind, Counter, FlightRecorder, Gauge, Histo, Label, Registry, StageStats,
};

/// What ingress does when a shard's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the producer until the shard drains (backpressure).
    Block,
    /// Discard the newly-arrived batch and count it in
    /// [`MetricsSnapshot::batches_dropped`].
    DropNewest,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker shards. Defaults to the host's available
    /// parallelism.
    pub num_shards: usize,
    /// Bounded depth of each shard's input queue, in sweep batches.
    pub queue_capacity: usize,
    /// Full-queue behavior for sweep batches (control messages always
    /// block — dropping a `Hello` or `Teardown` would wedge a session).
    pub overload: OverloadPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            queue_capacity: 8,
            overload: OverloadPolicy::Block,
        }
    }
}

/// Builds a sensor's pipeline from its `Hello`. Returning `Err` rejects
/// the session with [`RejectCode::BadConfig`].
pub type PipelineFactory = dyn Fn(&Hello) -> Result<Box<dyn FramePipeline>, String> + Send + Sync;

/// Where one session's server→client traffic goes: a bounded queue of
/// **already-encoded wire frames** (update batches, rejects) owned by the
/// session's connection. Shards encode into pool-backed buffers and
/// `try_send` them, shedding on full
/// ([`MetricsSnapshot::updates_dropped`]); the connection's writer pushes
/// the bytes to the transport and the buffer recycles.
pub type UpdateSink = SyncSender<PooledBuf<u8>>;

/// A session's sink plus the connection it belongs to (connection ids
/// scope best-effort cleanup teardowns; see
/// [`EngineHandle::submit_teardown_scoped`]).
#[derive(Clone)]
pub struct ConnSink {
    /// Opaque id of the owning connection.
    pub conn_id: u64,
    /// The connection's outbox.
    pub tx: UpdateSink,
}

/// What the engine emits on its event stream. Sessions tied to an
/// [`UpdateSink`] deliver `Updates`/`Rejected` to their sink instead;
/// `SessionClosed` is always emitted here.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// Frame reports for one sinkless sensor (`seq` is the per-sensor
    /// output sequence number, starting at 0 after `Hello`).
    Updates(UpdateBatch),
    /// A message was refused; the offending sensor id and why.
    Rejected(Reject),
    /// A session ended (teardown), with its lifetime frame count.
    SessionClosed {
        /// The sensor whose session ended.
        sensor_id: u32,
        /// Frame reports emitted over the session's lifetime.
        frames_emitted: u64,
    },
}

/// Whether a submitted batch entered a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// The message is in its shard's queue.
    Queued,
    /// The queue was full and policy is `DropNewest`; the batch was
    /// discarded (and counted).
    Dropped,
}

/// Submission errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The engine has shut down.
    EngineDown,
    /// `UpdateBatch`/`Reject`/`WorldUpdate`/`Event` are server→client
    /// messages; clients cannot submit them.
    ServerOnlyMessage,
    /// A `Subscribe` was submitted without a connection sink — the world
    /// stream has nowhere to go.
    SubscribeNeedsConnection,
    /// A `StatsQuery` was submitted without a connection sink — the
    /// report has nowhere to go (direct engine users should call
    /// [`EngineHandle::stats_samples`] instead).
    StatsNeedsConnection,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::EngineDown => write!(f, "engine has shut down"),
            SubmitError::ServerOnlyMessage => write!(f, "server-only message type"),
            SubmitError::SubscribeNeedsConnection => {
                write!(f, "subscribe requires a connection to deliver into")
            }
            SubmitError::StatsNeedsConnection => {
                write!(f, "stats query requires a connection to deliver into")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

enum ShardMsg {
    Hello(Hello, Option<ConnSink>),
    /// A sweep batch (header + pooled samples), the sink of the
    /// connection that carried it — so refusals that have no session to
    /// consult (unknown sensor) can still reach the sender over the wire
    /// — and its enqueue instant (queue-wait telemetry).
    Batch(PooledBatch, Option<ConnSink>, Instant),
    /// Teardown, optionally scoped to sessions owned by one connection
    /// (best-effort cleanup at connection close must not kill a session
    /// some other connection owns), plus the carrying connection's sink
    /// for refusals.
    Teardown(Teardown, Option<u64>, Option<ConnSink>),
    /// Shutdown nudge: wakes the shard so it notices the stop flag.
    Wake,
}

/// Cloneable ingress side of the engine: routes client messages to shards.
#[derive(Clone)]
pub struct EngineHandle {
    shards: Vec<SyncSender<ShardMsg>>,
    overload: OverloadPolicy,
    metrics: Arc<EngineMetrics>,
    /// Recycles ingest sample buffers, one pool per wire representation
    /// (socket → decode → shard → pipeline).
    ingest: SamplePools,
    /// Recycles outbox encode buffers (shard → outbox → transport).
    frame_pool: BufPool<u8>,
    /// The world hub, when this engine fuses rooms.
    hub: Option<HubHandle>,
    /// The engine's metric registry (all `engine`/`shard`/`sensor`/
    /// `pipeline`/`room` series).
    registry: Arc<Registry>,
    /// The engine's anomaly flight recorder.
    recorder: Arc<FlightRecorder>,
    /// Per-shard `shard/queue_depth` gauges, indexed like `shards`
    /// (incremented at enqueue, decremented by the owning worker).
    queue_depths: Arc<Vec<Gauge>>,
}

impl EngineHandle {
    fn shard_idx(&self, sensor_id: u32) -> usize {
        sensor_id as usize % self.shards.len()
    }

    /// The pools connection readers should decode sweep samples into
    /// (see [`crate::transport::TransportRx::recv_msg_pooled`]): f64
    /// batches fill `f64s`, quantized batches stay i16 in `i16s`.
    pub fn ingest_pools(&self) -> &SamplePools {
        &self.ingest
    }

    /// The f64 half of [`Self::ingest_pools`] (compatibility accessor
    /// for callers decoding only f64 batches).
    pub fn sample_pool(&self) -> &BufPool<f64> {
        &self.ingest.f64s
    }

    /// The pool shards encode outbound frames into — exposed for tests
    /// and capacity monitoring.
    pub fn frame_pool(&self) -> &BufPool<u8> {
        &self.frame_pool
    }

    /// Routes one client message to its sensor's shard. `Hello` and
    /// `Teardown` always block on a full queue; `SweepBatch` follows the
    /// configured [`OverloadPolicy`]. Sessions opened this way have no
    /// sink: their updates arrive on the engine event stream.
    pub fn submit(&self, msg: Message) -> Result<Submitted, SubmitError> {
        self.submit_with_sink(msg, None)
    }

    /// [`Self::submit`], with the carrying connection's sink attached so
    /// every refusal — including ones no session exists for, like an
    /// unknown sensor id — reaches the sender over the wire.
    pub fn submit_with_sink(
        &self,
        msg: Message,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        match msg {
            Message::Hello(h) => self.submit_hello(h, sink),
            Message::Teardown(t) => {
                self.send_control(t.sensor_id, ShardMsg::Teardown(t, None, sink))
            }
            Message::SweepBatch(b) => self.submit_batch_pooled(PooledBatch::from_owned(b), sink),
            // Quantized batches stay i16 all the way to the shard — the
            // pipeline's fixed-point front half dequantizes late.
            Message::SweepBatchQ(q) => self.submit_batch_pooled(PooledBatch::from_owned_q(q), sink),
            // The v2 subscribe keeps working as a match-all v3 program —
            // no ack, because v2 clients don't know the type exists.
            Message::Subscribe(s) => {
                self.route_subscribe(wire::SubscribeV3::from_v2(s), sink, false)
            }
            Message::SubscribeV3(s) => self.submit_subscribe_v3(s, sink),
            Message::Unsubscribe(u) => self.submit_unsubscribe(u, sink),
            Message::StatsQuery(q) => self.submit_stats_query(q, sink),
            Message::UpdateBatch(_)
            | Message::Reject(_)
            | Message::WorldUpdate(_)
            | Message::Event(_)
            | Message::StatsReport(_)
            | Message::SubscribeAck(_)
            | Message::SubscriptionStats(_) => Err(SubmitError::ServerOnlyMessage),
        }
    }

    /// Answers a [`wire::StatsQuery`] immediately: snapshots every
    /// registered metric series and encodes one `StatsReport` frame into
    /// the connection's outbox. No shard round-trip — snapshots are
    /// reads of relaxed atomics, safe from any thread.
    pub fn submit_stats_query(
        &self,
        _query: wire::StatsQuery,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        let sink = sink.ok_or(SubmitError::StatsNeedsConnection)?;
        let samples = self.stats_samples();
        let mut buf = self.frame_pool.get(64 * samples.len().max(1));
        wire::encode_stats_report_into(&samples, &mut buf);
        if sink.tx.try_send(buf).is_err() {
            self.metrics.updates_dropped.inc();
        }
        Ok(Submitted::Queued)
    }

    /// A point-in-time snapshot of every metric series visible from this
    /// engine: its own registry (engine, shard, sensor, pipeline, room
    /// series) merged with the process-wide [`witrack_obs::global`]
    /// registry (e.g. `dsp` plan-cache counters), sorted by key.
    pub fn stats_samples(&self) -> Vec<witrack_obs::MetricSample> {
        let mut samples = self.registry.snapshot();
        samples.extend(witrack_obs::global().snapshot());
        samples.sort_by_key(|s| s.key);
        samples
    }

    /// The engine's metric registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's anomaly flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Routes a v2 room subscription to the world hub as a match-all v3
    /// program (no ack — v2 clients don't expect one). Without a hub
    /// (the engine was started without a [`WorldConfig`]) the
    /// subscription is refused over the connection with
    /// [`RejectCode::UnknownSubscription`].
    pub fn submit_subscribe(
        &self,
        sub: wire::Subscribe,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        self.route_subscribe(wire::SubscribeV3::from_v2(sub), sink, false)
    }

    /// Routes a programmable (wire v3) room subscription to the world
    /// hub, which answers with a `SubscribeAck` (or a `Reject` carrying
    /// [`RejectCode::BadProgram`]/[`RejectCode::UnknownSubscription`]).
    pub fn submit_subscribe_v3(
        &self,
        sub: wire::SubscribeV3,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        self.route_subscribe(sub, sink, true)
    }

    fn route_subscribe(
        &self,
        sub: wire::SubscribeV3,
        sink: Option<ConnSink>,
        ack: bool,
    ) -> Result<Submitted, SubmitError> {
        let sink = sink.ok_or(SubmitError::SubscribeNeedsConnection)?;
        match &self.hub {
            Some(hub) => {
                if hub.send(HubMsg::Subscribe(sub, sink, ack)) {
                    Ok(Submitted::Queued)
                } else {
                    Err(SubmitError::EngineDown)
                }
            }
            None => {
                self.metrics.batches_rejected.inc();
                let mut buf = self.frame_pool.get(32);
                wire::encode_reject_into(sub.room_id, RejectCode::UnknownSubscription, &mut buf);
                if sink.tx.try_send(buf).is_err() {
                    self.metrics.updates_dropped.inc();
                }
                Ok(Submitted::Queued)
            }
        }
    }

    /// Releases one room subscription; the hub answers with its final
    /// `SubscriptionStats` (or `UnknownSubscription` when no such
    /// subscription exists on this connection).
    pub fn submit_unsubscribe(
        &self,
        unsub: wire::Unsubscribe,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        let sink = sink.ok_or(SubmitError::SubscribeNeedsConnection)?;
        match &self.hub {
            Some(hub) => {
                if hub.send(HubMsg::Unsubscribe(unsub, sink)) {
                    Ok(Submitted::Queued)
                } else {
                    Err(SubmitError::EngineDown)
                }
            }
            None => {
                self.metrics.batches_rejected.inc();
                let mut buf = self.frame_pool.get(32);
                wire::encode_reject_into(unsub.room_id, RejectCode::UnknownSubscription, &mut buf);
                if sink.tx.try_send(buf).is_err() {
                    self.metrics.updates_dropped.inc();
                }
                Ok(Submitted::Queued)
            }
        }
    }

    /// Opens a session, optionally tying it to a connection's update
    /// sink. A refused `Hello` sends the `Reject` into the sink (when
    /// given) and drops the sink again — no session state survives it.
    pub fn submit_hello(
        &self,
        hello: Hello,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        self.send_control(hello.sensor_id, ShardMsg::Hello(hello, sink))
    }

    /// Best-effort teardown scoped to `conn_id`: closes the session only
    /// if it is tied to that connection's sink. Used at connection close,
    /// where tearing down a sensor now owned by another connection would
    /// be worse than leaking nothing.
    pub fn submit_teardown_scoped(
        &self,
        sensor_id: u32,
        conn_id: u64,
    ) -> Result<Submitted, SubmitError> {
        self.send_control(
            sensor_id,
            ShardMsg::Teardown(Teardown { sensor_id }, Some(conn_id), None),
        )
    }

    fn send_control(&self, sensor_id: u32, msg: ShardMsg) -> Result<Submitted, SubmitError> {
        // Count before sending: the shard's dequeue must never observe an
        // un-counted message (inflight would underflow).
        let idx = self.shard_idx(sensor_id);
        self.metrics.enqueued();
        self.queue_depths[idx].add(1);
        match self.shards[idx].send(msg) {
            Ok(()) => Ok(Submitted::Queued),
            Err(_) => {
                self.metrics.enqueue_failed();
                self.queue_depths[idx].add(-1);
                Err(SubmitError::EngineDown)
            }
        }
    }

    /// Submits one owned sweep batch (compatibility entry point; the
    /// zero-copy hot path is [`Self::submit_batch_pooled`]).
    pub fn submit_batch(&self, batch: SweepBatch) -> Result<Submitted, SubmitError> {
        self.submit_batch_pooled(PooledBatch::from_owned(batch), None)
    }

    /// Submits one decoded sweep batch whose samples live in a pooled
    /// buffer — the ingest hot path. The buffer travels to the owning
    /// shard and returns to its pool right after the pipeline consumes
    /// it (or immediately, if the batch is dropped or refused). `sink`,
    /// when given, carries the connection for refusals that have no
    /// session to consult.
    pub fn submit_batch_pooled(
        &self,
        batch: PooledBatch,
        sink: Option<ConnSink>,
    ) -> Result<Submitted, SubmitError> {
        let (sensor_id, seq) = (batch.shape.sensor_id, batch.shape.seq);
        let idx = self.shard_idx(sensor_id);
        let shard = &self.shards[idx];
        self.metrics.enqueued();
        self.queue_depths[idx].add(1);
        let msg = ShardMsg::Batch(batch, sink, Instant::now());
        let rollback = || {
            self.metrics.enqueue_failed();
            self.queue_depths[idx].add(-1);
        };
        match self.overload {
            OverloadPolicy::Block => match shard.send(msg) {
                Ok(()) => Ok(Submitted::Queued),
                Err(_) => {
                    rollback();
                    Err(SubmitError::EngineDown)
                }
            },
            OverloadPolicy::DropNewest => match shard.try_send(msg) {
                Ok(()) => Ok(Submitted::Queued),
                Err(TrySendError::Full(_)) => {
                    rollback();
                    self.metrics.batches_dropped.inc();
                    self.recorder
                        .record(AnomalyKind::Drop, sensor_id as u64, idx as u64, seq);
                    Ok(Submitted::Dropped)
                }
                Err(TrySendError::Disconnected(_)) => {
                    rollback();
                    Err(SubmitError::EngineDown)
                }
            },
        }
    }

    /// Tells the world hub a connection ended, releasing its room
    /// subscriptions (and with them the hub's clone of the connection's
    /// outbox sender, which the connection writer's exit waits on).
    /// No-op without a hub.
    pub fn notify_conn_closed(&self, conn_id: u64) {
        if let Some(hub) = &self.hub {
            let _ = hub.send(HubMsg::ConnClosed(conn_id));
        }
    }

    /// The engine's shared counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// The running engine: shard workers plus their queues (and the world
/// hub, when rooms are fused).
pub struct ShardedEngine {
    handle: EngineHandle,
    workers: Vec<JoinHandle<()>>,
    hub: Option<WorldHub>,
    stop: Arc<AtomicBool>,
    metrics: Arc<EngineMetrics>,
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
}

impl ShardedEngine {
    /// Starts the shard workers. Returns the engine and the event stream
    /// (sinkless updates/rejects, session closes) the shards feed. The
    /// receiver should be drained — the channel is unbounded.
    pub fn start(
        cfg: EngineConfig,
        factory: Arc<PipelineFactory>,
    ) -> (ShardedEngine, Receiver<EngineEvent>) {
        Self::start_inner(cfg, factory, None)
    }

    /// A fluent constructor: `ShardedEngine::builder(factory)
    /// .config(cfg).world(world_cfg).start()` — one shape that grows
    /// options without new entry points.
    pub fn builder(factory: Arc<PipelineFactory>) -> EngineBuilder {
        EngineBuilder {
            cfg: EngineConfig::default(),
            factory,
            world: None,
        }
    }

    /// Shared startup: every public constructor lands here — every
    /// session's frame reports are forwarded to its room's
    /// [`witrack_fuse::FusionEngine`] (when a world is configured), and
    /// connections may `Subscribe` to rooms for fused
    /// `WorldUpdate`/`Event` streams.
    fn start_inner(
        cfg: EngineConfig,
        factory: Arc<PipelineFactory>,
        world: Option<WorldConfig>,
    ) -> (ShardedEngine, Receiver<EngineEvent>) {
        let num_shards = cfg.num_shards.max(1);
        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(EngineMetrics::new(Arc::clone(&registry)));
        let recorder = Arc::new(FlightRecorder::new(1024));
        let stop = Arc::new(AtomicBool::new(false));
        let (events_tx, events_rx) = channel();
        // Sample buffers live from decode until the owning shard finishes
        // a batch, so the steady-state population is bounded by the total
        // queue depth plus one in-decode and one in-pipeline per thread;
        // cap the free list a little above that. Outbox encode buffers
        // are small and bounded by outbox depth.
        let ingest = SamplePools::new(num_shards * cfg.queue_capacity.max(1) + 2 * num_shards + 8);
        let frame_pool = BufPool::new(256);
        let (hub, hub_handle) = match world {
            Some(world_cfg) => {
                let (hub, handle) = WorldHub::start(
                    world_cfg,
                    frame_pool.clone(),
                    Arc::clone(&metrics),
                    Arc::clone(&recorder),
                    Arc::clone(&stop),
                );
                (Some(hub), Some(handle))
            }
            None => (None, None),
        };
        let queue_depths: Arc<Vec<Gauge>> = Arc::new(
            (0..num_shards)
                .map(|i| registry.gauge("shard", "queue_depth", Label::Shard(i as u32)))
                .collect(),
        );
        let mut shards = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let (tx, rx) = sync_channel(cfg.queue_capacity.max(1));
            shards.push(tx);
            let shard_label = Label::Shard(i as u32);
            let worker = ShardWorker {
                rx,
                events: events_tx.clone(),
                factory: Arc::clone(&factory),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                sessions: HashMap::new(),
                frame_pool: frame_pool.clone(),
                updates_scratch: Vec::new(),
                hub: hub_handle.clone(),
                registry: Arc::clone(&registry),
                recorder: Arc::clone(&recorder),
                queue_depth: queue_depths[i].clone(),
                queue_wait: registry.histo("shard", "queue_wait_ns", shard_label),
                dequeue_to_report: registry.histo("shard", "dequeue_to_report_ns", shard_label),
                batched_frames: registry.counter("dsp", "batched_frames", shard_label),
            };
            workers.push(std::thread::spawn(move || worker.run()));
        }
        let handle = EngineHandle {
            shards,
            overload: cfg.overload,
            metrics: Arc::clone(&metrics),
            ingest,
            frame_pool,
            hub: hub_handle,
            registry: Arc::clone(&registry),
            recorder: Arc::clone(&recorder),
            queue_depths,
        };
        (
            ShardedEngine {
                handle,
                workers,
                hub,
                stop,
                metrics,
                registry,
                recorder,
            },
            events_rx,
        )
    }

    /// A cloneable ingress handle.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }
}

/// Fluent construction for [`ShardedEngine`] — see
/// [`ShardedEngine::builder`].
pub struct EngineBuilder {
    cfg: EngineConfig,
    factory: Arc<PipelineFactory>,
    world: Option<WorldConfig>,
}

impl EngineBuilder {
    /// Engine shape: shard count, queue depth, overload policy.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attach a world hub fusing the configured rooms, enabling room
    /// subscriptions.
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.world = Some(world);
        self
    }

    /// Starts the shard workers (and hub, when a world is configured).
    /// Returns the engine and its event stream; the receiver should be
    /// drained — the channel is unbounded.
    pub fn start(self) -> (ShardedEngine, Receiver<EngineEvent>) {
        ShardedEngine::start_inner(self.cfg, self.factory, self.world)
    }
}

impl ShardedEngine {
    /// Current counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The engine's metric registry: every `engine`/`shard`/`sensor`/
    /// `pipeline`/`room` series this engine registers.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's anomaly flight recorder (drops, rejects, sequence
    /// gaps, shed updates, ghost quarantines, handoffs).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Stops the shards after they drain their queues and joins them.
    /// Outstanding [`EngineHandle`] clones see [`SubmitError::EngineDown`]
    /// afterwards.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        for shard in &self.handle.shards {
            // Best-effort nudge; a full queue will notice the flag on its
            // own at the drain timeout.
            let _ = shard.try_send(ShardMsg::Wake);
        }
        for w in self.workers {
            w.join().expect("shard worker panicked");
        }
        // The shards are gone, so everything they forwarded is already in
        // the hub's inbox; it drains that, sees the stop flag, and exits.
        if let Some(hub) = self.hub {
            hub.join();
        }
        self.metrics.snapshot()
    }
}

struct Session {
    pipeline: Box<dyn FramePipeline>,
    /// The stream shape this session's `Hello` promised; batches that
    /// disagree are refused before they can reach the pipeline's
    /// stricter (panicking) asserts.
    samples_per_sweep: u32,
    sink: Option<ConnSink>,
    next_in_seq: u64,
    out_seq: u64,
    frames_emitted: u64,
    /// This sensor's `sensor/frames` registry counter.
    frames: Counter,
}

struct ShardWorker {
    rx: Receiver<ShardMsg>,
    events: Sender<EngineEvent>,
    factory: Arc<PipelineFactory>,
    metrics: Arc<EngineMetrics>,
    stop: Arc<AtomicBool>,
    sessions: HashMap<u32, Session>,
    /// Pool the shard encodes outbound (sinkful) frames into.
    frame_pool: BufPool<u8>,
    /// Per-batch report scratch, reused across batches (taken/returned
    /// around each batch so the session borrow stays clean).
    updates_scratch: Vec<FrameReport>,
    /// The world hub, when this engine fuses rooms: every emitted report
    /// batch is forwarded there for cross-sensor fusion.
    hub: Option<HubHandle>,
    /// The engine registry (per-sensor series register at session open).
    registry: Arc<Registry>,
    /// The engine's anomaly flight recorder.
    recorder: Arc<FlightRecorder>,
    /// This shard's `shard/queue_depth` gauge (decremented at dequeue).
    queue_depth: Gauge,
    /// Batch enqueue → dequeue wall time.
    queue_wait: Arc<Histo>,
    /// Batch dequeue → reports-delivered wall time.
    dequeue_to_report: Arc<Histo>,
    /// Sweep batches processed in cache-blocked dispatch groups (this
    /// shard's `dsp/batched_frames` counter; incremented by group size).
    batched_frames: Counter,
}

impl ShardWorker {
    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => self.dispatch(msg),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    // Queue empty: the only time shutdown may interrupt —
                    // accepted work is never abandoned mid-queue.
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Sessions still open at shutdown close here — the only exit
        // their pipelines have — so `sessions_closed` balances
        // `sessions_opened` even for clients that never sent `Teardown`.
        for (sensor_id, s) in self.sessions.drain() {
            self.metrics.sessions_closed.inc();
            if let Some(hub) = &self.hub {
                hub.send(HubMsg::SensorClosed(sensor_id));
            }
            let _ = self.events.send(EngineEvent::SessionClosed {
                sensor_id,
                frames_emitted: s.frames_emitted,
            });
        }
    }

    fn emit(&self, event: EngineEvent) {
        // The receiver outlives the shards in every orderly shutdown; a
        // dropped receiver just means nobody is listening anymore.
        let _ = self.events.send(event);
    }

    /// Pushes an encoded frame into a session sink, shedding (and
    /// counting) when the connection lags. Blocking would stall every
    /// sensor on the shard, so shed — updates are superseded by the next
    /// frame, rejects are advisory. The pooled buffer recycles either
    /// way (the writer drops it after sending; a failed try_send drops
    /// it here).
    fn push_to_sink(&self, sink: &ConnSink, frame: PooledBuf<u8>) {
        if sink.tx.try_send(frame).is_err() {
            self.metrics.updates_dropped.inc();
            self.recorder.record(AnomalyKind::Shed, sink.conn_id, 0, 0);
        }
    }

    /// Delivers one batch of frame reports: sinkful sessions get the
    /// frame encoded straight from the report slice into a pooled buffer
    /// (no owned `UpdateBatch`, no per-event allocation); sinkless
    /// sessions (direct engine users: tests, benches) get an owned event.
    fn deliver_updates(
        &self,
        sink: Option<&ConnSink>,
        sensor_id: u32,
        seq: u64,
        updates: &[FrameReport],
    ) {
        match sink {
            Some(s) => {
                let mut frame = self.frame_pool.get(64);
                wire::encode_update_batch_into(sensor_id, seq, updates, &mut frame);
                self.push_to_sink(s, frame);
            }
            None => self.emit(EngineEvent::Updates(UpdateBatch {
                sensor_id,
                seq,
                updates: updates.to_vec(),
            })),
        }
    }

    fn reject(&self, sink: Option<&ConnSink>, sensor_id: u32, code: RejectCode) {
        self.metrics.batches_rejected.inc();
        if code == RejectCode::UnknownSensor {
            self.metrics.unknown_sensor.inc();
        }
        self.recorder.record(
            AnomalyKind::Reject,
            sensor_id as u64,
            code.to_u16() as u64,
            0,
        );
        match sink {
            Some(s) => {
                let mut frame = self.frame_pool.get(32);
                wire::encode_reject_into(sensor_id, code, &mut frame);
                self.push_to_sink(s, frame);
            }
            None => self.emit(EngineEvent::Rejected(Reject { sensor_id, code })),
        }
    }

    /// Handles one dequeued message, then greedily drains everything
    /// already queued before blocking again. Sweep batches processed in
    /// one drain run back-to-back while the shard's transform plans, window
    /// tables, and pipeline state are cache-hot — at 100+ co-sharded
    /// sensors the per-dispatch warm-up otherwise dominates — and the
    /// group size feeds the `dsp/batched_frames` counter.
    fn dispatch(&mut self, first: ShardMsg) {
        let mut grouped = 0u64;
        let mut msg = first;
        loop {
            if matches!(msg, ShardMsg::Batch(..)) {
                grouped += 1;
            }
            self.handle(msg);
            match self.rx.try_recv() {
                Ok(next) => msg = next,
                Err(_) => break,
            }
        }
        if grouped > 0 {
            self.batched_frames.add(grouped);
        }
    }

    fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Wake => {}
            ShardMsg::Hello(h, sink) => {
                self.metrics.dequeued();
                self.queue_depth.add(-1);
                self.open_session(h, sink);
            }
            ShardMsg::Teardown(t, only_if_conn, sink) => {
                self.metrics.dequeued();
                self.queue_depth.add(-1);
                self.close_session(t, only_if_conn, sink);
            }
            ShardMsg::Batch(b, sink, enqueued_at) => {
                self.metrics.dequeued();
                self.queue_depth.add(-1);
                let dequeued_at = Instant::now();
                self.queue_wait
                    .record(dequeued_at.duration_since(enqueued_at).as_nanos() as u64);
                self.process_batch(b, sink);
                // Dequeue → reports delivered (pipeline + encode + sink
                // push): the shard's end-to-end service time per batch.
                self.dequeue_to_report.record_since(dequeued_at);
            }
        }
    }

    fn open_session(&mut self, h: Hello, sink: Option<ConnSink>) {
        if self.sessions.contains_key(&h.sensor_id) {
            // The *existing* session's sink must not learn about this —
            // the refusal goes to whoever sent the duplicate.
            self.reject(sink.as_ref(), h.sensor_id, RejectCode::DuplicateSensor);
            return;
        }
        let mut pipeline = match (self.factory)(&h) {
            Ok(p) => p,
            Err(_) => {
                self.reject(sink.as_ref(), h.sensor_id, RejectCode::BadConfig);
                return;
            }
        };
        if pipeline.num_rx() != h.n_rx as usize {
            self.reject(sink.as_ref(), h.sensor_id, RejectCode::BadConfig);
            return;
        }
        self.metrics.sessions_opened.inc();
        // Per-sensor series register here, off the hot path: the session
        // keeps cheap handles, and the backend records its per-stage
        // (profile/detect/associate) wall times straight into registry
        // histograms on every frame-completing push.
        let label = Label::Sensor(h.sensor_id);
        pipeline.attach_stage_stats(StageStats::registered(&self.registry, label));
        self.sessions.insert(
            h.sensor_id,
            Session {
                pipeline,
                samples_per_sweep: h.samples_per_sweep,
                sink,
                next_in_seq: 0,
                out_seq: 0,
                frames_emitted: 0,
                frames: self.registry.counter("sensor", "frames", label),
            },
        );
    }

    fn close_session(&mut self, t: Teardown, only_if_conn: Option<u64>, carried: Option<ConnSink>) {
        if let Some(conn_id) = only_if_conn {
            // Scoped cleanup: silently skip sessions this connection does
            // not own (including already-closed ones).
            let owned = self
                .sessions
                .get(&t.sensor_id)
                .is_some_and(|s| s.sink.as_ref().is_some_and(|k| k.conn_id == conn_id));
            if !owned {
                return;
            }
        }
        match self.sessions.remove(&t.sensor_id) {
            Some(s) => {
                self.metrics.sessions_closed.inc();
                if let Some(hub) = &self.hub {
                    // The fusion watermark must stop waiting for this
                    // sensor (its world tracks coast until reacquired).
                    hub.send(HubMsg::SensorClosed(t.sensor_id));
                }
                self.emit(EngineEvent::SessionClosed {
                    sensor_id: t.sensor_id,
                    frames_emitted: s.frames_emitted,
                });
            }
            None => self.reject(carried.as_ref(), t.sensor_id, RejectCode::UnknownSensor),
        }
    }

    fn process_batch(&mut self, b: PooledBatch, carried: Option<ConnSink>) {
        let shape = b.shape;
        let Some(session) = self.sessions.get_mut(&shape.sensor_id) else {
            // No session to consult for a sink, but the connection that
            // carried the batch can still be told. (Dropping `b` here
            // returns its buffer to the pool.)
            self.reject(carried.as_ref(), shape.sensor_id, RejectCode::UnknownSensor);
            return;
        };
        let n_rx = session.pipeline.num_rx();
        let shape_ok = shape.n_rx as usize == n_rx
            && shape.samples_per_sweep == session.samples_per_sweep
            && b.samples.len() == shape.sample_count();
        if !shape_ok {
            let sink = session.sink.clone();
            self.reject(sink.as_ref(), shape.sensor_id, RejectCode::BadConfig);
            return;
        }
        // Sequence accounting: replays/reordering are dropped (processing
        // an old batch would corrupt the pipeline's stream state), forward
        // gaps are counted but processed — the stream must go on.
        if shape.seq < session.next_in_seq {
            self.metrics.seq_out_of_order.inc();
            let sink = session.sink.clone();
            self.reject(sink.as_ref(), shape.sensor_id, RejectCode::StaleSequence);
            return;
        }
        if shape.seq > session.next_in_seq {
            let gap = shape.seq - session.next_in_seq;
            self.metrics.seq_gaps.add(gap);
            self.recorder
                .record(AnomalyKind::SeqGap, shape.sensor_id as u64, gap, shape.seq);
        }
        session.next_in_seq = shape.seq + 1;

        // The hot loop: feed each sweep interval to the pipeline straight
        // off the pooled flat buffer (antennas are contiguous within an
        // interval, so no per-sweep slice table), collecting reports into
        // the shard's reused scratch. Quantized batches stay i16 — the
        // pipeline keeps the profile front half in fixed point and
        // dequantizes late.
        let interval = shape.samples_per_interval();
        let mut updates = std::mem::take(&mut self.updates_scratch);
        updates.clear();
        for s in 0..shape.n_sweeps as usize {
            let range = s * interval..(s + 1) * interval;
            let sweeps = match &b.samples {
                BatchSamples::F64(buf) => Sweep::F64(&buf[range]),
                BatchSamples::I16(buf, scale) => Sweep::Q(&buf[range], *scale),
            };
            if let Some(report) = session.pipeline.process_sweeps(sweeps) {
                updates.push(report);
            }
        }
        drop(b); // samples are consumed: recycle the buffer now
        self.metrics.sweeps_processed.add(shape.n_sweeps as u64);
        if !updates.is_empty() {
            self.metrics.frames_emitted.add(updates.len() as u64);
            session.frames.add(updates.len() as u64);
            session.frames_emitted += updates.len() as u64;
            let seq = session.out_seq;
            session.out_seq += 1;
            // One sink clone per batch (not per event): the clone is just
            // a channel-handle refcount bump, and it ends the session
            // borrow so delivery can run against &self.
            let sink = session.sink.clone();
            self.deliver_updates(sink.as_ref(), shape.sensor_id, seq, &updates);
            if let Some(hub) = &self.hub {
                // Forward a copy for cross-sensor fusion — only for
                // sensors some room actually fuses; cloning reports the
                // hub would immediately drop wastes the hot path.
                if hub.wants(shape.sensor_id) {
                    hub.send(HubMsg::Reports(shape.sensor_id, updates.clone()));
                }
            }
        }
        updates.clear();
        self.updates_scratch = updates;
    }
}
