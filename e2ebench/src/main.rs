//! e2ebench — open-loop end-to-end serving benchmark.
//!
//! Drives a real `witrack_serve::Server` (default engine configuration)
//! over the in-process wire transport with sensors paced on the paper's
//! 12.5 ms frame schedule, and reports what a deployment sees: exact
//! due-to-answer latency percentiles, set-up time, CPU per frame,
//! tracking error, and world-fusion latency and error. `--trace 1` adds
//! the largest sensor count that holds the paper's 75 ms limit and a
//! span-traced replay of the same inputs through each layer's public
//! calls, and reports per-layer costs instead. See `README.md`.
//!
//! ```text
//! e2ebench --workload steady_single|room_fused --seed N --seconds S
//!          --trace 0|1 [--quick] [--spans-out PATH]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! nonzero when any correctness check fails.

mod inputs;
mod stage;
mod stats;
mod trace;

use inputs::InputSpec;
use stage::{median_cm, ramp, run_stage, RampSpec, StagePlan, StageResult, Unit};
use stats::{median, Host};
use std::path::PathBuf;
use witrack_core::WiTrackConfig;

/// Median 3D error bands (cm) a correct run lands in: standalone
/// single-target reports, and multi-target room sensor reports.
const TRACK_ERR_BAND_CM: (f64, f64) = (1.0, 60.0);
const ROOM_TRACK_ERR_BAND_CM: (f64, f64) = (1.0, 90.0);
/// Median fused-track 3D error band (cm).
const WORLD_ERR_BAND_CM: (f64, f64) = (1.0, 100.0);
/// Least share of covered walker-epochs that must carry a world track.
const MIN_WORLD_TRACKED: f64 = 0.7;
/// How far the traced blocking-path self times may exceed the untraced
/// p50 latency (share of the p50) before the trace fails to reconcile.
const RECONCILE_TOLERANCE: f64 = 0.25;
/// Set-up repetitions behind the reported `setup_s` median.
const SETUP_REPEATS: usize = 21;
/// Server instances the measured stage is split over, one after another.
/// Interference from other tenants of a shared host comes in bursts that
/// slow every instance inside them and only ever adds time. So latency
/// and CPU are measured on several fresh servers in turn and the lower
/// quartile of the instances is reported: the figure the system delivers
/// when the host leaves it alone.
const INSTANCES: usize = 8;
/// Loop-position stride between instances, so each replays other frames.
const INSTANCE_STRIDE: u64 = 61;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SteadySingle,
    RoomFused,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "steady_single" => Some(Workload::SteadySingle),
            "room_fused" => Some(Workload::RoomFused),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SteadySingle => "steady_single",
            Workload::RoomFused => "room_fused",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--quick" => quick = true,
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace,
        quick,
        spans_out,
    })
}

struct Spec {
    inputs: InputSpec,
    base: StagePlan,
    ramp: RampSpec,
}

fn spec(w: Workload, seconds: f64, quick: bool) -> Spec {
    let warmup_s = if quick { 0.1 } else { 0.5 };
    let (rung_s, max_rungs) = if quick { (0.5, 2) } else { (2.0, 8) };
    // Each instance of the measured stage runs `seconds / INSTANCES`.
    let seconds = seconds / if quick { 1.0 } else { INSTANCES as f64 };
    match w {
        // Light load (under a fifth of capacity): per-frame service time
        // with little queueing; then a ramp to the limit that loads the
        // shard queues, backpressure and thread scheduling.
        Workload::SteadySingle => Spec {
            inputs: InputSpec {
                singles: if quick { 2 } else { 8 },
                rooms: if quick { 1 } else { 6 },
                loop_s: if quick { 1.5 } else { 2.0 },
                room_loop_s: if quick { 1.5 } else { 2.5 },
            },
            base: StagePlan {
                singles: if quick { 4 } else { 8 },
                rooms: if quick { 1 } else { 6 },
                programs: 0,
                churn_hz: 0.0,
                seconds,
                start: 0,
                warmup_s,
            },
            ramp: RampSpec {
                unit: Unit::Singles,
                start: if quick { 6 } else { 40 },
                growth: 1.3,
                resolution: if quick { 1 } else { 3 },
                max_rungs,
                rung_s,
            },
        },
        // Fused rooms with hundreds of selective programs and churn.
        Workload::RoomFused => Spec {
            inputs: InputSpec {
                singles: 0,
                rooms: if quick { 1 } else { 6 },
                loop_s: 0.0,
                room_loop_s: if quick { 1.5 } else { 2.5 },
            },
            base: StagePlan {
                singles: 0,
                rooms: if quick { 1 } else { 6 },
                programs: if quick { 40 } else { 600 },
                churn_hz: if quick { 8.0 } else { 4.0 },
                seconds,
                start: 0,
                warmup_s,
            },
            ramp: RampSpec {
                unit: Unit::Rooms,
                start: if quick { 2 } else { 12 },
                growth: 1.3,
                resolution: if quick { 1 } else { 2 },
                max_rungs,
                rung_s,
            },
        },
    }
}

/// A metric value and unit, in output order.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Collects correctness verdicts.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_result(checks: &Checks, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        attempted.max(1),
        failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// The measured stage: the same plan on several fresh servers.
struct Measured {
    instances: Vec<StageResult>,
}

impl Measured {
    /// Median over instances of a per-instance value.
    fn median_of(&mut self, f: impl FnMut(&mut StageResult) -> f64) -> f64 {
        let mut v: Vec<f64> = self.instances.iter_mut().map(f).collect();
        median(&mut v)
    }

    /// Lower quartile (nearest rank) over instances of a per-instance
    /// value: the quiet instances' figure.
    fn quiet_of(&mut self, f: impl FnMut(&mut StageResult) -> f64) -> f64 {
        let mut v: Vec<f64> = self.instances.iter_mut().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[(v.len() as f64 * 0.25).ceil().max(1.0) as usize - 1]
    }

    fn sum(&self, f: impl Fn(&StageResult) -> u64) -> u64 {
        self.instances.iter().map(f).sum()
    }

    fn pooled(&self, f: impl Fn(&StageResult) -> &Vec<f64>) -> Vec<f64> {
        self.instances
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    }

    fn plan(&self) -> StagePlan {
        self.instances[0].plan
    }
}

/// Runs one workload; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    let base = inputs::base_config();
    // One CPU: on a shared virtual machine, every wake-up of a thread on
    // another (idle) virtual CPU waits for the hypervisor to schedule that
    // CPU, which measured as twice the CPU per frame and latencies that
    // varied many times over between runs. On one CPU the figures are the
    // program's own work and scheduling. Threads started later inherit
    // the mask, so `EngineConfig::default()` sizes itself to this CPU.
    let machine_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pinned = stats::pin_to_one_cpu();
    let host = Host::detect(machine_cpus, pinned);
    // Connections follow the machine, not the pinned CPU: a 2-CPU
    // deployment's clients would open two.
    let n_conn = host.machine_cpus.clamp(1, 2);
    let spec = spec(args.workload, args.seconds, args.quick);
    println!(
        "# host: machine_cpus={} pinned_cpu={} nproc={} affinity_cpus={} cpu=\"{}\" \
         kernel_path={} rustc=\"{}\"",
        host.machine_cpus,
        host.pinned_cpu
            .map_or_else(|| "none".to_string(), |c| c.to_string()),
        host.nproc,
        host.affinity_cpus,
        host.cpu_model,
        host.kernel_path,
        host.rustc
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={} quick={} connections={} \
         engine=EngineConfig::default() wire=i16 frame_period_ms={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        n_conn,
        base.sweep.frame_duration_s() * 1e3
    );
    let inputs = inputs::synthesize(&base, spec.inputs, args.seed);
    println!(
        "# inputs: {} single recordings of {:.2} s, {} room recordings of {:.2} s, synthesized \
         in {:.2} s",
        inputs.singles.len(),
        spec.inputs.loop_s,
        inputs.rooms.len(),
        spec.inputs.room_loop_s,
        inputs.gen_s
    );

    let mut checks = Checks::default();
    let n_instances = if args.quick { 1 } else { INSTANCES };
    let mut instances: Vec<StageResult> = Vec::with_capacity(n_instances);
    for i in 0..n_instances {
        let plan = StagePlan {
            start: i as u64 * INSTANCE_STRIDE,
            ..spec.base
        };
        instances.push(run_stage(&base, &inputs, plan, n_conn, args.seed)?);
    }
    let mut main = Measured { instances };
    // Set-up is repeated; every measured instance's set-up is one sample.
    let mut setups: Vec<f64> = main.instances.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUP_REPEATS {
        let probe = StagePlan {
            seconds: 0.0,
            ..spec.base
        };
        setups.push(run_stage(&base, &inputs, probe, n_conn, args.seed)?.setup_s);
    }
    let setup_s = median(&mut setups);
    check_measured(&mut checks, &mut main, args.quick);
    report_measured(&mut main);

    let attempted = main.sum(|r| r.frames_sent + r.world_expected);
    let failed = main.sum(|r| {
        r.frames_lost + r.frames_duplicated + r.rejects + r.world_missing + r.events_unexpected
    });
    let metrics = if args.trace {
        // The capacity ramp saturates the host on purpose, so it runs
        // only in the traced run, last: what it finds depends on how
        // much CPU the host grants, which on a shared host varies by
        // several times from run to run.
        let capacity = || {
            println!("# capacity ramp (75 ms p99 limit, zero loss, no growing backlog):");
            ramp(&base, &inputs, n_conn, args.seed, spec.base, &spec.ramp)
        };
        per_layer(
            args,
            &base,
            &inputs,
            &spec,
            &mut main,
            &mut checks,
            capacity,
        )?
    } else {
        end_to_end(&mut main, setup_s)
    };
    for f in &checks.failures {
        println!("# CHECK FAILED: {f}");
    }
    print_result(&checks, attempted, failed, &metrics);
    Ok(checks.failures.is_empty())
}

fn check_measured(checks: &mut Checks, main: &mut Measured, quick: bool) {
    let plan = main.plan();
    let sent = main.sum(|r| r.frames_sent);
    let lost = main.sum(|r| r.frames_lost);
    checks.check(lost == 0, || {
        format!("{lost} of {sent} frames never answered")
    });
    let dup = main.sum(|r| r.frames_duplicated);
    checks.check(dup == 0, || {
        format!("{dup} answers duplicated or for unknown frames")
    });
    let rejects = main.sum(|r| r.rejects.max(r.metrics.batches_rejected));
    checks.check(rejects == 0, || format!("{rejects} rejects"));
    let missing = main.sum(|r| r.world_missing);
    let expected = main.sum(|r| r.world_expected);
    checks.check(missing == 0, || {
        format!("{missing} of {expected} expected world updates/events missing")
    });
    let unexpected = main.sum(|r| r.events_unexpected);
    checks.check(unexpected == 0, || {
        format!("{unexpected} events delivered that the reference evaluation does not give")
    });
    let track = median_cm(&main.pooled(|r| &r.track_err_m));
    let band = if plan.singles > 0 {
        TRACK_ERR_BAND_CM
    } else {
        ROOM_TRACK_ERR_BAND_CM
    };
    checks.check(track >= band.0 && track <= band.1, || {
        format!("track_err_p50_cm {track:.1} outside {band:?}")
    });
    if plan.rooms > 0 {
        let world = median_cm(&main.pooled(|r| &r.world_err_m));
        checks.check(
            world >= WORLD_ERR_BAND_CM.0 && world <= WORLD_ERR_BAND_CM.1,
            || format!("world_err_p50_cm {world:.1} outside {WORLD_ERR_BAND_CM:?}"),
        );
        let tracked = main.median_of(|r| r.world_tracked);
        checks.check(tracked >= MIN_WORLD_TRACKED, || {
            format!(
                "only {:.0}% of covered walker-epochs tracked",
                tracked * 100.0
            )
        });
    }
    if !quick {
        let n = main.median_of(|r| r.update.count() as f64);
        checks.check(n >= 1000.0, || {
            format!("only {n} latency samples per instance: p99 unresolved")
        });
    }
}

fn report_measured(main: &mut Measured) {
    let plan = main.plan();
    println!(
        "# measured stage: {} instances x {:.1} s; {} standalone + {} room sensors, {} programs, \
         churn {} Hz",
        main.instances.len(),
        plan.seconds,
        plan.singles,
        2 * plan.rooms,
        plan.programs,
        plan.churn_hz
    );
    for (i, r) in main.instances.iter_mut().enumerate() {
        let hi = r.update.highest_resolved().unwrap_or(0.5);
        println!(
            "#   instance {i}: set-up {:.3} s; update n={} p50 {:.3} p90 {:.3} p99 {:.3} p{} \
             {:.3} ms (highest percentile with >=10 samples beyond it); world n={} p50 {:.3} \
             p90 {:.3} p99 {:.3} ms; cpu {:.1} us/frame; pacing late p99 \
             {:.3} ms",
            r.setup_s,
            r.update.count(),
            r.update.quantile_ms(0.5),
            r.update.quantile_ms(0.9),
            r.update.quantile_ms(0.99),
            hi * 100.0,
            r.update.quantile_ms(hi),
            r.world.count(),
            r.world.quantile_ms(0.5),
            r.world.quantile_ms(0.9),
            r.world.quantile_ms(0.99),
            cpu_us_per_frame(r),
            r.late.quantile_ms(0.99)
        );
        for p in &r.problems {
            println!("#   instance {i} problem: {p}");
        }
    }
    let track = main.pooled(|r| &r.track_err_m);
    let world = main.pooled(|r| &r.world_err_m);
    println!(
        "#   engine: frames_emitted {} batches_dropped {} updates_dropped {} seq_gaps {}; \
         {} program matches expected; errors: track p50 {:.1} cm (n={}), world p50 {:.1} cm \
         (n={}, {:.0}% tracked)",
        main.sum(|r| r.metrics.frames_emitted),
        main.sum(|r| r.metrics.batches_dropped),
        main.sum(|r| r.metrics.updates_dropped),
        main.sum(|r| r.metrics.seq_gaps),
        main.sum(|r| r.events_expected),
        median_cm(&track),
        track.len(),
        median_cm(&world),
        world.len(),
        main.median_of(|r| r.world_tracked) * 100.0
    );
}

/// Process CPU (user + system) per frame processed (µs): the set-up
/// frame of every session plus every paced frame.
fn cpu_us_per_frame(r: &StageResult) -> f64 {
    let frames = (r.frames_sent + r.plan.sensors() as u64) as f64;
    r.cpu_s * 1e6 / frames
}

fn end_to_end(main: &mut Measured, setup_s: f64) -> Vec<Metric> {
    vec![
        m("setup_s", setup_s, "s"),
        m(
            "update_p50_ms",
            main.quiet_of(|r| r.update.quantile_ms(0.5)),
            "ms",
        ),
        m(
            "cpu_us_per_frame",
            main.quiet_of(|r| cpu_us_per_frame(r)),
            "us",
        ),
        m(
            "track_err_p50_cm",
            median_cm(&main.pooled(|r| &r.track_err_m)),
            "cm",
        ),
        m(
            "world_p50_ms",
            main.quiet_of(|r| r.world.quantile_ms(0.5)),
            "ms",
        ),
        m(
            "world_err_p50_cm",
            median_cm(&main.pooled(|r| &r.world_err_m)),
            "cm",
        ),
    ]
}

fn shards() -> usize {
    witrack_serve::EngineConfig::default().num_shards
}

/// The frame call on the headline sensors' blocking path.
fn frame_span(inputs: &inputs::Inputs) -> &'static str {
    if inputs.singles.is_empty() {
        "mtt.frame"
    } else {
        "core.frame"
    }
}

/// Sensors the default shard count could serve at 80 fps if every frame
/// cost exactly `frame_ns`.
fn predicted_capacity(base: &WiTrackConfig, frame_ns: f64) -> f64 {
    shards() as f64 * base.sweep.frame_duration_s() * 1e9 / frame_ns.max(1.0)
}

fn per_layer(
    args: &Args,
    base: &WiTrackConfig,
    inputs: &inputs::Inputs,
    spec: &Spec,
    main: &mut Measured,
    checks: &mut Checks,
    capacity: impl FnOnce() -> Result<usize, String>,
) -> Result<Vec<Metric>, String> {
    let (frames, epochs) = if args.quick { (40, 40) } else { (480, 240) };
    let programs: Vec<(u32, witrack_serve::CompiledProgram)> =
        stage::make_programs(&spec.base, 1, args.seed)
            .into_iter()
            .map(|p| (p.room, p.compiled))
            .collect();
    // The replays follow the measured stage directly, so that the
    // reconciliation compares figures the host produced at the same speed.
    let untraced = trace::replay(base, inputs, &programs, frames, epochs, false);
    let traced = trace::replay(base, inputs, &programs, frames, epochs, true);
    let capacity = capacity()?;
    let path = args.spans_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_build/e2ebench/spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ))
    });
    traced
        .tracer
        .write_to(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    let t = &traced.tracer;
    let med = trace::medians(t);
    let get = |n: &str| med.get(n).copied().unwrap_or(0.0);
    let c = traced.counts;
    let profile = get("fmcw.profile");
    let detect = get("fmcw.detect");
    let headline_frame = get(frame_span(inputs));
    let blocking = get("wire.decode") + headline_frame + get("wire.encode_update");
    // Medians over instances, like the replay's per-call medians.
    let p50_ns = main.median_of(|r| r.update.quantile_ms(0.5)) * 1e6;
    let queue_wait_ns = main.median_of(|r| r.queue_wait_mean_ns);
    let service_ns = main.median_of(|r| r.service_mean_ns);
    let wait = p50_ns - blocking;
    let overhead_pct =
        (traced.wall_ns as f64 - untraced.wall_ns as f64) / untraced.wall_ns.max(1) as f64 * 100.0;
    let evals = t.total_ns("program.eval") as f64;
    let predicted = predicted_capacity(base, headline_frame);
    println!(
        "# traced replay: {} frames ({} single, {} room), {} spans written to {}",
        c.frames,
        c.single_frames,
        c.room_frames,
        t.spans.len(),
        path.display()
    );
    println!(
        "# reconcile: median-instance update p50 {:.3} ms = blocking-path self times {:.3} ms (wire.decode {:.1} us \
         + {} {:.1} us + wire.encode_update {:.1} us) + engine.wait {:.3} ms [shard queue wait \
         mean {:.3} ms, shard service mean {:.3} ms]; tolerance: self times may exceed the p50 \
         by at most {:.0}%",
        p50_ns / 1e6,
        blocking / 1e6,
        get("wire.decode") / 1e3,
        frame_span(inputs),
        headline_frame / 1e3,
        get("wire.encode_update") / 1e3,
        wait / 1e6,
        queue_wait_ns / 1e6,
        service_ns / 1e6,
        RECONCILE_TOLERANCE * 100.0
    );
    println!(
        "# tracing overhead: traced replay {:.1} ms vs untraced {:.1} ms ({:+.2}%)",
        traced.wall_ns as f64 / 1e6,
        untraced.wall_ns as f64 / 1e6,
        overhead_pct
    );
    println!(
        "# capacity: measured {capacity} sensors; predicted {predicted:.0} ({} {:.1} us x {} \
         shards)",
        frame_span(inputs),
        headline_frame / 1e3,
        shards()
    );
    checks.check(capacity > 0, || {
        "no ramp rung sustained the 75 ms limit".to_string()
    });
    checks.check(blocking <= p50_ns * (1.0 + RECONCILE_TOLERANCE), || {
        format!(
            "trace does not reconcile: blocking-path self times {:.3} ms exceed the \
             median-instance update p50 {:.3} ms by more than {:.0}%",
            blocking / 1e6,
            p50_ns / 1e6,
            RECONCILE_TOLERANCE * 100.0
        )
    });
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut spreads = main.pooled(|r| &r.watermark_spread_ms);
    let (evaluated, matched) = (
        main.sum(|r| r.metrics.events_evaluated),
        main.sum(|r| r.metrics.events_matched),
    );
    let ns = |x: Option<u64>| x.unwrap_or(0) as f64;
    Ok(vec![
        m("wire.decode_ns", get("wire.decode"), "ns"),
        m("wire.encode_update_ns", get("wire.encode_update"), "ns"),
        m("wire.encode_world_ns", get("wire.encode_world"), "ns"),
        m(
            "wire.bytes_in_per_frame",
            c.bytes_in as f64 / c.frames.max(1) as f64,
            "bytes",
        ),
        m(
            "wire.bytes_out_per_frame",
            c.bytes_out as f64 / c.frames.max(1) as f64,
            "bytes",
        ),
        m(
            "transport.send_block_p50_ns",
            main.median_of(|r| ns(r.send_block.quantile(0.5))),
            "ns",
        ),
        m(
            "transport.send_block_p99_ns",
            main.median_of(|r| ns(r.send_block.quantile(0.99))),
            "ns",
        ),
        m("fmcw.profile_ns", profile, "ns"),
        m("fmcw.detect_ns", detect, "ns"),
        m("core.frame_ns", get("core.frame"), "ns"),
        m("core.solve_ns", get("core.solve"), "ns"),
        m(
            "core.fanout_ns",
            if c.single_frames > 0 {
                get("core.frame") - 3.0 * (profile + detect) - get("core.solve")
            } else {
                0.0
            },
            "ns",
        ),
        m("core.capacity_pred_sensors", predicted, "count"),
        m("engine.capacity_sensors", capacity as f64, "count"),
        m("mtt.frame_ns", get("mtt.frame"), "ns"),
        m(
            "mtt.associate_ns",
            if c.room_frames > 0 {
                get("mtt.frame") - 3.0 * (profile + detect)
            } else {
                0.0
            },
            "ns",
        ),
        m("fuse.push_report_ns", get("fuse.push_report"), "ns"),
        m(
            "fuse.epochs",
            main.sum(|r| r.metrics.world_frames) as f64,
            "count",
        ),
        m(
            "fuse.watermark_spread_ms",
            if spreads.is_empty() {
                0.0
            } else {
                median(&mut spreads)
            },
            "ms",
        ),
        m(
            "program.eval_ns",
            if c.evaluated > 0 {
                evals / c.evaluated as f64
            } else {
                0.0
            },
            "ns",
        ),
        m("program.evaluated", evaluated as f64, "count"),
        m("program.matched", matched as f64, "count"),
        m("program.match_ratio", ratio(matched, evaluated), "ratio"),
        m(
            "hub.offered_bytes",
            main.sum(|r| r.metrics.world_bytes) as f64,
            "bytes",
        ),
        m(
            "engine.update_p90_ms",
            main.quiet_of(|r| r.update.quantile_ms(0.9)),
            "ms",
        ),
        m(
            "engine.update_p99_ms",
            main.quiet_of(|r| r.update.quantile_ms(0.99)),
            "ms",
        ),
        m(
            "hub.world_p90_ms",
            main.quiet_of(|r| r.world.quantile_ms(0.9)),
            "ms",
        ),
        m(
            "hub.world_p99_ms",
            main.quiet_of(|r| r.world.quantile_ms(0.99)),
            "ms",
        ),
        m(
            "hub.subscribe_ns",
            main.median_of(|r| ns(r.subscribe.quantile(0.5))),
            "ns",
        ),
        m("engine.wait_ns", wait, "ns"),
        m("engine.blocking_sum_ns", blocking, "ns"),
        m("engine.queue_wait_mean_ns", queue_wait_ns, "ns"),
        m(
            "engine.frames_emitted",
            main.sum(|r| r.metrics.frames_emitted) as f64,
            "count",
        ),
        m(
            "engine.batches_dropped",
            main.sum(|r| r.metrics.batches_dropped) as f64,
            "count",
        ),
        m(
            "engine.updates_dropped",
            main.sum(|r| r.metrics.updates_dropped) as f64,
            "count",
        ),
        m(
            "engine.seq_gaps",
            main.sum(|r| r.metrics.seq_gaps) as f64,
            "count",
        ),
        m(
            "engine.max_inflight",
            main.instances
                .iter()
                .map(|r| r.metrics.max_inflight)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m(
            "engine.update_lost_ratio",
            ratio(main.sum(|r| r.frames_lost), main.sum(|r| r.frames_sent)),
            "ratio",
        ),
        m(
            "hub.world_lost_ratio",
            ratio(
                main.sum(|r| r.world_missing),
                main.sum(|r| r.world_expected),
            ),
            "ratio",
        ),
        m(
            "loadgen.late_p99_ms",
            main.median_of(|r| r.late.quantile_ms(0.99)),
            "ms",
        ),
        m("sim.gen_s", inputs.gen_s, "s"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ])
}
