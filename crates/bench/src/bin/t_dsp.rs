//! t_dsp — DSP hot-path kernel microbenchmarks, with a machine-readable
//! `BENCH_dsp.json` artifact.
//!
//! The profile stage (window → pack → band transform) is the per-frame
//! cost that bounds sensors-per-core, so this harness times its kernels at
//! the paper shape (2500 samples/sweep, 5 sweeps/frame, 3 receive
//! antennas) two ways:
//!
//! * the **dispatched** path (AVX2+FMA where the host has it, selected
//!   once per process by `witrack_dsp::simd::active()`);
//! * the **scalar** reference kernels (`witrack_dsp::simd::scalar`),
//!   called directly — same process, so the artifact always carries the
//!   scalar-vs-vector ratio regardless of host.
//!
//! The kernel rows cover the window multiply, the fixed-point (i16 × Q15 →
//! i32) window-accumulate, one radix-5 Stockham pass of the 1250-point
//! transform, and the whole `band_transform` (dequantizing pack, five
//! passes, unpack of the kept bins). The kernel path is fixed per
//! process, so the scalar `band_transform` row is timed by a child
//! `t_dsp` process started with `WITRACK_DSP_FORCE_SCALAR=1`.
//!
//! On top of the kernel rows, two end-to-end rows run a full frame —
//! 3 antennas × 5 sweeps — through [`RangeProfiler`], once from f64
//! sweeps and once from wire-quantized i16 sweeps. Those are the
//! numbers the serving layer's sensors-per-core ceiling is made of. The
//! artifact carries a `host` fingerprint (CPU counts and model, kernel
//! path, compiler) so `ci/perf_gate.py` can say when a baseline came from
//! another machine.
//!
//! Flags: `--iters N` (kernel iterations, default 20000), `--frames N`
//! (profile-stage frames, default 2000), `--quick` (1/10 of both, for
//! CI smoke), `--out PATH` (default `BENCH_dsp.json`; `-` skips
//! writing), `--band-only` (print the `band_transform` ns/call and exit:
//! the child mode behind the scalar row).

use std::hint::black_box;
use std::time::Instant;
use witrack_bench::host::Host;
use witrack_bench::printing::banner;
use witrack_dsp::simd::{self, KernelPath};
use witrack_dsp::window::WindowKind;
use witrack_dsp::{Complex, RealBand};
use witrack_fmcw::{RangeProfiler, SweepConfig};

const MAX_ROUND_TRIP_M: f64 = 22.0;

struct Options {
    iters: u64,
    frames: u64,
    out: Option<String>,
    /// Child mode: print the `band_transform` ns/call and exit.
    band_only: bool,
}

fn parse_options() -> Options {
    let mut opts = Options {
        iters: 20_000,
        frames: 2_000,
        out: Some("BENCH_dsp.json".into()),
        band_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.iters = v;
                }
            }
            "--frames" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.frames = v;
                }
            }
            "--quick" => {
                opts.iters = (opts.iters / 10).max(1);
                opts.frames = (opts.frames / 10).max(1);
            }
            "--out" => {
                opts.out = it.next().filter(|s| s != "-");
            }
            "--band-only" => opts.band_only = true,
            _ => {}
        }
    }
    opts
}

fn path_name(p: KernelPath) -> &'static str {
    match p {
        KernelPath::Avx2Fma => "avx2_fma",
        KernelPath::Scalar => "scalar",
    }
}

struct Row {
    kernel: &'static str,
    path: &'static str,
    n: usize,
    iters: u64,
    ns_per_call: f64,
}

impl Row {
    fn calls_per_sec(&self) -> f64 {
        1e9 / self.ns_per_call.max(1e-3)
    }
}

/// Times `op` over `iters` calls (after `iters / 10 + 1` warmup calls)
/// and returns nanoseconds per call.
fn time_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 + 1 {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A deterministic quasi-random f64 in [-1, 1) — no RNG dependency in
/// the timed setup, and identical buffers on every run.
fn wobble(i: usize, seed: u64) -> f64 {
    let x = (i as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(seed);
    ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

fn complex_buf(n: usize, seed: u64) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new(wobble(i, seed), wobble(i, seed ^ 0x9e3779b9)))
        .collect()
}

/// The range profiler's band shape at the paper configuration.
fn paper_band(cfg: &SweepConfig) -> std::sync::Arc<RealBand> {
    RangeProfiler::new(cfg, WindowKind::Hann, MAX_ROUND_TRIP_M)
        .plan()
        .clone()
}

/// ns per `RealBand::forward_q_into` call on this process's kernel path:
/// dequantizing pack, the complex transform, and the unpack of the kept
/// bins, from a 5-sweep i32 accumulator like production's.
fn band_ns(band: &RealBand, iters: u64) -> f64 {
    let n = band.input_len();
    let accum: Vec<i32> = (0..n).map(|i| (wobble(i, 4) * 80_000.0) as i32).collect();
    let mut scratch = band.make_scratch();
    let mut out = vec![Complex::ZERO; band.output_len()];
    time_ns(iters, |_| {
        band.forward_q_into(black_box(&accum), 1.0 / 163_840.0, &mut out, &mut scratch);
    })
}

/// The scalar `band_transform` row, timed in a child process pinned to
/// the scalar path (the path is fixed per process). `None` when the child
/// cannot run.
fn scalar_band_ns(iters: u64) -> Option<f64> {
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .args(["--band-only", "--iters", &iters.to_string()])
        .env("WITRACK_DSP_FORCE_SCALAR", "1")
        .output()
        .ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// All kernel rows at the paper sweep length `n`: dispatched path and
/// the scalar reference, float and fixed-point.
fn kernel_rows(n: usize, band: &RealBand, iters: u64) -> Vec<Row> {
    let active = path_name(simd::active());

    let window = WindowKind::Hann.shared(n);
    let window_q15 = WindowKind::Hann.shared_q15(n);
    let src: Vec<f64> = (0..n).map(|i| wobble(i, 1)).collect();
    let src_q: Vec<i16> = src.iter().map(|&s| (s * 32767.0).round() as i16).collect();
    let mut dst = vec![0.0f64; n];
    let mut accum_q = vec![0i32; n];
    // The first radix-5 pass of the packed transform (n/2 = 1250 = 2·5⁴
    // at the paper shape): stride 2 after the radix-2 pass. Unit-magnitude
    // twiddles, and the pass reads `pass_src` afresh every call, so the
    // data never grows.
    let half = n / 2;
    let (p, s) = (5, 2);
    let m = half / (p * s);
    let pass_src = complex_buf(half, 5);
    let mut pass_dst = vec![Complex::ZERO; half];
    let pass_tw: Vec<Complex> = (1..p)
        .flat_map(|k| {
            (0..m).map(move |j| {
                Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / (half / s) as f64)
            })
        })
        .collect();

    let mut rows = Vec::new();
    let mut push = |kernel: &'static str, path: &'static str, n: usize, ns: f64| {
        rows.push(Row {
            kernel,
            path,
            n,
            iters,
            ns_per_call: ns,
        });
    };

    // Window multiply (f64): the first touch of every sweep.
    push(
        "window_scale",
        active,
        n,
        time_ns(iters, |_| {
            simd::window_scale(&mut dst, black_box(&src), &window, 0.2);
        }),
    );
    push(
        "window_scale",
        "scalar",
        n,
        time_ns(iters, |_| {
            simd::scalar::window_scale(&mut dst, black_box(&src), &window, 0.2);
        }),
    );

    // Fixed-point window-accumulate (i16 × Q15 → i32): the quantized
    // front half's replacement for window_scale + frame averaging.
    // Cleared at the frame cadence (5 sweeps), exactly like production.
    push(
        "window_accum_q",
        active,
        n,
        time_ns(iters, |i| {
            if i % 5 == 0 {
                accum_q.fill(0);
            }
            simd::window_accum_q(&mut accum_q, black_box(&src_q), &window_q15);
        }),
    );
    push(
        "window_accum_q",
        "scalar",
        n,
        time_ns(iters, |i| {
            if i % 5 == 0 {
                accum_q.fill(0);
            }
            simd::scalar::window_accum_q(&mut accum_q, black_box(&src_q), &window_q15);
        }),
    );

    // One radix-5 Stockham pass over the packed 1250-point buffer.
    push(
        "radix5_pass",
        active,
        half,
        time_ns(iters, |_| {
            simd::stockham_pass(black_box(&pass_src), &mut pass_dst, p, s, &pass_tw);
        }),
    );
    push(
        "radix5_pass",
        "scalar",
        half,
        time_ns(iters, |_| {
            simd::scalar::stockham_pass(black_box(&pass_src), &mut pass_dst, p, s, &pass_tw);
        }),
    );

    // The whole band transform of one antenna-frame.
    push("band_transform", active, n, band_ns(band, iters));
    if simd::active() == KernelPath::Scalar {
        push("band_transform", "scalar", n, band_ns(band, iters));
    } else if let Some(ns) = scalar_band_ns(iters) {
        push("band_transform", "scalar", n, ns);
    } else {
        eprintln!("warning: scalar band_transform child run failed; row omitted");
    }

    rows
}

/// End-to-end profile stage: 3 antennas × 5 sweeps through
/// [`RangeProfiler`]. Returns ns per frame (all three antennas).
fn profile_frame_ns(cfg: &SweepConfig, frames: u64, quantized: bool) -> f64 {
    const N_RX: usize = 3;
    let n = cfg.samples_per_sweep();
    let mut profilers: Vec<RangeProfiler> = (0..N_RX)
        .map(|_| RangeProfiler::new(cfg, WindowKind::Hann, MAX_ROUND_TRIP_M))
        .collect();
    // Distinct per-(antenna, sweep) signals, built once outside timing.
    let sweeps_f64: Vec<Vec<f64>> = (0..N_RX * cfg.sweeps_per_frame)
        .map(|k| (0..n).map(|i| wobble(i, 100 + k as u64)).collect())
        .collect();
    let sweeps_i16: Vec<Vec<i16>> = sweeps_f64
        .iter()
        .map(|s| s.iter().map(|&x| (x * 32767.0).round() as i16).collect())
        .collect();
    let scale = 1.0 / 32767.0;

    time_ns(frames, |_| {
        for (rx, prof) in profilers.iter_mut().enumerate() {
            let mut out_bins = 0;
            for s in 0..cfg.sweeps_per_frame {
                let k = rx * cfg.sweeps_per_frame + s;
                let profile = if quantized {
                    prof.push_sweep_q(&sweeps_i16[k], scale)
                } else {
                    prof.push_sweep(&sweeps_f64[k])
                };
                if let Some(p) = profile {
                    out_bins = p.len();
                }
            }
            assert!(black_box(out_bins) > 0, "frame must complete");
        }
    })
}

fn main() {
    let opts = parse_options();
    let cfg = SweepConfig::witrack();
    let n = cfg.samples_per_sweep();
    let band = paper_band(&cfg);
    if opts.band_only {
        println!("{:.1}", band_ns(&band, opts.iters));
        return;
    }
    banner(
        "t_dsp",
        "profile-stage kernel microbenchmarks (SIMD / scalar / fixed-point)",
        "§3.1 sweep → range profile at 2500 samples, 5 sweeps/frame, 3 rx antennas",
    );
    let host = Host::detect();
    let radices: Vec<String> = band.radices().iter().map(|r| r.to_string()).collect();
    println!(
        "dispatched kernel path: {} ({} f64 lanes); band transform: {} reals -> {} bins via one \
         {}-point complex FFT, passes {}",
        path_name(simd::active()),
        simd::active().lanes(),
        n,
        band.output_len(),
        n / 2,
        radices.join("·")
    );
    println!(
        "host: {} ({} cpus, {} in affinity mask), {}\n",
        host.cpu_model, host.nproc, host.affinity_cpus, host.rustc
    );

    let mut rows = kernel_rows(n, &band, opts.iters);

    let f64_ns = profile_frame_ns(&cfg, opts.frames, false);
    let i16_ns = profile_frame_ns(&cfg, opts.frames, true);
    rows.push(Row {
        kernel: "profile_frame_3rx",
        path: "f64",
        n,
        iters: opts.frames,
        ns_per_call: f64_ns,
    });
    rows.push(Row {
        kernel: "profile_frame_3rx",
        path: "i16",
        n,
        iters: opts.frames,
        ns_per_call: i16_ns,
    });

    println!(
        "{:>20} {:>10} {:>8} {:>12} {:>14}",
        "kernel", "path", "n", "ns/call", "calls/s"
    );
    for r in &rows {
        println!(
            "{:>20} {:>10} {:>8} {:>12.0} {:>14.0}",
            r.kernel,
            r.path,
            r.n,
            r.ns_per_call,
            r.calls_per_sec()
        );
    }
    println!(
        "\nprofile stage, full frame (3 rx × {} sweeps × {} samples):",
        cfg.sweeps_per_frame, n
    );
    println!(
        "  f64 front half: {:7.1} us/frame   i16 front half: {:7.1} us/frame",
        f64_ns / 1e3,
        i16_ns / 1e3
    );
    println!(
        "  real-time budget at 80 fps: 12500 us/frame -> {:.0} sensors/core (i16, profile stage only)",
        12_500.0 / (i16_ns / 1e3)
    );

    if let Some(path) = opts.out {
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"kernel\": \"{}\", \"path\": \"{}\", \"n\": {}, \"iters\": {}, \
                     \"ns_per_call\": {:.1}, \"calls_per_sec\": {:.1}}}",
                    r.kernel,
                    r.path,
                    r.n,
                    r.iters,
                    r.ns_per_call,
                    r.calls_per_sec()
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"t_dsp\",\n  \"active_path\": \"{}\",\n  \"host\": {},\n  \
             \"samples_per_sweep\": {},\n  \"sweeps_per_frame\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            path_name(simd::active()),
            host.to_json(),
            n,
            cfg.sweeps_per_frame,
            body.join(",\n")
        );
        std::fs::write(&path, json).expect("write artifact");
        println!("\nwrote {path}");
    }
}
