//! DSP substrate microbenchmarks: the per-sweep FFT dominates the §7
//! real-time budget, so its cost at the paper's exact 2500-sample length
//! (mixed radix, 2²·5⁴), at a prime length next to it (the Bluestein
//! fallback) and at the nearest powers of two (radix-2) are all tracked.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use witrack_dsp::kalman::{Kalman1D, KalmanConfig};
use witrack_dsp::{Complex, Fft, RealBand};

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [2048usize, 2500, 2503, 4096] {
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
            .collect();
        let mut plan = Fft::new(n);
        let mut buf = data.clone();
        group.bench_function(format!("forward_{n}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&data);
                plan.forward(black_box(&mut buf));
            })
        });
    }
    group.finish();
}

fn bench_real_band(c: &mut Criterion) {
    // The range profiler's transform at the paper shape: 2500 real samples
    // in, one 1250-point complex FFT, `keep` range bins out.
    let mut group = c.benchmark_group("real_band");
    let n = 2500;
    let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    for keep in [100usize, 171, 400] {
        let band = RealBand::new(n, keep);
        let mut scratch = band.make_scratch();
        let mut out = vec![Complex::ZERO; keep];
        group.bench_function(format!("band_{n}_keep{keep}"), |b| {
            b.iter(|| band.forward_into(black_box(&signal), &mut out, &mut scratch))
        });
    }
    group.finish();
}

fn bench_kalman(c: &mut Criterion) {
    c.bench_function("kalman_update", |b| {
        let mut kf = Kalman1D::new(KalmanConfig::default());
        kf.update(5.0, 0.0125);
        let mut z = 5.0;
        b.iter(|| {
            z += 0.001;
            black_box(kf.update(black_box(z), 0.0125))
        })
    });
}

fn bench_regression(c: &mut Criterion) {
    let ts: Vec<f64> = (0..64).map(|i| i as f64 * 0.0125).collect();
    let ys: Vec<f64> = ts
        .iter()
        .map(|&t| 4.0 + 2.0 * t + (t * 50.0).sin() * 0.01)
        .collect();
    c.bench_function("robust_line_64pts", |b| {
        b.iter(|| witrack_dsp::regression::robust_line(black_box(&ts), black_box(&ys)))
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_real_band,
    bench_kalman,
    bench_regression
);
criterion_main!(benches);
