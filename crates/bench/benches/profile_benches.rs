//! The §4.1 profile stage in isolation, plain path vs production: windowing
//! one frame's averaged sweep, transforming it, and keeping the indoor
//! range band, for all three receive antennas at the paper configuration
//! (n = 2500 samples, 171 kept bins).
//!
//! * `full_fft_3ant` is the plain path: a full 2500-point complex FFT of
//!   the real sweep (mixed radix, 4·5⁴) followed by truncation.
//! * `real_band_3ant` is the production path: the sweep packed two reals
//!   to a complex point, one 1250-point FFT (2·5⁴), and only the kept
//!   bins unpacked.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use witrack_dsp::window::WindowKind;
use witrack_dsp::{Complex, Fft, RealBand};
use witrack_fmcw::{RangeProfiler, SweepConfig};

/// One synthetic dechirped sweep per antenna (distinct tones so the work
/// is not degenerate).
fn antenna_sweeps(n: usize) -> Vec<Vec<f64>> {
    (0..3)
        .map(|k| {
            (0..n)
                .map(|i| {
                    let t = i as f64;
                    (0.05 * (k + 3) as f64 * t).cos() + 0.2 * (0.011 * t).sin()
                })
                .collect()
        })
        .collect()
}

fn bench_profile_stage(c: &mut Criterion) {
    let cfg = SweepConfig::witrack();
    let n = cfg.samples_per_sweep();
    let keep = RangeProfiler::new(&cfg, WindowKind::Hann, 30.0).keep_bins();
    let window = WindowKind::Hann.generate(n);
    let sweeps = antenna_sweeps(n);

    let mut group = c.benchmark_group("profile_stage");

    // Plain path: window → full-length complex FFT → truncate.
    {
        let mut plan = Fft::new(n);
        let mut buf = vec![Complex::ZERO; n];
        let mut out = vec![Complex::ZERO; keep];
        group.bench_function(format!("full_fft_3ant_n{n}_keep{keep}"), |b| {
            b.iter(|| {
                for sweep in &sweeps {
                    for ((z, &x), &w) in buf.iter_mut().zip(sweep).zip(&window) {
                        *z = Complex::real(x * w);
                    }
                    plan.forward(&mut buf);
                    out.copy_from_slice(&buf[..keep]);
                    black_box(&out);
                }
            })
        });
    }

    // Production path: window → packed half-length FFT → kept band.
    {
        let band = RealBand::new(n, keep);
        let mut scratch = band.make_scratch();
        let mut windowed = vec![0.0; n];
        let mut out = vec![Complex::ZERO; keep];
        group.bench_function(format!("real_band_3ant_n{n}_keep{keep}"), |b| {
            b.iter(|| {
                for sweep in &sweeps {
                    for ((y, &x), &w) in windowed.iter_mut().zip(sweep).zip(&window) {
                        *y = x * w;
                    }
                    band.forward_into(&windowed, &mut out, &mut scratch);
                    black_box(&out);
                }
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_profile_stage);
criterion_main!(benches);
