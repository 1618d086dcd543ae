//! CI coverage for the scalar fallback: pins the scalar kernel path for
//! this whole process (own test binary on purpose — the pin is
//! process-wide and must win before any transform work), then proves the
//! pipeline math still holds without SIMD. A host without AVX2/FMA runs
//! every other suite on this path anyway; this test makes that coverage
//! unconditional on vector-capable CI machines too.

use witrack_dsp::{simd, Complex, Fft, RealBand};

fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in data.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * ((k * j) % n) as f64 / n as f64;
                acc += x * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

#[test]
fn forced_scalar_path_runs_the_whole_transform_stack() {
    assert!(
        simd::force_scalar(),
        "the pin must win: no kernel may run before this test forces scalar"
    );
    assert_eq!(simd::active(), simd::KernelPath::Scalar);
    assert_eq!(simd::active().lanes(), 1);

    // Radix-2, mixed-radix (radix 2/3/4/5 Stockham passes, vector tails
    // included) and Bluestein (the noperm DIF/DIT convolution ladders)
    // plans, forward and inverse.
    for n in [16usize, 250, 360, 1250, 98] {
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let mut fast = data.clone();
        let mut plan = Fft::new(n);
        plan.forward(&mut fast);
        let naive = dft_naive(&data);
        for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
            assert!(
                (*a - *b).abs() <= 1e-9 * n as f64,
                "n={n} bin {i}: {a} vs {b}"
            );
        }
        plan.inverse(&mut fast);
        for (i, (a, b)) in fast.iter().zip(&data).enumerate() {
            assert!(
                (*a - *b).abs() <= 1e-12 * n as f64,
                "n={n} sample {i}: {a} vs {b}"
            );
        }
    }

    // The range profiler's band transform at the paper shape, float and
    // quantized inputs, on the scalar path.
    let n = 2500;
    let bins = 171;
    let band = RealBand::new(n, bins);
    let mut scratch = band.make_scratch();
    let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut out = vec![Complex::ZERO; bins];
    band.forward_into(&signal, &mut out, &mut scratch);

    let scale = 1.0 / 4096.0;
    let q: Vec<i32> = signal.iter().map(|&s| (s / scale).round() as i32).collect();
    let mut out_q = vec![Complex::ZERO; bins];
    band.forward_q_into(&q, scale, &mut out_q, &mut scratch);

    let full: Vec<Complex> = dft_naive(
        &signal
            .iter()
            .map(|&s| Complex::new(s, 0.0))
            .collect::<Vec<_>>(),
    );
    for (k, b) in out.iter().enumerate() {
        assert!(
            (*b - full[k]).abs() <= 1e-9 * n as f64,
            "float band bin {k}: {b} vs {}",
            full[k]
        );
        // The quantized path carries the input rounding error (≤ scale/2
        // per sample, n samples), not kernel error.
        assert!(
            (out_q[k] - full[k]).abs() <= 0.5 * scale * n as f64,
            "quantized band bin {k}: {} vs {}",
            out_q[k],
            full[k]
        );
    }
}
