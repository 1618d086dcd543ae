//! Property tests over the SIMD kernel dispatch layer: for random
//! lengths (odd sizes force every tail path), random data, and random
//! non-power-of-two block batches, the dispatched kernels must agree
//! with the scalar references — floats to 1e-9, fixed-point bit-exactly
//! plus the analytic half-step rounding bound of the Q15 multiply.

use proptest::prelude::*;
use witrack_dsp::simd::{self, scalar};
use witrack_dsp::Complex;

fn complexes(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Complex::new(re, im)),
        n..n + 1,
    )
}

fn reals(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, n..n + 1)
}

fn conj_flag() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

fn close(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((*x - *y).abs() <= 1e-9, "element {i}: {x} vs {y}");
    }
}

/// Unit-circle twiddles for a stage of half-length `h`.
fn twiddles(h: usize) -> Vec<Complex> {
    (0..h)
        .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / h as f64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pointwise_mul_matches_scalar(
        (extra, data, kernel, conj) in (0usize..3, complexes(97), complexes(97), conj_flag())
    ) {
        // Sub-slicing by a random amount yields odd lengths and tails.
        let n = 97 - 4 * extra - 1;
        let mut a = data[..n].to_vec();
        let mut r = a.clone();
        simd::pointwise_mul(&mut a, &kernel[..n], conj);
        scalar::pointwise_mul(&mut r, &kernel[..n], conj);
        close(&a, &r);

        let mut out_a = vec![Complex::ZERO; n];
        let mut out_r = vec![Complex::ZERO; n];
        simd::pointwise_mul_into(&mut out_a, &data[..n], &kernel[..n], conj);
        scalar::pointwise_mul_into(&mut out_r, &data[..n], &kernel[..n], conj);
        close(&out_a, &out_r);
    }

    #[test]
    fn stockham_passes_match_scalar(
        ((p, s, m), (data, tw, twiddled)) in (
            (2usize..6, 1usize..12, 1usize..9),
            (complexes(5 * 11 * 8), complexes(4 * 8), conj_flag()),
        )
    ) {
        // Random radix, stride and row count: odd strides and row counts
        // run the scalar tails inside the vector kernel.
        let n = p * s * m;
        let table = if twiddled { &tw[..(p - 1) * m] } else { &[][..] };
        let mut a = vec![Complex::ZERO; n];
        let mut r = vec![Complex::ZERO; n];
        simd::stockham_pass(&data[..n], &mut a, p, s, table);
        scalar::stockham_pass(&data[..n], &mut r, p, s, table);
        close(&a, &r);
    }

    #[test]
    fn unpack_band_matches_scalar(
        (h, keep_seed, z, w) in (1usize..40, 0usize..80, complexes(40), complexes(80))
    ) {
        let keep = 1 + keep_seed % (2 * h);
        let mut a = vec![Complex::ZERO; keep];
        let mut r = vec![Complex::ZERO; keep];
        simd::unpack_band(&mut a, &z[..h], &w[..keep]);
        scalar::unpack_band(&mut r, &z[..h], &w[..keep], 0);
        close(&a, &r);
    }

    #[test]
    fn window_scale_matches_scalar(
        (extra, src, win, scale) in (0usize..3, reals(101), reals(101), -2.0f64..2.0)
    ) {
        let n = 101 - 4 * extra - 2;
        let mut d_a = vec![0.0; n];
        let mut d_r = vec![0.0; n];
        simd::window_scale(&mut d_a, &src[..n], &win[..n], scale);
        scalar::window_scale(&mut d_r, &src[..n], &win[..n], scale);
        for (i, (x, y)) in d_a.iter().zip(&d_r).enumerate() {
            prop_assert!((x - y).abs() <= 1e-9, "element {}: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn stage_kernels_match_scalar_for_random_batches(
        (hp, blocks, data, conj) in (0u32..7, 1usize..6, complexes(64 * 2 * 5), conj_flag())
    ) {
        // half ∈ {1..64}, block count not a power of two in general.
        let half = 1usize << hp;
        let n = 2 * half * blocks;
        let tw = twiddles(half);

        let mut a = data[..n].to_vec();
        let mut r = a.clone();
        simd::fft_stage(&mut a, half, &tw, conj);
        scalar::fft_stage(&mut r, half, &tw, conj);
        close(&a, &r);

        let mut a = data[..n].to_vec();
        let mut r = a.clone();
        simd::fft_stage_dif(&mut a, half, &tw, conj);
        scalar::fft_stage_dif(&mut r, half, &tw, conj);
        close(&a, &r);
    }

    #[test]
    fn fused_stage_pairs_match_their_composition(
        (hp, blocks, data, conj) in (1u32..6, 1usize..6, complexes(32 * 4 * 5), conj_flag())
    ) {
        let h = 1usize << hp; // 2..32 — the fused kernels require h ≥ 2
        let n = 4 * h * blocks;
        let tw1 = twiddles(h);
        let tw2 = twiddles(2 * h);

        let mut a = data[..n].to_vec();
        let mut r = data[..n].to_vec();
        simd::fft_two_stages(&mut a, h, &tw1, &tw2, conj);
        scalar::fft_stage(&mut r, h, &tw1, conj);
        scalar::fft_stage(&mut r, 2 * h, &tw2, conj);
        close(&a, &r);

        let mut a = data[..n].to_vec();
        let mut r = data[..n].to_vec();
        simd::fft_two_stages_dif(&mut a, h, &tw1, &tw2, conj);
        scalar::fft_stage_dif(&mut r, 2 * h, &tw2, conj);
        scalar::fft_stage_dif(&mut r, h, &tw1, conj);
        close(&a, &r);
    }

    #[test]
    fn quantized_kernels_are_bit_exact_and_half_step_bounded(
        (extra, samples, win, sweeps) in (
            0usize..3,
            proptest::collection::vec(-32768i32..32768, 103..104),
            proptest::collection::vec(0i32..32768, 103..104),
            1usize..6,
        )
    ) {
        let n = 103 - 4 * extra - 1;
        let samples: Vec<i16> = samples[..n].iter().map(|&s| s as i16).collect();
        let win: Vec<i16> = win[..n].iter().map(|&w| w as i16).collect();

        // Bit-exact across dispatch paths, accumulated over several sweeps.
        let mut acc_a = vec![0i32; n];
        let mut acc_r = vec![0i32; n];
        for _ in 0..sweeps {
            simd::window_accum_q(&mut acc_a, &samples, &win);
            scalar::window_accum_q(&mut acc_r, &samples, &win);
        }
        prop_assert_eq!(&acc_a, &acc_r);

        // Half-step bound: mulhrs rounds (s·w)/2^15 to nearest, so each
        // accumulated term sits within 0.5 of the exact product and the
        // sweep sum within 0.5·sweeps.
        for (i, &q) in acc_a.iter().enumerate() {
            let exact = sweeps as f64 * (samples[i] as f64 * win[i] as f64) / 32768.0;
            prop_assert!(
                (q as f64 - exact).abs() <= 0.5 * sweeps as f64 + 1e-9,
                "element {}: accumulated {} vs exact {}",
                i, q, exact
            );
        }

        // Late dequantize: the packing pass must equal dequantizing the
        // accumulator first and pairing adjacent samples.
        let scale = 1.0 / (32767.0 * sweeps as f64);
        let m = n / 2;
        let mut a = vec![Complex::ZERO; m];
        simd::pack_dequant(&mut a, &acc_a, scale);
        let r: Vec<Complex> = acc_a
            .chunks_exact(2)
            .map(|p| Complex::new(p[0] as f64 * scale, p[1] as f64 * scale))
            .collect();
        prop_assert_eq!(&a, &r);
    }
}
