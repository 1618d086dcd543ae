//! Gauss–Newton least-squares localization for arbitrary antenna arrays.
//!
//! The closed form in [`crate::tarray`] only covers the exact T geometry.
//! The paper notes (§5) that adding receive antennas over-constrains the
//! system and adds robustness to noise; this module implements that general
//! case: find `p` minimizing
//!
//! ```text
//! Σₖ ( |p − tx| + |p − rxₖ| − rₖ )²
//! ```
//!
//! with a damped Gauss–Newton iteration. Each residual's gradient is the sum
//! of unit vectors from the two foci to `p` (see
//! [`crate::ellipsoid::Ellipsoid::gradient`]), so the normal equations are a
//! 3×3 solve per iteration.
//!
//! Planar arrays (all WiTrack arrays are planar — they hang on a wall) have a
//! mirror ambiguity: reflecting the solution across the array plane preserves
//! every round trip. The solver seeds *in front of* the array (along the
//! transmit boresight) and, if it still converges behind, mirrors and
//! re-polishes, implementing the paper's "only the intersection within the
//! antenna beams is feasible" rule.

use crate::antenna::AntennaArray;
use crate::vec3::Vec3;

/// Tuning for the Gauss–Newton solver. Consistent round trips at WiTrack
/// geometries converge in a handful of iterations; inconsistent ones
/// (e.g. a tuple mixing two people's echoes) diverge and stop at the
/// feasibility bound instead of running to `max_iterations`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussNewtonConfig {
    /// Maximum iterations before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on the step length (meters).
    pub step_tolerance: f64,
    /// Levenberg damping added to the normal-equation diagonal.
    pub damping: f64,
}

impl Default for GaussNewtonConfig {
    fn default() -> Self {
        GaussNewtonConfig {
            max_iterations: 50,
            step_tolerance: 1e-9,
            damping: 1e-9,
        }
    }
}

/// Solver failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveError {
    /// Fewer round trips than receive antennas, or vice versa.
    MeasurementCountMismatch {
        /// Number of receive antennas in the array.
        expected: usize,
        /// Number of round-trip measurements supplied.
        got: usize,
    },
    /// A measurement is non-finite or non-positive.
    InvalidMeasurement,
    /// The normal equations became singular (degenerate geometry).
    SingularGeometry,
    /// The iteration did not converge within the configured budget.
    DidNotConverge {
        /// RMS of the round-trip residuals at the last iterate (meters).
        residual_rms: f64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::MeasurementCountMismatch { expected, got } => {
                write!(f, "expected {expected} round trips, got {got}")
            }
            SolveError::InvalidMeasurement => write!(f, "round-trip distance not finite/positive"),
            SolveError::SingularGeometry => write!(f, "normal equations singular"),
            SolveError::DidNotConverge { residual_rms } => {
                write!(f, "did not converge (residual RMS {residual_rms:.4} m)")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Result of a successful solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveResult {
    /// Estimated reflector position (world frame).
    pub position: Vec3,
    /// RMS of the per-antenna round-trip residuals at the solution (meters).
    /// For over-constrained arrays this measures measurement consistency.
    pub residual_rms: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Solves a 3×3 linear system `m · x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` if the matrix is singular.
// Index loops mirror the textbook elimination; iterator forms would need
// split borrows of two rows of `m` and read worse.
#[allow(clippy::needless_range_loop)]
fn solve_3x3(mut m: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<Vec3> {
    for col in 0..3 {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..3 {
            if m[row][col].abs() > m[pivot][col].abs() {
                pivot = row;
            }
        }
        if m[pivot][col].abs() < 1e-14 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..3 {
            let f = m[row][col] / m[col][col];
            for k in col..3 {
                m[row][k] -= f * m[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0_f64; 3];
    for col in (0..3).rev() {
        let mut s = b[col];
        for k in (col + 1)..3 {
            s -= m[col][k] * x[k];
        }
        x[col] = s / m[col][col];
    }
    Some(Vec3::new(x[0], x[1], x[2]))
}

fn residual_rms(array: &AntennaArray, round_trips: &[f64], p: Vec3) -> f64 {
    let n = round_trips.len() as f64;
    let ss: f64 = round_trips
        .iter()
        .enumerate()
        .map(|(k, &r)| {
            let e = array.round_trip(p, k) - r;
            e * e
        })
        .sum();
    (ss / n).sqrt()
}

/// One damped Gauss–Newton descent from `seed`. Returns the final iterate and
/// the iteration count; does not decide success.
///
/// Stops with [`SolveError::DidNotConverge`] once an iterate is farther from
/// the transmitter than the longest measured round trip: every round trip
/// from there exceeds `|p − tx|`, so no point there fits any measurement,
/// and a descent that got there is diverging.
fn descend(
    array: &AntennaArray,
    round_trips: &[f64],
    seed: Vec3,
    cfg: &GaussNewtonConfig,
) -> Result<(Vec3, usize), SolveError> {
    let tx = array.tx.position;
    let feasible = round_trips.iter().copied().fold(0.0, f64::max);
    let mut p = seed;
    for iter in 0..cfg.max_iterations {
        // Build normal equations JᵀJ · Δ = −Jᵀr.
        let mut jtj = [[0.0_f64; 3]; 3];
        let mut jtr = [0.0_f64; 3];
        for (k, &r) in round_trips.iter().enumerate() {
            let rx = array.rx[k].position;
            let g = (p - tx).normalized_or_zero() + (p - rx).normalized_or_zero();
            let res = array.round_trip(p, k) - r;
            let gc = [g.x, g.y, g.z];
            for i in 0..3 {
                for j in 0..3 {
                    jtj[i][j] += gc[i] * gc[j];
                }
                jtr[i] += gc[i] * res;
            }
        }
        for (i, row) in jtj.iter_mut().enumerate() {
            row[i] += cfg.damping;
        }
        let step =
            solve_3x3(jtj, [-jtr[0], -jtr[1], -jtr[2]]).ok_or(SolveError::SingularGeometry)?;
        p += step;
        if step.norm() < cfg.step_tolerance {
            return Ok((p, iter + 1));
        }
        if p.distance(tx) > feasible {
            return Err(SolveError::DidNotConverge {
                residual_rms: residual_rms(array, round_trips, p),
            });
        }
    }
    Ok((p, cfg.max_iterations))
}

/// Localizes a reflector from round-trip distances with damped Gauss–Newton.
///
/// `round_trips[k]` is the measured `|tx→p| + |p→rx[k]|` for antenna `k`.
/// Works for exactly three antennas (unique intersection) and for
/// over-constrained arrays (least-squares fit).
pub fn solve_least_squares(
    array: &AntennaArray,
    round_trips: &[f64],
    cfg: &GaussNewtonConfig,
) -> Result<SolveResult, SolveError> {
    if round_trips.len() != array.num_rx() {
        return Err(SolveError::MeasurementCountMismatch {
            expected: array.num_rx(),
            got: round_trips.len(),
        });
    }
    if round_trips.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return Err(SolveError::InvalidMeasurement);
    }

    // Seed in front of the array, halfway out along the mean one-way range.
    let mean_range = round_trips.iter().sum::<f64>() / (2.0 * round_trips.len() as f64);
    let seed = array.centroid() + array.tx.boresight * mean_range.max(0.5);

    let (mut p, mut iters) = descend(array, round_trips, seed, cfg)?;

    // Planar-array mirror ambiguity: if we converged behind the beams,
    // reflect across the array plane and re-polish (paper §5's beam
    // feasibility rule).
    if !array.in_all_beams(p) {
        let n = array.tx.boresight;
        let d = (p - array.tx.position).dot(n);
        let mirrored = p - n * (2.0 * d);
        match descend(array, round_trips, mirrored, cfg) {
            Ok((p2, it2)) if array.in_all_beams(p2) => {
                p = p2;
                iters += it2;
            }
            // A diverging retry leaves the first descent's answer standing.
            Ok(_) | Err(SolveError::DidNotConverge { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    let rms = residual_rms(array, round_trips, p);
    // Declare non-convergence when the fit is far worse than any plausible
    // noise level (meters of residual indicate a wrong basin or bad data).
    if !p.is_finite() || rms > 1.0 {
        return Err(SolveError::DidNotConverge { residual_rms: rms });
    }
    Ok(SolveResult {
        position: p,
        residual_rms: rms,
        iterations: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarray::TArray;

    fn assert_vec_close(a: Vec3, b: Vec3, tol: f64) {
        assert!(a.distance(b) <= tol, "{a} vs {b} (dist {})", a.distance(b));
    }

    #[test]
    fn recovers_exact_position_for_t_array() {
        let arr = AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0);
        for p in [
            Vec3::new(0.5, 4.0, 1.2),
            Vec3::new(-2.0, 3.0, 0.4),
            Vec3::new(3.0, 9.0, 1.8),
        ] {
            let r = arr.round_trips(p);
            let out = solve_least_squares(&arr, &r, &GaussNewtonConfig::default()).unwrap();
            assert_vec_close(out.position, p, 1e-6);
            assert!(out.residual_rms < 1e-7);
        }
    }

    #[test]
    fn agrees_with_closed_form() {
        let t = TArray::symmetric(Vec3::new(0.0, 0.0, 1.2), 0.8);
        let arr = t.antenna_array();
        let p = Vec3::new(1.5, 6.0, 0.7);
        let mut r = t.round_trips(p);
        // Perturb measurements slightly: both solvers should land close to
        // each other (they optimize the same geometry).
        r[0] += 0.005;
        r[1] -= 0.003;
        r[2] += 0.004;
        let closed = t.solve(r).unwrap();
        let gn = solve_least_squares(&arr, &r, &GaussNewtonConfig::default()).unwrap();
        assert_vec_close(closed, gn.position, 0.05);
    }

    #[test]
    fn overconstrained_array_averages_noise() {
        // With 6 antennas and symmetric noise, the LS solution should be
        // closer to the truth than the worst-case 3-antenna solve.
        let arr = AntennaArray::t_shape_extended(Vec3::new(0.0, 0.0, 1.0), 1.0, 3);
        let p = Vec3::new(0.8, 5.0, 1.1);
        let mut r = arr.round_trips(p);
        let noise = [0.02, -0.02, 0.02, -0.02, 0.02, -0.02];
        for (ri, ni) in r.iter_mut().zip(noise) {
            *ri += ni;
        }
        let out = solve_least_squares(&arr, &r, &GaussNewtonConfig::default()).unwrap();
        assert!(
            out.position.distance(p) < 0.25,
            "err {}",
            out.position.distance(p)
        );
        assert!(out.residual_rms > 0.0); // inconsistent data leaves residual
    }

    #[test]
    fn mirror_ambiguity_resolved_to_front() {
        let arr = AntennaArray::t_shape(Vec3::ZERO, 1.0);
        let p = Vec3::new(0.3, 3.5, 0.6);
        let r = arr.round_trips(p);
        let out = solve_least_squares(&arr, &r, &GaussNewtonConfig::default()).unwrap();
        assert!(out.position.y > 0.0);
        assert_vec_close(out.position, p, 1e-6);
    }

    #[test]
    fn rejects_count_mismatch_and_bad_values() {
        let arr = AntennaArray::t_shape(Vec3::ZERO, 1.0);
        assert!(matches!(
            solve_least_squares(&arr, &[5.0, 5.0], &GaussNewtonConfig::default()),
            Err(SolveError::MeasurementCountMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            solve_least_squares(
                &arr,
                &[5.0, f64::INFINITY, 5.0],
                &GaussNewtonConfig::default()
            ),
            Err(SolveError::InvalidMeasurement)
        ));
    }

    #[test]
    fn solve_3x3_identity_and_singular() {
        let id = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        let x = solve_3x3(id, [1.0, 2.0, 3.0]).unwrap();
        assert_vec_close(x, Vec3::new(1.0, 2.0, 3.0), 1e-12);
        let sing = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]];
        assert!(solve_3x3(sing, [1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn solve_3x3_general_system() {
        // m · (2, -1, 0.5) = b
        let m = [[3.0, 1.0, -2.0], [1.0, -4.0, 1.0], [2.0, 0.0, 5.0]];
        let x_true = Vec3::new(2.0, -1.0, 0.5);
        let b = [
            m[0][0] * x_true.x + m[0][1] * x_true.y + m[0][2] * x_true.z,
            m[1][0] * x_true.x + m[1][1] * x_true.y + m[1][2] * x_true.z,
            m[2][0] * x_true.x + m[2][1] * x_true.y + m[2][2] * x_true.z,
        ];
        let x = solve_3x3(m, b).unwrap();
        assert_vec_close(x, x_true, 1e-10);
    }

    /// The solver as it was before the feasibility stop: every descent
    /// runs to convergence or `max_iterations`.
    fn solve_without_feasibility_stop(
        array: &AntennaArray,
        round_trips: &[f64],
        cfg: &GaussNewtonConfig,
    ) -> Result<SolveResult, SolveError> {
        let descend = |seed: Vec3| -> Result<(Vec3, usize), SolveError> {
            let tx = array.tx.position;
            let mut p = seed;
            for iter in 0..cfg.max_iterations {
                let mut jtj = [[0.0_f64; 3]; 3];
                let mut jtr = [0.0_f64; 3];
                for (k, &r) in round_trips.iter().enumerate() {
                    let rx = array.rx[k].position;
                    let g = (p - tx).normalized_or_zero() + (p - rx).normalized_or_zero();
                    let res = array.round_trip(p, k) - r;
                    let gc = [g.x, g.y, g.z];
                    for i in 0..3 {
                        for j in 0..3 {
                            jtj[i][j] += gc[i] * gc[j];
                        }
                        jtr[i] += gc[i] * res;
                    }
                }
                for (i, row) in jtj.iter_mut().enumerate() {
                    row[i] += cfg.damping;
                }
                let step = solve_3x3(jtj, [-jtr[0], -jtr[1], -jtr[2]])
                    .ok_or(SolveError::SingularGeometry)?;
                p += step;
                if step.norm() < cfg.step_tolerance {
                    return Ok((p, iter + 1));
                }
            }
            Ok((p, cfg.max_iterations))
        };
        let mean_range = round_trips.iter().sum::<f64>() / (2.0 * round_trips.len() as f64);
        let seed = array.centroid() + array.tx.boresight * mean_range.max(0.5);
        let (mut p, mut iters) = descend(seed)?;
        if !array.in_all_beams(p) {
            let n = array.tx.boresight;
            let d = (p - array.tx.position).dot(n);
            let (p2, it2) = descend(p - n * (2.0 * d))?;
            if array.in_all_beams(p2) {
                p = p2;
                iters += it2;
            }
        }
        let rms = residual_rms(array, round_trips, p);
        if !p.is_finite() || rms > 1.0 {
            return Err(SolveError::DidNotConverge { residual_rms: rms });
        }
        Ok(SolveResult {
            position: p,
            residual_rms: rms,
            iterations: iters,
        })
    }

    /// SplitMix64 mapped to `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
    }

    #[test]
    fn infeasible_tuple_stops_within_ten_iterations() {
        // The two bar antennas are 2 m apart, so their round trips to one
        // reflector differ by at most 2 m; these differ by 3 m.
        let arr = AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0);
        let rts: [f64; 3] = [8.0, 11.0, 9.0];
        assert!((rts[0] - rts[1]).abs() > arr.rx[0].position.distance(arr.rx[1].position));
        let ten = GaussNewtonConfig {
            max_iterations: 10,
            ..GaussNewtonConfig::default()
        };
        let mean_range = rts.iter().sum::<f64>() / 6.0;
        let seed = arr.centroid() + arr.tx.boresight * mean_range;
        assert!(
            matches!(
                descend(&arr, &rts, seed, &ten),
                Err(SolveError::DidNotConverge { .. })
            ),
            "the descent must leave the feasible region within 10 iterations"
        );
        assert!(matches!(
            solve_least_squares(&arr, &rts, &GaussNewtonConfig::default()),
            Err(SolveError::DidNotConverge { .. })
        ));
        assert!(matches!(
            solve_without_feasibility_stop(&arr, &rts, &GaussNewtonConfig::default()),
            Err(SolveError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn feasible_inputs_solve_bit_identically_to_the_unstopped_solver() {
        let arrays = [
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            TArray::symmetric(Vec3::new(0.0, 0.0, 1.2), 0.8).antenna_array(),
            AntennaArray::t_shape_extended(Vec3::new(0.0, 0.0, 1.0), 1.0, 3),
        ];
        let cfg = GaussNewtonConfig::default();
        let mut state = 7_u64;
        let mut solved = 0;
        for i in 0..3000 {
            let arr = &arrays[i % arrays.len()];
            let p = Vec3::new(
                -4.0 + 8.0 * uniform(&mut state),
                1.0 + 10.0 * uniform(&mut state),
                -0.5 + 2.5 * uniform(&mut state),
            );
            let mut rts = arr.round_trips(p);
            for r in &mut rts {
                *r += 0.1 * (uniform(&mut state) - 0.5);
            }
            let got = solve_least_squares(arr, &rts, &cfg);
            let want = solve_without_feasibility_stop(arr, &rts, &cfg);
            assert_eq!(got, want, "case {i}: {p} from {rts:?}");
            solved += usize::from(got.is_ok());
        }
        assert!(
            solved > 2900,
            "only {solved} of 3000 feasible inputs solved"
        );
    }

    #[test]
    fn moderate_noise_keeps_error_bounded() {
        let arr = AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0);
        let p = Vec3::new(-1.0, 6.0, 1.4);
        let mut r = arr.round_trips(p);
        r[0] += 0.03;
        r[1] += 0.01;
        r[2] -= 0.02;
        let out = solve_least_squares(&arr, &r, &GaussNewtonConfig::default()).unwrap();
        assert!(
            out.position.distance(p) < 0.6,
            "err {}",
            out.position.distance(p)
        );
    }
}
