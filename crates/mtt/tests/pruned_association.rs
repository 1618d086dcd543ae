//! Property test: association over the gated rows and columns only
//! ([`GatedAssignment`]) returns the same matched (track, detection) pairs
//! and total cost as the full padded Hungarian over every track and every
//! detection.
//!
//! Costs are drawn independently per (track, detection) pair, so the
//! optimum is unique with probability one. (Round-trip errors on one
//! antenna are not: two tracks both nearer than two detections cost the
//! same either way round, and the two solves may break that tie
//! differently.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use witrack_mtt::assignment::solve_assignment_hungarian;
use witrack_mtt::{CostMatrix, GatedAssignment};

/// Up to 5 tracks against up to the tracker's detection budget (8), with
/// a pair feasible when its cost is inside the gate.
struct Problem {
    tracks: usize,
    detections: usize,
    /// Row-major tracks × detections costs in `[0, 2)`.
    costs: Vec<f64>,
    gate: f64,
}

impl Problem {
    fn random(rng: &mut StdRng, gate: f64) -> Problem {
        let tracks = (rng.next_u64() % 6) as usize;
        let detections = (rng.next_u64() % 9) as usize;
        Problem {
            tracks,
            detections,
            costs: (0..tracks * detections)
                .map(|_| 2.0 * rng.random::<f64>())
                .collect(),
            gate,
        }
    }

    fn cost(&self, track: usize, detection: usize) -> Option<f64> {
        let c = self.costs[track * self.detections + detection];
        (c < self.gate).then_some(c)
    }

    /// The full padded solve: every track × every detection.
    fn full(&self) -> (Vec<(usize, usize)>, f64) {
        let mut m = CostMatrix::new(self.tracks, self.detections);
        for t in 0..self.tracks {
            for d in 0..self.detections {
                if let Some(c) = self.cost(t, d) {
                    m.set(t, d, c);
                }
            }
        }
        let a = solve_assignment_hungarian(&m);
        let pairs = a
            .row_to_col
            .iter()
            .enumerate()
            .filter_map(|(t, d)| d.map(|d| (t, d)))
            .collect();
        (pairs, a.total_cost)
    }

    fn pruned(&self, solver: &mut GatedAssignment) -> (Vec<(usize, usize)>, f64) {
        let pairs = solver
            .solve(self.tracks, self.detections, |t, d| self.cost(t, d))
            .to_vec();
        let total = pairs
            .iter()
            .map(|&(t, d)| self.cost(t, d).expect("matched pairs are gated"))
            .sum();
        (pairs, total)
    }
}

fn assert_same(p: &Problem, solver: &mut GatedAssignment, case: usize) {
    let (full_pairs, full_cost) = p.full();
    let (pruned_pairs, pruned_cost) = p.pruned(solver);
    assert_eq!(
        pruned_pairs, full_pairs,
        "case {case}: {}×{} costs {:?} gate {}",
        p.tracks, p.detections, p.costs, p.gate
    );
    assert!(
        (pruned_cost - full_cost).abs() <= 1e-12,
        "case {case}: total cost {pruned_cost} vs {full_cost}"
    );
}

#[test]
fn pruned_association_matches_the_full_padded_solve() {
    let mut rng = StdRng::seed_from_u64(13);
    // One solver across all cases: scratch reuse must not leak state.
    let mut solver = GatedAssignment::new();
    let mut matched = 0;
    for case in 0..5000 {
        let gate = 0.05 + 1.5 * rng.random::<f64>();
        let p = Problem::random(&mut rng, gate);
        assert_same(&p, &mut solver, case);
        matched += solver
            .solve(p.tracks, p.detections, |t, d| p.cost(t, d))
            .len();
    }
    assert!(
        matched > 2000,
        "too few gated matches ({matched}) to exercise the solve"
    );
}

#[test]
fn nothing_in_gate_matches_nothing() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut solver = GatedAssignment::new();
    for case in 0..200 {
        let p = Problem::random(&mut rng, 0.0);
        assert_same(&p, &mut solver, case);
        assert!(solver
            .solve(p.tracks, p.detections, |t, d| p.cost(t, d))
            .is_empty());
    }
}

#[test]
fn everything_in_gate_matches_the_full_solve() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut solver = GatedAssignment::new();
    for case in 0..500 {
        let p = Problem::random(&mut rng, 100.0);
        assert_same(&p, &mut solver, case);
        let n = p.tracks.min(p.detections);
        assert_eq!(
            solver
                .solve(p.tracks, p.detections, |t, d| p.cost(t, d))
                .len(),
            n,
            "case {case}: all-gated problems match min(tracks, detections)"
        );
    }
}
