//! Detection-to-track data association: min-cost bipartite assignment.
//!
//! Each frame the tracker must decide which contour detection belongs to
//! which live track. That is a rectangular assignment problem: rows are
//! tracks, columns are detections, and each cell holds a gating-aware cost
//! (distance between the track's prediction and the detection). This module
//! solves it exactly with the Hungarian algorithm (Jonker–Volgenant style
//! shortest augmenting paths, O(n³)) and provides a greedy O(n² log n)
//! fallback used automatically for very large problems.
//!
//! ## Objective
//!
//! The solver returns the matching that, among all matchings of **maximum
//! feasible cardinality**, has **minimum total cost** — the standard MTT
//! association objective. A pair is *feasible* when its cost was set (via
//! [`CostMatrix::set`]) and is below the gate; cells never set are
//! forbidden and are never matched. The guarantee is exact provided every
//! finite cost is below [`CostMatrix::MAX_COST`], which the tracker's
//! meter-scale gates satisfy by orders of magnitude.

/// A rectangular cost matrix (rows = tracks, columns = detections).
#[derive(Debug, Clone, Default)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Upper bound on a feasible cost. `set` rejects anything at or above
    /// this; it is what makes "max cardinality first" exact.
    pub const MAX_COST: f64 = 1e4;

    /// Creates a matrix with every pair forbidden.
    pub fn new(rows: usize, cols: usize) -> CostMatrix {
        CostMatrix {
            rows,
            cols,
            data: vec![f64::INFINITY; rows * cols],
        }
    }

    /// Reshapes the matrix in place to `rows × cols` with every pair
    /// forbidden again, reusing the existing allocation — the per-frame
    /// entry point for trackers that keep one matrix across frames.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, f64::INFINITY);
    }

    /// Number of rows (tracks).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (detections).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Marks `(row, col)` feasible with the given cost.
    ///
    /// # Panics
    /// Panics when out of bounds, or when `cost` is not in
    /// `[0, MAX_COST)` — gate before setting, don't encode gates as huge
    /// costs.
    pub fn set(&mut self, row: usize, col: usize, cost: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "cost index out of bounds"
        );
        assert!(
            (0.0..Self::MAX_COST).contains(&cost),
            "cost {cost} outside [0, {})",
            Self::MAX_COST
        );
        self.data[row * self.cols + col] = cost;
    }

    /// The cost at `(row, col)` (`f64::INFINITY` when forbidden).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Whether `(row, col)` is feasible.
    pub fn is_feasible(&self, row: usize, col: usize) -> bool {
        self.get(row, col).is_finite()
    }
}

/// The result of an association solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    /// For each row, the matched column (None = unassigned).
    pub row_to_col: Vec<Option<usize>>,
    /// For each column, the matched row (None = unassigned).
    pub col_to_row: Vec<Option<usize>>,
    /// Sum of the matched pairs' costs.
    pub total_cost: f64,
}

impl Assignment {
    /// Number of matched pairs.
    pub fn matches(&self) -> usize {
        self.row_to_col.iter().flatten().count()
    }
}

/// Problem sizes above which [`solve_assignment`] switches from the exact
/// Hungarian algorithm to the greedy fallback. Far beyond any per-frame
/// association this tracker produces (tracks × detections ≤ tens).
pub const HUNGARIAN_SIZE_LIMIT: usize = 256;

/// Cost of leaving a row or column unmatched in the padded square problem.
/// Must dwarf `n · MAX_COST` so cardinality dominates cost.
const UNMATCHED: f64 = 1e8;
/// Padded stand-in for a forbidden pair: worse than unmatching both sides.
const FORBIDDEN: f64 = 3e8;

/// A reusable association solver: all Hungarian/greedy working arrays and
/// the result itself live in the solver and are recycled across calls, so a
/// tracker solving one association per antenna per frame performs no
/// steady-state allocation here.
#[derive(Debug, Clone, Default)]
pub struct AssignmentSolver {
    // Hungarian state (1-indexed; p[j] = row matched to column j).
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    // Greedy state.
    cells: Vec<(usize, usize)>,
    col_taken: Vec<bool>,
    /// Reused result; borrow it via the `solve*` return value.
    result: Assignment,
}

impl AssignmentSolver {
    /// Creates an empty solver (buffers grow to the first problem's size).
    pub fn new() -> AssignmentSolver {
        AssignmentSolver::default()
    }

    /// Solves the association exactly (Hungarian) when the padded size is
    /// at most [`HUNGARIAN_SIZE_LIMIT`], greedily otherwise. The returned
    /// reference is valid until the next solve.
    pub fn solve(&mut self, cost: &CostMatrix) -> &Assignment {
        if cost.rows().max(cost.cols()) <= HUNGARIAN_SIZE_LIMIT {
            self.solve_hungarian(cost)
        } else {
            self.solve_greedy(cost)
        }
    }

    /// Exact solve: Hungarian algorithm with potentials on the square
    /// matrix padded with `UNMATCHED`-cost dummy rows/columns.
    pub fn solve_hungarian(&mut self, cost: &CostMatrix) -> &Assignment {
        let (r, c) = (cost.rows(), cost.cols());
        let n = r.max(c);
        self.result.row_to_col.clear();
        self.result.row_to_col.resize(r, None);
        if n == 0 {
            return self.finish(cost);
        }
        let padded = |i: usize, j: usize| -> f64 {
            if i < r && j < c {
                let x = cost.get(i, j);
                if x.is_finite() {
                    x
                } else {
                    FORBIDDEN
                }
            } else {
                UNMATCHED
            }
        };

        self.u.clear();
        self.u.resize(n + 1, 0.0);
        self.v.clear();
        self.v.resize(n + 1, 0.0);
        self.p.clear();
        self.p.resize(n + 1, 0);
        self.way.clear();
        self.way.resize(n + 1, 0);
        self.minv.resize(n + 1, f64::INFINITY);
        self.used.resize(n + 1, false);
        for i in 1..=n {
            self.p[0] = i;
            let mut j0 = 0_usize;
            self.minv.fill(f64::INFINITY);
            self.used.fill(false);
            loop {
                self.used[j0] = true;
                let i0 = self.p[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0_usize;
                for j in 1..=n {
                    if !self.used[j] {
                        let cur = padded(i0 - 1, j - 1) - self.u[i0] - self.v[j];
                        if cur < self.minv[j] {
                            self.minv[j] = cur;
                            self.way[j] = j0;
                        }
                        if self.minv[j] < delta {
                            delta = self.minv[j];
                            j1 = j;
                        }
                    }
                }
                for j in 0..=n {
                    if self.used[j] {
                        self.u[self.p[j]] += delta;
                        self.v[j] -= delta;
                    } else {
                        self.minv[j] -= delta;
                    }
                }
                j0 = j1;
                if self.p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = self.way[j0];
                self.p[j0] = self.p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        for j in 1..=n {
            let i = self.p[j];
            if i >= 1 && i - 1 < r && j - 1 < c && cost.is_feasible(i - 1, j - 1) {
                self.result.row_to_col[i - 1] = Some(j - 1);
            }
        }
        self.finish(cost)
    }

    /// Greedy fallback: repeatedly match the globally cheapest feasible
    /// pair. Not optimal (a cheap pair can block two slightly dearer ones)
    /// but O(n² log n) and good enough when the exact solver would be too
    /// slow.
    pub fn solve_greedy(&mut self, cost: &CostMatrix) -> &Assignment {
        let (r, c) = (cost.rows(), cost.cols());
        self.cells.clear();
        self.cells.extend(
            (0..r)
                .flat_map(|i| (0..c).map(move |j| (i, j)))
                .filter(|&(i, j)| cost.is_feasible(i, j)),
        );
        // Unstable: allocation-free, and cost ties need no defined order.
        // total_cmp tolerates NaN costs (corrupt measurements upstream):
        // they sort last, so a poisoned cell loses every greedy pick.
        self.cells
            .sort_unstable_by(|&a, &b| cost.get(a.0, a.1).total_cmp(&cost.get(b.0, b.1)));
        self.result.row_to_col.clear();
        self.result.row_to_col.resize(r, None);
        self.col_taken.clear();
        self.col_taken.resize(c, false);
        for &(i, j) in &self.cells {
            if self.result.row_to_col[i].is_none() && !self.col_taken[j] {
                self.result.row_to_col[i] = Some(j);
                self.col_taken[j] = true;
            }
        }
        self.finish(cost)
    }

    /// Rebuilds the column map and total cost from `result.row_to_col`.
    fn finish(&mut self, cost: &CostMatrix) -> &Assignment {
        self.result.col_to_row.clear();
        self.result.col_to_row.resize(cost.cols(), None);
        let mut total = 0.0;
        for (row, col) in self.result.row_to_col.iter().enumerate() {
            if let Some(col) = *col {
                self.result.col_to_row[col] = Some(row);
                total += cost.get(row, col);
            }
        }
        self.result.total_cost = total;
        &self.result
    }
}

/// Association over the gated part of a problem only: rows and columns
/// without a single feasible pair can never be matched, so they are
/// dropped before the Hungarian solve instead of padding it. A tracker's
/// detection budget is several times the number of tracks, and most
/// detections sit outside every gate; the pruned problem is a small
/// fraction of the padded one and has the same optimum. A problem with no
/// feasible pair at all skips the solve. All buffers are reused across
/// calls.
#[derive(Debug, Clone, Default)]
pub struct GatedAssignment {
    cost: CostMatrix,
    solver: AssignmentSolver,
    /// Original row of each pruned row.
    rows: Vec<usize>,
    /// Original column of each pruned column.
    cols: Vec<usize>,
    /// Matched `(row, col)` pairs of the last solve, in original indices.
    pairs: Vec<(usize, usize)>,
}

impl GatedAssignment {
    /// Creates an empty solver (buffers grow to the first problem's size).
    pub fn new() -> GatedAssignment {
        GatedAssignment::default()
    }

    /// Solves the `n_rows × n_cols` association whose feasible pairs are
    /// those where `cost(row, col)` is `Some` (the same objective as
    /// [`AssignmentSolver::solve`]), and returns the matched
    /// `(row, col)` pairs in ascending row order. The slice is valid until
    /// the next solve.
    pub fn solve(
        &mut self,
        n_rows: usize,
        n_cols: usize,
        cost: impl Fn(usize, usize) -> Option<f64>,
    ) -> &[(usize, usize)] {
        self.pairs.clear();
        self.cols.clear();
        self.cols
            .extend((0..n_cols).filter(|&j| (0..n_rows).any(|i| cost(i, j).is_some())));
        if self.cols.is_empty() {
            return &self.pairs;
        }
        self.rows.clear();
        self.rows
            .extend((0..n_rows).filter(|&i| self.cols.iter().any(|&j| cost(i, j).is_some())));
        self.cost.reset(self.rows.len(), self.cols.len());
        for (ri, &i) in self.rows.iter().enumerate() {
            for (ci, &j) in self.cols.iter().enumerate() {
                if let Some(c) = cost(i, j) {
                    self.cost.set(ri, ci, c);
                }
            }
        }
        self.pairs.extend(
            self.solver
                .solve(&self.cost)
                .row_to_col
                .iter()
                .enumerate()
                .filter_map(|(ri, ci)| ci.map(|ci| (self.rows[ri], self.cols[ci]))),
        );
        &self.pairs
    }
}

/// One-shot form of [`AssignmentSolver::solve`], for callers without a
/// solver to reuse.
pub fn solve_assignment(cost: &CostMatrix) -> Assignment {
    let mut solver = AssignmentSolver::new();
    solver.solve(cost);
    solver.result
}

/// One-shot form of [`AssignmentSolver::solve_hungarian`].
pub fn solve_assignment_hungarian(cost: &CostMatrix) -> Assignment {
    let mut solver = AssignmentSolver::new();
    solver.solve_hungarian(cost);
    solver.result
}

/// One-shot form of [`AssignmentSolver::solve_greedy`].
pub fn solve_assignment_greedy(cost: &CostMatrix) -> Assignment {
    let mut solver = AssignmentSolver::new();
    solver.solve_greedy(cost);
    solver.result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, cols: usize, cells: &[(usize, usize, f64)]) -> CostMatrix {
        let mut m = CostMatrix::new(rows, cols);
        for &(i, j, x) in cells {
            m.set(i, j, x);
        }
        m
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let a = solve_assignment(&CostMatrix::new(0, 0));
        assert_eq!(a.matches(), 0);
        assert_eq!(a.total_cost, 0.0);
        let a = solve_assignment(&CostMatrix::new(3, 0));
        assert_eq!(a.row_to_col, vec![None, None, None]);
    }

    #[test]
    fn identity_is_found() {
        let m = matrix(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let a = solve_assignment(&m);
        assert_eq!(a.row_to_col, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(a.total_cost, 3.0);
    }

    #[test]
    fn avoids_greedy_trap() {
        // Greedy takes (0,0)=1 and is forced into (1,1)=100 (total 101);
        // optimal is (0,1)=2 + (1,0)=2 (total 4).
        let m = matrix(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 100.0)],
        );
        let a = solve_assignment_hungarian(&m);
        assert_eq!(a.row_to_col, vec![Some(1), Some(0)]);
        assert_eq!(a.total_cost, 4.0);
        let g = solve_assignment_greedy(&m);
        assert_eq!(g.total_cost, 101.0);
    }

    #[test]
    fn cardinality_beats_cost() {
        // Matching both rows costs 1000+1000; matching only row 0 costs 1.
        // Max cardinality wins.
        let m = matrix(2, 2, &[(0, 0, 1.0), (0, 1, 1000.0), (1, 0, 1000.0)]);
        let a = solve_assignment_hungarian(&m);
        assert_eq!(a.matches(), 2);
        assert_eq!(a.row_to_col, vec![Some(1), Some(0)]);
    }

    #[test]
    fn forbidden_pairs_are_never_matched() {
        let m = matrix(2, 2, &[(0, 0, 5.0)]);
        let a = solve_assignment_hungarian(&m);
        assert_eq!(a.row_to_col, vec![Some(0), None]);
        assert_eq!(a.col_to_row, vec![Some(0), None]);
        assert_eq!(a.total_cost, 5.0);
    }

    #[test]
    fn rectangular_wide_and_tall() {
        // 2 tracks, 4 detections.
        let m = matrix(2, 4, &[(0, 2, 0.5), (1, 0, 0.25), (1, 2, 0.1)]);
        let a = solve_assignment_hungarian(&m);
        assert_eq!(a.row_to_col, vec![Some(2), Some(0)]);
        // 4 tracks, 2 detections.
        let m = matrix(4, 2, &[(2, 0, 0.5), (0, 1, 0.25), (2, 1, 0.1)]);
        let a = solve_assignment_hungarian(&m);
        assert_eq!(a.row_to_col, vec![Some(1), None, Some(0), None]);
    }

    #[test]
    #[should_panic]
    fn oversized_cost_rejected() {
        let mut m = CostMatrix::new(1, 1);
        m.set(0, 0, CostMatrix::MAX_COST);
    }

    #[test]
    fn reused_solver_matches_one_shot_solves() {
        let problems = [
            matrix(3, 3, &[(0, 1, 0.1), (1, 0, 0.2), (2, 2, 0.3), (0, 0, 5.0)]),
            matrix(2, 4, &[(0, 2, 0.5), (1, 0, 0.25), (1, 2, 0.1)]),
            matrix(4, 2, &[(2, 0, 0.5), (0, 1, 0.25), (2, 1, 0.1)]),
            matrix(
                2,
                2,
                &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 100.0)],
            ),
            CostMatrix::new(0, 0),
        ];
        let mut solver = AssignmentSolver::new();
        for m in &problems {
            assert_eq!(solver.solve(m), &solve_assignment(m));
        }
    }

    #[test]
    fn solver_scratch_is_reused_across_frames() {
        // Same-shaped problems frame after frame (the tracker's steady
        // state): after the first solve, no buffer is ever reallocated.
        let mut solver = AssignmentSolver::new();
        let mut cost = CostMatrix::new(3, 3);
        for i in 0..3 {
            cost.set(i, (i + 1) % 3, 1.0 + i as f64);
        }
        solver.solve(&cost);
        let ptr = solver.result.row_to_col.as_ptr();
        let minv_cap = solver.minv.capacity();
        for frame in 0..5 {
            cost.reset(3, 3);
            for i in 0..3 {
                cost.set(i, (i + frame) % 3, 0.5 + i as f64);
            }
            let a = solver.solve(&cost);
            assert_eq!(a.matches(), 3);
            assert_eq!(
                solver.result.row_to_col.as_ptr(),
                ptr,
                "result buffer reallocated"
            );
            assert_eq!(solver.minv.capacity(), minv_cap, "scratch reallocated");
        }
    }

    #[test]
    fn cost_matrix_reset_reuses_allocation() {
        let mut m = CostMatrix::new(4, 4);
        m.set(0, 0, 1.0);
        let cap = m.data.capacity();
        m.reset(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(!m.is_feasible(0, 0), "reset must forbid all pairs");
        assert_eq!(m.data.capacity(), cap, "reset reallocated");
    }

    #[test]
    fn greedy_matches_hungarian_on_easy_problems() {
        // Well-separated costs: greedy is optimal too.
        let m = matrix(3, 3, &[(0, 1, 0.1), (1, 0, 0.2), (2, 2, 0.3), (0, 0, 5.0)]);
        let h = solve_assignment_hungarian(&m);
        let g = solve_assignment_greedy(&m);
        assert_eq!(h.row_to_col, g.row_to_col);
    }
}
