//! Two-phase primal simplex with Bland's anti-cycling rule.

use crate::expr::LinExpr;
use crate::problem::{Constraint, Problem, Relation, SolveResult};
use crate::tableau::{SparseRow, Tableau};
use car_arith::Ratio;
use std::fmt;

/// A solve was interrupted by a [`SolveHooks`] condition (pivot cap hit
/// or external poll returned `true`) before reaching a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpInterrupted;

impl fmt::Display for LpInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("linear program interrupted before completion")
    }
}

impl std::error::Error for LpInterrupted {}

/// Cooperative interruption hooks for the simplex loops.
///
/// `max_pivots` caps the *total* pivot count of a solve (across both
/// phases); `poll` is consulted once per pivot and interrupts the solve
/// when it returns `true`. The default hooks never interrupt.
#[derive(Clone, Copy, Default)]
pub struct SolveHooks<'a> {
    /// Cap on total pivots across phase 1 and phase 2.
    pub max_pivots: Option<u64>,
    /// External stop condition, polled once per pivot.
    pub poll: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl fmt::Debug for SolveHooks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveHooks")
            .field("max_pivots", &self.max_pivots)
            .field("poll", &self.poll.map(|_| "..."))
            .finish()
    }
}

impl SolveHooks<'_> {
    /// `Err(LpInterrupted)` once the hooks say stop.
    fn check(&self, pivots: u64) -> Result<(), LpInterrupted> {
        if self.max_pivots.is_some_and(|max| pivots >= max) {
            return Err(LpInterrupted);
        }
        if self.poll.is_some_and(|poll| poll()) {
            return Err(LpInterrupted);
        }
        Ok(())
    }
}

/// Outcome of running the pivoting loop to optimality.
pub(crate) enum LoopResult {
    Optimal,
    Unbounded,
}

/// Runs Bland-rule pivoting until no reduced cost is positive
/// (maximization) or the problem is detected unbounded.
///
/// `enterable` marks the columns allowed to enter the basis (used to keep
/// artificial columns out during phase 2). `total_pivots` accumulates
/// across calls so `hooks.max_pivots` caps a whole solve, not one phase.
pub(crate) fn optimize(
    t: &mut Tableau,
    enterable: &[bool],
    hooks: &SolveHooks<'_>,
    total_pivots: &mut u64,
) -> Result<LoopResult, LpInterrupted> {
    // Dantzig pricing (most positive reduced cost) is fast in practice
    // but can cycle on degenerate problems; after a generous pivot
    // budget, switch permanently to Bland's rule, which cannot cycle —
    // so termination is guaranteed while typical runs stay short.
    let bland_after = 4 * (t.rows.len() + t.n_cols) + 64;
    let mut pivots = 0usize;
    loop {
        hooks.check(*total_pivots)?;
        let use_bland = pivots >= bland_after;
        // Pricing iterates only the nonzeros of the reduced-cost row,
        // in increasing column order (so Bland's "first eligible" and
        // Dantzig's "first maximum" tie-breaks match a dense scan).
        let col = if use_bland {
            t.obj
                .iter()
                .find(|&(j, v)| enterable[j] && v.is_positive())
                .map(|(j, _)| j)
        } else {
            let mut best: Option<(usize, &Ratio)> = None;
            for (j, v) in t.obj.iter() {
                if enterable[j] && v.is_positive() && best.is_none_or(|(_, bv)| v > bv) {
                    best = Some((j, v));
                }
            }
            best.map(|(j, _)| j)
        };
        let Some(col) = col else {
            return Ok(LoopResult::Optimal);
        };
        // Ratio test; on ties pick the row whose basic variable has the
        // smallest column index (Bland's leaving rule — harmless under
        // Dantzig pricing and required once Bland pricing is active).
        let mut best: Option<(usize, Ratio)> = None;
        for i in 0..t.rows.len() {
            let Some(entry) = t.rows[i].coeff(col) else {
                continue;
            };
            if !entry.is_positive() {
                continue;
            }
            let ratio = &t.rhs[i] / entry;
            match &best {
                None => best = Some((i, ratio)),
                Some((bi, br)) => {
                    if ratio < *br || (ratio == *br && t.basis[i] < t.basis[*bi]) {
                        best = Some((i, ratio));
                    }
                }
            }
        }
        let Some((row, _)) = best else {
            return Ok(LoopResult::Unbounded);
        };
        t.pivot(row, col);
        pivots += 1;
        *total_pivots += 1;
    }
}

/// A problem converted to standard form `A·x = b, b ≥ 0` with slack,
/// surplus and artificial columns appended after the structural ones.
pub(crate) struct Standardized {
    pub(crate) tableau: Tableau,
    pub(crate) n_structural: usize,
    /// `true` per column iff it is artificial.
    pub(crate) is_artificial: Vec<bool>,
    pub(crate) has_artificials: bool,
    /// Per row: the slack/artificial column that formed the initial
    /// basis (used to read simplex multipliers off the phase-1 tableau).
    pub(crate) init_basis_cols: Vec<usize>,
    /// Per row: whether the original constraint was negated (see
    /// [`negates`]).
    pub(crate) negated: Vec<bool>,
}

/// Builds the standard-form tableau with an all-slack/artificial basis.
pub(crate) fn standardize(problem: &Problem) -> Standardized {
    let n = problem.num_vars();
    let m = problem.constraints().len();

    // One pass to count extra columns.
    let mut n_cols = n;
    for c in problem.constraints() {
        match effective_relation(c.rel, negates(c)) {
            Relation::Le => n_cols += 1,
            Relation::Ge => n_cols += 2,
            Relation::Eq => n_cols += 1,
        }
    }

    let mut rows = Vec::with_capacity(m);
    let mut rhs = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut is_artificial = vec![false; n_cols];
    let mut next_col = n;
    let mut has_artificials = false;
    let mut negated_flags = Vec::with_capacity(m);

    for c in problem.constraints() {
        let mut row = vec![Ratio::zero(); n_cols];
        let negate = negates(c);
        for (v, coeff) in c.expr.iter() {
            row[v.index()] = if negate { -coeff } else { coeff.clone() };
        }
        let b = if negate { -&c.rhs } else { c.rhs.clone() };
        let rel = effective_relation(c.rel, negate);
        match rel {
            Relation::Le => {
                row[next_col] = Ratio::one();
                basis.push(next_col);
                next_col += 1;
            }
            Relation::Ge => {
                row[next_col] = -Ratio::one(); // surplus
                next_col += 1;
                row[next_col] = Ratio::one(); // artificial
                is_artificial[next_col] = true;
                has_artificials = true;
                basis.push(next_col);
                next_col += 1;
            }
            Relation::Eq => {
                row[next_col] = Ratio::one(); // artificial
                is_artificial[next_col] = true;
                has_artificials = true;
                basis.push(next_col);
                next_col += 1;
            }
        }
        rows.push(SparseRow::from_dense(&row));
        rhs.push(b);
        negated_flags.push(negate);
    }
    debug_assert_eq!(next_col, n_cols);
    let init_basis_cols = basis.clone();

    let tableau = Tableau {
        rows,
        rhs,
        basis,
        obj: SparseRow::empty(),
        obj_val: Ratio::zero(),
        n_cols,
    };
    Standardized {
        tableau,
        n_structural: n,
        is_artificial,
        has_artificials,
        init_basis_cols,
        negated: negated_flags,
    }
}

/// Whether standardization negates constraint `c`: always when its
/// right-hand side is negative (so that `b ≥ 0`), and also for a `≥` row
/// with a zero right-hand side. Negated, such a row is a `≤` row whose
/// slack starts basic at zero, where the `≥` form would need a surplus
/// and an artificial. So a homogeneous `≤`/`≥` system starts from a
/// feasible all-slack basis and skips phase 1.
fn negates(c: &Constraint) -> bool {
    c.rhs.is_negative() || (c.rel == Relation::Ge && c.rhs.is_zero())
}

/// The relation after negating a row (see [`negates`]).
fn effective_relation(rel: Relation, negated: bool) -> Relation {
    if !negated {
        return rel;
    }
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// Runs phase 1 (drive artificials to zero). Returns `false` if the
/// problem is infeasible. On success the tableau is feasible and no
/// artificial column is basic.
fn phase1(
    s: &mut Standardized,
    hooks: &SolveHooks<'_>,
    total_pivots: &mut u64,
) -> Result<bool, LpInterrupted> {
    if !s.has_artificials {
        return Ok(true);
    }
    let t = &mut s.tableau;
    // Maximize W = -Σ artificials: raw costs -1 on artificial columns.
    t.obj = SparseRow::empty();
    for (j, &artificial) in s.is_artificial.iter().enumerate() {
        if artificial {
            t.obj.set(j, -Ratio::one());
        }
    }
    t.obj_val = Ratio::zero();
    t.canonicalize_objective();

    let enterable: Vec<bool> = (0..t.n_cols).map(|j| !s.is_artificial[j]).collect();
    match optimize(t, &enterable, hooks, total_pivots)? {
        LoopResult::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
        LoopResult::Optimal => {}
    }
    if t.obj_val.is_negative() {
        return Ok(false); // some artificial stuck positive
    }

    // Drive remaining (degenerate, zero-valued) artificials out of the
    // basis; rows with no structural pivot available are redundant.
    let mut i = 0;
    while i < s.tableau.basis.len() {
        let b = s.tableau.basis[i];
        if s.is_artificial[b] {
            debug_assert!(s.tableau.rhs[i].is_zero());
            // Sparse iteration is in increasing column order, matching
            // the dense scan's choice of pivot column.
            let pivot_col = s.tableau.rows[i]
                .iter()
                .map(|(j, _)| j)
                .find(|&j| !s.is_artificial[j]);
            match pivot_col {
                Some(j) => s.tableau.pivot(i, j),
                None => {
                    // Redundant constraint: remove the row entirely.
                    s.tableau.rows.remove(i);
                    s.tableau.rhs.remove(i);
                    s.tableau.basis.remove(i);
                    continue;
                }
            }
        }
        i += 1;
    }
    Ok(true)
}

/// Solves `maximize objective` (or just feasibility when `objective` is
/// `None`) over the problem's constraints with all variables `≥ 0`.
pub(crate) fn solve(problem: &Problem, objective: Option<&LinExpr>) -> SolveResult {
    match solve_with_hooks(problem, objective, &SolveHooks::default()) {
        Ok(result) => result,
        Err(LpInterrupted) => unreachable!("default hooks never interrupt"),
    }
}

/// [`solve`] with cooperative interruption: checks `hooks` once per pivot
/// and returns `Err(LpInterrupted)` as soon as they say stop.
pub(crate) fn solve_with_hooks(
    problem: &Problem,
    objective: Option<&LinExpr>,
    hooks: &SolveHooks<'_>,
) -> Result<SolveResult, LpInterrupted> {
    if let Some(obj) = objective {
        if let Some(v) = obj.max_var() {
            assert!(
                v.index() < problem.num_vars(),
                "objective references unknown variable x{}",
                v.index()
            );
        }
    }

    let mut total_pivots = 0u64;
    let mut s = standardize(problem);
    if !phase1(&mut s, hooks, &mut total_pivots)? {
        return Ok(SolveResult::Infeasible);
    }

    let enterable: Vec<bool> =
        (0..s.tableau.n_cols).map(|j| !s.is_artificial[j]).collect();

    if let Some(obj) = objective {
        let t = &mut s.tableau;
        t.obj = SparseRow::empty();
        t.obj_val = Ratio::zero();
        for (v, c) in obj.iter() {
            t.obj.set(v.index(), c.clone());
        }
        t.canonicalize_objective();
        if let LoopResult::Unbounded = optimize(t, &enterable, hooks, &mut total_pivots)? {
            return Ok(SolveResult::Unbounded);
        }
    }

    s.tableau.debug_check();
    let point: Vec<Ratio> = (0..s.n_structural).map(|j| s.tableau.value_of(j)).collect();
    let value = match objective {
        Some(obj) => obj.eval(&point),
        None => Ratio::zero(),
    };
    debug_assert!(objective.is_none() || value == s.tableau.obj_val);
    Ok(SolveResult::Optimal { value, point })
}

/// Attempts to extract a Farkas infeasibility certificate. `None` means
/// the constraints are feasible.
pub(crate) fn certify(problem: &Problem) -> Option<crate::FarkasCertificate> {
    let mut s = standardize(problem);
    let mut total_pivots = 0u64;
    match phase1(&mut s, &SolveHooks::default(), &mut total_pivots) {
        Ok(true) => return None,
        Ok(false) => {}
        Err(LpInterrupted) => unreachable!("default hooks never interrupt"),
    }
    // Phase 1 stalled with a positive artificial sum: read the simplex
    // multipliers y off the reduced costs of each row's initial basis
    // column (cost 0 for slacks, -1 for artificials), then undo the
    // row negations of `standardize`. See `car-lp`'s farkas module for why the
    // result certifies infeasibility; the certificate is re-verified
    // exactly before being returned.
    let t = &s.tableau;
    let multipliers: Vec<Ratio> = s
        .init_basis_cols
        .iter()
        .zip(&s.negated)
        .map(|(&col, &negated)| {
            let cost = if s.is_artificial[col] { -Ratio::one() } else { Ratio::zero() };
            let y = &cost - &t.obj.get(col);
            if negated {
                -y
            } else {
                y
            }
        })
        .collect();
    let cert = crate::FarkasCertificate { multipliers };
    debug_assert!(cert.verify(problem), "extracted certificate must verify");
    cert.verify(problem).then_some(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{int, VarId};

    fn le(p: &mut Problem, terms: &[(VarId, i64)], rhs: i64) {
        p.add_constraint(LinExpr::from_terms(terms.iter().copied()), Relation::Le, int(rhs));
    }
    fn ge(p: &mut Problem, terms: &[(VarId, i64)], rhs: i64) {
        p.add_constraint(LinExpr::from_terms(terms.iter().copied()), Relation::Ge, int(rhs));
    }
    fn eq(p: &mut Problem, terms: &[(VarId, i64)], rhs: i64) {
        p.add_constraint(LinExpr::from_terms(terms.iter().copied()), Relation::Eq, int(rhs));
    }

    #[test]
    fn textbook_maximization() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> 21 at (3, 3/2)
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        le(&mut p, &[(x, 6), (y, 4)], 24);
        le(&mut p, &[(x, 1), (y, 2)], 6);
        match p.maximize(&LinExpr::from_terms([(x, 5), (y, 4)])) {
            SolveResult::Optimal { value, point } => {
                assert_eq!(value, int(21));
                assert_eq!(point[0], int(3));
                assert_eq!(point[1], Ratio::new(3.into(), 2.into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_system() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        le(&mut p, &[(x, 1)], 1);
        ge(&mut p, &[(x, 1)], 2);
        assert!(matches!(p.maximize(&LinExpr::var(x)), SolveResult::Infeasible));
        assert!(p.feasible_point().is_none());
    }

    #[test]
    fn unbounded_objective() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        ge(&mut p, &[(x, 1), (y, -1)], 0);
        assert!(matches!(p.maximize(&LinExpr::var(x)), SolveResult::Unbounded));
    }

    #[test]
    fn equality_constraints() {
        // x + y = 10, x - y = 4 -> x = 7, y = 3
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        eq(&mut p, &[(x, 1), (y, 1)], 10);
        eq(&mut p, &[(x, 1), (y, -1)], 4);
        let point = p.feasible_point().expect("feasible");
        assert_eq!(point[0], int(7));
        assert_eq!(point[1], int(3));
    }

    #[test]
    fn negative_rhs_normalization() {
        // -x <= -3  <=>  x >= 3
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(LinExpr::from_terms([(x, -1)]), Relation::Le, int(-3));
        le(&mut p, &[(x, 1)], 5);
        match p.maximize(&LinExpr::from_terms([(x, -1)])) {
            SolveResult::Optimal { point, .. } => assert_eq!(point[0], int(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        eq(&mut p, &[(x, 1), (y, 1)], 4);
        eq(&mut p, &[(x, 2), (y, 2)], 8); // same hyperplane
        match p.maximize(&LinExpr::var(x)) {
            SolveResult::Optimal { value, .. } => assert_eq!(value, int(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Classic Beale cycling example; Bland's rule must terminate.
        // max 0.75a - 150b + 0.02c - 6d
        // s.t. 0.25a - 60b - 0.04c + 9d <= 0
        //      0.5a - 90b - 0.02c + 3d <= 0
        //      c <= 1
        let mut p = Problem::new();
        let a = p.add_var("a");
        let b = p.add_var("b");
        let c = p.add_var("c");
        let d = p.add_var("d");
        let q = |n: i64, den: i64| Ratio::new(n.into(), den.into());
        let mut e1 = LinExpr::zero();
        e1.add_term(a, q(1, 4));
        e1.add_term(b, int(-60));
        e1.add_term(c, q(-1, 25));
        e1.add_term(d, int(9));
        p.add_constraint(e1, Relation::Le, int(0));
        let mut e2 = LinExpr::zero();
        e2.add_term(a, q(1, 2));
        e2.add_term(b, int(-90));
        e2.add_term(c, q(-1, 50));
        e2.add_term(d, int(3));
        p.add_constraint(e2, Relation::Le, int(0));
        p.add_constraint(LinExpr::var(c), Relation::Le, int(1));
        let mut obj = LinExpr::zero();
        obj.add_term(a, q(3, 4));
        obj.add_term(b, int(-150));
        obj.add_term(c, q(1, 50));
        obj.add_term(d, int(-6));
        match p.maximize(&obj) {
            SolveResult::Optimal { value, .. } => {
                assert_eq!(value, q(1, 20));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn minimize_is_negated_maximize() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        ge(&mut p, &[(x, 1)], 3);
        le(&mut p, &[(x, 1)], 10);
        match p.minimize(&LinExpr::var(x)) {
            SolveResult::Optimal { value, point } => {
                assert_eq!(value, int(3));
                assert_eq!(point[0], int(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn feasible_point_satisfies_all_constraints() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_var("z");
        ge(&mut p, &[(x, 2), (y, 1)], 7);
        le(&mut p, &[(y, 1), (z, 3)], 12);
        eq(&mut p, &[(x, 1), (z, -1)], 0);
        let point = p.feasible_point().expect("feasible");
        assert!(p.check_point(&point));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn objective_with_unknown_variable_panics() {
        let p = Problem::new();
        let _ = p.maximize(&LinExpr::var(VarId(5)));
    }

    #[test]
    fn pivot_cap_interrupts() {
        // The textbook problem needs at least one pivot; a zero cap must
        // interrupt rather than answer.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        le(&mut p, &[(x, 6), (y, 4)], 24);
        le(&mut p, &[(x, 1), (y, 2)], 6);
        let obj = LinExpr::from_terms([(x, 5), (y, 4)]);
        let hooks = SolveHooks { max_pivots: Some(0), poll: None };
        assert_eq!(p.maximize_with_hooks(&obj, &hooks), Err(LpInterrupted));
        // A generous cap reproduces the uncapped answer.
        let hooks = SolveHooks { max_pivots: Some(10_000), poll: None };
        assert_eq!(p.maximize_with_hooks(&obj, &hooks), Ok(p.maximize(&obj)));
    }

    #[test]
    fn poll_interrupts_immediately() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        ge(&mut p, &[(x, 1)], 3);
        let stop = || true;
        let hooks = SolveHooks { max_pivots: None, poll: Some(&stop) };
        assert_eq!(p.maximize_with_hooks(&LinExpr::var(x), &hooks), Err(LpInterrupted));
        let go = || false;
        let hooks = SolveHooks { max_pivots: None, poll: Some(&go) };
        assert!(p.maximize_with_hooks(&LinExpr::var(x), &hooks).is_ok());
    }
}
