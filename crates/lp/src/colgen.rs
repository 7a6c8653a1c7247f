//! Restricted-master support for column generation.
//!
//! A [`RestrictedMaster`] wraps a feasibility system `{A·x {≤,≥,=} b,
//! x ≥ 0}` in phase-1 form (maximize `−Σ artificials`) and keeps the
//! tableau alive between solves so that columns can be *appended
//! incrementally*: the caller prices candidate columns outside the LP
//! (the CAR reasoner uses a weight-guided DPLL search over compound
//! classes), inserts the promising ones with [`RestrictedMaster::add_column`],
//! and re-optimizes from the warm-started basis instead of re-solving
//! from scratch.
//!
//! Three properties make the incremental insertion exact:
//!
//! 1. **`B⁻¹` is free.** Each row's initial basic column (its slack or
//!    artificial) started as a unit vector, so in the current tableau the
//!    column of row `k`'s initial basis variable *is* the `k`-th column
//!    of `B⁻¹`. A new original column `a` therefore enters the tableau as
//!    `B⁻¹·a`, computed by a sparse dot against those columns.
//! 2. **Duals are free.** The simplex multiplier of row `k` is
//!    `cost(init_k) − obj[init_k]` (cost `−1` for artificials, `0` for
//!    slacks), sign-adjusted for rows that standardization negated (a
//!    negative right-hand side, or a `≥` row with a zero one) — the
//!    same extraction `car_lp::simplex::certify` uses for Farkas
//!    certificates.
//! 3. **Phase 1 never mutates the row structure here.** Unlike the full
//!    two-phase solver, the master *never* drives degenerate artificials
//!    out of the basis and never deletes redundant rows; row indices and
//!    the initial-basis bookkeeping stay valid across any number of
//!    `add_column`/`solve` rounds.
//!
//! When the master is infeasible, [`RestrictedMaster::duals`] is exactly
//! a Farkas certificate of the restricted system (the same multipliers
//! [`crate::Problem::certify_infeasible`] would extract), which is what
//! makes lazy UNSAT answers carry eager-shaped certificates.

use crate::problem::Problem;
use crate::simplex::{optimize, standardize, LoopResult, LpInterrupted, SolveHooks, Standardized};
use crate::tableau::SparseRow;
use car_arith::Ratio;

/// Verdict of a [`RestrictedMaster::solve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterStatus {
    /// Every artificial is zero: the restricted system has a feasible
    /// nonnegative solution.
    Feasible,
    /// Phase 1 stalled with a positive artificial sum: the restricted
    /// system is infeasible (and [`RestrictedMaster::duals`] certifies it).
    Infeasible,
}

/// A warm-startable phase-1 master problem over a growing column set.
///
/// Construction standardizes the problem once; [`Self::solve`] runs the
/// shared pivoting loop ([`crate::simplex::optimize`]) to phase-1
/// optimality, and [`Self::add_column`] appends a structural column
/// without restarting. Pivot counts accumulate across the master's
/// lifetime, so a `SolveHooks::max_pivots` cap bounds the *total* work.
pub struct RestrictedMaster {
    s: Standardized,
    total_pivots: u64,
}

impl RestrictedMaster {
    /// Standardizes `problem` and installs the phase-1 objective
    /// (`maximize −Σ artificials`). No pivoting happens yet.
    #[must_use]
    pub fn new(problem: &Problem) -> RestrictedMaster {
        let mut s = standardize(problem);
        if s.has_artificials {
            let t = &mut s.tableau;
            t.obj = SparseRow::empty();
            for (j, &artificial) in s.is_artificial.iter().enumerate() {
                if artificial {
                    t.obj.set(j, -Ratio::one());
                }
            }
            t.obj_val = Ratio::zero();
            t.canonicalize_objective();
        }
        RestrictedMaster { s, total_pivots: 0 }
    }

    /// Number of constraint rows (one dual per row).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.s.negated.len()
    }

    /// Total pivots performed across all [`Self::solve`] calls so far.
    #[must_use]
    pub fn pivots(&self) -> u64 {
        self.total_pivots
    }

    /// Current phase-1 objective value `−Σ artificials` (zero iff the
    /// last solve ended feasible; negative measures the infeasibility).
    #[must_use]
    pub fn infeasibility(&self) -> Ratio {
        self.s.tableau.obj_val.clone()
    }

    /// Re-optimizes the phase-1 objective from the current basis.
    ///
    /// # Errors
    ///
    /// Returns [`LpInterrupted`] when `hooks` stop the solve first; the
    /// tableau stays canonical and a later call resumes where it left
    /// off.
    pub fn solve(&mut self, hooks: &SolveHooks<'_>) -> Result<MasterStatus, LpInterrupted> {
        if !self.s.has_artificials {
            return Ok(MasterStatus::Feasible);
        }
        let enterable: Vec<bool> =
            (0..self.s.tableau.n_cols).map(|j| !self.s.is_artificial[j]).collect();
        match optimize(&mut self.s.tableau, &enterable, hooks, &mut self.total_pivots)? {
            LoopResult::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
            LoopResult::Optimal => {}
        }
        Ok(if self.s.tableau.obj_val.is_negative() {
            MasterStatus::Infeasible
        } else {
            MasterStatus::Feasible
        })
    }

    /// Simplex multipliers of the current basis, one per constraint row
    /// in the order the constraints were added, expressed against the
    /// *original* (pre-standardization) row orientation.
    ///
    /// After an [`MasterStatus::Infeasible`] solve these multipliers are
    /// a verifying [`crate::FarkasCertificate`] for the restricted
    /// problem.
    #[must_use]
    pub fn duals(&self) -> Vec<Ratio> {
        let t = &self.s.tableau;
        self.s
            .init_basis_cols
            .iter()
            .zip(&self.s.negated)
            .map(|(&col, &negated)| {
                let cost =
                    if self.s.is_artificial[col] { -Ratio::one() } else { Ratio::zero() };
                let y = &cost - &t.obj.get(col);
                if negated {
                    -y
                } else {
                    y
                }
            })
            .collect()
    }

    /// Phase-1 reduced cost of a *candidate* column with the given
    /// nonzero entries `(row, coefficient)` in original row orientation:
    /// `−y·a`. Positive means entering the column can shrink the
    /// artificial sum (improve feasibility); nonpositive columns cannot
    /// help the current basis.
    #[must_use]
    pub fn reduced_cost(&self, entries: &[(usize, Ratio)]) -> Ratio {
        let duals = self.duals();
        let mut rc = Ratio::zero();
        for (row, a) in entries {
            assert!(*row < duals.len(), "entry references row {row} of {}", duals.len());
            rc -= &(&duals[*row] * a);
        }
        rc
    }

    /// Appends a structural column whose original-orientation nonzero
    /// entries are `(row, coefficient)`. The column arrives nonbasic with
    /// its tableau representation (`B⁻¹·a`) and canonical reduced cost
    /// already in place, so the next [`Self::solve`] resumes warm.
    pub fn add_column(&mut self, entries: &[(usize, Ratio)]) {
        let m = self.num_rows();
        let adjusted: Vec<(usize, Ratio)> = entries
            .iter()
            .map(|(row, a)| {
                assert!(*row < m, "column entry references row {row} of {m}");
                (*row, if self.s.negated[*row] { -a } else { a.clone() })
            })
            .collect();
        let rc = self.reduced_cost(entries);

        let j = self.s.tableau.n_cols;
        for i in 0..self.s.tableau.rows.len() {
            let mut v = Ratio::zero();
            for (row, a) in &adjusted {
                let binv = self.s.tableau.rows[i].get(self.s.init_basis_cols[*row]);
                v += &(a * &binv);
            }
            self.s.tableau.rows[i].set(j, v);
        }
        self.s.tableau.obj.set(j, rc);
        self.s.tableau.n_cols += 1;
        self.s.is_artificial.push(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{int, LinExpr, VarId};
    use crate::problem::Relation;
    use crate::FarkasCertificate;

    fn constraint(p: &mut Problem, terms: &[(usize, i64)], rel: Relation, rhs: i64) {
        p.add_constraint(
            LinExpr::from_terms(terms.iter().map(|&(v, c)| (VarId(v), c))),
            rel,
            int(rhs),
        );
    }

    #[test]
    fn feasible_system_reports_feasible() {
        // x >= 1, x <= 3: feasible (artificial on the >=-row must leave).
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, 1)], Relation::Ge, 1);
        constraint(&mut p, &[(0, 1)], Relation::Le, 3);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));
        assert!(m.infeasibility().is_zero());
    }

    #[test]
    fn all_le_system_is_trivially_feasible() {
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, 1)], Relation::Le, 3);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));
        assert_eq!(m.duals(), vec![Ratio::zero()]);
        assert_eq!(m.pivots(), 0);
    }

    #[test]
    fn infeasible_duals_are_a_farkas_certificate() {
        // x <= 1, x >= 2: infeasible.
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, 1)], Relation::Le, 1);
        constraint(&mut p, &[(0, 1)], Relation::Ge, 2);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Infeasible));
        assert!(m.infeasibility().is_negative());
        let cert = FarkasCertificate { multipliers: m.duals() };
        assert!(cert.verify(&p), "master duals must certify infeasibility");
        // Same extraction as the one-shot certifier.
        assert_eq!(p.certify_infeasible(), Some(cert));
    }

    #[test]
    fn added_column_restores_feasibility() {
        // x <= 0 and x >= 1 conflict; a fresh column with a +1 entry in
        // the >=-row (a new object that can absorb the demand) fixes it.
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, 1)], Relation::Le, 0);
        constraint(&mut p, &[(0, 1)], Relation::Ge, 1);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Infeasible));

        // A column that only loads the <=-row cannot help.
        let useless = [(0usize, int(1))];
        assert!(!m.reduced_cost(&useless).is_positive());
        m.add_column(&useless);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Infeasible));

        // A column serving the >=-row prices positive and repairs it.
        let useful = [(1usize, int(1))];
        assert!(m.reduced_cost(&useful).is_positive());
        m.add_column(&useful);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));

        // Cross-check: the same extended system is feasible from scratch.
        let mut fresh = Problem::new();
        fresh.add_var("x");
        fresh.add_var("z_useless");
        fresh.add_var("z_useful");
        constraint(&mut fresh, &[(0, 1), (1, 1)], Relation::Le, 0);
        constraint(&mut fresh, &[(0, 1), (2, 1)], Relation::Ge, 1);
        assert!(fresh.feasible_point().is_some());
    }

    #[test]
    fn negated_rows_are_sign_adjusted() {
        // -x <= -3 standardizes negated (x >= 3); x <= 1 conflicts.
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, -1)], Relation::Le, -3);
        constraint(&mut p, &[(0, 1)], Relation::Le, 1);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Infeasible));
        let cert = FarkasCertificate { multipliers: m.duals() };
        assert!(cert.verify(&p));

        // Entries are given in *original* orientation: -1 in the negated
        // row means the new variable relaxes x >= 3.
        let col = [(0usize, int(-1))];
        assert!(m.reduced_cost(&col).is_positive());
        m.add_column(&col);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));
    }

    #[test]
    fn equality_rows_participate() {
        // x = 2 with x <= 1: infeasible until a column loads the =-row.
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, 1)], Relation::Eq, 2);
        constraint(&mut p, &[(0, 1)], Relation::Le, 1);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Infeasible));
        m.add_column(&[(0, int(1))]);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));
    }

    #[test]
    fn interruption_leaves_master_resumable() {
        let mut p = Problem::new();
        p.add_var("x");
        constraint(&mut p, &[(0, 1)], Relation::Ge, 1);
        constraint(&mut p, &[(0, 1)], Relation::Le, 3);
        let mut m = RestrictedMaster::new(&p);
        let hooks = SolveHooks { max_pivots: Some(0), poll: None };
        assert_eq!(m.solve(&hooks), Err(LpInterrupted));
        // Lifting the cap finishes the same solve.
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));
    }

    #[test]
    fn incremental_matches_fresh_solve_on_homogeneous_rows() {
        // The reasoner's shape: homogeneous >=-rows plus one inhomogeneous
        // target row. cc0 alone cannot satisfy "att of cc0 needs a filler"
        // until the filler column exists.
        //   row0 (target):   cc0            >= 1
        //   row1 (lower):    filler - cc0   >= 0
        let mut p = Problem::new();
        p.add_var("cc0");
        constraint(&mut p, &[(0, 1)], Relation::Ge, 1);
        constraint(&mut p, &[(0, -1)], Relation::Ge, 0);
        let mut m = RestrictedMaster::new(&p);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Infeasible));
        // The filler column enters row1 with +1.
        let filler = [(1usize, int(1))];
        assert!(m.reduced_cost(&filler).is_positive());
        m.add_column(&filler);
        assert_eq!(m.solve(&SolveHooks::default()), Ok(MasterStatus::Feasible));

        let mut fresh = Problem::new();
        fresh.add_var("cc0");
        fresh.add_var("filler");
        constraint(&mut fresh, &[(0, 1)], Relation::Ge, 1);
        constraint(&mut fresh, &[(0, -1), (1, 1)], Relation::Ge, 0);
        assert!(fresh.feasible_point().is_some());
    }
}
