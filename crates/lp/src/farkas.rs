//! Farkas certificates of infeasibility.
//!
//! When a system `{ A·x {≤,≥,=} b, x ≥ 0 }` has no solution, a *Farkas
//! certificate* is a vector of constraint multipliers whose combination
//! is self-contradictory: multipliers are nonnegative on `≤`-rows,
//! nonpositive on `≥`-rows and free on `=`-rows; the combined coefficient
//! of every variable is nonnegative while the combined right-hand side is
//! negative. Any `x ≥ 0` would then satisfy
//! `0 ≤ (Σ zᵢ aᵢ)·x ≤ Σ zᵢ bᵢ < 0` — impossible.
//!
//! Certificates are *checkable without trusting the solver*:
//! [`FarkasCertificate::verify`] re-evaluates the combination with exact
//! arithmetic directly against the problem. The CAR reasoner uses this
//! to make unsatisfiability answers independently auditable, mirroring
//! how extracted models make satisfiability answers auditable.

use crate::expr::LinExpr;
use crate::problem::{Problem, Relation};
use car_arith::Ratio;

/// An infeasibility certificate: one multiplier per constraint, in the
/// order the constraints were added to the [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarkasCertificate {
    /// The constraint multipliers `zᵢ`.
    pub multipliers: Vec<Ratio>,
}

impl FarkasCertificate {
    /// Checks the certificate against a problem with exact arithmetic:
    ///
    /// 1. sign conditions: `zᵢ ≥ 0` for `≤`-constraints, `zᵢ ≤ 0` for
    ///    `≥`-constraints (equalities are free);
    /// 2. `Σ zᵢ aᵢⱼ ≥ 0` for every variable `j`;
    /// 3. `Σ zᵢ bᵢ < 0`.
    ///
    /// A `true` result proves — independently of any simplex run — that
    /// no `x ≥ 0` satisfies all constraints.
    #[must_use]
    pub fn verify(&self, problem: &Problem) -> bool {
        if self.multipliers.len() != problem.num_constraints() {
            return false;
        }
        let mut combined = LinExpr::zero();
        let mut rhs = Ratio::zero();
        for (constraint, z) in problem.constraints().iter().zip(&self.multipliers) {
            match constraint.rel {
                Relation::Le if z.is_negative() => return false,
                Relation::Ge if z.is_positive() => return false,
                _ => {}
            }
            if z.is_zero() {
                continue;
            }
            combined.add_scaled(&constraint.expr, z);
            rhs += &(z * &constraint.rhs);
        }
        combined.iter().all(|(_, coeff)| !coeff.is_negative()) && rhs.is_negative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{int, VarId};

    fn ge(p: &mut Problem, terms: &[(usize, i64)], rhs: i64) {
        p.add_constraint(
            LinExpr::from_terms(terms.iter().map(|&(v, c)| (VarId(v), c))),
            Relation::Ge,
            int(rhs),
        );
    }
    fn le(p: &mut Problem, terms: &[(usize, i64)], rhs: i64) {
        p.add_constraint(
            LinExpr::from_terms(terms.iter().map(|&(v, c)| (VarId(v), c))),
            Relation::Le,
            int(rhs),
        );
    }

    #[test]
    fn hand_built_certificate_verifies() {
        // x >= 2 and x <= 1: multipliers z = (-1, 1):
        // -1·(x) + 1·(x) = 0 >= 0 coefficients; rhs -2 + 1 = -1 < 0.
        let mut p = Problem::new();
        p.add_var("x");
        ge(&mut p, &[(0, 1)], 2);
        le(&mut p, &[(0, 1)], 1);
        let cert = FarkasCertificate { multipliers: vec![-int(1), int(1)] };
        assert!(cert.verify(&p));
    }

    #[test]
    fn wrong_signs_or_lengths_are_rejected() {
        let mut p = Problem::new();
        p.add_var("x");
        ge(&mut p, &[(0, 1)], 2);
        le(&mut p, &[(0, 1)], 1);
        // Positive multiplier on the >=-row: sign violation.
        let bad = FarkasCertificate { multipliers: vec![int(1), int(1)] };
        assert!(!bad.verify(&p));
        // Wrong length.
        let short = FarkasCertificate { multipliers: vec![int(1)] };
        assert!(!short.verify(&p));
        // Valid signs but no contradiction (combined rhs >= 0).
        let weak = FarkasCertificate { multipliers: vec![Ratio::zero(), int(1)] };
        assert!(!weak.verify(&p));
    }

    #[test]
    fn certificate_for_feasible_system_cannot_verify() {
        let mut p = Problem::new();
        p.add_var("x");
        le(&mut p, &[(0, 1)], 5);
        for z in [int(1), int(0), -int(3)] {
            let cert = FarkasCertificate { multipliers: vec![z] };
            // Soundness of the checker: a feasible system admits no
            // verifying certificate whatsoever.
            assert!(!cert.verify(&p) || p.feasible_point().is_none());
        }
    }

    #[test]
    fn extracted_certificates_verify_on_infeasible_systems() {
        // A family of infeasible systems; the solver-extracted
        // certificate must verify on each.
        let mut cases: Vec<Problem> = Vec::new();
        {
            let mut p = Problem::new();
            p.add_var("x");
            ge(&mut p, &[(0, 1)], 3);
            le(&mut p, &[(0, 1)], 2);
            cases.push(p);
        }
        {
            // x + y >= 4, x <= 1, y <= 2.
            let mut p = Problem::new();
            p.add_var("x");
            p.add_var("y");
            ge(&mut p, &[(0, 1), (1, 1)], 4);
            le(&mut p, &[(0, 1)], 1);
            le(&mut p, &[(1, 1)], 2);
            cases.push(p);
        }
        {
            // Equality clash: x + y = 1, x + y >= 3.
            let mut p = Problem::new();
            p.add_var("x");
            p.add_var("y");
            p.add_constraint(
                LinExpr::from_terms([(VarId(0), 1), (VarId(1), 1)]),
                Relation::Eq,
                int(1),
            );
            ge(&mut p, &[(0, 1), (1, 1)], 3);
            cases.push(p);
        }
        {
            // Homogeneous + probe shape (the reasoner's use-case):
            // 2x <= y, 2y <= x force both zero; x >= 1 contradicts.
            let mut p = Problem::new();
            p.add_var("x");
            p.add_var("y");
            le(&mut p, &[(0, 2), (1, -1)], 0);
            le(&mut p, &[(1, 2), (0, -1)], 0);
            ge(&mut p, &[(0, 1)], 1);
            cases.push(p);
        }
        {
            // The same with zero-right-hand-side `≥` rows, which
            // standardization negates into `≤` rows: x >= 2y, y >= 2x.
            let mut p = Problem::new();
            p.add_var("x");
            p.add_var("y");
            ge(&mut p, &[(0, 1), (1, -2)], 0);
            ge(&mut p, &[(1, 1), (0, -2)], 0);
            ge(&mut p, &[(0, 1)], 1);
            cases.push(p);
        }
        for (i, p) in cases.iter().enumerate() {
            assert!(p.feasible_point().is_none(), "case {i} must be infeasible");
            let cert = p
                .certify_infeasible()
                .unwrap_or_else(|| panic!("case {i}: no certificate extracted"));
            assert!(cert.verify(p), "case {i}: certificate failed verification");
        }
    }

    mod properties {
        use super::*;
        use crate::expr::VarId;
        use crate::Relation;
        use proptest::prelude::*;

        fn arb_problem() -> impl Strategy<Value = Problem> {
            let constraint =
                (proptest::collection::vec(-3i64..4, 3), 0usize..3, -6i64..7);
            proptest::collection::vec(constraint, 1..6).prop_map(|rows| {
                let mut p = Problem::new();
                for i in 0..3 {
                    p.add_var(format!("v{i}"));
                }
                for (coeffs, rel, rhs) in rows {
                    let expr = LinExpr::from_terms(
                        coeffs.iter().enumerate().map(|(v, &c)| (VarId(v), c)),
                    );
                    let rel = match rel {
                        0 => Relation::Le,
                        1 => Relation::Ge,
                        _ => Relation::Eq,
                    };
                    p.add_constraint(expr, rel, int(rhs));
                }
                p
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Exactly one of: a feasible point, or a verifying Farkas
            /// certificate — never both, never neither.
            #[test]
            fn prop_feasibility_dichotomy(p in arb_problem()) {
                match (p.feasible_point(), p.certify_infeasible()) {
                    (Some(point), None) => prop_assert!(p.check_point(&point)),
                    (None, Some(cert)) => prop_assert!(cert.verify(&p)),
                    (feas, cert) => prop_assert!(
                        false,
                        "dichotomy violated: feasible={} cert={}",
                        feas.is_some(),
                        cert.is_some()
                    ),
                }
            }
        }
    }

    #[test]
    fn feasible_system_yields_no_certificate() {
        let mut p = Problem::new();
        p.add_var("x");
        ge(&mut p, &[(0, 1)], 1);
        le(&mut p, &[(0, 1)], 2);
        assert!(p.certify_infeasible().is_none());
    }
}
