//! Support analysis for homogeneous systems.
//!
//! The system `ΨS` built from a CAR schema expansion is *homogeneous*
//! (every disequation has a zero constant term), so its solution set over
//! nonnegative variables is a convex cone: closed under addition and
//! under scaling by positive rationals. Two consequences drive phase 2 of
//! the satisfiability algorithm:
//!
//! 1. a variable is positive in *some* solution iff the system stays
//!    feasible with `x ≥ 1` added (scale any witness), and
//! 2. the sum of such witnesses is a single solution positive on the
//!    entire support — the "maximal" solution used by Theorem 3.3.
//!
//! The cone of a block-diagonal system is the product of its block
//! cones, so the analysis runs on each block of unknowns that share no
//! row with the rest on its own (§4.4's independent clusters cost what
//! they cost alone).
//!
//! Rational solutions scale to integer ones by clearing denominators
//! ([`scale_to_integers`]), which is exactly the integer-solution argument
//! the paper borrows from [LN90] and [Pap81] in Theorem 4.3.

use crate::expr::{LinExpr, VarId};
use crate::problem::{Problem, Relation};
use crate::simplex::{LpInterrupted, SolveHooks};
use car_arith::{lcm, BigInt, Ratio};

/// Result of [`support`]: which variables can be strictly positive, and a
/// single solution witnessing all of them at once.
#[derive(Debug, Clone)]
pub struct SupportAnalysis {
    /// `in_support[j]` iff variable `j` is positive in some solution.
    pub in_support: Vec<bool>,
    /// A solution of the system that is strictly positive on exactly the
    /// variables in the support (all-zero when the support is empty).
    pub witness: Vec<Ratio>,
    /// Number of LP solves run (for statistics). An unknown in no row
    /// needs none.
    pub lp_calls: usize,
}

/// Computes the support of the solution cone of a homogeneous problem.
///
/// Runs at most one LP feasibility test per variable, block by block
/// (see [`try_support`]); every returned witness short-circuits the
/// variables it already proves positive.
///
/// # Panics
/// Panics if the problem is not homogeneous (the cone reasoning would be
/// unsound otherwise).
#[must_use]
pub fn support(problem: &Problem) -> SupportAnalysis {
    match try_support(problem, &SolveHooks::default()) {
        Ok(analysis) => analysis,
        Err(LpInterrupted) => unreachable!("default hooks never interrupt"),
    }
}

/// [`support`] with cooperative interruption: the `hooks` are threaded
/// into every underlying LP solve and polled once per simplex pivot.
///
/// The system is solved block by block. Two variables share a block when
/// some row mentions both (transitively), so distinct blocks share no
/// unknown and the cone is the product of the block cones: a variable's
/// support and a block's witness do not depend on the other blocks, and
/// the block witnesses together solve the whole system. A variable in no
/// row is unconstrained, so it is in the support with witness 1 and costs
/// no LP.
///
/// # Errors
/// [`LpInterrupted`] as soon as the hooks say stop.
///
/// # Panics
/// Panics if the problem is not homogeneous.
pub fn try_support(
    problem: &Problem,
    hooks: &SolveHooks<'_>,
) -> Result<SupportAnalysis, LpInterrupted> {
    assert!(
        problem.is_homogeneous(),
        "support analysis requires a homogeneous system"
    );
    let n = problem.num_vars();
    let mut in_support = vec![false; n];
    let mut witness = vec![Ratio::zero(); n];
    let mut lp_calls = 0;
    for block in blocks(problem) {
        if block.rows.is_empty() {
            // Only a row joins variables, so this is one free variable.
            let j = block.vars[0];
            in_support[j] = true;
            witness[j] = Ratio::one();
            continue;
        }
        let part = block_support(&block.problem(problem), hooks)?;
        lp_calls += part.lp_calls;
        for (k, &j) in block.vars.iter().enumerate() {
            in_support[j] = part.in_support[k];
            witness[j] = part.witness[k].clone();
        }
    }

    debug_assert!(problem.check_point(&witness));
    debug_assert!((0..n).all(|j| in_support[j] == witness[j].is_positive()));
    Ok(SupportAnalysis { in_support, witness, lp_calls })
}

/// A connected component of the row/variable incidence graph: its
/// variables and the rows that mention them, both in increasing order.
struct Block {
    vars: Vec<usize>,
    rows: Vec<usize>,
}

impl Block {
    /// The block's rows over its own variables, renumbered `0..vars.len()`
    /// in their original order.
    fn problem(&self, whole: &Problem) -> Problem {
        let mut p = Problem::new();
        for &j in &self.vars {
            p.add_var(whole.var_name(VarId(j)));
        }
        for &r in &self.rows {
            let c = &whole.constraints()[r];
            let mut expr = LinExpr::zero();
            for (v, coeff) in c.expr.iter() {
                let local = self.vars.binary_search(&v.index()).expect("row stays in its block");
                expr.add_term(VarId(local), coeff.clone());
            }
            p.add_constraint(expr, c.rel, c.rhs.clone());
        }
        p
    }
}

/// Splits `problem` into its [`Block`]s by union-find over each row's
/// variables, ordered by their smallest variable. A row with no variable
/// (`0 ⋈ 0`, true everywhere) belongs to no block.
fn blocks(problem: &Problem) -> Vec<Block> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let n = problem.num_vars();
    let mut parent: Vec<usize> = (0..n).collect();
    for c in problem.constraints() {
        let mut vars = c.expr.iter().map(|(v, _)| v.index());
        let Some(first) = vars.next() else { continue };
        for v in vars {
            let (a, b) = (find(&mut parent, first), find(&mut parent, v));
            parent[a] = b;
        }
    }
    let mut block_of_root = vec![usize::MAX; n];
    let mut out: Vec<Block> = Vec::new();
    for j in 0..n {
        let root = find(&mut parent, j);
        if block_of_root[root] == usize::MAX {
            block_of_root[root] = out.len();
            out.push(Block { vars: Vec::new(), rows: Vec::new() });
        }
        out[block_of_root[root]].vars.push(j);
    }
    for (r, c) in problem.constraints().iter().enumerate() {
        if let Some((v, _)) = c.expr.iter().next() {
            let root = find(&mut parent, v.index());
            out[block_of_root[root]].rows.push(r);
        }
    }
    out
}

/// The support of one block's cone, by positivity probes. Runs at most
/// one LP feasibility test per variable; every returned witness
/// short-circuits the variables it already proves positive.
fn block_support(
    problem: &Problem,
    hooks: &SolveHooks<'_>,
) -> Result<SupportAnalysis, LpInterrupted> {
    let n = problem.num_vars();
    let mut in_support = vec![false; n];
    let mut decided = vec![false; n];
    let mut witness = vec![Ratio::zero(); n];
    let mut lp_calls = 0;

    let absorb = |point: &[Ratio],
                  witness: &mut Vec<Ratio>,
                  in_support: &mut Vec<bool>,
                  decided: &mut Vec<bool>| {
        for (k, v) in point.iter().enumerate().take(n) {
            witness[k] += v;
            if v.is_positive() {
                in_support[k] = true;
                decided[k] = true;
            }
        }
    };

    // The `Each` probe adds one row per probed variable; exact-rational
    // tableaus that tall develop enormous subdeterminant entries, so it
    // is only worthwhile once few variables remain. Until then the
    // single-row `Some` probe absorbs the support in vertex-sized
    // batches.
    const ALL_PROBE_LIMIT: usize = 96;
    loop {
        let undecided: Vec<usize> = (0..n).filter(|&j| !decided[j]).collect();
        if undecided.is_empty() {
            break;
        }
        // Optimistic probe: can all still-undecided variables be positive
        // simultaneously? (In category-β schemas this succeeds immediately,
        // collapsing the whole block to one LP call.)
        if undecided.len() <= ALL_PROBE_LIMIT {
            lp_calls += 1;
            if let Some(point) = positivity_probe(problem, &undecided, ProbeMode::Each, hooks)? {
                absorb(&point, &mut witness, &mut in_support, &mut decided);
                debug_assert!(undecided.iter().all(|&j| decided[j]));
                break;
            }
        }
        // Pessimistic probe: can ANY still-undecided variable be positive?
        // If not, all of them are forced to zero — settled in one call.
        // Otherwise the witness proves at least one more variable positive,
        // guaranteeing progress: at most |support| + 2 calls total.
        lp_calls += 1;
        match positivity_probe(problem, &undecided, ProbeMode::Some, hooks)? {
            Some(point) => {
                let before: usize = decided.iter().filter(|&&d| d).count();
                absorb(&point, &mut witness, &mut in_support, &mut decided);
                debug_assert!(
                    decided.iter().filter(|&&d| d).count() > before,
                    "sum-probe witness must decide at least one variable"
                );
            }
            None => {
                for &j in &undecided {
                    decided[j] = true; // all remaining are forced to zero
                }
            }
        }
    }
    Ok(SupportAnalysis { in_support, witness, lp_calls })
}

/// How a positivity probe quantifies over its variable set.
enum ProbeMode {
    /// Every listed variable must be simultaneously positive.
    Each,
    /// At least one listed variable must be positive.
    Some,
}

/// Decides whether the cone contains a point positive on the probe set
/// (in the [`ProbeMode`] sense) and returns such a point.
///
/// Rather than bolting `x_j ≥ 1` rows onto the system — inhomogeneous
/// rows that force the simplex through a full phase 1 with one artificial
/// variable each — the `Each` probe maximizes a fresh variable `t`
/// subject to `x_j − t ≥ 0` and `t ≤ 1`, and the `Some` probe maximizes
/// `Σ x_j` subject to `x_j ≤ 1`. The added rows either have a zero
/// right-hand side or are `≤` rows with a positive one, and
/// standardization turns every zero-right-hand-side `≥` row into a `≤`
/// row, so each probe starts from a feasible all-slack basis and skips
/// phase 1. By the cone's scalability, the probe succeeds iff the
/// optimum is strictly positive.
fn positivity_probe(
    problem: &Problem,
    vars: &[usize],
    mode: ProbeMode,
    hooks: &SolveHooks<'_>,
) -> Result<Option<Vec<Ratio>>, LpInterrupted> {
    let mut p = problem.clone();
    let t = p.add_var("probe_t");
    match mode {
        ProbeMode::Each => {
            for &j in vars {
                let mut expr = LinExpr::var(VarId(j));
                expr.add_term(t, -Ratio::one());
                p.add_constraint(expr, Relation::Ge, Ratio::zero());
            }
        }
        ProbeMode::Some => {
            // Box each probed variable at 1 and maximize their sum: the
            // optimum is positive iff some probed variable can be
            // positive, and — unlike a thin `max t` objective, which
            // stops at a sparse vertex — sum-maximization drives *most*
            // of the reachable support to its box bound, so one call
            // absorbs a large batch.
            let mut objective = LinExpr::zero();
            for &j in vars {
                objective.add_term(VarId(j), Ratio::one());
                p.add_constraint(LinExpr::var(VarId(j)), Relation::Le, Ratio::one());
            }
            return match p.maximize_with_hooks(&objective, hooks)? {
                crate::SolveResult::Optimal { value, mut point } if value.is_positive() => {
                    point.truncate(problem.num_vars());
                    debug_assert!(problem.check_point(&point));
                    Ok(Some(point))
                }
                crate::SolveResult::Optimal { .. } => Ok(None),
                other => {
                    unreachable!("probe is feasible (x = 0) and box-bounded: {other:?}")
                }
            };
        }
    }
    p.add_constraint(LinExpr::var(t), Relation::Le, Ratio::one());
    match p.maximize_with_hooks(&LinExpr::var(t), hooks)? {
        crate::SolveResult::Optimal { value, mut point } if value.is_positive() => {
            point.truncate(problem.num_vars());
            debug_assert!(problem.check_point(&point));
            Ok(Some(point))
        }
        crate::SolveResult::Optimal { .. } => Ok(None),
        other => unreachable!("probe is feasible (x = 0) and bounded (t ≤ 1): {other:?}"),
    }
}

/// Scales a nonnegative rational solution of a homogeneous system to the
/// smallest integer multiple: multiplies by the least common multiple of
/// all denominators and returns the resulting integers.
#[must_use]
pub fn scale_to_integers(point: &[Ratio]) -> Vec<BigInt> {
    let mut scale = BigInt::one();
    for v in point {
        scale = lcm(&scale, v.denom());
    }
    point
        .iter()
        .map(|v| {
            let scaled = v * &Ratio::from_integer(scale.clone());
            debug_assert!(scaled.is_integer());
            scaled.numer().clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::int;
    use proptest::prelude::*;

    fn homogeneous(pairs: &[(&[(usize, i64)], Relation)], n: usize) -> Problem {
        let mut p = Problem::new();
        for i in 0..n {
            p.add_var(format!("x{i}"));
        }
        for (terms, rel) in pairs {
            let expr = LinExpr::from_terms(terms.iter().map(|&(v, c)| (VarId(v), c)));
            p.add_constraint(expr, *rel, Ratio::zero());
        }
        p
    }

    #[test]
    fn all_variables_free_cone() {
        // No constraints: everything is in the support.
        let p = homogeneous(&[], 3);
        let s = support(&p);
        assert_eq!(s.in_support, vec![true, true, true]);
        assert!(s.witness.iter().all(Ratio::is_positive));
    }

    #[test]
    fn forced_zero_variable() {
        // x0 <= 0 forces x0 = 0; x1 stays free.
        let p = homogeneous(&[(&[(0, 1)], Relation::Le)], 2);
        let s = support(&p);
        assert_eq!(s.in_support, vec![false, true]);
        assert!(s.witness[0].is_zero());
        assert!(s.witness[1].is_positive());
    }

    #[test]
    fn chained_implications() {
        // x0 <= x1, x1 <= x2: all can be positive together.
        let p = homogeneous(
            &[
                (&[(0, 1), (1, -1)], Relation::Le),
                (&[(1, 1), (2, -1)], Relation::Le),
            ],
            3,
        );
        let s = support(&p);
        assert_eq!(s.in_support, vec![true, true, true]);
    }

    #[test]
    fn mutual_exclusion_still_in_joint_support() {
        // 2·x0 <= x1 and 2·x1 <= x0 force both to zero.
        let p = homogeneous(
            &[
                (&[(0, 2), (1, -1)], Relation::Le),
                (&[(1, 2), (0, -1)], Relation::Le),
            ],
            2,
        );
        let s = support(&p);
        assert_eq!(s.in_support, vec![false, false]);
        assert!(s.witness.iter().all(Ratio::is_zero));
    }

    #[test]
    fn lp_call_count_is_bounded_by_vars() {
        // No rows: every variable is unconstrained and needs no LP.
        let p = homogeneous(&[], 5);
        let s = support(&p);
        assert_eq!(s.lp_calls, 0);
        assert!(s.witness.iter().all(|w| *w == Ratio::one()));
        // One row over all five: one witness proves them all positive.
        let p = homogeneous(&[(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, -1)], Relation::Ge)], 5);
        let s = support(&p);
        assert_eq!(s.in_support, vec![true; 5]);
        assert_eq!(s.lp_calls, 1);
    }

    #[test]
    #[should_panic(expected = "homogeneous")]
    fn non_homogeneous_input_panics() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(LinExpr::var(x), Relation::Le, int(3));
        let _ = support(&p);
    }

    #[test]
    fn scale_to_integers_clears_denominators() {
        let point = vec![
            Ratio::new(1.into(), 2.into()),
            Ratio::new(2.into(), 3.into()),
            Ratio::zero(),
        ];
        let ints = scale_to_integers(&point);
        assert_eq!(ints, vec![BigInt::from(3), BigInt::from(4), BigInt::zero()]);
    }

    #[test]
    fn scale_to_integers_identity_on_integers() {
        let point = vec![int(3), int(0), int(7)];
        let ints = scale_to_integers(&point);
        assert_eq!(ints, vec![BigInt::from(3), BigInt::zero(), BigInt::from(7)]);
    }

    /// Random homogeneous problems made of independent blocks: each block
    /// is `(size, rows)`, a row is `(coefficients, relation)`, and the
    /// blocks' variables are shuffled together by `seed` so that no block
    /// occupies a contiguous index range.
    fn arb_block_diagonal() -> impl Strategy<Value = Problem> {
        let row = (proptest::collection::vec(-3i64..4, 4), 0u8..3);
        let block = (1usize..5, proptest::collection::vec(row, 0..5));
        (proptest::collection::vec(block, 1..5), any::<u64>()).prop_map(|(blocks, seed)| {
            let n: usize = blocks.iter().map(|(size, _)| size).sum();
            let mut order: Vec<usize> = (0..n).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let mut p = Problem::new();
            for i in 0..n {
                p.add_var(format!("x{i}"));
            }
            let mut first = 0;
            for (size, rows) in blocks {
                for (coeffs, rel) in rows {
                    let terms = (0..size).map(|i| (VarId(order[first + i]), coeffs[i]));
                    let rel = match rel {
                        0 => Relation::Le,
                        1 => Relation::Ge,
                        _ => Relation::Eq,
                    };
                    p.add_constraint(LinExpr::from_terms(terms), rel, Ratio::zero());
                }
                first += size;
            }
            p
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_support_matches_per_variable_feasibility(p in arb_block_diagonal()) {
            let s = support(&p);
            for j in 0..p.num_vars() {
                // The definition, checked through phase 1: `x_j ≥ 1` is an
                // inhomogeneous row, so it starts with an artificial.
                let mut probe = p.clone();
                probe.add_constraint(LinExpr::var(VarId(j)), Relation::Ge, Ratio::one());
                let feasible = probe.feasible_point().is_some();
                prop_assert_eq!(s.in_support[j], feasible, "x{} in\n{}", j, p);
                prop_assert_eq!(s.in_support[j], s.witness[j].is_positive());
            }
            prop_assert!(p.check_point(&s.witness), "witness fails\n{}", p);
            prop_assert!(s.lp_calls <= 2 * p.num_vars());
        }
    }

    #[test]
    fn try_support_honors_interruption_hooks() {
        let p = homogeneous(
            &[
                (&[(0, 1), (1, -1)], Relation::Le),
                (&[(1, 1), (2, -1)], Relation::Le),
            ],
            3,
        );
        let stop = || true;
        let hooks = SolveHooks { max_pivots: None, poll: Some(&stop) };
        assert!(matches!(try_support(&p, &hooks), Err(LpInterrupted)));
        let lenient = SolveHooks::default();
        let s = try_support(&p, &lenient).unwrap();
        assert_eq!(s.in_support, support(&p).in_support);
    }
}
