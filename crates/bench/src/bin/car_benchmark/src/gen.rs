//! Seeded input generators and the answers known by construction.
//!
//! Every schema the benchmark sends is rendered here as DSL text, and
//! every expected answer comes from a rule stated next to its generator —
//! never from running `car_core`. `tests/certificates.rs` confirms a
//! sample of each rule with certificates the reasoner cannot fake.

/// SplitMix64: the only source of randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed; distinct `stream`s of one seed are
    /// independent (one per workload part).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range(0, n as u64 - 1) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }

    /// `n` draws from `options` in which every option appears equally
    /// often (up to rounding), in random order: inputs vary with the seed
    /// while each run keeps the same mix, so runs with different seeds
    /// measure the same work.
    pub fn deck<T: Clone>(&mut self, options: &[T], n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n + options.len());
        while out.len() < n {
            let mut block = options.to_vec();
            self.shuffle(&mut block);
            out.extend(block);
        }
        out.truncate(n);
        out
    }

    /// `n` Poisson arrival times on `[0, seconds)`: the order statistics
    /// of uniform draws, i.e. a Poisson process conditioned on exactly
    /// `n` arrivals, so every run offers the same amount of work.
    pub fn arrivals(&mut self, n: usize, seconds: f64) -> Vec<f64> {
        let mut out: Vec<f64> = (0..n).map(|_| self.unit() * seconds).collect();
        out.sort_by(f64::total_cmp);
        out
    }
}

// ---------------------------------------------------------------------
// Figure 2 and its module copies
// ---------------------------------------------------------------------

/// The six named classes of Figure 2 (`String` is only an attribute
/// type).
pub const NAMED: [&str; 6] = [
    "Person",
    "Professor",
    "Student",
    "Grad_Student",
    "Course",
    "Adv_Course",
];

/// Figure 2's strict subsumptions `(sup, sub)`, as the paper states them.
pub const SUBSUMPTIONS: [(&str, &str); 5] = [
    ("Person", "Professor"),
    ("Person", "Student"),
    ("Student", "Grad_Student"),
    ("Person", "Grad_Student"),
    ("Course", "Adv_Course"),
];

/// Figure 2's disjoint pairs: "students cannot be professors", and so
/// neither can graduate students.
pub const DISJOINT: [(&str, &str); 2] = [("Student", "Professor"), ("Grad_Student", "Professor")];

/// Figure 2 with every class, attribute and relation name suffixed and
/// `Grad_Student`'s `Enrollment[enrolls]` bounds set to `card`. Role
/// names are per relation and stay unsuffixed. With distinct suffixes,
/// copies share no symbol, so each copy is its own §4.4 cluster.
#[must_use]
pub fn fig2_module(sfx: &str, card: (u64, u64)) -> String {
    let (a, b) = card;
    format!(
        "class Person{sfx}
  attributes name{sfx} : (1, 1) String{sfx};
             date_of_birth{sfx} : (1, 1) String{sfx}
endclass
class Professor{sfx}
  isa Person{sfx}
  attributes (inv taught_by{sfx}) : (1, 2) Course{sfx}
endclass
class Student{sfx}
  isa Person{sfx} and not Professor{sfx}
  attributes student_id{sfx} : (1, 1) String{sfx}
  participates_in Enrollment{sfx}[enrolls] : (1, 6)
endclass
class Grad_Student{sfx}
  isa Student{sfx}
  attributes (inv taught_by{sfx}) : (0, 1) Course{sfx}
  participates_in Enrollment{sfx}[enrolls] : ({a}, {b})
endclass
class Course{sfx}
  attributes taught_by{sfx} : (1, 1) Professor{sfx} or Grad_Student{sfx}
  participates_in Enrollment{sfx}[enrolled_in] : (5, 100)
endclass
class Adv_Course{sfx}
  isa Course{sfx}
  attributes taught_by{sfx} : (1, 1) Professor{sfx}
  participates_in Enrollment{sfx}[enrolled_in] : (5, 20)
endclass
relation Enrollment{sfx}(enrolled_in, enrolls)
  constraints (enrolled_in : Course{sfx});
              (enrolls : Student{sfx});
              (enrolled_in : not Adv_Course{sfx}) or (enrolls : Grad_Student{sfx})
endrelation
relation Exam{sfx}(of, by, in)
  constraints (of : Student{sfx});
              (by : Professor{sfx});
              (in : Course{sfx})
endrelation
"
    )
}

/// The paper's Figure 2, verbatim apart from ASCII.
#[must_use]
pub fn figure2() -> String {
    fig2_module("", (2, 3))
}

/// The name suffix of module `i` in [`fig2_modules`].
#[must_use]
pub fn module_suffix(i: usize) -> String {
    format!("_m{i}")
}

/// `bounds.len()` copies of Figure 2, copy `i` suffixed `_m<i>` with
/// `Grad_Student_m<i>`'s enrollment bounds `bounds[i]`.
#[must_use]
pub fn fig2_modules(bounds: &[(u64, u64)]) -> String {
    bounds
        .iter()
        .enumerate()
        .map(|(i, &card)| fig2_module(&module_suffix(i), card))
        .collect()
}

/// §1's refinement: a graduate student must enroll in at least `a`
/// courses while every student enrolls in at most 6, so `Grad_Student`
/// is empty iff `a ≥ 7` — and `Adv_Course`, which needs five graduate
/// enrollments, with it. Nothing else in the copy is affected.
#[must_use]
pub fn module_unsat(card: (u64, u64)) -> bool {
    card.0 >= 7
}

/// Random `Grad_Student` bounds on the given side of the `a ≥ 7` line:
/// `a` in 1..=6 or 7..=9, `b` in `a..=a+3`.
pub fn card(rng: &mut Rng, unsat: bool) -> (u64, u64) {
    let a = if unsat {
        rng.range(7, 9)
    } else {
        rng.range(1, 6)
    };
    (a, rng.range(a, a + 3))
}

/// The expected unsatisfiable classes of [`fig2_modules`], sorted.
#[must_use]
pub fn modules_unsat(bounds: &[(u64, u64)]) -> Vec<String> {
    let mut out: Vec<String> = bounds
        .iter()
        .enumerate()
        .filter(|&(_, &card)| module_unsat(card))
        .flat_map(|(i, _)| {
            let sfx = module_suffix(i);
            [format!("Grad_Student{sfx}"), format!("Adv_Course{sfx}")]
        })
        .collect();
    out.sort();
    out
}

/// A query over Figure 2's named classes (the shared-workspace mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig2Query {
    /// `{"kind":"subsumes","sup":…,"sub":…}`
    Subsumes(&'static str, &'static str),
    /// `{"kind":"disjoint","a":…,"b":…}`
    Disjoint(&'static str, &'static str),
    /// `{"kind":"equivalent","a":…,"b":…}`
    Equivalent(&'static str, &'static str),
    /// `{"kind":"satisfiable","class":…}`
    Satisfiable(&'static str),
}

impl Fig2Query {
    /// A uniformly random query over [`NAMED`].
    pub fn random(rng: &mut Rng) -> Fig2Query {
        let a = NAMED[rng.index(NAMED.len())];
        let b = NAMED[rng.index(NAMED.len())];
        match rng.index(4) {
            0 => Fig2Query::Subsumes(a, b),
            1 => Fig2Query::Disjoint(a, b),
            2 => Fig2Query::Equivalent(a, b),
            _ => Fig2Query::Satisfiable(a),
        }
    }

    /// The answer on Figure 2: the five subsumptions (plus reflexivity),
    /// the two disjoint pairs, no two distinct classes equivalent, every
    /// class satisfiable.
    #[must_use]
    pub fn expected(self) -> bool {
        let pair_in =
            |set: &[(&str, &str)], x: &str, y: &str| set.iter().any(|&(p, q)| (p, q) == (x, y));
        match self {
            Fig2Query::Subsumes(sup, sub) => sup == sub || pair_in(&SUBSUMPTIONS, sup, sub),
            Fig2Query::Disjoint(a, b) => pair_in(&DISJOINT, a, b) || pair_in(&DISJOINT, b, a),
            Fig2Query::Equivalent(a, b) => a == b,
            Fig2Query::Satisfiable(_) => true,
        }
    }

    /// The query as a wire JSON object.
    #[must_use]
    pub fn wire(self) -> String {
        match self {
            Fig2Query::Subsumes(sup, sub) => {
                format!(r#"{{"kind":"subsumes","sup":"{sup}","sub":"{sub}"}}"#)
            }
            Fig2Query::Disjoint(a, b) => format!(r#"{{"kind":"disjoint","a":"{a}","b":"{b}"}}"#),
            Fig2Query::Equivalent(a, b) => {
                format!(r#"{{"kind":"equivalent","a":"{a}","b":"{b}"}}"#)
            }
            Fig2Query::Satisfiable(c) => format!(r#"{{"kind":"satisfiable","class":"{c}"}}"#),
        }
    }
}

// ---------------------------------------------------------------------
// The cold-classification corpus
// ---------------------------------------------------------------------

/// The four corpus families. Their cost ranges overlap (roughly
/// 2–60 ms per item on one core) so the latency percentiles of the mix
/// move smoothly with each family instead of sitting on a gap between
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `fig2_modules(3..=8)` with random bounds: preselection clusters
    /// plus an LP whose size grows with the module count.
    Modules,
    /// Geometric-growth attribute chains: few pivots over large exact
    /// rationals (`car_arith`-bound LP).
    Chain,
    /// Generalization trees plus classification: the hierarchy fast
    /// path and the implication sweep.
    Hierarchy,
    /// Pigeonhole blocks: DPLL refutation, no LP at all.
    Pigeonhole,
}

/// Families in corpus order; item `i` belongs to `FAMILIES[i % 4]`.
pub const FAMILIES: [Family; 4] = [
    Family::Modules,
    Family::Chain,
    Family::Hierarchy,
    Family::Pigeonhole,
];

impl Family {
    /// Stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Family::Modules => "modules",
            Family::Chain => "chain",
            Family::Hierarchy => "hierarchy",
            Family::Pigeonhole => "pigeonhole",
        }
    }
}

/// One corpus item: schema text plus its answers known by construction.
#[derive(Debug, Clone)]
pub struct Item {
    /// The generator family.
    pub family: Family,
    /// Schema DSL text.
    pub text: String,
    /// Expected unsatisfiable classes, sorted.
    pub unsat: Vec<String>,
    /// Expected strict subsumptions `(sup, sub)`, sorted, when the item
    /// asks for a classification.
    pub classification: Option<Vec<(String, String)>>,
}

/// A generalization tree of `depth` levels below the root `N` with
/// `branching` children per node; child `k` isa its parent and not its
/// earlier siblings, so siblings are disjoint. Nodes are named by their
/// path (`N_0_1`). Returns the text and, for the classification rule,
/// every (ancestor, descendant) pair — each node is a subclass of exactly
/// its ancestors, and every class is satisfiable.
#[must_use]
pub fn hierarchy(depth: usize, branching: usize) -> (String, Vec<(String, String)>) {
    let mut text = String::from("class N endclass\n");
    let mut pairs = Vec::new();
    let mut frontier = vec![(String::from("N"), Vec::<String>::new())];
    for _ in 0..depth {
        let mut next = Vec::new();
        for (parent, ancestors) in frontier {
            let mut earlier: Vec<String> = Vec::new();
            for k in 0..branching {
                let child = format!("{parent}_{k}");
                let mut isa = vec![parent.clone()];
                isa.extend(earlier.iter().map(|s| format!("not {s}")));
                text += &format!("class {child} isa {} endclass\n", isa.join(" and "));
                let mut up = ancestors.clone();
                up.push(parent.clone());
                pairs.extend(up.iter().map(|a| (a.clone(), child.clone())));
                earlier.push(child.clone());
                next.push((child, up));
            }
        }
        frontier = next;
    }
    pairs.sort();
    (text, pairs)
}

/// `blocks` independent pigeonhole blocks of `holes + 1` pigeons: the
/// root `R<c>` puts every pigeon in some hole, and hole class `H<c>_i_j`
/// (pigeon i in hole j) requires the root and excludes every other
/// pigeon from hole j. No assignment exists, so the root — and with it
/// every hole class — is unsatisfiable.
#[must_use]
pub fn pigeonhole(blocks: usize, holes: usize) -> (String, Vec<String>) {
    let mut text = String::new();
    let mut names = Vec::new();
    for c in 0..blocks {
        let rows: Vec<String> = (0..=holes)
            .map(|i| {
                (0..holes)
                    .map(|j| format!("H{c}_{i}_{j}"))
                    .collect::<Vec<_>>()
                    .join(" or ")
            })
            .collect();
        text += &format!("class R{c} isa {} endclass\n", rows.join(" and "));
        names.push(format!("R{c}"));
        for i in 0..=holes {
            for j in 0..holes {
                let mut isa = vec![format!("R{c}")];
                isa.extend(
                    (0..=holes)
                        .filter(|&k| k != i)
                        .map(|k| format!("not H{c}_{k}_{j}")),
                );
                text += &format!("class H{c}_{i}_{j} isa {} endclass\n", isa.join(" and "));
                names.push(format!("H{c}_{i}_{j}"));
            }
        }
    }
    names.sort();
    (text, names)
}

/// A chain `C0 → … → C<len>`: every `C<i>` has exactly `grow` fillers of
/// `f<i>` in `C<i+1>`, every `C<i+1>` exactly one `f<i>`-predecessor,
/// and consecutive classes are disjoint. `|C<i>| = grow^i` objects is a
/// finite model, so every class is satisfiable — but the witness values
/// grow geometrically, which is what makes the LP's rationals large.
#[must_use]
pub fn chain(len: usize, grow: u64) -> String {
    let mut text = String::new();
    for i in 0..=len {
        let mut attrs = Vec::new();
        if i < len {
            attrs.push(format!("f{i} : ({grow}, {grow}) C{}", i + 1));
        }
        if i > 0 {
            attrs.push(format!("(inv f{}) : (1, 1) C{}", i - 1, i - 1));
        }
        let isa = if i > 0 {
            format!(" isa not C{}", i - 1)
        } else {
            String::new()
        };
        text += &format!("class C{i}{isa} attributes {} endclass\n", attrs.join("; "));
    }
    text
}

/// Modules-family shapes: (copies, unsatisfiable copies).
const MODULE_SHAPES: [(usize, usize); 6] = [(3, 1), (4, 1), (5, 2), (6, 2), (7, 2), (8, 3)];
/// Chain-family shapes: (length, growth factor).
const CHAIN_SHAPES: [(usize, u64); 8] = [
    (14, 2),
    (16, 3),
    (18, 4),
    (20, 5),
    (22, 2),
    (24, 3),
    (26, 4),
    (28, 5),
];
/// Hierarchy-family shapes: (depth, branching).
const HIERARCHY_SHAPES: [(usize, usize); 6] = [(6, 2), (7, 2), (4, 3), (3, 5), (4, 4), (5, 3)];
/// Pigeonhole-family shapes: (blocks, holes).
const PIGEONHOLE_SHAPES: [(usize, usize); 5] = [(1, 7), (2, 6), (3, 6), (4, 6), (2, 7)];

/// `k` module bounds of which exactly `unsat` (at random positions) put
/// `a ≥ 7`.
pub fn module_cards(rng: &mut Rng, k: usize, unsat: usize) -> Vec<(u64, u64)> {
    let mut sides: Vec<bool> = (0..k).map(|i| i < unsat).collect();
    rng.shuffle(&mut sides);
    sides.into_iter().map(|u| card(rng, u)).collect()
}

impl Item {
    /// `fig2_modules` with these bounds.
    #[must_use]
    pub fn modules(bounds: &[(u64, u64)]) -> Item {
        Item {
            family: Family::Modules,
            text: fig2_modules(bounds),
            unsat: modules_unsat(bounds),
            classification: None,
        }
    }

    /// A chain; every class satisfiable.
    #[must_use]
    pub fn chain(len: usize, grow: u64) -> Item {
        Item {
            family: Family::Chain,
            text: chain(len, grow),
            unsat: Vec::new(),
            classification: None,
        }
    }

    /// A hierarchy with its classification asked for.
    #[must_use]
    pub fn hierarchy(depth: usize, branching: usize) -> Item {
        let (text, pairs) = hierarchy(depth, branching);
        Item {
            family: Family::Hierarchy,
            text,
            unsat: Vec::new(),
            classification: Some(pairs),
        }
    }

    /// Pigeonhole blocks; every class unsatisfiable.
    #[must_use]
    pub fn pigeonhole(blocks: usize, holes: usize) -> Item {
        let (text, unsat) = pigeonhole(blocks, holes);
        Item {
            family: Family::Pigeonhole,
            text,
            unsat,
            classification: None,
        }
    }
}

/// One fixed item per family, the same for every seed: the untimed
/// warm-up that is part of `cold_classify`'s set-up.
#[must_use]
pub fn warm_up() -> Vec<Item> {
    vec![
        Item::modules(&[(2, 3), (8, 9), (4, 5)]),
        Item::chain(14, 2),
        Item::hierarchy(4, 3),
        Item::pigeonhole(2, 6),
    ]
}

/// `n` items cycling through [`FAMILIES`]; within a family, every shape
/// appears equally often in seed-shuffled order, and the seed draws the
/// module bounds.
pub fn corpus(rng: &mut Rng, n: usize) -> Vec<Item> {
    let per_family = n.div_ceil(FAMILIES.len());
    let mut modules = rng.deck(&MODULE_SHAPES, per_family).into_iter();
    let mut chains = rng.deck(&CHAIN_SHAPES, per_family).into_iter();
    let mut hierarchies = rng.deck(&HIERARCHY_SHAPES, per_family).into_iter();
    let mut pigeonholes = rng.deck(&PIGEONHOLE_SHAPES, per_family).into_iter();
    let shape = "one shape per item";
    (0..n)
        .map(|i| match FAMILIES[i % FAMILIES.len()] {
            Family::Modules => {
                let (k, unsat) = modules.next().expect(shape);
                Item::modules(&module_cards(rng, k, unsat))
            }
            Family::Chain => {
                let (len, grow) = chains.next().expect(shape);
                Item::chain(len, grow)
            }
            Family::Hierarchy => {
                let (depth, branching) = hierarchies.next().expect(shape);
                Item::hierarchy(depth, branching)
            }
            Family::Pigeonhole => {
                let (blocks, holes) = pigeonholes.next().expect(shape);
                Item::pigeonhole(blocks, holes)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let texts = |seed| -> Vec<String> {
            corpus(&mut Rng::new(seed, 0), 12)
                .into_iter()
                .map(|i| i.text)
                .collect()
        };
        assert_eq!(texts(5), texts(5));
        assert_ne!(texts(5), texts(6));
    }

    #[test]
    fn hierarchy_pairs_count_every_ancestor() {
        // Depth 2, binary: 6 non-root nodes, 2 at depth 1 (one ancestor
        // each), 4 at depth 2 (two each).
        assert_eq!(hierarchy(2, 2).1.len(), 2 + 4 * 2);
    }

    #[test]
    fn cards_land_on_the_requested_side() {
        let mut rng = Rng::new(1, 1);
        for unsat in [false, true] {
            for _ in 0..100 {
                assert_eq!(module_unsat(card(&mut rng, unsat)), unsat);
            }
        }
    }

    #[test]
    fn decks_keep_the_mix() {
        let deck = Rng::new(3, 0).deck(&[1, 2, 3], 9);
        for x in [1, 2, 3] {
            assert_eq!(deck.iter().filter(|&&d| d == x).count(), 3);
        }
    }
}
