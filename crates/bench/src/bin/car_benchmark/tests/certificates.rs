//! The benchmark judges the reasoner against answers known by
//! construction. This suite confirms a sample of every construction rule
//! with evidence the reasoner cannot fake: an unsatisfiable answer with
//! an `UnsatProof` that `UnsatProof::verify` replays with exact Farkas
//! multipliers, a satisfiable one with a finite model built here by hand
//! and accepted by the independent `semantics` checker.
//!
//! An implied fact (`sub ⊑ sup`, `a ⊥ b`) is certified as the
//! unsatisfiability of a probe class `Q_probe isa sub and not sup`
//! (`isa a and b`); its negation by a model in which the probe — holding
//! exactly the objects that satisfy its definition — is nonempty.

use car_benchmark::gen::{self, Fig2Query};
use car_core::semantics::ObjId;
use car_core::{Interpretation, Reasoner, Schema};
use car_parser::parse_schema;

/// Certifies that `class` is unsatisfiable in `schema`.
fn assert_certified_unsat(schema: &Schema, class: &str) {
    let reasoner = Reasoner::new(schema);
    let id = schema.class_id(class).expect("class exists");
    let proof = reasoner
        .certify_unsatisfiable(id)
        .expect("within limits")
        .unwrap_or_else(|| panic!("{class} should be unsatisfiable"));
    assert!(
        proof.verify(reasoner.full_expansion().expect("within limits")),
        "proof for {class} rejected"
    );
}

/// A model under construction, addressing symbols by name.
struct Model<'s> {
    schema: &'s Schema,
    m: Interpretation,
    next: ObjId,
}

impl<'s> Model<'s> {
    fn new(schema: &'s Schema, universe: usize) -> Model<'s> {
        Model {
            schema,
            m: Interpretation::new(schema, universe),
            next: 0,
        }
    }

    /// A fresh object in the named classes.
    fn object(&mut self, classes: &[String]) -> ObjId {
        let o = self.next;
        self.next += 1;
        for c in classes {
            self.m.add_to_class(
                self.schema
                    .class_id(c)
                    .unwrap_or_else(|| panic!("class {c}")),
                o,
            );
        }
        o
    }

    fn attr(&mut self, attr: &str, from: ObjId, to: ObjId) {
        self.m.add_attr_pair(
            self.schema
                .attr_id(attr)
                .unwrap_or_else(|| panic!("attribute {attr}")),
            from,
            to,
        );
    }

    fn tuple(&mut self, rel: &str, tuple: Vec<ObjId>) {
        self.m.add_tuple(
            self.schema
                .rel_id(rel)
                .unwrap_or_else(|| panic!("relation {rel}")),
            tuple,
        );
    }

    /// Puts every object satisfying `Q_probe`'s definition into it
    /// (the probe has only an isa part) and returns the checked model.
    fn finish(mut self) -> Interpretation {
        if let Some(q) = self.schema.class_id("Q_probe") {
            let isa = self.schema.class_def(q).isa.clone();
            for o in 0..self.next {
                if self.m.satisfies_formula(&isa, o) {
                    self.m.add_to_class(q, o);
                }
            }
        }
        self.m
            .check(self.schema)
            .unwrap_or_else(|v| panic!("hand-built model rejected: {v:?}"));
        self.m
    }
}

/// Objects [`figure2_model`] adds for one copy.
fn figure2_objects(a: u64) -> usize {
    if a >= 7 {
        14
    } else {
        20
    }
}

/// A finite model of the Figure 2 copy suffixed `sfx` whose
/// `Grad_Student` enrollment bounds start at `a`: one string shared by
/// every string attribute, three professors teaching two courses each,
/// five regular courses each enrolling five regular students (five
/// enrollments per student). For `a ≤ 6` also an advanced course taught
/// by a professor and enrolling five graduate students, each of whom
/// takes it plus `max(a, 1) − 1` regular courses — within both their
/// student (1, 6) and graduate (a, b) bounds. For `a ≥ 7` no graduate
/// student and no advanced course exist, as the rule says.
fn figure2_model(model: &mut Model<'_>, sfx: &str, a: u64) {
    let n = |c: &str| format!("{c}{sfx}");
    let string = model.object(&[n("String")]);
    let person = |model: &mut Model<'_>, classes: &[String]| {
        let o = model.object(classes);
        model.attr(&n("name"), o, string);
        model.attr(&n("date_of_birth"), o, string);
        o
    };
    let profs: Vec<ObjId> = (0..3)
        .map(|_| person(model, &[n("Person"), n("Professor")]))
        .collect();
    let courses: Vec<ObjId> = (0..5).map(|_| model.object(&[n("Course")])).collect();
    // Professor k teaches courses 2k−1 and 2k (course 0 goes with the
    // advanced course to professor 0).
    for (j, &c) in courses.iter().enumerate() {
        model.attr(&n("taught_by"), c, profs[j.div_ceil(2)]);
    }
    let student = [n("Person"), n("Student")];
    for _ in 0..5 {
        let s = person(model, &student);
        model.attr(&n("student_id"), s, string);
        for &c in &courses {
            model.tuple(&n("Enrollment"), vec![c, s]);
        }
    }
    if a <= 6 {
        let adv = model.object(&[n("Course"), n("Adv_Course")]);
        model.attr(&n("taught_by"), adv, profs[0]);
        let grad = [n("Person"), n("Student"), n("Grad_Student")];
        for _ in 0..5 {
            let g = person(model, &grad);
            model.attr(&n("student_id"), g, string);
            model.tuple(&n("Enrollment"), vec![adv, g]);
            for &c in courses.iter().take(a.max(1) as usize - 1) {
                model.tuple(&n("Enrollment"), vec![c, g]);
            }
        }
    }
}

/// Whether `Q_probe isa <isa>` added to `base` is satisfiable, with the
/// evidence checked either way: a proof, or the hand-built model of
/// `base` (via `build`) in which the probe is nonempty.
fn probe(base: &str, isa: &str, universe: usize, build: impl Fn(&mut Model<'_>)) -> bool {
    let schema =
        parse_schema(&format!("{base}\nclass Q_probe isa {isa} endclass\n")).expect("probe parses");
    let q = schema.class_id("Q_probe").expect("probe class");
    if Reasoner::new(&schema)
        .try_is_satisfiable(q)
        .expect("within limits")
    {
        let mut model = Model::new(&schema, universe);
        build(&mut model);
        assert!(
            !model.finish().class_extension(q).is_empty(),
            "the model leaves Q_probe ({isa}) empty"
        );
        true
    } else {
        assert_certified_unsat(&schema, "Q_probe");
        false
    }
}

#[test]
fn figure_2_answers_are_certified() {
    let fig2 = gen::figure2();
    let build = |m: &mut Model<'_>| figure2_model(m, "", 2);
    for query in [
        Fig2Query::Subsumes("Person", "Grad_Student"),
        Fig2Query::Subsumes("Student", "Person"),
        Fig2Query::Subsumes("Course", "Adv_Course"),
        Fig2Query::Disjoint("Student", "Professor"),
        Fig2Query::Disjoint("Course", "Adv_Course"),
        Fig2Query::Equivalent("Student", "Grad_Student"),
    ] {
        let universe = figure2_objects(2);
        let holds = match query {
            Fig2Query::Subsumes(sup, sub) => {
                !probe(&fig2, &format!("{sub} and not {sup}"), universe, build)
            }
            Fig2Query::Disjoint(x, y) => !probe(&fig2, &format!("{x} and {y}"), universe, build),
            // Not equivalent: some object lies in one class only.
            Fig2Query::Equivalent(x, y) => !probe(
                &fig2,
                &format!("({x} or {y}) and (not {x} or not {y})"),
                universe,
                build,
            ),
            Fig2Query::Satisfiable(_) => unreachable!("sampled kinds only"),
        };
        assert_eq!(holds, query.expected(), "{query:?}");
    }
}

/// The module rule — `Grad_Student_m<i>` and `Adv_Course_m<i>` are
/// empty iff `a ≥ 7`, every other class is inhabited — on copies
/// spanning every `a`.
///
/// Copies share no symbol: restricting a model of all copies to copy
/// `i`'s symbols gives a model of copy `i` alone, so a proof on the copy
/// alone rules the class out of the whole schema; and the hand-built
/// models of all copies together are one model of the whole schema.
#[test]
fn module_rule_is_certified() {
    let cards: Vec<(u64, u64)> = (1..=9).map(|a| (a, a + a % 4)).collect();
    let whole = parse_schema(&gen::fig2_modules(&cards)).expect("modules parse");
    let universe = cards.iter().map(|&(a, _)| figure2_objects(a)).sum();
    let mut model = Model::new(&whole, universe);
    for (i, &card) in cards.iter().enumerate() {
        let sfx = gen::module_suffix(i);
        figure2_model(&mut model, &sfx, card.0);
        if gen::module_unsat(card) {
            let alone = parse_schema(&gen::fig2_module(&sfx, card)).expect("module parses");
            for class in ["Grad_Student", "Adv_Course"] {
                assert_certified_unsat(&alone, &format!("{class}{sfx}"));
            }
        }
    }
    let model = model.finish();
    let unsat = gen::modules_unsat(&cards);
    for c in whole.symbols().class_ids() {
        let name = whole.class_name(c);
        assert_eq!(
            !model.class_extension(c).is_empty(),
            !unsat.iter().any(|u| u == name),
            "{name}"
        );
    }
}

/// Chains: `|C<i>| = grow^i`, each object's fillers its own block of the
/// next level.
#[test]
fn chains_have_the_geometric_model() {
    for (len, grow) in [(3, 2), (4, 3)] {
        let schema = parse_schema(&gen::chain(len, grow)).expect("chain parses");
        let sizes: Vec<u32> = (0..=len).map(|i| (grow as u32).pow(i as u32)).collect();
        let mut model = Model::new(&schema, sizes.iter().sum::<u32>() as usize);
        let levels: Vec<Vec<ObjId>> = (0..=len)
            .map(|i| {
                (0..sizes[i])
                    .map(|_| model.object(&[format!("C{i}")]))
                    .collect()
            })
            .collect();
        for i in 0..len {
            for (k, &o) in levels[i].iter().enumerate() {
                for g in 0..grow as usize {
                    model.attr(&format!("f{i}"), o, levels[i + 1][k * grow as usize + g]);
                }
            }
        }
        model.finish();
    }
}

/// Hierarchies: one object per node, in its node and every ancestor —
/// no node lies below a non-ancestor there — and a proof per ancestor
/// pair.
#[test]
fn hierarchy_classification_is_certified() {
    let (text, pairs) = gen::hierarchy(2, 2);
    let schema = parse_schema(&text).expect("hierarchy parses");
    let names: Vec<String> = schema
        .symbols()
        .class_ids()
        .map(|c| schema.class_name(c).to_owned())
        .collect();
    let build = |model: &mut Model<'_>| {
        for node in &names {
            let mut classes: Vec<String> = pairs
                .iter()
                .filter(|(_, d)| d == node)
                .map(|(a, _)| a.clone())
                .collect();
            classes.push(node.clone());
            model.object(&classes);
        }
    };
    for sup in &names {
        for sub in &names {
            let implied = sup == sub || pairs.contains(&(sup.clone(), sub.clone()));
            let holds = !probe(&text, &format!("{sub} and not {sup}"), names.len(), build);
            assert_eq!(holds, implied, "{sub} ⊑ {sup}");
        }
    }
}

/// Pigeonholes: every class has a verified proof.
#[test]
fn pigeonhole_classes_are_certified() {
    let (text, unsat) = gen::pigeonhole(1, 3);
    let schema = parse_schema(&text).expect("pigeonhole parses");
    assert_eq!(unsat.len(), schema.num_classes());
    for class in &unsat {
        assert_certified_unsat(&schema, class);
    }
}
