//! §4.4 locality of the LP stage: independent clusters cost what they
//! cost alone. The support analysis of `ΨS` splits the system into
//! blocks that share no unknown, so k independent copies of a schema
//! spend exactly k times the simplex pivots of one copy, and a system
//! whose unknowns appear in no row spends none at all.
//!
//! Pivot counts are deterministic (exact arithmetic, fixed pricing
//! rules) and read from the calling thread's counter, so every count is
//! asserted exactly.

use car::core::reasoner::Reasoner;
use car::core::Schema;
use car::parser::parse_schema;
use car::reductions::generators::{clustered_schema, hierarchy_schema};

const FIGURE_2: &str = include_str!("data/figure2.car");

/// Figure 2's class, attribute and relation names. Role names are per
/// relation and stay as they are.
const FIGURE_2_SYMBOLS: [&str; 13] = [
    "Person",
    "Professor",
    "Student",
    "Grad_Student",
    "Course",
    "Adv_Course",
    "String",
    "name",
    "date_of_birth",
    "taught_by",
    "student_id",
    "Enrollment",
    "Exam",
];

/// Simplex pivots the satisfiability analysis of `schema` spends.
fn sat_pivots(schema: &Schema) -> u64 {
    let before = car::lp::pivot_count();
    let reasoner = Reasoner::new(schema);
    reasoner.try_is_coherent().expect("within limits");
    car::lp::pivot_count() - before
}

/// Figure 2 with every symbol in [`FIGURE_2_SYMBOLS`] suffixed `sfx`.
fn renamed_figure_2(sfx: &str) -> String {
    let mut out = String::new();
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        out.push_str(word);
        if FIGURE_2_SYMBOLS.contains(&word.as_str()) {
            out.push_str(sfx);
        }
        word.clear();
    };
    for ch in FIGURE_2.chars() {
        if ch.is_alphanumeric() || ch == '_' {
            word.push(ch);
        } else {
            flush(&mut word, &mut out);
            out.push(ch);
        }
    }
    flush(&mut word, &mut out);
    out
}

#[test]
fn clustered_schema_pivots_scale_linearly_with_clusters() {
    let one = sat_pivots(&clustered_schema(1, 8));
    assert_eq!(one, 24, "one 8-class cluster");
    for k in [2, 4, 8] {
        assert_eq!(sat_pivots(&clustered_schema(k, 8)), k as u64 * one, "{k} clusters");
    }
}

#[test]
fn renamed_figure_2_copies_cost_what_one_copy_costs() {
    let copies = |k: usize| -> Schema {
        let text: String = (0..k).map(|i| renamed_figure_2(&format!("_c{i}"))).collect();
        parse_schema(&text).expect("renamed copies parse")
    };
    let one = sat_pivots(&copies(1));
    assert_eq!(one, 37, "one Figure 2 copy");
    for k in [2, 4] {
        let schema = copies(k);
        assert_eq!(schema.num_classes(), 7 * k, "copies share no class");
        assert_eq!(sat_pivots(&schema), k as u64 * one, "{k} copies");
    }
}

#[test]
fn hierarchy_classification_spends_no_pivots() {
    // A hierarchy has no attributes or relations, so `ΨS` has unknowns
    // but no rows: every compound class is unconstrained and needs no LP.
    let schema = hierarchy_schema(4, 2);
    let before = car::lp::pivot_count();
    let reasoner = Reasoner::new(&schema);
    assert!(!reasoner.try_classification().expect("within limits").is_empty());
    assert_eq!(car::lp::pivot_count() - before, 0);
}
