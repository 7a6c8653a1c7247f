//! `BENCHMARK.json` at the repository root declares what the binary
//! prints: the same workloads, and the same metrics with the same units.

use car_benchmark::trace::PER_LAYER;
use car_benchmark::workloads::Workload;
use car_benchmark::END_TO_END;
use car_server::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_are_the_printed_ones() {
    let doc = benchmark_json();
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let rules = car_benchmark::compare::rules(&json::to_string(&doc)).expect("rules parse");
    assert!(END_TO_END
        .iter()
        .all(|(name, _)| rules[*name].bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}
