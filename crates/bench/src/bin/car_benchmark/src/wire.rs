//! Request frames the benchmark sends and the checks on their
//! responses.

use car_server::json::{self, obj, s, Json};

/// `{"op":"open",…}` for a schema text (JSON-escaped).
#[must_use]
pub fn open(id: u64, tenant: &str, workspace: &str, schema: &str) -> String {
    json::to_string(&obj(vec![
        ("id", Json::UInt(id)),
        ("op", s("open")),
        ("tenant", s(tenant)),
        ("workspace", s(workspace)),
        ("schema", s(schema)),
    ])) + "\n"
}

/// `{"op":"query",…}` over already-rendered query objects.
#[must_use]
pub fn query(id: u64, tenant: &str, workspace: &str, queries: &[String]) -> String {
    format!(
        r#"{{"id":{id},"op":"query","tenant":"{tenant}","workspace":"{workspace}","queries":[{}]}}"#,
        queries.join(",")
    ) + "\n"
}

/// The edit the server workloads make: new enrollment bounds for
/// `Grad_Student_m<module>`.
#[must_use]
pub fn set_card(id: u64, tenant: &str, workspace: &str, module: usize, card: (u64, u64)) -> String {
    format!(
        r#"{{"id":{id},"op":"apply","tenant":"{tenant}","workspace":"{workspace}","deltas":[{{"kind":"set_participation","class":"Grad_Student_m{module}","rel":"Enrollment_m{module}","role":"enrolls","card":[{},{}]}}]}}"#,
        card.0, card.1
    ) + "\n"
}

/// `{"op":"undo",…}`.
#[must_use]
pub fn undo(id: u64, tenant: &str, workspace: &str) -> String {
    format!(r#"{{"id":{id},"op":"undo","tenant":"{tenant}","workspace":"{workspace}"}}"#) + "\n"
}

/// `{"kind":"satisfiable","class":…}`.
#[must_use]
pub fn satisfiable(class: &str) -> String {
    format!(r#"{{"kind":"satisfiable","class":"{class}"}}"#)
}

/// `{"kind":"coherent"}`.
#[must_use]
pub fn coherent() -> String {
    r#"{"kind":"coherent"}"#.to_owned()
}

/// What a response must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `ok` with these `proved`/`disproved` answers, in order.
    Answers(Vec<bool>),
    /// `ok` with `"applied":1`.
    Applied,
    /// `ok` with this `moved` flag (undo).
    Moved(bool),
    /// `ok` and nothing more checked (open).
    Ok,
}

/// How one response compares with its expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exactly as expected.
    Right,
    /// A well-formed answer of `unknown` (budget, admission).
    Unknown,
    /// A definite answer that contradicts the construction.
    Wrong,
    /// An error response, a malformed line or a mismatched id.
    Error,
}

/// Checks one response line against `expect` for request `id`.
#[must_use]
pub fn check(line: &str, id: u64, expect: &Expect) -> Verdict {
    let Ok(v) = json::parse(line.trim_end()) else {
        return Verdict::Error;
    };
    if v.get("id").and_then(Json::as_u64) != Some(id)
        || v.get("ok").and_then(Json::as_bool) != Some(true)
    {
        return Verdict::Error;
    }
    match expect {
        Expect::Ok => Verdict::Right,
        Expect::Applied => {
            if v.get("applied").and_then(Json::as_u64) == Some(1) {
                Verdict::Right
            } else {
                Verdict::Wrong
            }
        }
        Expect::Moved(moved) => {
            if v.get("moved").and_then(Json::as_bool) == Some(*moved) {
                Verdict::Right
            } else {
                Verdict::Wrong
            }
        }
        Expect::Answers(want) => {
            let Some(got) = v.get("answers").and_then(Json::as_arr) else {
                return Verdict::Error;
            };
            if got.len() != want.len() {
                return Verdict::Error;
            }
            let mut verdict = Verdict::Right;
            for (answer, &want) in got.iter().zip(want) {
                match answer.get("outcome").and_then(Json::as_str) {
                    Some("proved") if want => {}
                    Some("disproved") if !want => {}
                    Some("proved" | "disproved") => return Verdict::Wrong,
                    Some("unknown") => verdict = Verdict::Unknown,
                    _ => return Verdict::Error,
                }
            }
            verdict
        }
    }
}

/// A field path in a JSON response, e.g. `["net", "mode"]`.
#[must_use]
pub fn field<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, key| v.get(key))
}
