//! Shared helpers for the server integration tests: serializing wire
//! ops to frames, and a *shadow* — a direct in-process
//! [`car_core::Workspace`] that replays the same operations so tests
//! can assert the server's answers are bit-identical to first-party
//! reasoning.

use car_core::{ReasonerConfig, Workspace};
use car_server::json::{obj, s, to_string, Json};
use car_server::protocol::{answer_json, unknown_answer, WireDelta, WireQuery};
use car_server::service::ServerConfig;
use car_server::Server;

/// Spawns a server on an ephemeral port.
#[allow(dead_code)] // not used by every suite
#[must_use]
pub fn spawn_server(config: ServerConfig) -> Server {
    Server::spawn("127.0.0.1:0", config).expect("server binds")
}

/// The fixture schema most tests open.
pub const SCHEMA: &str = "
    class Person endclass
    class Professor isa Person endclass
    class Student isa Person and not Professor endclass
    class Course
      participates_in Teaches[taught] : (1, 1)
    endclass
    relation Teaches(teacher, taught)
      constraints (teacher : Professor); (taught : Course)
    endrelation
";

/// Serializes a [`WireQuery`] to its frame object.
#[must_use]
pub fn query_json(q: &WireQuery) -> Json {
    match q {
        WireQuery::Satisfiable(c) => {
            obj(vec![("kind", s("satisfiable")), ("class", s(c))])
        }
        WireQuery::Coherent => obj(vec![("kind", s("coherent"))]),
        WireQuery::Subsumes { sup, sub } => {
            obj(vec![("kind", s("subsumes")), ("sup", s(sup)), ("sub", s(sub))])
        }
        WireQuery::Disjoint(a, b) => {
            obj(vec![("kind", s("disjoint")), ("a", s(a)), ("b", s(b))])
        }
        WireQuery::Equivalent(a, b) => {
            obj(vec![("kind", s("equivalent")), ("a", s(a)), ("b", s(b))])
        }
    }
}

/// Serializes a [`WireDelta`] to its frame object (the subset of delta
/// kinds the generators produce).
#[must_use]
pub fn delta_json(d: &WireDelta) -> Json {
    let formula = |f: &Vec<Vec<(String, bool)>>| {
        Json::Arr(
            f.iter()
                .map(|clause| {
                    Json::Arr(
                        clause
                            .iter()
                            .map(|(class, neg)| {
                                let mut fields = vec![("class", s(class))];
                                if *neg {
                                    fields.push(("neg", Json::Bool(true)));
                                }
                                obj(fields)
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    };
    match d {
        WireDelta::AddClass { name } => {
            obj(vec![("kind", s("add_class")), ("name", s(name))])
        }
        WireDelta::RemoveClass { name } => {
            obj(vec![("kind", s("remove_class")), ("name", s(name))])
        }
        WireDelta::SetIsa { class, isa } => {
            obj(vec![("kind", s("set_isa")), ("class", s(class)), ("isa", formula(isa))])
        }
        WireDelta::SetAttribute { class, attr, inverse, spec } => {
            let spec_json = match spec {
                None => Json::Null,
                Some((card, ty)) => obj(vec![
                    (
                        "card",
                        Json::Arr(vec![
                            Json::UInt(card.min),
                            card.max.map_or(Json::Null, Json::UInt),
                        ]),
                    ),
                    ("type", formula(ty)),
                ]),
            };
            obj(vec![
                ("kind", s("set_attribute")),
                ("class", s(class)),
                ("attr", s(attr)),
                ("inverse", Json::Bool(*inverse)),
                ("spec", spec_json),
            ])
        }
        WireDelta::SetParticipation { class, rel, role, card } => obj(vec![
            ("kind", s("set_participation")),
            ("class", s(class)),
            ("rel", s(rel)),
            ("role", s(role)),
            (
                "card",
                card.map_or(Json::Null, |c| {
                    Json::Arr(vec![Json::UInt(c.min), c.max.map_or(Json::Null, Json::UInt)])
                }),
            ),
        ]),
        WireDelta::SetRelation { name, roles, constraints } => obj(vec![
            ("kind", s("set_relation")),
            ("name", s(name)),
            ("roles", Json::Arr(roles.iter().map(|r| s(r.as_str())).collect())),
            (
                "constraints",
                Json::Arr(
                    constraints
                        .iter()
                        .map(|clause| {
                            Json::Arr(
                                clause
                                    .iter()
                                    .map(|(role, f)| {
                                        obj(vec![("role", s(role)), ("formula", formula(f))])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ]),
        WireDelta::RemoveRelation { name } => {
            obj(vec![("kind", s("remove_relation")), ("name", s(name))])
        }
    }
}

/// Builds an `apply` frame.
#[allow(dead_code)] // not used by every suite
#[must_use]
pub fn apply_frame(workspace: &str, id: u64, deltas: &[WireDelta]) -> String {
    to_string(&obj(vec![
        ("id", Json::UInt(id)),
        ("op", s("apply")),
        ("workspace", s(workspace)),
        ("deltas", Json::Arr(deltas.iter().map(delta_json).collect())),
    ]))
}

/// Builds a `query` frame.
#[must_use]
pub fn query_frame(workspace: &str, id: u64, queries: &[WireQuery]) -> String {
    to_string(&obj(vec![
        ("id", Json::UInt(id)),
        ("op", s("query")),
        ("workspace", s(workspace)),
        ("queries", Json::Arr(queries.iter().map(query_json).collect())),
    ]))
}

/// Builds an `open` frame.
#[must_use]
pub fn open_frame(workspace: &str, id: u64, schema: &str) -> String {
    to_string(&obj(vec![
        ("id", Json::UInt(id)),
        ("op", s("open")),
        ("workspace", s(workspace)),
        ("schema", s(schema)),
    ]))
}

/// In-process replay of the exact operations a test sent to the server,
/// built on [`Workspace`] directly (not on the service layer), so the
/// comparison crosses the whole server stack.
pub struct Shadow {
    ws: Workspace,
}

impl Shadow {
    /// Opens the shadow workspace over schema text.
    #[must_use]
    pub fn new(schema_text: &str) -> Shadow {
        let schema = car_parser::parse_schema(schema_text).expect("shadow schema parses");
        Shadow { ws: Workspace::new(schema, ReasonerConfig::default()) }
    }

    /// Applies deltas exactly like the server's `apply` op: resolve
    /// against the evolving schema, stop at the first failure. Returns
    /// how many were applied.
    #[allow(dead_code)] // not used by every suite
    pub fn apply(&mut self, deltas: &[WireDelta]) -> u64 {
        let mut applied = 0;
        for delta in deltas {
            let Ok(resolved) = delta.resolve(self.ws.schema()) else { break };
            if self.ws.apply(&resolved).is_err() {
                break;
            }
            applied += 1;
        }
        applied
    }

    /// Mirrors the `undo` op.
    #[allow(dead_code)] // used by server_e2e and recovery, not by fleet
    pub fn undo(&mut self) -> bool {
        self.ws.undo()
    }

    /// Mirrors the `redo` op.
    #[allow(dead_code)] // used by server_e2e, not by protocol_fuzz
    pub fn redo(&mut self) -> bool {
        self.ws.redo()
    }

    /// Answers queries through the same batched path the server uses
    /// and renders them with the same serializer, so a correct server
    /// produces byte-identical answer objects.
    pub fn query(&mut self, queries: &[WireQuery]) -> Vec<Json> {
        let mut combined = Vec::new();
        let plan: Vec<Result<usize, String>> = queries
            .iter()
            .map(|q| {
                q.resolve(self.ws.schema()).map(|typed| {
                    let at = combined.len();
                    combined.push(typed);
                    at
                })
            })
            .collect();
        let results = self.ws.query_batch_results(&combined);
        plan.into_iter()
            .map(|entry| match entry {
                Ok(at) => answer_json(&results[at]),
                Err(name) => {
                    unknown_answer("unknown_class", &format!("unknown class '{name}'"))
                }
            })
            .collect()
    }
}
