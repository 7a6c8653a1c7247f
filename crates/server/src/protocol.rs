//! Wire protocol: line-delimited JSON requests and responses.
//!
//! Every frame is one JSON object on one line. Requests carry:
//!
//! * `"op"` — the operation name (required);
//! * `"id"` — an optional client-chosen `u64`, echoed verbatim in the
//!   response so clients can pipeline requests;
//! * `"tenant"` — the tenant name (defaults to `"default"`); quotas and
//!   workspace namespaces are per-tenant;
//! * `"workspace"` — the workspace name (required for all workspace
//!   ops).
//!
//! Operations: `ping`, `open` (with `"schema"` DSL text and optional
//! `"replace"`), `close`, `apply` (with `"deltas"`), `undo`, `redo`,
//! `query` (with `"queries"`), `stats`, `list`, and `shutdown`
//! (honored only with `--allow-remote-shutdown`).
//!
//! Responses are `{"id":…,"ok":true,…}` or
//! `{"id":…,"ok":false,"error":{"kind":…,"message":…,…}}`. A malformed
//! frame produces an error response with a byte/line position — it
//! never tears down the connection.
//!
//! Formulae on the wire are CNF: an array of clauses, each an array of
//! literals `{"class":"Name"}` or `{"class":"Name","neg":true}`. An
//! empty array is ⊤. Cardinalities are two-element arrays
//! `[min, max]` with `null` max meaning ∞.

use crate::json::{self, obj, s, Json};
use car_core::syntax::{Card, ClassClause, ClassFormula, ClassLiteral, Schema};
use car_core::{EditError, Query, ReasonerError, RoleLiteralSpec, SchemaDelta};
use car_parser::ParseError;

/// A protocol-level error: machine-readable kind, human message, and an
/// optional source position (line/col for schema text, byte offset for
/// JSON frames).
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable machine-readable discriminator, e.g. `"bad_request"`.
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
    /// 1-based line in embedded schema text, if known.
    pub line: Option<u32>,
    /// 1-based column in embedded schema text, if known.
    pub col: Option<u32>,
    /// 0-based byte offset into the frame, if known.
    pub offset: Option<usize>,
}

impl WireError {
    /// An error with no position.
    #[must_use]
    pub fn new(kind: &'static str, message: impl Into<String>) -> WireError {
        WireError { kind, message: message.into(), line: None, col: None, offset: None }
    }

    /// A `bad_request` error (shape problems in an otherwise valid JSON
    /// frame).
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError::new("bad_request", message)
    }

    /// The error object for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("kind", s(self.kind)), ("message", s(&self.message))];
        if let Some(line) = self.line {
            fields.push(("line", Json::UInt(u64::from(line))));
        }
        if let Some(col) = self.col {
            fields.push(("col", Json::UInt(u64::from(col))));
        }
        if let Some(offset) = self.offset {
            fields.push(("offset", Json::UInt(offset as u64)));
        }
        obj(fields)
    }
}

impl From<&ParseError> for WireError {
    fn from(e: &ParseError) -> WireError {
        let (kind, pos) = match e {
            ParseError::Invalid { errors } => {
                ("invalid_schema", errors.first().and_then(|se| se.pos))
            }
            ParseError::Lex { pos, .. }
            | ParseError::NumberOverflow { pos }
            | ParseError::NestingTooDeep { pos, .. }
            | ParseError::Unexpected { pos, .. } => ("parse", Some(*pos)),
        };
        WireError {
            kind,
            message: e.to_string(),
            line: pos.map(|p| p.line),
            col: pos.map(|p| p.col),
            offset: None,
        }
    }
}

impl From<&EditError> for WireError {
    fn from(e: &EditError) -> WireError {
        let kind = match e {
            EditError::UnknownClass { .. } => "unknown_class",
            EditError::DuplicateClass { .. } => "duplicate_class",
            EditError::UnknownRelation { .. } => "unknown_relation",
            EditError::UnknownRole { .. } => "unknown_role",
            EditError::ClassReferenced { .. } => "class_referenced",
            EditError::RelationReferenced { .. } => "relation_referenced",
            EditError::Invalid(_) => "invalid_schema",
        };
        WireError::new(kind, e.to_string())
    }
}

/// Request envelope fields shared by every operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Client-chosen request id, echoed in the response.
    pub id: Option<u64>,
    /// Tenant name.
    pub tenant: String,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answers `{"ok":true,"pong":true}`.
    Ping,
    /// Create (or with `replace` overwrite) a workspace from schema
    /// text.
    Open {
        /// Workspace name.
        workspace: String,
        /// Schema DSL text.
        schema: String,
        /// Overwrite an existing workspace instead of erroring.
        replace: bool,
    },
    /// Drop a workspace.
    Close {
        /// Workspace name.
        workspace: String,
    },
    /// Apply deltas sequentially; stops at the first failure.
    Apply {
        /// Workspace name.
        workspace: String,
        /// Name-addressed edits, applied in order.
        deltas: Vec<WireDelta>,
    },
    /// Undo the last applied delta.
    Undo {
        /// Workspace name.
        workspace: String,
    },
    /// Redo the last undone delta.
    Redo {
        /// Workspace name.
        workspace: String,
    },
    /// Answer reasoning queries (batched and possibly coalesced with
    /// concurrent requests).
    Query {
        /// Workspace name.
        workspace: String,
        /// Name-addressed queries.
        queries: Vec<WireQuery>,
    },
    /// Workspace statistics.
    Stats {
        /// Workspace name.
        workspace: String,
    },
    /// List this tenant's workspaces.
    List,
    /// Server health: role (leader/follower), per-workspace lease
    /// epochs and fencing state, recovery counters, durability
    /// counters.
    Health,
    /// Ask the server to drain and exit gracefully (snapshotting every
    /// workspace). Honored only when the operator started the server
    /// with remote shutdown enabled; otherwise answered with
    /// `forbidden`.
    Shutdown,
}

/// A name-addressed [`SchemaDelta`] as it appears on the wire. Class
/// formulae are resolved against the workspace's *current* schema at
/// apply time (deltas in one `apply` are resolved one at a time, so a
/// delta may reference a class added earlier in the same request).
#[derive(Debug, Clone, PartialEq)]
pub enum WireDelta {
    /// `{"kind":"add_class","name":…}`
    AddClass {
        /// New class name.
        name: String,
    },
    /// `{"kind":"remove_class","name":…}`
    RemoveClass {
        /// Class to remove.
        name: String,
    },
    /// `{"kind":"set_isa","class":…,"isa":<formula>}`
    SetIsa {
        /// Class being redefined.
        class: String,
        /// New isa formula (empty = ⊤, clearing it).
        isa: WireFormula,
    },
    /// `{"kind":"set_attribute","class":…,"attr":…,"inverse":…,"spec":
    /// {"card":…,"type":<formula>} | null}`
    SetAttribute {
        /// Class being redefined.
        class: String,
        /// Attribute name.
        attr: String,
        /// Address the `inv attr` specification.
        inverse: bool,
        /// `Some` replaces/adds, `None` removes.
        spec: Option<(Card, WireFormula)>,
    },
    /// `{"kind":"set_participation","class":…,"rel":…,"role":…,
    /// "card":[min,max] | null}`
    SetParticipation {
        /// Class being redefined.
        class: String,
        /// Relation name.
        rel: String,
        /// Role name.
        role: String,
        /// `Some` replaces/adds, `None` removes.
        card: Option<Card>,
    },
    /// `{"kind":"set_relation","name":…,"roles":[…],"constraints":
    /// [[{"role":…,"formula":<formula>},…],…]}`
    SetRelation {
        /// Relation name.
        name: String,
        /// Role names in tuple order.
        roles: Vec<String>,
        /// Role clauses.
        constraints: Vec<Vec<(String, WireFormula)>>,
    },
    /// `{"kind":"remove_relation","name":…}`
    RemoveRelation {
        /// Relation to remove.
        name: String,
    },
}

/// CNF formula with name-addressed literals: clauses of
/// `(class name, negated)`.
pub type WireFormula = Vec<Vec<(String, bool)>>;

/// A name-addressed [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireQuery {
    /// `{"kind":"satisfiable","class":…}`
    Satisfiable(String),
    /// `{"kind":"coherent"}`
    Coherent,
    /// `{"kind":"subsumes","sup":…,"sub":…}`
    Subsumes {
        /// Candidate subsumer.
        sup: String,
        /// Candidate subsumee.
        sub: String,
    },
    /// `{"kind":"disjoint","a":…,"b":…}`
    Disjoint(String, String),
    /// `{"kind":"equivalent","a":…,"b":…}`
    Equivalent(String, String),
}

impl WireQuery {
    /// Resolves class names against `schema`. The error is the first
    /// unknown class name.
    ///
    /// # Errors
    /// The unresolvable name.
    pub fn resolve(&self, schema: &Schema) -> Result<Query, String> {
        let id = |name: &String| schema.class_id(name).ok_or_else(|| name.clone());
        Ok(match self {
            WireQuery::Satisfiable(c) => Query::IsSatisfiable(id(c)?),
            WireQuery::Coherent => Query::IsCoherent,
            WireQuery::Subsumes { sup, sub } => {
                Query::Subsumes { sup: id(sup)?, sub: id(sub)? }
            }
            WireQuery::Disjoint(a, b) => Query::Disjoint(id(a)?, id(b)?),
            WireQuery::Equivalent(a, b) => Query::Equivalent(id(a)?, id(b)?),
        })
    }
}

fn resolve_formula(wire: &WireFormula, schema: &Schema) -> Result<ClassFormula, WireError> {
    let mut clauses = Vec::with_capacity(wire.len());
    for clause in wire {
        let mut literals = Vec::with_capacity(clause.len());
        for (name, neg) in clause {
            let class = schema.class_id(name).ok_or_else(|| {
                WireError::new("unknown_class", format!("unknown class '{name}' in formula"))
            })?;
            literals.push(ClassLiteral { class, positive: !neg });
        }
        clauses.push(ClassClause::new(literals));
    }
    Ok(ClassFormula { clauses })
}

impl WireDelta {
    /// Resolves the delta's formulae against the current `schema` into
    /// a typed [`SchemaDelta`].
    ///
    /// # Errors
    /// `unknown_class` if a formula references a class the schema does
    /// not have. (Name errors for the delta's *target* symbols are left
    /// to [`car_core::incremental::apply_delta`], which reports them as
    /// [`EditError`]s.)
    pub fn resolve(&self, schema: &Schema) -> Result<SchemaDelta, WireError> {
        Ok(match self {
            WireDelta::AddClass { name } => SchemaDelta::AddClass { name: name.clone() },
            WireDelta::RemoveClass { name } => {
                SchemaDelta::RemoveClass { name: name.clone() }
            }
            WireDelta::SetIsa { class, isa } => SchemaDelta::SetIsa {
                class: class.clone(),
                isa: resolve_formula(isa, schema)?,
            },
            WireDelta::SetAttribute { class, attr, inverse, spec } => {
                let spec = match spec {
                    Some((card, ty)) => Some((*card, resolve_formula(ty, schema)?)),
                    None => None,
                };
                SchemaDelta::SetAttribute {
                    class: class.clone(),
                    attr: attr.clone(),
                    inverse: *inverse,
                    spec,
                }
            }
            WireDelta::SetParticipation { class, rel, role, card } => {
                SchemaDelta::SetParticipation {
                    class: class.clone(),
                    rel: rel.clone(),
                    role: role.clone(),
                    card: *card,
                }
            }
            WireDelta::SetRelation { name, roles, constraints } => {
                let mut clauses = Vec::with_capacity(constraints.len());
                for clause in constraints {
                    let mut lits = Vec::with_capacity(clause.len());
                    for (role, formula) in clause {
                        lits.push(RoleLiteralSpec {
                            role: role.clone(),
                            formula: resolve_formula(formula, schema)?,
                        });
                    }
                    clauses.push(lits);
                }
                SchemaDelta::SetRelation {
                    name: name.clone(),
                    roles: roles.clone(),
                    constraints: clauses,
                }
            }
            WireDelta::RemoveRelation { name } => {
                SchemaDelta::RemoveRelation { name: name.clone() }
            }
        })
    }
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

fn str_field(v: &Json, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| WireError::bad_request(format!("missing or non-string field '{key}'")))
}

fn workspace_field(v: &Json) -> Result<String, WireError> {
    str_field(v, "workspace")
}

fn parse_card(v: &Json) -> Result<Card, WireError> {
    let items = v
        .as_arr()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| WireError::bad_request("cardinality must be [min, max]"))?;
    let min = items[0]
        .as_u64()
        .ok_or_else(|| WireError::bad_request("cardinality min must be a nonnegative integer"))?;
    let max = if items[1].is_null() {
        None
    } else {
        Some(items[1].as_u64().ok_or_else(|| {
            WireError::bad_request("cardinality max must be a nonnegative integer or null")
        })?)
    };
    Ok(Card { min, max })
}

fn parse_formula(v: &Json) -> Result<WireFormula, WireError> {
    let clauses = v
        .as_arr()
        .ok_or_else(|| WireError::bad_request("formula must be an array of clauses"))?;
    let mut out = Vec::with_capacity(clauses.len());
    for clause in clauses {
        let lits = clause
            .as_arr()
            .ok_or_else(|| WireError::bad_request("formula clause must be an array of literals"))?;
        let mut clause_out = Vec::with_capacity(lits.len());
        for lit in lits {
            let class = str_field(lit, "class")?;
            let neg = lit.get("neg").and_then(Json::as_bool).unwrap_or(false);
            clause_out.push((class, neg));
        }
        out.push(clause_out);
    }
    Ok(out)
}

fn parse_delta(v: &Json) -> Result<WireDelta, WireError> {
    let kind = str_field(v, "kind")?;
    Ok(match kind.as_str() {
        "add_class" => WireDelta::AddClass { name: str_field(v, "name")? },
        "remove_class" => WireDelta::RemoveClass { name: str_field(v, "name")? },
        "set_isa" => {
            let isa = match v.get("isa") {
                None => Vec::new(),
                Some(j) if j.is_null() => Vec::new(),
                Some(j) => parse_formula(j)?,
            };
            WireDelta::SetIsa { class: str_field(v, "class")?, isa }
        }
        "set_attribute" => {
            let spec = match v.get("spec") {
                None => None,
                Some(j) if j.is_null() => None,
                Some(j) => {
                    let card = j
                        .get("card")
                        .map(parse_card)
                        .transpose()?
                        .unwrap_or(Card { min: 0, max: None });
                    let ty = match j.get("type") {
                        None => Vec::new(),
                        Some(t) if t.is_null() => Vec::new(),
                        Some(t) => parse_formula(t)?,
                    };
                    Some((card, ty))
                }
            };
            WireDelta::SetAttribute {
                class: str_field(v, "class")?,
                attr: str_field(v, "attr")?,
                inverse: v.get("inverse").and_then(Json::as_bool).unwrap_or(false),
                spec,
            }
        }
        "set_participation" => {
            let card = match v.get("card") {
                None => None,
                Some(j) if j.is_null() => None,
                Some(j) => Some(parse_card(j)?),
            };
            WireDelta::SetParticipation {
                class: str_field(v, "class")?,
                rel: str_field(v, "rel")?,
                role: str_field(v, "role")?,
                card,
            }
        }
        "set_relation" => {
            let roles_json = v
                .get("roles")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::bad_request("set_relation needs a 'roles' array"))?;
            let mut roles = Vec::with_capacity(roles_json.len());
            for r in roles_json {
                roles.push(
                    r.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| WireError::bad_request("role names must be strings"))?,
                );
            }
            let mut constraints = Vec::new();
            if let Some(cs) = v.get("constraints") {
                let cs = cs
                    .as_arr()
                    .ok_or_else(|| WireError::bad_request("'constraints' must be an array"))?;
                for clause in cs {
                    let lits = clause.as_arr().ok_or_else(|| {
                        WireError::bad_request("constraint clause must be an array")
                    })?;
                    let mut clause_out = Vec::with_capacity(lits.len());
                    for lit in lits {
                        let role = str_field(lit, "role")?;
                        let formula = match lit.get("formula") {
                            None => Vec::new(),
                            Some(f) => parse_formula(f)?,
                        };
                        clause_out.push((role, formula));
                    }
                    constraints.push(clause_out);
                }
            }
            WireDelta::SetRelation { name: str_field(v, "name")?, roles, constraints }
        }
        "remove_relation" => WireDelta::RemoveRelation { name: str_field(v, "name")? },
        other => {
            return Err(WireError::bad_request(format!("unknown delta kind '{other}'")));
        }
    })
}

fn parse_query(v: &Json) -> Result<WireQuery, WireError> {
    let kind = str_field(v, "kind")?;
    Ok(match kind.as_str() {
        "satisfiable" => WireQuery::Satisfiable(str_field(v, "class")?),
        "coherent" => WireQuery::Coherent,
        "subsumes" => {
            WireQuery::Subsumes { sup: str_field(v, "sup")?, sub: str_field(v, "sub")? }
        }
        "disjoint" => WireQuery::Disjoint(str_field(v, "a")?, str_field(v, "b")?),
        "equivalent" => WireQuery::Equivalent(str_field(v, "a")?, str_field(v, "b")?),
        other => {
            return Err(WireError::bad_request(format!("unknown query kind '{other}'")));
        }
    })
}

/// Parses one already-JSON-decoded frame into an envelope and request.
///
/// The envelope is returned even on error when it can be extracted, so
/// the error response can still echo the request id.
///
/// # Errors
/// `bad_request` on shape problems.
pub fn parse_request(frame: &Json) -> (Envelope, Result<Request, WireError>) {
    let envelope = Envelope {
        id: frame.get("id").and_then(Json::as_u64),
        tenant: frame
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("default")
            .to_owned(),
    };
    let request = parse_request_body(frame);
    (envelope, request)
}

fn parse_request_body(frame: &Json) -> Result<Request, WireError> {
    if !matches!(frame, Json::Obj(_)) {
        return Err(WireError::bad_request("frame must be a JSON object"));
    }
    let op = str_field(frame, "op")?;
    Ok(match op.as_str() {
        "ping" => Request::Ping,
        "open" => Request::Open {
            workspace: workspace_field(frame)?,
            schema: str_field(frame, "schema")?,
            replace: frame.get("replace").and_then(Json::as_bool).unwrap_or(false),
        },
        "close" => Request::Close { workspace: workspace_field(frame)? },
        "apply" => {
            let deltas_json = frame
                .get("deltas")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::bad_request("apply needs a 'deltas' array"))?;
            let mut deltas = Vec::with_capacity(deltas_json.len());
            for d in deltas_json {
                deltas.push(parse_delta(d)?);
            }
            Request::Apply { workspace: workspace_field(frame)?, deltas }
        }
        "undo" => Request::Undo { workspace: workspace_field(frame)? },
        "redo" => Request::Redo { workspace: workspace_field(frame)? },
        "query" => {
            let queries_json = frame
                .get("queries")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::bad_request("query needs a 'queries' array"))?;
            let mut queries = Vec::with_capacity(queries_json.len());
            for q in queries_json {
                queries.push(parse_query(q)?);
            }
            Request::Query { workspace: workspace_field(frame)?, queries }
        }
        "stats" => Request::Stats { workspace: workspace_field(frame)? },
        "list" => Request::List,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => return Err(WireError::bad_request(format!("unknown op '{other}'"))),
    })
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

fn id_json(id: Option<u64>) -> Json {
    match id {
        Some(n) => Json::UInt(n),
        None => Json::Null,
    }
}

/// A success response: `{"id":…,"ok":true,…extra}`.
#[must_use]
pub fn ok_response(id: Option<u64>, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![("id", id_json(id)), ("ok", Json::Bool(true))];
    fields.extend(extra);
    json::to_string(&obj(fields)) + "\n"
}

/// An error response: `{"id":…,"ok":false,"error":{…}}`.
#[must_use]
pub fn err_response(id: Option<u64>, error: &WireError) -> String {
    json::to_string(&obj(vec![
        ("id", id_json(id)),
        ("ok", Json::Bool(false)),
        ("error", error.to_json()),
    ])) + "\n"
}

/// One per-query answer object. `Ok(bool)` becomes
/// `{"outcome":"proved"|"disproved"}`; an error becomes
/// `{"outcome":"unknown","cause":…,"message":…}` so clients see *why*
/// (deadline vs cancellation vs step/memory budget vs a structurally
/// invalid query) without the connection or the workspace failing.
#[must_use]
pub fn answer_json(result: &Result<bool, ReasonerError>) -> Json {
    match result {
        Ok(true) => obj(vec![("outcome", s("proved"))]),
        Ok(false) => obj(vec![("outcome", s("disproved"))]),
        Err(e) => unknown_answer(reasoner_error_cause(e), &e.to_string()),
    }
}

/// The stable cause string for a [`ReasonerError`].
#[must_use]
pub fn reasoner_error_cause(e: &ReasonerError) -> &'static str {
    match e {
        ReasonerError::TooLarge(_) => "too_large",
        ReasonerError::Extract(_) => "extract",
        ReasonerError::InvalidSchema(_) => "invalid_schema",
        ReasonerError::ClassOutOfRange { .. } => "class_out_of_range",
        ReasonerError::DeadlineExceeded(_) => "deadline",
        ReasonerError::Cancelled(_) => "cancelled",
        ReasonerError::BudgetExhausted(_) => "budget",
    }
}

/// An `{"outcome":"unknown","cause":…,"message":…}` answer.
#[must_use]
pub fn unknown_answer(cause: &str, message: &str) -> Json {
    obj(vec![("outcome", s("unknown")), ("cause", s(cause)), ("message", s(message))])
}

// ---------------------------------------------------------------------
// Incremental frame decoding
// ---------------------------------------------------------------------

/// One decoded framing event from a [`FrameDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A complete frame (without the trailing newline). May be
    /// whitespace-only; callers skip those without responding.
    Frame(Vec<u8>),
    /// A line exceeded the frame cap. Its bytes were discarded up to and
    /// including the terminating newline (resync-at-newline), so the
    /// next frame decodes normally.
    TooLarge,
}

/// Incremental `\n`-delimited frame decoder over an externally-fed byte
/// stream, with the exact semantics of the original blocking
/// `read_frame` loop: frames are capped at `max` bytes (the cap is
/// inclusive), an over-cap line is discarded to its newline and
/// surfaced as one [`Decoded::TooLarge`] event, and a final
/// unterminated line at EOF counts as a frame ([`FrameDecoder::finish`]).
///
/// Memory is bounded: the partial-line accumulator never exceeds `max`
/// bytes (an over-cap partial is dropped immediately and the decoder
/// switches to discard mode), and callers stop feeding input while
/// decoded frames are pending.
pub struct FrameDecoder {
    max: usize,
    /// The current (last, unterminated) line so far. Empty while `over`.
    partial: Vec<u8>,
    /// The current line already exceeded `max`; its remaining bytes are
    /// being discarded until the next newline.
    over: bool,
    /// Complete events not yet consumed, in arrival order.
    events: std::collections::VecDeque<Decoded>,
}

impl FrameDecoder {
    /// A fresh decoder with an inclusive per-frame byte cap.
    #[must_use]
    pub fn new(max: usize) -> FrameDecoder {
        FrameDecoder {
            max,
            partial: Vec::new(),
            over: false,
            events: std::collections::VecDeque::new(),
        }
    }

    /// Feeds bytes read from the connection. Complete lines become
    /// queued events; a trailing fragment is buffered (or dropped, if it
    /// pushes the current line over the cap).
    pub fn push(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (line, after) = rest.split_at(pos);
            rest = &after[1..];
            if self.over || self.partial.len() + line.len() > self.max {
                self.partial.clear();
                self.over = false;
                self.events.push_back(Decoded::TooLarge);
            } else {
                let mut frame = std::mem::take(&mut self.partial);
                frame.extend_from_slice(line);
                self.events.push_back(Decoded::Frame(frame));
            }
        }
        if !rest.is_empty() && !self.over {
            if self.partial.len() + rest.len() > self.max {
                self.partial.clear();
                self.over = true;
            } else {
                self.partial.extend_from_slice(rest);
            }
        }
    }

    /// The next decoded event, if any.
    pub fn next_event(&mut self) -> Option<Decoded> {
        self.events.pop_front()
    }

    /// Signals EOF: a buffered unterminated line becomes a final frame
    /// (or `TooLarge`, if it had overflowed). Returns `None` on a clean
    /// boundary. Idempotent once drained.
    pub fn finish(&mut self) -> Option<Decoded> {
        if let Some(event) = self.events.pop_front() {
            return Some(event);
        }
        if self.over {
            self.over = false;
            self.partial.clear();
            return Some(Decoded::TooLarge);
        }
        if self.partial.is_empty() {
            return None;
        }
        Some(Decoded::Frame(std::mem::take(&mut self.partial)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn parses_a_query_request() {
        let frame = parse(
            r#"{"id":7,"op":"query","tenant":"acme","workspace":"w",
                "queries":[{"kind":"subsumes","sup":"Person","sub":"Student"},
                           {"kind":"coherent"}]}"#,
        )
        .unwrap();
        let (env, req) = parse_request(&frame);
        assert_eq!(env.id, Some(7));
        assert_eq!(env.tenant, "acme");
        assert_eq!(
            req.unwrap(),
            Request::Query {
                workspace: "w".into(),
                queries: vec![
                    WireQuery::Subsumes { sup: "Person".into(), sub: "Student".into() },
                    WireQuery::Coherent,
                ],
            }
        );
    }

    #[test]
    fn shape_errors_keep_the_request_id() {
        let frame = parse(r#"{"id":3,"op":"query","workspace":"w"}"#).unwrap();
        let (env, req) = parse_request(&frame);
        assert_eq!(env.id, Some(3));
        let err = req.unwrap_err();
        assert_eq!(err.kind, "bad_request");
    }

    #[test]
    fn parses_deltas() {
        let frame = parse(
            r#"{"op":"apply","workspace":"w","deltas":[
                {"kind":"add_class","name":"C"},
                {"kind":"set_isa","class":"C","isa":[[{"class":"A"},{"class":"B","neg":true}]]},
                {"kind":"set_attribute","class":"C","attr":"age","spec":{"card":[1,1],"type":[[{"class":"A"}]]}},
                {"kind":"set_participation","class":"C","rel":"R","role":"r1","card":[0,null]},
                {"kind":"set_relation","name":"R","roles":["r1","r2"],"constraints":[[{"role":"r1","formula":[[{"class":"A"}]]}]]},
                {"kind":"remove_relation","name":"R"}]}"#,
        )
        .unwrap();
        let (_, req) = parse_request(&frame);
        let Request::Apply { deltas, .. } = req.unwrap() else { panic!("not apply") };
        assert_eq!(deltas.len(), 6);
        assert_eq!(
            deltas[1],
            WireDelta::SetIsa {
                class: "C".into(),
                isa: vec![vec![("A".into(), false), ("B".into(), true)]],
            }
        );
        assert_eq!(
            deltas[3],
            WireDelta::SetParticipation {
                class: "C".into(),
                rel: "R".into(),
                role: "r1".into(),
                card: Some(Card { min: 0, max: None }),
            }
        );
    }

    #[test]
    fn unknown_ops_and_kinds_are_bad_requests() {
        for text in [
            r#"{"op":"explode"}"#,
            r#"{"op":"apply","workspace":"w","deltas":[{"kind":"warp"}]}"#,
            r#"{"op":"query","workspace":"w","queries":[{"kind":"guess"}]}"#,
            r#"[1,2,3]"#,
            r#""just a string""#,
        ] {
            let (_, req) = parse_request(&parse(text).unwrap());
            assert_eq!(req.unwrap_err().kind, "bad_request", "{text}");
        }
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(Some(1), vec![("pong", Json::Bool(true))]);
        assert_eq!(ok, "{\"id\":1,\"ok\":true,\"pong\":true}\n");
        let err = err_response(None, &WireError::bad_request("nope"));
        assert!(err.ends_with('\n'));
        assert_eq!(err.matches('\n').count(), 1);
    }

    #[test]
    fn decoder_splits_pipelined_frames_and_counts_partial_finals() {
        let mut d = FrameDecoder::new(10);
        d.push(b"abc\nde");
        assert_eq!(d.next_event(), Some(Decoded::Frame(b"abc".to_vec())));
        assert_eq!(d.next_event(), None);
        d.push(b"f\n");
        assert_eq!(d.next_event(), Some(Decoded::Frame(b"def".to_vec())));
        d.push(b"tail");
        assert_eq!(d.next_event(), None);
        assert_eq!(d.finish(), Some(Decoded::Frame(b"tail".to_vec())));
        assert_eq!(d.finish(), None);
    }

    #[test]
    fn decoder_discards_oversized_lines_to_the_newline() {
        let mut d = FrameDecoder::new(10);
        // Dripped in one byte at a time, the over-cap line still costs
        // at most `max` bytes of buffer and resyncs at its newline.
        for b in b"x".iter().cycle().take(100) {
            d.push(&[*b]);
        }
        assert_eq!(d.next_event(), None);
        d.push(b"yyy\nok\n");
        assert_eq!(d.next_event(), Some(Decoded::TooLarge));
        assert_eq!(d.next_event(), Some(Decoded::Frame(b"ok".to_vec())));
        assert_eq!(d.next_event(), None);
    }

    #[test]
    fn decoder_exact_cap_is_not_too_large() {
        let mut d = FrameDecoder::new(5);
        d.push(b"12345\n123456\n");
        assert_eq!(d.next_event(), Some(Decoded::Frame(b"12345".to_vec())));
        assert_eq!(d.next_event(), Some(Decoded::TooLarge));
    }

    #[test]
    fn decoder_oversized_final_line_is_too_large_at_eof() {
        let mut d = FrameDecoder::new(4);
        d.push(b"toolongline");
        assert_eq!(d.finish(), Some(Decoded::TooLarge));
        assert_eq!(d.finish(), None);
    }

    #[test]
    fn decoder_preserves_order_across_cap_violations() {
        let mut d = FrameDecoder::new(4);
        d.push(b"ok1\nwaytoolong\nok2\n");
        assert_eq!(d.next_event(), Some(Decoded::Frame(b"ok1".to_vec())));
        assert_eq!(d.next_event(), Some(Decoded::TooLarge));
        assert_eq!(d.next_event(), Some(Decoded::Frame(b"ok2".to_vec())));
        assert_eq!(d.next_event(), None);
    }
}
