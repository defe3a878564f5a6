//! The `/v1/solve` wire protocol: request parsing/validation and
//! deterministic response serialization.
//!
//! Request body (JSON object):
//!
//! ```json
//! {
//!   "dataset": "uncertain16",        // preloaded name … or …
//!   "db": { "database": …, "model": …, "errors": […] },  // inline spec
//!   "query": "exists x. S(x)",
//!   "free": ["x", "y"],              // optional, default: sorted free vars
//!   "method": "auto",                // any `Method::ALL` name, e.g. "plan"
//!   "eps": 0.05, "delta": 0.05,      // sampling accuracy
//!   "seed": 0,                       // RNG seed (part of the cache key)
//!   "timeout_ms": 1000               // per-request Budget deadline
//! }
//! ```
//!
//! The inline `"db"` is an `UnreliableDatabaseSpec` object with its keys
//! in any order. It is decoded straight from the body bytes by
//! [`DecodedSpec`], under the same [`ParseLimits`] (depth and bytes) as
//! the rest of the body; no `Value` tree of it is built.
//!
//! The response body is a *deterministic* function of the request when
//! no wall-clock trip occurred: it carries no timestamps or elapsed
//! times (those ride in `X-Qrel-Elapsed-Us` / `/metrics`), so a cached
//! body is bit-identical to what a fresh solve would serialize.

use qrel_runtime::{Method, SolveReport};
use qrel_sched::Priority;
use qrel_store::{DecodeError, DecodedSpec};
use serde::Value;
use serde_json::{ParseLimits, Reader};

/// Which database a request targets.
#[derive(Debug)]
pub enum DbRef {
    /// A dataset preloaded at server start, by name.
    Named(String),
    /// An inline spec shipped in the request body, decoded but not yet
    /// built (admission builds and hashes it, then drops it).
    Inline(Box<DecodedSpec>),
}

/// A validated solve request — the one envelope shared by
/// `POST /v1/solve` and `POST /v1/jobs`.
#[derive(Debug)]
pub struct SolveRequest {
    pub db: DbRef,
    pub query: String,
    pub free: Option<Vec<String>>,
    pub method: Method,
    pub eps: f64,
    pub delta: f64,
    pub seed: u64,
    pub timeout_ms: Option<u64>,
    /// Tenant the job is accounted against. Body field wins over the
    /// `X-Qrel-Tenant` header; both absent means `"default"`.
    pub tenant: Option<String>,
    /// Scheduler band (`high`/`normal`/`low`), default `normal`.
    pub priority: Priority,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Parse and validate a `/v1/solve` body. The error string is shipped
/// back verbatim in a `400` response.
///
/// The body is walked once with a [`Reader`]: the inline `"db"` member
/// is decoded in place by [`DecodedSpec::read`], the other known members
/// are read as small values. Every check runs after the whole body has
/// parsed, so malformed JSON anywhere is reported first, as `bad JSON`.
pub fn parse_solve_request(body: &[u8], limits: ParseLimits) -> Result<SolveRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let bad_json = |e: serde_json::Error| format!("bad JSON: {e}");
    let mut r = Reader::new(text, limits).map_err(bad_json)?;
    if let Err(e) = r.begin_object() {
        if !e.is_data() {
            return Err(bad_json(e));
        }
        let value = r.value().map_err(bad_json)?;
        r.finish().map_err(bad_json)?;
        return Err(format!("body must be a JSON object, got {}", value.kind()));
    }

    // The small members as an object; the last "db" wins, as a repeated
    // key does in `Value::get`.
    let mut pairs = Vec::new();
    let mut db: Option<Result<DecodedSpec, String>> = None;
    let mut unknown = None;
    while let Some(key) = r.next_key().map_err(bad_json)? {
        match &*key {
            "db" => {
                db = Some(match DecodedSpec::read(&mut r) {
                    Ok(spec) => Ok(spec),
                    Err(DecodeError::Json(e)) => return Err(bad_json(e)),
                    Err(DecodeError::Spec(m)) => Err(m),
                })
            }
            "dataset" | "query" | "free" | "method" | "eps" | "delta" | "seed" | "timeout_ms"
            | "tenant" | "priority" => pairs.push((key.into_owned(), r.value().map_err(bad_json)?)),
            _ => {
                unknown.get_or_insert_with(|| key.into_owned());
                r.skip().map_err(bad_json)?;
            }
        }
    }
    r.finish().map_err(bad_json)?;
    if let Some(key) = unknown {
        return Err(format!("unknown field {key:?}"));
    }
    let value = Value::Object(pairs);

    let db = match (value.get("dataset"), db) {
        (Some(_), Some(_)) => {
            return Err("give either \"dataset\" or \"db\", not both".into());
        }
        (Some(name), None) => {
            let name = name
                .as_str()
                .ok_or_else(|| "\"dataset\" must be a string".to_string())?;
            DbRef::Named(name.to_string())
        }
        (None, Some(spec)) => {
            DbRef::Inline(Box::new(spec.map_err(|e| format!("bad \"db\" spec: {e}"))?))
        }
        (None, None) => return Err("missing \"dataset\" or \"db\"".into()),
    };

    let query = value
        .get("query")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "missing string field \"query\"".to_string())?
        .to_string();

    let free = match value.get("free") {
        None => None,
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| "\"free\" must be an array of strings".to_string())?;
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                names.push(
                    item.as_str()
                        .ok_or_else(|| "\"free\" must be an array of strings".to_string())?
                        .to_string(),
                );
            }
            Some(names)
        }
    };

    let method_name = value
        .get("method")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "\"method\" must be a string".to_string())
        })
        .transpose()?
        .unwrap_or_else(|| "auto".to_string());
    let method = Method::parse(&method_name)
        .ok_or_else(|| format!("unknown method {method_name:?} ({})", Method::names()))?;

    let eps = match value.get("eps") {
        None => 0.05,
        Some(v) => as_f64(v).ok_or_else(|| "\"eps\" must be a number".to_string())?,
    };
    let delta = match value.get("delta") {
        None => 0.05,
        Some(v) => as_f64(v).ok_or_else(|| "\"delta\" must be a number".to_string())?,
    };
    if !(eps > 0.0 && eps.is_finite()) {
        return Err("\"eps\" must be a positive finite number".into());
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err("\"delta\" must be in (0, 1)".into());
    }

    let seed = match value.get("seed") {
        None => 0,
        Some(v) => {
            as_u64(v).ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?
        }
    };
    let timeout_ms = match value.get("timeout_ms") {
        None => None,
        Some(v) => Some(
            as_u64(v).ok_or_else(|| "\"timeout_ms\" must be a non-negative integer".to_string())?,
        ),
    };

    let tenant = match value.get("tenant") {
        None => None,
        Some(v) => {
            let t = v
                .as_str()
                .ok_or_else(|| "\"tenant\" must be a string".to_string())?;
            if t.is_empty() || t.len() > 64 {
                return Err("\"tenant\" must be 1..=64 characters".into());
            }
            Some(t.to_string())
        }
    };
    let priority = match value.get("priority") {
        None => Priority::Normal,
        Some(v) => {
            let p = v
                .as_str()
                .ok_or_else(|| "\"priority\" must be a string".to_string())?;
            Priority::parse(p).ok_or_else(|| format!("unknown priority {p:?} (high|normal|low)"))?
        }
    };

    Ok(SolveRequest {
        db,
        query,
        free,
        method,
        eps,
        delta,
        seed,
        timeout_ms,
        tenant,
        priority,
    })
}

/// Serialize a solve report into the response body. Deliberately
/// excludes `elapsed` (see the module docs).
pub fn solve_response_body(report: &SolveReport) -> Vec<u8> {
    let mut obj: Vec<(String, Value)> = Vec::with_capacity(9);
    obj.push(("reliability".into(), Value::Float(report.reliability)));
    obj.push((
        "exact".into(),
        match &report.exact {
            Some(r) => Value::Str(r.to_string()),
            None => Value::Null,
        },
    ));
    obj.push((
        "bounds".into(),
        match report.bounds {
            Some((lo, hi)) => Value::Array(vec![Value::Float(lo), Value::Float(hi)]),
            None => Value::Null,
        },
    ));
    obj.push(("method".into(), Value::Str(report.method.to_string())));
    obj.push((
        "confidence".into(),
        Value::Str(report.confidence.to_string()),
    ));
    obj.push((
        "guaranteed".into(),
        Value::Bool(report.confidence.is_guaranteed()),
    ));
    obj.push((
        "spent".into(),
        Value::Object(vec![
            ("worlds".into(), Value::Int(report.worlds as i128)),
            ("samples".into(), Value::Int(report.samples as i128)),
            ("terms".into(), Value::Int(report.terms as i128)),
        ]),
    ));
    obj.push(("trace".into(), Value::Str(report.trace_line())));
    serde_json::to_string(&Value::Object(obj))
        .expect("value serialization is infallible")
        .into_bytes()
}

/// The structured error envelope shared by every endpoint (and the CLI
/// in `--json` mode):
///
/// ```json
/// {"error":{"code":"queue_full","message":"…","retryable":true,"retry_after_ms":2000}}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorEnvelope {
    pub code: String,
    pub message: String,
    pub retryable: bool,
    /// Mirrors the `Retry-After` header (which is in whole seconds)
    /// with millisecond precision; `None` when there is no point
    /// retrying on a timer.
    pub retry_after_ms: Option<u64>,
}

impl ErrorEnvelope {
    /// Serialize into the wire body.
    pub fn to_body(&self) -> Vec<u8> {
        let obj: Vec<(String, Value)> = vec![
            ("code".into(), Value::Str(self.code.clone())),
            ("message".into(), Value::Str(self.message.clone())),
            ("retryable".into(), Value::Bool(self.retryable)),
            (
                "retry_after_ms".into(),
                match self.retry_after_ms {
                    Some(ms) => Value::Int(ms as i128),
                    None => Value::Null,
                },
            ),
        ];
        serde_json::to_string(&Value::Object(vec![("error".into(), Value::Object(obj))]))
            .expect("value serialization is infallible")
            .into_bytes()
    }

    /// Parse a wire body back into the envelope (round-trip testing and
    /// client-side use).
    pub fn from_body(body: &[u8]) -> Result<ErrorEnvelope, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let value: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        let inner = value
            .get("error")
            .ok_or_else(|| "missing \"error\" object".to_string())?;
        let code = inner
            .get("code")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "missing string field \"error.code\"".to_string())?
            .to_string();
        let message = inner
            .get("message")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "missing string field \"error.message\"".to_string())?
            .to_string();
        let retryable = match inner.get("retryable") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing bool field \"error.retryable\"".into()),
        };
        let retry_after_ms = match inner.get("retry_after_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_u64(v).ok_or_else(|| {
                "\"error.retry_after_ms\" must be a non-negative integer".to_string()
            })?),
        };
        Ok(ErrorEnvelope {
            code,
            message,
            retryable,
            retry_after_ms,
        })
    }
}

/// The canonical error code for an HTTP status.
pub fn error_code_for_status(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "read_timeout",
        409 => "conflict",
        413 => "payload_too_large",
        422 => "unprocessable",
        429 => "queue_full",
        500 => "internal",
        503 => "unavailable",
        _ => "error",
    }
}

/// Whether a retry of the identical request can plausibly succeed.
pub fn status_is_retryable(status: u16) -> bool {
    matches!(status, 408 | 429 | 500 | 503)
}

/// Build the envelope body for a failure status. `retry_after_secs`
/// should match the `Retry-After` header when one is sent.
pub fn error_body(status: u16, message: &str, retry_after_secs: Option<u64>) -> Vec<u8> {
    ErrorEnvelope {
        code: error_code_for_status(status).to_string(),
        message: message.to_string(),
        retryable: status_is_retryable(status),
        retry_after_ms: retry_after_secs.map(|s| s * 1000),
    }
    .to_body()
}

/// `POST /v1/jobs` acceptance body.
pub fn job_accepted_body(job_id: u64, coalesced: bool, state: &str) -> Vec<u8> {
    serde_json::to_string(&Value::Object(vec![
        ("job_id".into(), Value::Int(job_id as i128)),
        ("coalesced".into(), Value::Bool(coalesced)),
        ("state".into(), Value::Str(state.to_string())),
    ]))
    .expect("value serialization is infallible")
    .into_bytes()
}

/// `GET /v1/jobs/{id}` body. `result` is the terminal solve outcome —
/// the exact `(status, body)` the synchronous facade would have
/// returned, spliced verbatim so a job result is bit-identical to a
/// direct solve (and to every other fetch of the same job). `error`
/// carries a pre-built [`ErrorEnvelope`] for failed/cancelled jobs.
#[allow(clippy::too_many_arguments)]
pub fn job_status_body(
    job_id: u64,
    tenant: &str,
    state: &str,
    priority: &str,
    coalesced: bool,
    progress: &str,
    result: Option<(u16, &[u8])>,
    error: Option<&ErrorEnvelope>,
) -> Vec<u8> {
    let js = |s: &str| serde_json::to_string(&Value::Str(s.to_string())).expect("string");
    let mut out = String::with_capacity(160 + result.map_or(0, |(_, b)| b.len()));
    out.push_str(&format!(
        "{{\"job_id\":{job_id},\"tenant\":{},\"state\":{},\"priority\":{},\"coalesced\":{coalesced},\"progress\":{}",
        js(tenant),
        js(state),
        js(priority),
        js(progress),
    ));
    match result {
        Some((status, body)) => {
            out.push_str(&format!(",\"result\":{{\"status\":{status},\"body\":"));
            out.push_str(std::str::from_utf8(body).expect("stored bodies are JSON"));
            out.push('}');
        }
        None => out.push_str(",\"result\":null"),
    }
    match error {
        Some(env) => {
            let body = env.to_body();
            let text = std::str::from_utf8(&body).expect("envelope is JSON");
            // Splice the inner object: {"error":{…}} → {…}.
            out.push_str(",\"error\":");
            out.push_str(&text["{\"error\":".len()..text.len() - 1]);
        }
        None => out.push_str(",\"error\":null"),
    }
    out.push('}');
    out.into_bytes()
}

/// `GET /v1/jobs` (tenant-scoped list) body. Items are
/// `(job_id, state, priority, coalesced)` in submit order.
pub fn job_list_body(tenant: &str, items: &[(u64, String, String, bool)]) -> Vec<u8> {
    let jobs = items
        .iter()
        .map(|(id, state, priority, coalesced)| {
            Value::Object(vec![
                ("job_id".into(), Value::Int(*id as i128)),
                ("state".into(), Value::Str(state.clone())),
                ("priority".into(), Value::Str(priority.clone())),
                ("coalesced".into(), Value::Bool(*coalesced)),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("tenant".into(), Value::Str(tenant.to_string())),
        ("jobs".into(), Value::Array(jobs)),
    ]))
    .expect("value serialization is infallible")
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_runtime::{Completion, Confidence, RungOutcome, TraceStep};
    use std::time::Duration;

    fn limits() -> ParseLimits {
        ParseLimits {
            max_depth: 64,
            max_bytes: 1 << 20,
        }
    }

    #[test]
    fn minimal_request_defaults() {
        let req = parse_solve_request(br#"{"dataset":"d16","query":"exists x. S(x)"}"#, limits())
            .unwrap();
        assert!(matches!(req.db, DbRef::Named(ref n) if n == "d16"));
        assert_eq!(req.method, Method::Auto);
        assert_eq!(req.eps, 0.05);
        assert_eq!(req.delta, 0.05);
        assert_eq!(req.seed, 0);
        assert_eq!(req.timeout_ms, None);
        assert!(req.free.is_none());
    }

    #[test]
    fn full_request_parses() {
        let req = parse_solve_request(
            br#"{"dataset":"d","query":"S(x)","free":["x"],"method":"exact",
                 "eps":0.1,"delta":0.01,"seed":7,"timeout_ms":250}"#,
            limits(),
        )
        .unwrap();
        assert_eq!(req.method, Method::Exact);
        assert_eq!(req.free.as_deref(), Some(&["x".to_string()][..]));
        assert_eq!(req.seed, 7);
        assert_eq!(req.timeout_ms, Some(250));
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let cases: &[&[u8]] = &[
            b"not json",
            br#"[1,2]"#,
            br#"{"query":"S(x)"}"#,
            br#"{"dataset":"d","db":{},"query":"q"}"#,
            br#"{"dataset":"d"}"#,
            br#"{"dataset":"d","query":"q","method":"quantum"}"#,
            br#"{"dataset":"d","query":"q","eps":0}"#,
            br#"{"dataset":"d","query":"q","delta":1.5}"#,
            br#"{"dataset":"d","query":"q","seed":-1}"#,
            br#"{"dataset":"d","query":"q","surprise":true}"#,
        ];
        for body in cases {
            assert!(
                parse_solve_request(body, limits()).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    /// The admission an inline spec got before the pull decoder, as the
    /// referee: the whole body parsed into a tree, the last `"db"`
    /// deserialized, then built and hashed.
    fn tree_admission(body: &str, limits: ParseLimits) -> Result<u64, String> {
        let tree = |body| {
            let mut r = Reader::new(body, limits)?;
            let value = r.value()?;
            r.finish().map(|()| value)
        };
        let value = tree(body).map_err(|e| format!("bad JSON: {e}"))?;
        let db = value.get("db").cloned().expect("every case carries a db");
        let spec: qrel_prob::UnreliableDatabaseSpec =
            serde_json::from_value(db).map_err(|e| format!("bad \"db\" spec: {e}"))?;
        let ud = spec.build().map_err(|e| format!("invalid spec: {e}"))?;
        Ok(qrel_store::db_hash_of(&ud))
    }

    /// Admission now: [`parse_solve_request`], then build and hash, as
    /// `admit_solve` does.
    fn admission(body: &str, limits: ParseLimits) -> Result<u64, String> {
        let req = parse_solve_request(body.as_bytes(), limits)?;
        let DbRef::Inline(spec) = req.db else {
            panic!("{body} names a dataset")
        };
        let ud = spec.build().map_err(|e| format!("invalid spec: {e}"))?;
        Ok(qrel_store::db_hash_of(&ud))
    }

    /// The outcome class a client sees: the db-hash, or the message's
    /// prefix (every one of them a `400`).
    fn class(outcome: &Result<u64, String>) -> Result<u64, &'static str> {
        match outcome {
            Ok(hash) => Ok(*hash),
            Err(m) => Err(["bad JSON", "bad \"db\" spec", "invalid spec"]
                .into_iter()
                .find(|p| m.starts_with(p))
                .unwrap_or_else(|| panic!("unclassified refusal {m:?}"))),
        }
    }

    const SPEC: &str = r#"{"database":{"vocab":{"symbols":[{"name":"E","arity":2},{"name":"S","arity":1}]},"universe":{"names":["a","b","c"]},"relations":[{"arity":2,"tuples":[[0,1],[1,2]]},{"arity":1,"tuples":[[2]]}]},"model":"full","errors":[{"relation":"E","tuple":[0,1],"mu":"1/3"},{"relation":"S","tuple":[0],"mu":"1/4"}]}"#;

    fn body_with(spec: &str) -> String {
        format!(r#"{{"db":{spec},"query":"exists x. S(x)","seed":3}}"#)
    }

    #[test]
    fn inline_specs_are_refused_as_the_tree_path_refused_them() {
        let good = body_with(SPEC);
        let edits: &[(&str, &str, &str)] = &[
            // Malformed or wrong-typed text.
            ("truncated", "", ""),
            (
                "database type",
                r#"{"database":{"vocab""#,
                r#"{"database":5,"x":{"vocab""#,
            ),
            ("errors type", r#""errors":["#, r#""errors":{},"y":["#),
            ("tuple type", r#""tuple":[0],"#, r#""tuple":"x","#),
            ("mu type", r#""mu":"1/4""#, r#""mu":3"#),
            ("names type", r#""names":["a","#, r#""names":[1,"#),
            ("trailing comma", r#"[[2]]"#, r#"[[2],]"#),
            // The observed database's own checks.
            (
                "relation arity",
                r#""tuples":[[0,1],[1,2]]"#,
                r#""tuples":[[0,1,1]]"#,
            ),
            (
                "instance arity",
                r#"{"arity":1,"tuples":[[2]]}"#,
                r#"{"arity":2,"tuples":[]}"#,
            ),
            ("observed element", r#""tuples":[[2]]"#, r#""tuples":[[3]]"#),
            ("duplicate names", r#"["a","b","c"]"#, r#"["a","b","a"]"#),
            (
                "duplicate symbols",
                r#"{"name":"S","arity":1}"#,
                r#"{"name":"E","arity":1}"#,
            ),
            ("missing database", r#""database":"#, r#""base":"#),
            // The fact rule, at build.
            ("row arity", r#""tuple":[0,1],"#, r#""tuple":[0],"#),
            ("row element", r#""tuple":[0,1],"#, r#""tuple":[0,9],"#),
            ("unknown relation", r#""relation":"S""#, r#""relation":"T""#),
            ("mu above 1", r#""mu":"1/4""#, r#""mu":"3/2""#),
            ("mu below 0", r#""mu":"1/4""#, r#""mu":"-1/4""#),
            ("zero denominator", r#""mu":"1/4""#, r#""mu":"1/0""#),
            ("not a rational", r#""mu":"1/4""#, r#""mu":"x""#),
            ("unknown model", r#""model":"full""#, r#""model":"half""#),
            (
                "positive-only",
                r#""model":"full""#,
                r#""model":"positive-only""#,
            ),
        ];
        let limits = limits();
        assert_eq!(
            class(&admission(&good, limits)),
            class(&tree_admission(&good, limits))
        );
        assert!(admission(&good, limits).is_ok());
        for &(name, from, to) in edits {
            let body = if name == "truncated" {
                good[..good.len() / 2].to_string()
            } else {
                assert!(good.contains(from), "{name}: {from} not in the body");
                good.replacen(from, to, 1)
            };
            let (now, then) = (admission(&body, limits), tree_admission(&body, limits));
            assert!(now.is_err(), "{name}: accepted");
            assert_eq!(class(&now), class(&then), "{name}: {now:?} vs {then:?}");
        }
        // Past the body limits, on both paths.
        for tight in [
            // body → db → database → relations → relation → tuples → tuple
            ParseLimits {
                max_depth: 6,
                ..limits
            },
            ParseLimits {
                max_bytes: good.len() - 1,
                ..limits
            },
        ] {
            let (now, then) = (admission(&good, tight), tree_admission(&good, tight));
            assert_eq!(class(&now), Err("bad JSON"), "{tight:?}: {now:?}");
            assert_eq!(class(&then), Err("bad JSON"), "{tight:?}: {then:?}");
        }
        // Exactly at the limits, both accept.
        let snug = ParseLimits {
            max_depth: 7,
            max_bytes: good.len(),
        };
        assert_eq!(
            class(&admission(&good, snug)),
            class(&tree_admission(&good, snug))
        );
        assert!(admission(&good, snug).is_ok());
    }

    #[test]
    fn the_last_db_key_wins_and_malformed_text_anywhere_is_bad_json() {
        let good = body_with(SPEC);
        let bad_spec = SPEC.replace(r#""tuple":[0],"#, r#""tuple":"x","#);
        let hash = admission(&good, limits()).unwrap();
        let last_good = good.replacen(r#"{"db":"#, &format!(r#"{{"db":{bad_spec},"db":"#), 1);
        let last_bad = good
            .replacen(r#"{"db":"#, &format!(r#"{{"db":{bad_spec},"db":"#), 1)
            .replacen(SPEC, "", 1)
            .replacen(r#""db":,"#, "", 1);
        for body in [&last_good, &last_bad] {
            assert_eq!(
                class(&admission(body, limits())),
                class(&tree_admission(body, limits())),
                "{body}"
            );
        }
        assert_eq!(admission(&last_good, limits()), Ok(hash));
        // A wrong-shaped db before malformed text is still bad JSON.
        let body = body_with(&bad_spec).replacen(r#""seed":3"#, r#""seed":3,"#, 1);
        assert_eq!(class(&admission(&body, limits())), Err("bad JSON"));
        // An escaped μ or relation name decodes to the plain spelling.
        let escaped = SPEC
            .replace(r#""mu":"1/3""#, r#""mu":"1\/3""#)
            .replace(r#""relation":"E""#, r#""relation":"\u0045""#);
        assert_eq!(admission(&body_with(&escaped), limits()), Ok(hash));
        // Keys in any order.
        let reordered = r#"{"seed":3, "query":"exists x. S(x)",
            "db": {"errors":[{"mu":"1/3","tuple":[0,1],"relation":"E"},{"relation":"S","tuple":[0],"mu":"1/4"}],
            "database":{"relations":[{"tuples":[[0,1],[1,2]],"arity":2},{"tuples":[[2]],"arity":1}],
            "universe":{"names":["a","b","c"]},"vocab":{"symbols":[{"arity":2,"name":"E"},{"arity":1,"name":"S"}]}}}}"#;
        assert_eq!(admission(reordered, limits()), Ok(hash));
    }

    fn report() -> SolveReport {
        SolveReport {
            reliability: 0.5,
            exact: None,
            bounds: None,
            confidence: Confidence::Fptras {
                eps: 0.05,
                delta: 0.05,
            },
            method: Method::Fptras,
            trace: vec![TraceStep {
                method: Method::Fptras,
                outcome: RungOutcome::Completed(Completion::Fptras {
                    eps: 0.05,
                    delta: 0.05,
                    tuples: 1,
                }),
            }],
            elapsed: Duration::from_millis(3),
            worlds: 0,
            samples: 10,
            terms: 2,
        }
    }

    #[test]
    fn response_body_is_stable_json() {
        let body = solve_response_body(&report());
        let text = String::from_utf8(body).unwrap();
        assert!(text.starts_with("{\"reliability\":0.5,"));
        assert!(text.contains("\"guaranteed\":true"));
        assert!(text.contains("\"spent\":{\"worlds\":0,\"samples\":10,\"terms\":2}"));
        // No timing field anywhere: the body must be cacheable.
        assert!(!text.contains("elapsed"));
    }

    #[test]
    fn tenant_and_priority_parse_and_validate() {
        let req = parse_solve_request(
            br#"{"dataset":"d","query":"q","tenant":"acme","priority":"low"}"#,
            limits(),
        )
        .unwrap();
        assert_eq!(req.tenant.as_deref(), Some("acme"));
        assert_eq!(req.priority, Priority::Low);
        // Defaults.
        let req = parse_solve_request(br#"{"dataset":"d","query":"q"}"#, limits()).unwrap();
        assert_eq!(req.tenant, None);
        assert_eq!(req.priority, Priority::Normal);
        // Rejections.
        for body in [
            br#"{"dataset":"d","query":"q","priority":"urgent"}"#.as_slice(),
            br#"{"dataset":"d","query":"q","tenant":""}"#.as_slice(),
            br#"{"dataset":"d","query":"q","tenant":7}"#.as_slice(),
        ] {
            assert!(
                parse_solve_request(body, limits()).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn error_envelope_shape_is_exact() {
        let body = error_body(429, "queue is full", Some(2));
        assert_eq!(
            body,
            br#"{"error":{"code":"queue_full","message":"queue is full","retryable":true,"retry_after_ms":2000}}"#
                .to_vec()
        );
        let body = error_body(400, "bad \"query\"", None);
        assert_eq!(
            body,
            br#"{"error":{"code":"bad_request","message":"bad \"query\"","retryable":false,"retry_after_ms":null}}"#
                .to_vec()
        );
    }

    #[test]
    fn error_envelope_round_trips_for_every_status() {
        // Exhaustive over the full failure surface: serialize → parse
        // must reproduce every field for each status the server emits.
        for status in [400u16, 404, 405, 408, 409, 413, 422, 429, 500, 503] {
            for retry in [None, Some(1), Some(30)] {
                let env = ErrorEnvelope {
                    code: error_code_for_status(status).to_string(),
                    message: format!("message for {status} with \"quotes\" and \\slash"),
                    retryable: status_is_retryable(status),
                    retry_after_ms: retry.map(|s: u64| s * 1000),
                };
                let parsed = ErrorEnvelope::from_body(&env.to_body()).unwrap();
                assert_eq!(parsed, env, "status {status}, retry {retry:?}");
            }
        }
        // Codes are distinct per status (the client can dispatch on
        // them without looking at the HTTP status line).
        let codes: std::collections::HashSet<&str> =
            [400u16, 404, 405, 408, 409, 413, 422, 429, 500, 503]
                .iter()
                .map(|&s| error_code_for_status(s))
                .collect();
        assert_eq!(codes.len(), 10);
        // Retryable statuses carry retryable: true.
        assert!(status_is_retryable(429) && status_is_retryable(503));
        assert!(!status_is_retryable(400) && !status_is_retryable(422));
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        for body in [
            br#"{"error":"stringly"}"#.as_slice(),
            br#"{"error":{"code":"x","retryable":true,"retry_after_ms":null}}"#.as_slice(),
            br#"{"error":{"code":"x","message":"m","retry_after_ms":null}}"#.as_slice(),
            br#"{"error":{"code":"x","message":"m","retryable":true,"retry_after_ms":-3}}"#
                .as_slice(),
            br#"{"ok":true}"#.as_slice(),
            b"not json".as_slice(),
        ] {
            assert!(
                ErrorEnvelope::from_body(body).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn job_bodies_are_stable_json() {
        assert_eq!(
            job_accepted_body(7, true, "queued"),
            br#"{"job_id":7,"coalesced":true,"state":"queued"}"#.to_vec()
        );
        // Terminal job with a spliced result: the embedded body bytes
        // appear verbatim.
        let result_body = br#"{"reliability":0.5,"method":"exact"}"#;
        let body = job_status_body(
            7,
            "default",
            "done",
            "normal",
            false,
            "",
            Some((200, result_body.as_slice())),
            None,
        );
        let text = String::from_utf8(body).unwrap();
        assert_eq!(
            text,
            r#"{"job_id":7,"tenant":"default","state":"done","priority":"normal","coalesced":false,"progress":"","result":{"status":200,"body":{"reliability":0.5,"method":"exact"}},"error":null}"#
        );
        // Failed job with an embedded error envelope object.
        let env = ErrorEnvelope {
            code: "internal".into(),
            message: "boom".into(),
            retryable: true,
            retry_after_ms: None,
        };
        let body = job_status_body(8, "t", "failed", "low", false, "", None, Some(&env));
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.contains(r#""error":{"code":"internal","message":"boom","retryable":true,"retry_after_ms":null}"#),
            "{text}"
        );
        // List body.
        let items = vec![(1u64, "done".to_string(), "normal".to_string(), false)];
        assert_eq!(
            job_list_body("default", &items),
            br#"{"tenant":"default","jobs":[{"job_id":1,"state":"done","priority":"normal","coalesced":false}]}"#
                .to_vec()
        );
    }
}
