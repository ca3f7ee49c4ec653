//! The wire protocol: newline-delimited text, one request per line.
//!
//! Grammar (tokens separated by ASCII whitespace):
//!
//! ```text
//! request   := [tag] verb
//! tag       := '#' token            -- echoed verbatim on the response line
//! verb      := "QUERY" table body   -- matching row ids
//!            | "COUNT" table body   -- matching row count
//!            | "TABLES"             -- registered table names
//!            | "STATS" [table]      -- server or per-table counters
//!            | "PING"               -- liveness probe
//! body      := pred*                -- conjunction (AND of the predicates)
//!            | "OR" pred pred*      -- disjunction (union of the predicates)
//! pred      := col "=" value        -- equality
//!            | col "<=" value       -- at most
//!            | col ">=" value       -- at least
//!            | col "=" lo ".." hi   -- inclusive range
//!            | col "=" v ("," v)+   -- IN-list (any of the listed values)
//! ```
//!
//! `QUERY t a>=3 b=1..9 c=5,7,9` selects rows satisfying *all three*
//! predicates; `QUERY t OR a=1 b>=100` selects rows satisfying *either*.
//! IN-list items are plain values — a `..` range inside a list is an
//! error, as is an empty item (`c=5,,9`). An `OR` group needs at least one
//! predicate: the empty disjunction would select nothing, which a client
//! can only mean by mistake.
//!
//! All bounds are inclusive, mirroring the engine's
//! [`ValueRange`](imprints_engine::ValueRange); strict comparisons are not
//! expressible on the wire because the index cannot answer them exactly.
//! Verbs and the `OR` keyword are case-insensitive; column names and tags
//! are case-sensitive.
//!
//! Responses are a single line each, prefixed with the request tag when one
//! was given:
//!
//! ```text
//! [tag] "OK" payload…      -- QUERY: count then ids; COUNT: count;
//!                          -- TABLES: names; STATS: key=value pairs
//! [tag] "ERR" message…     -- malformed request or evaluation error
//! [tag] "BUSY"             -- shed by admission control; retry later
//! ```
//!
//! Because every response carries its request tag, clients may pipeline.
//! Reply order, precisely: on one connection, `QUERY`/`COUNT` replies come
//! back in the order the requests were admitted (requests to different
//! tables that shared a batch are answered table by table); across
//! connections there is no order; and the inline verbs (`PING`, `TABLES`,
//! `STATS`), `BUSY` and parse errors are written by the connection's reader
//! and may overtake queued requests sent before them.

use colstore::{dispatch, ColumnType, Scalar, Value};
use imprints_engine::{ValueRange, ValueSet};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `QUERY table body` — materialize matching row ids.
    Query {
        /// Target table name.
        table: String,
        /// The predicates (possibly empty: select all — unless `any`).
        preds: Vec<RawPred>,
        /// `true` for an `OR` group (union of the predicates), `false`
        /// for the default conjunction.
        any: bool,
    },
    /// `COUNT table body` — count matching rows.
    Count {
        /// Target table name.
        table: String,
        /// The predicates (possibly empty: count all — unless `any`).
        preds: Vec<RawPred>,
        /// `true` for an `OR` group, `false` for the conjunction.
        any: bool,
    },
    /// `TABLES` — list registered tables.
    Tables,
    /// `STATS [table]` — server-wide or per-table counters.
    Stats(Option<String>),
    /// `PING` — liveness probe.
    Ping,
}

/// One inclusive interval of a wire predicate, still as strings. Bounds
/// are typed against the table schema at dispatch time (the parser does
/// not know the schema).
#[derive(Debug, Clone, PartialEq)]
pub struct RawRange {
    /// Inclusive lower bound, if any.
    pub low: Option<String>,
    /// Inclusive upper bound, if any.
    pub high: Option<String>,
}

impl RawRange {
    /// Types the string bounds against `ty`, producing the engine range.
    pub fn to_range(&self, ty: ColumnType) -> Result<ValueRange, String> {
        let parse = |s: &String| parse_value(ty, s);
        let low = self.low.as_ref().map(parse).transpose()?;
        let high = self.high.as_ref().map(parse).transpose()?;
        Ok(ValueRange { low, high })
    }
}

/// A predicate as written on the wire: column name plus one interval per
/// term — a single term for `=`/`<=`/`>=`/`lo..hi`, one point term per
/// item for an IN-list.
#[derive(Debug, Clone, PartialEq)]
pub struct RawPred {
    /// Column name.
    pub column: String,
    /// The predicate's intervals (a row matches when *any* term does).
    pub terms: Vec<RawRange>,
}

impl RawPred {
    /// One-term constructor — the shape every pre-IN-list predicate has.
    fn single(column: &str, low: Option<String>, high: Option<String>) -> RawPred {
        RawPred { column: column.into(), terms: vec![RawRange { low, high }] }
    }

    /// Types every term against `ty`, producing the engine value set.
    pub fn to_set(&self, ty: ColumnType) -> Result<ValueSet, String> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            terms.push(t.to_range(ty)?);
        }
        Ok(ValueSet { terms })
    }
}

/// Parses one wire value of type `ty`.
pub fn parse_value(ty: ColumnType, s: &str) -> Result<Value, String> {
    let bad = |e: &dyn std::fmt::Display| format!("bad {ty:?} value {s:?}: {e}");
    dispatch!(type T = ty => s.parse::<T>().map(Scalar::into_value).map_err(|e| bad(&e)))
}

/// Splits a request line into its optional tag and the rest.
pub fn split_tag(line: &str) -> (Option<&str>, &str) {
    let trimmed = line.trim_start();
    match trimmed.split_once(char::is_whitespace) {
        Some((first, rest)) => match first.strip_prefix('#') {
            Some(tag) if !tag.is_empty() => (Some(tag), rest),
            _ => (None, trimmed),
        },
        None => (None, trimmed),
    }
}

/// Parses one request line (tag already stripped by [`split_tag`]).
pub fn parse_request(body: &str) -> Result<Request, String> {
    let mut tokens = body.split_whitespace();
    let verb = tokens.next().ok_or_else(|| "empty request".to_string())?;
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" | "COUNT" => {
            let table = tokens.next().ok_or_else(|| format!("{verb}: missing table name"))?;
            let mut tokens = tokens.peekable();
            // An `OR` keyword right after the table turns the predicate
            // list into a disjunction. A predicate token always contains
            // an operator, so the bare keyword cannot be mistaken for one.
            let any = tokens.peek().is_some_and(|t| t.eq_ignore_ascii_case("OR"));
            if any {
                tokens.next();
            }
            let preds = tokens.map(parse_pred).collect::<Result<Vec<_>, _>>()?;
            if any && preds.is_empty() {
                return Err(format!("{verb}: OR group needs at least one predicate"));
            }
            if verb.eq_ignore_ascii_case("QUERY") {
                Ok(Request::Query { table: table.to_string(), preds, any })
            } else {
                Ok(Request::Count { table: table.to_string(), preds, any })
            }
        }
        "TABLES" => match tokens.next() {
            None => Ok(Request::Tables),
            Some(t) => Err(format!("TABLES takes no arguments, got {t:?}")),
        },
        "STATS" => {
            let table = tokens.next().map(str::to_string);
            match tokens.next() {
                None => Ok(Request::Stats(table)),
                Some(t) => Err(format!("STATS takes at most one table, got {t:?}")),
            }
        }
        "PING" => match tokens.next() {
            None => Ok(Request::Ping),
            Some(t) => Err(format!("PING takes no arguments, got {t:?}")),
        },
        _ => Err(format!("unknown verb {verb:?} (expected QUERY/COUNT/TABLES/STATS/PING)")),
    }
}

/// Parses one `col<op>value` predicate token.
fn parse_pred(token: &str) -> Result<RawPred, String> {
    // `<=` / `>=` are checked before bare `=` so `v<=3` does not split at
    // its `=`; `split_once` keeps the scan free of manual offsets.
    let (column, op, value) = if let Some((c, v)) = token.split_once("<=") {
        (c, "<=", v)
    } else if let Some((c, v)) = token.split_once(">=") {
        (c, ">=", v)
    } else if let Some((c, v)) = token.split_once('=') {
        (c, "=", v)
    } else {
        return Err(format!("predicate {token:?} has no operator (use = / <= / >= / =lo..hi)"));
    };
    if column.is_empty() {
        return Err(format!("predicate {token:?} has an empty column name"));
    }
    if value.is_empty() {
        return Err(format!("predicate {token:?} has an empty value"));
    }
    match op {
        "<=" => Ok(RawPred::single(column, None, Some(value.into()))),
        ">=" => Ok(RawPred::single(column, Some(value.into()), None)),
        _ if value.contains(',') => {
            // IN-list: one point term per item. Items are plain values —
            // a `..` range inside a list reads ambiguously (which comma
            // binds to which range?), so it is rejected outright.
            let mut terms = Vec::new();
            for item in value.split(',') {
                if item.is_empty() {
                    return Err(format!("IN-list predicate {token:?} has an empty item"));
                }
                if item.contains("..") {
                    return Err(format!(
                        "IN-list predicate {token:?} mixes a range into the list (use separate predicates)"
                    ));
                }
                terms.push(RawRange { low: Some(item.into()), high: Some(item.into()) });
            }
            Ok(RawPred { column: column.into(), terms })
        }
        _ => match value.split_once("..") {
            Some((lo, hi)) => {
                if lo.is_empty() || hi.is_empty() {
                    return Err(format!("range predicate {token:?} needs both bounds"));
                }
                Ok(RawPred::single(column, Some(lo.into()), Some(hi.into())))
            }
            None => Ok(RawPred::single(column, Some(value.into()), Some(value.into()))),
        },
    }
}

fn with_tag(tag: Option<&str>, body: String) -> String {
    match tag {
        Some(t) => format!("#{t} {body}"),
        None => body,
    }
}

/// Formats a QUERY success: `OK <count> <id>…`.
pub fn fmt_ok_ids(tag: Option<&str>, ids: &[u64]) -> String {
    let mut body = format!("OK {}", ids.len());
    for id in ids {
        body.push(' ');
        body.push_str(&id.to_string());
    }
    with_tag(tag, body)
}

/// Formats a COUNT success: `OK <count>`.
pub fn fmt_ok_count(tag: Option<&str>, count: u64) -> String {
    with_tag(tag, format!("OK {count}"))
}

/// Formats a list success (TABLES, STATS): `OK <item>…`.
pub fn fmt_ok_list(tag: Option<&str>, items: &[String]) -> String {
    let mut body = String::from("OK");
    for item in items {
        body.push(' ');
        body.push_str(item);
    }
    with_tag(tag, body)
}

/// Formats an error reply.
pub fn fmt_err(tag: Option<&str>, msg: &str) -> String {
    // Errors must stay one line; collapse any embedded newlines.
    with_tag(tag, format!("ERR {}", msg.replace(['\n', '\r'], " ")))
}

/// Formats a shed reply.
pub fn fmt_busy(tag: Option<&str>) -> String {
    with_tag(tag, "BUSY".to_string())
}

/// One parsed response line (client side).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK` with its whitespace-separated payload fields.
    Ok(Vec<String>),
    /// `BUSY` — the request was shed by admission control.
    Busy,
    /// `ERR` with its message.
    Err(String),
}

impl Reply {
    /// Decodes a QUERY payload: the ids after the leading count. `None`
    /// for `BUSY`/`ERR` or a payload that is not `count ids…`.
    pub fn ids(&self) -> Option<Vec<u64>> {
        match self {
            Reply::Ok(fields) => {
                let (count, ids) = fields.split_first()?;
                let n: usize = count.parse().ok()?;
                if ids.len() != n {
                    return None;
                }
                ids.iter().map(|f| f.parse().ok()).collect()
            }
            _ => None,
        }
    }

    /// Decodes a COUNT payload. `None` for `BUSY`/`ERR` or a payload that
    /// is not a single integer.
    pub fn count(&self) -> Option<u64> {
        match self {
            Reply::Ok(fields) => match fields.as_slice() {
                [one] => one.parse().ok(),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Parses one response line into its tag and reply.
pub fn parse_reply(line: &str) -> Result<(Option<String>, Reply), String> {
    let (tag, body) = split_tag(line);
    let tag = tag.map(str::to_string);
    let (status, rest) = match body.split_once(char::is_whitespace) {
        Some((s, r)) => (s, r.trim()),
        None => (body.trim(), ""),
    };
    match status {
        "OK" => Ok((tag, Reply::Ok(rest.split_whitespace().map(str::to_string).collect()))),
        "BUSY" => Ok((tag, Reply::Busy)),
        "ERR" => Ok((tag, Reply::Err(rest.to_string()))),
        _ => Err(format!("malformed response line {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(low: Option<&str>, high: Option<&str>) -> RawRange {
        RawRange { low: low.map(str::to_string), high: high.map(str::to_string) }
    }

    #[test]
    fn parses_tagged_query_with_all_predicate_forms() {
        let (tag, body) = split_tag("#q1 QUERY readings sensor=3 value<=10 ts>=5 v=1..9 c=5,7,9");
        assert_eq!(tag, Some("q1"));
        let req = parse_request(body).unwrap();
        match req {
            Request::Query { table, preds, any } => {
                assert_eq!(table, "readings");
                assert!(!any, "a plain predicate list is a conjunction");
                assert_eq!(
                    preds[0],
                    RawPred { column: "sensor".into(), terms: vec![term(Some("3"), Some("3"))] }
                );
                assert_eq!(
                    preds[1],
                    RawPred { column: "value".into(), terms: vec![term(None, Some("10"))] }
                );
                assert_eq!(
                    preds[2],
                    RawPred { column: "ts".into(), terms: vec![term(Some("5"), None)] }
                );
                assert_eq!(
                    preds[3],
                    RawPred { column: "v".into(), terms: vec![term(Some("1"), Some("9"))] }
                );
                assert_eq!(
                    preds[4],
                    RawPred {
                        column: "c".into(),
                        terms: vec![
                            term(Some("5"), Some("5")),
                            term(Some("7"), Some("7")),
                            term(Some("9"), Some("9")),
                        ]
                    }
                );
            }
            other => panic!("expected Query, got {other:?}"),
        }
    }

    #[test]
    fn parses_or_groups() {
        match parse_request("QUERY t OR a=1 b>=100").unwrap() {
            Request::Query { preds, any, .. } => {
                assert!(any);
                assert_eq!(preds.len(), 2);
            }
            other => panic!("expected Query, got {other:?}"),
        }
        // The keyword is case-insensitive, and COUNT takes it too.
        match parse_request("COUNT t or a=1").unwrap() {
            Request::Count { any, .. } => assert!(any),
            other => panic!("expected Count, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FLY readings").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("COUNT t sensor").is_err());
        assert!(parse_request("COUNT t =3").is_err());
        assert!(parse_request("COUNT t sensor=").is_err());
        assert!(parse_request("COUNT t sensor=1..").is_err());
        assert!(parse_request("TABLES extra").is_err());
        // IN-list and OR-group misuse.
        assert!(parse_request("QUERY t c=5,,9").is_err(), "empty IN-list item");
        assert!(parse_request("QUERY t c=5,").is_err(), "trailing comma");
        assert!(parse_request("QUERY t c=1..3,9").is_err(), "range inside IN-list");
        assert!(parse_request("QUERY t OR").is_err(), "empty OR group");
        assert!(parse_request("COUNT t OR").is_err(), "empty OR group");
    }

    #[test]
    fn untyped_bounds_type_against_schema() {
        let p = RawPred::single("v", Some("2".into()), Some("7".into()));
        let s = p.to_set(ColumnType::U16).unwrap();
        assert_eq!(
            s.terms,
            vec![ValueRange { low: Some(Value::U16(2)), high: Some(Value::U16(7)) }]
        );
        assert!(p.to_set(ColumnType::I8).is_ok());
        let bad = RawPred::single("v", Some("300".into()), None);
        assert!(bad.to_set(ColumnType::U8).is_err());
        let list = RawPred {
            column: "v".into(),
            terms: vec![term(Some("5"), Some("5")), term(Some("7"), Some("7"))],
        };
        assert_eq!(list.to_set(ColumnType::I64).unwrap().terms.len(), 2);
    }

    /// Every type's extreme literals parse back to the same `Value`, and an
    /// integer literal one past either end is rejected, not wrapped.
    #[test]
    fn every_type_parses_its_extremes_and_rejects_out_of_range() {
        let types: Vec<ColumnType> = (0..).map_while(ColumnType::from_tag).collect();
        assert_eq!(types.len(), 10);
        for ty in types {
            let (min, max, past) = dispatch!(type T = ty => (
                T::MIN.into_value(),
                T::MAX.into_value(),
                [(T::MIN as i128).saturating_sub(1), (T::MAX as i128).saturating_add(1)],
            ));
            for v in [min, max] {
                assert_eq!(parse_value(ty, &v.to_string()), Ok(v), "{ty}");
            }
            if !matches!(ty, ColumnType::F32 | ColumnType::F64) {
                for p in past {
                    assert!(parse_value(ty, &p.to_string()).is_err(), "{ty} accepted {p}");
                }
            }
        }
    }

    #[test]
    fn replies_round_trip() {
        let line = fmt_ok_ids(Some("a"), &[3, 5, 8]);
        assert_eq!(line, "#a OK 3 3 5 8");
        let (tag, reply) = parse_reply(&line).unwrap();
        assert_eq!(tag.as_deref(), Some("a"));
        assert_eq!(reply, Reply::Ok(vec!["3".into(), "3".into(), "5".into(), "8".into()]));
        assert_eq!(parse_reply(&fmt_busy(None)).unwrap(), (None, Reply::Busy));
        let (_, e) = parse_reply(&fmt_err(None, "no such\ntable")).unwrap();
        assert_eq!(e, Reply::Err("no such table".into()));
    }
}
