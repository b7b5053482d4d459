//! Disk persistence for the [`Session`](crate::Session) result cache.
//!
//! A snapshot is JSONL: one line per ready cache slot, each a
//! self-contained document
//!
//! ```text
//! {"v":"c11check/v1","key":{…the cache key…},"report":{…the report…}}
//! ```
//!
//! The `"v"` component is the **schema version** — the same string every
//! cache key carries in memory ([`SCHEMA_VERSION`]) — so a snapshot
//! written by a binary speaking a different report schema is rejected
//! wholesale on load rather than answering requests with stale-format
//! reports. Loading is corruption-tolerant: a line that fails to parse,
//! carries the wrong version, or does not round-trip byte-identically is
//! skipped and counted
//! ([`SessionStats::persist_skipped`](crate::SessionStats)), never
//! trusted.
//!
//! What is persistable is exactly what is *provably* re-serveable:
//! complete (`"status":"ok"`) Outcomes / Count / Litmus reports.
//! Interrupted reports are never written (the in-memory cache does not
//! keep them either), and [`Mode::Invariant`](crate::Mode) keys are
//! skipped — their identity is the predicate's `Arc` pointer, which
//! does not survive a process.

use crate::json::Json;
use crate::net::{engine_from_json, reduction_from_json};
use crate::session::{CacheKey, ModeKey};
use crate::{
    Bounds, CheckReport, CountReport, LitmusVerdictReport, Meta, ModelChoice, OutcomeRow,
    OutcomesReport, Reduction,
};
use c11_explore::{Stats, StoreKind, StoreStats};
use c11_lang::{RegId, Val};
use c11_litmus::Verdict;

/// The cache schema version: the `c11check/v1` report schema. Part of
/// every in-memory [`CacheKey`] and the `"v"` field of every snapshot
/// line; bump it when the report JSON changes shape and old snapshots
/// become self-invalidating.
pub(crate) const SCHEMA_VERSION: &str = "c11check/v1";

/// Encodes one ready cache slot as a snapshot line (no trailing
/// newline). `None` when the entry is not persistable: interrupted
/// reports and predicate-keyed invariant entries.
pub(crate) fn persist_line(key: &CacheKey, report: &CheckReport) -> Option<String> {
    if report.interrupt().is_some() || matches!(key.mode, ModeKey::Invariant(_)) {
        return None;
    }
    // Normalise the hit flag so a snapshot is deterministic no matter
    // how often the entry was served before the flush.
    let mut report = report.clone();
    report.set_cache_hit(false);
    Some(
        Json::obj(vec![
            ("v", Json::str(SCHEMA_VERSION)),
            ("key", key_json(key)),
            ("report", report.json_value()),
        ])
        .render(),
    )
}

/// Decodes one snapshot line back into a cache entry. Errors on any
/// corruption: malformed JSON, a schema-version mismatch, an
/// un-parseable key or report, a key/report mode disagreement, or a
/// report that does not re-render byte-identically (the round-trip
/// integrity check — a loaded entry must answer future requests with
/// exactly the bytes the original computation produced).
pub(crate) fn parse_line(line: &str) -> Result<(CacheKey, CheckReport), String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    match v.get("v").and_then(Json::as_str) {
        Some(SCHEMA_VERSION) => {}
        Some(other) => {
            return Err(format!(
                "schema version mismatch: snapshot is {other:?}, this binary speaks {SCHEMA_VERSION:?}"
            ));
        }
        None => return Err("missing schema version field \"v\"".to_string()),
    }
    let key = key_from_json(v.get("key").ok_or("missing \"key\"")?)?;
    let report_json = v.get("report").ok_or("missing \"report\"")?;
    let report = report_from_json(report_json)?;
    if report.json_value() != *report_json {
        return Err("report does not round-trip byte-identically".to_string());
    }
    let mode_matches = matches!(
        (&key.mode, &report),
        (ModeKey::Outcomes, CheckReport::Outcomes(_))
            | (ModeKey::CountOnly, CheckReport::Count(_))
            | (ModeKey::LitmusVerdict, CheckReport::Litmus(_))
    );
    if !mode_matches {
        return Err(format!(
            "key mode disagrees with report mode {:?}",
            report.mode_str()
        ));
    }
    Ok((key, report))
}

fn key_json(key: &CacheKey) -> Json {
    let mode = match key.mode {
        ModeKey::Outcomes => "outcomes",
        ModeKey::CountOnly => "count",
        ModeKey::LitmusVerdict => "litmus",
        ModeKey::Invariant(_) => unreachable!("persist_line filters invariant keys"),
    };
    let mut pairs = vec![
        ("fingerprint", Json::UInt(key.fingerprint)),
        ("model", Json::str(key.model.as_str())),
        (
            "bounds",
            Json::obj(vec![
                ("max_events", Json::from(key.bounds.max_events)),
                ("max_states", Json::from(key.bounds.max_states)),
                ("max_depth", Json::from(key.bounds.max_depth)),
                ("store", Json::str(key.bounds.store.name())),
                ("symmetry", Json::from(key.bounds.symmetry)),
            ]),
        ),
        ("mode", Json::str(mode)),
        (
            "traces",
            match key.traces {
                None => Json::Null,
                Some(b) => Json::Bool(b),
            },
        ),
        ("dot", Json::from(key.dot)),
        (
            "timeout_ms",
            match key.timeout_ms {
                None => Json::Null,
                Some(ms) => Json::UInt(ms),
            },
        ),
    ];
    // Exhaustive keys omit the component (absent means exhaustive on
    // load), keeping pre-reduction snapshots readable and
    // reduction-free snapshots byte-stable.
    if key.reduction != Reduction::None {
        pairs.push(("contract", Json::str(key.reduction.contract_str())));
    }
    Json::obj(pairs)
}

fn key_from_json(v: &Json) -> Result<CacheKey, String> {
    let fingerprint = v
        .get("fingerprint")
        .and_then(Json::as_u128)
        .ok_or("key needs an integer \"fingerprint\"")?;
    let model = model_from_str(
        v.get("model")
            .and_then(Json::as_str)
            .ok_or("key needs a string \"model\"")?,
    )?;
    let bounds = v.get("bounds").ok_or("key needs \"bounds\"")?;
    let bound = |name: &str| {
        bounds
            .get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("key bounds need integer {name:?}"))
    };
    // Snapshots written before the storage subsystem lack the store and
    // symmetry components; absent means the old (default) behaviour.
    let store = match bounds.get("store") {
        None => StoreKind::Flat,
        Some(s) => s
            .as_str()
            .and_then(StoreKind::parse)
            .ok_or("key bounds \"store\" must name a store kind")?,
    };
    let symmetry = match bounds.get("symmetry") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("key bounds \"symmetry\" must be a boolean".to_string()),
    };
    let bounds = Bounds {
        max_events: bound("max_events")?,
        max_states: bound("max_states")?,
        max_depth: bound("max_depth")?,
        store,
        symmetry,
    };
    let mode = match v.get("mode").and_then(Json::as_str) {
        Some("outcomes") => ModeKey::Outcomes,
        Some("count") => ModeKey::CountOnly,
        Some("litmus") => ModeKey::LitmusVerdict,
        _ => return Err("key \"mode\" must be \"outcomes\", \"count\" or \"litmus\"".to_string()),
    };
    let traces = match v.get("traces") {
        None | Some(Json::Null) => None,
        Some(Json::Bool(b)) => Some(*b),
        Some(_) => return Err("key \"traces\" must be a boolean or null".to_string()),
    };
    let dot = v
        .get("dot")
        .and_then(Json::as_usize)
        .ok_or("key needs an integer \"dot\"")?;
    let timeout_ms = match v.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(Json::UInt(ms)) => Some(*ms),
        Some(_) => return Err("key \"timeout_ms\" must be an integer or null".to_string()),
    };
    let reduction = match v.get("contract") {
        None => Reduction::None,
        Some(c) => Reduction::ALL
            .into_iter()
            .find(|r| c.as_str() == Some(r.contract_str()))
            .ok_or("key \"contract\" must be \"exhaustive\" or \"finals-only\"")?,
    };
    Ok(CacheKey {
        schema: SCHEMA_VERSION,
        fingerprint,
        model,
        bounds,
        mode,
        traces,
        dot,
        reduction,
        timeout_ms,
    })
}

fn model_from_str(s: &str) -> Result<ModelChoice, String> {
    ModelChoice::parse(s).ok_or_else(|| format!("unknown model {s:?}"))
}

fn stats_from_json(v: &Json) -> Result<Stats, String> {
    if v.get("interrupt").is_some() {
        // Double safety net: persist_line refuses interrupted reports,
        // and a hand-edited snapshot can't smuggle one back in.
        return Err("interrupted stats are not persistable".to_string());
    }
    let n = |name: &str| {
        v.get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("stats need integer {name:?}"))
    };
    let store = match v.get("store") {
        None => None,
        Some(st) => {
            let sn = |name: &str| {
                st.get(name)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("store stats need integer {name:?}"))
            };
            Some(StoreStats {
                kind: st
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(StoreKind::parse)
                    .ok_or("store stats need a \"kind\" naming a store")?,
                sym: st
                    .get("symmetry")
                    .and_then(Json::as_bool)
                    .ok_or("store stats need boolean \"symmetry\"")?,
                bytes_resident: sn("bytes_resident")?,
                nodes: sn("nodes")?,
                dedup_hits: sn("dedup_hits")?,
            })
        }
    };
    Ok(Stats {
        unique: n("unique")?,
        generated: n("generated")?,
        finals: n("finals")?,
        truncated: v
            .get("truncated")
            .and_then(Json::as_bool)
            .ok_or("stats need boolean \"truncated\"")?,
        stuck: n("stuck")?,
        wall_micros: v
            .get("wall_micros")
            .and_then(Json::as_u128)
            .ok_or("stats need integer \"wall_micros\"")?,
        interrupt: None,
        store,
    })
}

fn verdict_from_str(s: &str) -> Result<Verdict, String> {
    match s {
        "allowed" => Ok(Verdict::Allowed),
        "forbidden" => Ok(Verdict::Forbidden),
        other => Err(format!("unknown verdict {other:?}")),
    }
}

fn string_field<'a>(v: &'a Json, name: &str) -> Result<&'a str, String> {
    v.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("report needs string {name:?}"))
}

fn bool_field(v: &Json, name: &str) -> Result<bool, String> {
    v.get(name)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("report needs boolean {name:?}"))
}

fn string_arr(v: &Json) -> Result<Vec<String>, String> {
    v.as_arr()
        .ok_or("expected an array of strings")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or("non-string element".to_string())
        })
        .collect()
}

fn outcome_row_from_json(v: &Json) -> Result<OutcomeRow, String> {
    let count = v
        .get("count")
        .and_then(Json::as_usize)
        .ok_or("outcome row needs integer \"count\"")?;
    let mut threads = Vec::new();
    for (i, t) in v
        .get("threads")
        .and_then(Json::as_arr)
        .ok_or("outcome row needs \"threads\"")?
        .iter()
        .enumerate()
    {
        if t.get("thread").and_then(Json::as_usize) != Some(i + 1) {
            return Err(format!("thread entry {i} mislabelled"));
        }
        let mut regs: Vec<(RegId, Val)> = Vec::new();
        for (name, value) in t
            .get("regs")
            .and_then(Json::as_obj)
            .ok_or("thread entry needs \"regs\"")?
        {
            let id: u8 = name
                .strip_prefix('r')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("bad register name {name:?}"))?;
            let val: Val = value
                .as_u128()
                .and_then(|n| Val::try_from(n).ok())
                .ok_or_else(|| format!("bad register value for {name:?}"))?;
            regs.push((RegId(id), val));
        }
        threads.push(regs);
    }
    let witness = match v.get("witness") {
        None => None,
        Some(w) => Some(string_arr(w)?),
    };
    Ok(OutcomeRow {
        count,
        threads,
        witness,
    })
}

fn report_from_json(v: &Json) -> Result<CheckReport, String> {
    if string_field(v, "schema")? != SCHEMA_VERSION {
        return Err("report schema mismatch".to_string());
    }
    if string_field(v, "status")? != "ok" {
        return Err("only \"ok\" reports are persistable".to_string());
    }
    if bool_field(v, "cache_hit")? {
        return Err("persisted reports must carry cache_hit:false".to_string());
    }
    let stats_of = |name: &str| {
        stats_from_json(
            v.get(name)
                .ok_or_else(|| format!("report needs {name:?}"))?,
        )
    };
    // The readers accept the request spellings too; the round-trip
    // check in `parse_line` refuses anything a report would not render.
    let engine = engine_from_json(
        v.get("backend").ok_or("report needs \"backend\"")?,
        "backend",
    )?;
    let reduction = match v.get("reduction") {
        None => Reduction::None,
        Some(r) => reduction_from_json(r)?,
    };
    match string_field(v, "mode")? {
        "count" => Ok(CheckReport::Count(CountReport {
            meta: Meta {
                model: model_from_str(string_field(v, "model")?)?,
                engine,
                reduction,
                reduction_fallback: false,
                cache_hit: false,
            },
            stats: stats_of("stats")?,
        })),
        "outcomes" => {
            let outcomes = v
                .get("outcomes")
                .and_then(Json::as_arr)
                .ok_or("report needs \"outcomes\"")?
                .iter()
                .map(outcome_row_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            let dot = match v.get("dot") {
                None => Vec::new(),
                Some(d) => string_arr(d)?,
            };
            Ok(CheckReport::Outcomes(OutcomesReport {
                meta: Meta {
                    model: model_from_str(string_field(v, "model")?)?,
                    engine,
                    reduction,
                    reduction_fallback: false,
                    cache_hit: false,
                },
                stats: stats_of("stats")?,
                outcomes,
                invalid_finals: v
                    .get("invalid_finals")
                    .and_then(Json::as_usize)
                    .ok_or("report needs integer \"invalid_finals\"")?,
                dot,
            }))
        }
        "litmus" => Ok(CheckReport::Litmus(LitmusVerdictReport {
            // Litmus reports omit "model" (the mode always contrasts RA
            // vs SC); the cache key normalises it to the default too.
            meta: Meta {
                model: ModelChoice::default(),
                engine,
                reduction,
                reduction_fallback: false,
                cache_hit: false,
            },
            name: string_field(v, "name")?.to_string(),
            expect_ra: verdict_from_str(string_field(v, "expect_ra")?)?,
            expect_sc: verdict_from_str(string_field(v, "expect_sc")?)?,
            observed_ra: bool_field(v, "observed_ra")?,
            observed_sc: bool_field(v, "observed_sc")?,
            ra: stats_of("ra")?,
            sc: stats_of("sc")?,
            pass: bool_field(v, "pass")?,
        })),
        other => Err(format!("mode {other:?} is not persistable")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckRequest, Invariant, Mode};
    use c11_explore::Budget;

    const SB: &str = "vars x y;
         thread t1 { x := 1; r0 <- y; }
         thread t2 { y := 1; r0 <- x; }";

    fn entry(req: CheckRequest) -> (CacheKey, CheckReport) {
        let resolved = req.resolve().unwrap();
        let key = CacheKey::of(&resolved);
        let report = resolved.compute(&Budget::unlimited());
        (key, report)
    }

    #[test]
    fn program_reports_round_trip_byte_identically() {
        for req in [
            CheckRequest::program(SB),
            CheckRequest::program(SB).mode(Mode::CountOnly),
            CheckRequest::program(SB).traces(true).dot(1),
            CheckRequest::program(SB).model(ModelChoice::Sc),
            CheckRequest::program(SB).timeout(std::time::Duration::from_secs(600)),
            CheckRequest::program(SB).reduction(Reduction::SourceSet),
        ] {
            let (key, report) = entry(req);
            let line = persist_line(&key, &report).expect("complete report persists");
            let (key2, report2) = parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(key == key2, "key survives the round trip");
            assert_eq!(report2.to_json(), report.to_json());
        }
    }

    #[test]
    fn litmus_reports_round_trip() {
        let test = c11_litmus::corpus().remove(0);
        let (key, report) = entry(CheckRequest::litmus(test));
        let line = persist_line(&key, &report).unwrap();
        let (key2, report2) = parse_line(&line).unwrap();
        assert!(key == key2);
        assert_eq!(report2.to_json(), report.to_json());
    }

    #[test]
    fn interrupted_and_invariant_entries_never_persist() {
        let (key, report) = entry(CheckRequest::program(SB).timeout(std::time::Duration::ZERO));
        assert_eq!(report.status_str(), "timed_out");
        assert_eq!(persist_line(&key, &report), None);
        let inv = Invariant::new("p", |_v| true);
        let (key, report) = entry(CheckRequest::program(SB).mode(Mode::Invariant(inv)));
        assert_eq!(persist_line(&key, &report), None);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let (key, report) = entry(CheckRequest::program(SB));
        let line = persist_line(&key, &report).unwrap();
        let stale = line.replace("c11check/v1", "c11check/v0");
        let err = parse_line(&stale).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn corrupt_lines_are_rejected_not_trusted() {
        let (key, report) = entry(CheckRequest::program(SB));
        let line = persist_line(&key, &report).unwrap();
        // Truncation, non-JSON, missing parts.
        for bad in [
            &line[..line.len() / 2],
            "not json at all",
            "{}",
            r#"{"v":"c11check/v1"}"#,
            r#"{"v":"c11check/v1","key":{},"report":{}}"#,
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?}");
        }
        // Structural junk inside the report (an unknown field) fails the
        // re-render integrity check even though every known field parses.
        let padded = line.replace("\"invalid_finals\"", "\"junk\":0,\"invalid_finals\"");
        let err = parse_line(&padded).unwrap_err();
        assert!(err.contains("round-trip"), "{err}");
        // A smuggled cache_hit:true is refused.
        let hit = line.replace("\"cache_hit\":false", "\"cache_hit\":true");
        assert!(parse_line(&hit).is_err());
    }

    #[test]
    fn key_report_mode_disagreement_is_rejected() {
        let (key, report) = entry(CheckRequest::program(SB));
        let line = persist_line(&key, &report).unwrap();
        // Flip the key's mode word only (the report stays "outcomes").
        let crossed = line.replacen("\"mode\":\"outcomes\"", "\"mode\":\"count\"", 1);
        let err = parse_line(&crossed).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }
}
