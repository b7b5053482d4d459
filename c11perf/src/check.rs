//! The in-process workloads: one `CheckRequest` at a time through a
//! `Session` (closed loop, one client thread, cache off, sequential
//! engine, flat store, RA model), under no reduction (`check-exhaustive`)
//! or the source-set reduction (`check-source`).

use crate::gen::{self, Input, PETERSON_EVENTS};
use crate::oracle::{self, Finals};
use crate::replay::{self, Layers};
use crate::stats::{fastest, percentile};
use crate::trace::{Span, Spans};
use crate::{peak_rss_mb, Metrics, Outcome};
use c11_api::{
    Bounds, CheckReport, CheckRequest, ConfigView, Engine, Invariant, Mode, ModelChoice, Reduction,
    Session, SessionConfig, StoreKind,
};
use c11_core::config::Config;
use c11_core::model::{RaModel, ScModel};
use c11_lang::ThreadId;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-program deadline: a verdict not reached by then counts as failed.
const DEADLINE: Duration = Duration::from_secs(30);

fn mutex_invariant() -> Invariant {
    Invariant::new("mutual-exclusion", |v: &ConfigView| {
        !(v.pc(ThreadId(1)) == Some(5) && v.pc(ThreadId(2)) == Some(5))
    })
}

/// The request for one input. Only the `engine`/`reduction` axes are
/// named (never the legacy backend spelling).
fn request(input: &Input, reduction: Reduction, inv: &Invariant) -> CheckRequest {
    let req = match input {
        Input::Program { src, .. } => CheckRequest::program(src.as_str()).mode(Mode::Outcomes),
        Input::Litmus(test) => CheckRequest::litmus(test.clone()),
        Input::Mutex { src, .. } => CheckRequest::program(src.as_str())
            .mode(Mode::Invariant(inv.clone()))
            .bounds(Bounds::default().max_events(PETERSON_EVENTS)),
    };
    req.model(ModelChoice::Ra)
        .engine(Engine::Sequential)
        .reduction(reduction)
        .store(StoreKind::Flat)
        .timeout(DEADLINE)
}

/// The set-up the run times: input generation plus a fresh session.
/// Returns them with the seconds it took.
fn setup(root: &Path, seed: u64) -> Result<(Vec<Input>, Session, f64), String> {
    let t0 = Instant::now();
    let inputs = gen::check_inputs(root, seed)?;
    let session = Session::new(SessionConfig::default().workers(1).cache(false));
    Ok((inputs, session, t0.elapsed().as_secs_f64()))
}

/// One verdict: run on the calling thread, render. Running inline (not
/// through the worker pool) keeps a thread hand-off, whose wake-up
/// latency depends on the host more than on the checker, out of every
/// timed verdict.
fn verdict(session: &Session, req: CheckRequest) -> Result<(CheckReport, String), String> {
    let report = session.run(req).map_err(|e| e.to_string())?;
    let json = report.to_json();
    Ok((report, json))
}

/// Checks every first-pass report against its known answer.
fn check_answers(inputs: &[Input], first: &[Option<CheckReport>]) -> Vec<String> {
    let pairs: Vec<(&Input, &Option<CheckReport>)> = inputs.iter().zip(first).collect();
    let verdicts = oracle::par_map(&pairs, |&(input, report)| {
        let Some(report) = report else { return Ok(()) };
        match input {
            Input::Program { src, .. } => oracle::axiomatic_finals(src)
                .and_then(|expected: Finals| oracle::check_program(report, &expected)),
            Input::Litmus(test) => oracle::check_litmus(report, test),
            Input::Mutex { holds, .. } => oracle::check_mutex(report, *holds),
        }
        .map_err(|e| format!("{}: {e}", input.name()))
    });
    verdicts.into_iter().filter_map(Result::err).collect()
}

/// Runs a check workload untraced: every end-to-end metric.
pub fn run(root: &Path, seed: u64, seconds: f64, reduction: Reduction) -> Result<Outcome, String> {
    let (inputs, session, first_setup) = setup(root, seed)?;
    let mut setups = vec![first_setup];
    let inv = mutex_invariant();
    let mut first: Vec<Option<CheckReport>> = vec![None; inputs.len()];
    let mut first_json: Vec<String> = vec![String::new(); inputs.len()];
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut mismatches = Vec::new();
    let t_start = Instant::now();
    let stop = t_start + Duration::from_secs_f64(seconds);
    let mut pass = 0;
    'passes: loop {
        for (i, input) in inputs.iter().enumerate() {
            // Finish the first pass whatever the clock says: every input
            // needs one verdict to check.
            if pass > 0 && Instant::now() >= stop {
                break 'passes;
            }
            attempted += 1;
            let t0 = Instant::now();
            let out = verdict(&session, request(input, reduction, &inv));
            let dt = t0.elapsed();
            match out {
                Ok((report, json)) if report.status_str() == "ok" => {
                    per_input[i].push(dt.as_secs_f64() * 1e3);
                    if pass == 0 {
                        first_json[i] = oracle::normalized(&json);
                        first[i] = Some(report);
                    } else if oracle::normalized(&json) != first_json[i] {
                        mismatches.push(format!("{}: report changed between passes", input.name()));
                    }
                }
                Ok(_) | Err(_) => failed += 1,
            }
        }
        pass += 1;
        // One more set-up after every pass, so set-up times, like verdict
        // times, are sampled across the whole run.
        setups.push(std::hint::black_box(setup(root, seed)?).2);
    }
    let rss = peak_rss_mb()?;
    mismatches.extend(check_answers(&inputs, &first));

    // On a shared host other tenants only ever add time, in slow phases
    // that last seconds. So each input's figure is its fastest verdict,
    // throughput is that of a pass made of those fastest verdicts, and
    // set-up time is the fastest set-up.
    let setup_s = fastest(&setups);
    let mut per_program: Vec<f64> = per_input
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| fastest(v))
        .collect();
    let p50 = percentile(&mut per_program, 50.0);
    let p90 = percentile(&mut per_program, 90.0);
    let p99 = percentile(&mut per_program, 99.0);
    let rate = per_program.len() as f64 / (per_program.iter().sum::<f64>() / 1e3);
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("verdict_ms_p50", p50, "ms");
    m.push("verdict_ms_p90", p90, "ms");
    m.push("programs_per_s", rate, "1/s");
    // Closed loop: a program is "scheduled" when the previous verdict
    // lands, so latency is the verdict time and the highest sustained
    // rate is the throughput.
    m.push("latency_ms_p50", p50, "ms");
    m.push("latency_ms_p99", p99, "ms");
    m.push("max_rate_rps", rate, "1/s");
    m.push("peak_rss_mb", rss, "MB");
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics: m,
    })
}

/// Runs a check workload traced: half the time untraced (the baseline
/// for the tracing overhead), half replaying each verdict layer by
/// layer. Reports every per-layer metric, as means per verdict.
pub fn run_traced(
    root: &Path,
    seed: u64,
    seconds: f64,
    reduction: Reduction,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let (inputs, session, _) = setup(root, seed)?;
    let inv = mutex_invariant();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut mismatches = Vec::new();

    // Untraced passes for the first half of the time.
    let half = Duration::from_secs_f64(seconds / 2.0);
    let t0 = Instant::now();
    let mut untraced_verdicts = 0usize;
    while untraced_verdicts == 0 || t0.elapsed() < half {
        for input in &inputs {
            attempted += 1;
            match verdict(&session, request(input, reduction, &inv)) {
                Ok(_) => untraced_verdicts += 1,
                Err(_) => failed += 1,
            }
        }
    }
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3 / untraced_verdicts as f64;

    // Traced passes: the same verdicts, each split into spans, plus the
    // outside-in BFS replay on exhaustive runs.
    let mut spans = Spans::new();
    let mut acc = TracedTotals::default();
    let mut first: Vec<Option<CheckReport>> = vec![None; inputs.len()];
    let t1 = Instant::now();
    let mut pass = 0;
    while pass == 0 || t1.elapsed() < half {
        for (i, input) in inputs.iter().enumerate() {
            attempted += 1;
            match traced_verdict(&session, input, i, reduction, &inv, &mut spans, &mut acc) {
                Ok(report) => {
                    if pass == 0 {
                        first[i] = Some(report);
                    }
                }
                Err(e) => {
                    failed += 1;
                    mismatches.push(format!("{}: {e}", input.name()));
                }
            }
        }
        pass += 1;
    }
    mismatches.extend(check_answers(&inputs, &first));
    spans
        .write(spans_out)
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    let m = acc.metrics(untraced_ms);
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics: m,
    })
}

/// Sums over the traced verdicts.
#[derive(Default)]
struct TracedTotals {
    verdicts: u64,
    verdict_ns: u64,
    parse_ns: u64,
    request_ns: u64,
    engine_ns: u64,
    render_ns: u64,
    replay: Layers,
    source_ns: u64,
    source_generated: u64,
    source_unique: u64,
}

impl TracedTotals {
    fn metrics(&self, untraced_ms: f64) -> Metrics {
        let n = self.verdicts.max(1) as f64;
        let per = |x: u64| x as f64 / n;
        let ms = |ns: u64| ns as f64 / n / 1e6;
        let l = &self.replay;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut m = Metrics::default();
        m.push("lang.parse.ms", ms(self.parse_ns), "ms");
        m.push("api.request.ms", ms(self.request_ns), "ms");
        m.push("api.render.ms", ms(self.render_ns), "ms");
        m.push("axiomatic.is_valid.calls", per(l.is_valid_calls), "count");
        m.push("axiomatic.is_valid.ms", ms(l.is_valid_ns), "ms");
        m.push("core.successors.calls", per(l.successors_calls), "count");
        m.push("core.successors.ms", ms(l.successors_ns), "ms");
        m.push(
            "core.successors.fanout",
            ratio(l.generated, l.successors_calls),
            "count",
        );
        m.push("core.fingerprint.calls", per(l.fingerprint_calls), "count");
        m.push("core.fingerprint.ms", ms(l.fingerprint_ns), "ms");
        m.push("store.insert.calls", per(l.insert_calls), "count");
        m.push("store.insert.ms", ms(l.insert_ns), "ms");
        m.push(
            "store.insert.new_frac",
            ratio(l.insert_new, l.insert_calls),
            "ratio",
        );
        m.push("store.bytes_resident", l.bytes_resident_max as f64, "bytes");
        m.push("explore.run.ms", ms(self.engine_ns), "ms");
        m.push("explore.self.ms", ms(l.self_ns()), "ms");
        m.push("explore.unique", per(l.unique), "count");
        m.push("explore.generated", per(l.generated), "count");
        m.push(
            "explore.states_per_s",
            if l.loop_ns == 0 {
                0.0
            } else {
                l.generated as f64 / (l.loop_ns as f64 / 1e9)
            },
            "1/s",
        );
        m.push("explore.source.ms", ms(self.source_ns), "ms");
        m.push(
            "explore.source.generated",
            per(self.source_generated),
            "count",
        );
        m.push(
            "explore.source.revisit_frac",
            if self.source_generated == 0 {
                0.0
            } else {
                1.0 - self.source_unique as f64 / self.source_generated as f64
            },
            "ratio",
        );
        let traced_ms = self.verdict_ns as f64 / n / 1e6;
        m.push("trace.verdict_ms", traced_ms, "ms");
        m.push("trace.overhead_ms", traced_ms - untraced_ms, "ms");
        m
    }
}

/// One verdict split into spans: parse (standalone), request
/// (`Session::run`), render; on exhaustive runs also the BFS replay,
/// whose counts must equal the engine's.
fn traced_verdict(
    session: &Session,
    input: &Input,
    idx: usize,
    reduction: Reduction,
    inv: &Invariant,
    spans: &mut Spans,
    acc: &mut TracedTotals,
) -> Result<CheckReport, String> {
    let root = spans.open("verdict", None, idx);
    let src = match input {
        Input::Program { src, .. } | Input::Mutex { src, .. } => src.as_str(),
        Input::Litmus(test) => test.source.as_str(),
    };
    let s = spans.open("lang.parse", Some(root), idx);
    let prog = c11_lang::parse_program(src).map_err(|e| e.to_string());
    acc.parse_ns += spans.close(s);
    let prog = prog?;

    let s = spans.open("api.request", Some(root), idx);
    let req = request(input, reduction, inv);
    let report = session.run(req).map_err(|e| e.to_string())?;
    let request_ns = spans.close(s);
    let stats = report.stats();
    let engine_ns = (stats.wall_micros * 1000) as u64;
    acc.engine_ns += engine_ns;
    acc.request_ns += request_ns.saturating_sub(engine_ns);
    let start = spans.spans()[s].start;
    spans.record(Span {
        name: "explore.run",
        start,
        end: start + engine_ns,
        parent: Some(s),
        request: idx,
    });
    if reduction == Reduction::SourceSet && matches!(input, Input::Program { .. }) {
        acc.source_ns += engine_ns;
        acc.source_generated += stats.generated as u64;
        acc.source_unique += stats.unique as u64;
    }

    let s = spans.open("api.render", Some(root), idx);
    let json = report.to_json();
    acc.render_ns += spans.close(s);
    std::hint::black_box(json);
    acc.verdicts += 1;
    acc.verdict_ns += spans.close(root);

    if reduction == Reduction::None {
        let s = spans.open("replay.bfs", None, idx);
        let (layers, expected): (Layers, Vec<(usize, usize)>) = match (input, &report) {
            (Input::Litmus(test), CheckReport::Litmus(r)) => {
                let mut l = replay::replay_bfs(&RaModel, &prog, test.max_events, None);
                l.add(&replay::replay_bfs(&ScModel, &prog, test.max_events, None));
                (
                    l,
                    vec![(r.ra.unique + r.sc.unique, r.ra.generated + r.sc.generated)],
                )
            }
            (Input::Mutex { .. }, _) => (
                replay::replay_bfs(&RaModel, &prog, PETERSON_EVENTS, None),
                vec![(stats.unique, stats.generated)],
            ),
            _ => {
                let valid = |c: &Config<RaModel>| c11_axiomatic::axioms::is_valid(&c.mem);
                let max_events = c11_explore::ExploreConfig::default().max_events;
                (
                    replay::replay_bfs(&RaModel, &prog, max_events, Some(&valid)),
                    vec![(stats.unique, stats.generated)],
                )
            }
        };
        spans.close(s);
        let got = (layers.unique as usize, layers.generated as usize);
        if got != expected[0] {
            return Err(format!(
                "replay visited {got:?} (unique, generated), engine {:?}",
                expected[0]
            ));
        }
        acc.replay.add(&layers);
    }
    Ok(report)
}

/// Replay counts per input name, for the benchmark's own tests.
#[cfg(test)]
pub(crate) fn replay_counts(
    root: &Path,
    seed: u64,
) -> std::collections::HashMap<String, (bool, String)> {
    let (inputs, session, _) = setup(root, seed).unwrap();
    let inv = mutex_invariant();
    let mut spans = Spans::new();
    let mut out = std::collections::HashMap::new();
    for (i, input) in inputs.iter().enumerate() {
        let mut acc = TracedTotals::default();
        let r = traced_verdict(
            &session,
            input,
            i,
            Reduction::None,
            &inv,
            &mut spans,
            &mut acc,
        );
        out.insert(
            input.name().to_string(),
            (r.is_ok(), r.err().unwrap_or_default()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_replay_matches_the_engine_on_every_check_input() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for (name, (ok, err)) in replay_counts(&root, 5) {
            assert!(ok, "{name}: {err}");
        }
    }
}
