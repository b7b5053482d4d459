//! `c11perf` — the repository benchmark: end-to-end and per-layer
//! numbers for the operational checker (in process) and the `c11netd`
//! service (over TCP). See `c11perf/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path c11perf/Cargo.toml -- \
//!     --workload check-exhaustive --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. Any answer that
//! disagrees with its known answer makes `correct` false and the exit
//! code 1; a usage or environment error exits 2 without a result line.

mod check;
mod gen;
mod oracle;
mod replay;
mod serve;
mod stats;
mod trace;

use c11_api::Reduction;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every end-to-end metric (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("programs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric (`--trace 1`), in output order. A layer a
/// workload never reaches (the network on `check-*`, the BFS on
/// `serve-*`) reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("lang.parse.ms", "ms"),
    ("api.request.ms", "ms"),
    ("api.render.ms", "ms"),
    ("axiomatic.is_valid.calls", "count"),
    ("axiomatic.is_valid.ms", "ms"),
    ("core.successors.calls", "count"),
    ("core.successors.ms", "ms"),
    ("core.successors.fanout", "count"),
    ("core.fingerprint.calls", "count"),
    ("core.fingerprint.ms", "ms"),
    ("store.insert.calls", "count"),
    ("store.insert.ms", "ms"),
    ("store.insert.new_frac", "ratio"),
    ("store.bytes_resident", "bytes"),
    ("explore.run.ms", "ms"),
    ("explore.self.ms", "ms"),
    ("explore.unique", "count"),
    ("explore.generated", "count"),
    ("explore.states_per_s", "1/s"),
    ("explore.source.ms", "ms"),
    ("explore.source.generated", "count"),
    ("explore.source.revisit_frac", "ratio"),
    ("load.lag_ms_p99", "ms"),
    ("net.rtt_ms_p50", "ms"),
    ("api.json_parse.us_p50", "us"),
    ("api.request_from_json.us_p50", "us"),
    ("api.session.submit.us_p50", "us"),
    ("api.session.wait.us_p50", "us"),
    ("api.report_line.us_p50", "us"),
    ("net.write_frame.us_p50", "us"),
    ("net.unaccounted_ms_p50", "ms"),
    ("session.cache_hit_frac", "ratio"),
    ("session.explorations", "count"),
    ("session.evictions", "count"),
    ("session.overloaded", "count"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("explore.parallel_frac", "ratio"),
    ("trace.verdict_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Named metric values in output order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics of `catalogue`, in its order, 0 where not measured.
    /// Panics on a measured metric the catalogue does not name (or names
    /// with another unit): the output must match `BENCHMARK.json`.
    fn complete(self, catalogue: &[(&'static str, &'static str)]) -> Metrics {
        for (name, _, unit) in &self.0 {
            assert!(
                catalogue.contains(&(*name, *unit)),
                "metric {name} ({unit}) is not in the catalogue"
            );
        }
        Metrics(
            catalogue
                .iter()
                .map(|&(name, unit)| {
                    let value = self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                    (name, value, unit)
                })
                .collect(),
        )
    }
}

/// What a run measured and whether every answer was right.
pub struct Outcome {
    /// Requests or verdicts attempted.
    pub attempted: u64,
    /// Errors, overloads, time-outs and undecided verdicts.
    pub failed: u64,
    /// Answers that disagreed with their known answer (or with the
    /// in-process report, for the service).
    pub mismatches: Vec<String>,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident memory (VmHWM) of process `pid` in MB.
pub fn peak_rss_mb_of(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading peak memory: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in the process status")?;
    Ok(kb / 1024.0)
}

/// Peak resident memory of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb_of("self")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: c11perf --workload check-exhaustive|check-source|serve-warm|serve-cold \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or(USAGE)?,
        trace: trace.unwrap_or(false),
    })
}

/// Where build products and traces go: the cargo target directory.
fn out_dir(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("c11perf/target"));
    root.join(target)
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let out = out_dir(root);
    let spans = out
        .join("c11perf-trace")
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    let (s, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("check-exhaustive", false) => check::run(root, s, seconds, Reduction::None),
        ("check-source", false) => check::run(root, s, seconds, Reduction::SourceSet),
        ("check-exhaustive", true) => check::run_traced(root, s, seconds, Reduction::None, &spans),
        ("check-source", true) => check::run_traced(root, s, seconds, Reduction::SourceSet, &spans),
        ("serve-warm", trace) => {
            serve::run(root, &out, serve::Kind::Warm, s, seconds, trace, &spans)
        }
        ("serve-cold", trace) => {
            serve::run(root, &out, serve::Kind::Cold, s, seconds, trace, &spans)
        }
        (other, _) => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    if !root.join("crates").is_dir() || !root.join("litmus").is_dir() {
        eprintln!("c11perf must run from the repository root (needs crates/ and litmus/)");
        return ExitCode::from(2);
    }
    match run(&args, &root) {
        Ok(mut outcome) => {
            let catalogue: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
            outcome.metrics = std::mem::take(&mut outcome.metrics).complete(catalogue);
            for m in &outcome.mismatches {
                eprintln!("mismatch: {m}");
            }
            println!("{}", outcome.to_json());
            if outcome.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("c11perf: {e}");
            ExitCode::from(2)
        }
    }
}
