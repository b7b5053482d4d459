//! `c11bench` — offline comparators for the CI quality gates.
//!
//! ```sh
//! # Fail if any shared benchmark row of the fresh run regressed more
//! # than 25% against the committed baseline (rows faster than
//! # --min-nanos in the baseline are skipped as noise):
//! c11bench compare BENCH_baseline.json BENCH_fresh.json --tolerance 0.25
//!
//! # Fail if two `c11check --litmus --json` documents disagree on any
//! # per-test verdict (pass / observed_ra / observed_sc / expectations):
//! c11bench verdicts seq.json source.json
//! ```
//!
//! Both subcommands are plain-file, offline tools: `compare` reads the
//! `explore_e2e` JSON trajectory files (whose rows carry floats, so they
//! are scanned with a tolerant row reader instead of the strict
//! `c11check/v1` parser), `verdicts` reads `c11check-litmus/v1` reports
//! through `c11_api::json::Json::parse` and diffs the verdict projection
//! — stats (`wall_micros`, state counts) are deliberately ignored, since
//! backends differ exactly there.

use c11_api::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage:\n\
     c11bench compare <baseline.json> <fresh.json> [--tolerance F] [--min-nanos N] [--absolute]\n\
     \x20                [--ratio-floor F] [--ratio-match S] [--require-match S]\n\
     c11bench verdicts <a.json> <b.json>\n\
     compare: fail (exit 1) if a benchmark row shared by both files is \
     slower in <fresh> by more than the tolerance (default 0.25 = +25%) \
     after normalising by the median ratio across shared rows (so a \
     uniformly slower machine cancels out; --absolute compares raw wall \
     times); baseline rows below --min-nanos (default 100000 = 100µs) \
     are skipped as timer noise, and rows stamped \"interrupted\": true \
     (a run truncated by `explore_e2e --budget-ms`) are skipped with a \
     note — a deadline-bounded wall time measures the budget, not the \
     workload\n\
     --ratio-floor: additionally fail if, in <fresh>'s `scaling` group, \
     the w1/w4 speedup of any shape whose name contains --ratio-match \
     (default \"contended\") falls below F. The floor is scaled down when \
     <fresh> records fewer than 4 host cores (a 1-core runner cannot \
     exhibit real speedup), bottoming out at 0.7 = \"w4 must not be \
     catastrophically slower than w1\"\n\
     --require-match: error (exit 2) unless at least one row that \
     actually entered the regression loop has a name containing S — \
     catches a gate that silently compares nothing (e.g. every p99 row \
     fell under --min-nanos)\n\
     verdicts: fail (exit 1) if two c11check-litmus/v1 documents \
     disagree on any test's verdict fields (stats are ignored)";

/// One benchmark row: wall time plus whether the measured run was
/// deadline-interrupted (`explore_e2e --budget-ms`), in which case the
/// wall time measures the budget, not the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BenchRow {
    nanos: u128,
    interrupted: bool,
}

/// Benchmark rows keyed by (group, name).
type BenchRows = BTreeMap<(String, String), BenchRow>;

/// Scans an `explore_e2e` JSON trajectory for its rows. The file carries
/// floats (`per_sec`), which the strict report parser rejects, so this
/// reads the fields it needs (`group`, `name`, `nanos`, and the optional
/// `interrupted` stamp) with a small string scanner keyed to the
/// emitter's `"key": value` layout.
fn parse_bench_rows(src: &str) -> Result<BenchRows, String> {
    fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\":");
        let start = row.find(&pat)? + pat.len();
        let rest = row[start..].trim_start();
        if let Some(stripped) = rest.strip_prefix('"') {
            stripped.split('"').next()
        } else {
            rest.split([',', '}']).next().map(str::trim)
        }
    }
    let mut rows = BenchRows::new();
    for row in src.split('{').skip(2) {
        // Every row object carries all three fields; anything else
        // (the document header) simply doesn't match.
        let (Some(group), Some(name), Some(nanos)) =
            (field(row, "group"), field(row, "name"), field(row, "nanos"))
        else {
            continue;
        };
        let nanos: u128 = nanos
            .parse()
            .map_err(|e| format!("bad nanos for {group}/{name}: {e}"))?;
        let interrupted = field(row, "interrupted") == Some("true");
        if rows
            .insert(
                (group.to_string(), name.to_string()),
                BenchRow { nanos, interrupted },
            )
            .is_some()
        {
            return Err(format!("duplicate row {group}/{name}"));
        }
    }
    if rows.is_empty() {
        return Err("no benchmark rows found".to_string());
    }
    Ok(rows)
}

/// Reads the document-level `"cores"` field the `explore_e2e` emitter
/// records (absent in pre-scaling trajectory files).
fn parse_cores(src: &str) -> Option<usize> {
    let head = src.split("\"rows\"").next()?;
    let start = head.find("\"cores\":")? + "\"cores\":".len();
    head[start..]
        .trim_start()
        .split([',', '\n', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// Runs the bench comparison; `Ok(true)` means no regressions.
fn run_compare(args: &[String]) -> Result<bool, String> {
    let (mut tolerance, mut min_nanos): (f64, u128) = (0.25, 100_000);
    let mut absolute = false;
    let mut ratio_floor: Option<f64> = None;
    let mut ratio_match = "contended".to_string();
    let mut require_match: Option<String> = None;
    let (mut baseline, mut fresh) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            "--min-nanos" => {
                min_nanos = it
                    .next()
                    .ok_or("--min-nanos needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --min-nanos: {e}"))?;
            }
            "--absolute" => absolute = true,
            "--ratio-floor" => {
                ratio_floor = Some(
                    it.next()
                        .ok_or("--ratio-floor needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --ratio-floor: {e}"))?,
                );
            }
            "--ratio-match" => {
                ratio_match = it.next().ok_or("--ratio-match needs a value")?.clone();
            }
            "--require-match" => {
                require_match = Some(it.next().ok_or("--require-match needs a value")?.clone());
            }
            p if baseline.is_none() => baseline = Some(p.to_string()),
            p if fresh.is_none() => fresh = Some(p.to_string()),
            other => return Err(format!("unknown compare argument {other:?}")),
        }
    }
    let (baseline, fresh) = (
        baseline.ok_or("compare needs a baseline file")?,
        fresh.ok_or("compare needs a fresh file")?,
    );
    let read = |p: &str| -> Result<(BenchRows, Option<usize>), String> {
        let src = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        let rows = parse_bench_rows(&src).map_err(|e| format!("{p}: {e}"))?;
        Ok((rows, parse_cores(&src)))
    };
    let ((base_rows, base_cores), (fresh_rows, fresh_cores)) = (read(&baseline)?, read(&fresh)?);
    // Scaling rows are only time-comparable between hosts with the same
    // core count: more cores change the *shape* across worker counts
    // (w4 speeds up, w1 doesn't), which median normalisation cannot
    // cancel. When the recorded core counts differ, the ratio-floor gate
    // owns the scaling group and the row loop skips it.
    let skip_scaling = match (base_cores, fresh_cores) {
        (Some(b), Some(f)) => b != f,
        _ => false,
    };
    if skip_scaling {
        println!(
            "skipping scaling rows in the regression loop: baseline measured on {} core(s), fresh on {} core(s)",
            base_cores.unwrap(),
            fresh_cores.unwrap()
        );
    }
    // Shared rows above the noise floor, with their raw new/base ratios.
    // A row whose measured run tripped a `--budget-ms` deadline (on
    // either side) times the budget rather than the workload, so it is
    // excluded from the regression gate with a note instead of reading
    // as a spurious pass or failure.
    let mut rows: Vec<(&String, &String, u128, u128, f64)> = Vec::new();
    let mut shared = 0usize;
    for ((group, name), &base) in &base_rows {
        let Some(&new) = fresh_rows.get(&(group.clone(), name.clone())) else {
            continue;
        };
        shared += 1;
        if new.interrupted || base.interrupted {
            println!(
                "skipping {group}/{name}: {} run was deadline-interrupted, its wall time is not comparable",
                if new.interrupted { "fresh" } else { "baseline" }
            );
            continue;
        }
        let (base, new) = (base.nanos, new.nanos);
        if base < min_nanos || (skip_scaling && group == "scaling") {
            continue;
        }
        rows.push((group, name, base, new, new as f64 / base as f64));
    }
    if shared == 0 {
        return Err("the two files share no benchmark rows".to_string());
    }
    // The SLO gates name a row substring they expect to actually gate
    // on (e.g. "p99"); if every such row was filtered out — noise
    // floor, deadline interruption, a missing counterpart — the gate
    // is vacuous and must error rather than silently pass.
    if let Some(needle) = &require_match {
        if !rows
            .iter()
            .any(|(_, name, ..)| name.contains(needle.as_str()))
        {
            return Err(format!(
                "--require-match: none of the {} compared rows has a name containing {needle:?}",
                rows.len()
            ));
        }
    }
    // The fresh run usually comes from a different machine (or a quick
    // CI pass) than the committed baseline, so by default ratios are
    // normalised by their median: a uniformly slower runner cancels out
    // and only *relative* per-row regressions trip the gate.
    // `--absolute` compares raw wall times instead (same-machine runs).
    let scale = if absolute || rows.is_empty() {
        1.0
    } else {
        let mut ratios: Vec<f64> = rows.iter().map(|r| r.4).collect();
        ratios.sort_by(f64::total_cmp);
        // Lower median: with few rows a real regression must not drag
        // the normaliser up with it.
        ratios[(ratios.len() - 1) / 2].max(f64::MIN_POSITIVE)
    };
    if scale != 1.0 {
        println!("normalising by the median ratio {scale:.2}x (pass --absolute to disable)");
    }
    let mut regressions = Vec::new();
    for (group, name, base, new, ratio) in rows {
        let relative = ratio / scale;
        let verdict = if relative > 1.0 + tolerance {
            regressions.push(format!(
                "  REGRESSION {group}/{name}: {base} ns -> {new} ns ({:+.1}% after normalisation)",
                (relative - 1.0) * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{group}/{name}: {base} -> {new} ns ({relative:.2}x) {verdict}");
    }
    // The worker-scaling gate: within the fresh run alone, w4 must beat
    // w1 by the (core-count-adjusted) floor on every matching shape.
    let mut floor_failures = Vec::new();
    if let Some(floor) = ratio_floor {
        // An absent cores field (older emitter) assumes a capable host
        // and keeps the gate strict.
        let cores = fresh_cores.unwrap_or(4);
        let effective = if cores >= 4 {
            floor
        } else {
            // The 0.7 bottom allows for genuine oversubscription
            // overhead (4 worker threads time-slicing one core pay for
            // scheduling and cache-line ping-pong) while still catching
            // a pathological collapse.
            floor.min((floor * cores as f64 / 4.0).max(0.7))
        };
        if effective < floor {
            println!(
                "ratio floor relaxed {floor:.2}x -> {effective:.2}x: fresh run measured on {cores} core(s)"
            );
        }
        let mut pairs = 0usize;
        for ((group, name), &w1) in &fresh_rows {
            if group != "scaling" {
                continue;
            }
            let Some(stem) = name.strip_suffix("-w1") else {
                continue;
            };
            if !stem.contains(&ratio_match) {
                continue;
            }
            let Some(&w4) = fresh_rows.get(&(group.clone(), format!("{stem}-w4"))) else {
                continue;
            };
            if w1.interrupted || w4.interrupted {
                println!(
                    "skipping scaling {stem}: a deadline-interrupted run cannot witness a speedup"
                );
                continue;
            }
            pairs += 1;
            let speedup = w1.nanos as f64 / w4.nanos as f64;
            let ok = speedup >= effective;
            println!(
                "scaling {stem}: w1 {} ns / w4 {} ns = {speedup:.2}x (floor {effective:.2}x) {}",
                w1.nanos,
                w4.nanos,
                if ok { "ok" } else { "BELOW FLOOR" }
            );
            if !ok {
                floor_failures.push(format!(
                    "  SCALING {stem}: w4 speedup {speedup:.2}x below floor {effective:.2}x"
                ));
            }
        }
        if pairs == 0 {
            return Err(format!(
                "--ratio-floor: no scaling rows matching {ratio_match:?} with w1/w4 pairs in {fresh}"
            ));
        }
    }
    if regressions.is_empty() && floor_failures.is_empty() {
        println!(
            "bench compare: {shared} shared rows within +{:.0}%",
            tolerance * 100.0
        );
        Ok(true)
    } else {
        let mut all = regressions;
        all.extend(floor_failures);
        eprintln!(
            "bench compare: {} of {shared} shared rows failed the gates:\n{}",
            all.len(),
            all.join("\n")
        );
        Ok(false)
    }
}

/// The verdict projection of one litmus report: everything that must
/// agree across backends (stats are excluded by construction).
type Verdicts = BTreeMap<String, Vec<(String, String)>>;

fn verdict_projection(path: &str) -> Result<Verdicts, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(src.trim()).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("c11check-litmus/v1") {
        return Err(format!("{path}: not a c11check-litmus/v1 document"));
    }
    let Some(Json::Arr(tests)) = doc.get("tests") else {
        return Err(format!("{path}: missing \"tests\" array"));
    };
    let mut out = Verdicts::new();
    for t in tests {
        let name = t
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: test without a name"))?;
        let mut fields = Vec::new();
        for key in [
            "expect_ra",
            "expect_sc",
            "observed_ra",
            "observed_sc",
            "pass",
        ] {
            let value = match t.get(key) {
                Some(Json::Bool(b)) => b.to_string(),
                Some(v) => v.as_str().unwrap_or("?").to_string(),
                None => return Err(format!("{path}: {name} misses {key:?}")),
            };
            fields.push((key.to_string(), value));
        }
        if out.insert(name.to_string(), fields).is_some() {
            return Err(format!("{path}: duplicate test {name:?}"));
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no tests"));
    }
    Ok(out)
}

/// Diffs two verdict documents; `Ok(true)` means they agree.
fn run_verdicts(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("verdicts needs exactly two files".to_string());
    };
    let (va, vb) = (verdict_projection(a)?, verdict_projection(b)?);
    let mut diverged = Vec::new();
    if va.keys().ne(vb.keys()) {
        diverged.push(format!(
            "  test sets differ: {:?} vs {:?}",
            va.keys().collect::<Vec<_>>(),
            vb.keys().collect::<Vec<_>>()
        ));
    } else {
        for (name, fa) in &va {
            for ((key, x), (_, y)) in fa.iter().zip(&vb[name]) {
                if x != y {
                    diverged.push(format!("  {name}.{key}: {x:?} vs {y:?}"));
                }
            }
        }
    }
    if diverged.is_empty() {
        println!("verdicts agree on {} tests ({a} vs {b})", va.len());
        Ok(true)
    } else {
        eprintln!(
            "verdict divergence between {a} and {b}:\n{}",
            diverged.join("\n")
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("verdicts") => run_verdicts(&args[1..]),
        Some("-h") | Some("--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
  "bench": "explore_e2e",
  "rows": [
    {"group": "wide", "name": "E13-wide-2", "size": 100, "nanos": 1000000, "per_sec": 100.0},
    {"group": "dpor", "name": "E13-wide-2", "size": 90, "nanos": 900000, "per_sec": 100.0},
    {"group": "closure", "name": "tiny", "size": 1, "nanos": 50, "per_sec": 2.5}
  ]
}
"#;

    #[test]
    fn bench_rows_parse_despite_floats() {
        let rows = parse_bench_rows(BENCH).unwrap();
        assert_eq!(rows.len(), 3);
        let wide = rows[&("wide".into(), "E13-wide-2".into())];
        assert_eq!((wide.nanos, wide.interrupted), (1_000_000, false));
        assert_eq!(rows[&("closure".into(), "tiny".into())].nanos, 50);
    }

    #[test]
    fn interrupted_rows_are_skipped_not_compared() {
        let dir = std::env::temp_dir().join("c11bench-test-interrupted");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, BENCH).unwrap();
        // The big row regressed 5x, but its fresh run tripped a
        // --budget-ms deadline: its wall time measures the budget, so
        // the gate must skip it rather than flag a regression.
        std::fs::write(
            &fresh,
            BENCH.replace(
                "\"nanos\": 1000000, \"per_sec\": 100.0",
                "\"nanos\": 5000000, \"per_sec\": 100.0, \"interrupted\": true",
            ),
        )
        .unwrap();
        let args = vec![
            base.to_str().unwrap().to_string(),
            fresh.to_str().unwrap().to_string(),
        ];
        assert!(run_compare(&args).unwrap());
        // A deadline-truncated *baseline* is equally incomparable: the
        // fresh run looking 5x slower than a budget-capped number is
        // not a regression either.
        std::fs::write(
            &base,
            BENCH.replace(
                "\"nanos\": 1000000, \"per_sec\": 100.0",
                "\"nanos\": 200000, \"per_sec\": 100.0, \"interrupted\": true",
            ),
        )
        .unwrap();
        std::fs::write(&fresh, BENCH).unwrap();
        assert!(run_compare(&args).unwrap());
    }

    #[test]
    fn interrupted_scaling_rows_drop_out_of_the_ratio_gate() {
        let dir = std::env::temp_dir().join("c11bench-test-interrupted-ratio");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, SCALING).unwrap();
        // The contended w4 run tripped its budget: the apparent 3.0x
        // speedup is fiction, so the pair is skipped — leaving no
        // matching pairs, which the gate reports as an error rather
        // than a silent pass.
        std::fs::write(
            &fresh,
            SCALING.replace(
                "\"name\": \"E16-contended-4-w4\", \"size\": 553, \"nanos\": 1000000",
                "\"name\": \"E16-contended-4-w4\", \"size\": 553, \"nanos\": 1000000, \"interrupted\": true",
            ),
        )
        .unwrap();
        let args = vec![
            base.to_str().unwrap().to_string(),
            fresh.to_str().unwrap().to_string(),
            "--ratio-floor".to_string(),
            "2.5".to_string(),
        ];
        assert!(run_compare(&args).is_err());
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let dir = std::env::temp_dir().join("c11bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, BENCH).unwrap();
        // +10% on the big row, 3x on the sub-min-nanos row: both fine.
        std::fs::write(
            &fresh,
            BENCH
                .replace("\"nanos\": 1000000", "\"nanos\": 1100000")
                .replace("\"nanos\": 50", "\"nanos\": 150"),
        )
        .unwrap();
        let args = |a: &std::path::Path, b: &std::path::Path| {
            vec![
                a.to_str().unwrap().to_string(),
                b.to_str().unwrap().to_string(),
            ]
        };
        assert!(run_compare(&args(&base, &fresh)).unwrap());
        // +30% on the big row: regression at the default 25% tolerance…
        std::fs::write(
            &fresh,
            BENCH.replace("\"nanos\": 1000000", "\"nanos\": 1300000"),
        )
        .unwrap();
        assert!(!run_compare(&args(&base, &fresh)).unwrap());
        // …but fine at 50%.
        let mut relaxed = args(&base, &fresh);
        relaxed.extend(["--tolerance".to_string(), "0.5".to_string()]);
        assert!(run_compare(&relaxed).unwrap());
    }

    #[test]
    fn compare_normalises_away_a_uniformly_slower_machine() {
        let dir = std::env::temp_dir().join("c11bench-test-scale");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, BENCH).unwrap();
        // Everything 2x slower (a weaker CI runner): fine by default…
        std::fs::write(
            &fresh,
            BENCH
                .replace("\"nanos\": 1000000", "\"nanos\": 2000000")
                .replace("\"nanos\": 900000", "\"nanos\": 1800000"),
        )
        .unwrap();
        let args: Vec<String> = vec![
            base.to_str().unwrap().to_string(),
            fresh.to_str().unwrap().to_string(),
        ];
        assert!(run_compare(&args).unwrap());
        // …but a raw-wall-time comparison flags it.
        let mut strict = args.clone();
        strict.push("--absolute".to_string());
        assert!(!run_compare(&strict).unwrap());
        // A lopsided slowdown (one row 2x, the other untouched) is a
        // per-row regression even after normalisation.
        std::fs::write(
            &fresh,
            BENCH.replace("\"nanos\": 1000000", "\"nanos\": 2000000"),
        )
        .unwrap();
        assert!(!run_compare(&args).unwrap());
    }

    const SCALING: &str = r#"{
  "bench": "explore_e2e",
  "cores": 4,
  "rows": [
    {"group": "scaling", "name": "E16-contended-4-w1", "size": 553, "nanos": 3000000, "per_sec": 1.0},
    {"group": "scaling", "name": "E16-contended-4-w4", "size": 553, "nanos": 1000000, "per_sec": 1.0},
    {"group": "scaling", "name": "E13-wide-4-w1", "size": 400, "nanos": 2000000, "per_sec": 1.0},
    {"group": "scaling", "name": "E13-wide-4-w4", "size": 400, "nanos": 1900000, "per_sec": 1.0}
  ]
}
"#;

    #[test]
    fn cores_field_is_read_from_the_header_only() {
        assert_eq!(parse_cores(SCALING), Some(4));
        assert_eq!(parse_cores(BENCH), None, "older files carry no cores");
        // A hypothetical row-level "cores" key must not leak into the
        // document-level read.
        assert_eq!(parse_cores("{\n \"rows\": [\n {\"cores\": 9}\n]}"), None);
    }

    #[test]
    fn ratio_floor_gates_the_contended_scaling_pair() {
        let dir = std::env::temp_dir().join("c11bench-test-ratio");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, SCALING).unwrap();
        std::fs::write(&fresh, SCALING).unwrap();
        let args = |extra: &[&str]| {
            let mut v = vec![
                base.to_str().unwrap().to_string(),
                fresh.to_str().unwrap().to_string(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        // 3.0x speedup on the contended shape: clears a 2.5x floor. The
        // wide shape's 1.05x is outside the default "contended" match.
        assert!(run_compare(&args(&["--ratio-floor", "2.5"])).unwrap());
        // Matching the wide shape instead: 1.05x misses the floor.
        assert!(!run_compare(&args(&["--ratio-floor", "2.5", "--ratio-match", "wide"])).unwrap());
        // A collapsed speedup on a 4-core host fails…
        std::fs::write(
            &fresh,
            SCALING.replace("\"nanos\": 1000000", "\"nanos\": 2900000"),
        )
        .unwrap();
        assert!(!run_compare(&args(&["--ratio-floor", "2.5"])).unwrap());
        // …but the same measurement from a 1-core host only has to beat
        // the 0.7x sanity bound (baseline matched so only the ratio gate
        // is in play).
        let one_core = SCALING
            .replace("\"cores\": 4", "\"cores\": 1")
            .replace("\"nanos\": 1000000", "\"nanos\": 2900000");
        std::fs::write(&base, &one_core).unwrap();
        std::fs::write(&fresh, &one_core).unwrap();
        assert!(run_compare(&args(&["--ratio-floor", "2.5"])).unwrap());
        // A pathological collapse (w4 twice as slow as w1) fails even
        // the relaxed 1-core bound.
        let collapsed = SCALING
            .replace("\"cores\": 4", "\"cores\": 1")
            .replace("\"nanos\": 1000000", "\"nanos\": 6000000");
        std::fs::write(&base, &collapsed).unwrap();
        std::fs::write(&fresh, &collapsed).unwrap();
        assert!(!run_compare(&args(&["--ratio-floor", "2.5"])).unwrap());
        // No matching scaling pairs at all: a misconfigured gate errors
        // instead of silently passing.
        std::fs::write(&fresh, BENCH).unwrap();
        std::fs::write(&base, BENCH).unwrap();
        assert!(run_compare(&args(&["--ratio-floor", "2.5"])).is_err());
    }

    #[test]
    fn scaling_rows_skip_the_regression_loop_across_core_counts() {
        let dir = std::env::temp_dir().join("c11bench-test-cores-skip");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        let args = vec![
            base.to_str().unwrap().to_string(),
            fresh.to_str().unwrap().to_string(),
        ];
        // A 1-core fresh run is 3x slower on the w4 row than the 4-core
        // baseline — a *shape* change from losing parallelism, not a
        // regression. Same core count: the row loop flags it…
        let slow_w4 = SCALING.replace("\"nanos\": 1000000", "\"nanos\": 3000000");
        std::fs::write(&base, SCALING).unwrap();
        std::fs::write(&fresh, &slow_w4).unwrap();
        assert!(!run_compare(&args).unwrap());
        // …but across core counts the scaling group is excluded.
        std::fs::write(&fresh, slow_w4.replace("\"cores\": 4", "\"cores\": 1")).unwrap();
        assert!(run_compare(&args).unwrap());
    }

    #[test]
    fn require_match_rejects_a_vacuous_gate() {
        let dir = std::env::temp_dir().join("c11bench-test-require");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, BENCH).unwrap();
        std::fs::write(&fresh, BENCH).unwrap();
        let args = |needle: &str| {
            vec![
                base.to_str().unwrap().to_string(),
                fresh.to_str().unwrap().to_string(),
                "--require-match".to_string(),
                needle.to_string(),
            ]
        };
        // "E13" rows survive the noise floor and are compared: passes.
        assert!(run_compare(&args("E13")).unwrap());
        // "tiny" exists but sits below --min-nanos, so nothing with
        // that name is actually compared: the gate is vacuous.
        assert!(run_compare(&args("tiny")).is_err());
        // A substring matching nothing at all errors too.
        assert!(run_compare(&args("p99")).is_err());
    }

    const LITMUS_A: &str = r#"{"schema":"c11check-litmus/v1","tests":[{"schema":"c11check/v1","mode":"litmus","name":"SB","expect_ra":"allowed","expect_sc":"forbidden","observed_ra":true,"observed_sc":false,"pass":true,"ra":{"unique":10,"wall_micros":5},"sc":{"unique":4,"wall_micros":1}}],"failed":0}"#;

    #[test]
    fn verdicts_ignore_stats_but_catch_flips() {
        let dir = std::env::temp_dir().join("c11bench-test-verdicts");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, LITMUS_A).unwrap();
        // Different stats, same verdicts: agreement.
        std::fs::write(&b, LITMUS_A.replace("\"unique\":10", "\"unique\":7")).unwrap();
        let args = vec![
            a.to_str().unwrap().to_string(),
            b.to_str().unwrap().to_string(),
        ];
        assert!(run_verdicts(&args).unwrap());
        // A flipped observation is a divergence.
        std::fs::write(
            &b,
            LITMUS_A.replace("\"observed_ra\":true", "\"observed_ra\":false"),
        )
        .unwrap();
        assert!(!run_verdicts(&args).unwrap());
    }
}
