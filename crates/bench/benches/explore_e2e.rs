//! E13-style end-to-end exploration benchmark: wall-clock state-space
//! throughput over the litmus corpus and the scaling workloads, plus the
//! `transitive_closure` microbenches that dominate the per-transition cost.
//!
//! A hand-rolled harness (`harness = false` + own `main`) so it can emit
//! machine-readable JSON: run with
//!
//! ```sh
//! cargo bench --bench explore_e2e -- --json BENCH_explore_e2e.json
//! cargo bench --bench explore_e2e -- --quick        # CI smoke mode
//! cargo bench --bench explore_e2e -- --budget-ms 500  # cap each run
//! ```
//!
//! `--budget-ms` puts a per-repetition deadline on the exploration
//! groups (wide / contended / scaling): a host too slow to finish a
//! shape still produces a row, but the row is stamped
//! `"interrupted": true` — its wall time measures the budget, not the
//! workload — and `c11bench compare` skips such rows with a note.
//!
//! The JSON lands in `BENCH_*.json` files that record the performance
//! trajectory across PRs (see README § Performance).

use c11_bench::{
    chain_state, contended_workload, sym_contended_workload, sym_fan_workload, wide_workload,
};
use c11_core::model::RaModel;
use c11_explore::{
    explore_source, parallel_explore, Budget, ExploreConfig, ExploreResult, Explorer, StoreKind,
    SymClasses,
};
use c11_litmus::{corpus, run_test};
use std::time::{Duration, Instant};

/// One benchmark row: a label, a size measure (states or carrier), the
/// best-of-`reps` wall time in nanoseconds, and whether any measured
/// repetition was cut short by the `--budget-ms` deadline. The `store`
/// group additionally records the backend-specific numbers its CI gate
/// checks — unique states and resident store bytes.
#[derive(Default)]
struct Row {
    group: &'static str,
    name: String,
    size: usize,
    nanos: u128,
    interrupted: bool,
    /// Unique states after dedup (`store` group only).
    unique: Option<usize>,
    /// Visited-store resident bytes (`store` group only).
    bytes_resident: Option<usize>,
}

/// Stamps a fresh deadline onto `cfg` for one timed repetition (the
/// budget bounds each run, not the whole bench).
fn budgeted(cfg: &ExploreConfig, budget: Option<Duration>) -> ExploreConfig {
    match budget {
        Some(d) => cfg
            .clone()
            .budget(Budget::with_deadline(Instant::now() + d)),
        None => cfg.clone(),
    }
}

impl Row {
    fn per_sec(&self) -> f64 {
        if self.nanos == 0 {
            f64::INFINITY
        } else {
            self.size as f64 * 1e9 / self.nanos as f64
        }
    }
}

/// Times `f` `reps` times and returns the best run in nanos (min over reps
/// filters scheduler noise).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

fn bench_corpus(reps: usize, rows: &mut Vec<Row>) {
    for test in corpus() {
        let mut states = 0usize;
        let nanos = best_of(reps, || {
            let r = run_test(&test);
            assert!(r.pass, "{} regressed during benchmarking", r.name);
            states = r.ra.unique + r.sc.unique;
            r
        });
        rows.push(Row {
            group: "corpus",
            name: test.name.clone(),
            size: states,
            nanos,
            interrupted: false,
            ..Row::default()
        });
    }
}

fn bench_scaling(reps: usize, quick: bool, budget: Option<Duration>, rows: &mut Vec<Row>) {
    let wide: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4] };
    for &k in wide {
        let prog = wide_workload(k);
        let cfg = ExploreConfig::default().max_events(2 * k + 4);
        let mut states = 0usize;
        let mut interrupted = false;
        let nanos = best_of(reps, || {
            let res = Explorer::new(RaModel).explore(&prog, budgeted(&cfg, budget));
            states = res.unique;
            interrupted |= res.interrupted.is_some();
            res
        });
        rows.push(Row {
            group: "wide",
            name: format!("E13-wide-{k}"),
            size: states,
            nanos,
            interrupted,
            ..Row::default()
        });
    }
    let contended: &[usize] = if quick { &[3] } else { &[3, 4] };
    for &k in contended {
        let prog = contended_workload(k);
        let cfg = ExploreConfig::default();
        let mut states = 0usize;
        let mut interrupted = false;
        let nanos = best_of(reps, || {
            let res = Explorer::new(RaModel).explore(&prog, budgeted(&cfg, budget));
            states = res.unique;
            interrupted |= res.interrupted.is_some();
            res
        });
        rows.push(Row {
            group: "contended",
            name: format!("E16-contended-{k}"),
            size: states,
            nanos,
            interrupted,
            ..Row::default()
        });
    }
}

/// The source-set reduction group: the E13 wide and E16 contended shapes
/// explored under the source-set engine, with the finals-only contract
/// asserted while measuring — the finals multiset of the sequential
/// engine, and at most two fifths of its generated states on the
/// contended family. The wide (read-fan-out) shapes are recorded
/// without a ratio gate: a stateless per-trace walk legitimately
/// re-generates states a stateful search dedups, so the win is
/// shape-dependent. Row size is the generated count. Row names carry
/// `reduction` so the CI gate's `--require-match reduction` anchors on
/// them. The contended shapes run in quick mode too: E16-contended-4 is
/// the acceptance shape.
fn bench_reduction(reps: usize, quick: bool, rows: &mut Vec<Row>) {
    let wide: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4] };
    let shapes = wide
        .iter()
        .map(|&k| (format!("E13-wide-{k}"), wide_workload(k), 2 * k + 4))
        .chain(
            [3usize, 4]
                .iter()
                .map(|&k| (format!("E16-contended-{k}"), contended_workload(k), 24)),
        );
    for (name, prog, max_events) in shapes {
        let cfg = ExploreConfig::default().max_events(max_events);
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let contended_shape = name.starts_with("E16");
        let mut generated = 0usize;
        let nanos = best_of(reps, || {
            let res = explore_source(&RaModel, &prog, &cfg);
            let mut a = seq.final_snapshots();
            let mut b = res.final_snapshots();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{name}: finals multiset");
            if contended_shape {
                assert!(
                    res.generated * 5 <= seq.generated * 2,
                    "{name}: source-set must generate ≤ 0.4× the sequential engine ({} vs {})",
                    res.generated,
                    seq.generated
                );
            }
            generated = res.generated;
            res
        });
        println!(
            "source reduction {name}: generated {generated} vs sequential {} (ratio {:.2})",
            seq.generated,
            generated as f64 / seq.generated as f64
        );
        rows.push(Row {
            group: "reduction",
            name: format!("{name}-reduction-source"),
            size: generated,
            nanos,
            interrupted: false,
            ..Row::default()
        });
    }
}

/// The worker-scaling group: E13-wide-4 and E16-contended-4 measured
/// sequentially and at 1/2/4/8 workers. The same shapes run in quick and
/// full mode (quick only drops repetitions) so the CI `worker-scaling`
/// job's quick rows line up with the committed full-mode trajectory.
/// Equality with the sequential engine (unique count, truncation, finals
/// cardinality) is asserted while measuring; speedup ratios are printed
/// per shape and derivable from the emitted rows (`-w1` ÷ `-wN` nanos).
fn bench_worker_scaling(reps: usize, budget: Option<Duration>, rows: &mut Vec<Row>) {
    let shapes = [
        ("E13-wide-4", wide_workload(4), 12),
        ("E16-contended-4", contended_workload(4), 24),
    ];
    for (name, prog, max_events) in shapes {
        let cfg = ExploreConfig::default()
            .max_events(max_events)
            .record_traces(false);
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let states = seq.unique;
        let mut seq_interrupted = false;
        let seq_nanos = best_of(reps, || {
            let res = Explorer::new(RaModel).explore(&prog, budgeted(&cfg, budget));
            seq_interrupted |= res.interrupted.is_some();
            res
        });
        rows.push(Row {
            group: "scaling",
            name: format!("{name}-seq"),
            size: states,
            nanos: seq_nanos,
            interrupted: seq_interrupted,
            ..Row::default()
        });
        let mut w1_nanos = seq_nanos;
        for workers in [1usize, 2, 4, 8] {
            let mut interrupted = false;
            let nanos = best_of(reps, || {
                let res = parallel_explore(&RaModel, &prog, &budgeted(&cfg, budget), workers);
                // A budget-interrupted run stops early, so equality with
                // the (complete) reference is only asserted when it ran
                // to the end.
                if res.interrupted.is_none() {
                    assert_eq!(
                        res.unique, seq.unique,
                        "{name}: parallel({workers}) diverged from sequential"
                    );
                    assert_eq!(res.truncated, seq.truncated, "{name}: truncation flag");
                    assert_eq!(res.finals.len(), seq.finals.len(), "{name}: finals count");
                } else {
                    interrupted = true;
                }
                res
            });
            if workers == 1 {
                w1_nanos = nanos;
            }
            println!(
                "scaling {name} w{workers}: {:.2} ms (speedup {:.2}x vs w1, {:.2}x vs seq)",
                nanos as f64 / 1e6,
                w1_nanos as f64 / nanos as f64,
                seq_nanos as f64 / nanos as f64
            );
            rows.push(Row {
                group: "scaling",
                name: format!("{name}-w{workers}"),
                size: states,
                nanos,
                interrupted,
                ..Row::default()
            });
        }
    }
}

/// The state-storage group: symmetric 4-thread variants of the E13 wide
/// and E16 contended families (byte-identical sibling threads, so the
/// thread-permutation group acts with near-factorial orbits) explored
/// under each `--store` backend. Rows carry the numbers the CI
/// `state-storage` gate checks alongside wall time: `unique` (the
/// symmetry quotient shrinks it) and `bytes_resident`. Agreement of
/// both backends on the canonical final register states is asserted
/// while measuring, as is the headline reduction (≥ 3× fewer unique
/// states under `sym`).
fn bench_store(reps: usize, budget: Option<Duration>, rows: &mut Vec<Row>) {
    let shapes = [
        ("E13-wide-4", sym_fan_workload(2, 3), 16),
        ("E16-contended-4", sym_contended_workload(2, 4), 24),
    ];
    for (family, prog, max_events) in shapes {
        let base = ExploreConfig::default()
            .max_events(max_events)
            .record_traces(false);
        let classes = SymClasses::of(&prog);
        // The invariant every backend must reproduce: the *canonical*
        // deduplicated final register states. (Raw finals multisets
        // differ by exactly the orbit structure — the quotient keeps one
        // representative per orbit — so both sides are class-sorted and
        // deduplicated before comparing.)
        let canon_finals = |res: &ExploreResult<RaModel>| {
            let mut snaps = res.final_snapshots();
            for s in &mut snaps {
                s.class_sort(&classes);
            }
            snaps.sort();
            snaps.dedup();
            snaps
        };
        let reference = Explorer::new(RaModel).explore(&prog, base.clone());
        let finals0 = canon_finals(&reference);
        let mut measured: Vec<(StoreKind, usize, usize)> = Vec::new();
        for kind in StoreKind::ALL {
            let cfg = base.clone().store(kind);
            let (mut unique, mut bytes) = (0usize, 0usize);
            let mut interrupted = false;
            let nanos = best_of(reps, || {
                let res = Explorer::new(RaModel).explore(&prog, budgeted(&cfg, budget));
                if res.interrupted.is_none() {
                    assert_eq!(
                        canon_finals(&res),
                        finals0,
                        "{family}/{}: canonical finals diverged from flat",
                        kind.name()
                    );
                    unique = res.unique;
                    bytes = res.store_stats.expect("dedup is on").bytes_resident;
                } else {
                    interrupted = true;
                }
                res
            });
            if !interrupted {
                measured.push((kind, unique, bytes));
            }
            println!(
                "store {family} {}: {unique} unique, {bytes} bytes resident",
                kind.name()
            );
            rows.push(Row {
                group: "store",
                name: format!("{family}-store-{}", kind.name()),
                size: unique,
                nanos,
                interrupted,
                unique: Some(unique),
                bytes_resident: Some(bytes),
            });
        }
        // The headline reduction, asserted only over complete runs (a
        // budget-interrupted backend has nothing comparable to say).
        let of = |k: StoreKind| measured.iter().find(|(m, ..)| *m == k).copied();
        if let (Some((_, flat_u, _)), Some((_, sym_u, _))) =
            (of(StoreKind::Flat), of(StoreKind::Sym))
        {
            assert!(
                sym_u * 3 <= flat_u,
                "{family}: symmetry must shrink unique states ≥ 3× ({flat_u} -> {sym_u})"
            );
            println!(
                "store {family}: symmetry quotient {flat_u} -> {sym_u} unique ({:.1}x)",
                flat_u as f64 / sym_u as f64
            );
        }
    }
}

fn bench_closure_micro(reps: usize, rows: &mut Vec<Row>) {
    for n in [16usize, 32, 64] {
        let s = chain_state(n);
        let base = s.sb().union(s.rf()).union(s.mo());
        let edges = base.edge_count();
        let nanos = best_of(reps.max(100), || base.transitive_closure());
        rows.push(Row {
            group: "closure",
            name: format!("warshall-{}", s.len()),
            size: edges,
            nanos,
            interrupted: false,
            ..Row::default()
        });
        // Incremental absorption: start from the closed relation and absorb
        // one fresh sink edge per iteration — the explorer's steady state.
        let closed = base.transitive_closure();
        let m = closed.len();
        let nanos = best_of(reps.max(100), || {
            let mut r = closed.clone();
            r.add_edge_transitive(m - 2, m + 1);
            r
        });
        rows.push(Row {
            group: "closure",
            name: format!("incremental-{}", s.len()),
            size: edges,
            nanos,
            interrupted: false,
            ..Row::default()
        });
    }
}

/// Anchors relative output paths at the workspace root: `cargo bench`
/// runs harness=false binaries with cwd = `crates/bench`, which would
/// otherwise scatter `BENCH_*.json` files away from where CI and the
/// README expect them.
fn resolve_output(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

fn emit_json(path: &std::path::Path, rows: &[Row]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    // Host core count recorded alongside the rows: `c11bench compare
    // --ratio-floor` relaxes the scaling gate when the measuring host has
    // fewer cores than workers (a 1-core container cannot show real
    // speedup no matter how contention-free the engine is).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out =
        format!("{{\n  \"bench\": \"explore_e2e\",\n  \"cores\": {cores},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // Optional fields (the store counters, the budget stamp) are
        // emitted only when set so trajectories of the other groups
        // stay byte-identical to the pre-stamp format.
        let mut extra = String::new();
        if let Some(u) = r.unique {
            let _ = write!(extra, ", \"unique\": {u}");
        }
        if let Some(b) = r.bytes_resident {
            let _ = write!(extra, ", \"bytes_resident\": {b}");
        }
        if r.interrupted {
            extra.push_str(", \"interrupted\": true");
        }
        let _ = writeln!(
            out,
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"size\": {}, \"nanos\": {}, \"per_sec\": {:.1}{}}}{}",
            r.group,
            r.name,
            r.size,
            r.nanos,
            r.per_sec(),
            extra,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn main() {
    let mut json: Option<String> = None;
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut budget: Option<Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json needs a path")),
            "--quick" => quick = true,
            // Restrict the run to one row group (e.g. `--only scaling`
            // for the CI worker-scaling job).
            "--only" => only = Some(args.next().expect("--only needs a group")),
            // Per-repetition deadline on the exploration groups: rows
            // whose run tripped it are stamped "interrupted": true.
            "--budget-ms" => {
                let ms: u64 = args
                    .next()
                    .expect("--budget-ms needs a value")
                    .parse()
                    .expect("--budget-ms needs milliseconds");
                budget = Some(Duration::from_millis(ms));
            }
            // `cargo bench` passes --bench through to harness=false targets.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }
    let reps = if quick { 2 } else { 5 };
    // An unknown group name must error, not silently run nothing and
    // exit 0 — a CI job with a typoed `--only` would otherwise pass
    // while measuring no rows at all.
    const GROUPS: [&str; 7] = [
        "corpus",
        "wide",
        "contended",
        "reduction",
        "scaling",
        "closure",
        "store",
    ];
    if let Some(o) = only.as_deref() {
        if !GROUPS.contains(&o) {
            eprintln!(
                "unknown bench group {o:?}; valid groups: {}",
                GROUPS.join(", ")
            );
            std::process::exit(2);
        }
    }
    let want = |g: &str| only.as_deref().is_none_or(|o| o == g);
    let mut rows = Vec::new();
    if want("corpus") {
        bench_corpus(reps, &mut rows);
    }
    if want("wide") || want("contended") {
        bench_scaling(reps, quick, budget, &mut rows);
    }
    if want("reduction") {
        bench_reduction(reps, quick, &mut rows);
    }
    if want("scaling") {
        bench_worker_scaling(reps, budget, &mut rows);
    }
    if want("store") {
        bench_store(reps, budget, &mut rows);
    }
    if want("closure") {
        bench_closure_micro(reps, &mut rows);
    }

    println!(
        "{:<12} {:<18} {:>10} {:>14} {:>14}",
        "group", "name", "size", "time", "size/s"
    );
    for r in &rows {
        let (t, unit) = if r.nanos >= 1_000_000 {
            (r.nanos as f64 / 1e6, "ms")
        } else {
            (r.nanos as f64 / 1e3, "us")
        };
        println!(
            "{:<12} {:<18} {:>10} {:>11.2} {} {:>14.0}{}",
            r.group,
            r.name,
            r.size,
            t,
            unit,
            r.per_sec(),
            if r.interrupted { "  [budget]" } else { "" }
        );
    }
    if let Some(path) = json {
        let path = resolve_output(&path);
        emit_json(&path, &rows).expect("write JSON results");
        println!("wrote {}", path.display());
    }
}
