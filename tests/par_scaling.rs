//! The parallel backend's acceptance bar: worker-count-independent equality with the sequential reference engine
//! — identical state counts, finals multisets, violation counts and
//! truncation flags at 1/2/4/8 workers — over the litmus corpus at
//! several bounds (truncating ones included), the repo's example
//! programs (three-thread shapes included), and randomised two/three-
//! thread programs. Plus the session-level cache-neutrality contract: a
//! report computed by the parallel backend answers sequential requests
//! byte-identically modulo `stats`/`backend`.

use c11_operational::explore::{parallel_explore, parallel_explore_invariant, Stats};
use c11_operational::litmus::corpus;
use c11_operational::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn multiset(snaps: Vec<RegSnapshot>) -> HashMap<RegSnapshot, usize> {
    let mut m = HashMap::new();
    for s in snaps {
        *m.entry(s).or_insert(0) += 1;
    }
    m
}

/// Raw-engine equality on one program under one config, at every worker
/// count: every state, every final (as a multiset), the same stuck count
/// and the same truncation verdict.
fn assert_parallel_matches_sequential(prog: &Prog, cfg: &ExploreConfig, what: &str) {
    let seq = Explorer::new(RaModel).explore(prog, cfg.clone());
    for workers in WORKER_COUNTS {
        let par = parallel_explore(&RaModel, prog, cfg, workers);
        assert_eq!(par.unique, seq.unique, "{what} (w{workers}): unique");
        assert_eq!(
            par.truncated, seq.truncated,
            "{what} (w{workers}): truncated"
        );
        assert_eq!(par.stuck, seq.stuck, "{what} (w{workers}): stuck");
        assert_eq!(
            multiset(par.final_snapshots()),
            multiset(seq.final_snapshots()),
            "{what} (w{workers}): finals multiset"
        );
        assert_eq!(
            par.generated, seq.generated,
            "{what} (w{workers}): generated (no reduction, so exact)"
        );
    }
}

/// The corpus at the tests' own bounds, at a tight truncating event
/// bound, and at a depth bound: full equality everywhere. (The
/// `max_states` cap is exploration-order-dependent in which prefix it
/// keeps and is pinned separately in `parallel_backend.rs`.)
#[test]
fn parallel_full_results_match_sequential_on_corpus_at_several_bounds() {
    for test in corpus() {
        let prog = parse_program(&test.source).expect("corpus parses");
        let bounds = [
            ExploreConfig::default()
                .max_events(test.max_events)
                .record_traces(false),
            ExploreConfig::default().max_events(6).record_traces(false),
            ExploreConfig::default().max_depth(7).record_traces(false),
        ];
        for (i, cfg) in bounds.iter().enumerate() {
            assert_parallel_matches_sequential(
                &prog,
                cfg,
                &format!("{} (bound set {i})", test.name),
            );
        }
    }
}

/// The example programs shipped in the repo's tests: the paper's core
/// shapes plus swap/update and wider-than-two-thread programs (`wrc` is
/// the three-thread message-relay shape).
#[test]
fn parallel_matches_sequential_on_example_programs() {
    let programs: &[(&str, &str)] = &[
        (
            "MP-ra",
            "vars d f;
             thread t1 { d := 5; f :=R 1; }
             thread t2 { r0 <-A f; r1 <- d; }",
        ),
        (
            "SB",
            "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }",
        ),
        (
            "wide-3",
            "vars a b c;
             thread t1 { a := 1; b := 2; c := 3; }
             thread t2 { r0 <- a; r1 <- b; r2 <- c; }",
        ),
        (
            "contended",
            "vars x;
             thread t1 { x := 1; x := 2; }
             thread t2 { x := 3; x := 4; }",
        ),
        (
            "swap-lock",
            "vars l d;
             thread t1 { r0 <- l.swap(1); d := 7; }
             thread t2 { r0 <- l.swap(1); r1 <- d; }",
        ),
        (
            "wrc",
            "vars x y;
             thread t1 { x := 1; }
             thread t2 { r0 <- x; y :=R 1; }
             thread t3 { r0 <-A y; r1 <- x; }",
        ),
        (
            "spin",
            "vars x;
             thread t1 { while (x == 0) { skip; } }
             thread t2 { x := 1; }",
        ),
        (
            "if-else",
            "vars x y;
             thread t1 { x := 1; r0 <- y; if (r0 == 1) { x := 2; } else { skip; } }
             thread t2 { y := 1; r0 <- x; }",
        ),
    ];
    for (name, src) in programs {
        let prog = parse_program(src).expect("example parses");
        for cfg in [
            ExploreConfig::default().max_events(12).record_traces(false),
            ExploreConfig::default().max_events(5).record_traces(false),
        ] {
            assert_parallel_matches_sequential(&prog, &cfg, name);
        }
    }
}

/// Invariant mode at every worker count: the violation count must be
/// exact, not merely the verdict. An invariant that fails precisely on
/// terminated configurations makes the expected count independently
/// checkable (it must equal the finals count).
#[test]
fn parallel_invariant_violation_counts_match_sequential() {
    let src = "vars x y;
         thread t1 { x := 1; r0 <- y; }
         thread t2 { y := 1; r0 <- x; }";
    let prog = parse_program(src).unwrap();
    let cfg = ExploreConfig::default().record_traces(false);
    let inv = |c: &c11_operational::core::config::Config<RaModel>| !c.is_terminated();
    let seq = Explorer::new(RaModel).explore_invariant(&prog, cfg.clone(), inv);
    assert_eq!(seq.violations.len(), seq.finals.len());
    assert!(!seq.violations.is_empty());
    for workers in WORKER_COUNTS {
        let par = parallel_explore_invariant(&RaModel, &prog, &cfg, workers, &inv);
        assert_eq!(
            par.violations.len(),
            seq.violations.len(),
            "w{workers}: every worker must report every violation it visits"
        );
        assert_eq!(par.unique, seq.unique, "w{workers}: unique");
    }
}

// ---- randomised programs ------------------------------------------------

const VARS2: [&str; 2] = ["x", "y"];

fn arb_stmt() -> impl Strategy<Value = String> {
    let var = prop::sample::select(VARS2.to_vec());
    let val = 1..4u32;
    prop_oneof![
        (var.clone(), val.clone(), any::<bool>())
            .prop_map(|(x, v, rel)| format!("{x} :={} {v};", if rel { "R" } else { "" })),
        (var.clone(), 0..2u8, any::<bool>())
            .prop_map(|(x, r, acq)| format!("r{r} <-{} {x};", if acq { "A" } else { "" })),
        (var, val).prop_map(|(x, v)| format!("r0 <- {x}.swap({v});")),
    ]
}

fn arb_thread_src() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_stmt(), 1..4).prop_map(|stmts| stmts.join(" "))
}

/// Two- or three-thread programs over two shared variables: the third
/// thread is present in roughly half the cases, so the suite covers both
/// widths (the parallel frontier shape differs markedly between them).
fn arb_prog_src() -> impl Strategy<Value = String> {
    (
        arb_thread_src(),
        arb_thread_src(),
        prop::option::of(arb_thread_src()),
    )
        .prop_map(|(t1, t2, t3)| {
            let mut src = format!("vars x y;\nthread t1 {{ {t1} }}\nthread t2 {{ {t2} }}");
            if let Some(t3) = t3 {
                src.push_str(&format!("\nthread t3 {{ {t3} }}"));
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random two/three-thread programs (reads, writes — release/acquire
    /// mixed — and swaps): the parallel engine equals the sequential one
    /// on finals multisets, truncation flags and all counts, at every
    /// worker count, both under a roomy bound and a truncating one.
    #[test]
    fn prop_parallel_matches_sequential(src in arb_prog_src()) {
        let prog = parse_program(&src).expect("generated programs parse");
        for cfg in [
            ExploreConfig::default().max_events(10).record_traces(false),
            ExploreConfig::default().max_events(5).record_traces(false),
        ] {
            let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
            for workers in WORKER_COUNTS {
                let par = parallel_explore(&RaModel, &prog, &cfg, workers);
                prop_assert_eq!(par.unique, seq.unique, "unique w{} ({})", workers, src.clone());
                prop_assert_eq!(
                    par.truncated, seq.truncated,
                    "truncated w{} ({})", workers, src.clone()
                );
                prop_assert_eq!(
                    multiset(par.final_snapshots()),
                    multiset(seq.final_snapshots()),
                    "finals w{} ({})", workers, src.clone()
                );
            }
        }
    }
}

// ---- session cache-neutrality -------------------------------------------

/// Normalises the parts the cache may legitimately change: wall time and
/// work counters (`stats`), the engine tag, and the cache-hit marker.
fn normalized_json(mut report: CheckReport) -> String {
    let scrub = |meta: &mut Meta| {
        meta.engine = Engine::Sequential;
        meta.cache_hit = false;
    };
    match &mut report {
        CheckReport::Outcomes(r) => {
            r.stats = Stats::default();
            scrub(&mut r.meta);
        }
        CheckReport::Count(r) => {
            r.stats = Stats::default();
            scrub(&mut r.meta);
        }
        CheckReport::Invariant(r) => {
            r.stats = Stats::default();
            scrub(&mut r.meta);
        }
        CheckReport::Litmus(r) => {
            r.ra = Stats::default();
            r.sc = Stats::default();
            scrub(&mut r.meta);
        }
    }
    report.to_json()
}

/// The deterministic stress shape: a fully contended program (every pair
/// of steps conflicts) submitted through a `Session` whose
/// `parallel_threshold` forces the parallel backend. The parallel-
/// computed report must answer a later sequential request from the cache
/// and be byte-identical to a sequentially-computed report modulo
/// `stats`/`backend`.
#[test]
fn session_parallel_reports_are_cache_neutral() {
    let contended = "vars x;
         thread t1 { x := 1; x := 2; }
         thread t2 { x := 3; x := 4; }";
    let session = Session::new(SessionConfig::default().workers(4).parallel_threshold(2));
    let cold = session
        .run(CheckRequest::program(contended).mode(Mode::Outcomes))
        .unwrap();
    assert!(!cold.cache_hit());
    assert_eq!(
        cold.meta().engine,
        Engine::Parallel { workers: 4 },
        "threshold 2 must upgrade the two-thread contended program"
    );
    // A sequential request for the same program is served from the cache
    // (the key is engine-free) and carries the computing engine.
    let warm = session
        .run(
            CheckRequest::program(contended)
                .mode(Mode::Outcomes)
                .engine(Engine::Sequential),
        )
        .unwrap();
    assert!(warm.cache_hit(), "engine must not split the cache key");
    assert_eq!(warm.meta().engine, Engine::Parallel { workers: 4 });
    assert_eq!(session.stats().explorations, 1);
    // The payload the cache handed back is exactly what a sequential
    // session would have computed.
    let seq_session = Session::new(SessionConfig::default());
    let seq = seq_session
        .run(CheckRequest::program(contended).mode(Mode::Outcomes))
        .unwrap();
    assert_eq!(seq.meta().engine, Engine::Sequential);
    assert_eq!(
        normalized_json(warm),
        normalized_json(seq),
        "parallel-computed bytes must answer sequential requests"
    );
}
