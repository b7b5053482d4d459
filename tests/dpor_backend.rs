//! The DPOR backend's acceptance bar: corpus-wide equality with the
//! sequential reference engine — identical state sets, finals multisets,
//! litmus verdicts and truncation at several bounds (truncating ones
//! included) — plus byte-identical `CheckReport`s through the
//! `CheckRequest` front door (modulo `wall_micros`/work counters, which
//! is exactly where DPOR differs: strictly fewer generated states on
//! programs with independent steps), and the `c11check` CLI surface
//! (`--reduction sleep-set`, `--help` guidance, unknown-value
//! rejection).

use c11_operational::explore::{explore_dpor, Stats};
use c11_operational::litmus::{corpus, LitmusTest};
use c11_operational::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn multiset(snaps: Vec<RegSnapshot>) -> HashMap<RegSnapshot, usize> {
    let mut m = HashMap::new();
    for s in snaps {
        *m.entry(s).or_insert(0) += 1;
    }
    m
}

/// Raw-engine equality on one program under one config: every state,
/// every final, the same truncation — and never more generated work.
fn assert_dpor_matches_sequential(prog: &Prog, cfg: &ExploreConfig, what: &str) {
    let seq = Explorer::new(RaModel).explore(prog, cfg.clone());
    let dpor = explore_dpor(&RaModel, prog, cfg);
    assert_eq!(dpor.unique, seq.unique, "{what}: unique");
    assert_eq!(dpor.truncated, seq.truncated, "{what}: truncated");
    assert_eq!(dpor.stuck, seq.stuck, "{what}: stuck");
    assert_eq!(
        multiset(dpor.final_snapshots()),
        multiset(seq.final_snapshots()),
        "{what}: finals multiset"
    );
    assert!(
        dpor.generated <= seq.generated,
        "{what}: DPOR must never generate more ({} vs {})",
        dpor.generated,
        seq.generated
    );
}

/// The corpus at the tests' own bounds, at a tight truncating event
/// bound, and at a depth bound: full equality everywhere.
#[test]
fn dpor_full_results_match_sequential_on_corpus_at_several_bounds() {
    for test in corpus() {
        let prog = parse_program(&test.source).expect("corpus parses");
        let bounds = [
            ExploreConfig::default().max_events(test.max_events),
            // Tight event bound: most corpus shapes truncate here, so
            // this pins the truncation-equality contract.
            ExploreConfig::default().max_events(6),
            ExploreConfig::default().max_depth(7),
        ];
        for (i, cfg) in bounds.iter().enumerate() {
            assert_dpor_matches_sequential(&prog, cfg, &format!("{} (bound set {i})", test.name));
        }
    }
}

/// The example programs shipped in the repo's tests: the paper's core
/// shapes plus swap/update and wider-than-two-thread programs.
#[test]
fn dpor_matches_sequential_on_example_programs() {
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
            ExploreConfig::default().max_events(12),
            ExploreConfig::default().max_events(5),
        ] {
            assert_dpor_matches_sequential(&prog, &cfg, name);
        }
    }
}

/// Normalises the parts an engine/reduction choice may legitimately
/// change: wall time and work counters (`stats`) and the engine ×
/// reduction tags themselves.
fn normalized_json(mut report: CheckReport) -> String {
    let scrub = |meta: &mut Meta| {
        meta.engine = Engine::Sequential;
        meta.reduction = Reduction::None;
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

/// The acceptance criterion, verbatim: `Reduction::SleepSet` produces
/// byte-identical `CheckReport`s (modulo `wall_micros`/`stats` and the
/// reduction tag) to the unreduced sequential engine across the entire
/// litmus corpus, in both litmus-verdict and outcome-enumeration modes.
#[test]
fn check_request_reports_byte_identical_across_backends_on_corpus() {
    for test in corpus() {
        let name = test.name.clone();
        let modes: [fn(LitmusTest) -> CheckRequest; 2] = [
            |t| CheckRequest::litmus(t),
            |t| CheckRequest::litmus(t).mode(Mode::Outcomes),
        ];
        for (i, mk) in modes.iter().enumerate() {
            let run = |reduction: Reduction| {
                mk(test.clone())
                    .reduction(reduction)
                    .run()
                    .expect("corpus programs parse")
            };
            let seq = run(Reduction::None);
            let dpor = run(Reduction::SleepSet);
            assert!(
                dpor.stats().generated <= seq.stats().generated,
                "{name} (mode {i}): more work than sequential"
            );
            assert_eq!(
                normalized_json(seq),
                normalized_json(dpor),
                "{name} (mode {i}): report bytes"
            );
        }
    }
}

/// The `max_states` safety cap is the one bound outside the identical-
/// reports contract (the kept prefix is exploration-order-dependent,
/// for the parallel engine too): both engines must still agree that the
/// search was truncated, and honour the cap.
#[test]
fn max_states_cap_truncates_both_engines() {
    let src = "vars x;
         thread t1 { x := 1; x := 2; x := 3; }
         thread t2 { x := 4; x := 5; x := 6; }";
    let prog = parse_program(src).unwrap();
    let cfg = ExploreConfig::default().max_states(10);
    let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
    let dpor = explore_dpor(&RaModel, &prog, &cfg);
    assert!(seq.truncated && dpor.truncated);
    // Overshoot is bounded by one expansion's successor batch.
    assert!(dpor.unique <= seq.unique + 32);
}

/// Programs wider than the 64-bit sleep mask fall back to the plain BFS
/// (no reduction) instead of overflowing the shift — regression test for
/// the `1 << t` guard.
#[test]
fn programs_past_the_mask_width_fall_back_to_plain_bfs() {
    let threads: String = (0..70)
        .map(|i| format!("thread t{i} {{ x := {}; }}\n", i % 2))
        .collect();
    let prog = parse_program(&format!("vars x;\n{threads}")).unwrap();
    let cfg = ExploreConfig::default()
        .max_states(200)
        .record_traces(false);
    let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
    let dpor = explore_dpor(&RaModel, &prog, &cfg);
    assert!(seq.truncated && dpor.truncated, "70 writers blow the cap");
    assert!(dpor.unique > 0 && dpor.generated > 0);
}

/// Invariant mode: same verdict, same violation count, through the
/// parallel engine and the sleep-set reduction (the property the
/// engine-free cache key rests on).
#[test]
fn invariant_mode_agrees_across_all_backends() {
    let mk_inv = || {
        Invariant::new("never-both-at-2", |v: &ConfigView| {
            !(v.pc(ThreadId(1)) == Some(2) && v.pc(ThreadId(2)) == Some(2))
        })
    };
    let src = "vars x y;
         thread t1 { 1: x := 1; 2: r0 <- y; }
         thread t2 { 1: y := 1; 2: r0 <- x; }";
    let run = |engine: Engine, reduction: Reduction| {
        let report = CheckRequest::program(src)
            .mode(Mode::Invariant(mk_inv()))
            .engine(engine)
            .reduction(reduction)
            .run()
            .unwrap();
        let CheckReport::Invariant(r) = report else {
            panic!("expected an invariant report");
        };
        r
    };
    let seq = run(Engine::Sequential, Reduction::None);
    for (engine, reduction) in [
        (Engine::Parallel { workers: 2 }, Reduction::None),
        (Engine::Sequential, Reduction::SleepSet),
    ] {
        let other = run(engine, reduction);
        assert_eq!(other.holds, seq.holds, "{engine:?}+{reduction:?}");
        assert_eq!(
            other.violations.len(),
            seq.violations.len(),
            "{engine:?}+{reduction:?}: DPOR visits every state, so it sees every violation"
        );
    }
    assert!(!seq.holds, "RA allows both threads between write and read");
}

/// DPOR through the session cache: a sleep-set-computed report answers a
/// sequential request (the engine is not in the key, and sleep-set keeps
/// the exhaustive contract) and vice versa.
#[test]
fn session_cache_is_backend_neutral_for_dpor() {
    let session = Session::new(SessionConfig::default());
    let req = |r: Reduction| {
        CheckRequest::program("vars x y; thread t1 { x := 1; } thread t2 { y := 1; }").reduction(r)
    };
    let cold = session.run(req(Reduction::SleepSet)).unwrap();
    assert!(!cold.cache_hit());
    assert_eq!(cold.meta().reduction, Reduction::SleepSet);
    let warm = session.run(req(Reduction::None)).unwrap();
    assert!(
        warm.cache_hit(),
        "an exhaustive-contract reduction must not split the cache key"
    );
    assert_eq!(
        warm.meta().reduction,
        Reduction::SleepSet,
        "cached reports carry the computing reduction"
    );
    assert_eq!(session.stats().explorations, 1);
    assert_eq!(session.stats().explorations_sleep_set, 1);
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

fn arb_prog_src() -> impl Strategy<Value = String> {
    (arb_thread_src(), arb_thread_src())
        .prop_map(|(t1, t2)| format!("vars x y;\nthread t1 {{ {t1} }}\nthread t2 {{ {t2} }}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random two-thread programs over two shared variables (reads,
    /// writes — release/acquire mixed — and swaps): DPOR equals the
    /// sequential engine on every count that reaches a report, both
    /// unbounded and under a truncating event bound, under RA and SC.
    #[test]
    fn prop_dpor_matches_sequential(src in arb_prog_src()) {
        let prog = parse_program(&src).expect("generated programs parse");
        for cfg in [
            ExploreConfig::default(),
            ExploreConfig::default().max_events(5),
        ] {
            let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
            let dpor = explore_dpor(&RaModel, &prog, &cfg);
            prop_assert_eq!(dpor.unique, seq.unique, "RA unique ({})", src.clone());
            prop_assert_eq!(dpor.truncated, seq.truncated, "RA truncated ({})", src.clone());
            prop_assert_eq!(
                multiset(dpor.final_snapshots()),
                multiset(seq.final_snapshots()),
                "RA finals ({})", src.clone()
            );
            prop_assert!(dpor.generated <= seq.generated, "RA generated ({})", src.clone());
        }
        let cfg = ExploreConfig::default().max_depth(16);
        let seq = Explorer::new(ScModel).explore(&prog, cfg.clone());
        let dpor = explore_dpor(&ScModel, &prog, &cfg);
        prop_assert_eq!(dpor.unique, seq.unique, "SC unique ({})", src.clone());
        prop_assert_eq!(
            multiset(dpor.final_snapshots()),
            multiset(seq.final_snapshots()),
            "SC finals ({})", src.clone()
        );
    }
}

// ---- CLI surface --------------------------------------------------------

mod cli {
    use std::process::Command;

    fn c11check(args: &[&str]) -> (bool, String, String) {
        let out = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--bin", "c11check", "--"])
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("spawn cargo run c11check");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    /// `--help` exits 0 and names every engine and reduction with
    /// guidance.
    #[test]
    fn help_lists_all_backends_with_guidance() {
        let (ok, stdout, _) = c11check(&["--help"]);
        assert!(ok, "--help must exit 0");
        for name in ["sequential", "parallel", "none", "sleep-set", "source-set"] {
            assert!(stdout.contains(name), "--help must mention {name}");
        }
        assert!(
            stdout.contains("fewer generated states"),
            "sleep-set guidance line missing:\n{stdout}"
        );
        assert!(
            stdout.contains("finals-only contract"),
            "source-set contract guidance missing:\n{stdout}"
        );
    }

    /// Unknown values are rejected with the valid set in the error, and
    /// the retired `--backend` spelling is an unknown argument.
    #[test]
    fn unknown_backend_is_rejected_with_the_valid_set() {
        let (ok, _, stderr) = c11check(&["litmus/mp_ra.litmus", "--backend", "dpor"]);
        assert!(!ok, "--backend is gone");
        assert!(
            stderr.contains("unknown argument \"--backend\""),
            "error names the offender:\n{stderr}"
        );
        let (ok, _, stderr) = c11check(&["--engine", "dpor", "litmus/mp_ra.litmus"]);
        assert!(!ok, "dpor is a reduction, not an engine");
        assert!(
            stderr.contains("sequential, parallel"),
            "error lists the valid engines:\n{stderr}"
        );
        let (ok, _, stderr) = c11check(&["--reduction", "dpor", "litmus/mp_ra.litmus"]);
        assert!(!ok, "dpor is not a reduction name");
        assert!(
            stderr.contains("none, sleep-set, source-set"),
            "error lists the valid reductions:\n{stderr}"
        );
    }

    /// The CLI end to end on the sleep-set reduction: litmus dir mode
    /// passes and stamps the reduction into the JSON report.
    #[test]
    fn litmus_dir_mode_runs_on_dpor() {
        let (ok, stdout, stderr) =
            c11check(&["--litmus", "litmus", "--json", "--reduction", "sleep-set"]);
        assert!(ok, "corpus must pass on sleep-set: {stderr}");
        assert!(stdout.contains("\"backend\":{\"kind\":\"sequential\"}"));
        assert!(
            stdout.contains("\"reduction\":{\"kind\":\"sleep-set\",\"contract\":\"exhaustive\"}")
        );
        assert!(stdout.contains("\"failed\":0"));
    }
}
