//! Corpus-wide equivalence of the parallel backend's *full results* with
//! the sequential engine — not just the unique-state count (which
//! `tests/fingerprint_dedup.rs` already pins): for every litmus test and
//! 1/2/4 workers, the multiset of final register snapshots and the
//! truncation flag must match, both through the raw engines and through
//! the `CheckRequest` front door (the acceptance bar for promoting the
//! parallel explorer to a full backend) — plus byte-identical
//! `CheckReport`s across every engine × reduction selection (modulo
//! `wall_micros`/work counters), the `max_states` cap, and the
//! `c11check` CLI's selection surface (`--help` guidance, unknown-value
//! rejection, litmus-directory mode).

use c11_operational::explore::{parallel_explore, ExploreBackend, ParallelBackend, Stats};
use c11_operational::litmus::{corpus, LitmusTest};
use c11_operational::prelude::*;
use std::collections::HashMap;

fn multiset(snaps: Vec<RegSnapshot>) -> HashMap<RegSnapshot, usize> {
    let mut m = HashMap::new();
    for s in snaps {
        *m.entry(s).or_insert(0) += 1;
    }
    m
}

#[test]
fn parallel_full_results_match_sequential_on_corpus() {
    for test in corpus() {
        let prog = parse_program(&test.source).expect("corpus parses");
        let cfg = ExploreConfig::default().max_events(test.max_events);
        let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
        let seq_snaps = multiset(seq.final_snapshots());
        for workers in [1usize, 2, 4] {
            let par = parallel_explore(&RaModel, &prog, &cfg, workers);
            assert_eq!(
                par.truncated, seq.truncated,
                "{}: truncation at {workers} workers",
                test.name
            );
            assert_eq!(par.unique, seq.unique, "{}: unique", test.name);
            assert_eq!(
                multiset(par.final_snapshots()),
                seq_snaps,
                "{}: final snapshot multiset at {workers} workers",
                test.name
            );
        }
    }
}

#[test]
fn parallel_backend_trait_matches_for_sc_too() {
    // The backend trait must agree for store-based models as well (their
    // states do not grow, so dedup carries the termination argument).
    for test in corpus().iter().take(6) {
        let prog = parse_program(&test.source).expect("corpus parses");
        let cfg = ExploreConfig::default();
        let seq = SequentialBackend.run(&ScModel, &prog, &cfg);
        let par = ParallelBackend::new(4).run(&ScModel, &prog, &cfg);
        assert_eq!(par.unique, seq.unique, "{}", test.name);
        assert_eq!(
            multiset(par.final_snapshots()),
            multiset(seq.final_snapshots()),
            "{}",
            test.name
        );
    }
}

/// The acceptance criterion: `CheckRequest { engine: Parallel {
/// workers: 4 }, mode: Outcomes }` over the litmus corpus yields final
/// register snapshots identical (as multisets) to the sequential
/// engine.
#[test]
fn check_request_outcomes_identical_across_backends_on_corpus() {
    for test in corpus() {
        let name = test.name.clone();
        let run = |engine: Engine| {
            let report = CheckRequest::litmus(test.clone())
                .mode(Mode::Outcomes)
                .engine(engine)
                .run()
                .expect("corpus programs parse");
            let CheckReport::Outcomes(o) = report else {
                panic!("{name}: expected an outcomes report");
            };
            o
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Parallel { workers: 4 });
        // Outcome rows are deterministically sorted multiset rows, so
        // equality is exact (counts included).
        assert_eq!(seq.outcomes, par.outcomes, "{name}: outcome rows");
        assert_eq!(
            seq.stats.truncated, par.stats.truncated,
            "{name}: truncation"
        );
        assert_eq!(seq.stats.finals, par.stats.finals, "{name}: finals");
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

/// The parallel engine and the source-set reduction produce
/// byte-identical `CheckReport`s (modulo `wall_micros`/`stats` and the
/// engine × reduction tags) to the sequential engine across the entire
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
            let run = |engine: Engine, reduction: Reduction| {
                mk(test.clone())
                    .engine(engine)
                    .reduction(reduction)
                    .run()
                    .expect("corpus programs parse")
            };
            let seq = normalized_json(run(Engine::Sequential, Reduction::None));
            for (engine, reduction) in [
                (Engine::Parallel { workers: 4 }, Reduction::None),
                (Engine::Sequential, Reduction::SourceSet),
            ] {
                assert_eq!(
                    normalized_json(run(engine, reduction)),
                    seq,
                    "{name} (mode {i}) {engine:?}+{reduction:?}: report bytes"
                );
            }
        }
    }
}

/// The `max_states` safety cap is the one bound outside the identical-
/// reports contract (the kept prefix is exploration-order-dependent —
/// worker scheduling decides the parallel engine's): both engines must
/// still agree that the search was truncated, and honour the cap.
#[test]
fn max_states_cap_truncates_both_engines() {
    let src = "vars x;
         thread t1 { x := 1; x := 2; x := 3; }
         thread t2 { x := 4; x := 5; x := 6; }";
    let prog = parse_program(src).unwrap();
    let cfg = ExploreConfig::default().max_states(10);
    let seq = Explorer::new(RaModel).explore(&prog, cfg.clone());
    let par = parallel_explore(&RaModel, &prog, &cfg, 2);
    assert!(seq.truncated && par.truncated);
    // Overshoot is bounded by one expansion's successor batch per worker.
    assert!(par.unique <= seq.unique + 2 * 32);
}

// ---- CLI surface --------------------------------------------------------

mod cli {
    use std::process::Command;

    fn c11check(args: &[&str]) -> (Option<i32>, String, String) {
        let out = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--bin", "c11check", "--"])
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("spawn cargo run c11check");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    /// `--help` exits 0 and names every engine, reduction and store
    /// with guidance.
    #[test]
    fn help_lists_all_backends_with_guidance() {
        let (code, stdout, _) = c11check(&["--help"]);
        assert_eq!(code, Some(0), "--help must exit 0");
        for name in [
            "sequential",
            "parallel",
            "none",
            "source-set",
            "flat",
            "sym",
        ] {
            assert!(stdout.contains(name), "--help must mention {name}");
        }
        assert!(
            stdout.contains("finals-only contract"),
            "source-set contract guidance missing:\n{stdout}"
        );
        for gone in ["sleep-set", "shared"] {
            assert!(!stdout.contains(gone), "--help still offers {gone}");
        }
    }

    /// Unknown values — removed selections included — exit 2 with the
    /// valid set in the error, and the retired `--backend` spelling is
    /// an unknown argument.
    #[test]
    fn unknown_backend_is_rejected_with_the_valid_set() {
        let (code, _, stderr) = c11check(&["litmus/mp_ra.litmus", "--backend", "dpor"]);
        assert_eq!(code, Some(2), "--backend is gone");
        assert!(
            stderr.contains("unknown argument \"--backend\""),
            "error names the offender:\n{stderr}"
        );
        let (code, _, stderr) = c11check(&["--engine", "dpor", "litmus/mp_ra.litmus"]);
        assert_eq!(code, Some(2), "dpor is a reduction, not an engine");
        assert!(
            stderr.contains("sequential, parallel"),
            "error lists the valid engines:\n{stderr}"
        );
        for name in ["dpor", "sleep-set"] {
            let (code, _, stderr) = c11check(&["--reduction", name, "litmus/mp_ra.litmus"]);
            assert_eq!(code, Some(2), "{name} is not a reduction name");
            assert!(
                stderr.contains("valid reductions are none, source-set"),
                "error lists the valid reductions:\n{stderr}"
            );
        }
        let (code, _, stderr) = c11check(&["--store", "shared", "litmus/mp_ra.litmus"]);
        assert_eq!(code, Some(2), "shared is not a store name");
        assert!(
            stderr.contains("valid stores are flat, sym"),
            "error lists the valid stores:\n{stderr}"
        );
    }

    /// The CLI end to end on the source-set reduction: litmus dir mode
    /// passes and stamps the reduction into the JSON report.
    #[test]
    fn litmus_dir_mode_runs_on_dpor() {
        let (code, stdout, stderr) =
            c11check(&["--litmus", "litmus", "--json", "--reduction", "source-set"]);
        assert_eq!(code, Some(0), "corpus must pass on source-set: {stderr}");
        assert!(stdout.contains("\"backend\":{\"kind\":\"sequential\"}"));
        assert!(
            stdout.contains("\"reduction\":{\"kind\":\"source-set\",\"contract\":\"finals-only\"}")
        );
        assert!(stdout.contains("\"failed\":0"));
    }
}
