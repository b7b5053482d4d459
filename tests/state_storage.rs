//! The state-storage subsystem end to end: the symmetry quotient's
//! canonical fingerprint is invariant under class permutations (the
//! soundness property of `--store sym`, checked on random programs),
//! every `--store` backend agrees with the flat reference on verdicts
//! and final snapshots across both engines, both engines report the same
//! store block, and the symmetric shapes shrink under the quotient.

use c11_operational::core::config::Config;
use c11_operational::core::fingerprint::{combine128, hash128_of};
use c11_operational::explore::sym::sym_fingerprint;
use c11_operational::litmus::{corpus, load_litmus_dir, run_test_configured, LitmusTest};
use c11_operational::prelude::*;
use proptest::prelude::*;
use std::path::Path;

/// The plain configuration fingerprint (mirrors the engine's dedup key).
fn plain_fp(model: &RaModel, c: &Config<RaModel>) -> u128 {
    combine128(&[
        hash128_of(&c.coms),
        hash128_of(&c.regs),
        model.state_fingerprint(&c.mem),
    ])
}

/// The plain fingerprint of `c` with its threads relabelled by `map`
/// (`map[old_tid] = new_tid`, 1-based, `map[0] = 0`) — i.e. of the orbit
/// twin `map(c)`, computed without stepping to it.
fn relabelled_fp(model: &RaModel, c: &Config<RaModel>, map: &[u8]) -> u128 {
    let mut coms = c.coms.clone();
    let mut regs = c.regs.clone();
    for old in 0..c.coms.len() {
        let new = (map[old + 1] - 1) as usize;
        coms[new] = c.coms[old].clone();
        regs[new] = c.regs[old].clone();
    }
    combine128(&[
        hash128_of(&coms),
        hash128_of(&regs),
        model.state_fingerprint_relabelled(&c.mem, map),
    ])
}

fn arb_stmt() -> impl Strategy<Value = Com> {
    let var = prop::sample::select(vec![VarId(0), VarId(1)]);
    let val = 1..4u32;
    prop_oneof![
        (var.clone(), val.clone(), any::<bool>()).prop_map(|(var, v, release)| Com::Assign {
            var,
            rhs: Exp::Val(v),
            release,
        }),
        (var.clone(), 0..2u8, any::<bool>()).prop_map(|(var, r, acq)| Com::AssignReg {
            reg: RegId(r),
            rhs: if acq { Exp::VarA(var) } else { Exp::Var(var) },
        }),
        (var, val, prop::option::of(0..2u8)).prop_map(|(var, v, out)| Com::Swap {
            var,
            new: Exp::Val(v),
            out: out.map(RegId),
        }),
    ]
}

/// A program whose first two threads are byte-identical (one guaranteed
/// symmetry class) plus an arbitrary third thread.
fn arb_sym_prog() -> impl Strategy<Value = Prog> {
    let thread = || prop::collection::vec(arb_stmt(), 1..3).prop_map(Com::block);
    (thread(), thread()).prop_map(|(a, b)| {
        Prog::new(
            vec![("x".into(), 0), ("y".into(), 0)],
            vec![a.clone(), a, b],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of the symmetry quotient on random programs: walking the
    /// state space in lock-step with its thread-permuted twin, (1) every
    /// step of one side has a step of the other landing exactly on the
    /// relabelled configuration (the semantics is equivariant), and
    /// (2) the twins' canonical fingerprints are byte-identical — they
    /// dedup to one stored representative.
    #[test]
    fn prop_thread_permutation_keeps_canonical_fingerprint(prog in arb_sym_prog()) {
        let classes = SymClasses::of(&prog);
        prop_assert!(!classes.is_trivial(), "threads 1 and 2 share a body");
        // The class permutation swapping the two identical threads.
        let mut map: Vec<u8> = (0..=prog.threads.len() as u8).collect();
        map.swap(1, 2);
        let initial = Config::initial(&RaModel, &prog);
        // Pairs (c, m) with m = map(c), advanced breadth-first.
        let mut frontier = vec![(initial.clone(), initial)];
        for _depth in 0..3 {
            let mut next = Vec::new();
            for (c, m) in &frontier {
                let twins = m.successors(&RaModel);
                for s in c.successors(&RaModel) {
                    let want_tid = ThreadId(map[s.tid.0 as usize]);
                    let want_fp = relabelled_fp(&RaModel, &s.next, &map);
                    let twin = twins
                        .iter()
                        .find(|t| t.tid == want_tid && plain_fp(&RaModel, &t.next) == want_fp);
                    prop_assert!(
                        twin.is_some(),
                        "no step of the permuted twin lands on the relabelled successor"
                    );
                    let twin = twin.unwrap();
                    prop_assert_eq!(
                        sym_fingerprint(&RaModel, &classes, &s.next),
                        sym_fingerprint(&RaModel, &classes, &twin.next),
                        "orbit twins must share one canonical fingerprint"
                    );
                    next.push((s.next.clone(), twin.next.clone()));
                }
            }
            // Bound the frontier: the property is per-pair, so sampling a
            // prefix loses breadth, not soundness of the check.
            next.truncate(48);
            frontier = next;
        }
    }
}

/// Every litmus test (built-in corpus + the `litmus/` files, which
/// include the symmetric shapes) under every store × every engine.
fn full_corpus() -> Vec<LitmusTest> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let mut tests = corpus();
    tests.extend(load_litmus_dir(&dir).expect("litmus dir loads"));
    tests
}

fn backends() -> Vec<(&'static str, Box<dyn ExploreBackend<RaModel>>)> {
    vec![
        ("seq", Box::new(SequentialBackend)),
        ("par4", Box::new(ParallelBackend::new(4))),
    ]
}

/// Canonical deduplicated final register states: the invariant all
/// stores must agree on. (Under the symmetry quotient the finals list
/// keeps one representative per orbit, so both sides are class-sorted
/// and deduplicated before comparing.)
fn canon_finals(
    res: &c11_operational::explore::ExploreResult<RaModel>,
    classes: &SymClasses,
) -> Vec<RegSnapshot> {
    let mut snaps = res.final_snapshots();
    for s in &mut snaps {
        s.class_sort(classes);
    }
    snaps.sort();
    snaps.dedup();
    snaps
}

#[test]
fn corpus_verdicts_agree_across_stores_and_backends() {
    for test in full_corpus() {
        for kind in StoreKind::ALL {
            let cfg_ra = ExploreConfig::default()
                .max_events(test.max_events)
                .record_traces(false)
                .store(kind);
            let cfg_sc = ExploreConfig::default().record_traces(false).store(kind);
            for (bname, backend) in backends() {
                // The SC side reuses the same backend flavour.
                let sc: Box<dyn ExploreBackend<ScModel>> = match bname {
                    "seq" => Box::new(SequentialBackend),
                    _ => Box::new(ParallelBackend::new(4)),
                };
                let r = run_test_configured(&test, backend.as_ref(), sc.as_ref(), &cfg_ra, &cfg_sc);
                assert!(
                    r.pass,
                    "{} under store={} backend={bname}: observed_ra={} observed_sc={}",
                    test.name,
                    kind.name(),
                    r.observed_ra,
                    r.observed_sc
                );
            }
        }
    }
}

#[test]
fn corpus_final_snapshots_agree_across_stores_and_backends() {
    for test in full_corpus() {
        let prog = parse_program(&test.source).expect("corpus programs parse");
        let classes = SymClasses::of(&prog);
        let base = ExploreConfig::default()
            .max_events(test.max_events)
            .record_traces(false);
        let reference = SequentialBackend.run(&RaModel, &prog, &base);
        let mut flat_multiset: Vec<RegSnapshot> = reference.final_snapshots();
        flat_multiset.sort();
        let canonical = canon_finals(&reference, &classes);
        for kind in StoreKind::ALL {
            let cfg = base.clone().store(kind);
            for (bname, backend) in backends() {
                let res = backend.run(&RaModel, &prog, &cfg);
                assert_eq!(
                    canon_finals(&res, &classes),
                    canonical,
                    "{} store={} backend={bname}: canonical finals diverged",
                    test.name,
                    kind.name()
                );
                if kind != StoreKind::Sym {
                    // Without the quotient the stores are byte-for-byte
                    // drop-ins: the full finals multiset must match.
                    let mut snaps = res.final_snapshots();
                    snaps.sort();
                    assert_eq!(
                        snaps,
                        flat_multiset,
                        "{} store={} backend={bname}: finals multiset diverged",
                        test.name,
                        kind.name()
                    );
                    assert_eq!(res.unique, reference.unique, "{}: unique", test.name);
                }
            }
        }
    }
}

/// The store block is part of the exhaustive contract: the sequential
/// engine and the parallel engine at any worker count report the same
/// `kind`, `symmetry` and `dedup_hits` (inserts minus fresh inserts), and
/// the parallel engine's `bytes_resident` repeats from run to run.
#[test]
fn both_engines_report_the_same_store_block() {
    for test in full_corpus() {
        let prog = parse_program(&test.source).expect("corpus programs parse");
        let base = ExploreConfig::default()
            .max_events(test.max_events)
            .record_traces(false);
        let lanes = [
            ("--symmetry", base.clone().symmetry(true)),
            ("--store sym", base.store(StoreKind::Sym)),
        ];
        for (lane, cfg) in lanes {
            let seq = SequentialBackend.run(&RaModel, &prog, &cfg);
            let want = seq.store_stats.expect("dedup is on");
            let kind = if want.sym { StoreKind::Sym } else { cfg.store };
            assert_eq!(want.kind, kind, "{} {lane}: kind", test.name);
            assert_eq!(want.dedup_hits, seq.generated + 1 - seq.unique);
            for workers in [1, 2, 4] {
                let par = ParallelBackend::new(workers);
                let got = par.run(&RaModel, &prog, &cfg).store_stats.expect("store");
                let what = format!("{} {lane} workers={workers}", test.name);
                assert_eq!(got.kind, want.kind, "{what}: kind");
                assert_eq!(got.sym, want.sym, "{what}: symmetry");
                assert_eq!(got.dedup_hits, want.dedup_hits, "{what}: dedup_hits");
                let again = par.run(&RaModel, &prog, &cfg).store_stats.expect("store");
                assert_eq!(got, again, "{what}: a second run");
            }
        }
    }
}

/// The symmetric litmus shapes actually exercise the quotient: `sym`
/// stores strictly fewer unique states than `flat`, and the stats
/// surface the reduction.
#[test]
fn symmetric_shapes_shrink_under_the_quotient() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let tests = load_litmus_dir(&dir).unwrap();
    let mut checked = 0;
    for name in ["SB-ring-sym-3", "CC-sym-4", "MP-fan-sym"] {
        let test = tests
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{name} missing from litmus/"));
        let prog = parse_program(&test.source).unwrap();
        let base = ExploreConfig::default()
            .max_events(test.max_events)
            .record_traces(false);
        let flat = SequentialBackend.run(&RaModel, &prog, &base);
        let sym = SequentialBackend.run(&RaModel, &prog, &base.clone().store(StoreKind::Sym));
        assert!(
            sym.unique < flat.unique,
            "{name}: quotient must shrink ({} vs {})",
            sym.unique,
            flat.unique
        );
        let stats = sym.store_stats.expect("dedup is on");
        assert!(stats.sym, "{name}: stats must record the quotient");
        checked += 1;
    }
    assert_eq!(checked, 3);
}
