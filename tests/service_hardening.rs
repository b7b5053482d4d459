//! Service hardening under hostile load: deadlines and cooperative
//! cancellation interrupt every engine × reduction (sequential, parallel
//! at 1/4 workers, source-set DPOR) with sane partial
//! stats; the session's result cache honours `cache_capacity` as a hard
//! LRU ceiling without breaking warm-hit byte-identity or pending-slot
//! coalescing.

use c11_operational::explore::{explore_source, parallel_explore, Budget, Interrupt};
use c11_operational::litmus::corpus;
use c11_operational::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// `E16-contended-4`: the mo-insertion-heavy two-thread shape of the
/// exploration ablation (4 writes per thread to one variable).
const E16_CONTENDED_4: &str = "vars x; \
     thread t1 { x := 1; x := 2; x := 3; x := 4; } \
     thread t2 { x := 100; x := 101; x := 102; x := 103; }";

/// A much heavier contended shape: big enough that no engine finishes
/// before a millisecond-scale cancel lands.
const E16_CONTENDED_6: &str = "vars x; \
     thread t1 { x := 1; x := 2; x := 3; x := 4; x := 5; x := 6; } \
     thread t2 { x := 100; x := 101; x := 102; x := 103; x := 104; x := 105; }";

fn backends() -> Vec<(Engine, Reduction, &'static str)> {
    vec![
        (Engine::Sequential, Reduction::None, "sequential"),
        (
            Engine::Parallel { workers: 1 },
            Reduction::None,
            "parallel-1",
        ),
        (
            Engine::Parallel { workers: 4 },
            Reduction::None,
            "parallel-4",
        ),
        (Engine::Sequential, Reduction::SourceSet, "source-set"),
    ]
}

/// The PR's acceptance bar: a 5 ms deadline on `E16-contended-4` (which
/// takes tens of milliseconds cold) returns a well-formed `"timed_out"`
/// report — not a hang, not an error — under every engine × reduction,
/// with sane partial stats.
#[test]
fn five_ms_deadline_on_contended_shape_times_out_under_every_backend() {
    for (engine, reduction, name) in backends() {
        let report = CheckRequest::program(E16_CONTENDED_4)
            .mode(Mode::CountOnly)
            .engine(engine)
            .reduction(reduction)
            .timeout(Duration::from_millis(5))
            .run()
            .unwrap_or_else(|e| panic!("{name}: timeout must not be an error: {e}"));
        assert_eq!(report.status_str(), "timed_out", "{name}");
        let stats = report.stats();
        assert!(!stats.truncated, "{name}: interrupts are not truncation");
        assert!(stats.unique >= 1, "{name}: partial stats stay sane");
        assert!(
            stats.generated >= stats.unique.saturating_sub(1),
            "{name}: generated/unique stay consistent"
        );
    }
}

/// Cancellation landing *mid-exploration* drains every engine promptly
/// with `Interrupt::Cancelled` and a sane partial result — on a shape
/// that would otherwise run for seconds.
#[test]
fn mid_flight_cancel_drains_every_engine() {
    let prog = parse_program(E16_CONTENDED_6).expect("shape parses");
    for workers in [1usize, 4] {
        for engine in ["sequential", "parallel", "source"] {
            let token = Budget::unlimited();
            let cfg = ExploreConfig::default()
                .max_events(12)
                .record_traces(false)
                .budget(token.clone());
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(3));
                    token.cancel();
                })
            };
            let result = match engine {
                "sequential" => Explorer::new(RaModel).explore(&prog, cfg),
                "parallel" => parallel_explore(&RaModel, &prog, &cfg, workers),
                _ => explore_source(&RaModel, &prog, &cfg),
            };
            canceller.join().unwrap();
            assert_eq!(
                result.interrupted,
                Some(Interrupt::Cancelled),
                "{engine} (w{workers}) must stop on cancel"
            );
            // `truncated` stays the bound verdict: the BFS engines are
            // still shallow when the 3 ms cancel lands, but the source
            // DFS legitimately touches the event bound within
            // microseconds on this shape.
            if engine != "source" {
                assert!(!result.truncated, "{engine}: cancel is not truncation");
            }
            assert!(result.unique >= 1, "{engine}: partial result stays sane");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corpus-wide: an already-expired deadline yields a `"timed_out"`
    /// report (never a hang, an error, or a silently-complete answer)
    /// for every litmus test under every backend at 1 and 4 workers,
    /// and the interrupt is never conflated with bound truncation.
    #[test]
    fn prop_expired_deadlines_interrupt_across_the_corpus(
        idx in 0usize..12,
        workers in prop::sample::select(vec![1usize, 4]),
    ) {
        let test = corpus().remove(idx);
        for (engine, reduction) in [
            (Engine::Sequential, Reduction::None),
            (Engine::Parallel { workers }, Reduction::None),
            (Engine::Sequential, Reduction::SourceSet),
        ] {
            let report = CheckRequest::litmus(test.clone())
                .engine(engine)
                .reduction(reduction)
                .timeout(Duration::ZERO)
                .run()
                .expect("timeout is a report, not an error");
            prop_assert_eq!(report.status_str(), "timed_out", "{:?}+{:?}", engine, reduction);
            prop_assert!(!report.stats().truncated);
        }
    }
}

/// The LRU stress pin: a session with `cache_capacity: N` under a
/// 4×N-distinct-key workload never holds more than N ready reports,
/// counts its evictions exactly, and still answers warm hits.
#[test]
fn cache_capacity_survives_a_4x_distinct_key_stress() {
    const N: usize = 8;
    let session = Session::new(SessionConfig::default().workers(4).cache_capacity(N));
    let program = |i: usize| format!("vars x y; thread t {{ x := {i}; y := {i}; }}");
    let ids: Vec<JobId> = (0..4 * N)
        .map(|i| session.submit(CheckRequest::program(program(i))).unwrap())
        .collect();
    for id in ids {
        session.wait(id).unwrap();
        assert!(
            session.cache_len() <= N,
            "capacity must hold at every point, got {}",
            session.cache_len()
        );
    }
    assert_eq!(session.stats().explorations, 4 * N);
    assert_eq!(session.stats().evictions, 3 * N, "4N publishes - N kept");
    // The cache still serves: at least the most recent key is warm.
    assert!(session
        .run(CheckRequest::program(program(4 * N - 1)))
        .unwrap()
        .cache_hit());
}

/// Bounding the cache must not corrupt what it serves: a warm hit is
/// byte-identical to its cold report modulo the `cache_hit` marker, and
/// pending-slot coalescing still collapses identical concurrent
/// submissions to one exploration even at capacity 1.
#[test]
fn bounded_cache_keeps_hits_byte_identical_and_coalescing_intact() {
    let session = Session::new(SessionConfig::default().workers(4).cache_capacity(1));
    // Coalescing: 8 identical concurrent jobs, exactly one exploration.
    let ids: Vec<JobId> = (0..8)
        .map(|_| {
            session
                .submit(CheckRequest::program("vars a; thread t { a := 7; }").traces(true))
                .unwrap()
        })
        .collect();
    for id in ids {
        session.wait(id).unwrap();
    }
    assert_eq!(session.stats().explorations, 1);
    // Byte-identity: fresh key evicts the old one, then hits warm.
    let req = || {
        CheckRequest::program(
            "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }",
        )
        .traces(true)
    };
    let cold = session.run(req()).unwrap();
    let warm = session.run(req()).unwrap();
    assert!(!cold.cache_hit() && warm.cache_hit());
    let normalize = |r: &CheckReport| {
        r.json_value()
            .render()
            .replace("\"cache_hit\":true", "\"cache_hit\":false")
    };
    assert_eq!(normalize(&cold), normalize(&warm));
    assert_eq!(session.cache_len(), 1);
}
