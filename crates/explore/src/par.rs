//! Parallel exploration with contention-free hot paths — a full backend.
//!
//! The engine returns the same [`ExploreResult`] as the sequential BFS:
//! identical `unique`/`generated` counts, finals multiset, violations and
//! truncation flags for any worker count (pinned corpus-wide by
//! `tests/par_scaling.rs`). What changed relative to the first parallel
//! engine is *where state lives*:
//!
//! - **Work queues are worker-private.** Each worker pushes and pops its
//!   own `VecDeque` with no lock at all. Load balancing goes through a
//!   single chunk injector: when the `hungry` counter says someone is
//!   starving, a busy worker splits off the back half of its queue and
//!   publishes it as one chunk — one lock acquisition amortised over half
//!   a queue, instead of a lock per push/pop/steal.
//! - **Trace arenas, finals and counters are worker-local** and travel
//!   back through the scoped-thread join handles; nothing merges until
//!   the workers are done (the epoch boundary is the scope join).
//! - **The visited set is split in two.** A worker-private `HashSet`
//!   answers "did *I* already generate this fingerprint" without any
//!   sharing; only on a local miss does the worker consult the global
//!   [`CasFilter`] (from `c11-store`): a striped open-addressed table
//!   whose inserts are lock-free CAS claims (the per-stripe `RwLock` is
//!   only taken exclusively to grow the table), for the flat and
//!   symmetry store kinds alike. The filter is the linearizable authority:
//!   exactly one worker wins each fingerprint, so the
//!   all-backends-identical-reports contract survives arbitrary
//!   interleavings.
//!
//! Memory states are shared, not copied: `Config::mem` is an
//! `Arc<M::State>`, so τ-successors alias their parent's state and the
//! per-state canonical fingerprint is computed once and cached (see
//! `c11_core::state`). That is what `M::State: Sync` buys.
//!
//! One deliberate divergence from the sequential engine: deduplication is
//! always on (`ExploreConfig::dedup` is ignored) — cross-worker
//! termination detection relies on the visited filter, and the dedup-off
//! ablation (E16) is a sequential measurement.

use crate::budget::Interrupt;
use crate::engine::{config_fingerprint, ExploreConfig, ExploreResult, TraceStep};
use crate::sym::{sym_fingerprint, SymClasses};
use c11_core::config::Config;
use c11_core::model::MemoryModel;
use c11_lang::Prog;
use c11_store::concurrent::CasFilter;
use c11_store::{StoreKind, StoreStats};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// ---- the exploration engine --------------------------------------------

/// A cross-arena parent pointer: `(worker, index into that worker's
/// arena)`. `NodeRef::NONE` marks the root configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeRef {
    worker: u32,
    idx: u32,
}

impl NodeRef {
    const NONE: NodeRef = NodeRef {
        worker: u32::MAX,
        idx: u32::MAX,
    };
}

/// One parent-pointer node in a worker's arena. Only the owning worker
/// pushes; everyone reads after the scope joins.
struct Node {
    parent: NodeRef,
    step: TraceStep,
}

/// A queued unit of work: the configuration, its trace node and its BFS
/// depth.
type Item<M> = (Config<M>, NodeRef, usize);

/// Terminated configurations with their trace nodes.
type Finals<M> = Vec<(Config<M>, NodeRef)>;

/// Everything a worker accumulated privately, returned through its join
/// handle and merged once — the "epoch publication" of the per-worker
/// arenas.
struct WorkerOut<M: MemoryModel> {
    arena: Vec<Node>,
    finals: Finals<M>,
    generated: usize,
    stuck: usize,
}

/// The (deliberately small) shared core: the dedup filter, the chunk
/// injector for load balancing, and the counters that must be global —
/// `unique` feeds the racy-bounded `max_states` check, `in_flight` drives
/// termination detection.
struct Shared<M: MemoryModel> {
    filter: CasFilter,
    /// Donated work, one `Vec` per donation. Locked once per chunk, not
    /// per item.
    injector: Mutex<VecDeque<Vec<Item<M>>>>,
    /// Length mirror of `injector` so donors and takers can poll without
    /// the lock.
    injector_len: AtomicUsize,
    /// Number of workers currently starving; a busy worker donates while
    /// this exceeds the chunks already available.
    hungry: AtomicUsize,
    /// Configurations queued but not yet fully expanded; 0 ⇒ done.
    in_flight: AtomicUsize,
    unique: AtomicUsize,
    truncated: AtomicBool,
    /// Invariant violations (rare; one shared vector is fine).
    violations: Mutex<Finals<M>>,
    /// Set when any worker wants every worker to stop now — a tripped
    /// budget or a panic. Polled in the pop loop *and* the starvation
    /// loop: `in_flight` never reaches zero after an early exit, so the
    /// flag is what drains starving siblings.
    abort: AtomicBool,
    /// Why the run was interrupted: 0 = not, 1 = timed out, 2 = cancelled.
    /// First trip wins (CAS from 0).
    interrupt: AtomicUsize,
    /// The first panic payload caught at a worker boundary; re-raised on
    /// the calling thread after the scope joins, so a panicking user
    /// invariant surfaces as exactly one panic instead of stranding
    /// sibling workers (they observe `abort` and drain).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// The filter's accounting under the run's store labels: a
/// symmetry-keyed run reports the `sym` kind whichever store it named.
fn store_stats(filter: &CasFilter, cfg: &ExploreConfig, sym_on: bool) -> Option<StoreStats> {
    let kind = if sym_on { StoreKind::Sym } else { cfg.store };
    Some(filter.stats(kind, sym_on))
}

/// Records a budget trip and tells every worker to stop.
fn flag_interrupt<M: MemoryModel>(shared: &Shared<M>, why: Interrupt) {
    let code = match why {
        Interrupt::TimedOut => 1,
        Interrupt::Cancelled => 2,
    };
    let _ = shared
        .interrupt
        .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    shared.abort.store(true, Ordering::Relaxed);
}

/// Publishes the back half of `local` as one injector chunk when someone
/// is starving and the injector can't already feed them.
fn donate_if_hungry<M: MemoryModel>(shared: &Shared<M>, local: &mut VecDeque<Item<M>>) {
    if local.len() < 2 {
        return;
    }
    if shared.hungry.load(Ordering::Relaxed) <= shared.injector_len.load(Ordering::Relaxed) {
        return;
    }
    let chunk: Vec<Item<M>> = local.split_off(local.len() / 2).into();
    shared.injector_len.fetch_add(1, Ordering::Relaxed);
    shared.injector.lock().push_back(chunk);
}

/// Takes one donated chunk, if any (lock skipped while the mirror reads
/// zero).
fn take_chunk<M: MemoryModel>(shared: &Shared<M>) -> Option<Vec<Item<M>>> {
    if shared.injector_len.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let chunk = shared.injector.lock().pop_front();
    if chunk.is_some() {
        shared.injector_len.fetch_sub(1, Ordering::Relaxed);
    }
    chunk
}

/// Explores all reachable configurations of `prog` under `model` with
/// `workers` threads, honouring every [`ExploreConfig`] bound
/// (`max_events`, `max_states`, `max_depth`). Returns the same
/// [`ExploreResult`] as the sequential engine; `finals` order is
/// nondeterministic across runs (compare as a multiset, or sort).
pub fn parallel_explore<M>(
    model: &M,
    prog: &Prog,
    cfg: &ExploreConfig,
    workers: usize,
) -> ExploreResult<M>
where
    M: MemoryModel + Sync,
    M::State: Send + Sync,
{
    parallel_explore_invariant(model, prog, cfg, workers, &|_| true)
}

/// [`parallel_explore`] with an invariant checked on every visited
/// configuration. The invariant must be `Sync` (it is called from all
/// workers); violation traces are reconstructed when `cfg.record_traces`
/// is on.
pub fn parallel_explore_invariant<M, F>(
    model: &M,
    prog: &Prog,
    cfg: &ExploreConfig,
    workers: usize,
    inv: &F,
) -> ExploreResult<M>
where
    M: MemoryModel + Sync,
    M::State: Send + Sync,
    F: Fn(&Config<M>) -> bool + Sync + ?Sized,
{
    let workers = workers.max(1);
    // Arenas are only fed when someone will read the parent pointers back.
    let track = cfg.record_traces || cfg.witness_traces;
    let classes = SymClasses::of(prog);
    let sym_on = cfg.sym_effective(model, &classes);
    let initial = Config::initial(model, prog);
    let initial_bad = !inv(&initial);
    if initial.is_terminated() {
        // Nothing to explore; match the sequential result shape exactly.
        return ExploreResult {
            unique: 1,
            generated: 0,
            final_traces: if cfg.witness_traces {
                vec![Vec::new()]
            } else {
                Vec::new()
            },
            violations: if initial_bad {
                vec![(initial.clone(), Vec::new())]
            } else {
                Vec::new()
            },
            finals: vec![initial],
            truncated: false,
            stuck: 0,
            interrupted: None,
            store_stats: store_stats(&CasFilter::new(), cfg, sym_on),
            sym_classes: sym_on.then_some(classes),
        };
    }
    // A deadline already in the past (or a pre-cancelled budget) trips
    // before any thread is spawned — same discipline as the sequential
    // engine's up-front `check_now`.
    let unlimited = cfg.budget.is_unlimited();
    if !unlimited {
        if let Some(why) = cfg.budget.check_now(1) {
            return ExploreResult {
                unique: 1,
                generated: 0,
                finals: Vec::new(),
                final_traces: Vec::new(),
                truncated: false,
                violations: if initial_bad {
                    vec![(initial, Vec::new())]
                } else {
                    Vec::new()
                },
                stuck: 0,
                interrupted: Some(why),
                store_stats: store_stats(&CasFilter::new(), cfg, sym_on),
                sym_classes: sym_on.then_some(classes),
            };
        }
    }

    // The dedup key every worker computes: symmetry-canonical when the
    // quotient is on, the plain configuration fingerprint otherwise.
    let key = |c: &Config<M>| {
        if sym_on {
            sym_fingerprint(model, &classes, c)
        } else {
            config_fingerprint(model, c)
        }
    };

    let shared: Shared<M> = Shared {
        filter: CasFilter::new(),
        injector: Mutex::new(VecDeque::new()),
        injector_len: AtomicUsize::new(0),
        hungry: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(1),
        unique: AtomicUsize::new(1),
        truncated: AtomicBool::new(false),
        violations: Mutex::new(Vec::new()),
        abort: AtomicBool::new(false),
        interrupt: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    shared.filter.insert(key(&initial));
    if initial_bad {
        shared
            .violations
            .lock()
            .push((initial.clone(), NodeRef::NONE));
    }
    let mut seeds: Vec<VecDeque<Item<M>>> = (0..workers).map(|_| VecDeque::new()).collect();
    seeds[0].push_back((initial, NodeRef::NONE, 0));

    let outs: Vec<WorkerOut<M>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = seeds
            .into_iter()
            .enumerate()
            .map(|(me, seed)| {
                let shared = &shared;
                let key = &key;
                scope.spawn(move |_| {
                    // The worker body runs under `catch_unwind`: a
                    // panicking user invariant must not strand siblings
                    // spinning on `in_flight` (the panicked worker would
                    // never decrement it) or poison the scope join. The
                    // first payload is parked in `shared.panic` and
                    // re-raised once on the calling thread.
                    let work = AssertUnwindSafe(|| {
                        let mut local = seed;
                        let mut seen: HashSet<u128> = HashSet::new();
                        let mut arena: Vec<Node> = Vec::new();
                        let mut finals: Finals<M> = Vec::new();
                        let mut generated = 0usize;
                        let mut stuck = 0usize;
                        let mut tick = 0u64;
                        'work: loop {
                            let (config, node, depth) = match local.pop_front() {
                                Some(item) => item,
                                None => {
                                    // Starving: advertise it, then poll the
                                    // injector until fed or everything drains.
                                    shared.hungry.fetch_add(1, Ordering::SeqCst);
                                    let got = loop {
                                        if shared.abort.load(Ordering::Relaxed) {
                                            break None;
                                        }
                                        if !unlimited {
                                            tick += 1;
                                            if let Some(why) = cfg
                                                .budget
                                                .check(tick, shared.unique.load(Ordering::Relaxed))
                                            {
                                                flag_interrupt(shared, why);
                                                break None;
                                            }
                                        }
                                        if let Some(chunk) = take_chunk(shared) {
                                            break Some(chunk);
                                        }
                                        if shared.in_flight.load(Ordering::SeqCst) == 0 {
                                            break None;
                                        }
                                        std::thread::yield_now();
                                    };
                                    shared.hungry.fetch_sub(1, Ordering::SeqCst);
                                    match got {
                                        Some(chunk) => {
                                            local.extend(chunk);
                                            continue 'work;
                                        }
                                        None => break 'work,
                                    }
                                }
                            };
                            if shared.abort.load(Ordering::Relaxed) {
                                break 'work;
                            }
                            if !unlimited {
                                tick += 1;
                                if let Some(why) = cfg
                                    .budget
                                    .check(tick, shared.unique.load(Ordering::Relaxed))
                                {
                                    flag_interrupt(shared, why);
                                    break 'work;
                                }
                            }
                            donate_if_hungry(shared, &mut local);
                            if shared.unique.load(Ordering::Relaxed) >= cfg.max_states {
                                // State cap reached: stop expanding (mirrors
                                // the sequential engine's pop-time check).
                                shared.truncated.store(true, Ordering::Relaxed);
                            } else if depth >= cfg.max_depth
                                || model.state_size(&config.mem) >= cfg.max_events
                            {
                                shared.truncated.store(true, Ordering::Relaxed);
                            } else {
                                let successors = config.successors(model);
                                if successors.is_empty() && !config.is_terminated() {
                                    stuck += 1;
                                }
                                for step in successors {
                                    generated += 1;
                                    let next = step.next;
                                    let k = key(&next);
                                    // Private cache first — repeats this
                                    // worker generated never touch the filter.
                                    if !seen.insert(k) {
                                        continue;
                                    }
                                    if !shared.filter.insert(k) {
                                        continue;
                                    }
                                    shared.unique.fetch_add(1, Ordering::Relaxed);
                                    let child = if track {
                                        arena.push(Node {
                                            parent: node,
                                            step: TraceStep {
                                                tid: step.tid,
                                                label: step.label,
                                            },
                                        });
                                        NodeRef {
                                            worker: me as u32,
                                            idx: (arena.len() - 1) as u32,
                                        }
                                    } else {
                                        NodeRef::NONE
                                    };
                                    if !inv(&next) {
                                        shared.violations.lock().push((next.clone(), child));
                                    }
                                    if next.is_terminated() {
                                        // Terminated configurations have no
                                        // successors — collect them, skip the
                                        // queue (mirrors the sequential
                                        // engine).
                                        finals.push((next, child));
                                    } else {
                                        shared.in_flight.fetch_add(1, Ordering::SeqCst);
                                        local.push_back((next, child, depth + 1));
                                    }
                                }
                            }
                            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        WorkerOut {
                            arena,
                            finals,
                            generated,
                            stuck,
                        }
                    });
                    match std::panic::catch_unwind(work) {
                        Ok(out) => out,
                        Err(payload) => {
                            shared.abort.store(true, Ordering::Relaxed);
                            let mut slot = shared.panic.lock();
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            WorkerOut {
                                arena: Vec::new(),
                                finals: Vec::new(),
                                generated: 0,
                                stuck: 0,
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("worker panicked");

    // Re-raise the first caught worker panic as one panic on this thread
    // (the session layer's `catch_unwind` turns it into one job error).
    if let Some(payload) = shared.panic.into_inner() {
        std::panic::resume_unwind(payload);
    }

    // Workers are joined: merge the published arenas and resolve parent
    // chains.
    let mut arenas: Vec<Vec<Node>> = Vec::with_capacity(workers);
    let mut worker_finals: Vec<Finals<M>> = Vec::with_capacity(workers);
    let mut generated = 0usize;
    let mut stuck = 0usize;
    for out in outs {
        arenas.push(out.arena);
        worker_finals.push(out.finals);
        generated += out.generated;
        stuck += out.stuck;
    }
    let trace_of = |mut r: NodeRef| {
        let mut steps = Vec::new();
        while r != NodeRef::NONE {
            let node = &arenas[r.worker as usize][r.idx as usize];
            steps.push(node.step.clone());
            r = node.parent;
        }
        steps.reverse();
        steps
    };

    let mut finals = Vec::new();
    let mut final_traces = Vec::new();
    for per_worker in worker_finals {
        for (cfg_final, node) in per_worker {
            if cfg.witness_traces {
                final_traces.push(trace_of(node));
            }
            finals.push(cfg_final);
        }
    }
    let violations = shared
        .violations
        .into_inner()
        .into_iter()
        .map(|(c, node)| {
            let trace = if cfg.record_traces {
                trace_of(node)
            } else {
                Vec::new()
            };
            (c, trace)
        })
        .collect();

    ExploreResult {
        unique: shared.unique.load(Ordering::Relaxed),
        generated,
        finals,
        final_traces,
        truncated: shared.truncated.load(Ordering::Relaxed),
        violations,
        stuck,
        interrupted: match shared.interrupt.load(Ordering::Relaxed) {
            1 => Some(Interrupt::TimedOut),
            2 => Some(Interrupt::Cancelled),
            _ => None,
        },
        store_stats: store_stats(&shared.filter, cfg, sym_on),
        sym_classes: sym_on.then_some(classes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExploreConfig, Explorer};
    use c11_core::model::RaModel;
    use c11_lang::parse_program;

    #[test]
    fn parallel_matches_sequential_counts() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let seq = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        for workers in [1, 2, 4, 8] {
            let par = parallel_explore(&RaModel, &prog, &ExploreConfig::default(), workers);
            assert_eq!(par.unique, seq.unique, "workers={workers}");
            assert_eq!(par.generated, seq.generated, "workers={workers}");
            assert_eq!(par.truncated, seq.truncated);
        }
    }

    #[test]
    fn parallel_collects_final_configurations() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let seq = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        for workers in [1, 2, 4] {
            let par = parallel_explore(&RaModel, &prog, &ExploreConfig::default(), workers);
            assert_eq!(par.finals.len(), seq.finals.len(), "workers={workers}");
            let mut seq_snaps = seq.final_snapshots();
            let mut par_snaps = par.final_snapshots();
            seq_snaps.sort();
            par_snaps.sort();
            assert_eq!(seq_snaps, par_snaps, "workers={workers}");
        }
    }

    #[test]
    fn parallel_witness_traces_cover_finals() {
        let src = "vars x y;
             thread t1 { x := 1; }
             thread t2 { y := 1; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default().witness_traces(true);
        let res = parallel_explore(&RaModel, &prog, &cfg, 2);
        assert_eq!(res.final_traces.len(), res.finals.len());
        for t in &res.final_traces {
            assert!(!t.is_empty(), "every final needs a witness schedule");
        }
    }

    #[test]
    fn parallel_invariant_violation_comes_with_trace() {
        let prog = parse_program("vars x; thread t { x := 1; x := 2; }").unwrap();
        let cfg = ExploreConfig::default();
        let res = parallel_explore_invariant(&RaModel, &prog, &cfg, 2, &|c: &Config<RaModel>| {
            c.mem.len() < 3
        });
        assert!(!res.holds());
        let (_, trace) = &res.violations[0];
        // Same shape as the sequential engine's counterexample.
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn parallel_respects_max_states() {
        let src = "vars x y;
             thread t1 { x := 1; x := 2; x := 3; }
             thread t2 { y := 1; y := 2; y := 3; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default().max_states(10);
        let res = parallel_explore(&RaModel, &prog, &cfg, 2);
        assert!(res.truncated, "state cap must truncate");
        // Racy overshoot is bounded by one batch of successors per worker.
        assert!(res.unique < 100);
    }

    #[test]
    fn parallel_reports_truncation() {
        let prog = parse_program("vars x; thread t { while (x == 0) { skip; } }").unwrap();
        let cfg = ExploreConfig::default().max_events(6).record_traces(false);
        let res = parallel_explore(&RaModel, &prog, &cfg, 2);
        assert!(res.truncated);
    }

    #[test]
    fn terminated_initial_configuration_short_circuits() {
        let prog = parse_program("vars x; thread t { skip; }").unwrap();
        let seq = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        // "skip" is one τ step, so force a truly terminated initial.
        let res = parallel_explore(&RaModel, &prog, &ExploreConfig::default(), 4);
        assert_eq!(res.unique, seq.unique);
        assert_eq!(res.finals.len(), seq.finals.len());
    }

    /// Satellite regression: a panicking user invariant inside a worker
    /// must surface as exactly one panic on the calling thread — never a
    /// hang with siblings spinning on `in_flight`, never a double panic
    /// at the scope join. (Runs under the dev profile, which unwinds.)
    #[test]
    fn worker_panic_is_contained_and_reraised_once() {
        let src = "vars x;
             thread t1 { x := 1; x := 2; }
             thread t2 { x := 3; x := 4; }";
        let prog = parse_program(src).unwrap();
        let cfg = ExploreConfig::default();
        for workers in [1usize, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                parallel_explore_invariant(&RaModel, &prog, &cfg, workers, &|c: &Config<
                    RaModel,
                >| {
                    if c.mem.len() >= 3 {
                        panic!("invariant exploded");
                    }
                    true
                })
            });
            let payload = match caught {
                Err(payload) => payload,
                Ok(_) => panic!("the user panic must propagate (workers={workers})"),
            };
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("(non-str payload)");
            assert_eq!(msg, "invariant exploded", "workers={workers}");
        }
    }

    /// A pre-cancelled budget interrupts before any worker spawns; a
    /// passed deadline interrupts promptly mid-run. Neither sets the
    /// bound-truncation flag.
    #[test]
    fn budget_interrupts_parallel_exploration() {
        use crate::budget::Budget;
        let src = "vars x y;
             thread t1 { x := 1; x := 2; x := 3; }
             thread t2 { y := 1; y := 2; y := 3; }";
        let prog = parse_program(src).unwrap();
        let budget = Budget::default();
        budget.cancel();
        let cfg = ExploreConfig::default().budget(budget);
        let res = parallel_explore(&RaModel, &prog, &cfg, 4);
        assert_eq!(res.interrupted, Some(Interrupt::Cancelled));
        assert!(!res.truncated);

        let past = Budget::with_deadline(std::time::Instant::now());
        let cfg = ExploreConfig::default().budget(past);
        let res = parallel_explore(&RaModel, &prog, &cfg, 4);
        assert_eq!(res.interrupted, Some(Interrupt::TimedOut));
        assert!(!res.truncated);
        assert!(res.unique >= 1, "partial stats stay sane");
    }

    // The CAS-filter unit tests moved to `c11_store::concurrent` with
    // the filter itself (exact-once insertion, reserved low words,
    // concurrent-insert safety, shard stability).
}
