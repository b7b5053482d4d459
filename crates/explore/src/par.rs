//! The parallel exhaustive engine: the frontier kernel (`kernel.rs`)
//! scheduled over worker threads.
//!
//! Every state is expanded by the same kernel as in the sequential BFS,
//! so the engine returns the same [`ExploreResult`] — identical
//! `unique`/`generated` counts, finals multiset, violations, truncation
//! flag and store block (bar `bytes_resident`, which measures the filter
//! below) for any worker count, pinned corpus-wide by
//! `tests/par_scaling.rs` and `tests/state_storage.rs`. What is left here
//! is scheduling:
//!
//! - **Work queues are worker-private.** Each worker pushes and pops its
//!   own `VecDeque` with no lock at all. Load balancing goes through a
//!   single chunk injector: when the `hungry` counter says someone is
//!   starving, a busy worker splits off the back half of its queue and
//!   publishes it as one chunk — one lock acquisition amortised over half
//!   a queue.
//! - **Termination** is the `in_flight` count of queued but unexpanded
//!   configurations, updated once per expansion; a stop (tripped
//!   budget, state cap, panic) raises `abort`, which drains every worker.
//! - **Each worker's store** is a private `seen` set in front of the
//!   shared [`CasFilter`] (from `c11-store`), whose insert is a
//!   lock-free CAS claim: exactly one worker wins each fingerprint, and
//!   the inserts minus the wins are the run's `dedup_hits` whatever the
//!   interleaving.
//! - **Panics are contained** at the worker boundary and re-raised once
//!   on the calling thread.
//!
//! Worker 0 runs on the calling thread and the others on scoped threads,
//! so one worker spawns nothing. Walks (trace arenas, finals, counters)
//! are worker-local and travel back through the join handles; nothing
//! merges until the workers are done. Memory states are shared, not copied: `Config::mem`
//! is an `Arc<M::State>`, which is what `M::State: Sync` buys.
//!
//! One deliberate divergence from the sequential engine: deduplication is
//! always on (`ExploreConfig::dedup` is ignored) — termination relies on
//! the visited filter, and the dedup-off ablation (E16) is a sequential
//! measurement.

use crate::engine::{ExploreConfig, ExploreResult};
use crate::kernel::{Item, Kernel, Walk};
use c11_core::config::Config;
use c11_core::model::MemoryModel;
use c11_lang::Prog;
use c11_store::concurrent::CasFilter;
use c11_store::{StoreStats, VisitedStore};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The (deliberately small) shared core: the dedup filter, the chunk
/// injector, and the counters that must be global — `unique` feeds the
/// racy-bounded `max_states` check, `in_flight` drives termination.
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
    /// Set when the run must stop now: a tripped budget, the state cap,
    /// or a panic. `in_flight` never reaches zero after an early exit, so
    /// the flag is what drains starving siblings.
    abort: AtomicBool,
    /// The first panic payload caught at a worker boundary.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A worker's dedup store: its private `seen` set answers repeats of its
/// own, and only a local miss consults the shared filter.
struct WorkerStore<'s> {
    seen: HashSet<u128>,
    filter: &'s CasFilter,
    unique: &'s AtomicUsize,
    dedup_hits: usize,
}

impl VisitedStore for WorkerStore<'_> {
    fn insert(&mut self, key: u128) -> bool {
        let fresh = self.seen.insert(key) && self.filter.insert(key);
        if fresh {
            self.unique.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dedup_hits += 1;
        }
        fresh
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            bytes_resident: self.filter.bytes_resident(),
            dedup_hits: self.dedup_hits,
            ..StoreStats::default()
        }
    }
}

/// A worker's private state: its walk, its store and its queue.
type Seed<'s, M> = (Walk<M>, WorkerStore<'s>, VecDeque<Item<M>>);

/// Publishes the back half of `local` as one injector chunk when someone
/// is starving and the injector can't already feed them.
fn donate_if_hungry<M: MemoryModel>(shared: &Shared<M>, local: &mut VecDeque<Item<M>>) {
    let starving = shared.hungry.load(Ordering::Relaxed);
    if local.len() < 2 || starving <= shared.injector_len.load(Ordering::Relaxed) {
        return;
    }
    let chunk: Vec<Item<M>> = local.split_off(local.len() / 2).into();
    shared.injector_len.fetch_add(1, Ordering::Relaxed);
    shared.injector.lock().push_back(chunk);
}

/// A starving worker: advertises it, then polls the injector until fed
/// (`Some`) or the run is over (`None`).
fn starve<M: MemoryModel>(
    kernel: &Kernel<'_, M>,
    shared: &Shared<M>,
    walk: &mut Walk<M>,
) -> Option<Vec<Item<M>>> {
    shared.hungry.fetch_add(1, Ordering::SeqCst);
    let got = loop {
        if shared.abort.load(Ordering::Relaxed) {
            break None;
        }
        if !kernel.poll(walk, shared.unique.load(Ordering::Relaxed)) {
            shared.abort.store(true, Ordering::Relaxed);
            break None;
        }
        // The lock is skipped while the mirror reads zero.
        if shared.injector_len.load(Ordering::Relaxed) > 0 {
            if let Some(chunk) = shared.injector.lock().pop_front() {
                shared.injector_len.fetch_sub(1, Ordering::Relaxed);
                break Some(chunk);
            }
        }
        if shared.in_flight.load(Ordering::SeqCst) == 0 {
            break None;
        }
        std::thread::yield_now();
    };
    shared.hungry.fetch_sub(1, Ordering::SeqCst);
    got
}

/// One worker's schedule: pop its own queue, starve for a chunk when it
/// runs dry, expand through the kernel.
fn work<M: MemoryModel>(
    kernel: &Kernel<'_, M>,
    shared: &Shared<M>,
    (walk, store, local): &mut Seed<'_, M>,
    inv: &mut impl FnMut(&Config<M>) -> bool,
) {
    loop {
        let Some(item) = local.pop_front() else {
            let Some(chunk) = starve(kernel, shared, walk) else {
                return;
            };
            local.extend(chunk);
            continue;
        };
        if shared.abort.load(Ordering::Relaxed) {
            return;
        }
        donate_if_hungry(shared, local);
        let before = local.len();
        let unique = shared.unique.load(Ordering::Relaxed);
        if !kernel.expand(walk, store, local, item, unique, inv) {
            shared.abort.store(true, Ordering::Relaxed);
            return;
        }
        // The children are still private to this worker, so one update
        // covers them and the item just expanded.
        match local.len() - before {
            0 => shared.in_flight.fetch_sub(1, Ordering::SeqCst),
            1 => 0,
            n => shared.in_flight.fetch_add(n - 1, Ordering::SeqCst),
        };
    }
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
    let kernel = Kernel::new(model, prog, cfg, true);
    let shared: Shared<M> = Shared {
        filter: CasFilter::new(),
        injector: Mutex::new(VecDeque::new()),
        injector_len: AtomicUsize::new(0),
        hungry: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(1),
        unique: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    let mut seeds: Vec<_> = (0..workers.max(1))
        .map(|me| {
            let store = WorkerStore {
                seen: HashSet::new(),
                filter: &shared.filter,
                unique: &shared.unique,
                dedup_hits: 0,
            };
            (kernel.walk(me), store, VecDeque::new())
        })
        .collect();
    let (walk, store, local) = &mut seeds[0];
    let root = kernel.start(prog, walk, store, &mut |c| inv(c));
    local.extend(root.map(|(root, _)| root));
    if local.is_empty() {
        // Nothing to expand: no worker is spawned.
        let (walk, store, _) = seeds.swap_remove(0);
        return kernel.finish([walk], Some(store.stats()));
    }

    // A panicking user invariant must not strand siblings spinning on
    // `in_flight` or poison the scope join: the first payload is parked
    // and re-raised below.
    let run = |mut seed: Seed<'_, M>| {
        let body = AssertUnwindSafe(|| work(&kernel, &shared, &mut seed, &mut |c| inv(c)));
        if let Err(payload) = std::panic::catch_unwind(body) {
            shared.abort.store(true, Ordering::Relaxed);
            shared.panic.lock().get_or_insert(payload);
        }
        (seed.0, seed.1.stats())
    };
    // Worker 0 runs on the calling thread, so one worker spawns nothing.
    let outs: Vec<_> = crossbeam::scope(|scope| {
        let run = &run;
        let spawned: Vec<_> = seeds
            .drain(1..)
            .map(|s| scope.spawn(move |_| run(s)))
            .collect();
        let mut outs: Vec<_> = seeds.into_iter().map(run).collect();
        for handle in spawned {
            outs.push(handle.join().expect("worker panicked"));
        }
        outs
    })
    .expect("worker panicked");

    if let Some(payload) = shared.panic.into_inner() {
        std::panic::resume_unwind(payload);
    }
    let (walks, stats): (Vec<_>, Vec<StoreStats>) = outs.into_iter().unzip();
    let store = StoreStats {
        dedup_hits: stats.iter().map(|s| s.dedup_hits).sum(),
        ..stats[0]
    };
    kernel.finish(walks, Some(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Interrupt;
    use c11_core::model::RaModel;
    use c11_lang::parse_program;

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
}
