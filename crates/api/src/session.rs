//! A reusable checking service: one [`Session`] owns a worker pool and a
//! fingerprint-keyed result cache, and every request surface in the
//! workspace (the one-shot [`CheckRequest::run`], the `c11check` CLI's
//! litmus batch mode, the `c11serve` JSONL front-end) runs through it.
//!
//! ## Scheduling
//!
//! [`Session::submit`] resolves the request on the caller's thread,
//! claims its cache slot, enqueues the job and returns a [`JobId`];
//! [`Session::wait`] blocks until that job's report is ready. Jobs are
//! executed by a fixed pool of worker threads (spawned lazily on the
//! first `submit`, so sessions used only for inline [`Session::run`]
//! calls cost nothing). A *small* job — one whose request names the
//! default sequential engine — runs whole on the one pool worker that
//! picked it up; a *large* job — one carrying `Engine::Parallel` —
//! fans out over the parallel engine's own scoped workers
//! from the pool thread hosting it. [`SessionConfig::parallel_threshold`]
//! optionally upgrades wide sequential reduction-free jobs to the
//! parallel engine.
//!
//! ## Caching
//!
//! Results are cached under `(input fingerprint, model, bounds, mode,
//! traces, dot, reduction)` — see [`Resolved::fingerprint`] for the input
//! identity, which reuses the fixed-seed FNV/splitmix machinery behind
//! `MemoryModel::state_fingerprint`. The engine is deliberately *not*
//! part of the key: every engine produces the same report for the same
//! request (a property the test suite pins corpus-wide), so a result
//! computed by one engine can answer a request naming another. What *is*
//! part of the key is the reduction's answer **contract**: a finals-only
//! report (source-set reduction) carries intentionally smaller
//! `unique`/`generated` counts and must never be served to an exhaustive
//! request, nor vice versa. Cache
//! hits return the originally-computed report with
//! [`Meta::cache_hit`](crate::Meta::cache_hit) flipped on. Concurrent
//! identical submissions coalesce: the first computes, the rest wait on
//! the pending slot — a warm or contended session performs at most one
//! exploration per distinct key. Submitted jobs claim their slot at
//! submission, in submission order, so of two identical jobs the one
//! submitted first is always the one that computes.

use crate::batch::{BatchReport, BatchRequest};
use crate::{CheckError, CheckReport, CheckRequest, Mode, Resolved};
use c11_explore::{Budget, Engine, Interrupt, Reduction};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a [`Session`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Worker threads servicing [`Session::submit`]ted jobs (clamped to
    /// ≥ 1; spawned lazily on first use).
    pub workers: usize,
    /// Cache reports keyed on input fingerprints (on by default).
    pub cache: bool,
    /// When non-zero: a job requesting the (default) sequential backend
    /// whose program has at least this many threads is upgraded to the
    /// parallel engine with [`SessionConfig::workers`] threads — "small
    /// jobs run whole on one worker, large jobs get the parallel
    /// backend". `0` (the default) disables the upgrade, preserving
    /// exact backend selection; explicitly-parallel requests are never
    /// downgraded either way.
    pub parallel_threshold: usize,
    /// Default wall-clock budget per job, measured from when compute
    /// starts (queue wait excluded). A request's own
    /// [`CheckRequest::timeout`] combines with this by minimum. `None`
    /// (the default) lets jobs run to their bounds.
    pub job_timeout: Option<Duration>,
    /// Hard ceiling on *ready* cached reports. When a fresh report would
    /// push the count past it, the least-recently-used ready entries are
    /// evicted (counted in [`SessionStats::evictions`]); pending slots
    /// are never evicted. `None` (the default) is unbounded.
    pub cache_capacity: Option<usize>,
    /// Backpressure: [`Session::submit`] on a queue already holding this
    /// many jobs returns [`CheckError::Overloaded`] instead of queueing
    /// unboundedly. `None` (the default) is unbounded. Inline
    /// [`Session::run`] calls bypass the queue and are never rejected.
    pub max_queue_depth: Option<usize>,
    /// Disk snapshot of the result cache (JSONL, see `persist`): loaded
    /// when the session is created and rewritten by
    /// [`Session::flush_cache`] (called automatically on drop). `None`
    /// (the default) keeps the cache purely in memory. Ignored when
    /// [`SessionConfig::cache`] is off.
    pub cache_path: Option<std::path::PathBuf>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: 2,
            cache: true,
            parallel_threshold: 0,
            job_timeout: None,
            cache_capacity: None,
            max_queue_depth: None,
            cache_path: None,
        }
    }
}

impl SessionConfig {
    /// Sets the pool size (chainable).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Switches the result cache (chainable).
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Sets the thread-count threshold above which sequential jobs are
    /// upgraded to the parallel engine (chainable; `0` disables).
    pub fn parallel_threshold(mut self, threads: usize) -> Self {
        self.parallel_threshold = threads;
        self
    }

    /// Sets the default per-job deadline (chainable).
    pub fn job_timeout(mut self, d: Duration) -> Self {
        self.job_timeout = Some(d);
        self
    }

    /// Bounds the result cache to `n` ready reports, LRU-evicted
    /// (chainable).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = Some(n);
        self
    }

    /// Bounds the submission queue to `n` waiting jobs (chainable).
    pub fn max_queue_depth(mut self, n: usize) -> Self {
        self.max_queue_depth = Some(n);
        self
    }

    /// Persists the result cache to a JSONL snapshot at `path`
    /// (chainable): loaded on session creation, rewritten on drop.
    pub fn cache_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }
}

/// A handle to a job submitted to a [`Session`]; redeem it exactly once
/// with [`Session::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

/// Counters describing what a [`Session`] has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests accepted (`submit`, `run` and `run_batch` items alike).
    pub submitted: usize,
    /// Requests finished (reports produced or errors surfaced).
    pub completed: usize,
    /// Reports served from the result cache.
    pub cache_hits: usize,
    /// Actual engine runs (cache misses that computed a fresh report).
    /// On a warm cache this stays at one per distinct cache key no
    /// matter how many requests were served.
    pub explorations: usize,
    /// Engine runs that used no reduction (part of `explorations`).
    pub explorations_none: usize,
    /// Engine runs under the source-set reduction (part of `explorations`).
    pub explorations_source_set: usize,
    /// Requests rejected before execution (parse/mode errors).
    pub errors: usize,
    /// Ready cache entries evicted to hold [`SessionConfig::cache_capacity`].
    pub evictions: usize,
    /// Submissions rejected with [`CheckError::Overloaded`] because the
    /// queue was at [`SessionConfig::max_queue_depth`].
    pub overloaded: usize,
    /// Cache entries restored from the [`SessionConfig::cache_path`]
    /// snapshot when the session was created.
    pub persist_loaded: usize,
    /// Snapshot lines skipped on load as corrupt, stale-versioned or
    /// otherwise untrustworthy (the load survives; the lines do not).
    pub persist_skipped: usize,
    /// Snapshot loads or rewrites skipped because another process held
    /// the snapshot's exclusive lock (concurrent replicas sharing one
    /// `cache_path` degrade to cold starts instead of interleaving with
    /// a half-finished rewrite).
    pub persist_locked: usize,
}

/// The result-cache key. The engine is deliberately absent — see the
/// module docs for why — while the reduction is present for its answer
/// contract, and [`Mode`] contributes its discriminant plus whatever
/// identity the variant carries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The report-schema version the cached report was rendered under
    /// (`persist::SCHEMA_VERSION`). Constant within one binary, but an
    /// explicit key component so persisted entries are versioned and a
    /// snapshot from a different schema can never alias a current key.
    pub(crate) schema: &'static str,
    pub(crate) fingerprint: u128,
    pub(crate) model: crate::ModelChoice,
    pub(crate) bounds: crate::Bounds,
    pub(crate) mode: ModeKey,
    pub(crate) traces: Option<bool>,
    pub(crate) dot: usize,
    /// The reduction that answers, which fixes the report's contract:
    /// finals-only answers never serve exhaustive requests (and vice
    /// versa).
    pub(crate) reduction: Reduction,
    /// Effective deadline in milliseconds. Part of the key so a report
    /// computed under a tight deadline can never answer a patient
    /// request (and vice versa); `None` for unbudgeted jobs.
    pub(crate) timeout_ms: Option<u128>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ModeKey {
    Outcomes,
    CountOnly,
    /// Predicate identity: clones of one `Invariant` hit; same-named but
    /// distinct predicates miss instead of aliasing.
    Invariant(PredId),
    LitmusVerdict,
}

/// Predicate identity by `Arc` pointer. Holding the `Arc` itself (not
/// just its address) keeps the allocation alive for the cache's
/// lifetime, so a recycled heap address can never alias a dropped
/// predicate's cached report.
#[derive(Clone)]
pub(crate) struct PredId(crate::PredFn);

impl std::fmt::Debug for PredId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PredId({:p})", Arc::as_ptr(&self.0))
    }
}

impl PartialEq for PredId {
    fn eq(&self, other: &PredId) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for PredId {}

impl std::hash::Hash for PredId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(Arc::as_ptr(&self.0) as *const () as usize);
    }
}

impl CacheKey {
    pub(crate) fn of(r: &Resolved) -> CacheKey {
        let mode = match &r.mode {
            Mode::Outcomes => ModeKey::Outcomes,
            Mode::CountOnly => ModeKey::CountOnly,
            Mode::Invariant(inv) => ModeKey::Invariant(PredId(inv.shared_pred())),
            Mode::LitmusVerdict => ModeKey::LitmusVerdict,
        };
        // Litmus verdicts ignore the model (they always contrast RA vs
        // SC), traces and dot — normalise those out of the key so
        // harmless request-tagging differences still hit.
        let litmus = matches!(mode, ModeKey::LitmusVerdict);
        CacheKey {
            schema: crate::persist::SCHEMA_VERSION,
            fingerprint: r.fingerprint(),
            model: if litmus {
                crate::ModelChoice::default()
            } else {
                r.model
            },
            bounds: r.bounds,
            mode,
            traces: if litmus { None } else { r.traces },
            dot: if litmus { 0 } else { r.dot },
            reduction: r.reduction,
            timeout_ms: r.timeout.map(|d| d.as_millis()),
        }
    }
}

/// One cache slot: `Pending` while the first submitter computes, then
/// `Ready` — or `Poisoned` if the compute panicked (waiters retry and
/// the key is evicted). Waiters block on the slot's condvar, never on
/// the whole map.
type CacheSlot = Arc<CacheEntry>;

struct CacheEntry {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Set under the map lock once a complete (uninterrupted) report is
    /// published and stamped, so the LRU sweep (run under the map lock)
    /// never locks a slot — pending slots are skipped by this flag,
    /// keeping the lock order strictly slot-then-map and pending slots
    /// un-evictable.
    ready: AtomicBool,
    /// LRU clock stamp: bumped from the map's tick on publish and on
    /// every warm hit.
    last_used: AtomicU64,
}

impl CacheEntry {
    fn pending() -> CacheSlot {
        Arc::new(CacheEntry {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
            ready: AtomicBool::new(false),
            last_used: AtomicU64::new(0),
        })
    }
}

enum SlotState {
    Pending,
    // Boxed: a cache can hold many Pending/Poisoned slots, which should
    // not each pay for an inline report.
    Ready(Box<CheckReport>),
    Poisoned,
}

/// The result cache: slot map plus the logical LRU clock.
#[derive(Default)]
struct CacheState {
    slots: HashMap<CacheKey, CacheSlot>,
    tick: u64,
}

/// A completed (or pending) job's result cell.
type JobResult = Option<Result<CheckReport, CheckError>>;

/// A cache slot claimed for one key: as its owner (compute and publish)
/// or as a waiter on another request's pending or ready slot.
struct Claim {
    key: CacheKey,
    slot: CacheSlot,
    owner: bool,
}

/// A queued job: what [`Session::submit`] settled on the caller's
/// thread — the resolved request and the slot it claimed (none with the
/// cache off), or the error [`Session::wait`] surfaces.
struct Job {
    id: u64,
    token: Budget,
    work: Result<(Resolved, Option<Claim>), CheckError>,
}

struct Inner {
    cfg: SessionConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// `id → None` while in flight, `Some(result)` when done; removed
    /// when collected by `wait`.
    results: Mutex<HashMap<u64, JobResult>>,
    results_cv: Condvar,
    cache: Mutex<CacheState>,
    /// Cancel tokens of jobs not yet finished, keyed by id — created at
    /// submission so [`Session::cancel`] reaches jobs still queued.
    jobs: Mutex<HashMap<u64, Budget>>,
    shutdown: AtomicBool,
    submitted: AtomicUsize,
    completed: AtomicUsize,
    cache_hits: AtomicUsize,
    explorations: AtomicUsize,
    explorations_none: AtomicUsize,
    explorations_source_set: AtomicUsize,
    errors: AtomicUsize,
    evictions: AtomicUsize,
    overloaded: AtomicUsize,
    persist_loaded: AtomicUsize,
    persist_skipped: AtomicUsize,
    persist_locked: AtomicUsize,
}

impl Inner {
    /// Runs one job — a prepared request's answer — keeping the
    /// completed/errors counters consistent even if a user invariant
    /// closure panics mid-compute. Runs on a pool worker for submitted
    /// jobs and on the caller's thread for [`Session::run`]. `submitted`
    /// is counted at acceptance (`submit`/`run`), not here.
    fn execute(
        &self,
        job: impl FnOnce() -> Result<CheckReport, CheckError>,
    ) -> Result<CheckReport, CheckError> {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        match out {
            Ok(result) => {
                if result.is_err() {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                self.completed.fetch_add(1, Ordering::Relaxed);
                result
            }
            Err(panic) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.completed.fetch_add(1, Ordering::Relaxed);
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Resolves a request and applies the session's scheduling: the
    /// large-job upgrade and the effective deadline, both of which feed
    /// the cache key.
    fn prepare(&self, req: CheckRequest) -> Result<Resolved, CheckError> {
        let mut resolved = req.resolve()?;
        // Large-job upgrade: wide programs get the parallel engine.
        // Reduced jobs are left alone — reductions are sequential
        // algorithms, and rewriting the request would change its
        // contract behind the caller's back.
        let t = self.cfg.parallel_threshold;
        if t > 0
            && resolved.engine == Engine::Sequential
            && resolved.reduction == Reduction::None
            && resolved.threads() >= t
        {
            resolved.engine = Engine::Parallel {
                workers: self.cfg.workers.max(1),
            };
        }
        // The effective deadline is the tighter of the request's own
        // timeout and the session default; it participates in the cache
        // key, so stamping it on `resolved` before keying is essential.
        resolved.timeout = match (resolved.timeout, self.cfg.job_timeout) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Ok(resolved)
    }

    /// Counts one engine run, total and per reduction (the service's
    /// `session-stats` probes report both).
    fn count_exploration(&self, reduction: Reduction) {
        self.explorations.fetch_add(1, Ordering::Relaxed);
        let per = match reduction {
            Reduction::None => &self.explorations_none,
            Reduction::SourceSet => &self.explorations_source_set,
        };
        per.fetch_add(1, Ordering::Relaxed);
    }

    /// Claims the cache slot for `key`: the existing one as a waiter,
    /// or a fresh pending one as its owner.
    fn claim(&self, key: CacheKey) -> Claim {
        let mut cache = self.cache.lock().unwrap();
        let (slot, owner) = match cache.slots.entry(key.clone()) {
            Entry::Occupied(e) => (e.get().clone(), false),
            Entry::Vacant(v) => (v.insert(CacheEntry::pending()).clone(), true),
        };
        Claim { key, slot, owner }
    }

    /// Answers a prepared request, uncached or through `claim` (made at
    /// submission for queued jobs, here for inline runs).
    fn answer(
        &self,
        resolved: &Resolved,
        claim: Option<Claim>,
        token: &Budget,
    ) -> Result<CheckReport, CheckError> {
        if !self.cfg.cache {
            self.count_exploration(resolved.reduction);
            return Ok(resolved.compute(token));
        }
        let mut claim = claim.unwrap_or_else(|| self.claim(CacheKey::of(resolved)));
        loop {
            if claim.owner {
                return Ok(self.compute_as_owner(&claim.key, &claim.slot, resolved, token));
            }
            match self.wait_on_slot(&claim.slot, token)? {
                Some(report) => return Ok(report),
                // Poisoned, or a *different* job's cancellation: retry
                // as the owner of a fresh slot (and surface the panic
                // here if the compute deterministically panics). A
                // fresh slot, not whatever slot a later job claimed
                // meanwhile: that job may still be queued behind this
                // one, and waiting on it could stall the pool.
                None => {
                    claim.slot = CacheEntry::pending();
                    claim.owner = true;
                    let mut cache = self.cache.lock().unwrap();
                    cache.slots.insert(claim.key.clone(), claim.slot.clone());
                }
            }
        }
    }

    /// First submitter for a key: compute outside any lock, publish,
    /// wake coalesced waiters, then update the LRU map. Invariant
    /// predicates are arbitrary user closures, so a panic must not
    /// strand the pending slot: poison it, evict the key and let the
    /// panic propagate to this caller only.
    fn compute_as_owner(
        &self,
        key: &CacheKey,
        slot: &CacheSlot,
        resolved: &Resolved,
        token: &Budget,
    ) -> CheckReport {
        let computed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| resolved.compute(token)));
        let report = match computed {
            Ok(report) => report,
            Err(panic) => {
                self.evict_exact(key, slot);
                *slot.state.lock().unwrap() = SlotState::Poisoned;
                slot.cv.notify_all();
                std::panic::resume_unwind(panic);
            }
        };
        self.count_exploration(resolved.reduction);
        let interrupted = report.interrupt().is_some();
        *slot.state.lock().unwrap() = SlotState::Ready(Box::new(report.clone()));
        slot.cv.notify_all();
        // The `ready` flag is what the LRU sweep, `cache_len` and the
        // snapshot see, so it flips under the map lock together with the
        // stamp and the eviction: nobody observes a ready report with a
        // zero stamp or the count past capacity. An interrupted report
        // is never marked ready.
        let mut cache = self.cache.lock().unwrap();
        if interrupted {
            // Timed-out / cancelled reports answer their coalesced
            // waiters but never persist: a later identical request
            // deserves a fresh attempt.
            if let Some(cur) = cache.slots.get(key) {
                if Arc::ptr_eq(cur, slot) {
                    cache.slots.remove(key);
                }
            }
        } else {
            cache.tick += 1;
            slot.last_used.store(cache.tick, Ordering::Relaxed);
            slot.ready.store(true, Ordering::Release);
            self.evict_over_capacity(&mut cache);
        }
        report
    }

    /// Blocks a coalesced waiter on the slot. Returns `Ok(Some(report))`
    /// on a warm result, `Ok(None)` when the waiter should retry as a
    /// new owner (poisoned slot, or a cancelled report caused by *some
    /// other* job's cancel token), and `Err(Cancelled)` when this
    /// waiter's own job is cancelled while still blocked.
    fn wait_on_slot(
        &self,
        slot: &CacheSlot,
        token: &Budget,
    ) -> Result<Option<CheckReport>, CheckError> {
        let report = {
            let mut state = slot.state.lock().unwrap();
            loop {
                match &*state {
                    SlotState::Pending => {
                        let (next, _timed_out) = slot
                            .cv
                            .wait_timeout(state, Duration::from_millis(20))
                            .unwrap();
                        state = next;
                        if matches!(*state, SlotState::Pending) && token.is_cancelled() {
                            return Err(CheckError::Cancelled);
                        }
                    }
                    SlotState::Ready(report) => {
                        if report.interrupt() == Some(Interrupt::Cancelled) && !token.is_cancelled()
                        {
                            // The owner's job was cancelled, ours was
                            // not — recompute instead of inheriting its
                            // cancellation.
                            return Ok(None);
                        }
                        break (**report).clone();
                    }
                    SlotState::Poisoned => return Ok(None),
                }
            }
        };
        let mut report = report;
        report.set_cache_hit(true);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        // Touch the LRU stamp (slot lock released above; map lock only).
        let mut cache = self.cache.lock().unwrap();
        cache.tick += 1;
        slot.last_used.store(cache.tick, Ordering::Relaxed);
        Ok(Some(report))
    }

    /// Removes `key` only if it still maps to `slot` — a later fresh
    /// slot under the same key must not be collateral damage.
    fn evict_exact(&self, key: &CacheKey, slot: &CacheSlot) {
        let mut cache = self.cache.lock().unwrap();
        if let Some(cur) = cache.slots.get(key) {
            if Arc::ptr_eq(cur, slot) {
                cache.slots.remove(key);
            }
        }
    }

    /// Evicts least-recently-used *ready* entries until the ready count
    /// fits `cache_capacity`. Pending slots are invisible to the sweep
    /// (their `ready` flag is false), so in-flight coalescing is never
    /// broken by eviction. Called with the map lock held.
    fn evict_over_capacity(&self, cache: &mut CacheState) {
        let Some(cap) = self.cfg.cache_capacity else {
            return;
        };
        loop {
            let mut ready = 0usize;
            let mut oldest: Option<(CacheKey, u64)> = None;
            for (key, slot) in &cache.slots {
                if !slot.ready.load(Ordering::Acquire) {
                    continue;
                }
                ready += 1;
                let stamp = slot.last_used.load(Ordering::Relaxed);
                let older = match &oldest {
                    None => true,
                    Some((_, best)) => stamp < *best,
                };
                if older {
                    oldest = Some((key.clone(), stamp));
                }
            }
            if ready <= cap {
                return;
            }
            let (victim, _) = oldest.expect("ready > cap ≥ 0 implies a ready entry exists");
            cache.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A long-lived checking service: shared worker pool, shared result
/// cache, batch scheduling. See the module docs for the design.
///
/// ```
/// use c11_api::{CheckReport, CheckRequest, Session, SessionConfig};
///
/// let session = Session::new(SessionConfig::default().workers(2));
/// let req = || CheckRequest::program("vars x; thread t { x := 1; }");
/// let cold = session.run(req()).unwrap();
/// let warm = session.run(req()).unwrap();
/// assert!(!cold.cache_hit() && warm.cache_hit());
/// assert_eq!(session.stats().explorations, 1);
/// ```
pub struct Session {
    inner: Arc<Inner>,
    pool: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(SessionConfig::default())
    }
}

impl Session {
    /// A session with the given configuration. No threads are spawned
    /// until the first [`Session::submit`]. With
    /// [`SessionConfig::cache_path`] set, the snapshot at that path (if
    /// any) warms the cache before the session serves its first request;
    /// corrupt or stale-versioned lines are skipped and counted in
    /// [`SessionStats::persist_skipped`].
    pub fn new(cfg: SessionConfig) -> Session {
        let session = Session {
            inner: Arc::new(Inner {
                cfg,
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                results: Mutex::new(HashMap::new()),
                results_cv: Condvar::new(),
                cache: Mutex::new(CacheState::default()),
                jobs: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                submitted: AtomicUsize::new(0),
                completed: AtomicUsize::new(0),
                cache_hits: AtomicUsize::new(0),
                explorations: AtomicUsize::new(0),
                explorations_none: AtomicUsize::new(0),
                explorations_source_set: AtomicUsize::new(0),
                errors: AtomicUsize::new(0),
                evictions: AtomicUsize::new(0),
                overloaded: AtomicUsize::new(0),
                persist_loaded: AtomicUsize::new(0),
                persist_skipped: AtomicUsize::new(0),
                persist_locked: AtomicUsize::new(0),
            }),
            pool: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(0),
        };
        session.load_cache();
        session
    }

    /// Takes the snapshot's exclusive advisory lock (a sidecar
    /// `<path>.lock` file — the snapshot itself is replaced by rename on
    /// every rewrite, so a lock on its inode would not survive a flush).
    /// The lock is released when the returned handle drops. `None` when
    /// another process holds it: the caller skips its load/rewrite and
    /// counts the skip, so replicas sharing one `cache_path` never read
    /// a half-renamed snapshot or clobber each other's rewrite.
    fn lock_snapshot(path: &std::path::Path) -> Option<std::fs::File> {
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path.with_extension("lock"))
            .ok()?;
        match lock.try_lock() {
            Ok(()) => Some(lock),
            Err(_) => None,
        }
    }

    /// Warms the cache from the configured snapshot. Missing file = cold
    /// start; unreadable lines are skipped and counted, never trusted; a
    /// snapshot another process holds locked is skipped wholesale and
    /// counted in [`SessionStats::persist_locked`].
    fn load_cache(&self) {
        let inner = &self.inner;
        let Some(path) = inner.cfg.cache_path.as_ref().filter(|_| inner.cfg.cache) else {
            return;
        };
        let Some(_held) = Self::lock_snapshot(path) else {
            inner.persist_locked.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Ok(contents) = std::fs::read_to_string(path) else {
            return;
        };
        let mut cache = inner.cache.lock().unwrap();
        for line in contents.lines() {
            if line.is_empty() {
                continue;
            }
            match crate::persist::parse_line(line) {
                Ok((key, report)) => {
                    let slot = CacheEntry::pending();
                    *slot.state.lock().unwrap() = SlotState::Ready(Box::new(report));
                    slot.ready.store(true, Ordering::Release);
                    cache.tick += 1;
                    slot.last_used.store(cache.tick, Ordering::Relaxed);
                    // Later lines win: the snapshot is append-ordered, so
                    // a rewritten entry supersedes an earlier duplicate.
                    cache.slots.insert(key, slot);
                    inner.persist_loaded.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    inner.persist_skipped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // The snapshot may have been written under a larger (or no)
        // capacity; this session's ceiling still holds.
        inner.evict_over_capacity(&mut cache);
    }

    /// Rewrites the [`SessionConfig::cache_path`] snapshot from the
    /// current ready cache entries and returns how many were written.
    /// Interrupted and invariant-keyed entries are never written;
    /// corrupt lines a previous load skipped are dropped for good (the
    /// snapshot is rewritten whole, atomically via a temp file +
    /// rename). A no-op returning `Ok(0)` without a path or with the
    /// cache off. Called automatically when the session drops.
    pub fn flush_cache(&self) -> std::io::Result<usize> {
        let inner = &self.inner;
        let Some(path) = inner.cfg.cache_path.as_ref().filter(|_| inner.cfg.cache) else {
            return Ok(0);
        };
        // Same exclusive lock as the load: a replica that cannot take it
        // leaves the snapshot to the holder rather than racing the
        // rename, and the skip is visible in the stats.
        let Some(_held) = Self::lock_snapshot(path) else {
            inner.persist_locked.fetch_add(1, Ordering::Relaxed);
            return Ok(0);
        };
        // Snapshot the ready slots under the map lock, then render
        // outside it (slot locks are taken only after the map lock is
        // released, honouring the slot-then-map lock order).
        let slots: Vec<(CacheKey, CacheSlot)> = {
            let cache = inner.cache.lock().unwrap();
            cache
                .slots
                .iter()
                .filter(|(_, slot)| slot.ready.load(Ordering::Acquire))
                .map(|(key, slot)| (key.clone(), slot.clone()))
                .collect()
        };
        let mut lines = String::new();
        let mut written = 0usize;
        for (key, slot) in slots {
            let state = slot.state.lock().unwrap();
            let SlotState::Ready(report) = &*state else {
                continue;
            };
            if let Some(line) = crate::persist::persist_line(&key, report) {
                lines.push_str(&line);
                lines.push('\n');
                written += 1;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, lines)?;
        std::fs::rename(&tmp, path)?;
        Ok(written)
    }

    /// The session's configuration.
    pub fn config(&self) -> SessionConfig {
        self.inner.cfg.clone()
    }

    /// Runs one request inline on the calling thread (through the cache,
    /// bypassing the pool). This is what [`CheckRequest::run`] shims to.
    pub fn run(&self, req: CheckRequest) -> Result<CheckReport, CheckError> {
        let inner = &self.inner;
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.execute(|| inner.answer(&inner.prepare(req)?, None, &Budget::unlimited()))
    }

    /// Resolves a request on the calling thread, claims its cache slot,
    /// enqueues it on the worker pool and returns a handle to redeem
    /// with [`Session::wait`]. Spawns the pool on first use. Resolution
    /// errors are not returned here: like the report, they surface at
    /// `wait`.
    ///
    /// With [`SessionConfig::max_queue_depth`] set, a full queue rejects
    /// the request with [`CheckError::Overloaded`] instead of queueing
    /// it — the request is *not* counted as submitted, gets no id and
    /// claims no cache slot.
    pub fn submit(&self, req: CheckRequest) -> Result<JobId, CheckError> {
        self.ensure_pool();
        // A panicking resolution becomes the job's error, as a panicking
        // compute does on the worker.
        let prepared =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.inner.prepare(req)))
                .unwrap_or_else(|panic| Err(panicked(panic)));
        let token = Budget::unlimited();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.results.lock().unwrap().insert(id, None);
        self.inner.jobs.lock().unwrap().insert(id, token.clone());
        {
            // Depth check and push under one queue lock so the bound is
            // exact under concurrent submitters.
            let mut queue = self.inner.queue.lock().unwrap();
            if let Some(depth) = self.inner.cfg.max_queue_depth {
                if queue.len() >= depth {
                    drop(queue);
                    self.inner.results.lock().unwrap().remove(&id);
                    self.inner.jobs.lock().unwrap().remove(&id);
                    self.inner.overloaded.fetch_add(1, Ordering::Relaxed);
                    return Err(CheckError::Overloaded);
                }
            }
            // Claiming under the queue lock makes claim order queue
            // order: an owner is always dequeued before its waiters.
            let work = prepared.map(|resolved| {
                let claim = self
                    .inner
                    .cfg
                    .cache
                    .then(|| self.inner.claim(CacheKey::of(&resolved)));
                (resolved, claim)
            });
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            queue.push_back(Job { id, token, work });
        }
        self.inner.queue_cv.notify_one();
        Ok(JobId(id))
    }

    /// Requests cooperative cancellation of a submitted job. Queued jobs
    /// trip before exploring; running jobs stop at their next budget
    /// poll; either way [`Session::wait`] returns promptly with a
    /// `"cancelled"` report. Returns `false` when the job has already
    /// finished (or the id is unknown) — cancellation arrived too late
    /// and the completed result stands.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.inner.jobs.lock().unwrap().get(&id.0) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Ready reports currently held in the result cache (pending
    /// in-flight slots excluded). Never exceeds
    /// [`SessionConfig::cache_capacity`] when one is set.
    pub fn cache_len(&self) -> usize {
        let cache = self.inner.cache.lock().unwrap();
        cache
            .slots
            .values()
            .filter(|s| s.ready.load(Ordering::Acquire))
            .count()
    }

    /// Blocks until the job's report is ready and returns it. Each
    /// [`JobId`] can be redeemed exactly once; a second `wait` (or a
    /// foreign id) yields [`CheckError::Session`].
    pub fn wait(&self, id: JobId) -> Result<CheckReport, CheckError> {
        let mut results = self.inner.results.lock().unwrap();
        loop {
            match results.get(&id.0) {
                None => {
                    return Err(CheckError::Session(format!(
                        "job {} is unknown or was already collected",
                        id.0
                    )));
                }
                Some(None) => {
                    results = self.inner.results_cv.wait(results).unwrap();
                }
                Some(Some(_)) => {
                    let done = results.remove(&id.0).flatten();
                    return done.expect("checked Some(Some(..)) above");
                }
            }
        }
    }

    /// Submits every request of the batch to the pool, waits for all of
    /// them, and returns the reports **in submission order** together
    /// with aggregate statistics. Errors are per-item: one bad request
    /// does not poison the batch.
    pub fn run_batch(&self, batch: BatchRequest) -> BatchReport {
        let t0 = Instant::now();
        let ids: Vec<Result<JobId, CheckError>> = batch
            .into_requests()
            .into_iter()
            .map(|r| self.submit(r))
            .collect();
        let reports: Vec<Result<CheckReport, CheckError>> = ids
            .into_iter()
            .map(|id| match id {
                Ok(id) => self.wait(id),
                Err(rejected) => Err(rejected),
            })
            .collect();
        BatchReport::aggregate(reports, t0.elapsed())
    }

    /// The session's counters so far.
    pub fn stats(&self) -> SessionStats {
        let i = &self.inner;
        SessionStats {
            submitted: i.submitted.load(Ordering::Relaxed),
            completed: i.completed.load(Ordering::Relaxed),
            cache_hits: i.cache_hits.load(Ordering::Relaxed),
            explorations: i.explorations.load(Ordering::Relaxed),
            explorations_none: i.explorations_none.load(Ordering::Relaxed),
            explorations_source_set: i.explorations_source_set.load(Ordering::Relaxed),
            errors: i.errors.load(Ordering::Relaxed),
            evictions: i.evictions.load(Ordering::Relaxed),
            overloaded: i.overloaded.load(Ordering::Relaxed),
            persist_loaded: i.persist_loaded.load(Ordering::Relaxed),
            persist_skipped: i.persist_skipped.load(Ordering::Relaxed),
            persist_locked: i.persist_locked.load(Ordering::Relaxed),
        }
    }

    fn ensure_pool(&self) {
        let mut pool = self.pool.lock().unwrap();
        if !pool.is_empty() {
            return;
        }
        for i in 0..self.inner.cfg.workers.max(1) {
            let inner = self.inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("c11-session-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn session worker");
            pool.push(handle);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for handle in self.pool.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Best-effort snapshot after the pool is quiet; a full-disk or
        // permission failure must not turn a drop into a panic.
        let _ = self.flush_cache();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = inner.queue_cv.wait(queue).unwrap();
            }
        };
        let Some(Job { id, token, work }) = job else {
            return;
        };
        // A panicking job (user invariant closure) must neither kill the
        // worker nor leave the job's result cell empty forever.
        // `execute` keeps the counters consistent before re-raising, so
        // this only has to keep the worker alive and fill the result.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.execute(|| {
                let (resolved, claim) = work?;
                inner.answer(&resolved, claim, &token)
            })
        }))
        .unwrap_or_else(|panic| Err(panicked(panic)));
        inner.jobs.lock().unwrap().remove(&id);
        inner.results.lock().unwrap().insert(id, Some(out));
        inner.results_cv.notify_all();
    }
}

/// The session error a caught panic turns into.
fn panicked(panic: Box<dyn std::any::Any + Send>) -> CheckError {
    let what = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    CheckError::Session(format!("job panicked: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounds, CheckRequest, Invariant, Mode};

    const SB: &str = "vars x y;
         thread t1 { x := 1; r0 <- y; }
         thread t2 { y := 1; r0 <- x; }";

    #[test]
    fn run_caches_by_fingerprint_modulo_formatting() {
        let session = Session::default();
        let cold = session.run(CheckRequest::program(SB)).unwrap();
        // Same program, different whitespace: the parse-level
        // fingerprint must hit.
        let warm = session
            .run(CheckRequest::program(
                "vars x y;\nthread t1 { x := 1; r0 <- y; }\nthread t2 { y := 1; r0 <- x; }",
            ))
            .unwrap();
        assert!(!cold.cache_hit());
        assert!(warm.cache_hit());
        assert_eq!(session.stats().explorations, 1);
        assert_eq!(session.stats().cache_hits, 1);
        // Identical payload either way.
        let (CheckReport::Outcomes(a), CheckReport::Outcomes(b)) = (&cold, &warm) else {
            panic!();
        };
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn distinct_questions_do_not_alias() {
        let session = Session::default();
        session.run(CheckRequest::program(SB)).unwrap();
        // Different mode, model, bounds, traces, dot: all misses.
        for req in [
            CheckRequest::program(SB).mode(Mode::CountOnly),
            CheckRequest::program(SB).model(crate::ModelChoice::Sc),
            CheckRequest::program(SB).bounds(Bounds::default().max_events(8)),
            CheckRequest::program(SB).traces(true),
            CheckRequest::program(SB).dot(1),
        ] {
            let r = session.run(req).unwrap();
            assert!(!r.cache_hit());
        }
        assert_eq!(session.stats().explorations, 6);
        assert_eq!(session.stats().cache_hits, 0);
    }

    #[test]
    fn litmus_keys_ignore_model_traces_and_dot() {
        // LitmusVerdict always contrasts RA vs SC and produces no
        // traces/DOT, so harmless request-tagging differences must
        // still hit the cache.
        let session = Session::default();
        let test = c11_litmus::corpus().remove(0);
        let cold = session.run(CheckRequest::litmus(test.clone())).unwrap();
        assert!(!cold.cache_hit());
        let tagged = session
            .run(
                CheckRequest::litmus(test)
                    .model(crate::ModelChoice::Sc)
                    .traces(true)
                    .dot(1),
            )
            .unwrap();
        assert!(tagged.cache_hit());
        assert_eq!(session.stats().explorations, 1);
    }

    #[test]
    fn invariant_caching_is_by_predicate_identity() {
        let session = Session::default();
        let inv = Invariant::new("p", |_v| true);
        let req = |i: &Invariant| CheckRequest::program(SB).mode(Mode::Invariant(i.clone()));
        assert!(!session.run(req(&inv)).unwrap().cache_hit());
        assert!(session.run(req(&inv)).unwrap().cache_hit());
        // Same name, different closure: must NOT alias.
        let other = Invariant::new("p", |_v| true);
        assert!(!session.run(req(&other)).unwrap().cache_hit());
        assert_eq!(session.stats().explorations, 2);
    }

    #[test]
    fn submit_wait_round_trips_and_ids_are_single_use() {
        let session = Session::new(SessionConfig::default().workers(2));
        let a = session.submit(CheckRequest::program(SB)).unwrap();
        let b = session
            .submit(CheckRequest::program("vars x; thread t { x := 1; }"))
            .unwrap();
        let rb = session.wait(b).unwrap();
        let ra = session.wait(a).unwrap();
        assert!(matches!(ra, CheckReport::Outcomes(_)));
        assert!(matches!(rb, CheckReport::Outcomes(_)));
        // Double-redeem and foreign ids error instead of hanging.
        assert!(matches!(session.wait(a), Err(CheckError::Session(_))));
        assert!(matches!(
            session.wait(JobId(u64::MAX)),
            Err(CheckError::Session(_))
        ));
    }

    #[test]
    fn submit_surfaces_parse_errors_at_wait() {
        let session = Session::default();
        let id = session
            .submit(CheckRequest::program("vars x; thread t { y := 1; }"))
            .unwrap();
        assert!(matches!(session.wait(id), Err(CheckError::Parse(_))));
        assert_eq!(session.stats().errors, 1);
    }

    #[test]
    fn parallel_threshold_upgrades_wide_sequential_jobs() {
        let session = Session::new(SessionConfig::default().workers(3).parallel_threshold(2));
        let report = session.run(CheckRequest::program(SB)).unwrap();
        assert_eq!(
            report.meta().engine,
            Engine::Parallel { workers: 3 },
            "2-thread program at threshold 2 must be upgraded"
        );
        // Narrow jobs stay sequential; explicit choices are untouched.
        let narrow = session
            .run(CheckRequest::program("vars x; thread t { x := 1; }"))
            .unwrap();
        assert_eq!(narrow.meta().engine, Engine::Sequential);
        // Explicit engine choices are never rewritten (fresh program so
        // the answer is computed, not served from the cache — a cached
        // report always carries the engine that computed it).
        let explicit = session
            .run(
                CheckRequest::program("vars a b; thread t1 { a := 1; } thread t2 { b := 1; }")
                    .engine(Engine::Parallel { workers: 7 }),
            )
            .unwrap();
        assert_eq!(explicit.meta().engine, Engine::Parallel { workers: 7 });
        // And the SB request re-issued with an explicit engine is a
        // cache hit carrying the original computing engine.
        let hit = session
            .run(CheckRequest::program(SB).engine(Engine::Parallel { workers: 7 }))
            .unwrap();
        assert!(hit.cache_hit());
        assert_eq!(hit.meta().engine, Engine::Parallel { workers: 3 });
    }

    #[test]
    fn reduced_jobs_are_never_threshold_upgraded() {
        // A wide job carrying a reduction must stay sequential: the
        // parallel engine cannot host a reduction, and upgrading would
        // change what the caller asked for.
        let session = Session::new(SessionConfig::default().workers(3).parallel_threshold(2));
        let report = session
            .run(CheckRequest::program(SB).reduction(Reduction::SourceSet))
            .unwrap();
        assert_eq!(report.meta().engine, Engine::Sequential);
        assert_eq!(report.meta().reduction, Reduction::SourceSet);
    }

    #[test]
    fn finals_only_answers_never_serve_exhaustive_requests() {
        let session = Session::default();
        let src = session
            .run(CheckRequest::program(SB).reduction(Reduction::SourceSet))
            .unwrap();
        assert!(!src.cache_hit());
        // The exhaustive request must recompute: the cached source-set
        // report carries intentionally smaller state counts.
        let seq = session.run(CheckRequest::program(SB)).unwrap();
        assert!(!seq.cache_hit(), "contract must separate the keys");
        assert!(seq.stats().unique > src.stats().unique);
        // Within one contract, engine differences still coalesce: the
        // parallel spelling hits the sequential entry.
        let par = session
            .run(CheckRequest::program(SB).engine(Engine::Parallel { workers: 2 }))
            .unwrap();
        assert!(par.cache_hit(), "exhaustive contract is engine-agnostic");
        // Re-running source-set hits its own entry.
        let warm = session
            .run(CheckRequest::program(SB).reduction(Reduction::SourceSet))
            .unwrap();
        assert!(warm.cache_hit());
        let stats = session.stats();
        assert_eq!(stats.explorations, 2);
        assert_eq!(stats.explorations_none, 1);
        assert_eq!(stats.explorations_source_set, 1);
    }

    #[test]
    fn cache_disabled_recomputes() {
        let session = Session::new(SessionConfig::default().cache(false));
        assert!(!session.run(CheckRequest::program(SB)).unwrap().cache_hit());
        assert!(!session.run(CheckRequest::program(SB)).unwrap().cache_hit());
        assert_eq!(session.stats().explorations, 2);
    }

    #[test]
    fn panicking_job_neither_kills_the_pool_nor_strands_its_cache_slot() {
        let session = Session::new(SessionConfig::default().workers(1));
        let boom = Invariant::new("boom", |_v| panic!("predicate exploded"));
        let id = session
            .submit(CheckRequest::program(SB).mode(Mode::Invariant(boom.clone())))
            .unwrap();
        // The panic surfaces as a session error instead of hanging wait().
        let err = session.wait(id);
        assert!(
            matches!(&err, Err(CheckError::Session(e)) if e.contains("panicked")),
            "{err:?}"
        );
        // The worker survived: the pool still serves jobs…
        let ok = session.submit(CheckRequest::program(SB)).unwrap();
        assert!(session.wait(ok).unwrap().stats().finals > 0);
        // …and the poisoned key was evicted, so resubmitting the same
        // invariant recomputes (and panics again) rather than waiting
        // forever on a stranded Pending slot.
        let again = session
            .submit(CheckRequest::program(SB).mode(Mode::Invariant(boom)))
            .unwrap();
        assert!(matches!(session.wait(again), Err(CheckError::Session(_))));
    }

    #[test]
    fn concurrent_identical_submissions_coalesce() {
        // 8 identical jobs over 4 workers: exactly one exploration, the
        // other seven coalesce on the pending slot or hit the cache.
        let session = Session::new(SessionConfig::default().workers(4));
        let ids: Vec<JobId> = (0..8)
            .map(|_| session.submit(CheckRequest::program(SB)).unwrap())
            .collect();
        let mut hits = 0;
        for id in ids {
            hits += usize::from(session.wait(id).unwrap().cache_hit());
        }
        assert_eq!(session.stats().explorations, 1);
        assert_eq!(hits, 7);
    }

    #[test]
    fn the_first_submitted_of_identical_jobs_computes() {
        // Slots are claimed at submission, so no worker race can hand
        // the first job the hit and the second the compute.
        for _ in 0..20 {
            let session = Session::new(SessionConfig::default().workers(2));
            let first = session.submit(CheckRequest::program(SB)).unwrap();
            let second = session.submit(CheckRequest::program(SB)).unwrap();
            assert!(!session.wait(first).unwrap().cache_hit());
            assert!(session.wait(second).unwrap().cache_hit());
            assert_eq!(session.stats().explorations, 1);
        }
    }

    #[test]
    fn a_cancelled_queued_owner_lets_its_waiter_recompute() {
        // One worker held by a slow job: the owner and its waiter queue
        // behind it, and the owner is cancelled before it runs.
        let session = Session::new(SessionConfig::default().workers(1));
        let drag = Invariant::new("drag", |_v| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            true
        });
        let slow = session
            .submit(CheckRequest::program(SB).mode(Mode::Invariant(drag)))
            .unwrap();
        let owner = session.submit(CheckRequest::program(SB)).unwrap();
        let waiter = session.submit(CheckRequest::program(SB)).unwrap();
        assert!(session.cancel(owner));
        assert_eq!(session.wait(owner).unwrap().status_str(), "cancelled");
        let report = session.wait(waiter).unwrap();
        assert_eq!(report.status_str(), "ok");
        assert!(!report.cache_hit(), "the waiter computed it afresh");
        session.wait(slow).unwrap();
        // The recomputed report is cached for later requests.
        assert!(session.run(CheckRequest::program(SB)).unwrap().cache_hit());
    }

    #[test]
    fn expired_deadline_yields_a_timed_out_report_not_an_error() {
        let session = Session::default();
        let report = session
            .run(CheckRequest::program(SB).timeout(std::time::Duration::ZERO))
            .unwrap();
        assert_eq!(report.status_str(), "timed_out");
        assert!(
            !report.stats().truncated,
            "interrupt is not bound truncation"
        );
        // Interrupted reports never persist: re-running with a generous
        // deadline recomputes and completes.
        let again = session
            .run(CheckRequest::program(SB).timeout(std::time::Duration::from_secs(60)))
            .unwrap();
        assert_eq!(again.status_str(), "ok");
        assert!(!again.cache_hit());
    }

    #[test]
    fn timeouts_are_part_of_the_cache_key() {
        let session = Session::default();
        let patient = session.run(CheckRequest::program(SB)).unwrap();
        assert_eq!(patient.status_str(), "ok");
        // A deadline-bearing request must not be answered by the
        // unbudgeted report (different question to the service).
        let budgeted = session
            .run(CheckRequest::program(SB).timeout(std::time::Duration::from_secs(60)))
            .unwrap();
        assert!(!budgeted.cache_hit());
        assert_eq!(session.stats().explorations, 2);
    }

    #[test]
    fn cancel_reaches_queued_and_running_jobs() {
        // One worker, first job slow: the second job is cancelled while
        // still queued and must come back "cancelled" without running.
        let session = Session::new(SessionConfig::default().workers(1));
        let drag = Invariant::new("drag", |_v| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            true
        });
        let slow = session
            .submit(CheckRequest::program(SB).mode(Mode::Invariant(drag)))
            .unwrap();
        let doomed = session.submit(CheckRequest::program(SB)).unwrap();
        assert!(session.cancel(doomed), "job still in flight");
        let report = session.wait(doomed).unwrap();
        assert_eq!(report.status_str(), "cancelled");
        let slow = session.wait(slow).unwrap();
        assert_eq!(slow.status_str(), "ok");
        // Finished jobs can no longer be cancelled.
        assert!(!session.cancel(doomed));
    }

    #[test]
    fn cache_capacity_is_a_hard_ceiling_with_lru_eviction() {
        let session = Session::new(SessionConfig::default().cache_capacity(2));
        let program = |n: usize| format!("vars x; thread t {{ x := {n}; }}");
        for n in 1..=5 {
            session.run(CheckRequest::program(program(n))).unwrap();
            assert!(session.cache_len() <= 2, "capacity exceeded at n={n}");
        }
        assert_eq!(session.stats().evictions, 3);
        // Keys 4 and 5 survived; 4 is warm, 1 was evicted and recomputes.
        assert!(session
            .run(CheckRequest::program(program(4)))
            .unwrap()
            .cache_hit());
        assert!(!session
            .run(CheckRequest::program(program(1)))
            .unwrap()
            .cache_hit());
    }

    #[test]
    fn warm_hits_refresh_lru_recency() {
        let session = Session::new(SessionConfig::default().cache_capacity(2));
        let program = |n: usize| format!("vars x; thread t {{ x := {n}; }}");
        session.run(CheckRequest::program(program(1))).unwrap();
        session.run(CheckRequest::program(program(2))).unwrap();
        // Touch 1 so 2 becomes the LRU victim when 3 arrives.
        assert!(session
            .run(CheckRequest::program(program(1)))
            .unwrap()
            .cache_hit());
        session.run(CheckRequest::program(program(3))).unwrap();
        assert!(session
            .run(CheckRequest::program(program(1)))
            .unwrap()
            .cache_hit());
        assert!(!session
            .run(CheckRequest::program(program(2)))
            .unwrap()
            .cache_hit());
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let session = Session::new(SessionConfig::default().workers(1).max_queue_depth(1));
        // Stall the single worker long enough to observe a full queue.
        let gate = Invariant::new("gate", |_v| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            true
        });
        let slow = session
            .submit(CheckRequest::program(SB).mode(Mode::Invariant(gate)))
            .unwrap();
        // Fill the queue past its depth; at least one submission must be
        // rejected (the worker may drain at most one slot meanwhile).
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for _ in 0..8 {
            match session.submit(CheckRequest::program(SB)) {
                Ok(id) => accepted.push(id),
                Err(CheckError::Overloaded) => rejected += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "queue depth 1 must reject an 8-burst");
        assert_eq!(session.stats().overloaded, rejected);
        // Accepted jobs still complete normally.
        assert!(session.wait(slow).is_ok());
        for id in accepted {
            session.wait(id).unwrap();
        }
    }
}
