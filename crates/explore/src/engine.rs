//! The sequential exploration engine — a FIFO frontier over the frontier
//! kernel (`kernel.rs`) on the caller's thread — and the vocabulary every
//! engine shares ([`ExploreConfig`], [`ExploreResult`], [`TraceStep`]).

use crate::budget::{Budget, Interrupt};
use crate::kernel::{Kernel, Unstored, Walk};
use crate::sym::SymClasses;
use c11_core::config::Config;
use c11_core::model::MemoryModel;
use c11_lang::step::RegFile;
use c11_lang::{Prog, RegId, StepLabel, ThreadId, Val};
use c11_store::{AnyStore, StoreKind, StoreStats, VisitedStore};
use std::collections::VecDeque;

/// Exploration bounds and switches.
///
/// Built by chaining: `ExploreConfig::default().max_events(16).dedup(false)`.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Stop expanding a configuration whose memory state has more events
    /// than this (bounds unrolling of spin loops). `usize::MAX` = no bound.
    pub max_events: usize,
    /// Hard cap on distinct configurations visited (safety net).
    pub max_states: usize,
    /// Cap on BFS depth (mainly for store-based models whose states do not
    /// grow). `usize::MAX` = no bound.
    pub max_depth: usize,
    /// Deduplicate configurations by canonical key (ablation switch E16;
    /// keep on for anything but measurements).
    pub dedup: bool,
    /// Record parent pointers so invariant violations come with traces.
    pub record_traces: bool,
    /// Additionally materialise a witness trace for every *terminated*
    /// configuration (see [`ExploreResult::final_traces`]). Off by
    /// default: witnesses cost memory proportional to `finals × depth`.
    pub witness_traces: bool,
    /// Cooperative deadline/cancellation token polled by every engine.
    /// Unlimited by default; a tripped budget terminates the run with
    /// [`ExploreResult::interrupted`] set (distinct from `truncated`).
    pub budget: Budget,
    /// Which visited-store implementation backs deduplication (see
    /// `c11_store`). [`StoreKind::Sym`] also turns on symmetric keying.
    pub store: StoreKind,
    /// Quotient the visited set by thread symmetry: configurations that
    /// are thread-relabellings of each other (threads with identical
    /// bodies) share one stored representative. Opt-in — `unique` and
    /// `generated` legitimately shrink, so symmetric runs join the
    /// finals-only side of the backend contract: verdicts and
    /// (class-sorted) final snapshots stay identical, counts may not.
    /// Silently inert for models without exact relabelling support
    /// (`MemoryModel::symmetry_exact`).
    pub symmetry: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_events: 24,
            max_states: 1_000_000,
            max_depth: usize::MAX,
            dedup: true,
            record_traces: true,
            witness_traces: false,
            budget: Budget::default(),
            store: StoreKind::Flat,
            symmetry: false,
        }
    }
}

impl ExploreConfig {
    /// Sets the event bound (chainable).
    pub fn max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the distinct-configuration cap (chainable).
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Sets the BFS depth bound (chainable).
    pub fn max_depth(mut self, n: usize) -> Self {
        self.max_depth = n;
        self
    }

    /// Switches canonical-key deduplication (chainable).
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Switches violation-trace recording (chainable).
    pub fn record_traces(mut self, on: bool) -> Self {
        self.record_traces = on;
        self
    }

    /// Switches witness traces for terminated configurations (chainable).
    pub fn witness_traces(mut self, on: bool) -> Self {
        self.witness_traces = on;
        self
    }

    /// Attaches a deadline/cancellation budget (chainable).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Selects the visited-store implementation (chainable).
    pub fn store(mut self, kind: StoreKind) -> Self {
        self.store = kind;
        self
    }

    /// Switches thread-symmetry quotienting of the visited set
    /// (chainable).
    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }
}

/// One step of a counterexample trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The thread that moved.
    pub tid: ThreadId,
    /// The label of the move.
    pub label: StepLabel,
}

impl TraceStep {
    /// Renders the step with variable names resolved (`t2: Rd(f, 1)`).
    pub fn render(&self, prog: &Prog) -> String {
        let what = match &self.label {
            StepLabel::Tau => "τ".to_string(),
            StepLabel::Act(a) => {
                let v = prog
                    .var_names
                    .get(a.var().0 as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("{a:?}").replace(&format!("{:?}", a.var()), v)
            }
        };
        format!("t{}: {what}", self.tid.0)
    }
}

/// Renders a counterexample trace with variable names, one step per line.
pub fn render_trace(trace: &[TraceStep], prog: &Prog) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, step) in trace.iter().enumerate() {
        let _ = writeln!(out, "  {i:>3}. {}", step.render(prog));
    }
    out
}

/// Final register values of all threads of a terminated configuration.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegSnapshot {
    regs: Vec<RegFile>,
}

impl RegSnapshot {
    /// The snapshot of a configuration's register files.
    pub fn of<M: MemoryModel>(cfg: &Config<M>) -> RegSnapshot {
        RegSnapshot {
            regs: cfg.regs.clone(),
        }
    }

    /// The value of register `r` of thread `t`; `None` if the thread does
    /// not exist. Unwritten registers read 0.
    pub fn get(&self, t: ThreadId, r: RegId) -> Option<Val> {
        self.regs.get(t.0 as usize - 1).map(|f| f.get(r))
    }

    /// Number of threads in the snapshot.
    pub fn num_threads(&self) -> usize {
        self.regs.len()
    }

    /// The written registers of thread `t` as `(register, value)` pairs.
    pub fn thread_regs(&self, t: ThreadId) -> Vec<(RegId, Val)> {
        self.regs
            .get(t.0 as usize - 1)
            .map(|f| f.iter().collect())
            .unwrap_or_default()
    }

    /// Canonicalises the snapshot by sorting same-class register files
    /// (see [`SymClasses::class_sort_regs`]): two orbit-equivalent
    /// snapshots become byte-identical. Lets callers compare finals of a
    /// plain run against a symmetry-quotiented one.
    pub fn class_sort(&mut self, classes: &SymClasses) {
        classes.class_sort_regs(&mut self.regs);
    }
}

/// The result of an exploration.
pub struct ExploreResult<M: MemoryModel> {
    /// Distinct configurations visited (after dedup).
    pub unique: usize,
    /// Total successor configurations generated (before dedup).
    pub generated: usize,
    /// Terminated configurations (all threads `skip`).
    pub finals: Vec<Config<M>>,
    /// When [`ExploreConfig::witness_traces`] is on, `final_traces[i]` is
    /// a trace from the initial configuration to `finals[i]`; empty
    /// otherwise.
    pub final_traces: Vec<Vec<TraceStep>>,
    /// `true` iff some configuration was not expanded due to a bound —
    /// verdicts on "forbidden" outcomes are then only valid up to the
    /// bound.
    pub truncated: bool,
    /// Configurations violating the supplied invariant, with traces (if
    /// recording was on).
    pub violations: Vec<(Config<M>, Vec<TraceStep>)>,
    /// Non-terminated configurations with no successor. The RA semantics
    /// is deadlock-free (every variable retains at least one observable
    /// write), so this should stay 0 — it is asserted as a property.
    pub stuck: usize,
    /// Set iff the run's [`Budget`] tripped (deadline passed or
    /// cancellation requested) before the bounds did. All counts are then
    /// a sane partial prefix of the search; `truncated` stays the bound
    /// verdict only.
    pub interrupted: Option<Interrupt>,
    /// Accounting of the visited store that backed this run (`None` only
    /// when deduplication was off — there was no store).
    pub store_stats: Option<StoreStats>,
    /// Set iff the run keyed the visited set by thread symmetry; carries
    /// the symmetry classes so downstream consumers (final snapshots,
    /// the litmus runner) can canonicalise or re-expand stored orbit
    /// representatives.
    pub sym_classes: Option<SymClasses>,
}

impl<M: MemoryModel> ExploreResult<M> {
    /// Register snapshots of all terminated configurations (deduplicated).
    pub fn final_register_states(&self) -> Vec<RegSnapshot> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for snap in self.final_snapshots() {
            if seen.insert(snap.clone()) {
                out.push(snap);
            }
        }
        out
    }

    /// Register snapshots of all terminated configurations, one per final
    /// (a *multiset*: distinct final configurations may share register
    /// values). Index-aligned with `finals` and `final_traces`.
    ///
    /// Under symmetry quotienting each stored final is an arbitrary
    /// orbit representative (the parallel engine keeps whichever member
    /// won the race), so the snapshots are canonicalised by sorting
    /// same-class register files — orbit-equivalent finals then yield
    /// byte-identical snapshots across all backends.
    pub fn final_snapshots(&self) -> Vec<RegSnapshot> {
        let mut snaps: Vec<RegSnapshot> = self.finals.iter().map(RegSnapshot::of).collect();
        if let Some(classes) = &self.sym_classes {
            for snap in &mut snaps {
                classes.class_sort_regs(&mut snap.regs);
            }
        }
        snaps
    }

    /// The stats of this result, stamped with a wall time.
    pub fn stats(&self, wall: std::time::Duration) -> crate::stats::Stats {
        crate::stats::Stats::of(self, wall)
    }

    /// `true` iff no invariant violation was found.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Explores all reachable configurations of `prog` under `model`, checking
/// `inv` on each. The free-function form the [`crate::ExploreBackend`]
/// trait and the [`Explorer`] wrapper both delegate to.
pub fn explore_invariant_with<M, F>(
    model: &M,
    prog: &Prog,
    cfg: &ExploreConfig,
    inv: F,
) -> ExploreResult<M>
where
    M: MemoryModel,
    F: FnMut(&Config<M>) -> bool,
{
    let kernel = Kernel::new(model, prog, cfg, true);
    if cfg.dedup {
        let mut store = AnyStore::new(cfg.store);
        let walk = bfs(&kernel, prog, &mut store, inv);
        kernel.finish([walk], Some(store.stats()))
    } else {
        let walk = bfs(&kernel, prog, &mut Unstored, inv);
        kernel.finish([walk], None)
    }
}

/// The breadth-first schedule: one FIFO frontier, one store, one walk.
fn bfs<M, S, F>(kernel: &Kernel<'_, M>, prog: &Prog, store: &mut S, mut inv: F) -> Walk<M>
where
    M: MemoryModel,
    S: VisitedStore,
    F: FnMut(&Config<M>) -> bool,
{
    let mut walk = kernel.walk(0);
    let root = kernel.start(prog, &mut walk, store, &mut inv);
    let mut queue: VecDeque<_> = root.map(|(root, _)| root).into_iter().collect();
    while let Some(item) = queue.pop_front() {
        let unique = 1 + walk.fresh;
        if !kernel.expand(&mut walk, store, &mut queue, item, unique, &mut inv) {
            break;
        }
    }
    walk
}

/// The exploration engine, parameterised by a memory model.
pub struct Explorer<M> {
    model: M,
}

impl<M: MemoryModel> Explorer<M> {
    /// Creates an explorer for a model.
    pub fn new(model: M) -> Explorer<M> {
        Explorer { model }
    }

    /// The model (for reuse by callers).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Explores all reachable configurations of `prog` within `cfg`.
    pub fn explore(&self, prog: &Prog, cfg: ExploreConfig) -> ExploreResult<M> {
        self.explore_invariant(prog, cfg, |_| true)
    }

    /// Explores and checks `inv` on every reachable configuration.
    pub fn explore_invariant<F>(&self, prog: &Prog, cfg: ExploreConfig, inv: F) -> ExploreResult<M>
    where
        F: FnMut(&Config<M>) -> bool,
    {
        explore_invariant_with(&self.model, prog, &cfg, inv)
    }

    /// Calls `f` on every reachable configuration (within bounds). Returns
    /// the number of distinct configurations visited. Convenience wrapper
    /// used by the verification crate to quantify over transitions.
    pub fn for_each_reachable<F>(&self, prog: &Prog, cfg: ExploreConfig, mut f: F) -> usize
    where
        F: FnMut(&Config<M>),
    {
        let result = self.explore_invariant(prog, cfg, |c| {
            f(c);
            true
        });
        result.unique
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_core::model::{RaModel, ScModel};
    use c11_lang::parse_program;

    #[test]
    fn straight_line_program_terminates() {
        let prog = parse_program("vars x; thread t { x := 1; x := 2; }").unwrap();
        let res = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        assert!(!res.truncated);
        assert!(!res.finals.is_empty());
        assert!(res.holds());
        // Final state: mo is init → w1 → w2.
        for f in &res.finals {
            assert_eq!(f.mem.len(), 3);
        }
    }

    #[test]
    fn store_buffering_under_ra_allows_both_zero() {
        // SB: t1: x:=1; r0<-y. t2: y:=1; r0<-x. RA (relaxed) allows
        // r0 = r0 = 0; SC forbids it.
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let ra = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        assert!(!ra.truncated);
        let both_zero = |snaps: &[RegSnapshot]| {
            snaps.iter().any(|s| {
                s.get(ThreadId(1), RegId(0)) == Some(0) && s.get(ThreadId(2), RegId(0)) == Some(0)
            })
        };
        assert!(both_zero(&ra.final_register_states()), "RA allows 0/0");
        let sc = Explorer::new(ScModel).explore(&prog, ExploreConfig::default());
        assert!(!sc.truncated);
        assert!(!both_zero(&sc.final_register_states()), "SC forbids 0/0");
    }

    #[test]
    fn dedup_reduces_state_count() {
        // Two independent writers: interleavings collapse under dedup.
        let src = "vars x y;
             thread t1 { x := 1; x := 2; }
             thread t2 { y := 1; y := 2; }";
        let prog = parse_program(src).unwrap();
        let with = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        let without = Explorer::new(RaModel).explore(
            &prog,
            ExploreConfig::default().dedup(false).max_states(100_000),
        );
        assert!(with.unique < without.unique);
        // Same final outcomes either way.
        assert_eq!(
            with.final_register_states().len(),
            without.final_register_states().len()
        );
    }

    #[test]
    fn message_passing_release_acquire_is_safe() {
        let src = "vars d f;
             thread t1 { d := 5; f :=R 1; }
             thread t2 { r0 <-A f; if (r0 == 1) { r1 <- d; } else { r1 <- 99; } }";
        let prog = parse_program(src).unwrap();
        let res = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        assert!(!res.truncated);
        for snap in res.final_register_states() {
            if snap.get(ThreadId(2), RegId(0)) == Some(1) {
                assert_eq!(
                    snap.get(ThreadId(2), RegId(1)),
                    Some(5),
                    "acquire of the release flag must publish d = 5"
                );
            }
        }
    }

    #[test]
    fn message_passing_relaxed_is_unsafe() {
        // Without the release annotation the stale read is allowed.
        let src = "vars d f;
             thread t1 { d := 5; f := 1; }
             thread t2 { r0 <-A f; if (r0 == 1) { r1 <- d; } else { r1 <- 99; } }";
        let prog = parse_program(src).unwrap();
        let res = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        let stale = res.final_register_states().into_iter().any(|s| {
            s.get(ThreadId(2), RegId(0)) == Some(1) && s.get(ThreadId(2), RegId(1)) == Some(0)
        });
        assert!(stale, "relaxed flag write must not publish d");
    }
}
