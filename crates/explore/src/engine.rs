//! The sequential exploration engine.

use crate::budget::{Budget, Interrupt};
use crate::sym::{sym_fingerprint, SymClasses};
use c11_core::config::{Config, ConfigStep};
use c11_core::fingerprint::{combine128, hash128_of};
use c11_core::model::MemoryModel;
use c11_lang::step::RegFile;
use c11_lang::{Prog, RegId, StepLabel, ThreadId, Val};
use c11_store::{AnyStore, StoreKind, StoreStats, VisitedStore};
use std::collections::VecDeque;

/// The 128-bit visited key of a configuration: fixed-seed fingerprints of
/// the residual commands, the register files and the memory state's
/// canonical form, mixed together. Replaces the old cloned
/// `(Vec<Com>, Vec<RegFile>, CanonKey)` tuples — no per-successor
/// allocation, and the same key works across worker threads (see
/// `c11_core::fingerprint` for the collision stance).
pub(crate) fn config_fingerprint<M: MemoryModel>(model: &M, c: &Config<M>) -> u128 {
    combine128(&[
        hash128_of(&c.coms),
        hash128_of(&c.regs),
        model.state_fingerprint(&c.mem),
    ])
}

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

    /// `true` iff this run should canonicalise keys by thread symmetry
    /// for `model` on `classes` — requested (explicitly or via
    /// [`StoreKind::Sym`]), exactly supported by the model, and with
    /// something to quotient.
    pub(crate) fn sym_effective<M: MemoryModel>(&self, model: &M, classes: &SymClasses) -> bool {
        (self.symmetry || self.store == StoreKind::Sym)
            && model.symmetry_exact()
            && !classes.is_trivial()
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

/// Parent-pointer arena for violation/witness trace reconstruction,
/// shared by the sequential and source-set engines (the parallel engine keeps
/// its own cross-worker variant in [`crate::par`]). Starts with the root
/// node ([`TraceArena::ROOT`]) already in place.
pub(crate) struct TraceArena {
    nodes: Vec<TraceNode>,
}

struct TraceNode {
    parent: usize,
    step: Option<TraceStep>,
}

impl TraceArena {
    /// The initial configuration's node.
    pub(crate) const ROOT: usize = 0;

    pub(crate) fn new() -> TraceArena {
        TraceArena {
            nodes: vec![TraceNode {
                parent: usize::MAX,
                step: None,
            }],
        }
    }

    /// Records a step under `parent` and returns the new node.
    pub(crate) fn push(&mut self, parent: usize, step: TraceStep) -> usize {
        self.nodes.push(TraceNode {
            parent,
            step: Some(step),
        });
        self.nodes.len() - 1
    }

    /// The root-to-`idx` schedule.
    pub(crate) fn trace_of(&self, mut idx: usize) -> Vec<TraceStep> {
        let mut steps = Vec::new();
        while idx != usize::MAX {
            if let Some(s) = &self.nodes[idx].step {
                steps.push(s.clone());
            }
            idx = self.nodes[idx].parent;
        }
        steps.reverse();
        steps
    }
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
    mut inv: F,
) -> ExploreResult<M>
where
    M: MemoryModel,
    F: FnMut(&Config<M>) -> bool,
{
    let mut result = ExploreResult {
        unique: 0,
        generated: 0,
        finals: Vec::new(),
        final_traces: Vec::new(),
        truncated: false,
        violations: Vec::new(),
        stuck: 0,
        interrupted: None,
        store_stats: None,
        sym_classes: None,
    };
    // Node store for trace reconstruction — only fed when someone will
    // read the parent pointers back (mirrors the parallel engine's
    // `track` guard; an untracked run does no per-state bookkeeping).
    let track = cfg.record_traces || cfg.witness_traces;
    let mut nodes = TraceArena::new();
    let classes = SymClasses::of(prog);
    let sym_on = cfg.sym_effective(model, &classes);
    let mut visited = AnyStore::new(cfg.store);
    // Node index of each final (for witness-trace materialisation).
    let mut final_nodes: Vec<usize> = Vec::new();

    let initial = Config::initial(model, prog);
    let key = |c: &Config<M>| {
        if sym_on {
            sym_fingerprint(model, &classes, c)
        } else {
            config_fingerprint(model, c)
        }
    };
    let mut queue: VecDeque<(Config<M>, usize, usize)> = VecDeque::new(); // (cfg, node, depth)
    if cfg.dedup {
        visited.insert(key(&initial));
    }
    // Check the initial configuration.
    if !inv(&initial) {
        result.violations.push((initial.clone(), Vec::new()));
    }
    if initial.is_terminated() {
        // Terminated configurations have no successors: move them
        // straight to `finals` instead of cycling them through the
        // queue.
        result.finals.push(initial);
        final_nodes.push(TraceArena::ROOT);
    } else {
        queue.push_back((initial, TraceArena::ROOT, 0));
    }
    result.unique = 1;

    // One unconditional clock read up front: a deadline already in the
    // past (e.g. a 0 ms budget) interrupts before any expansion. The
    // in-loop poll then only reads the clock every 64th iteration.
    let budget = &cfg.budget;
    let unlimited = budget.is_unlimited();
    if !unlimited {
        result.interrupted = budget.check_now(result.unique);
    }
    let mut tick: u64 = 0;
    while result.interrupted.is_none() {
        let Some((config, node_idx, depth)) = queue.pop_front() else {
            break;
        };
        if !unlimited {
            tick += 1;
            if let Some(why) = budget.check(tick, result.unique) {
                result.interrupted = Some(why);
                break;
            }
        }
        if result.unique >= cfg.max_states {
            result.truncated = true;
            break;
        }
        if depth >= cfg.max_depth || model.state_size(&config.mem) >= cfg.max_events {
            result.truncated = true;
            continue;
        }
        let successors = config.successors(model);
        if successors.is_empty() && !config.is_terminated() {
            result.stuck += 1;
        }
        for ConfigStep {
            tid, label, next, ..
        } in successors
        {
            result.generated += 1;
            if cfg.dedup && !visited.insert(key(&next)) {
                continue;
            }
            let new_idx = if track {
                nodes.push(node_idx, TraceStep { tid, label })
            } else {
                TraceArena::ROOT // never dereferenced when tracking is off
            };
            result.unique += 1;
            if !inv(&next) {
                let trace = if cfg.record_traces {
                    nodes.trace_of(new_idx)
                } else {
                    Vec::new()
                };
                result.violations.push((next.clone(), trace));
            }
            if next.is_terminated() {
                // Move — terminated configurations have no successors,
                // so only `finals` needs this value.
                result.finals.push(next);
                final_nodes.push(new_idx);
            } else {
                queue.push_back((next, new_idx, depth + 1));
            }
        }
    }
    if cfg.witness_traces {
        result.final_traces = final_nodes
            .into_iter()
            .map(|idx| nodes.trace_of(idx))
            .collect();
    }
    if cfg.dedup {
        result.store_stats = Some(StoreStats {
            sym: sym_on,
            ..visited.stats()
        });
    }
    if sym_on {
        result.sym_classes = Some(classes);
    }
    result
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
    fn invariant_violation_comes_with_trace() {
        let prog = parse_program("vars x; thread t { x := 1; x := 2; }").unwrap();
        // "x never written twice" fails; the trace must have ≥ 2 steps.
        let res = Explorer::new(RaModel).explore_invariant(
            &prog,
            ExploreConfig::default(),
            |c: &Config<RaModel>| c.mem.len() < 3,
        );
        assert!(!res.holds());
        // Trace: wr(x,1), τ (skip-consumption), wr(x,2).
        let (_, trace) = &res.violations[0];
        assert_eq!(trace.len(), 3);
        assert!(matches!(trace[0].label, StepLabel::Act(_)));
        assert!(matches!(trace[1].label, StepLabel::Tau));
        assert!(matches!(trace[2].label, StepLabel::Act(_)));
    }

    #[test]
    fn spin_loop_truncates_at_event_bound() {
        let prog = parse_program(
            "vars x;
             thread t { while (x == 0) { skip; } }",
        )
        .unwrap();
        let res = Explorer::new(RaModel).explore(&prog, ExploreConfig::default().max_events(8));
        assert!(res.truncated, "spinning forever must hit the event bound");
        assert!(res.finals.is_empty(), "x never becomes non-zero");
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

    #[test]
    fn max_states_cap_truncates() {
        let src = "vars x y;
             thread t1 { x := 1; x := 2; x := 3; }
             thread t2 { y := 1; y := 2; y := 3; }";
        let prog = parse_program(src).unwrap();
        let res = Explorer::new(RaModel).explore(&prog, ExploreConfig::default().max_states(10));
        assert!(res.truncated);
        assert!(res.unique <= 11);
    }

    #[test]
    fn witness_traces_replay_to_the_final() {
        let src = "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }";
        let prog = parse_program(src).unwrap();
        let res =
            Explorer::new(RaModel).explore(&prog, ExploreConfig::default().witness_traces(true));
        assert_eq!(res.final_traces.len(), res.finals.len());
        for trace in &res.final_traces {
            // Each final is reached by a non-empty schedule whose action
            // steps cover both threads.
            assert!(!trace.is_empty());
            let tids: std::collections::HashSet<u8> = trace.iter().map(|s| s.tid.0).collect();
            assert_eq!(tids.len(), 2);
        }
        // Off by default.
        let res = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
        assert!(res.final_traces.is_empty());
    }
}
