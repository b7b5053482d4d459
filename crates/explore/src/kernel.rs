//! The frontier kernel: the per-state work of the exhaustive engines.
//!
//! The sequential BFS ([`crate::engine`]) and the parallel workers
//! ([`crate::par`]) differ only in scheduling — who pops which frontier
//! item, on which thread. Everything a state costs lives here, once:
//!
//! - **Prologue** ([`Kernel::new`], [`Kernel::start`]): the symmetry
//!   classes and the key function, then the initial configuration — its
//!   store insert, its invariant check, a terminated initial
//!   configuration and a budget that has already tripped.
//! - **[`Kernel::expand`]**: the budget poll, the `max_states`,
//!   `max_depth` and `max_events` cut, `Config::successors`, the stuck
//!   count, and per successor the dedup insert, the trace node, the
//!   invariant check and the routing to finals or to the frontier.
//! - **[`Kernel::finish`]**: merges the per-worker [`Walk`]s, resolves
//!   witness and violation traces, and labels the store block.
//!
//! `expand` is generic over the dedup store and monomorphised per
//! engine: the sequential engine holds an `AnyStore` (or the
//! always-fresh [`Unstored`] when `dedup` is off) on the caller's thread,
//! with no atomics and no dynamic dispatch; each parallel worker holds a
//! private cache in front of the shared `CasFilter`. The source-set
//! engine reuses the prologue, [`Kernel::visit`] and `finish` around its
//! own depth-first walk.

use crate::budget::Interrupt;
use crate::engine::{ExploreConfig, ExploreResult, TraceStep};
use crate::sym::{sym_fingerprint, SymClasses};
use c11_core::config::{Config, ConfigStep};
use c11_core::fingerprint::{combine128, hash128_of};
use c11_core::model::MemoryModel;
use c11_lang::{Prog, StepLabel, ThreadId};
use c11_store::{StoreKind, StoreStats, VisitedStore};
use std::collections::VecDeque;

/// The 128-bit visited key of a configuration: fixed-seed fingerprints of
/// the residual commands, the register files and the memory state's
/// canonical form, mixed together. No per-successor allocation, and the
/// same key works across worker threads (see `c11_core::fingerprint` for
/// the collision stance).
pub(crate) fn config_fingerprint<M: MemoryModel>(model: &M, c: &Config<M>) -> u128 {
    combine128(&[
        hash128_of(&c.coms),
        hash128_of(&c.regs),
        model.state_fingerprint(&c.mem),
    ])
}

/// A parent pointer: `(arena, index into that arena)`.
/// [`NodeRef::ROOT`] marks the initial configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeRef {
    arena: u32,
    idx: u32,
}

impl NodeRef {
    pub(crate) const ROOT: NodeRef = NodeRef {
        arena: u32::MAX,
        idx: u32::MAX,
    };
}

struct Node {
    parent: NodeRef,
    step: TraceStep,
}

/// The root-to-`node` schedule across a run's arenas (indexed by worker
/// id).
fn trace_of(arenas: &[Vec<Node>], mut node: NodeRef) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    while node != NodeRef::ROOT {
        let n = &arenas[node.arena as usize][node.idx as usize];
        steps.push(n.step.clone());
        node = n.parent;
    }
    steps.reverse();
    steps
}

/// A frontier entry: the configuration, its trace node and its depth.
pub(crate) type Item<M> = (Config<M>, NodeRef, usize);

/// Everything one worker accumulates privately, merged by
/// [`Kernel::finish`]. The sequential and source-set engines run one
/// walk, worker 0.
pub(crate) struct Walk<M: MemoryModel> {
    id: u32,
    /// Parent-pointer arena for violation and witness traces; only fed
    /// when someone will read it back.
    arena: Vec<Node>,
    finals: Vec<Config<M>>,
    final_nodes: Vec<NodeRef>,
    violations: Vec<(Config<M>, NodeRef)>,
    pub(crate) generated: usize,
    /// Fresh store inserts, the initial configuration's excluded.
    pub(crate) fresh: usize,
    pub(crate) stuck: usize,
    pub(crate) truncated: bool,
    interrupted: Option<Interrupt>,
    tick: u64,
}

impl<M: MemoryModel> Walk<M> {
    /// Files a terminated configuration under its trace node.
    pub(crate) fn push_final(&mut self, config: Config<M>, node: NodeRef) {
        self.finals.push(config);
        self.final_nodes.push(node);
    }
}

/// The store of a run without deduplication: every key is fresh.
pub(crate) struct Unstored;

impl VisitedStore for Unstored {
    fn insert(&mut self, _key: u128) -> bool {
        true
    }

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// The kernel of one run: its model, bounds, symmetry key and trace
/// switch.
pub(crate) struct Kernel<'a, M> {
    model: &'a M,
    cfg: &'a ExploreConfig,
    /// The symmetry classes, iff the quotient applies to this run.
    sym: Option<SymClasses>,
    /// Feed the arenas only when someone will read them back.
    track: bool,
    unlimited: bool,
}

impl<'a, M: MemoryModel> Kernel<'a, M> {
    /// The kernel of one run of `prog`. With `quotient`, keys are
    /// symmetry-canonical when `cfg` asks for it and the model and the
    /// program support it; the source-set engine passes `false`.
    pub(crate) fn new(model: &'a M, prog: &Prog, cfg: &'a ExploreConfig, quotient: bool) -> Self {
        let wanted = cfg.symmetry || cfg.store == StoreKind::Sym;
        let sym = (quotient && wanted && model.symmetry_exact())
            .then(|| SymClasses::of(prog))
            .filter(|classes| !classes.is_trivial());
        Kernel {
            model,
            cfg,
            sym,
            track: cfg.record_traces || cfg.witness_traces,
            unlimited: cfg.budget.is_unlimited(),
        }
    }

    fn key(&self, c: &Config<M>) -> u128 {
        match &self.sym {
            Some(classes) => sym_fingerprint(self.model, classes, c),
            None => config_fingerprint(self.model, c),
        }
    }

    /// An empty walk for worker `id`.
    pub(crate) fn walk(&self, id: usize) -> Walk<M> {
        Walk {
            id: id as u32,
            arena: Vec::new(),
            finals: Vec::new(),
            final_nodes: Vec::new(),
            violations: Vec::new(),
            generated: 0,
            fresh: 0,
            stuck: 0,
            truncated: false,
            interrupted: None,
            tick: 0,
        }
    }

    /// Inserts and checks the initial configuration of `prog`. Returns
    /// it as the first frontier item, with its key, or `None` when there
    /// is nothing to expand: it is terminated (and filed as a final), or
    /// the budget tripped before the search began.
    pub(crate) fn start<S: VisitedStore>(
        &self,
        prog: &Prog,
        walk: &mut Walk<M>,
        store: &mut S,
        inv: &mut impl FnMut(&Config<M>) -> bool,
    ) -> Option<(Item<M>, u128)> {
        let initial = Config::initial(self.model, prog);
        let key = self.key(&initial);
        store.insert(key);
        if !inv(&initial) {
            walk.violations.push((initial.clone(), NodeRef::ROOT));
        }
        if !self.unlimited {
            walk.interrupted = self.cfg.budget.check_now(1);
        }
        if initial.is_terminated() {
            walk.push_final(initial, NodeRef::ROOT);
            return None;
        }
        let root = (initial, NodeRef::ROOT, 0);
        walk.interrupted.is_none().then_some((root, key))
    }

    /// Polls the budget (the clock only every 64th call); `false` once it
    /// has tripped, with the reason recorded on `walk`.
    pub(crate) fn poll(&self, walk: &mut Walk<M>, unique: usize) -> bool {
        if self.unlimited {
            return true;
        }
        walk.tick += 1;
        walk.interrupted = self.cfg.budget.check(walk.tick, unique);
        walk.interrupted.is_none()
    }

    /// Polls the budget and the state cap ahead of an expansion, with
    /// `unique` distinct states so far; `false` when the run must stop.
    pub(crate) fn admit(&self, walk: &mut Walk<M>, unique: usize) -> bool {
        if !self.poll(walk, unique) {
            return false;
        }
        walk.truncated |= unique >= self.cfg.max_states;
        unique < self.cfg.max_states
    }

    /// `true` iff the depth or event bound forbids expanding `config`.
    pub(crate) fn beyond_bounds(&self, config: &Config<M>, depth: usize) -> bool {
        depth >= self.cfg.max_depth || self.model.state_size(&config.mem) >= self.cfg.max_events
    }

    /// Files a generated successor under a new trace node and checks the
    /// invariant on it.
    #[inline]
    pub(crate) fn visit(
        &self,
        walk: &mut Walk<M>,
        parent: NodeRef,
        (tid, label): (ThreadId, StepLabel),
        next: &Config<M>,
        inv: &mut impl FnMut(&Config<M>) -> bool,
    ) -> NodeRef {
        let mut node = NodeRef::ROOT; // never dereferenced when tracking is off
        if self.track {
            walk.arena.push(Node {
                parent,
                step: TraceStep { tid, label },
            });
            node = NodeRef {
                arena: walk.id,
                idx: (walk.arena.len() - 1) as u32,
            };
        }
        if !inv(next) {
            let traced = if self.cfg.record_traces {
                node
            } else {
                NodeRef::ROOT
            };
            walk.violations.push((next.clone(), traced));
        }
        node
    }

    /// Expands one frontier item. `unique` is the run's distinct-state
    /// count so far. Fresh successors go to `walk`'s finals when
    /// terminated, else to the back of `frontier`. Returns `false` when
    /// the whole run must stop: the budget tripped or the state cap was
    /// reached.
    #[inline]
    pub(crate) fn expand<S: VisitedStore>(
        &self,
        walk: &mut Walk<M>,
        store: &mut S,
        frontier: &mut VecDeque<Item<M>>,
        (config, node, depth): Item<M>,
        unique: usize,
        inv: &mut impl FnMut(&Config<M>) -> bool,
    ) -> bool {
        if !self.admit(walk, unique) {
            return false;
        }
        if self.beyond_bounds(&config, depth) {
            walk.truncated = true;
            return true;
        }
        let successors = config.successors(self.model);
        if successors.is_empty() && !config.is_terminated() {
            walk.stuck += 1;
        }
        for ConfigStep {
            tid, label, next, ..
        } in successors
        {
            walk.generated += 1;
            if !store.insert(self.key(&next)) {
                continue;
            }
            walk.fresh += 1;
            let child = self.visit(walk, node, (tid, label), &next, inv);
            if next.is_terminated() {
                walk.push_final(next, child);
            } else {
                frontier.push_back((next, child, depth + 1));
            }
        }
        true
    }

    /// Merges the workers' walks (in worker-id order) into the run's
    /// result. `store` is the raw accounting of the run's store, `None`
    /// when there was none.
    pub(crate) fn finish(
        self,
        walks: impl IntoIterator<Item = Walk<M>>,
        store: Option<StoreStats>,
    ) -> ExploreResult<M> {
        let mut walks = walks.into_iter();
        let mut all = walks.next().expect("worker 0's walk");
        let mut arenas = vec![std::mem::take(&mut all.arena)];
        for w in walks {
            all.generated += w.generated;
            all.fresh += w.fresh;
            all.stuck += w.stuck;
            all.truncated |= w.truncated;
            all.interrupted = all.interrupted.or(w.interrupted);
            all.finals.extend(w.finals);
            all.final_nodes.extend(w.final_nodes);
            all.violations.extend(w.violations);
            arenas.push(w.arena);
        }
        let trace = |(c, node)| (c, trace_of(&arenas, node));
        ExploreResult {
            unique: 1 + all.fresh,
            generated: all.generated,
            finals: all.finals,
            final_traces: if self.cfg.witness_traces {
                all.final_nodes
                    .iter()
                    .map(|&n| trace_of(&arenas, n))
                    .collect()
            } else {
                Vec::new()
            },
            truncated: all.truncated,
            violations: all.violations.into_iter().map(trace).collect(),
            stuck: all.stuck,
            interrupted: all.interrupted,
            store_stats: store.map(|s| store_block(self.cfg, self.sym.is_some(), s)),
            sym_classes: self.sym,
        }
    }
}

/// The `"store"` block every engine reports: the kind is `sym` whenever
/// symmetry applied, otherwise the store the run named.
fn store_block(cfg: &ExploreConfig, sym: bool, raw: StoreStats) -> StoreStats {
    StoreStats {
        kind: if sym { StoreKind::Sym } else { cfg.store },
        sym,
        ..raw
    }
}

/// Each kernel behaviour under both schedules: the sequential engine and
/// the parallel one at 1, 2 and 4 workers.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnyBackend, ExploreBackend};
    use c11_core::model::RaModel;
    use c11_lang::parse_program;
    use std::collections::HashSet;

    const SB: &str = "vars x y;
         thread t1 { x := 1; r0 <- y; }
         thread t2 { y := 1; r0 <- x; }";

    fn schedules() -> Vec<AnyBackend> {
        let parallel = [1, 2, 4].map(AnyBackend::parallel);
        [AnyBackend::sequential()]
            .into_iter()
            .chain(parallel)
            .collect()
    }

    fn run(b: AnyBackend, src: &str, cfg: &ExploreConfig) -> ExploreResult<RaModel> {
        b.run(&RaModel, &parse_program(src).unwrap(), cfg)
    }

    #[test]
    fn schedules_agree_on_counts_and_finals() {
        let cfg = ExploreConfig::default();
        for src in [SB, "vars x; thread t { skip; }"] {
            let seq = run(AnyBackend::sequential(), src, &cfg);
            let mut want = seq.final_snapshots();
            want.sort();
            for b in schedules() {
                let res = run(b, src, &cfg);
                assert_eq!(res.unique, seq.unique, "{b:?}");
                assert_eq!(res.generated, seq.generated, "{b:?}");
                assert!(!res.truncated);
                let mut got = res.final_snapshots();
                got.sort();
                assert_eq!(got, want, "{b:?}");
            }
        }
    }

    #[test]
    fn invariant_violation_comes_with_trace() {
        let prog = parse_program("vars x; thread t { x := 1; x := 2; }").unwrap();
        // "x never written twice" fails after wr(x,1), τ, wr(x,2).
        let inv = |c: &Config<RaModel>| c.mem.len() < 3;
        for b in schedules() {
            let res = b.run_invariant(&RaModel, &prog, &ExploreConfig::default(), &inv);
            let (_, trace) = &res.violations[0];
            assert_eq!(trace.len(), 3, "{b:?}");
            assert!(matches!(trace[0].label, StepLabel::Act(_)));
            assert!(matches!(trace[1].label, StepLabel::Tau));
            assert!(matches!(trace[2].label, StepLabel::Act(_)));
        }
    }

    #[test]
    fn bounds_truncate() {
        let spin = "vars x; thread t { while (x == 0) { skip; } }";
        let writers = "vars x y;
             thread t1 { x := 1; x := 2; x := 3; }
             thread t2 { y := 1; y := 2; y := 3; }";
        for b in schedules() {
            let res = run(b, spin, &ExploreConfig::default().max_events(8));
            assert!(
                res.truncated,
                "{b:?}: spinning forever must hit the event bound"
            );
            assert!(res.finals.is_empty(), "{b:?}: x never becomes non-zero");
            let res = run(b, writers, &ExploreConfig::default().max_states(10));
            assert!(res.truncated, "{b:?}: the state cap must truncate");
            // The parallel overshoot is bounded by one batch of
            // successors per worker.
            let cap = if b == AnyBackend::sequential() {
                11
            } else {
                99
            };
            assert!(res.unique <= cap, "{b:?}: {}", res.unique);
        }
    }

    #[test]
    fn witness_traces_reach_every_final() {
        for b in schedules() {
            let res = run(b, SB, &ExploreConfig::default().witness_traces(true));
            assert_eq!(res.final_traces.len(), res.finals.len());
            for trace in &res.final_traces {
                // Each final is reached by a schedule covering both threads.
                let tids: HashSet<u8> = trace.iter().map(|s| s.tid.0).collect();
                assert_eq!(tids.len(), 2, "{b:?}");
            }
            assert!(run(b, SB, &ExploreConfig::default())
                .final_traces
                .is_empty());
        }
    }
}
