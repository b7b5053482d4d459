//! The backend abstraction: one exploration contract, many engines.
//!
//! [`ExploreBackend`] is the seam the api crate's `CheckRequest` plugs
//! into: every engine that can enumerate the reachable configurations of a
//! program under a memory model implements it and returns the same
//! [`ExploreResult`]. The request surface selects a backend along two
//! orthogonal axes — an [`Engine`] (who does the walking: the sequential
//! reference or the parallel engine) × a [`Reduction`] (how much of the
//! state space the walk may skip: none, or the finals-only source sets)
//! — combined into the pool-friendly [`AnyBackend`] handle. The concrete
//! exhaustive implementations are [`SequentialBackend`] and
//! [`ParallelBackend`]; the source-set reduction runs through
//! [`AnyBackend::source_set`] (see [`crate::source`]).

use crate::engine::{explore_invariant_with, ExploreConfig, ExploreResult};
use crate::par::parallel_explore_invariant;
use crate::source::explore_source_invariant;
use c11_core::config::Config;
use c11_core::model::MemoryModel;
use c11_lang::Prog;

/// An exploration engine for a memory model `M`.
///
/// The invariant closure is `Fn + Sync` (not `FnMut`) so one contract
/// covers both sequential and parallel engines; accumulate findings
/// through interior mutability (or use [`ExploreResult::violations`],
/// which every backend fills).
pub trait ExploreBackend<M: MemoryModel> {
    /// A short human-readable name ("sequential", "parallel(4)").
    fn name(&self) -> String;

    /// Explores all reachable configurations within `cfg`'s bounds,
    /// checking `inv` on each.
    fn run_invariant(
        &self,
        model: &M,
        prog: &Prog,
        cfg: &ExploreConfig,
        inv: &(dyn Fn(&Config<M>) -> bool + Sync),
    ) -> ExploreResult<M>;

    /// Explores without an invariant.
    fn run(&self, model: &M, prog: &Prog, cfg: &ExploreConfig) -> ExploreResult<M> {
        self.run_invariant(model, prog, cfg, &|_| true)
    }
}

/// The sequential BFS engine (deterministic; the reference).
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialBackend;

impl<M: MemoryModel> ExploreBackend<M> for SequentialBackend {
    fn name(&self) -> String {
        "sequential".to_string()
    }

    fn run_invariant(
        &self,
        model: &M,
        prog: &Prog,
        cfg: &ExploreConfig,
        inv: &(dyn Fn(&Config<M>) -> bool + Sync),
    ) -> ExploreResult<M> {
        explore_invariant_with(model, prog, cfg, |c| inv(c))
    }
}

/// The parallel engine (see [`crate::par`]): worker-private queues with
/// chunk donation, a striped lock-free visited filter, and per-worker
/// arenas merged at the scope join. Requires the model and its states to
/// cross *and share across* threads; always deduplicates.
#[derive(Clone, Copy, Debug)]
pub struct ParallelBackend {
    /// Number of worker threads (clamped to ≥ 1).
    pub workers: usize,
}

impl ParallelBackend {
    /// A parallel backend with `workers` threads.
    pub fn new(workers: usize) -> ParallelBackend {
        ParallelBackend { workers }
    }
}

impl<M> ExploreBackend<M> for ParallelBackend
where
    M: MemoryModel + Sync,
    M::State: Send + Sync,
{
    fn name(&self) -> String {
        format!("parallel({})", self.workers.max(1))
    }

    fn run_invariant(
        &self,
        model: &M,
        prog: &Prog,
        cfg: &ExploreConfig,
        inv: &(dyn Fn(&Config<M>) -> bool + Sync),
    ) -> ExploreResult<M> {
        parallel_explore_invariant(model, prog, cfg, self.workers, inv)
    }
}

/// Who does the walking: the two exploration engines proper, orthogonal
/// to the [`Reduction`] strategy layered on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The sequential reference engine (deterministic).
    #[default]
    Sequential,
    /// The contention-free parallel engine with `workers` threads.
    Parallel {
        /// Worker threads (clamped to ≥ 1).
        workers: usize,
    },
}

impl Engine {
    /// Every engine kind, in CLI order (the parallel engine at its
    /// default two workers).
    pub const ALL: [Engine; 2] = [Engine::Sequential, Engine::Parallel { workers: 2 }];

    /// The canonical spelling (`"sequential"`, `"parallel"`).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Parallel { .. } => "parallel",
        }
    }

    /// Parses a canonical spelling (the inverse of [`Engine::kind_str`];
    /// `"parallel"` gets the default two workers).
    pub fn parse(s: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.kind_str() == s)
    }
}

/// How much of the state space the walk may skip.
///
/// `None` keeps the full exhaustive contract (every state, finals,
/// verdicts, violations); `SourceSet` trades the intermediate states
/// away under the finals-only contract (see [`crate::source`]). The
/// reduction runs on the sequential engine — combining it with
/// [`Engine::Parallel`] is rejected at the request layer (`c11_api`);
/// this handle, which must stay total, runs the reduction sequentially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// No reduction: visit every reachable configuration.
    #[default]
    None,
    /// Source-set DPOR ([`crate::source`]): one execution per trace,
    /// finals-only contract — `unique`/`generated` are intentionally
    /// smaller, while finals, verdicts, violations on the configurations
    /// it visits and the `truncated` flag match the sequential engine.
    SourceSet,
}

impl Reduction {
    /// Every reduction, in CLI order.
    pub const ALL: [Reduction; 2] = [Reduction::None, Reduction::SourceSet];

    /// Parses a canonical spelling (the inverse of
    /// [`Reduction::kind_str`]).
    pub fn parse(s: &str) -> Option<Reduction> {
        Reduction::ALL.into_iter().find(|r| r.kind_str() == s)
    }

    /// The canonical spelling (`"none"`, `"source-set"`).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Reduction::None => "none",
            Reduction::SourceSet => "source-set",
        }
    }

    /// The report contract this reduction upholds: `"exhaustive"` for
    /// no reduction, `"finals-only"` for the source-set reduction.
    pub fn contract_str(&self) -> &'static str {
        match self {
            Reduction::None => "exhaustive",
            Reduction::SourceSet => "finals-only",
        }
    }
}

/// A pool-friendly engine handle: a `Copy`, `Send + Sync` *value* naming
/// an [`Engine`] × [`Reduction`] selection, usable for every memory
/// model at once.
///
/// Schedulers that multiplex many checking jobs over shared worker
/// threads (the api crate's `Session`) cannot hold a `dyn
/// ExploreBackend<M>` — the model `M` differs per job (RA for one
/// request, SC for the next, both inside a litmus verdict). `AnyBackend`
/// is the monomorphisation-deferring form: ship the handle across the
/// pool, then let each job instantiate it at its own model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct AnyBackend {
    /// Who walks the state space.
    pub engine: Engine,
    /// How much of it the walk may skip.
    pub reduction: Reduction,
}

impl AnyBackend {
    /// The sequential engine, no reduction.
    pub fn sequential() -> AnyBackend {
        AnyBackend::default()
    }

    /// The parallel engine with `workers` threads, no reduction.
    pub fn parallel(workers: usize) -> AnyBackend {
        AnyBackend {
            engine: Engine::Parallel { workers },
            reduction: Reduction::None,
        }
    }

    /// The source-set DPOR engine (sequential, finals-only contract).
    pub fn source_set() -> AnyBackend {
        AnyBackend {
            engine: Engine::Sequential,
            reduction: Reduction::SourceSet,
        }
    }
}

impl<M> ExploreBackend<M> for AnyBackend
where
    M: MemoryModel + Sync,
    M::State: Send + Sync,
{
    fn name(&self) -> String {
        match (self.engine, self.reduction) {
            (Engine::Sequential, Reduction::None) => ExploreBackend::<M>::name(&SequentialBackend),
            (Engine::Parallel { workers }, Reduction::None) => {
                ExploreBackend::<M>::name(&ParallelBackend::new(workers))
            }
            (engine, reduction) => {
                format!("{}+{}", engine.kind_str(), reduction.kind_str())
            }
        }
    }

    fn run_invariant(
        &self,
        model: &M,
        prog: &Prog,
        cfg: &ExploreConfig,
        inv: &(dyn Fn(&Config<M>) -> bool + Sync),
    ) -> ExploreResult<M> {
        match (self.engine, self.reduction) {
            (Engine::Sequential, Reduction::None) => {
                SequentialBackend.run_invariant(model, prog, cfg, inv)
            }
            (Engine::Parallel { workers }, Reduction::None) => {
                ParallelBackend::new(workers).run_invariant(model, prog, cfg, inv)
            }
            // The reduction runs on the sequential engine (the request
            // layer rejects Parallel × reduction before it gets here).
            (_, Reduction::SourceSet) => explore_source_invariant(model, prog, cfg, |c| inv(c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_core::model::{RaModel, ScModel};
    use c11_lang::parse_program;

    #[test]
    fn trait_covers_store_based_models_too() {
        let prog = parse_program("vars x; thread t { x := 1; r0 <- x; }").unwrap();
        let cfg = ExploreConfig::default();
        let seq = SequentialBackend.run(&ScModel, &prog, &cfg);
        let par = ParallelBackend::new(2).run(&ScModel, &prog, &cfg);
        assert_eq!(seq.unique, par.unique);
    }

    #[test]
    fn any_backend_dispatches_across_the_engine_reduction_grid() {
        let prog = parse_program(
            "vars x y;
             thread t1 { x := 1; r0 <- y; }
             thread t2 { y := 1; r0 <- x; }",
        )
        .unwrap();
        let cfg = ExploreConfig::default();
        let reference = SequentialBackend.run(&RaModel, &prog, &cfg);
        for handle in [AnyBackend::sequential(), AnyBackend::parallel(2)] {
            // One Copy handle serves RA and SC without re-construction —
            // the property the session scheduler relies on.
            let ra = handle.run(&RaModel, &prog, &cfg);
            assert_eq!(ra.unique, reference.unique, "{:?}", handle);
            let sc = handle.run(&ScModel, &prog, &cfg);
            assert!(sc.unique <= ra.unique, "{:?}", handle);
        }
        // The source-set handle upholds the finals-only contract: same
        // finals, fewer (or equal) states.
        let src = AnyBackend::source_set().run(&RaModel, &prog, &cfg);
        assert_eq!(src.finals.len(), reference.finals.len());
        assert!(src.unique <= reference.unique);
        assert_eq!(
            ExploreBackend::<RaModel>::name(&AnyBackend::parallel(3)),
            "parallel(3)"
        );
    }

    #[test]
    fn axis_spellings_round_trip() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.kind_str()), Some(e));
        }
        for r in Reduction::ALL {
            assert_eq!(Reduction::parse(r.kind_str()), Some(r));
        }
        assert_eq!(Engine::parse("dpor"), None);
        assert_eq!(Reduction::parse("dpor"), None);
        assert_eq!(Reduction::parse("sleep-set"), None);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(
            ExploreBackend::<RaModel>::name(&SequentialBackend),
            "sequential"
        );
        assert_eq!(
            ExploreBackend::<RaModel>::name(&ParallelBackend::new(4)),
            "parallel(4)"
        );
        assert_eq!(
            ExploreBackend::<RaModel>::name(&AnyBackend::source_set()),
            "sequential+source-set"
        );
    }
}
