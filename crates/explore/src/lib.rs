//! Exhaustive exploration (bounded model checking) of interpreted-semantics
//! configurations.
//!
//! The paper's verification method reasons inductively over the transitions
//! of the operational semantics; this crate provides the machinery to
//! *mechanically* quantify over those transitions: breadth-first
//! enumeration of every reachable configuration `(P, σ)` with
//! canonical-state deduplication, invariant checking with counterexample
//! traces, and loop bounding via the memory state's event count.
//!
//! Exploration is generic in the memory model (RA, pre-execution, SC), so
//! the same engine drives the litmus runner (E14), the soundness sweep
//! (E6), the completeness construction (E7), the Peterson verification
//! (E11) and the benchmark baselines (E13).
//!
//! Three engines implement the [`ExploreBackend`] contract, selected
//! along two orthogonal axes ([`Engine`] × [`Reduction`]). The two
//! exhaustive engines — the sequential BFS reference ([`engine`]) and
//! the contention-free parallel engine ([`par`]) — share one frontier
//! kernel (`kernel.rs`): the per-state work (bounds, successors, dedup,
//! traces, invariant, finals) and the assembly of the result are written
//! once, and the engines differ only in how they schedule the frontier.
//! The source-set dynamic-partial-order-reduction engine ([`source`])
//! explores one execution per Mazurkiewicz trace under the finals-only
//! contract, reusing the kernel's prologue and result assembly.

pub mod backend;
pub mod budget;
pub mod engine;
mod kernel;
pub mod par;
pub mod source;
pub mod stats;
pub mod sym;

pub use backend::{
    AnyBackend, Engine, ExploreBackend, ParallelBackend, Reduction, SequentialBackend,
};
pub use budget::{Budget, Interrupt};
pub use c11_store::{StoreKind, StoreStats};
pub use engine::{
    explore_invariant_with, render_trace, ExploreConfig, ExploreResult, Explorer, RegSnapshot,
    TraceStep,
};
pub use par::{parallel_explore, parallel_explore_invariant};
pub use source::{explore_source, explore_source_invariant};
pub use stats::Stats;
pub use sym::SymClasses;
