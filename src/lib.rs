//! # c11-operational
//!
//! A Rust reproduction of *"Verifying C11 Programs Operationally"*
//! (Doherty, Dongol, Wehrheim, Derrick — PPoPP 2019): an operational
//! semantics for the release/acquire/relaxed (RAR) fragment of the C11
//! memory model, validated against the axiomatic semantics, together with
//! the paper's invariant-based proof calculus and its case studies.
//!
//! This façade crate re-exports the workspace crates:
//!
//! * [`api`] — **the front door**: the [`prelude::CheckRequest`] →
//!   [`prelude::CheckReport`] API every consumer (CLI, tests, services)
//!   goes through, and the [`prelude::Session`] service layer on top —
//!   a shared worker pool with a fingerprint-keyed result cache, batch
//!   submission ([`prelude::Session::run_batch`]) and the `c11serve`
//!   JSONL front-end.
//! * [`relations`] — finite relations and bitsets (substrate).
//! * [`lang`] — the command language and its uninterpreted semantics
//!   (paper §2).
//! * [`core`] — C11 states, observability, and the RA event semantics
//!   (paper §3), plus the pluggable [`core::model::MemoryModel`] interface
//!   with pre-execution and SC instantiations.
//! * [`axiomatic`] — the validity axioms, justification search, weak
//!   canonical consistency and the bounded Memalloy-style equivalence
//!   checker (paper §4 + Appendix C/E).
//! * [`explore`] — exhaustive model checkers over configurations: the
//!   sequential reference engine and the work-stealing parallel engine
//!   ([`prelude::Engine`]), optionally composed with a partial-order
//!   reduction ([`prelude::Reduction`]: source-set DPOR),
//!   behind one [`explore::ExploreBackend`] trait.
//! * [`verify`] — determinate-value / variable-ordering assertions and the
//!   Figure-4 rule engine (paper §5), with the Peterson and message-passing
//!   proofs.
//! * [`litmus`] — a corpus of litmus tests with expected RAR verdicts.
//!
//! ## Quickstart
//!
//! One request type covers every engine and question — pick a model, an
//! engine × reduction pair and a mode, and get a structured report back:
//!
//! ```
//! use c11_operational::prelude::*;
//!
//! // Message passing: t1 publishes data then raises a release flag;
//! // t2 acquires the flag, then reads the data.
//! let report = CheckRequest::program(
//!     "vars d f;
//!      thread t1 { d := 5; f :=R 1; }
//!      thread t2 { r0 <-A f; r1 <- d; }",
//! )
//! .model(ModelChoice::Ra)
//! .engine(Engine::Parallel { workers: 2 })
//! .mode(Mode::Outcomes)
//! .run()
//! .expect("program parses");
//!
//! // In the RAR fragment, seeing the flag means seeing the data.
//! let CheckReport::Outcomes(outcomes) = &report else { unreachable!() };
//! assert!(!outcomes.stats.truncated);
//! assert_eq!(outcomes.invalid_finals, 0); // Theorem 4.4 self-check
//! println!("{}", report.to_json()); // machine-readable (c11check/v1)
//!
//! // The exploration engines remain directly accessible:
//! let prog = parse_program("vars x; thread t { x := 1; }").unwrap();
//! let result = Explorer::new(RaModel).explore(&prog, ExploreConfig::default());
//! assert_eq!(result.finals.len(), 1);
//!
//! // Long-lived consumers hold a `Session`: repeated submissions of the
//! // same program are answered from the fingerprint-keyed result cache.
//! let session = Session::new(SessionConfig::default().workers(2));
//! let mk = || CheckRequest::program("vars x; thread t { x := 1; }");
//! assert!(!session.run(mk()).unwrap().cache_hit());
//! assert!(session.run(mk()).unwrap().cache_hit());
//! ```

pub use c11_api as api;
pub use c11_axiomatic as axiomatic;
pub use c11_core as core;
pub use c11_explore as explore;
pub use c11_lang as lang;
pub use c11_litmus as litmus;
pub use c11_relations as relations;
pub use c11_verify as verify;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use c11_api::{
        BatchReport, BatchRequest, BatchStats, Bounds, CheckError, CheckReport, CheckRequest,
        ConfigView, Engine, Invariant, JobId, Meta, Mode, ModelChoice, OutcomeRow, ProgramInput,
        Reduction, Session, SessionConfig, SessionStats,
    };
    pub use c11_axiomatic::axioms::{check_validity, is_valid, Axiom, Violation};
    pub use c11_core::event::{Event, EventId};
    pub use c11_core::model::{MemoryModel, PreExecutionModel, RaModel, ScModel, Transition};
    pub use c11_core::state::C11State;
    pub use c11_core::{Action, ThreadId};
    pub use c11_explore::{
        Budget, ExploreBackend, ExploreConfig, Explorer, Interrupt, ParallelBackend, RegSnapshot,
        SequentialBackend, Stats, StoreKind, StoreStats, SymClasses,
    };
    pub use c11_lang::ast::{BinOp, Com, Exp, Prog, RegId, Val, VarId};
    pub use c11_lang::parser::parse_program;
    pub use c11_verify::assertions::{determinate_value, update_only, variable_order};
}
