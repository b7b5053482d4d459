//! The pluggable memory-model interface of the interpreted semantics
//! (paper §3.3), with three instantiations: RA, pre-executions and SC.

use crate::event::EventId;
use crate::semantics::{read_transitions, update_transitions, write_transitions};
use crate::state::C11State;
use c11_lang::{Action, ActionShape, Prog, ThreadId, Val};
use c11_relations::Relation;
use std::fmt::Debug;
use std::hash::Hash;

/// One enabled memory transition for an action shape.
#[derive(Clone, Debug)]
pub struct Transition<S> {
    /// The concrete action (read value resolved by the model).
    pub action: Action,
    /// The write observed (`w` in `σ —w,e→ σ'`); `None` for models without
    /// an observation notion (pre-executions, SC).
    pub observed: Option<EventId>,
    /// Id of the appended event, for models that track events.
    pub event: Option<EventId>,
    /// The successor memory state.
    pub state: S,
}

/// A memory model `M` pluggable into the interpreted semantics:
/// `(P, σ) ⟹_M (P', σ')` (paper §3.3). The model decides which concrete
/// actions realise an action shape and how the memory state evolves.
pub trait MemoryModel {
    /// The model's state type (`Σ`).
    type State: Clone + PartialEq + Eq + Hash + Debug;

    /// Canonical form of a state used for deduplication during
    /// exploration. States reachable by different interleavings of the
    /// same execution should share a key (see [`C11State::canonical`]).
    type CanonKey: Clone + PartialEq + Eq + Hash;

    /// The initial state for a program's declared variables.
    fn init(&self, prog: &Prog) -> Self::State;

    /// All transitions enabled for thread `t` performing `shape`.
    fn transitions(
        &self,
        state: &Self::State,
        t: ThreadId,
        shape: &ActionShape,
    ) -> Vec<Transition<Self::State>>;

    /// The canonical key of a state.
    fn canonical_key(&self, state: &Self::State) -> Self::CanonKey;

    /// A 128-bit fingerprint of the state's canonical form — the
    /// exploration dedup key. Two states with equal canonical keys must
    /// fingerprint equal; distinct keys collide only with ~2⁻¹²⁸
    /// probability (see `c11_core::fingerprint`). The default hashes the
    /// materialised canonical key; models override it when they can
    /// fingerprint without materialising (see [`C11State::fingerprint`]).
    fn state_fingerprint(&self, state: &Self::State) -> u128 {
        crate::fingerprint::hash128_of(&self.canonical_key(state))
    }

    /// A size measure used to bound exploration of growing states (event
    /// count for event-based models; 0 for store-based models).
    fn state_size(&self, state: &Self::State) -> usize;

    /// Independence oracle for partial-order reduction: may the two
    /// enabled action steps (by *different* threads) be executed in
    /// either order from `state`, reaching the same canonical state with
    /// neither step changing the set of concrete transitions enabled for
    /// the other? `true` lets the source-set engine prune one of the two
    /// orders; a wrong `true` loses states, so the default is the
    /// maximally conservative `false` (the reduction then degenerates
    /// to exploring every order, which is always sound). Implementations
    /// must be symmetric in `a`/`b`.
    fn actions_independent(
        &self,
        _state: &Self::State,
        _a: (ThreadId, &ActionShape),
        _b: (ThreadId, &ActionShape),
    ) -> bool {
        false
    }

    /// Does this model implement the thread-relabelling hooks below
    /// exactly? Thread ids are pure names in the interpreted semantics,
    /// so relabelling is always a semantics equivariance — but a model
    /// must *implement* [`MemoryModel::state_fingerprint_relabelled`]
    /// for the symmetry quotient to merge anything. The conservative
    /// default `false` makes symmetry reduction silently degrade to
    /// flat keying (sound, no reduction).
    fn symmetry_exact(&self) -> bool {
        false
    }

    /// The fingerprint of `state` with every thread id rewritten through
    /// `map` (`map[old] = new`, `map[0] = 0`, injective). Must equal
    /// [`MemoryModel::state_fingerprint`] of the relabelled state. The
    /// default ignores the map — only sound to *use* when
    /// [`MemoryModel::symmetry_exact`] is `false` (the engine then never
    /// calls this with a non-identity map).
    fn state_fingerprint_relabelled(&self, state: &Self::State, _map: &[u8]) -> u128 {
        self.state_fingerprint(state)
    }

    /// A thread-naming-independent digest of thread `t`'s contribution
    /// to the state, used by symmetry canonicalisation to order the
    /// members of a symmetry class. Any equivariant function works (it
    /// only steers which relabellings get probed first); the default is
    /// the trivially equivariant constant.
    fn thread_mem_key(&self, _state: &Self::State, _t: ThreadId) -> u64 {
        0
    }

    /// Placement oracle for the source-set engine: the ids of the *old*
    /// events that the step's fresh event (`event` in `next`) was ordered
    /// before by the step's coherence insertion, in coherence order
    /// (the directly-overtaken event first). A write transition that
    /// overtakes another thread's write re-derives, step for step, the
    /// state the *reversed* execution order reaches by appending — so the
    /// source-set engine prunes such a successor whenever the reversed
    /// order is itself explored (the reversal is then already
    /// scheduled). Models without placement choice (store-based SC, the
    /// append-only pre-execution semantics) keep the empty default,
    /// which disables the pruning.
    fn step_overtakes(
        &self,
        _prev: &Self::State,
        _next: &Self::State,
        _event: Option<usize>,
    ) -> Vec<usize> {
        Vec::new()
    }
}

/// Shape-level race check shared by the models that can claim
/// independence: two action shapes race iff they touch the same variable
/// and at least one of them writes it (updates count as writes). For the
/// shipped models, non-racing cross-thread steps commute exactly:
///
/// * disjoint variables — a step on `x` only adds edges incident to its
///   own fresh event, so neither the `mo` insertion points nor the
///   observable-write set (`eco? ; hb?` reaches ending in the *other*
///   thread's events) of a `y`-step change, and appending in either
///   order yields the same canonical state;
/// * two plain reads of the same variable — a read adds an `rf` edge
///   into its own fresh (hb-maximal) event, which no observability query
///   of another thread can pass through.
pub fn shapes_race(a: &ActionShape, b: &ActionShape) -> bool {
    let var = |s: &ActionShape| match *s {
        ActionShape::Read { var, .. }
        | ActionShape::Write { var, .. }
        | ActionShape::Update { var, .. } => var,
    };
    let writes = |s: &ActionShape| !matches!(s, ActionShape::Read { .. });
    var(a) == var(b) && (writes(a) || writes(b))
}

/// The paper's operational RA semantics (§3.2 / Figure 3).
#[derive(Clone, Copy, Debug, Default)]
pub struct RaModel;

impl MemoryModel for RaModel {
    type State = C11State;
    type CanonKey = crate::state::CanonicalState;

    fn init(&self, prog: &Prog) -> C11State {
        C11State::initial(&prog.inits)
    }

    fn transitions(
        &self,
        state: &C11State,
        t: ThreadId,
        shape: &ActionShape,
    ) -> Vec<Transition<C11State>> {
        let ra = match *shape {
            ActionShape::Read { var, acquire } => read_transitions(state, t, var, acquire),
            ActionShape::Write { var, val, release } => {
                write_transitions(state, t, var, val, release)
            }
            ActionShape::Update { var, new } => update_transitions(state, t, var, new),
        };
        ra.into_iter()
            .map(|tr| Transition {
                action: tr.action,
                observed: Some(tr.observed),
                event: Some(tr.event),
                state: tr.state,
            })
            .collect()
    }

    fn canonical_key(&self, state: &C11State) -> Self::CanonKey {
        state.canonical()
    }

    fn state_fingerprint(&self, state: &C11State) -> u128 {
        state.fingerprint()
    }

    fn state_size(&self, state: &C11State) -> usize {
        state.len()
    }

    fn actions_independent(
        &self,
        _state: &C11State,
        a: (ThreadId, &ActionShape),
        b: (ThreadId, &ActionShape),
    ) -> bool {
        a.0 != b.0 && !shapes_race(a.1, b.1)
    }

    fn symmetry_exact(&self) -> bool {
        true
    }

    fn state_fingerprint_relabelled(&self, state: &C11State, map: &[u8]) -> u128 {
        state.fingerprint_relabelled(map)
    }

    fn thread_mem_key(&self, state: &C11State, t: ThreadId) -> u64 {
        state.thread_obs_key(t)
    }

    fn step_overtakes(
        &self,
        _prev: &C11State,
        next: &C11State,
        event: Option<usize>,
    ) -> Vec<usize> {
        // `mo` is kept transitively closed, so the image of the fresh
        // event is exactly the set of writes it was inserted before;
        // `mo` restricted to one variable is total, so sorting by it
        // puts the directly-overtaken event first.
        let Some(e) = event else {
            return Vec::new();
        };
        let mut overtaken: Vec<usize> = next.mo().image(e).collect();
        overtaken.sort_by(|&a, &b| {
            if a == b {
                std::cmp::Ordering::Equal
            } else if next.mo().contains(a, b) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
        overtaken
    }
}

/// The pre-execution semantics of §4.1: states are `(D, sb)` only, and a
/// read may return *any* value from the program's value universe (reads
/// are justified post-hoc by the axiomatic semantics).
///
/// Represented as a [`C11State`] whose `rf` and `mo` stay empty.
#[derive(Clone, Debug)]
pub struct PreExecutionModel {
    /// Values a read may return. Built from [`Prog::value_universe`].
    pub universe: Vec<Val>,
}

impl PreExecutionModel {
    /// Builds the model for a program (universe = values occurring in the
    /// program text and its initialisation).
    pub fn for_program(prog: &Prog) -> PreExecutionModel {
        PreExecutionModel {
            universe: prog.value_universe(),
        }
    }
}

impl MemoryModel for PreExecutionModel {
    type State = C11State;
    type CanonKey = crate::state::CanonicalState;

    fn init(&self, prog: &Prog) -> C11State {
        C11State::initial(&prog.inits)
    }

    fn transitions(
        &self,
        state: &C11State,
        t: ThreadId,
        shape: &ActionShape,
    ) -> Vec<Transition<C11State>> {
        use crate::event::Event;
        let mut out = Vec::new();
        let mut push = |action: Action| {
            let (next, e) = state.append_event(Event::new(t, action));
            out.push(Transition {
                action,
                observed: None,
                event: Some(e),
                state: next,
            });
        };
        match *shape {
            ActionShape::Read { .. } | ActionShape::Update { .. } => {
                for &v in &self.universe {
                    push(shape.instantiate(v));
                }
            }
            ActionShape::Write { .. } => push(shape.instantiate(0)),
        }
        out
    }

    fn canonical_key(&self, state: &C11State) -> Self::CanonKey {
        state.canonical()
    }

    fn state_fingerprint(&self, state: &C11State) -> u128 {
        state.fingerprint()
    }

    fn state_size(&self, state: &C11State) -> usize {
        state.len()
    }

    fn actions_independent(
        &self,
        _state: &C11State,
        a: (ThreadId, &ActionShape),
        b: (ThreadId, &ActionShape),
    ) -> bool {
        // Pre-execution steps only append events (Prop 4.1 commutation),
        // but the shared variable-footprint rule is kept for uniformity.
        a.0 != b.0 && !shapes_race(a.1, b.1)
    }

    fn symmetry_exact(&self) -> bool {
        true
    }

    fn state_fingerprint_relabelled(&self, state: &C11State, map: &[u8]) -> u128 {
        state.fingerprint_relabelled(map)
    }

    fn thread_mem_key(&self, state: &C11State, t: ThreadId) -> u64 {
        state.thread_obs_key(t)
    }
}

/// ABLATION MODEL (experiment E15): the RA semantics with the `eco?`
/// component of encountered-writes removed (`hb?`-only reach). Admits
/// states that violate the Coherence axiom — exploring with this model
/// and counting `is_valid` failures measures how load-bearing the
/// extended coherence order is in the paper's observability definition.
#[derive(Clone, Copy, Debug, Default)]
pub struct WeakObsRaModel;

impl MemoryModel for WeakObsRaModel {
    type State = C11State;
    type CanonKey = crate::state::CanonicalState;

    fn init(&self, prog: &Prog) -> C11State {
        C11State::initial(&prog.inits)
    }

    fn transitions(
        &self,
        state: &C11State,
        t: ThreadId,
        shape: &ActionShape,
    ) -> Vec<Transition<C11State>> {
        use crate::obs::observable_writes_hb_only as weak;
        use crate::semantics::{
            read_transitions_using, update_transitions_using, write_transitions_using,
        };
        let ra = match *shape {
            ActionShape::Read { var, acquire } => {
                read_transitions_using(state, t, var, acquire, weak)
            }
            ActionShape::Write { var, val, release } => {
                write_transitions_using(state, t, var, val, release, weak)
            }
            ActionShape::Update { var, new } => update_transitions_using(state, t, var, new, weak),
        };
        ra.into_iter()
            .map(|tr| Transition {
                action: tr.action,
                observed: Some(tr.observed),
                event: Some(tr.event),
                state: tr.state,
            })
            .collect()
    }

    fn canonical_key(&self, state: &C11State) -> Self::CanonKey {
        state.canonical()
    }

    fn state_fingerprint(&self, state: &C11State) -> u128 {
        state.fingerprint()
    }

    fn state_size(&self, state: &C11State) -> usize {
        state.len()
    }
}

/// A sequentially consistent baseline: the "conventional setting" of the
/// paper's §5, where the store is a simple map from variables to values.
/// Used to contrast verdicts (a litmus behaviour allowed under RA but not
/// SC demonstrates weak-memory effects) and as the benchmark baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScModel;

/// The SC store: one value per variable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScState {
    /// `mem[v]` is the current value of `VarId(v)`.
    pub mem: Vec<Val>,
}

impl MemoryModel for ScModel {
    type State = ScState;
    type CanonKey = ScState;

    fn init(&self, prog: &Prog) -> ScState {
        ScState {
            mem: prog.inits.clone(),
        }
    }

    fn transitions(
        &self,
        state: &ScState,
        _t: ThreadId,
        shape: &ActionShape,
    ) -> Vec<Transition<ScState>> {
        match *shape {
            ActionShape::Read { var, .. } => {
                let val = state.mem[var.0 as usize];
                vec![Transition {
                    action: shape.instantiate(val),
                    observed: None,
                    event: None,
                    state: state.clone(),
                }]
            }
            ActionShape::Write { var, val, .. } => {
                let mut next = state.clone();
                next.mem[var.0 as usize] = val;
                vec![Transition {
                    action: shape.instantiate(0),
                    observed: None,
                    event: None,
                    state: next,
                }]
            }
            ActionShape::Update { var, new } => {
                let old = state.mem[var.0 as usize];
                let mut next = state.clone();
                next.mem[var.0 as usize] = new;
                vec![Transition {
                    action: Action::Upd { var, old, new },
                    observed: None,
                    event: None,
                    state: next,
                }]
            }
        }
    }

    fn canonical_key(&self, state: &ScState) -> ScState {
        state.clone()
    }

    fn state_size(&self, _state: &ScState) -> usize {
        0
    }

    fn actions_independent(
        &self,
        _state: &ScState,
        a: (ThreadId, &ActionShape),
        b: (ThreadId, &ActionShape),
    ) -> bool {
        a.0 != b.0 && !shapes_race(a.1, b.1)
    }

    fn symmetry_exact(&self) -> bool {
        // The SC store has no thread-indexed content at all, so every
        // relabelling fixes the state: the defaults are already exact.
        true
    }
}

/// Checks Proposition 4.1 / 2.3 commutation on a pre-execution state: two
/// steps by different threads can be taken in either order reaching the
/// same final `(D, sb)` up to canonical renaming. Exposed as a helper so
/// tests and the completeness machinery can assert it.
pub fn pe_steps_commute(state: &C11State, a: (ThreadId, Action), b: (ThreadId, Action)) -> bool {
    use crate::event::Event;
    if a.0 == b.0 {
        return true; // only cross-thread commutation is claimed
    }
    let ab = {
        let (s1, _) = state.append_event(Event::new(a.0, a.1));
        let (s2, _) = s1.append_event(Event::new(b.0, b.1));
        s2.canonical()
    };
    let ba = {
        let (s1, _) = state.append_event(Event::new(b.0, b.1));
        let (s2, _) = s1.append_event(Event::new(a.0, a.1));
        s2.canonical()
    };
    ab == ba
}

/// Convenience: an `rf`-free, `mo`-free projection check — `true` iff the
/// state is a pure pre-execution (used in assertions).
pub fn is_pre_execution(state: &C11State) -> bool {
    state.rf() == &Relation::new(state.len()).clone() && state.mo().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_lang::{ActionShape, VarId};

    const X: VarId = VarId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn prog_xy() -> Prog {
        Prog::new(vec![("x".into(), 0), ("y".into(), 0)], vec![])
    }

    #[test]
    fn ra_model_wraps_event_semantics() {
        let m = RaModel;
        let s = m.init(&prog_xy());
        let ts = m.transitions(
            &s,
            T1,
            &ActionShape::Read {
                var: X,
                acquire: false,
            },
        );
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].action.rdval(), Some(0));
        assert!(ts[0].observed.is_some());
    }

    #[test]
    fn pre_execution_reads_any_universe_value() {
        let mut prog = prog_xy();
        prog.inits = vec![0, 9];
        let m = PreExecutionModel::for_program(&prog);
        let s = m.init(&prog);
        let ts = m.transitions(
            &s,
            T1,
            &ActionShape::Read {
                var: X,
                acquire: false,
            },
        );
        let vals: Vec<Val> = ts.iter().filter_map(|t| t.action.rdval()).collect();
        assert_eq!(vals, prog.value_universe());
        // rf and mo stay empty in pre-executions.
        assert!(ts.iter().all(|t| is_pre_execution(&t.state)));
    }

    #[test]
    fn sc_model_is_deterministic() {
        let m = ScModel;
        let prog = prog_xy();
        let s = m.init(&prog);
        let w = &m.transitions(
            &s,
            T1,
            &ActionShape::Write {
                var: X,
                val: 4,
                release: false,
            },
        )[0];
        let r = &m.transitions(
            &w.state,
            T2,
            &ActionShape::Read {
                var: X,
                acquire: false,
            },
        )[0];
        assert_eq!(r.action.rdval(), Some(4));
        // SC has exactly one transition per shape.
        assert_eq!(
            m.transitions(&w.state, T2, &ActionShape::Update { var: X, new: 6 })
                .len(),
            1
        );
    }

    #[test]
    fn sc_update_reads_current_value() {
        let m = ScModel;
        let prog = prog_xy();
        let s = m.init(&prog);
        let u = &m.transitions(&s, T1, &ActionShape::Update { var: X, new: 3 })[0];
        assert_eq!(u.action.rdval(), Some(0));
        assert_eq!(u.state.mem[0], 3);
    }

    #[test]
    fn shapes_race_is_the_variable_footprint_rule() {
        let rd = |var| ActionShape::Read {
            var,
            acquire: false,
        };
        let wr = |var| ActionShape::Write {
            var,
            val: 1,
            release: false,
        };
        let upd = |var| ActionShape::Update { var, new: 2 };
        let y = VarId(1);
        // Same variable: races unless both sides only read.
        assert!(!shapes_race(&rd(X), &rd(X)));
        assert!(shapes_race(&rd(X), &wr(X)));
        assert!(shapes_race(&wr(X), &wr(X)));
        assert!(shapes_race(&rd(X), &upd(X)), "updates write");
        // Disjoint variables never race.
        assert!(!shapes_race(&wr(X), &wr(y)));
        assert!(!shapes_race(&upd(X), &rd(y)));
    }

    #[test]
    fn independence_requires_distinct_threads_and_is_symmetric() {
        let s = RaModel.init(&prog_xy());
        let rd = ActionShape::Read {
            var: X,
            acquire: true,
        };
        let wr = ActionShape::Write {
            var: VarId(1),
            val: 3,
            release: true,
        };
        assert!(RaModel.actions_independent(&s, (T1, &rd), (T2, &wr)));
        assert!(RaModel.actions_independent(&s, (T2, &wr), (T1, &rd)));
        assert!(!RaModel.actions_independent(&s, (T1, &rd), (T1, &wr)));
        // The ablation model keeps the conservative default.
        assert!(!WeakObsRaModel.actions_independent(&s, (T1, &rd), (T2, &wr)));
        // The SC baseline shares the footprint rule.
        let sc = ScModel.init(&prog_xy());
        assert!(ScModel.actions_independent(&sc, (T1, &rd), (T2, &wr)));
    }

    #[test]
    fn prop_4_1_pe_commutation() {
        let prog = prog_xy();
        let m = PreExecutionModel::for_program(&prog);
        let s = m.init(&prog);
        let a = (
            T1,
            Action::Wr {
                var: X,
                val: 1,
                release: false,
            },
        );
        let b = (
            T2,
            Action::Rd {
                var: X,
                val: 1,
                acquire: false,
            },
        );
        assert!(pe_steps_commute(&s, a, b));
    }
}
