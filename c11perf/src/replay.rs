//! The sequential BFS replayed from outside the engine, through the
//! public layer entry points only: `Config::successors` (core, with the
//! relation closures inside it), the state fingerprint built from
//! `MemoryModel::state_fingerprint` + `hash128_of`/`combine128` (core),
//! and `AnyStore::insert` (store). Each call is timed and counted, so a
//! replay splits one exploration's time by layer. The replay must visit
//! exactly the states the engine visits: its unique/generated counts
//! are asserted equal to the engine's.

use c11_core::config::Config;
use c11_core::fingerprint::{combine128, hash128_of};
use c11_core::model::MemoryModel;
use c11_lang::Prog;
use c11_store::{AnyStore, StoreKind, VisitedStore};
use std::collections::VecDeque;
use std::time::Instant;

/// Per-layer counters summed over one or more replays.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `Config::successors` calls (one per expanded state).
    pub successors_calls: u64,
    /// Nanoseconds inside `Config::successors`.
    pub successors_ns: u64,
    /// Fingerprint computations (one per generated successor, plus roots).
    pub fingerprint_calls: u64,
    /// Nanoseconds computing fingerprints.
    pub fingerprint_ns: u64,
    /// `VisitedStore::insert` calls.
    pub insert_calls: u64,
    /// Inserts that found a new state.
    pub insert_new: u64,
    /// Nanoseconds inside `insert`.
    pub insert_ns: u64,
    /// Largest store footprint of any one replay, in bytes.
    pub bytes_resident_max: u64,
    /// Axiomatic validity checks on finals (outcomes mode, RA only).
    pub is_valid_calls: u64,
    /// Nanoseconds in those checks.
    pub is_valid_ns: u64,
    /// Nanoseconds of the whole replay loop (layers plus the loop's own
    /// queue and bookkeeping work).
    pub loop_ns: u64,
    /// Distinct states visited.
    pub unique: u64,
    /// Successor states generated.
    pub generated: u64,
}

impl Layers {
    /// Adds another replay's counters (footprint: the larger one).
    pub fn add(&mut self, o: &Layers) {
        self.successors_calls += o.successors_calls;
        self.successors_ns += o.successors_ns;
        self.fingerprint_calls += o.fingerprint_calls;
        self.fingerprint_ns += o.fingerprint_ns;
        self.insert_calls += o.insert_calls;
        self.insert_new += o.insert_new;
        self.insert_ns += o.insert_ns;
        self.bytes_resident_max = self.bytes_resident_max.max(o.bytes_resident_max);
        self.is_valid_calls += o.is_valid_calls;
        self.is_valid_ns += o.is_valid_ns;
        self.loop_ns += o.loop_ns;
        self.unique += o.unique;
        self.generated += o.generated;
    }

    /// Loop time not spent in any timed layer (queue, clones, finals).
    pub fn self_ns(&self) -> u64 {
        self.loop_ns
            .saturating_sub(self.successors_ns + self.fingerprint_ns + self.insert_ns)
    }
}

/// A per-final check, timed by the replay.
pub type FinalCheck<'a, M> = &'a dyn Fn(&Config<M>) -> bool;

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays the sequential engine's exhaustive BFS (flat store, no
/// symmetry) of `prog` under `model` with the engine's `max_events`
/// bound and the default state cap. When `valid` is given, it is timed on
/// every final, as outcomes mode does with the RA axioms.
pub fn replay_bfs<M: MemoryModel>(
    model: &M,
    prog: &Prog,
    max_events: usize,
    valid: Option<FinalCheck<'_, M>>,
) -> Layers {
    let max_states = c11_explore::ExploreConfig::default().max_states;
    let mut l = Layers::default();
    let t_loop = Instant::now();
    let key = |l: &mut Layers, c: &Config<M>| {
        let t = Instant::now();
        let k = combine128(&[
            hash128_of(&c.coms),
            hash128_of(&c.regs),
            model.state_fingerprint(&c.mem),
        ]);
        l.fingerprint_ns += elapsed_ns(t);
        l.fingerprint_calls += 1;
        k
    };
    let insert = |l: &mut Layers, store: &mut AnyStore, k: u128| {
        let t = Instant::now();
        let fresh = store.insert(k);
        l.insert_ns += elapsed_ns(t);
        l.insert_calls += 1;
        l.insert_new += u64::from(fresh);
        fresh
    };
    let mut store = AnyStore::new(StoreKind::Flat);
    let mut finals: Vec<Config<M>> = Vec::new();
    let mut queue: VecDeque<Config<M>> = VecDeque::new();
    let initial = Config::initial(model, prog);
    let k = key(&mut l, &initial);
    insert(&mut l, &mut store, k);
    l.unique = 1;
    if initial.is_terminated() {
        finals.push(initial);
    } else {
        queue.push_back(initial);
    }
    while let Some(config) = queue.pop_front() {
        if l.unique as usize >= max_states {
            break;
        }
        if model.state_size(&config.mem) >= max_events {
            continue;
        }
        let t = Instant::now();
        let steps = config.successors(model);
        l.successors_ns += elapsed_ns(t);
        l.successors_calls += 1;
        for step in steps {
            l.generated += 1;
            let k = key(&mut l, &step.next);
            if !insert(&mut l, &mut store, k) {
                continue;
            }
            l.unique += 1;
            if step.next.is_terminated() {
                finals.push(step.next);
            } else {
                queue.push_back(step.next);
            }
        }
    }
    l.bytes_resident_max = store.stats().bytes_resident as u64;
    l.loop_ns = elapsed_ns(t_loop);
    // The verdict itself is the report's `invalid_finals`, which the
    // known-answer check reads; the replay only times the calls.
    if let Some(valid) = valid {
        for f in &finals {
            let t = Instant::now();
            std::hint::black_box(valid(f));
            l.is_valid_ns += elapsed_ns(t);
            l.is_valid_calls += 1;
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11_api::{CheckReport, CheckRequest, Engine, Reduction};
    use c11_core::model::{RaModel, ScModel};

    /// The replay visits exactly the engine's states on every litmus
    /// file, under both models the litmus verdict explores.
    #[test]
    fn replay_matches_the_engine_on_the_litmus_corpus() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for file in crate::gen::LITMUS_FILES {
            let test = c11_litmus::load_litmus_file(&root.join("litmus").join(file)).unwrap();
            let report = CheckRequest::litmus(test.clone())
                .engine(Engine::Sequential)
                .reduction(Reduction::None)
                .run()
                .unwrap();
            let CheckReport::Litmus(r) = report else {
                panic!("litmus report expected");
            };
            let prog = c11_lang::parse_program(&test.source).unwrap();
            let ra = replay_bfs(&RaModel, &prog, test.max_events, None);
            let sc = replay_bfs(&ScModel, &prog, test.max_events, None);
            assert_eq!(
                (ra.unique, ra.generated),
                (r.ra.unique as u64, r.ra.generated as u64),
                "{file} ra"
            );
            assert_eq!(
                (sc.unique, sc.generated),
                (r.sc.unique as u64, r.sc.generated as u64),
                "{file} sc"
            );
            assert_eq!(ra.insert_new, ra.unique);
            assert_eq!(ra.insert_calls, ra.generated + 1);
        }
    }
}
