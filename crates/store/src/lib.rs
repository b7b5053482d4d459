//! `c11-store` — visited-state storage for the exploration engines.
//!
//! Every engine deduplicates on 128-bit canonical state fingerprints.
//! Where those fingerprints *live* used to be hard-wired as a flat
//! `HashSet<u128>` per engine; this crate owns that decision behind the
//! [`VisitedStore`] trait, with two implementations:
//!
//! * [`FlatStore`] — the extracted flat fingerprint set (the default;
//!   byte-for-byte the behaviour every engine had before this crate).
//! * [`SymmetryStore`] — the storage half of thread-symmetry
//!   quotienting. The quotient itself lives in the *key*: the engines
//!   canonicalise the thread order before fingerprinting (see
//!   `c11_explore::sym`), so orbit-equivalent states collapse to one
//!   entry. This store is the flat set re-labelled to report
//!   `kind = "sym"` in its stats — keeping key computation out of the
//!   store keeps the store model-agnostic.
//!
//! Both report [`StoreStats`] — resident bytes and dedup-hit counters —
//! surfaced through the explore crate's `Stats` and the `c11check/v1`
//! JSON `"store"` block.
//!
//! The [`concurrent`] module hosts the lock-free CAS-claim filter the
//! parallel engine uses for both kinds.

pub mod concurrent;

use std::collections::HashSet;

/// Which visited-store implementation a run uses. The engines thread
/// this through `ExploreConfig`; services accept it as
/// `--store flat|sym`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// The flat fingerprint `HashSet` (the reference behaviour).
    #[default]
    Flat,
    /// Flat storage with thread-symmetry-canonicalised keys: visited
    /// counts shrink by the thread-permutation orbit on symmetric
    /// programs. Opt-in — `unique`/`generated` legitimately differ from
    /// the flat run; verdicts and canonicalised outcomes do not.
    Sym,
}

impl StoreKind {
    /// Every kind, in CLI order.
    pub const ALL: [StoreKind; 2] = [StoreKind::Flat, StoreKind::Sym];

    /// The CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            StoreKind::Flat => "flat",
            StoreKind::Sym => "sym",
        }
    }

    /// Parses a CLI / JSON name (the inverse of [`StoreKind::name`]).
    pub fn parse(s: &str) -> Option<StoreKind> {
        StoreKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Memory and dedup accounting a store reports after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StoreStats {
    /// Which implementation produced these numbers.
    pub kind: StoreKind,
    /// Were keys symmetry-canonicalised? (True for [`StoreKind::Sym`],
    /// and for any kind when the explicit `symmetry` knob was on.)
    pub sym: bool,
    /// Exact bytes resident in the store's own structures (buckets,
    /// stripes) — not including the transient key being probed.
    pub bytes_resident: usize,
    /// Interior nodes. Always 0: both stores are single tables. Kept
    /// because the `"store"` block of the `c11check/v1` schema (and
    /// every persisted snapshot) carries it.
    pub nodes: usize,
    /// Inserts that found their key already present.
    pub dedup_hits: usize,
}

/// The visited-set contract every engine deduplicates through.
pub trait VisitedStore {
    /// Inserts a fingerprint; `true` iff it was absent. This is the
    /// engines' linearization point of state discovery.
    fn insert(&mut self, key: u128) -> bool;

    /// Membership without insertion.
    fn contains(&self, key: u128) -> bool;

    /// Number of distinct keys stored.
    fn len(&self) -> usize;

    /// `true` iff no key is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's accounting snapshot.
    fn stats(&self) -> StoreStats;
}

// ---- FlatStore ----------------------------------------------------------

/// The flat fingerprint set — `HashSet<u128>` extracted from the
/// engines, kept as the default store.
#[derive(Debug, Default)]
pub struct FlatStore {
    set: HashSet<u128>,
    dedup_hits: usize,
}

impl FlatStore {
    /// An empty store.
    pub fn new() -> FlatStore {
        FlatStore::default()
    }

    /// Resident bytes of the underlying table. `HashSet` keeps
    /// `buckets = next_pow2(capacity · 8/7)` slots of 16 key bytes plus
    /// one control byte each; `capacity()` is the usable 7/8 fraction,
    /// so the bucket count is recovered exactly.
    fn table_bytes(&self) -> usize {
        let cap = self.set.capacity();
        if cap == 0 {
            return std::mem::size_of::<Self>();
        }
        let buckets = (cap * 8 / 7).next_power_of_two();
        std::mem::size_of::<Self>() + buckets * (std::mem::size_of::<u128>() + 1)
    }
}

impl VisitedStore for FlatStore {
    fn insert(&mut self, key: u128) -> bool {
        let fresh = self.set.insert(key);
        if !fresh {
            self.dedup_hits += 1;
        }
        fresh
    }

    fn contains(&self, key: u128) -> bool {
        self.set.contains(&key)
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            kind: StoreKind::Flat,
            sym: false,
            bytes_resident: self.table_bytes(),
            nodes: 0,
            dedup_hits: self.dedup_hits,
        }
    }
}

// ---- SymmetryStore ------------------------------------------------------

/// Flat storage for symmetry-canonicalised keys. The canonicalisation
/// (minimum fingerprint over the thread-permutation orbit) happens in
/// the engines' key function — see `c11_explore::sym` — so this store
/// only differs from [`FlatStore`] in the stats it reports.
#[derive(Debug, Default)]
pub struct SymmetryStore {
    inner: FlatStore,
}

impl SymmetryStore {
    /// An empty store.
    pub fn new() -> SymmetryStore {
        SymmetryStore::default()
    }
}

impl VisitedStore for SymmetryStore {
    fn insert(&mut self, key: u128) -> bool {
        self.inner.insert(key)
    }

    fn contains(&self, key: u128) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            kind: StoreKind::Sym,
            sym: true,
            ..self.inner.stats()
        }
    }
}

// ---- AnyStore -----------------------------------------------------------

/// A store value dispatching over the two kinds — what the sequential
/// engines hold (the parallel engine holds a [`concurrent::CasFilter`]).
#[derive(Debug)]
pub enum AnyStore {
    /// Flat fingerprint set.
    Flat(FlatStore),
    /// Flat set over symmetry-canonical keys.
    Sym(SymmetryStore),
}

impl AnyStore {
    /// An empty store of the given kind.
    pub fn new(kind: StoreKind) -> AnyStore {
        match kind {
            StoreKind::Flat => AnyStore::Flat(FlatStore::new()),
            StoreKind::Sym => AnyStore::Sym(SymmetryStore::new()),
        }
    }
}

impl VisitedStore for AnyStore {
    fn insert(&mut self, key: u128) -> bool {
        match self {
            AnyStore::Flat(s) => s.insert(key),
            AnyStore::Sym(s) => s.insert(key),
        }
    }

    fn contains(&self, key: u128) -> bool {
        match self {
            AnyStore::Flat(s) => s.contains(key),
            AnyStore::Sym(s) => s.contains(key),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyStore::Flat(s) => VisitedStore::len(s),
            AnyStore::Sym(s) => VisitedStore::len(s),
        }
    }

    fn stats(&self) -> StoreStats {
        match self {
            AnyStore::Flat(s) => s.stats(),
            AnyStore::Sym(s) => s.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u128) -> impl Iterator<Item = u128> {
        // A full-period odd-multiplier scramble: distinct, well spread.
        (0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835))
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in StoreKind::ALL {
            assert_eq!(StoreKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(StoreKind::parse("bogus"), None);
        assert_eq!(StoreKind::parse("shared"), None);
        assert_eq!(StoreKind::default(), StoreKind::Flat);
    }

    #[test]
    fn all_stores_agree_on_membership() {
        for kind in StoreKind::ALL {
            let mut s = AnyStore::new(kind);
            assert!(s.is_empty());
            for k in keys(3_000) {
                assert!(s.insert(k), "{kind:?}: first insert fresh");
            }
            for k in keys(3_000) {
                assert!(!s.insert(k), "{kind:?}: second insert dedups");
                assert!(s.contains(k), "{kind:?}: membership");
            }
            assert!(!s.contains(0xdead_beef), "{kind:?}");
            assert_eq!(VisitedStore::len(&s), 3_000, "{kind:?}");
            assert_eq!(s.stats().dedup_hits, 3_000, "{kind:?}");
        }
    }

    #[test]
    fn sym_store_reports_its_kind() {
        let mut s = SymmetryStore::new();
        s.insert(7);
        s.insert(7);
        let stats = s.stats();
        assert_eq!(stats.kind, StoreKind::Sym);
        assert!(stats.sym);
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn flat_accounting_tracks_table_growth() {
        let mut s = FlatStore::new();
        let before = s.stats().bytes_resident;
        for k in keys(1_000) {
            s.insert(k);
        }
        let after = s.stats().bytes_resident;
        assert!(after > before);
        // 17 bytes per bucket, buckets within [n·8/7, n·16/7].
        assert!((1_000 * 17..=1_000 * 40).contains(&after), "{after}");
    }
}
