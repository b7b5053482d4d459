//! `c11-store` — visited-state storage for the exploration engines.
//!
//! Every engine deduplicates on 128-bit canonical state fingerprints
//! through the [`VisitedStore`] trait: `insert` (the linearization point
//! of state discovery) and `stats`. The sequential engines hold an
//! [`AnyStore`], one fingerprint set whatever the [`StoreKind`]: the
//! thread-symmetry quotient lives in the *key* the engine computes (see
//! `c11_explore::sym`), not in the storage, so the kinds differ only in
//! the label they report. Keeping key computation out of the store keeps
//! the store model-agnostic.
//!
//! The [`concurrent`] module hosts the lock-free CAS-claim filter the
//! parallel engine shares between its workers. Both report
//! [`StoreStats`], surfaced through the explore crate's `Stats` and the
//! `c11check/v1` JSON `"store"` block.

pub mod concurrent;

use std::collections::HashSet;

/// Which visited store a run names. The engines thread this through
/// `ExploreConfig`; services accept it as `--store flat|sym`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// The flat fingerprint set (the reference behaviour).
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
    /// Which store the run used (`sym` whenever the keys were
    /// symmetry-canonicalised).
    pub kind: StoreKind,
    /// Were keys symmetry-canonicalised?
    pub sym: bool,
    /// Exact bytes resident in the store's own structures (buckets,
    /// stripes) — not including the transient key being probed.
    pub bytes_resident: usize,
    /// Interior nodes. Always 0: every store is a single table. Kept
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

    /// The store's accounting snapshot.
    fn stats(&self) -> StoreStats;
}

/// The sequential engines' fingerprint set, labelled with the
/// [`StoreKind`] it was built for.
#[derive(Debug)]
pub struct AnyStore {
    set: HashSet<u128>,
    dedup_hits: usize,
    kind: StoreKind,
}

impl AnyStore {
    /// An empty store of the given kind.
    pub fn new(kind: StoreKind) -> AnyStore {
        AnyStore {
            set: HashSet::new(),
            dedup_hits: 0,
            kind,
        }
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

impl VisitedStore for AnyStore {
    fn insert(&mut self, key: u128) -> bool {
        let fresh = self.set.insert(key);
        self.dedup_hits += usize::from(!fresh);
        fresh
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            kind: self.kind,
            sym: self.kind == StoreKind::Sym,
            bytes_resident: self.table_bytes(),
            nodes: 0,
            dedup_hits: self.dedup_hits,
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
    fn every_kind_inserts_each_key_once_and_reports_its_label() {
        for kind in StoreKind::ALL {
            let mut s = AnyStore::new(kind);
            for k in keys(3_000) {
                assert!(s.insert(k), "{kind:?}: first insert fresh");
            }
            for k in keys(3_000) {
                assert!(!s.insert(k), "{kind:?}: second insert dedups");
            }
            assert!(s.insert(0xdead_beef), "{kind:?}: an absent key is fresh");
            let stats = s.stats();
            assert_eq!(stats.dedup_hits, 3_000, "{kind:?}");
            assert_eq!(stats.kind, kind);
            assert_eq!(stats.sym, kind == StoreKind::Sym);
        }
    }

    #[test]
    fn accounting_tracks_table_growth() {
        let mut s = AnyStore::new(StoreKind::Flat);
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
