//! The concurrent visited store of the parallel engine.
//!
//! [`CasFilter`] is the striped lock-free CAS-claim membership filter the
//! parallel workers share: inserts are plain CAS races under a shared
//! stripe guard, the per-stripe `RwLock` is only taken exclusively to
//! double a stripe. It serves both store kinds — symmetry lives in the
//! *key* the engine computes, not in the storage. A stripe grows on the
//! fresh insert that takes it to ¾ load, never on a lookup, so its size
//! depends only on the set of keys inserted, not on how the workers
//! interleaved: `bytes_resident` repeats from run to run.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes of the global filter. More stripes than workers keeps the
/// probability of two workers growing the same stripe at once low.
const FILTER_SHARDS: usize = 32;

/// Initial slots per stripe (power of two; grows by doubling).
const FILTER_INITIAL_SLOTS: usize = 32;

/// Slot markers. A slot's `lo` word is `EMPTY` (free), `CLAIMED` (an
/// insert won the CAS and is about to publish), or the key's low word.
const SLOT_EMPTY: u64 = 0;
const SLOT_CLAIMED: u64 = 1;

/// Stripe selector: one fixed-seed FNV-1a pass over the 16 key bytes. The
/// key is already a fingerprint, but its low bits feed the slot probing —
/// folding all 128 bits keeps stripe choice independent of it.
fn shard_of(key: u128) -> usize {
    let mut fnv: u64 = 0xcbf29ce484222325;
    for b in key.to_le_bytes() {
        fnv ^= b as u64;
        fnv = fnv.wrapping_mul(0x100000001b3);
    }
    (fnv as usize) % FILTER_SHARDS
}

/// Splits a 128-bit fingerprint into the two slot words, steering clear
/// of the reserved `lo` markers. The remap aliases a key with
/// `lo ∈ {0, 1}` onto one with the top bit set — a 2⁻⁶³ event folded
/// into the fingerprinting collision stance (`c11_core::fingerprint`).
fn split_key(key: u128) -> (u64, u64) {
    let mut lo = key as u64;
    let hi = (key >> 64) as u64;
    if lo <= SLOT_CLAIMED {
        lo |= 1 << 63;
    }
    (lo, hi)
}

/// Start slot for probing: a multiply-mix over both words, deliberately
/// different from [`shard_of`] so stripe choice and probe order draw on
/// different bits.
fn slot_start(lo: u64, hi: u64) -> usize {
    ((lo.rotate_left(32) ^ hi).wrapping_mul(0x9e3779b97f4a7c15) >> 11) as usize
}

/// One 128-bit entry, published in two words with a claim protocol:
/// insert CASes `lo` from `EMPTY` to `CLAIMED`, stores `hi`, then
/// release-stores the real `lo`. Readers that load the real `lo`
/// (acquire) therefore see the matching `hi`.
struct Slot {
    lo: AtomicU64,
    hi: AtomicU64,
}

enum Probe {
    /// The key was absent; this call inserted it, leaving the table with
    /// this many entries.
    Fresh(usize),
    /// The key was already present.
    Present,
    /// Probing wrapped without finding the key or a free slot.
    Full,
}

/// An open-addressed table of [`Slot`]s (linear probing). Concurrent
/// inserts are plain CAS races — no lock is held per operation; the
/// enclosing `RwLock` is only taken exclusively to double the table.
struct Table {
    slots: Box<[Slot]>,
    occupied: AtomicUsize,
}

impl Table {
    fn new(capacity: usize) -> Table {
        debug_assert!(capacity.is_power_of_two());
        let slots = (0..capacity)
            .map(|_| Slot {
                lo: AtomicU64::new(SLOT_EMPTY),
                hi: AtomicU64::new(0),
            })
            .collect();
        Table {
            slots,
            occupied: AtomicUsize::new(0),
        }
    }

    /// Lock-free insert-or-find. Runs under a shared (read) guard of the
    /// stripe lock, so growth cannot rip the table out from under it.
    fn probe_insert(&self, lo: u64, hi: u64) -> Probe {
        let mask = self.slots.len() - 1;
        let mut i = slot_start(lo, hi) & mask;
        for _ in 0..self.slots.len() {
            let slot = &self.slots[i];
            let mut cur = slot.lo.load(Ordering::Acquire);
            if cur == SLOT_EMPTY {
                match slot.lo.compare_exchange(
                    SLOT_EMPTY,
                    SLOT_CLAIMED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        slot.hi.store(hi, Ordering::Release);
                        slot.lo.store(lo, Ordering::Release);
                        return Probe::Fresh(self.occupied.fetch_add(1, Ordering::Relaxed) + 1);
                    }
                    Err(seen) => cur = seen,
                }
            }
            // A concurrent claimer is mid-publish: its key might be ours.
            while cur == SLOT_CLAIMED {
                std::hint::spin_loop();
                cur = slot.lo.load(Ordering::Acquire);
            }
            if cur == lo && slot.hi.load(Ordering::Acquire) == hi {
                return Probe::Present;
            }
            i = (i + 1) & mask;
        }
        Probe::Full
    }

    /// Moves every entry into `bigger`. Runs under the write guard, so
    /// no claim is in flight.
    fn rehash_into(&self, bigger: &Table) {
        for slot in self.slots.iter() {
            let lo = slot.lo.load(Ordering::Relaxed);
            debug_assert_ne!(lo, SLOT_CLAIMED, "claims cannot survive a write lock");
            if lo != SLOT_EMPTY {
                bigger.probe_insert(lo, slot.hi.load(Ordering::Relaxed));
            }
        }
    }
}

/// Keeps each stripe's lock word on its own cache line so readers of
/// neighbouring stripes don't false-share.
#[repr(align(64))]
struct Padded<T>(T);

/// The striped lock-free membership filter: `FILTER_SHARDS`
/// independently grown tables. `insert` is the linearization point of
/// state discovery — exactly one worker gets `true` per fingerprint.
pub struct CasFilter {
    shards: Vec<Padded<RwLock<Table>>>,
}

impl Default for CasFilter {
    fn default() -> CasFilter {
        CasFilter::new()
    }
}

impl CasFilter {
    /// An empty filter.
    pub fn new() -> CasFilter {
        CasFilter {
            shards: (0..FILTER_SHARDS)
                .map(|_| Padded(RwLock::new(Table::new(FILTER_INITIAL_SLOTS))))
                .collect(),
        }
    }

    /// Inserts the fingerprint; `true` iff it was fresh. The hot path
    /// takes a shared stripe guard and does one CAS; the write lock is
    /// only taken to double a stripe.
    pub fn insert(&self, key: u128) -> bool {
        let (lo, hi) = split_key(key);
        let shard = &self.shards[shard_of(key)].0;
        loop {
            let (probe, cap) = {
                let table = shard.read();
                (table.probe_insert(lo, hi), table.slots.len())
            };
            match probe {
                Probe::Present => return false,
                Probe::Fresh(occupied) => {
                    // Linear probing degrades sharply past ¾ load. Growing
                    // here, and only here, makes the final stripe size the
                    // smallest one holding its keys under ¾ load.
                    if occupied * 4 >= cap * 3 {
                        grow(shard, cap);
                    }
                    return true;
                }
                Probe::Full => grow(shard, cap),
            }
        }
    }

    /// Exact bytes resident in the filter's stripes.
    pub fn bytes_resident(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                .map(|s| s.0.read().slots.len() * std::mem::size_of::<Slot>())
                .sum::<usize>()
    }
}

/// Doubles the stripe unless another worker already did (the capacity
/// check under the write lock decides the race).
fn grow(shard: &RwLock<Table>, seen_cap: usize) {
    let mut guard = shard.write();
    if guard.slots.len() > seen_cap {
        return;
    }
    let bigger = Table::new(guard.slots.len() * 2);
    guard.rehash_into(&bigger);
    *guard = bigger;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for k in [0u128, 1, u128::MAX, 0xdead_beef] {
            let s = shard_of(k);
            assert!(s < FILTER_SHARDS);
            assert_eq!(s, shard_of(k));
        }
    }

    fn scrambled(n: u128) -> Vec<u128> {
        (0..n)
            .map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef_fedc_ba98_7654_3211))
            .collect()
    }

    #[test]
    fn filter_inserts_each_key_exactly_once() {
        let filter = CasFilter::new();
        let empty = filter.bytes_resident();
        // Enough keys to force several doublings of every stripe.
        let keys = scrambled(10_000);
        for &k in &keys {
            assert!(filter.insert(k), "first insert of {k:x} must be fresh");
        }
        for &k in &keys {
            assert!(!filter.insert(k), "second insert of {k:x} must dedup");
        }
        assert!(filter.bytes_resident() > empty, "the stripes grew");
    }

    #[test]
    fn stripe_sizes_depend_only_on_the_key_set() {
        let keys = scrambled(5_000);
        let forward = CasFilter::new();
        for &k in &keys {
            forward.insert(k);
        }
        // Reverse order, with every key looked up again right away: the
        // lookups must not grow anything.
        let reverse = CasFilter::new();
        for &k in keys.iter().rev() {
            reverse.insert(k);
            reverse.insert(k);
        }
        assert_eq!(forward.bytes_resident(), reverse.bytes_resident());
    }

    #[test]
    fn filter_handles_reserved_low_words() {
        let filter = CasFilter::new();
        // Keys whose low word collides with the slot markers get remapped
        // but must still behave as set members.
        for k in [0u128, 1, 1 << 64, (1 << 64) | 1] {
            assert!(filter.insert(k));
            assert!(!filter.insert(k));
        }
    }

    #[test]
    fn filter_is_safe_under_concurrent_insertion() {
        let filter = CasFilter::new();
        let fresh = AtomicUsize::new(0);
        let distinct = 4_096u128;
        crossbeam::scope(|scope| {
            for t in 0..4u128 {
                let filter = &filter;
                let fresh = &fresh;
                scope.spawn(move |_| {
                    // Overlapping ranges: every key is attempted by two
                    // threads.
                    for i in 0..distinct {
                        let key = ((i + t * distinct / 2) % distinct)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
                        if filter.insert(key) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(
            fresh.load(Ordering::Relaxed),
            distinct as usize,
            "each distinct key must be claimed exactly once"
        );
        // The racing inserts sized the stripes as one thread would have.
        let serial = CasFilter::new();
        for i in 0..distinct {
            serial.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835));
        }
        assert_eq!(filter.bytes_resident(), serial.bytes_resident());
    }
}
