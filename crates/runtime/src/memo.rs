//! A lock-striped shared memo — the L2 tier behind the chase's per-worker
//! L1 maps.
//!
//! Worker-local memos alone make parallel runs re-solve canonical
//! subproblems a sibling worker has already answered. [`StripedMemo`]
//! shares those answers across workers while keeping lock hold times tiny:
//! entries are partitioned over independent mutexes by key hash, each
//! holding a plain `HashMap`. Values are returned **by clone** so no lock outlives a
//! lookup.
//!
//! The memo is only sound for *speed-only* state: a stored value must be a
//! pure function of its key (the invariant the chase's parallel runtime
//! already relies on for its per-worker memos), so which worker computed an
//! entry can never change an answer.
//!
//! Hit/miss/insert/contention counters are atomic and cheap; `contended`
//! counts lock acquisitions that had to block (a `try_lock` miss), which is
//! the number the striping exists to keep near zero.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use crate::sync::counter::Counter;
use crate::sync::hash::RandomState;
use crate::sync::{Mutex, MutexGuard, TryLockError};

/// Atomic counters of one [`StripedMemo`].
#[derive(Debug, Default)]
pub struct MemoStats {
    pub hits: Counter,
    pub misses: Counter,
    pub inserts: Counter,
    /// Lock acquisitions that found the stripe already held.
    pub contended: Counter,
}

/// A point-in-time copy of [`MemoStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub contended: u64,
}

impl std::ops::AddAssign for MemoCounts {
    fn add_assign(&mut self, o: MemoCounts) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.contended += o.contended;
    }
}

/// The counts accrued since an earlier snapshot `base` of the same memo.
impl std::ops::Sub for MemoCounts {
    type Output = MemoCounts;

    fn sub(self, base: MemoCounts) -> MemoCounts {
        MemoCounts {
            hits: self.hits - base.hits,
            misses: self.misses - base.misses,
            inserts: self.inserts - base.inserts,
            contended: self.contended - base.contended,
        }
    }
}

impl MemoStats {
    pub fn snapshot(&self) -> MemoCounts {
        MemoCounts {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            contended: self.contended.get(),
        }
    }
}

/// Lock-striped `HashMap<K, V>` with a per-memo capacity bound and
/// hit/miss/contention counters.
pub struct StripedMemo<K, V> {
    stripes: Vec<Mutex<HashMap<K, V>>>,
    /// Stripe count is a power of two; the key hash is masked with this.
    mask: usize,
    /// Per-stripe entry bound (total capacity / stripe count): full stripes
    /// drop new inserts rather than evict — memo entries are pure functions
    /// of their keys, so dropping one only costs a later recompute.
    stripe_cap: usize,
    hasher: RandomState,
    pub stats: MemoStats,
}

impl<K: Hash + Eq, V: Clone> StripedMemo<K, V> {
    /// `stripes` is rounded up to a power of two; `capacity` bounds the
    /// total entry count across all stripes.
    pub fn new(stripes: usize, capacity: usize) -> StripedMemo<K, V> {
        let n = stripes.max(1).next_power_of_two();
        StripedMemo {
            stripes: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
            stripe_cap: (capacity / n).max(1),
            hasher: RandomState::new(),
            stats: MemoStats::default(),
        }
    }

    fn stripe(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        &self.stripes[(self.hasher.hash_one(key) as usize) & self.mask]
    }

    /// Locks a stripe, counting contention when the lock is already held.
    fn lock<'a>(&'a self, m: &'a Mutex<HashMap<K, V>>) -> MutexGuard<'a, HashMap<K, V>> {
        match m.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.stats.contended.inc();
                m.lock().unwrap()
            }
            Err(TryLockError::Poisoned(e)) => panic!("poisoned memo stripe: {e}"),
        }
    }

    /// Looks `key` up, cloning the value out (no lock is held on return).
    pub fn get(&self, key: &K) -> Option<V> {
        let _s = cqi_obs::trace::span("l2_get", "memo");
        let got = self.lock(self.stripe(key)).get(key).cloned();
        match &got {
            Some(_) => self.stats.hits.inc(),
            None => self.stats.misses.inc(),
        };
        got
    }

    /// Inserts `key → value`; a full stripe drops the insert (first writer
    /// wins on duplicate keys — values are pure functions of keys, so
    /// racing writers agree semantically).
    pub fn insert(&self, key: K, value: V) {
        let _s = cqi_obs::trace::span("l2_insert", "memo");
        let mut g = self.lock(self.stripe(&key));
        if g.len() < self.stripe_cap || g.contains_key(&key) {
            g.entry(key).or_insert(value);
            self.stats.inserts.inc();
        }
    }

    /// Total entries across all stripes (takes every stripe lock).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| self.lock(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn get_after_insert_round_trips() {
        let memo: StripedMemo<u64, String> = StripedMemo::new(8, 1024);
        assert_eq!(memo.get(&7), None);
        memo.insert(7, "seven".into());
        assert_eq!(memo.get(&7), Some("seven".into()));
        let s = memo.stats.snapshot();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn first_writer_wins_on_duplicate_keys() {
        let memo: StripedMemo<u64, u64> = StripedMemo::new(4, 64);
        memo.insert(1, 10);
        memo.insert(1, 99);
        assert_eq!(memo.get(&1), Some(10));
    }

    #[test]
    fn capacity_bounds_each_stripe() {
        let memo: StripedMemo<u64, u64> = StripedMemo::new(1, 4);
        for k in 0..100 {
            memo.insert(k, k);
        }
        assert!(memo.len() <= 4, "full stripes must drop inserts");
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let memo: StripedMemo<u64, u64> = StripedMemo::new(16, 1 << 16);
        let seen = AtomicUsize::new(0);
        crate::sync::thread::scope(|s| {
            for t in 0..4u64 {
                let memo = &memo;
                let seen = &seen;
                s.spawn(move || {
                    for k in 0..500u64 {
                        memo.insert(k, k * 2);
                        if let Some(v) = memo.get(&(k ^ (t * 131))) {
                            assert_eq!(v, (k ^ (t * 131)) * 2);
                            seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(seen.load(Ordering::Relaxed) > 0);
        for k in 0..500u64 {
            assert_eq!(memo.get(&k), Some(k * 2));
        }
    }
}
