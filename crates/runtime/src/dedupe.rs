//! A sharded concurrent duplicate-detection set with deterministic
//! (sequence-priority) semantics.
//!
//! The chase's `visited` check (Algorithm 1, line 10) deduplicates frontier
//! candidates *modulo renaming of labeled nulls*: a cheap renaming-invariant
//! `signature` buckets candidates, an exact `digest` gives a fast identity
//! path, and a full isomorphism check confirms duplicates on signature
//! collisions. [`ShardedDedupe`] makes that check concurrent — the map is
//! lock-striped into power-of-two shards keyed by signature — while keeping
//! the *outcome* identical to the sequential first-wins rule:
//!
//! * every candidate carries a sequence number (its FIFO frontier
//!   position);
//! * [`offer`](ShardedDedupe::offer) inserts with min-sequence priority: a
//!   candidate that finds an earlier member of its class is a final
//!   `Duplicate`; one that inserts or displaces a *later* member is only
//!   `Tentative`, because a still-racing earlier candidate may displace it
//!   in turn;
//! * after all concurrent offers of a wave have completed (a barrier the
//!   scheduler provides), [`confirm`](ShardedDedupe::confirm) reports
//!   whether the candidate ended up as its class representative.
//!
//! Entry seqs only ever decrease, so `Duplicate` verdicts can never be
//! invalidated and the surviving representative of every class is exactly
//! the candidate a sequential FIFO walk would have kept — regardless of
//! interleaving.

use std::collections::HashMap;

use cqi_obs::trace::{self, Phase};

use crate::sync::counter::Counter;
use crate::sync::Mutex;

/// The two-level key of the dedupe set: a renaming-invariant `signature`
/// (equal for all members of an isomorphism class — the shard/bucket key)
/// and an exact structural `digest` (equal only for identical instances —
/// the fast positive path, mirroring the digest-keyed memos of the chase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetKey {
    pub signature: u64,
    pub digest: u64,
}

/// Verdict of an [`offer`](ShardedDedupe::offer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// An earlier-sequence member of this class is already present. Final.
    Duplicate,
    /// The candidate is currently its class representative; must be
    /// [`confirm`](ShardedDedupe::confirm)ed once all concurrent offers of
    /// its wave have completed.
    Tentative,
}

/// Occupancy and traffic counters (monotone, relaxed — for logging/tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct DedupeStats {
    pub offers: u64,
    pub duplicates: u64,
    /// Signature-bucket collisions that required a full isomorphism check
    /// (same signature, different digest).
    pub iso_checks: u64,
    /// Duplicate verdicts settled by the exact-digest fast map, without a
    /// bucket walk or candidate clone.
    pub digest_fast_hits: u64,
}

struct Entry<T> {
    seq: u64,
    digest: u64,
    item: T,
}

/// One lock stripe: signature buckets of class representatives, plus a
/// digest fast map.
struct ShardState<T> {
    /// `signature → representatives of every isomorphism class sharing it`.
    buckets: HashMap<u64, Vec<Entry<T>>>,
    /// `exact digest → minimum sequence ever offered with that digest`.
    /// Identical digests are identical instances (the chase-wide 64-bit
    /// assumption), hence members of one class — so an offer whose digest
    /// was already seen at an earlier-or-equal sequence is a final
    /// `Duplicate` without walking the bucket or cloning the candidate.
    digest_seqs: HashMap<u64, u64>,
}

type Shard<T> = Mutex<ShardState<T>>;

/// Lock-striped concurrent set of isomorphism-class representatives.
pub struct ShardedDedupe<T> {
    shards: Box<[Shard<T>]>,
    mask: usize,
    offers: Counter,
    duplicates: Counter,
    iso_checks: Counter,
    digest_fast_hits: Counter,
}

impl<T: Clone> ShardedDedupe<T> {
    /// Creates a set with `shards` lock stripes (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> ShardedDedupe<T> {
        let n = shards.max(1).next_power_of_two();
        ShardedDedupe {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(ShardState {
                        buckets: HashMap::new(),
                        digest_seqs: HashMap::new(),
                    })
                })
                .collect(),
            mask: n - 1,
            offers: Counter::new(),
            duplicates: Counter::new(),
            iso_checks: Counter::new(),
            digest_fast_hits: Counter::new(),
        }
    }

    fn shard(&self, signature: u64) -> &Shard<T> {
        // Fold the high bits in so shard choice isn't at the mercy of the
        // signature's low-bit distribution.
        let h = signature ^ (signature >> 32);
        &self.shards[(h as usize) & self.mask]
    }

    /// Does `entry` represent the same class as `(digest, item)`? Identical
    /// digests are taken as identity (the chase's digest-keyed memos make
    /// the same 64-bit-collision assumption); otherwise the caller-supplied
    /// isomorphism check decides.
    fn matches<F: Fn(&T, &T) -> bool>(&self, e: &Entry<T>, digest: u64, item: &T, iso: &F) -> bool {
        if e.digest == digest {
            return true;
        }
        self.iso_checks.inc();
        iso(&e.item, item)
    }

    /// Offers a candidate with FIFO priority `seq` (lower wins). `iso` is
    /// the exact duplicate check run on signature collisions.
    pub fn offer<F: Fn(&T, &T) -> bool>(
        &self,
        key: SetKey,
        seq: u64,
        item: &T,
        iso: &F,
    ) -> Offer {
        let _s = trace::span_phase("dedupe_offer", "dedupe", Phase::Dedupe);
        self.offers.inc();
        let mut state = self.shard(key.signature).lock().unwrap();
        if let Some(&s0) = state.digest_seqs.get(&key.digest) {
            if s0 <= seq {
                self.digest_fast_hits.inc();
                self.duplicates.inc();
                return Offer::Duplicate;
            }
        }
        let min = state.digest_seqs.entry(key.digest).or_insert(seq);
        if seq < *min {
            *min = seq;
        }
        let bucket = state.buckets.entry(key.signature).or_default();
        for e in bucket.iter_mut() {
            if self.matches(e, key.digest, item, iso) {
                if e.seq <= seq {
                    self.duplicates.inc();
                    return Offer::Duplicate;
                }
                // Displace the later-sequence representative; it will fail
                // its own confirm.
                e.seq = seq;
                e.digest = key.digest;
                e.item = item.clone();
                return Offer::Tentative;
            }
        }
        bucket.push(Entry {
            seq,
            digest: key.digest,
            item: item.clone(),
        });
        Offer::Tentative
    }

    /// After the wave barrier: did the candidate survive as its class
    /// representative? (Exactly one candidate per class confirms.)
    pub fn confirm<F: Fn(&T, &T) -> bool>(
        &self,
        key: SetKey,
        seq: u64,
        item: &T,
        iso: &F,
    ) -> bool {
        let _s = trace::span_phase("dedupe_confirm", "dedupe", Phase::Dedupe);
        let state = self.shard(key.signature).lock().unwrap();
        let Some(bucket) = state.buckets.get(&key.signature) else {
            return false;
        };
        bucket
            .iter()
            .any(|e| self.matches(e, key.digest, item, iso) && e.seq == seq)
    }

    /// Number of class representatives currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().buckets.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lock stripes (power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn stats(&self) -> DedupeStats {
        DedupeStats {
            offers: self.offers.get(),
            duplicates: self.duplicates.get(),
            iso_checks: self.iso_checks.get(),
            digest_fast_hits: self.digest_fast_hits.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test item: `class` drives the (mock) isomorphism check, `tag`
    /// distinguishes non-identical members of one class.
    #[derive(Clone, Debug, PartialEq)]
    struct Item {
        class: u32,
        tag: u32,
    }

    fn key(sig: u64, digest: u64) -> SetKey {
        SetKey {
            signature: sig,
            digest,
        }
    }

    fn iso(a: &Item, b: &Item) -> bool {
        a.class == b.class
    }

    #[test]
    fn first_offer_is_tentative_then_confirmed() {
        let set: ShardedDedupe<Item> = ShardedDedupe::new(4);
        let it = Item { class: 1, tag: 0 };
        let k = key(10, 100);
        assert_eq!(set.offer(k, 0, &it, &iso), Offer::Tentative);
        assert!(set.confirm(k, 0, &it, &iso));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn identical_digest_is_duplicate_without_iso_check() {
        let set: ShardedDedupe<Item> = ShardedDedupe::new(4);
        let it = Item { class: 1, tag: 0 };
        let k = key(10, 100);
        set.offer(k, 0, &it, &iso);
        assert_eq!(set.offer(k, 1, &it, &iso), Offer::Duplicate);
        assert_eq!(set.stats().iso_checks, 0, "digest fast path skips iso");
        assert_eq!(set.stats().digest_fast_hits, 1, "settled by the fast map");
    }

    #[test]
    fn digest_fast_map_respects_sequence_priority() {
        // A later-seq repeat of an exact digest is a fast Duplicate, but an
        // *earlier*-seq repeat must still displace the representative.
        let set: ShardedDedupe<Item> = ShardedDedupe::new(2);
        let it = Item { class: 4, tag: 0 };
        let k = key(11, 400);
        assert_eq!(set.offer(k, 5, &it, &iso), Offer::Tentative);
        assert_eq!(set.offer(k, 7, &it, &iso), Offer::Duplicate);
        assert_eq!(set.offer(k, 2, &it, &iso), Offer::Tentative);
        assert!(set.confirm(k, 2, &it, &iso));
        assert!(!set.confirm(k, 5, &it, &iso));
        let stats = set.stats();
        assert_eq!(stats.digest_fast_hits, 1);
        assert_eq!(stats.duplicates, 1);
        // The map now remembers seq 2: a seq-3 offer is a fast Duplicate.
        assert_eq!(set.offer(k, 3, &it, &iso), Offer::Duplicate);
        assert_eq!(set.stats().digest_fast_hits, 2);
    }

    #[test]
    fn signature_collision_confirms_by_isomorphism() {
        // Same signature, different digests: one genuine duplicate (same
        // class) and one distinct class that must coexist in the bucket.
        let set: ShardedDedupe<Item> = ShardedDedupe::new(1);
        let a = Item { class: 1, tag: 0 };
        let a2 = Item { class: 1, tag: 1 }; // renamed copy of a
        let b = Item { class: 2, tag: 0 }; // different class, same signature
        set.offer(key(7, 100), 0, &a, &iso);
        assert_eq!(set.offer(key(7, 101), 1, &a2, &iso), Offer::Duplicate);
        assert_eq!(set.offer(key(7, 102), 2, &b, &iso), Offer::Tentative);
        assert!(set.confirm(key(7, 102), 2, &b, &iso));
        assert_eq!(set.len(), 2, "distinct classes share a bucket");
        assert!(set.stats().iso_checks >= 2, "collisions ran the full check");
    }

    #[test]
    fn earlier_sequence_displaces_later_regardless_of_arrival_order() {
        // seq 5 arrives first (inserted), then seq 3 (displaces), then
        // seq 1 (displaces again): only seq 1 confirms.
        let set: ShardedDedupe<Item> = ShardedDedupe::new(2);
        let mk = |tag| Item { class: 9, tag };
        let (i5, i3, i1) = (mk(5), mk(3), mk(1));
        assert_eq!(set.offer(key(1, 205), 5, &i5, &iso), Offer::Tentative);
        assert_eq!(set.offer(key(1, 203), 3, &i3, &iso), Offer::Tentative);
        assert_eq!(set.offer(key(1, 201), 1, &i1, &iso), Offer::Tentative);
        assert!(!set.confirm(key(1, 205), 5, &i5, &iso));
        assert!(!set.confirm(key(1, 203), 3, &i3, &iso));
        assert!(set.confirm(key(1, 201), 1, &i1, &iso));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn duplicate_verdicts_are_final() {
        let set: ShardedDedupe<Item> = ShardedDedupe::new(2);
        let mk = |tag| Item { class: 3, tag };
        set.offer(key(2, 300), 2, &mk(0), &iso);
        // seq 4 sees seq 2 → Duplicate (final even though seq 1 later wins).
        assert_eq!(set.offer(key(2, 304), 4, &mk(4), &iso), Offer::Duplicate);
        assert_eq!(set.offer(key(2, 301), 1, &mk(1), &iso), Offer::Tentative);
        assert!(set.confirm(key(2, 301), 1, &mk(1), &iso));
    }

    #[test]
    fn concurrent_offers_elect_the_minimum_sequence() {
        // Hammer one class from many threads in scrambled order; whatever
        // the interleaving, the minimum sequence must be the survivor.
        let set: ShardedDedupe<Item> = ShardedDedupe::new(8);
        let n = 64u64;
        crate::sync::thread::scope(|s| {
            for t in 0..4u64 {
                let set = &set;
                s.spawn(move || {
                    for i in 0..n {
                        // Scramble arrival order per thread.
                        let seq = (i * 17 + t * 31) % n;
                        let it = Item {
                            class: 1,
                            tag: seq as u32,
                        };
                        set.offer(key(5, 1000 + seq), seq, &it, &iso);
                    }
                });
            }
        });
        assert_eq!(set.len(), 1);
        let winner = Item { class: 1, tag: 0 };
        assert!(set.confirm(key(5, 1000), 0, &winner, &iso));
        for seq in 1..n {
            let it = Item {
                class: 1,
                tag: seq as u32,
            };
            assert!(!set.confirm(key(5, 1000 + seq), seq, &it, &iso));
        }
    }

    #[test]
    fn shards_round_up_to_power_of_two() {
        let set: ShardedDedupe<Item> = ShardedDedupe::new(5);
        assert_eq!(set.num_shards(), 8);
        let set: ShardedDedupe<Item> = ShardedDedupe::new(0);
        assert_eq!(set.num_shards(), 1);
        assert!(set.is_empty());
    }
}
