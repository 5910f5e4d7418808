//! Algorithm 1's `visited` set (line 10): frontier candidates are
//! deduplicated *modulo renaming of labeled nulls*.
//!
//! An identity key gives the fast path — a repeat settles as a duplicate
//! before any isomorphism check — a renaming-invariant [`signature`]
//! buckets class representatives, and [`is_isomorphic`] confirms a
//! duplicate on a signature collision. The first candidate of each class
//! wins; the BFS offers candidates in FIFO order, so that is the one the
//! paper's loop keeps.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use cqi_instance::{exact_digest, is_isomorphic, signature, CInstance};

/// One search's set of isomorphism-class representatives, with its
/// traffic counters.
pub(crate) struct Visited {
    /// Identity key of the fast path ([`Visited::root`],
    /// [`Visited::nested`]).
    key: fn(&CInstance) -> u64,
    /// `signature → representatives of every isomorphism class sharing it`.
    buckets: HashMap<u64, Vec<CInstance>>,
    /// Every identity key offered so far.
    keys: HashSet<u64>,
    /// Candidates offered.
    pub(crate) offers: u64,
    /// Offers rejected as a member of an already-visited class.
    pub(crate) duplicates: u64,
    /// Full isomorphism checks run on signature collisions.
    pub(crate) iso_checks: u64,
}

impl Visited {
    fn with_key(key: fn(&CInstance) -> u64) -> Visited {
        Visited {
            key,
            buckets: HashMap::new(),
            keys: HashSet::new(),
            offers: 0,
            duplicates: 0,
            iso_checks: 0,
        }
    }

    /// The root loop's set: [`exact_digest`] equality is identity. The
    /// digest is blind to the domain of a null that occurs in no tuple or
    /// condition, so this also merges instances that differ only there.
    pub(crate) fn root() -> Visited {
        Visited::with_key(exact_digest)
    }

    /// A nested search's set: identity also compares every null's domain
    /// and don't-care flag, so only isomorphic instances are merged.
    pub(crate) fn nested() -> Visited {
        Visited::with_key(isomorphic_identity)
    }

    /// Offers `inst`: `true` when it is the first of its isomorphism class
    /// (it becomes the class representative), `false` for a duplicate.
    pub(crate) fn insert(&mut self, inst: &CInstance) -> bool {
        self.offers += 1;
        if !self.keys.insert((self.key)(inst)) {
            self.duplicates += 1;
            return false;
        }
        // Every representative's key is in `keys` and this one is not, so
        // each member of the bucket needs the full check.
        let bucket = self.buckets.entry(signature(inst)).or_default();
        for rep in bucket.iter() {
            self.iso_checks += 1;
            if is_isomorphic(rep, inst) {
                self.duplicates += 1;
                return false;
            }
        }
        bucket.push(inst.clone());
        true
    }
}

/// [`exact_digest`] extended by every null's domain and don't-care flag:
/// two instances with equal keys are isomorphic.
fn isomorphic_identity(inst: &CInstance) -> u64 {
    let mut h = DefaultHasher::new();
    exact_digest(inst).hash(&mut h);
    for n in &inst.nulls {
        (n.domain.0, n.dont_care).hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cqi_schema::{DomainType, Schema};

    use super::*;

    /// A directed graph over labeled nulls: `E(src, dst)` for each edge,
    /// null `k` created `k`-th.
    fn graph(nulls: usize, edges: &[(usize, usize)]) -> CInstance {
        let s = Arc::new(
            Schema::builder()
                .relation("E", &[("src", DomainType::Text), ("dst", DomainType::Text)])
                .same_domain(("E", "src"), ("E", "dst"))
                .build()
                .unwrap(),
        );
        let e = s.rel_id("E").unwrap();
        let d = s.attr_domain(e, 0);
        let mut inst = CInstance::new(Arc::clone(&s));
        let ids: Vec<_> = (0..nulls).map(|k| inst.fresh_null(format!("x{k}"), d)).collect();
        for &(a, b) in edges {
            inst.add_tuple(e, vec![ids[a].into(), ids[b].into()]);
        }
        inst
    }

    fn cycle(order: &[usize]) -> Vec<(usize, usize)> {
        (0..order.len())
            .map(|i| (order[i], order[(i + 1) % order.len()]))
            .collect()
    }

    #[test]
    fn identical_digest_is_duplicate_without_iso_check() {
        let mut v = Visited::root();
        let a = graph(3, &cycle(&[0, 1, 2]));
        assert!(v.insert(&a));
        assert!(!v.insert(&a.clone()));
        assert_eq!((v.offers, v.duplicates, v.iso_checks), (2, 1, 0));
    }

    #[test]
    fn signature_collision_confirms_by_isomorphism() {
        // Same signature, different digests: a renamed copy (the 6-cycle
        // with its nulls visited in another order) is a duplicate, and two
        // 3-cycles — every null still has in- and out-degree 1, but the
        // graphs are not isomorphic — form a class that coexists in the
        // bucket. Each verdict took one isomorphism check.
        let six = graph(6, &cycle(&[0, 1, 2, 3, 4, 5]));
        let renamed = graph(6, &cycle(&[0, 2, 4, 1, 3, 5]));
        let mut pair = cycle(&[0, 1, 2]);
        pair.extend(cycle(&[3, 4, 5]));
        let pair = graph(6, &pair);
        assert_ne!(exact_digest(&six), exact_digest(&renamed));
        assert_eq!(signature(&six), signature(&renamed));
        assert_eq!(signature(&six), signature(&pair));
        let mut v = Visited::root();
        assert!(v.insert(&six));
        assert!(!v.insert(&renamed));
        assert!(v.insert(&pair));
        assert_eq!((v.offers, v.duplicates, v.iso_checks), (3, 1, 2));
    }

    #[test]
    fn only_the_root_set_merges_instances_differing_in_an_unused_null() {
        // Equal tables and digests, but the third null lies in another
        // domain: not isomorphic.
        let s = Arc::new(
            Schema::builder()
                .relation("E", &[("src", DomainType::Text), ("dst", DomainType::Text)])
                .relation("P", &[("price", DomainType::Real)])
                .build()
                .unwrap(),
        );
        let (e, p) = (s.rel_id("E").unwrap(), s.rel_id("P").unwrap());
        let with_third = |domain| {
            let mut inst = CInstance::new(Arc::clone(&s));
            let a = inst.fresh_null("a", s.attr_domain(e, 0));
            let b = inst.fresh_null("b", s.attr_domain(e, 1));
            inst.add_tuple(e, vec![a.into(), b.into()]);
            inst.fresh_null("c", domain);
            inst
        };
        let x = with_third(s.attr_domain(e, 0));
        let y = with_third(s.attr_domain(p, 0));
        assert_eq!(exact_digest(&x), exact_digest(&y));
        assert!(!is_isomorphic(&x, &y));
        let mut root = Visited::root();
        assert!(root.insert(&x));
        assert!(!root.insert(&y));
        let mut nested = Visited::nested();
        assert!(nested.insert(&x));
        assert!(nested.insert(&y));
        assert!(!nested.insert(&x.clone()));
        assert_eq!(nested.iso_checks, 1, "only `y` needed the full check");
    }

    #[test]
    fn first_offer_of_a_class_wins() {
        // Whichever member of a class is offered first is kept; every later
        // member, renamed or identical, is a duplicate.
        let a = graph(6, &cycle(&[0, 1, 2, 3, 4, 5]));
        let renamed = graph(6, &cycle(&[0, 2, 4, 1, 3, 5]));
        for (first, second) in [(&a, &renamed), (&renamed, &a)] {
            let mut v = Visited::root();
            assert!(v.insert(first));
            assert!(!v.insert(second));
            assert!(!v.insert(first));
        }
    }
}
