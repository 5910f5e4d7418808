//! Isomorphism of c-instances modulo renaming of labeled nulls — the
//! `visited` check of Algorithm 1 ("takes into account renaming of
//! variables; it first compares certain properties of the c-instances ...
//! and then it checks all possible mappings").
//!
//! [`signature`] is a cheap renaming-invariant hash (color refinement) used
//! to bucket candidates; [`is_isomorphic`] is the exact backtracking check
//! run only within a bucket.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cqi_solver::{Ent, Lit, NullId};

use crate::cinstance::{CInstance, Cond};

fn h<T: Hash>(t: &T) -> u64 {
    let mut s = DefaultHasher::new();
    t.hash(&mut s);
    s.finish()
}

/// Renaming-invariant colors for the nulls of `inst` (a few rounds of color
/// refinement over table and condition occurrences).
fn null_colors(inst: &CInstance) -> Vec<u64> {
    let n = inst.num_nulls();
    let mut color: Vec<u64> = inst
        .nulls
        .iter()
        .map(|info| h(&(info.domain.0, info.dont_care)))
        .collect();
    for _round in 0..3 {
        // Occurrence descriptors per null.
        let mut occ: Vec<Vec<u64>> = vec![Vec::new(); n];
        let ent_desc = |e: &Ent, color: &[u64]| -> u64 {
            match e {
                Ent::Null(m) => h(&(1u8, color[m.index()])),
                Ent::Const(v) => h(&(2u8, v)),
            }
        };
        for (rel, row) in inst.tuples() {
            let row_sig: Vec<u64> = row.iter().map(|e| ent_desc(e, &color)).collect();
            for (col, e) in row.iter().enumerate() {
                if let Ent::Null(m) = e {
                    occ[m.index()].push(h(&(0u8, rel.0, col as u32, &row_sig)));
                }
            }
        }
        for cond in &inst.global {
            match cond {
                Cond::Lit(Lit::Cmp { lhs, op, rhs }) => {
                    if let Ent::Null(m) = lhs {
                        occ[m.index()].push(h(&(3u8, format!("{op:?}"), ent_desc(rhs, &color))));
                    }
                    if let Ent::Null(m) = rhs {
                        occ[m.index()].push(h(&(4u8, format!("{op:?}"), ent_desc(lhs, &color))));
                    }
                }
                Cond::Lit(Lit::Like { negated, ent, pattern }) => {
                    if let Ent::Null(m) = ent {
                        occ[m.index()].push(h(&(5u8, negated, pattern)));
                    }
                }
                Cond::NotIn { rel, tuple } => {
                    let sig: Vec<u64> = tuple.iter().map(|e| ent_desc(e, &color)).collect();
                    for (pos, e) in tuple.iter().enumerate() {
                        if let Ent::Null(m) = e {
                            occ[m.index()].push(h(&(6u8, rel.0, pos as u32, &sig)));
                        }
                    }
                }
            }
        }
        for i in 0..n {
            occ[i].sort_unstable();
            color[i] = h(&(color[i], &occ[i]));
        }
    }
    color
}

/// Process-global hit/recompute counters for the cached digest and
/// signature (monotone, reporting-only — the chase snapshots deltas into
/// `ChaseStats`, mirroring how phase totals are attributed).
pub mod digest_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static HITS: AtomicU64 = AtomicU64::new(0);
    static RECOMPUTES: AtomicU64 = AtomicU64::new(0);

    pub(super) fn hit() {
        HITS.fetch_add(1, Ordering::SeqCst);
    }

    pub(super) fn recompute() {
        RECOMPUTES.fetch_add(1, Ordering::SeqCst);
    }

    /// `(hits, recomputes)` since process start.
    pub fn snapshot() -> (u64, u64) {
        (HITS.load(Ordering::SeqCst), RECOMPUTES.load(Ordering::SeqCst))
    }
}

/// An *exact* structural digest of a c-instance (null identities included,
/// no renaming invariance) — a cheap memoization key for chase-level
/// caching where instances are built deterministically.
///
/// The digest is combined in `O(#relations)` from hash chains the mutators
/// of [`CInstance`] maintain incrementally, and the combined value is
/// cached on the instance (cloning carries it along), so repeated digest
/// lookups across chase steps cost a single load. Debug builds cross-check
/// the chains against a from-scratch recomputation on every combine.
pub fn exact_digest(inst: &CInstance) -> u64 {
    if let Some(&d) = inst.digest_memo.get() {
        digest_stats::hit();
        return d;
    }
    digest_stats::recompute();
    let chains = inst.chains();
    if cfg!(debug_assertions) {
        let fresh = crate::cinstance::DigestChains::recompute(&inst.tables, &inst.global);
        debug_assert_eq!(
            chains.rels, fresh.rels,
            "incremental relation chains diverged from from-scratch recomputation"
        );
        debug_assert_eq!(
            chains.conds, fresh.conds,
            "incremental condition chain diverged from from-scratch recomputation"
        );
    }
    let mut hh = DefaultHasher::new();
    chains.rels.hash(&mut hh);
    chains.conds.hash(&mut hh);
    (inst.num_nulls() as u64).hash(&mut hh);
    let d = hh.finish();
    let _ = inst.digest_memo.set(d);
    d
}

/// A renaming-invariant hash of the whole c-instance. Equal signatures are
/// necessary (not sufficient) for isomorphism. Cached on the instance like
/// [`exact_digest`] (color refinement is the expensive part).
pub fn signature(inst: &CInstance) -> u64 {
    if let Some(&s) = inst.sig_memo.get() {
        digest_stats::hit();
        return s;
    }
    digest_stats::recompute();
    let s = signature_uncached(inst);
    let _ = inst.sig_memo.set(s);
    s
}

fn signature_uncached(inst: &CInstance) -> u64 {
    let color = null_colors(inst);
    let ent_sig = |e: &Ent| -> u64 {
        match e {
            Ent::Null(m) => h(&(1u8, color[m.index()])),
            Ent::Const(v) => h(&(2u8, v)),
        }
    };
    let mut table_sigs: Vec<u64> = Vec::new();
    for (rel, row) in inst.tuples() {
        let cells: Vec<u64> = row.iter().map(&ent_sig).collect();
        table_sigs.push(h(&(rel.0, cells)));
    }
    table_sigs.sort_unstable();
    let mut cond_sigs: Vec<u64> = inst
        .global
        .iter()
        .map(|c| match c {
            Cond::Lit(Lit::Cmp { lhs, op, rhs }) => {
                h(&(10u8, format!("{op:?}"), ent_sig(lhs), ent_sig(rhs)))
            }
            Cond::Lit(Lit::Like { negated, ent, pattern }) => {
                h(&(11u8, negated, pattern, ent_sig(ent)))
            }
            Cond::NotIn { rel, tuple } => {
                let cells: Vec<u64> = tuple.iter().map(&ent_sig).collect();
                h(&(12u8, rel.0, cells))
            }
        })
        .collect();
    cond_sigs.sort_unstable();
    h(&(table_sigs, cond_sigs))
}

/// Exact isomorphism check: does a bijection between the labeled nulls of
/// `a` and `b` map tables to tables and conditions to conditions?
pub fn is_isomorphic(a: &CInstance, b: &CInstance) -> bool {
    if a.num_nulls() != b.num_nulls()
        || a.global.len() != b.global.len()
        || a.tables.iter().map(Vec::len).collect::<Vec<_>>()
            != b.tables.iter().map(Vec::len).collect::<Vec<_>>()
    {
        return false;
    }
    let ca = null_colors(a);
    let cb = null_colors(b);
    // Color multisets must agree.
    let mut ma = ca.clone();
    let mut mb = cb.clone();
    ma.sort_unstable();
    mb.sort_unstable();
    if ma != mb {
        return false;
    }
    let n = a.num_nulls();
    let mut map: Vec<Option<NullId>> = vec![None; n];
    let mut used = vec![false; n];
    backtrack(a, b, &ca, &cb, &mut map, &mut used, 0)
}

fn backtrack(
    a: &CInstance,
    b: &CInstance,
    ca: &[u64],
    cb: &[u64],
    map: &mut Vec<Option<NullId>>,
    used: &mut Vec<bool>,
    i: usize,
) -> bool {
    let n = map.len();
    if i == n {
        return check_mapping(a, b, map);
    }
    for j in 0..n {
        if used[j] || ca[i] != cb[j] {
            continue;
        }
        map[i] = Some(NullId(j as u32));
        used[j] = true;
        if backtrack(a, b, ca, cb, map, used, i + 1) {
            return true;
        }
        used[j] = false;
        map[i] = None;
    }
    false
}

fn apply(map: &[Option<NullId>], e: &Ent) -> Ent {
    match e {
        Ent::Null(m) => Ent::Null(map[m.index()].expect("total mapping")),
        Ent::Const(v) => Ent::Const(v.clone()),
    }
}

fn check_mapping(a: &CInstance, b: &CInstance, map: &[Option<NullId>]) -> bool {
    for (ri, rows) in a.tables.iter().enumerate() {
        let mut mapped: Vec<Vec<Ent>> = rows
            .iter()
            .map(|row| row.iter().map(|e| apply(map, e)).collect())
            .collect();
        let mut target = b.tables[ri].clone();
        mapped.sort();
        target.sort();
        if mapped != target {
            return false;
        }
    }
    let map_lit = |l: &Lit| -> Lit {
        match l {
            Lit::Cmp { lhs, op, rhs } => Lit::Cmp {
                lhs: apply(map, lhs),
                op: *op,
                rhs: apply(map, rhs),
            },
            Lit::Like { negated, ent, pattern } => Lit::Like {
                negated: *negated,
                ent: apply(map, ent),
                pattern: pattern.clone(),
            },
        }
    };
    let mut mapped: Vec<Cond> = a
        .global
        .iter()
        .map(|c| match c {
            Cond::Lit(l) => Cond::Lit(map_lit(l)),
            Cond::NotIn { rel, tuple } => Cond::NotIn {
                rel: *rel,
                tuple: tuple.iter().map(|e| apply(map, e)).collect(),
            },
        })
        .collect();
    let mut target = b.global.clone();
    let key = |c: &Cond| format!("{c:?}");
    mapped.sort_by_key(key);
    target.sort_by_key(key);
    mapped == target
}

/// Candidate-pairing budget for [`subsumes`]: a deterministic node count
/// (never wall clock), after which the check conservatively reports "no
/// embedding". Keeps the worst-case backtracking bounded on adversarial
/// instances while leaving typical chase-sized instances fully explored.
const SUBSUME_BUDGET: usize = 4096;

/// Homomorphic subsumption: does `small` embed *injectively* into `large`?
///
/// An embedding maps each labeled null of `small` to a distinct null of
/// `large` with identical domain/type/don't-care metadata — the first
/// `fixed` nulls (the shared chase-seed prefix, which must carry identical
/// [`crate::NullInfo`]s on both sides) are fixed pointwise — such that
/// every tuple of `small` maps onto a tuple of `large` in the same
/// relation and every atomic condition of `small` maps onto a condition
/// present in `large`. Constants only match themselves; nulls never map to
/// constants. This is the "accepted instance already represents this
/// frontier subtree" test of the chase's subsumption pruning: a frontier
/// instance that contains an embedded copy of an accepted c-instance only
/// grows into super-instances of that accepted explanation.
///
/// Conservative by construction: exceeding the internal search budget
/// returns `false` (deterministically — the budget counts candidate
/// pairings, not time).
pub fn subsumes(small: &CInstance, large: &CInstance, fixed: usize) -> bool {
    if small.num_nulls() < fixed || large.num_nulls() < fixed {
        return false;
    }
    if small.nulls[..fixed] != large.nulls[..fixed] {
        return false;
    }
    // Injectivity makes distinct tuples/conditions map to distinct images,
    // so per-relation and condition counts must not shrink.
    if small.global.len() > large.global.len() {
        return false;
    }
    if small
        .tables
        .iter()
        .zip(&large.tables)
        .any(|(s, l)| s.len() > l.len())
    {
        return false;
    }
    let mut items: Vec<Work> = Vec::with_capacity(small.num_tuples() + small.global.len());
    for (ri, rows) in small.tables.iter().enumerate() {
        for row in 0..rows.len() {
            items.push(Work::Tuple(ri, row));
        }
    }
    for ci in 0..small.global.len() {
        items.push(Work::Cond(ci));
    }
    let mut em = Embedder {
        small,
        large,
        map: vec![None; small.num_nulls()],
        used: vec![false; large.num_nulls()],
        budget: SUBSUME_BUDGET,
    };
    for i in 0..fixed {
        em.map[i] = Some(NullId(i as u32));
        em.used[i] = true;
    }
    em.solve(&items, 0)
}

enum Work {
    /// `(relation index, row index)` of a `small` tuple to place.
    Tuple(usize, usize),
    /// Index into `small.global` of a condition to place.
    Cond(usize),
}

struct Embedder<'a> {
    small: &'a CInstance,
    large: &'a CInstance,
    map: Vec<Option<NullId>>,
    used: Vec<bool>,
    budget: usize,
}

impl Embedder<'_> {
    fn compat(&self, s: NullId, l: NullId) -> bool {
        let a = &self.small.nulls[s.index()];
        let b = &self.large.nulls[l.index()];
        a.domain == b.domain && a.ty == b.ty && a.dont_care == b.dont_care
    }

    /// Binds `s` to `l` if consistent with the partial map; fresh bindings
    /// go on `trail` so the caller can [`undo`](Self::undo) them.
    fn unify(&mut self, s: &Ent, l: &Ent, trail: &mut Vec<NullId>) -> bool {
        match (s, l) {
            (Ent::Const(a), Ent::Const(b)) => a == b,
            (Ent::Null(m), Ent::Null(t)) => match self.map[m.index()] {
                Some(bound) => bound == *t,
                None => {
                    if self.used[t.index()] || !self.compat(*m, *t) {
                        return false;
                    }
                    self.map[m.index()] = Some(*t);
                    self.used[t.index()] = true;
                    trail.push(*m);
                    true
                }
            },
            _ => false,
        }
    }

    fn unify_rows(&mut self, s: &[Ent], l: &[Ent], trail: &mut Vec<NullId>) -> bool {
        s.len() == l.len() && s.iter().zip(l).all(|(a, b)| self.unify(a, b, trail))
    }

    fn undo(&mut self, trail: &[NullId]) {
        for &m in trail {
            let t = self.map[m.index()].take().expect("trail entries are bound");
            self.used[t.index()] = false;
        }
    }

    fn solve(&mut self, items: &[Work], idx: usize) -> bool {
        if idx == items.len() {
            return self.finish();
        }
        match items[idx] {
            Work::Tuple(ri, rowi) => {
                let ncand = self.large.tables[ri].len();
                for cand in 0..ncand {
                    if self.budget == 0 {
                        return false;
                    }
                    self.budget -= 1;
                    let mut trail = Vec::new();
                    let row = self.small.tables[ri][rowi].clone();
                    let target = self.large.tables[ri][cand].clone();
                    if self.unify_rows(&row, &target, &mut trail) && self.solve(items, idx + 1) {
                        return true;
                    }
                    self.undo(&trail);
                }
                false
            }
            Work::Cond(ci) => {
                let ncand = self.large.global.len();
                for cand in 0..ncand {
                    if self.budget == 0 {
                        return false;
                    }
                    self.budget -= 1;
                    let mut trail = Vec::new();
                    let c = self.small.global[ci].clone();
                    let target = self.large.global[cand].clone();
                    if self.unify_cond(&c, &target, &mut trail) && self.solve(items, idx + 1) {
                        return true;
                    }
                    self.undo(&trail);
                }
                false
            }
        }
    }

    fn unify_cond(&mut self, s: &Cond, l: &Cond, trail: &mut Vec<NullId>) -> bool {
        match (s, l) {
            (
                Cond::Lit(Lit::Cmp { lhs, op, rhs }),
                Cond::Lit(Lit::Cmp { lhs: l2, op: o2, rhs: r2 }),
            ) => op == o2 && self.unify(lhs, l2, trail) && self.unify(rhs, r2, trail),
            (
                Cond::Lit(Lit::Like { negated, ent, pattern }),
                Cond::Lit(Lit::Like { negated: n2, ent: e2, pattern: p2 }),
            ) => negated == n2 && pattern == p2 && self.unify(ent, e2, trail),
            (Cond::NotIn { rel, tuple }, Cond::NotIn { rel: r2, tuple: t2 }) => {
                rel == r2 && self.unify_rows(&tuple.clone(), &t2.clone(), trail)
            }
            _ => false,
        }
    }

    /// Occurrence-free nulls of `small` (registered but not yet placed in
    /// a tuple or condition) still widen its quantifier pools, so they too
    /// must find a distinct compatible counterpart. They are mutually
    /// interchangeable, so a greedy first-fit assignment is complete.
    fn finish(&mut self) -> bool {
        let mut trail = Vec::new();
        for m in 0..self.map.len() {
            if self.map[m].is_some() {
                continue;
            }
            let target = (0..self.used.len())
                .find(|&t| !self.used[t] && self.compat(NullId(m as u32), NullId(t as u32)));
            match target {
                Some(t) => {
                    self.map[m] = Some(NullId(t as u32));
                    self.used[t] = true;
                    trail.push(NullId(m as u32));
                }
                None => {
                    self.undo(&trail);
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::{DomainType, Schema};
    use cqi_solver::SolverOp;
    use std::sync::Arc;

    fn schema() -> Arc<cqi_schema::Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .build()
                .unwrap(),
        )
    }

    /// Two serves rows with a price order, built with nulls created in
    /// different orders.
    fn two_row_instance(s: &Arc<Schema>, swap: bool) -> CInstance {
        let mut inst = CInstance::new(Arc::clone(s));
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let b = inst.fresh_null("b", ed);
        let (x1, x2, p1, p2);
        if swap {
            x2 = inst.fresh_null("x2", bd);
            p2 = inst.fresh_null("p2", pd);
            x1 = inst.fresh_null("x1", bd);
            p1 = inst.fresh_null("p1", pd);
        } else {
            x1 = inst.fresh_null("x1", bd);
            p1 = inst.fresh_null("p1", pd);
            x2 = inst.fresh_null("x2", bd);
            p2 = inst.fresh_null("p2", pd);
        }
        inst.add_tuple(serves, vec![x1.into(), b.into(), p1.into()]);
        inst.add_tuple(serves, vec![x2.into(), b.into(), p2.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        inst
    }

    #[test]
    fn renamed_instances_are_isomorphic() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, true);
        assert_eq!(signature(&a), signature(&b));
        assert!(is_isomorphic(&a, &b));
    }

    #[test]
    fn direction_of_order_matters() {
        let s = schema();
        let a = two_row_instance(&s, false);
        // Same shape but p2 > p1 *and* an extra asymmetry: a LIKE condition
        // on x1 only — the bare flipped order is isomorphic by swapping
        // rows, so pin one side down.
        let mut b = two_row_instance(&s, false);
        let x1 = NullId(1);
        b.add_cond(Cond::Lit(Lit::like(x1, "T%")));
        assert!(!is_isomorphic(&a, &b));
    }

    #[test]
    fn flipped_symmetric_order_is_isomorphic() {
        // p1 > p2 vs p2 > p1 with otherwise symmetric rows: swapping the
        // two rows is an isomorphism.
        let s = schema();
        let a = two_row_instance(&s, false);
        let mut b = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let bb = b.fresh_null("b", ed);
        let y1 = b.fresh_null("y1", bd);
        let q1 = b.fresh_null("q1", pd);
        let y2 = b.fresh_null("y2", bd);
        let q2 = b.fresh_null("q2", pd);
        b.add_tuple(serves, vec![y1.into(), bb.into(), q1.into()]);
        b.add_tuple(serves, vec![y2.into(), bb.into(), q2.into()]);
        b.add_cond(Cond::Lit(Lit::cmp(q2, SolverOp::Gt, q1)));
        assert!(is_isomorphic(&a, &b));
    }

    #[test]
    fn different_constants_not_isomorphic() {
        let s = schema();
        let serves = s.rel_id("Serves").unwrap();
        let mk = |price: f64| {
            let mut inst = CInstance::new(Arc::clone(&s));
            let (bd, ed) = (s.attr_domain(serves, 0), s.attr_domain(serves, 1));
            let x = inst.fresh_null("x", bd);
            let b = inst.fresh_null("b", ed);
            inst.add_tuple(
                serves,
                vec![x.into(), b.into(), Ent::Const(cqi_schema::Value::real(price))],
            );
            inst
        };
        let a = mk(2.25);
        let b = mk(2.75);
        assert!(!is_isomorphic(&a, &b));
        assert_ne!(signature(&a), signature(&b));
    }

    #[test]
    fn isomorphism_is_reflexive_and_symmetric() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, true);
        assert!(is_isomorphic(&a, &a));
        assert_eq!(is_isomorphic(&a, &b), is_isomorphic(&b, &a));
    }

    #[test]
    fn extra_condition_breaks_isomorphism() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let mut b = two_row_instance(&s, false);
        b.add_cond(Cond::Lit(Lit::cmp(
            NullId(3),
            SolverOp::Ne,
            NullId(1),
        )));
        assert!(!is_isomorphic(&a, &b));
    }

    /// The incremental chains + cached combine must agree across mutation
    /// orders that build the same instance, stay stable across clones, and
    /// change on every digest-affecting mutation. (The debug-assert inside
    /// `exact_digest` cross-checks the chains against a from-scratch
    /// recomputation on every combine, so this test also exercises that.)
    #[test]
    fn digest_cache_tracks_mutations() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, false);
        assert_eq!(exact_digest(&a), exact_digest(&b), "same build, same digest");
        let cloned = a.clone();
        assert_eq!(exact_digest(&cloned), exact_digest(&a), "clone keeps digest");
        assert_eq!(signature(&cloned), signature(&a));

        let before = exact_digest(&a);
        let mut c = a.clone();
        c.add_cond(Cond::Lit(Lit::like(NullId(1), "T%")));
        assert_ne!(exact_digest(&c), before, "new condition changes digest");
        let mut d = a.clone();
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        d.fresh_null("extra", pd);
        assert_ne!(exact_digest(&d), before, "new null changes digest");
        let mut e = a.clone();
        let x = e.fresh_null("x9", s.attr_domain(serves, 0));
        let bb = e.fresh_null("b9", s.attr_domain(serves, 1));
        let p = e.fresh_null("p9", pd);
        e.add_tuple(serves, vec![x.into(), bb.into(), p.into()]);
        assert_ne!(exact_digest(&e), before, "new tuple changes digest");
        // A duplicate insert is a no-op and must keep the digest.
        let frozen = exact_digest(&e);
        assert!(!e.add_tuple(serves, vec![x.into(), bb.into(), p.into()]));
        assert_eq!(exact_digest(&e), frozen);
    }

    #[test]
    fn digest_counters_record_hits_and_recomputes() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let (h0, r0) = digest_stats::snapshot();
        exact_digest(&a); // recompute (fills the cache)
        exact_digest(&a); // hit
        exact_digest(&a.clone()); // hit carried through the clone
        let (h1, r1) = digest_stats::snapshot();
        assert!(r1 > r0);
        assert!(h1 >= h0 + 2);
    }

    #[test]
    fn instance_subsumes_itself_and_its_extensions() {
        let s = schema();
        let a = two_row_instance(&s, false);
        assert!(subsumes(&a, &a, 0), "identity embedding");
        assert!(subsumes(&a, &a, a.num_nulls()), "fully fixed identity");
        let serves = s.rel_id("Serves").unwrap();
        let mut bigger = a.clone();
        let x = bigger.fresh_null("x3", s.attr_domain(serves, 0));
        let bb = bigger.fresh_null("b3", s.attr_domain(serves, 1));
        let p = bigger.fresh_null("p3", s.attr_domain(serves, 2));
        bigger.add_tuple(serves, vec![x.into(), bb.into(), p.into()]);
        assert!(subsumes(&a, &bigger, a.num_nulls()));
        assert!(!subsumes(&bigger, &a, 0), "no injective map into fewer rows");
    }

    #[test]
    fn subsumption_respects_renaming_but_not_fixed_prefix() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let b = two_row_instance(&s, true); // same shape, nulls renamed
        assert!(subsumes(&a, &b, 0), "free embedding absorbs the renaming");
        assert!(subsumes(&a, &b, 1), "shared prefix (null 0 = b) still fixed");
        // Fixing deeper prefixes pins x1 to slot 1, where `b` holds x2: the
        // per-slot NullInfo (names differ) rejects the identification.
        assert!(!subsumes(&a, &b, 3));
    }

    #[test]
    fn subsumption_requires_conditions_and_constants_to_carry_over() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let mut no_cond = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let bb = no_cond.fresh_null("b", ed);
        for i in 0..2 {
            let x = no_cond.fresh_null(format!("x{i}"), bd);
            let p = no_cond.fresh_null(format!("p{i}"), pd);
            no_cond.add_tuple(serves, vec![x.into(), bb.into(), p.into()]);
        }
        // `a` carries a p1 > p2 condition the target lacks.
        assert!(!subsumes(&a, &no_cond, 0));
        assert!(subsumes(&no_cond, &a, 0), "condition-free side embeds fine");

        let mk_const = |price: f64| {
            let mut inst = CInstance::new(Arc::clone(&s));
            let x = inst.fresh_null("x", bd);
            let b = inst.fresh_null("b", ed);
            inst.add_tuple(
                serves,
                vec![x.into(), b.into(), Ent::Const(cqi_schema::Value::real(price))],
            );
            inst
        };
        assert!(subsumes(&mk_const(2.25), &mk_const(2.25), 0));
        assert!(!subsumes(&mk_const(2.25), &mk_const(2.75), 0), "constants fixed");
    }
}
