//! The conjunction decider: equality saturation (union-find) feeding the
//! numeric [`crate::order`] and text [`crate::strings`] engines.
//!
//! The pipeline is factored into an incremental [`Saturation`]: literals are
//! *asserted* one by one (interning nodes, unioning equalities, accumulating
//! order/disequality/LIKE constraints), and [`Saturation::solve`] runs the
//! class-level analysis over whatever has been asserted so far. A
//! from-scratch [`check_conj`] is a thin wrapper; [`crate::state`] builds on
//! the same struct to extend a parent instance's saturated state with delta
//! literals instead of re-asserting the whole conjunction.

use std::collections::HashMap;
use std::sync::Arc;

use cqi_schema::{DomainType, Value};

use crate::cond::{Lit, SolverOp};
use crate::ent::Ent;
use crate::model::Model;
use crate::order::{solve_order_cached, OrderCache, OrderEdge, OrderProblem, WarmSeed};
use crate::strings::{solve_text, TextProblem};
use crate::unionfind::UnionFind;

/// The coarse kind of a node/class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Num,
    Text,
}

fn kind_of_type(t: DomainType) -> Kind {
    match t {
        DomainType::Int | DomainType::Real => Kind::Num,
        DomainType::Text => Kind::Text,
    }
}

/// The class-level encoding produced by the last successful
/// [`Saturation::solve`], cached so the next solve of a *grown* system can
/// extend it by the delta instead of rebuilding from scratch.
///
/// The cache is valid only while the class structure is stable: any
/// equality merge since the solve invalidates it (checked via
/// [`Saturation::merges`]), as does any delta that touches the text side.
/// Within those bounds a delta solve appends the new singleton classes and
/// new numeric edges/disequalities to the cached [`OrderProblem`] and
/// re-solves it warm from the cached class values — the per-class analogue
/// of the node-level `warm` vector, and the piece that keeps base-shifting
/// deltas (a first pinned constant changes the order solver's base) on the
/// warm path: values are absolute, classes are append-only, so the seed
/// survives the shift.
#[derive(Clone, Debug)]
struct SolvedEncoding {
    /// [`Saturation::merges`] at solve time; a mismatch means classes
    /// merged and the whole encoding is stale.
    merges_at: usize,
    /// Prefix lengths of the saturation's constraint vectors already
    /// folded into the encoding.
    nodes_done: usize,
    lt_done: usize,
    neq_done: usize,
    likes_done: usize,
    class_of: Vec<usize>,
    num_classes: usize,
    num_idx: Vec<Option<usize>>,
    text_idx: Vec<Option<usize>>,
    op_num: OrderProblem,
    /// Cached order-solver adjacency; valid because `op_num` only ever
    /// grows append-only while this encoding is live.
    order_cache: OrderCache,
    num_vals: Vec<f64>,
    text_vals: Vec<String>,
}

/// Outcome of a cached delta solve.
enum DeltaSolve {
    /// Cache unusable for this delta — run the full rebuild.
    Miss,
    /// Definitive answer (the delta checks are exact, not heuristic).
    Done(Option<Model>),
}

/// Incrementally saturated conjunction state: interned nodes (nulls and
/// constants), a union-find over asserted equalities, and the accumulated
/// order edges, disequalities, and LIKE constraints. Cloning is cheap
/// relative to a full re-assertion — `Vec`/`HashMap` copies, no solving.
#[derive(Debug)]
pub(crate) struct Saturation {
    /// Domain type per labeled null; nulls occupy nodes `0..types.len()`
    /// in the order they were registered (constants are appended after).
    types: Vec<DomainType>,
    /// Constant interning table. The first few constants live in a linear
    /// vector: typical chase conjunctions carry a handful of constants, and
    /// keeping them inline means cloning a parent state and asserting a
    /// delta never allocates a hash table. Beyond the inline capacity
    /// (instance-level workloads intern every table value) lookups spill to
    /// the map.
    const_small: Vec<(Value, usize)>,
    const_nodes: HashMap<Value, usize>,
    node_const: Vec<Option<Value>>,
    node_kind: Vec<Kind>,
    node_int: Vec<bool>,
    uf: UnionFind,
    /// `(a, b, strict)` meaning `a < b` (strict) or `a ≤ b`.
    lt_edges: Vec<(usize, usize, bool)>,
    neqs: Vec<(usize, usize)>,
    likes: Vec<(usize, bool, String)>,
    /// Node index per null id. Nulls registered after constants were
    /// interned get nodes beyond the initial dense prefix.
    null_node: Vec<usize>,
    /// Per-node numeric values from the last successful [`solve`] — the
    /// warm start of the next solve's Bellman-Ford
    /// ([`crate::order::WarmSeed::Sparse`]). Carried along by `Clone`, so a
    /// [`crate::state::SaturatedState`] extension re-solves its delta warm
    /// instead of cold. Speed-only: the warm path verifies its output and
    /// falls back to the cold solver on any mismatch.
    warm: Vec<Option<f64>>,
    /// Count of effective equality merges, used to validate [`Self::enc`].
    merges: usize,
    /// Cached class-level encoding of the last successful solve. `Arc` so
    /// cloning a saturated state (the chase does this per extension) is a
    /// refcount bump; the delta path copies-on-write only when it actually
    /// mutates the encoding.
    enc: Option<Arc<SolvedEncoding>>,
}

/// Copies a slice into a `Vec` with a few spare slots of capacity.
fn vec_with_slack<T: Clone>(v: &[T], extra: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len() + extra);
    out.extend_from_slice(v);
    out
}

/// Hand-rolled so every growable vector keeps [`CLONE_SLACK`] slots of push
/// headroom: a cloned state is almost always about to absorb a small delta,
/// and a derived clone's exact-capacity vectors would each pay a
/// reallocation on the first assert — measurably the dominant cost of
/// extending a saturated state by one literal.
impl Clone for Saturation {
    fn clone(&self) -> Saturation {
        const CLONE_SLACK: usize = 4;
        Saturation {
            types: vec_with_slack(&self.types, CLONE_SLACK),
            const_small: vec_with_slack(&self.const_small, CLONE_SLACK),
            const_nodes: self.const_nodes.clone(),
            node_const: vec_with_slack(&self.node_const, CLONE_SLACK),
            node_kind: vec_with_slack(&self.node_kind, CLONE_SLACK),
            node_int: vec_with_slack(&self.node_int, CLONE_SLACK),
            uf: self.uf.clone_with_slack(CLONE_SLACK),
            lt_edges: vec_with_slack(&self.lt_edges, CLONE_SLACK),
            neqs: vec_with_slack(&self.neqs, CLONE_SLACK),
            likes: self.likes.clone(),
            null_node: vec_with_slack(&self.null_node, CLONE_SLACK),
            warm: self.warm.clone(),
            merges: self.merges,
            enc: self.enc.clone(),
        }
    }
}

impl Saturation {
    pub(crate) fn new(types: &[DomainType]) -> Saturation {
        let n = types.len();
        Saturation {
            types: types.to_vec(),
            const_small: Vec::new(),
            const_nodes: HashMap::new(),
            node_const: vec![None; n],
            node_kind: types.iter().map(|t| kind_of_type(*t)).collect(),
            node_int: types.iter().map(|t| *t == DomainType::Int).collect(),
            uf: UnionFind::new(n),
            lt_edges: Vec::new(),
            neqs: Vec::new(),
            likes: Vec::new(),
            null_node: (0..n).collect(),
            warm: Vec::new(),
            merges: 0,
            enc: None,
        }
    }

    pub(crate) fn num_nulls(&self) -> usize {
        self.types.len()
    }

    /// Registers nulls added since this state was built. `types` is the
    /// *full* new type vector; the prefix must match the existing one.
    pub(crate) fn grow_types(&mut self, types: &[DomainType]) {
        debug_assert!(types.len() >= self.types.len());
        debug_assert_eq!(&types[..self.types.len()], self.types.as_slice());
        for t in &types[self.types.len()..] {
            let node = self.uf.push();
            self.node_const.push(None);
            self.node_kind.push(kind_of_type(*t));
            self.node_int.push(*t == DomainType::Int);
            self.null_node.push(node);
            self.types.push(*t);
        }
    }

    fn intern(&mut self, e: &Ent) -> usize {
        match e {
            Ent::Null(id) => self.null_node[id.index()],
            Ent::Const(v) => {
                if let Some((_, idx)) = self.const_small.iter().find(|(c, _)| c == v) {
                    return *idx;
                }
                if let Some(idx) = self.const_nodes.get(v) {
                    return *idx;
                }
                let idx = self.uf.push();
                if self.const_small.len() < 8 {
                    self.const_small.push((v.clone(), idx));
                } else {
                    self.const_nodes.insert(v.clone(), idx);
                }
                self.node_const.push(Some(v.clone()));
                self.node_kind.push(kind_of_type(v.domain_type()));
                self.node_int.push(false); // a constant does not force integrality
                idx
            }
        }
    }

    /// Asserts one literal. Returns `false` when the literal (or its
    /// interaction with node kinds) is refuted outright — the state is then
    /// definitively unsatisfiable. Type-mismatched comparisons (number vs
    /// text) are unsatisfiable rather than errors: they can arise
    /// transiently inside DPLL branches.
    pub(crate) fn assert_lit(&mut self, lit: &Lit) -> bool {
        match lit {
            Lit::Cmp { lhs, op, rhs } => {
                // Constant folding.
                if let (Ent::Const(a), Ent::Const(b)) = (lhs, rhs) {
                    return matches!(op.eval(a, b), Some(true)); // false or incomparable types refute
                }
                let a = self.intern(lhs);
                let b = self.intern(rhs);
                if self.node_kind[a] != self.node_kind[b] {
                    return false; // comparing text with number
                }
                match op {
                    SolverOp::Eq => {
                        if self.uf.find(a) != self.uf.find(b) {
                            self.uf.union(a, b);
                            self.merges += 1;
                        }
                    }
                    SolverOp::Ne => self.neqs.push((a, b)),
                    SolverOp::Lt => self.lt_edges.push((a, b, true)),
                    SolverOp::Le => self.lt_edges.push((a, b, false)),
                    SolverOp::Gt => self.lt_edges.push((b, a, true)),
                    SolverOp::Ge => self.lt_edges.push((b, a, false)),
                }
                true
            }
            Lit::Like { negated, ent, pattern } => match ent {
                Ent::Const(v) => match v {
                    Value::Str(s) => crate::nfa::like_match(pattern, s) != *negated,
                    _ => false, // LIKE on a number
                },
                Ent::Null(_) => {
                    let a = self.intern(ent);
                    if self.node_kind[a] != Kind::Text {
                        return false;
                    }
                    self.likes.push((a, *negated, pattern.clone()));
                    true
                }
            },
        }
    }

    /// Attempts to answer [`Self::solve`] by extending the cached encoding
    /// of the previous solve with just the delta asserted since. Returns
    /// [`DeltaSolve::Miss`] when the cache is absent/stale or the delta
    /// needs machinery the extension does not model (class merges, any
    /// text-side constraint); the verdicts it *does* return are exact.
    fn try_solve_delta(&mut self) -> DeltaSolve {
        // Take the cache unconditionally: a miss falls through to the full
        // rebuild (which re-populates it), and an unsat discards the state.
        let Some(mut enc_arc) = self.enc.take() else {
            return DeltaSolve::Miss;
        };
        let total = self.uf.len();
        if enc_arc.merges_at != self.merges || enc_arc.likes_done != self.likes.len() {
            return DeltaSolve::Miss;
        }
        // Copy-on-write: clones the encoding iff it is still shared with
        // the parent state (the extend path always is), keeping parent and
        // child caches independent.
        let enc = Arc::make_mut(&mut enc_arc);

        // New nodes since the solve are singleton classes (no merges), in
        // the same dense order `UnionFind::classes` would assign. Numeric
        // ones join the order problem; text ones stay unassigned in the
        // model (the documented fast-path contract) unless a text
        // constraint arrives later — which is a miss anyway.
        let old_num_n = enc.op_num.n;
        for node in enc.nodes_done..total {
            let c = enc.num_classes;
            enc.num_classes += 1;
            enc.class_of.push(c);
            match self.node_kind[node] {
                Kind::Num => {
                    enc.num_idx.push(Some(enc.op_num.n));
                    enc.text_idx.push(None);
                    enc.op_num.n += 1;
                    enc.op_num.int_class.push(self.node_int[node]);
                    enc.op_num
                        .pinned
                        .push(self.node_const[node].as_ref().and_then(|v| v.as_f64()));
                }
                Kind::Text => {
                    if self.node_const[node].is_some() {
                        return DeltaSolve::Miss; // pinned text class — text solve
                    }
                    enc.num_idx.push(None);
                    enc.text_idx.push(None);
                }
            }
        }

        let mut num_changed = enc.op_num.n != old_num_n;
        for &(a, b, strict) in &self.lt_edges[enc.lt_done..] {
            let (ca, cb) = (enc.class_of[a], enc.class_of[b]);
            match (enc.num_idx[ca], enc.num_idx[cb]) {
                (Some(i), Some(j)) => {
                    if strict && i == j {
                        return DeltaSolve::Done(None); // x < x
                    }
                    enc.op_num.edges.push(OrderEdge { from: i, to: j, strict });
                    num_changed = true;
                }
                _ => return DeltaSolve::Miss, // text-side order constraint
            }
        }
        for &(a, b) in &self.neqs[enc.neq_done..] {
            let (ca, cb) = (enc.class_of[a], enc.class_of[b]);
            if ca == cb {
                return DeltaSolve::Done(None); // x ≠ x
            }
            match (enc.num_idx[ca], enc.num_idx[cb]) {
                (Some(i), Some(j)) => {
                    enc.op_num.neqs.push((i, j));
                    num_changed = true;
                }
                _ => return DeltaSolve::Miss, // text-side disequality
            }
        }

        if num_changed {
            // The cached class values are exactly the dense prefix of the
            // grown problem's classes (classes are append-only here), and
            // the cached CSR covers the edge prefix.
            match solve_order_cached(
                &enc.op_num,
                Some(WarmSeed::Dense(&enc.num_vals)),
                &mut enc.order_cache,
            ) {
                Some(vals) => enc.num_vals = vals,
                None => return DeltaSolve::Done(None),
            }
        }

        // `self.warm` (the node-level fallback seed for the full-rebuild
        // path) is deliberately left stale: `enc.num_vals` carries the live
        // per-class values, and if a later merge invalidates this encoding
        // the older node values are still sound seeds — the warm solver
        // verifies and falls back cold on any mismatch.
        let n = self.types.len();
        let mut values: Vec<Option<Value>> = vec![None; n];
        for (null, slot) in values.iter_mut().enumerate() {
            let c = enc.class_of[self.null_node[null]];
            if let Some(i) = enc.num_idx[c] {
                let x = enc.num_vals[i];
                *slot = Some(if self.types[null] == DomainType::Int {
                    Value::Int(x as i64)
                } else {
                    Value::real(x)
                });
            } else if let Some(i) = enc.text_idx[c] {
                *slot = Some(Value::str(&enc.text_vals[i]));
            }
        }

        enc.nodes_done = total;
        enc.lt_done = self.lt_edges.len();
        enc.neq_done = self.neqs.len();
        self.enc = Some(enc_arc);
        DeltaSolve::Done(Some(Model::new(values)))
    }

    /// Runs the class-level analysis over everything asserted so far:
    /// equality classes, clash detection, numeric/text split, and the
    /// [`crate::order`]/[`crate::strings`] engines; assembles a per-null
    /// model on success. A solve over a state that already solved (the
    /// incremental extend path) goes through [`Self::try_solve_delta`]
    /// first and only falls back to the full rebuild below when the delta
    /// changed the class structure.
    #[allow(clippy::needless_range_loop)] // node/class index arithmetic
    pub(crate) fn solve(&mut self) -> Option<Model> {
        if let DeltaSolve::Done(res) = self.try_solve_delta() {
            return res;
        }
        let total = self.uf.len();
        let (class_of, num_classes) = self.uf.classes();

        // Per-class attributes; detect clashes.
        let mut class_pin: Vec<Option<Value>> = vec![None; num_classes];
        let mut class_kind: Vec<Option<Kind>> = vec![None; num_classes];
        let mut class_int: Vec<bool> = vec![false; num_classes];
        for node in 0..total {
            let c = class_of[node];
            match class_kind[c] {
                None => class_kind[c] = Some(self.node_kind[node]),
                Some(k) if k != self.node_kind[node] => return None, // text = number
                _ => {}
            }
            if self.node_int[node] {
                class_int[c] = true;
            }
            if let Some(v) = &self.node_const[node] {
                match &class_pin[c] {
                    None => class_pin[c] = Some(v.clone()),
                    Some(prev) => {
                        // Two constants merged: equal is fine (same node by
                        // interning), numerically-equal Int/Real also fine.
                        if prev.try_cmp(v) != Some(std::cmp::Ordering::Equal) {
                            return None;
                        }
                    }
                }
            }
        }

        // Disequalities inside one class are immediately unsatisfiable.
        for &(a, b) in &self.neqs {
            if class_of[a] == class_of[b] {
                return None;
            }
        }

        // Split classes into numeric and text subproblems.
        let mut num_idx: Vec<Option<usize>> = vec![None; num_classes];
        let mut text_idx: Vec<Option<usize>> = vec![None; num_classes];
        let mut num_classes_list: Vec<usize> = Vec::new();
        let mut text_classes_list: Vec<usize> = Vec::new();
        for c in 0..num_classes {
            match class_kind[c] {
                Some(Kind::Num) | None => {
                    num_idx[c] = Some(num_classes_list.len());
                    num_classes_list.push(c);
                }
                Some(Kind::Text) => {
                    text_idx[c] = Some(text_classes_list.len());
                    text_classes_list.push(c);
                }
            }
        }

        let mut op_num = OrderProblem::new(num_classes_list.len());
        for (i, &c) in num_classes_list.iter().enumerate() {
            op_num.int_class[i] = class_int[c];
            op_num.pinned[i] = class_pin[c].as_ref().and_then(|v| v.as_f64());
        }
        let mut op_text = TextProblem::new(text_classes_list.len());
        for (i, &c) in text_classes_list.iter().enumerate() {
            op_text.pinned[i] = class_pin[c].as_ref().and_then(|v| match v {
                Value::Str(s) => Some(s.to_string()),
                _ => None,
            });
        }

        for &(a, b, strict) in &self.lt_edges {
            let (ca, cb) = (class_of[a], class_of[b]);
            match (num_idx[ca], num_idx[cb]) {
                (Some(i), Some(j)) => {
                    if strict && i == j {
                        return None; // x < x
                    }
                    op_num.edges.push(OrderEdge { from: i, to: j, strict });
                }
                _ => match (text_idx[ca], text_idx[cb]) {
                    (Some(i), Some(j)) => {
                        if strict && i == j {
                            return None;
                        }
                        op_text.edges.push(OrderEdge { from: i, to: j, strict });
                    }
                    _ => return None, // mixed kinds (already guarded, defensive)
                },
            }
        }
        for &(a, b) in &self.neqs {
            let (ca, cb) = (class_of[a], class_of[b]);
            match (num_idx[ca], num_idx[cb]) {
                (Some(i), Some(j)) => op_num.neqs.push((i, j)),
                _ => {
                    if let (Some(i), Some(j)) = (text_idx[ca], text_idx[cb]) {
                        op_text.neqs.push((i, j));
                    }
                    // number ≠ text holds vacuously
                }
            }
        }
        for (a, neg, pat) in &self.likes {
            let c = class_of[*a];
            match text_idx[c] {
                Some(i) => op_text.likes[i].push((*neg, pat.clone())),
                None => return None,
            }
        }

        // Solve both sides. The numeric side warm-starts from the previous
        // solve's values when this state has solved before (the incremental
        // extend path): per new class, the max over its member nodes' old
        // values — a lower bound on the new least fixpoint, since
        // constraints only grow and merged classes take the max of their
        // parts.
        let mut order_cache = OrderCache::default();
        let num_vals = if self.warm.is_empty() {
            solve_order_cached(&op_num, None, &mut order_cache)?
        } else {
            let mut warm_by_class: Vec<Option<f64>> = vec![None; num_classes_list.len()];
            for (node, w) in self.warm.iter().enumerate().take(total) {
                if let (Some(v), Some(i)) = (w, num_idx[class_of[node]]) {
                    let slot = &mut warm_by_class[i];
                    *slot = Some(slot.map_or(*v, |cur: f64| cur.max(*v)));
                }
            }
            solve_order_cached(&op_num, Some(WarmSeed::Sparse(&warm_by_class)), &mut order_cache)?
        };
        let text_vals = solve_text(&op_text)?;

        // Record this solution as the next solve's warm start.
        self.warm = vec![None; total];
        for node in 0..total {
            if let Some(i) = num_idx[class_of[node]] {
                self.warm[node] = Some(num_vals[i]);
            }
        }

        // Assemble the per-null model.
        let n = self.types.len();
        let mut values: Vec<Option<Value>> = vec![None; n];
        for null in 0..n {
            let c = class_of[self.null_node[null]];
            let v = if let Some(i) = num_idx[c] {
                let x = num_vals[i];
                if self.types[null] == DomainType::Int {
                    Value::Int(x as i64)
                } else {
                    Value::real(x)
                }
            } else if let Some(i) = text_idx[c] {
                Value::str(&text_vals[i])
            } else {
                continue;
            };
            values[null] = Some(v);
        }

        // Cache the class-level encoding so the next (grown) solve can
        // extend it instead of rebuilding — see [`SolvedEncoding`].
        self.enc = Some(Arc::new(SolvedEncoding {
            merges_at: self.merges,
            nodes_done: total,
            lt_done: self.lt_edges.len(),
            neq_done: self.neqs.len(),
            likes_done: self.likes.len(),
            class_of,
            num_classes,
            num_idx,
            text_idx,
            op_num,
            order_cache,
            num_vals,
            text_vals,
        }));
        Some(Model::new(values))
    }
}

/// Decides a pure conjunction of literals; returns a model on success.
///
/// `types[n]` gives each null's domain type. Type-mismatched comparisons
/// (number vs text) are unsatisfiable rather than errors: they can arise
/// transiently inside DPLL branches.
pub fn check_conj(types: &[DomainType], lits: &[Lit]) -> Option<Model> {
    let _s = cqi_obs::trace::span("check_conj", "solver");
    let mut sat = Saturation::new(types);
    for lit in lits {
        if !sat.assert_lit(lit) {
            return None;
        }
    }
    sat.solve()
}

/// Convenience wrapper used by tests.
pub fn is_conj_sat(types: &[DomainType], lits: &[Lit]) -> bool {
    check_conj(types, lits).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ent::NullId;

    fn nulls(spec: &[DomainType]) -> Vec<DomainType> {
        spec.to_vec()
    }

    fn n(i: u32) -> NullId {
        NullId(i)
    }

    #[test]
    fn price_chain_sat_with_model() {
        // p1 > p2 ∧ p2 > p3 — the running example's I0 condition.
        let types = nulls(&[DomainType::Real; 3]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Gt, n(1)),
            Lit::cmp(n(1), SolverOp::Gt, n(2)),
        ];
        let m = check_conj(&types, &lits).unwrap();
        let (p1, p2, p3) = (
            m.get(n(0)).unwrap().as_f64().unwrap(),
            m.get(n(1)).unwrap().as_f64().unwrap(),
            m.get(n(2)).unwrap().as_f64().unwrap(),
        );
        assert!(p1 > p2 && p2 > p3);
    }

    #[test]
    fn contradiction_detected_through_equality() {
        let types = nulls(&[DomainType::Real; 3]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, n(1)),
            Lit::cmp(n(1), SolverOp::Eq, n(2)),
            Lit::cmp(n(0), SolverOp::Lt, n(2)),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn constants_pin_values() {
        let types = nulls(&[DomainType::Real]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Gt, Value::real(2.25)),
            Lit::cmp(n(0), SolverOp::Lt, Value::real(2.75)),
        ];
        let m = check_conj(&types, &lits).unwrap();
        let v = m.get(n(0)).unwrap().as_f64().unwrap();
        assert!(v > 2.25 && v < 2.75);
    }

    #[test]
    fn equal_to_two_different_constants_unsat() {
        let types = nulls(&[DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::str("a")),
            Lit::cmp(n(0), SolverOp::Eq, Value::str("b")),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn int_real_equal_constants_ok() {
        let types = nulls(&[DomainType::Real]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::Int(3)),
            Lit::cmp(n(0), SolverOp::Eq, Value::real(3.0)),
        ];
        assert!(check_conj(&types, &lits).is_some());
    }

    #[test]
    fn text_number_comparison_unsat() {
        let types = nulls(&[DomainType::Text, DomainType::Int]);
        let lits = vec![Lit::cmp(n(0), SolverOp::Lt, n(1))];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn like_with_order_and_equality() {
        // d1 = d2, d1 LIKE 'Eve%', ¬(d2 LIKE 'Eve %') — satisfiable
        // ("EveX"), the heart of the paper's Q1 case study.
        let types = nulls(&[DomainType::Text, DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, n(1)),
            Lit::like(n(0), "Eve%"),
            Lit::not_like(n(1), "Eve %"),
        ];
        let m = check_conj(&types, &lits).unwrap();
        let s = match m.get(n(0)).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("expected string, got {other}"),
        };
        assert!(s.starts_with("Eve") && !s.starts_with("Eve "));
    }

    #[test]
    fn like_conflict_through_equality() {
        let types = nulls(&[DomainType::Text, DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, n(1)),
            Lit::like(n(0), "Eve %"),
            Lit::not_like(n(1), "Eve%"),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn int_window_unsat() {
        let types = nulls(&[DomainType::Int]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Gt, Value::Int(2)),
            Lit::cmp(n(0), SolverOp::Lt, Value::Int(3)),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn constant_folding() {
        let types = nulls(&[]);
        assert!(check_conj(
            &types,
            &[Lit::cmp(Value::Int(1), SolverOp::Lt, Value::Int(2))]
        )
        .is_some());
        assert!(check_conj(
            &types,
            &[Lit::cmp(Value::Int(2), SolverOp::Lt, Value::Int(1))]
        )
        .is_none());
        assert!(check_conj(&types, &[Lit::like(Value::str("Eve E"), "Eve %")]).is_some());
        assert!(check_conj(&types, &[Lit::not_like(Value::str("Eve E"), "Eve%")]).is_none());
    }

    #[test]
    fn ne_to_constant() {
        let types = nulls(&[DomainType::Text]);
        let lits = vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::str("Edge")),
            Lit::cmp(n(0), SolverOp::Ne, Value::str("Edge")),
        ];
        assert!(check_conj(&types, &lits).is_none());
    }

    #[test]
    fn empty_conjunction_sat() {
        assert!(check_conj(&[], &[]).is_some());
    }

    #[test]
    fn date_integers() {
        // TPC-H style: 19930701 ≤ d < 19931001.
        let types = nulls(&[DomainType::Int]);
        let lits = vec![
            Lit::cmp(Value::Int(19930701), SolverOp::Le, n(0)),
            Lit::cmp(n(0), SolverOp::Lt, Value::Int(19931001)),
        ];
        let m = check_conj(&types, &lits).unwrap();
        match m.get(n(0)).unwrap() {
            Value::Int(d) => assert!((19930701..19931001).contains(d)),
            other => panic!("expected int, got {other}"),
        }
    }
}
