//! Order reasoning over numeric equivalence classes.
//!
//! After equality saturation, the theory solver reduces every numeric
//! comparison to a system of *order edges* `from (< | ≤) to` between
//! equivalence classes, some of which are *pinned* to constant values, plus
//! disequalities. This module decides such systems and produces concrete
//! assignments:
//!
//! * **Dense strictness** (reals, or mixed real/int comparisons) uses a
//!   symbolic-ε weight: `x < y` contributes `(0, 1ε)`.
//! * **Integer strictness** uses exact unit weights: `x < y` contributes
//!   `+1` when both endpoints are integer classes, and fractional lower
//!   bounds are iteratively tightened to the next integer
//!   (difference-logic style).
//! * Infeasibility manifests as a **positive-weight cycle** under the
//!   longest-path semantics `val(to) ≥ val(from) + w`, or as a pinned
//!   class whose longest-path distance exceeds its pin.
//! * Disequalities are resolved by splitting (`x ≠ y ⇒ x < y ∨ y < x`),
//!   which keeps the procedure complete for order constraints.
//!
//! ## Relaxation strategy
//!
//! Pins are *not* encoded as source/back edges (the classic
//! difference-constraint gadget); they seed the distance vector exactly and
//! are re-checked for equality after the fixpoint. That leaves only
//! constraint edges with non-negative weights, so:
//!
//! * **Cold solves** run direction-partitioned label-correcting (Yen's
//!   ordering): one ascending sweep over forward edges plus one descending
//!   sweep over backward edges per pass, Gauss-Seidel style. Monotone
//!   chains converge in one or two passes instead of the O(V) rounds of
//!   textbook Bellman-Ford; a system still relaxing after `n + 2` passes
//!   has a positive cycle (Yen's bound is ⌈n/2⌉ + 1).
//! * **Warm re-solves** ([`solve_order_cached`] with a [`WarmSeed`]) run
//!   incremental label-correcting with a pending max-heap: distances seed
//!   from the previous solution, one scan finds the edges the delta
//!   violated, and repair pops the highest pending class first so a
//!   single-edge delta touches only the classes downstream of it. A small improvement budget
//!   bounds the heap work; exceeding it means the cascade is broad enough
//!   that sweeps beat heap traffic, and the solve downgrades to the cold
//!   sweeps mid-flight (sound: partial improvements are valid
//!   relaxations), never declaring "unsat" from the warm side alone.

use std::sync::Arc;

/// Symbolic weight `sum + eps·ε` for an infinitesimal `ε > 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct W {
    sum: f64,
    eps: u32,
}

impl W {
    const ZERO: W = W { sum: 0.0, eps: 0 };

    fn new(sum: f64, eps: u32) -> W {
        W { sum, eps }
    }

    fn add(self, o: W) -> W {
        W {
            sum: self.sum + o.sum,
            eps: self.eps + o.eps,
        }
    }

    /// Lexicographic comparison (valid for sufficiently small ε).
    fn gt(self, o: W) -> bool {
        self.sum > o.sum || (self.sum == o.sum && self.eps > o.eps)
    }
}

/// One order constraint between classes: `from < to` (strict) or
/// `from ≤ to`.
#[derive(Clone, Copy, Debug)]
pub struct OrderEdge {
    pub from: usize,
    pub to: usize,
    pub strict: bool,
}

/// An order system over `n` numeric classes.
#[derive(Clone, Debug)]
pub struct OrderProblem {
    pub n: usize,
    /// Classes whose values must be integers.
    pub int_class: Vec<bool>,
    /// Classes pinned to a constant.
    pub pinned: Vec<Option<f64>>,
    pub edges: Vec<OrderEdge>,
    /// Pairs that must receive different values.
    pub neqs: Vec<(usize, usize)>,
}

impl OrderProblem {
    pub fn new(n: usize) -> OrderProblem {
        OrderProblem {
            n,
            int_class: vec![false; n],
            pinned: vec![None; n],
            edges: Vec::new(),
            neqs: Vec::new(),
        }
    }

    pub fn le(&mut self, from: usize, to: usize) {
        self.edges.push(OrderEdge {
            from,
            to,
            strict: false,
        });
    }

    pub fn lt(&mut self, from: usize, to: usize) {
        self.edges.push(OrderEdge {
            from,
            to,
            strict: true,
        });
    }
}

/// Decides the system; on success returns one concrete value per class
/// (integral for integer classes, exact for pinned classes).
pub fn solve_order(p: &OrderProblem) -> Option<Vec<f64>> {
    let _s = cqi_obs::trace::span("solve_order", "solver");
    solve_order_cached(p, None, &mut OrderCache::default())
}

/// Rebuild the cached CSR once this many edges have accumulated past it —
/// below that the per-solve "extras" overlay is cheaper than a rebuild.
const CSR_REFRESH: usize = 16;

/// The incremental entry point: warm seeds *and* a cached adjacency.
/// `cache` must come from a previous solve of a problem this one grew from
/// append-only (same nodes/edges prefix, `int_class` of covered nodes
/// unchanged) — the theory solver's delta path guarantees exactly that.
/// Edges past the cached prefix ride along as an overlay; the cache is
/// refreshed once the overlay exceeds [`CSR_REFRESH`].
pub(crate) fn solve_order_cached(
    p: &OrderProblem,
    warm: Option<WarmSeed<'_>>,
    cache: &mut OrderCache,
) -> Option<Vec<f64>> {
    for (i, v) in p.pinned.iter().enumerate() {
        if let Some(v) = v {
            if p.int_class[i] && v.fract() != 0.0 {
                return None; // integer class pinned to a fractional value
            }
        }
    }
    if p.neqs.iter().any(|(a, b)| a == b) {
        return None; // x ≠ x
    }
    let csr = match &cache.csr {
        Some(c) if c.valid_for(p) => Arc::clone(c),
        _ => {
            let c = Arc::new(OrderCsr::build(p));
            cache.csr = Some(Arc::clone(&c));
            c
        }
    };
    let res = match warm {
        Some(w) if w.usable(p) => try_warm(p, w, &csr).or_else(|| solve_rec(p, 0, &csr)),
        _ => solve_rec(p, 0, &csr),
    };
    if res.is_some() && p.edges.len() - csr.edges_done > CSR_REFRESH {
        cache.csr = Some(Arc::new(OrderCsr::build(p)));
    }
    res
}

/// Borrowed warm-seed forms accepted by [`candidate`].
#[derive(Clone, Copy)]
pub(crate) enum WarmSeed<'a> {
    /// One optional absolute value per class (`len == n`): class `i`'s
    /// value from a previous solve of a sub-system of the problem (fewer
    /// edges, possibly fewer merged classes). Relaxation under the
    /// longest-path semantics is monotone and distances only grow as
    /// constraints are added, so the warm path seeds the distance vector at
    /// the old absolute values (re-based against the current base, which
    /// keeps base-shifting deltas such as a first pinned constant warm),
    /// finds the few edges the delta violated in one scan, and repairs just
    /// their downstream cone with a pending max-heap — near-logarithmic
    /// work per single-edge delta instead of a full `O(V·E)` re-relaxation.
    ///
    /// Soundness does not rest on the warm values being right: the warm
    /// attempt's output is fully [`verify`]d, and any failure (spurious
    /// positive cycle from stale values, pin mismatch, disequality
    /// collision) falls back to the cold solver. Warm and cold are
    /// therefore answer-equivalent; only wall-clock differs.
    Sparse(&'a [Option<f64>]),
    /// Absolute values for the class prefix `0..len` (`len <= n`) — the
    /// theory solver's delta shape, where classes are append-only and the
    /// previous solve valued every class then extant.
    Dense(&'a [f64]),
}

impl WarmSeed<'_> {
    /// Whether the seed is shaped for `p` and carries any information.
    fn usable(&self, p: &OrderProblem) -> bool {
        match self {
            WarmSeed::Sparse(v) => v.len() == p.n && v.iter().any(Option::is_some),
            WarmSeed::Dense(v) => !v.is_empty() && v.len() <= p.n,
        }
    }
}

/// One warm attempt: a warm-seeded candidate and a full verification (the
/// pin/disequality screens already ran in [`solve_order_cached`]). `None`
/// means "inconclusive — run cold", never "unsat".
fn try_warm(p: &OrderProblem, warm: WarmSeed<'_>, csr: &OrderCsr) -> Option<Vec<f64>> {
    let vals = candidate(p, Some(warm), csr)?;
    // Disequality collisions need the splitting search — cold path.
    if p.neqs.iter().any(|&(a, b)| vals[a] == vals[b]) {
        return None;
    }
    verify(p, &vals).then_some(vals)
}

fn solve_rec(p: &OrderProblem, depth: usize, csr: &OrderCsr) -> Option<Vec<f64>> {
    let vals = candidate(p, None, csr)?;
    // Resolve disequality collisions by splitting on the order.
    if let Some(&(a, b)) = p.neqs.iter().find(|(a, b)| vals[*a] == vals[*b]) {
        if depth > 2 * p.neqs.len() + 2 {
            return None;
        }
        for (from, to) in [(a, b), (b, a)] {
            // `q` grows append-only from `p`, so the CSR stays valid (the
            // split edge rides in the overlay).
            let mut q = p.clone();
            q.lt(from, to);
            if let Some(v) = solve_rec(&q, depth + 1, csr) {
                return Some(v);
            }
        }
        return None;
    }
    verify(p, &vals).then_some(vals)
}

/// Max-heap key for the warm-repair pending queue: highest distance first
/// (the class a delta raised most propagates furthest), class index as a
/// deterministic tie-break.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    key: HeapW,
    node: usize,
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Totally ordered wrapper over [`W`] (sums are always finite here).
#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapW(W);

impl Eq for HeapW {}

impl PartialOrd for HeapW {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapW {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .sum
            .total_cmp(&other.0.sum)
            .then(self.0.eps.cmp(&other.0.eps))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.node.cmp(&other.node))
    }
}

/// Weight of one constraint edge under the longest-path semantics.
#[inline]
fn edge_weight(p: &OrderProblem, e: &OrderEdge) -> W {
    if !e.strict {
        W::ZERO
    } else if p.int_class[e.from] && p.int_class[e.to] {
        W::new(1.0, 0)
    } else {
        W::new(0.0, 1)
    }
}

/// The difference-constraint graph in relaxation form: non-negative
/// constraint edges only (pins live in the seed vector), stored as a flat
/// CSR adjacency (one offsets array, one edge array — no per-node
/// `Vec`s). Covers an edge *prefix* of the problem that built it, so a
/// grown problem can reuse it with the newer edges as an overlay (see
/// [`RelaxGraph`]). Opaque outside the solver; cached across solves via
/// [`OrderCache`].
#[derive(Clone, Debug)]
pub(crate) struct OrderCsr {
    /// Nodes covered; out-edges of nodes `>= n` live in the overlay.
    n: usize,
    /// Edge prefix `p.edges[..edges_done]` folded in.
    edges_done: usize,
    /// `adj[off[v]..off[v + 1]]` are `v`'s out-edges.
    off: Vec<u32>,
    /// `(to, w)` grouped by `from`, insertion-ordered within a node.
    adj: Vec<(u32, W)>,
}

impl OrderCsr {
    fn build(p: &OrderProblem) -> OrderCsr {
        let mut off = vec![0u32; p.n + 1];
        for e in &p.edges {
            off[e.from + 1] += 1;
        }
        for i in 0..p.n {
            off[i + 1] += off[i];
        }
        let mut cursor: Vec<u32> = off[..p.n].to_vec();
        let mut adj = vec![(0u32, W::ZERO); p.edges.len()];
        for e in &p.edges {
            adj[cursor[e.from] as usize] = (e.to as u32, edge_weight(p, e));
            cursor[e.from] += 1;
        }
        OrderCsr {
            n: p.n,
            edges_done: p.edges.len(),
            off,
            adj,
        }
    }

    /// Shape check: `p` must have grown append-only from the building
    /// problem (the caller's contract — this only screens the prefixes).
    fn valid_for(&self, p: &OrderProblem) -> bool {
        self.n <= p.n && self.edges_done <= p.edges.len()
    }

    #[inline]
    fn out(&self, v: usize) -> &[(u32, W)] {
        if v >= self.n {
            return &[];
        }
        &self.adj[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// Carry-over state between solves of an append-only-growing problem.
#[derive(Clone, Debug, Default)]
pub(crate) struct OrderCache {
    csr: Option<Arc<OrderCsr>>,
}

/// The relaxation view a solve actually runs over: a (possibly cached)
/// CSR prefix plus the weighted overlay of edges appended since the CSR
/// was built. Within-pass edge order differs from a freshly built full
/// CSR, but the least fixpoint (and hence every output) is
/// order-independent.
struct RelaxGraph<'a> {
    n: usize,
    csr: &'a OrderCsr,
    /// `(from, to, w)` for `p.edges[csr.edges_done..]`.
    extras: Vec<(u32, u32, W)>,
}

impl<'a> RelaxGraph<'a> {
    fn new(p: &OrderProblem, csr: &'a OrderCsr) -> RelaxGraph<'a> {
        let extras = p.edges[csr.edges_done..]
            .iter()
            .map(|e| (e.from as u32, e.to as u32, edge_weight(p, e)))
            .collect();
        RelaxGraph {
            n: p.n,
            csr,
            extras,
        }
    }

    #[inline]
    fn out(&self, v: usize) -> &[(u32, W)] {
        self.csr.out(v)
    }

    /// Cold fixpoint: alternating ascending/descending Gauss-Seidel sweeps
    /// (Yen's ordering). Converges within `n + 2` passes for any
    /// positive-cycle-free system (Yen's bound is ⌈n/2⌉ + 1); still
    /// changing after the cap ⇒ positive cycle ⇒ `None` (exact: all edge
    /// weights are non-negative).
    fn relax_cold(&self, dist: &mut [W]) -> Option<()> {
        for _pass in 0..self.n + 2 {
            let mut changed = false;
            for from in 0..self.n {
                let df = dist[from];
                for &(to, w) in self.out(from) {
                    let cand = df.add(w);
                    if cand.gt(dist[to as usize]) {
                        dist[to as usize] = cand;
                        changed = true;
                    }
                }
            }
            for &(from, to, w) in &self.extras {
                let cand = dist[from as usize].add(w);
                if cand.gt(dist[to as usize]) {
                    dist[to as usize] = cand;
                    changed = true;
                }
            }
            for from in (0..self.n).rev() {
                let df = dist[from];
                for &(to, w) in self.out(from) {
                    let cand = df.add(w);
                    if cand.gt(dist[to as usize]) {
                        dist[to as usize] = cand;
                        changed = true;
                    }
                }
            }
            for &(from, to, w) in self.extras.iter().rev() {
                let cand = dist[from as usize].add(w);
                if cand.gt(dist[to as usize]) {
                    dist[to as usize] = cand;
                    changed = true;
                }
            }
            if !changed {
                return Some(());
            }
        }
        None
    }

    /// Incremental repair: re-relax only what `pending` classes (those a
    /// delta or tightening round raised) actually reach, popping the
    /// highest distance first. Every improvement costs one unit of
    /// `budget`; running out means the delta's cone is broad enough that
    /// flat sweeps are cheaper than heap traffic, and the caller finishes
    /// with [`Self::relax_cold`] — every improvement made so far is a
    /// valid relaxation, so continuing with sweeps reaches the same least
    /// fixpoint above the seeded floor. Unlike [`Self::relax_cold`],
    /// `None` here is *never* an unsat verdict.
    fn relax_warm(
        &self,
        dist: &mut [W],
        heap: &mut std::collections::BinaryHeap<Pending>,
        budget: &mut usize,
    ) -> Option<()> {
        while let Some(Pending { key, node }) = heap.pop() {
            if key.0 != dist[node] {
                continue; // stale entry — the node was raised again later
            }
            let df = dist[node];
            let csr_out = self.out(node).iter().copied();
            let extra_out = self
                .extras
                .iter()
                .filter(|&&(f, _, _)| f as usize == node)
                .map(|&(_, t, w)| (t, w));
            for (to, w) in csr_out.chain(extra_out) {
                let cand = df.add(w);
                if cand.gt(dist[to as usize]) {
                    if *budget == 0 {
                        return None;
                    }
                    *budget -= 1;
                    dist[to as usize] = cand;
                    heap.push(Pending {
                        key: HeapW(cand),
                        node: to as usize,
                    });
                }
            }
        }
        Some(())
    }

    /// Seeds the warm pending heap with every edge the seeded distances
    /// violate (for a single-edge delta this is the handful of edges the
    /// delta touched), applying the violated edges' improvements directly.
    fn seed_violations(
        &self,
        dist: &mut [W],
        heap: &mut std::collections::BinaryHeap<Pending>,
    ) {
        for from in 0..self.n {
            let df = dist[from];
            for &(to, w) in self.out(from) {
                let cand = df.add(w);
                if cand.gt(dist[to as usize]) {
                    dist[to as usize] = cand;
                    heap.push(Pending {
                        key: HeapW(cand),
                        node: to as usize,
                    });
                }
            }
        }
        for &(from, to, w) in &self.extras {
            let cand = dist[from as usize].add(w);
            if cand.gt(dist[to as usize]) {
                dist[to as usize] = cand;
                heap.push(Pending {
                    key: HeapW(cand),
                    node: to as usize,
                });
            }
        }
    }
}

/// Longest-path candidate assignment followed by integer tightening.
/// `warm` optionally seeds the relaxation with per-class values from a
/// previous solve of a sub-system and switches relaxation to the
/// pending-heap repair (see [`WarmSeed::Sparse`]).
fn candidate(p: &OrderProblem, warm: Option<WarmSeed<'_>>, csr: &OrderCsr) -> Option<Vec<f64>> {
    let n = p.n;
    // With pinned constants the base must sit safely below every feasible
    // value; without them any base works, and a positive one makes
    // grounded examples friendlier to read. Warm values are stored as
    // *absolute* values precisely so that a delta that shifts the base
    // (e.g. the first pinned constant) re-seeds correctly: the seed below
    // subtracts whatever the current base is.
    let base = if p.pinned.iter().all(Option::is_none) {
        1.0
    } else {
        let min_pinned = p
            .pinned
            .iter()
            .flatten()
            .fold(0.0f64, |acc, v| acc.min(*v));
        min_pinned.floor() - (n as f64) - 2.0
    };

    let g = RelaxGraph::new(p, csr);

    // Every class starts at the base floor; pins seed exactly (and are
    // re-checked for equality after the fixpoint — feasibility's upper
    // bounds all come from pins, so no back-edges are needed and every
    // graph edge has non-negative weight); warm values seed at their
    // previous absolute value. A stale-high warm seed at worst yields a
    // feasible non-least assignment (fine — `verify` gates it) or a pin
    // mismatch (the warm caller goes cold).
    let mut dist: Vec<W> = vec![W::ZERO; n];
    for (i, pin) in p.pinned.iter().enumerate() {
        if let Some(v) = pin {
            dist[i] = W::new(v - base, 0);
        }
    }
    let mut heap = std::collections::BinaryHeap::new();
    // Heap repair wins when the delta's downstream cone is small; past
    // this many improvements a broad cascade is in flight and the flat
    // sweeps are cheaper per relaxation than heap traffic, so the budget
    // trips and the solve *downgrades* to cold sweeps mid-flight (sound:
    // partial warm improvements are valid relaxations, and sweeps continue
    // to the least fixpoint above the seeded floor).
    let per_round_budget = 12 + n / 4;
    let mut is_warm = warm.is_some();
    if let Some(warm) = warm {
        let mut floored = 0usize;
        let mut seed_at = |dist: &mut [W], i: usize, v: f64| {
            if v - base <= 0.0 {
                floored += 1; // the old value sits at/below the new floor
                return;
            }
            let seed = W::new(v - base, 0);
            if seed.gt(dist[i]) {
                dist[i] = seed;
            }
        };
        match warm {
            WarmSeed::Sparse(vals) => {
                for (i, w) in vals.iter().enumerate().take(n) {
                    if let Some(v) = w {
                        seed_at(&mut dist, i, *v);
                    }
                }
            }
            WarmSeed::Dense(vals) => {
                for (i, v) in vals.iter().enumerate().take(n) {
                    seed_at(&mut dist, i, *v);
                }
            }
        }
        // A delta that shifted the base below most of the old values (the
        // first pinned constant does this) clamps those seeds to the
        // floor: they carry no information and everything must re-relax,
        // so the pending-heap repair can only lose to flat sweeps.
        if 2 * floored > n {
            is_warm = false;
            g.relax_cold(&mut dist)?;
        } else {
            g.seed_violations(&mut dist, &mut heap);
            // A seed scan that already pending-queued more classes than
            // the budget allows is a broad cascade — skip the heap too.
            let mut budget = per_round_budget;
            if heap.len() > per_round_budget
                || g.relax_warm(&mut dist, &mut heap, &mut budget).is_none()
            {
                heap.clear();
                is_warm = false;
                g.relax_cold(&mut dist)?;
            }
        }
    } else {
        g.relax_cold(&mut dist)?;
    }

    // Iteratively raised integer lower bounds (absolute values); without
    // integer classes the tightening scan never indexes this.
    let any_int = p.int_class.iter().any(|b| *b);
    let mut int_lb: Vec<Option<f64>> = vec![None; if any_int { n } else { 0 }];
    let cap = 100 + 10 * n;
    for _round in 0..cap {
        // Integer tightening: raise any integer class whose lower bound is
        // not attainable by an integer.
        let mut changed = false;
        for i in 0..n {
            if !p.int_class[i] {
                continue;
            }
            let d = dist[i];
            let val_sum = base + d.sum;
            let required = if val_sum.fract() != 0.0 {
                val_sum.ceil()
            } else if d.eps > 0 {
                val_sum + 1.0
            } else {
                continue;
            };
            if int_lb[i].is_none_or(|lb| required > lb) {
                int_lb[i] = Some(required);
                let cand = W::new(required - base, 0);
                if cand.gt(dist[i]) {
                    dist[i] = cand;
                    if is_warm {
                        heap.push(Pending {
                            key: HeapW(cand),
                            node: i,
                        });
                    }
                }
                changed = true;
            }
        }
        if !changed {
            // Pins are seeds, not edges: a pinned class pushed above its
            // pin means the system demands more than the pin allows.
            for (i, pin) in p.pinned.iter().enumerate() {
                if let Some(v) = pin {
                    if dist[i] != W::new(v - base, 0) {
                        return None;
                    }
                }
            }
            return Some(realize(p, base, &dist));
        }
        // Re-relax from the raised classes only (relaxation is monotone,
        // so continuing from the current vector reaches the same least
        // fixpoint as restarting).
        if is_warm {
            let mut budget = per_round_budget;
            if g.relax_warm(&mut dist, &mut heap, &mut budget).is_none() {
                heap.clear();
                is_warm = false;
                g.relax_cold(&mut dist)?;
            }
        } else {
            g.relax_cold(&mut dist)?;
        }
    }
    None // tightening did not converge (conservative unsat)
}

/// Converts symbolic distances to concrete floats with a sufficiently small
/// ε.
fn realize(p: &OrderProblem, base: f64, dist: &[W]) -> Vec<f64> {
    let sums: Vec<f64> = (0..p.n).map(|i| base + dist[i].sum).collect();
    let mut distinct: Vec<f64> = sums.clone();
    distinct.extend(p.pinned.iter().flatten().copied());
    distinct.sort_unstable_by(f64::total_cmp);
    distinct.dedup();
    let mut gap = 1.0f64;
    for w in distinct.windows(2) {
        let g = w[1] - w[0];
        if g > 0.0 {
            gap = gap.min(g);
        }
    }
    let max_eps = dist.iter().take(p.n).map(|d| d.eps).max().unwrap_or(0);
    let delta = gap / (2.0 * (max_eps as f64 + 2.0));
    (0..p.n)
        .map(|i| {
            let v = sums[i] + dist[i].eps as f64 * delta;
            if p.int_class[i] {
                // Tightening guarantees integrality; round defensively.
                v.round()
            } else {
                v
            }
        })
        .collect()
}

#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe: !(a < b) is deliberate
fn verify(p: &OrderProblem, vals: &[f64]) -> bool {
    for e in &p.edges {
        let (a, b) = (vals[e.from], vals[e.to]);
        if e.strict && !(a < b) {
            return false;
        }
        if !e.strict && !(a <= b) {
            return false;
        }
    }
    for (i, pin) in p.pinned.iter().enumerate() {
        if let Some(v) = pin {
            if vals[i] != *v {
                return false;
            }
        }
    }
    for (i, int) in p.int_class.iter().enumerate() {
        if *int && vals[i].fract() != 0.0 {
            return false;
        }
    }
    for (a, b) in &p.neqs {
        if vals[*a] == vals[*b] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A warm re-solve of `p` seeded with one optional value per class.
    fn warm_solve(p: &OrderProblem, warm: &[Option<f64>]) -> Option<Vec<f64>> {
        solve_order_cached(p, Some(WarmSeed::Sparse(warm)), &mut OrderCache::default())
    }

    #[test]
    fn simple_chain() {
        // p1 > p2 > p3 (the running example's price order).
        let mut p = OrderProblem::new(3);
        p.lt(2, 1);
        p.lt(1, 0);
        let v = solve_order(&p).unwrap();
        assert!(v[2] < v[1] && v[1] < v[0]);
    }

    #[test]
    fn cycle_is_unsat() {
        let mut p = OrderProblem::new(2);
        p.lt(0, 1);
        p.lt(1, 0);
        assert!(solve_order(&p).is_none());
        // ≤-cycle alone is fine (forces equality).
        let mut q = OrderProblem::new(2);
        q.le(0, 1);
        q.le(1, 0);
        let v = solve_order(&q).unwrap();
        assert_eq!(v[0], v[1]);
    }

    #[test]
    fn le_cycle_with_neq_unsat() {
        let mut p = OrderProblem::new(2);
        p.le(0, 1);
        p.le(1, 0);
        p.neqs.push((0, 1));
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn pinned_window_dense() {
        // 2.25 < x < 2.75 over reals: satisfiable.
        let mut p = OrderProblem::new(3);
        p.pinned[0] = Some(2.25);
        p.pinned[2] = Some(2.75);
        p.lt(0, 1);
        p.lt(1, 2);
        let v = solve_order(&p).unwrap();
        assert!(2.25 < v[1] && v[1] < 2.75);
    }

    #[test]
    fn pinned_window_int_tightness() {
        // 2 < x < 3 over integers: unsatisfiable.
        let mut p = OrderProblem::new(3);
        p.int_class = vec![true; 3];
        p.pinned[0] = Some(2.0);
        p.pinned[2] = Some(3.0);
        p.lt(0, 1);
        p.lt(1, 2);
        assert!(solve_order(&p).is_none());
        // 2 < x < 4: x = 3.
        let mut q = OrderProblem::new(3);
        q.int_class = vec![true; 3];
        q.pinned[0] = Some(2.0);
        q.pinned[2] = Some(4.0);
        q.lt(0, 1);
        q.lt(1, 2);
        assert_eq!(solve_order(&q).unwrap()[1], 3.0);
    }

    #[test]
    fn int_above_fractional_constant() {
        // x integer, x > 2.25 ⇒ x ≥ 3.
        let mut p = OrderProblem::new(2);
        p.int_class[0] = true;
        p.pinned[1] = Some(2.25);
        p.lt(1, 0);
        let v = solve_order(&p).unwrap();
        assert!(v[0] >= 3.0 && v[0].fract() == 0.0);
    }

    #[test]
    fn int_in_fractional_window_unsat() {
        // 2.25 < x ≤ 2.9 has no integer.
        let mut p = OrderProblem::new(3);
        p.int_class[1] = true;
        p.pinned[0] = Some(2.25);
        p.pinned[2] = Some(2.9);
        p.lt(0, 1);
        p.le(1, 2);
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn neq_splitting() {
        let mut p = OrderProblem::new(2);
        p.neqs.push((0, 1));
        let v = solve_order(&p).unwrap();
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn neq_vs_pin_forced() {
        // x = 5 (pinned) and x ≤ y ≤ 5 and x ≠ y: y is forced to 5 ⇒ unsat.
        let mut p = OrderProblem::new(2);
        p.pinned[0] = Some(5.0);
        p.le(0, 1);
        p.pinned[1] = Some(5.0);
        p.neqs.push((0, 1));
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn pinned_contradiction() {
        let mut p = OrderProblem::new(2);
        p.pinned[0] = Some(5.0);
        p.pinned[1] = Some(3.0);
        p.lt(0, 1); // 5 < 3
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn int_pinned_fractional_unsat() {
        let mut p = OrderProblem::new(1);
        p.int_class[0] = true;
        p.pinned[0] = Some(2.5);
        assert!(solve_order(&p).is_none());
    }

    #[test]
    fn long_strict_int_chain_between_pins() {
        // 0 < a < b < c < 3 over integers: needs 3 distinct ints in (0,3):
        // a=1, b=2, c=? c < 3 and c > b=2 ⇒ unsat.
        let mut p = OrderProblem::new(5);
        p.int_class = vec![true; 5];
        p.pinned[0] = Some(0.0);
        p.pinned[4] = Some(3.0);
        p.lt(0, 1);
        p.lt(1, 2);
        p.lt(2, 3);
        p.lt(3, 4);
        assert!(solve_order(&p).is_none());
        // Same with bound 4 works: 1,2,3.
        let mut q = OrderProblem::new(5);
        q.int_class = vec![true; 5];
        q.pinned[0] = Some(0.0);
        q.pinned[4] = Some(4.0);
        q.lt(0, 1);
        q.lt(1, 2);
        q.lt(2, 3);
        q.lt(3, 4);
        let v = solve_order(&q).unwrap();
        assert_eq!((v[1], v[2], v[3]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn three_distinct_ints_below_pin() {
        // a,b,c pairwise ≠, all < 2, all > -2, integer: -1, 0, 1 fits.
        let mut p = OrderProblem::new(5);
        p.int_class = vec![true; 5];
        p.pinned[3] = Some(2.0);
        p.pinned[4] = Some(-2.0);
        for i in 0..3 {
            p.lt(i, 3);
            p.lt(4, i);
        }
        p.neqs.push((0, 1));
        p.neqs.push((1, 2));
        p.neqs.push((0, 2));
        let v = solve_order(&p).unwrap();
        let mut got = vec![v[0], v[1], v[2]];
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn warm_start_agrees_on_grown_chain() {
        // Solve a chain cold, append one more link, re-solve warm from the
        // old values: same answer shape, still a valid chain.
        let mut p = OrderProblem::new(4);
        p.lt(1, 0);
        p.lt(2, 1);
        let cold = solve_order(&p).unwrap();
        let mut q = p.clone();
        q.lt(3, 2);
        let warm: Vec<Option<f64>> = cold.iter().copied().map(Some).collect();
        let v = warm_solve(&q, &warm).unwrap();
        assert!(v[3] < v[2] && v[2] < v[1] && v[1] < v[0]);
    }

    #[test]
    fn warm_start_with_garbage_values_is_sound() {
        // Warm values that contradict the pins must not corrupt the
        // answer: the warm attempt fails verification and falls back cold.
        let mut p = OrderProblem::new(3);
        p.pinned[0] = Some(2.25);
        p.pinned[2] = Some(2.75);
        p.lt(0, 1);
        p.lt(1, 2);
        let garbage = vec![Some(100.0), Some(-5.0), Some(0.0)];
        let v = warm_solve(&p, &garbage).unwrap();
        assert_eq!(v[0], 2.25);
        assert_eq!(v[2], 2.75);
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn warm_start_agrees_on_unsat() {
        let mut p = OrderProblem::new(2);
        p.lt(0, 1);
        let cold = solve_order(&p).unwrap();
        let warm: Vec<Option<f64>> = cold.iter().copied().map(Some).collect();
        let mut q = p.clone();
        q.lt(1, 0); // cycle
        assert!(warm_solve(&q, &warm).is_none());
    }

    #[test]
    fn warm_start_respects_integer_tightening() {
        // Warm from a real-relaxed solution; integer classes must still be
        // tightened to integers.
        let mut p = OrderProblem::new(3);
        p.int_class = vec![true; 3];
        p.pinned[0] = Some(2.0);
        p.lt(0, 1);
        p.lt(1, 2);
        let warm = vec![Some(2.0), Some(2.1), Some(2.2)];
        let v = warm_solve(&p, &warm).unwrap();
        assert_eq!(v[0], 2.0);
        assert!(v[1] >= 3.0 && v[1].fract() == 0.0);
        assert!(v[2] >= 4.0 && v[2].fract() == 0.0);
    }

    #[test]
    fn warm_start_with_neq_collision_falls_back_to_splitting() {
        // Warm values that collide on a disequality: the warm attempt must
        // defer to the cold splitting search, which separates them.
        let mut p = OrderProblem::new(2);
        p.neqs.push((0, 1));
        let warm = vec![Some(1.0), Some(1.0)];
        let v = warm_solve(&p, &warm).unwrap();
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn mixed_int_real_strictness() {
        // int x < real r < int y allows y = x + 1.
        let mut p = OrderProblem::new(3);
        p.int_class[0] = true;
        p.int_class[2] = true;
        p.lt(0, 1);
        p.lt(1, 2);
        let v = solve_order(&p).unwrap();
        assert!(v[0] < v[1] && v[1] < v[2]);
        assert_eq!(v[0].fract(), 0.0);
        assert_eq!(v[2].fract(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The warm-started order solver agrees with the cold one on random
        /// systems, even when seeded with arbitrary (possibly nonsensical)
        /// warm values — the warm path verifies and falls back.
        #[test]
        fn warm_order_solve_agrees_with_cold(seed in any::<u64>(), warm_seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..8usize);
            let mut p = OrderProblem::new(n);
            for i in 0..n {
                if rng.gen_bool(0.3) {
                    p.int_class[i] = true;
                }
                if rng.gen_bool(0.25) {
                    p.pinned[i] = Some(rng.gen_range(-4..8) as f64 / 2.0);
                }
            }
            for _ in 0..rng.gen_range(0..2 * n + 1) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen() { p.lt(a, b) } else { p.le(a, b) }
            }
            for _ in 0..rng.gen_range(0..n) {
                p.neqs.push((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            let mut wrng = StdRng::seed_from_u64(warm_seed);
            let warm: Vec<Option<f64>> = (0..n)
                .map(|_| wrng.gen_bool(0.7).then(|| wrng.gen_range(-10..10) as f64 / 2.0))
                .collect();
            let cold = solve_order(&p);
            let warm_res = warm_solve(&p, &warm);
            prop_assert_eq!(cold.is_some(), warm_res.is_some(), "warm/cold must agree on sat");
            if let Some(v) = warm_res {
                // The warm answer must satisfy every constraint.
                for e in &p.edges {
                    if e.strict {
                        prop_assert!(v[e.from] < v[e.to]);
                    } else {
                        prop_assert!(v[e.from] <= v[e.to]);
                    }
                }
                for (i, pin) in p.pinned.iter().enumerate() {
                    if let Some(pin) = pin { prop_assert_eq!(v[i], *pin); }
                }
                for (i, int) in p.int_class.iter().enumerate() {
                    if *int { prop_assert_eq!(v[i].fract(), 0.0); }
                }
                for (a, b) in &p.neqs {
                    prop_assert!(v[*a] != v[*b]);
                }
            }
        }
    }
}
