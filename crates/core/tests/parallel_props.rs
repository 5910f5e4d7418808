//! Property tests for the parallel chase runtime: for random queries,
//! variants, limits, and thread budgets, fanning root jobs out over a
//! resident pool must produce *identical* results to running them one by
//! one — the same accepted-instance stream (rendered bytes and all) and
//! the same minimal c-solution.

use std::collections::BTreeMap;
use std::sync::Arc;

use cqi_core::chase::{Chase, ChaseCaches, RootJob};
use cqi_core::conjtree::conjunctive_trees;
use cqi_core::{run_variant, ChaseConfig, Variant};
use cqi_drc::{parse_query, SyntaxTree};
use cqi_instance::CInstance;
use cqi_schema::{DomainType, Schema};
use proptest::prelude::*;

fn schema() -> Arc<Schema> {
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
            .relation(
                "Likes",
                &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
            )
            .same_domain(("Serves", "beer"), ("Likes", "beer"))
            .key("Serves", &["bar", "beer"])
            .build()
            .unwrap(),
    )
}

/// A feature-covering query pool: joins, comparisons, disjunction,
/// universals with negation (NotIn conditions), LIKE, and constants.
const QUERIES: [&str; 6] = [
    "{ (b1) | exists d1 (Likes(d1, b1)) }",
    "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
    "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
    "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
    "{ (d1) | exists b1 (Likes(d1, b1)) and d1 like 'Eve%' }",
    "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) and forall p2, x2 (not Serves(x2, b1, p2) or p2 <= p1) }",
];

/// Canonical rendering of a solution for comparison: coverage → (size,
/// pretty-printed instance), plus the aggregate counters. Ordering by
/// acceptance timestamp is the one legitimately wall-clock-dependent part
/// of a `CSolution`, so the map is keyed by coverage instead.
fn render(sol: &cqi_core::CSolution) -> (usize, usize, BTreeMap<Vec<u32>, (usize, String)>) {
    let mut by_cov = BTreeMap::new();
    for si in &sol.instances {
        let cov: Vec<u32> = si.coverage.iter().map(|l| l.0).collect();
        by_cov.insert(cov, (si.size(), format!("{}", si.inst)));
    }
    (sol.raw_accepted, sol.num_coverages(), by_cov)
}

fn pick<T: Copy>(xs: &[T], i: u64) -> T {
    xs[(i as usize) % xs.len()]
}

/// Chases `src` as a batch of root jobs — its `Conj-*` trees followed by
/// the query itself (the `Disj-*` root), so every query yields at least two
/// jobs — through [`Chase::run_roots`] over a resident pool sized for
/// `cfg`, as a session would spawn it. Returns the rendered accepted
/// stream and the run's resident-pool batch count.
fn roots_stream(src: &str, cfg: &ChaseConfig) -> (Vec<String>, u64) {
    let s = schema();
    let q = parse_query(&s, src).unwrap();
    let mut formulas = conjunctive_trees(&q.formula);
    formulas.push(q.formula.clone());
    let mut caches = ChaseCaches::new();
    caches.ensure_pool(cfg.resolved_threads());
    let mut chase = Chase::new_reusing(&q, cfg, true, &mut caches);
    chase.run_roots(
        formulas
            .iter()
            .map(|formula| RootJob {
                formula,
                seed: CInstance::new(Arc::clone(&s)),
                h: vec![None; q.vars.len()],
            })
            .collect(),
    );
    let stream = chase.accepted.iter().map(|(i, ..)| format!("{i}")).collect();
    (stream, chase.stats().resident_batches)
}

/// Multi-root runs at `threads > 1` really fan out: the job batch is
/// dispatched to the resident pool (a 1-thread run never touches it).
#[test]
fn multi_root_runs_dispatch_to_the_resident_pool() {
    let src = QUERIES[2];
    let (seq, seq_batches) = roots_stream(src, &ChaseConfig::with_limit(5));
    let (par, par_batches) = roots_stream(src, &ChaseConfig::with_limit(5).threads(2));
    assert_eq!(seq_batches, 0);
    assert!(par_batches > 0, "root jobs must fan out through the resident pool");
    assert_eq!(seq, par);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_variant` with a parallel config returns the same c-solution as
    /// the sequential default, across variants, limits, key enforcement,
    /// and thread budgets. Multi-thread runs go through the session path,
    /// which spawns a resident pool and shares the L2 memo tier between
    /// workers — so this property also pins the tiered memo to the
    /// sequential baseline.
    #[test]
    fn parallel_run_variant_matches_sequential(
        qi in any::<u64>(),
        vi in any::<u64>(),
        li in any::<u64>(),
        keys in any::<bool>(),
        ti in any::<u64>(),
        prune in any::<bool>(),
    ) {
        let s = schema();
        let src = QUERIES[(qi as usize) % QUERIES.len()];
        let variant = pick(&Variant::ALL, vi);
        let limit = 4 + (li as usize) % 4; // 4..=7
        let threads = pick(&[0usize, 2, 3, 4], ti);
        let tree = SyntaxTree::new(parse_query(&s, src).unwrap());
        let seq_cfg = ChaseConfig::with_limit(limit)
            .enforce_keys(keys)
            .subsume_prune(prune);
        let par_cfg = ChaseConfig::with_limit(limit)
            .enforce_keys(keys)
            .subsume_prune(prune)
            .threads(threads);
        let seq = run_variant(&tree, variant, &seq_cfg);
        let par = run_variant(&tree, variant, &par_cfg);
        prop_assert_eq!(
            render(&seq),
            render(&par),
            "{} {} limit={} keys={} threads={} prune={}",
            src, variant, limit, keys, threads, prune
        );
    }

    /// The subsumption-prune contract: with `subsume_prune` on, the raw
    /// accepted stream may shrink but the explanation content is
    /// preserved — same coverage classes with the same per-class minimal
    /// size — at 1 and 4 threads alike, across variants, limits, and key
    /// enforcement.
    #[test]
    fn subsume_prune_preserves_minimized_solutions(
        qi in any::<u64>(),
        vi in any::<u64>(),
        li in any::<u64>(),
        keys in any::<bool>(),
        ti in any::<u64>(),
    ) {
        let s = schema();
        let src = QUERIES[(qi as usize) % QUERIES.len()];
        let variant = pick(&Variant::ALL, vi);
        let limit = 4 + (li as usize) % 4; // 4..=7
        let threads = pick(&[1usize, 4], ti);
        let tree = SyntaxTree::new(parse_query(&s, src).unwrap());
        let classes = |sol: &cqi_core::CSolution| -> BTreeMap<Vec<u32>, usize> {
            sol.instances
                .iter()
                .map(|si| (si.coverage.iter().map(|l| l.0).collect(), si.size()))
                .collect()
        };
        let base_cfg = ChaseConfig::with_limit(limit).enforce_keys(keys).threads(threads);
        let base = run_variant(&tree, variant, &base_cfg);
        let pruned = run_variant(&tree, variant, &base_cfg.subsume_prune(true));
        prop_assert!(pruned.raw_accepted <= base.raw_accepted);
        prop_assert_eq!(
            classes(&base),
            classes(&pruned),
            "{} {} limit={} keys={} threads={}",
            src, variant, limit, keys, threads
        );
    }

    /// The raw accepted stream of a batch of root jobs is byte-identical
    /// between a 1-thread run and a fan-out over a *resident* pool
    /// (spawned through [`ChaseCaches::ensure_pool`], as a session would),
    /// instance by instance, in order, under the same `max_results` cap —
    /// the strongest form of the determinism guarantee. Worker hand-off,
    /// shared-L2 memo traffic, and the job-order merge are all on the
    /// tested path.
    #[test]
    fn parallel_accepted_stream_is_byte_identical(
        qi in any::<u64>(),
        li in any::<u64>(),
        ti in any::<u64>(),
        cap in any::<u64>(),
        prune in any::<bool>(),
    ) {
        let src = QUERIES[(qi as usize) % QUERIES.len()];
        let limit = 4 + (li as usize) % 3; // 4..=6
        let threads = pick(&[2usize, 4], ti);
        let max_results = match cap % 4 {
            0 => Some(1),
            1 => Some(3),
            _ => None,
        };
        let mut seq_cfg = ChaseConfig::with_limit(limit).subsume_prune(prune);
        seq_cfg.max_results = max_results;
        let mut par_cfg = seq_cfg.clone().threads(threads);
        par_cfg.max_results = max_results;
        let seq = roots_stream(src, &seq_cfg).0;
        let par = roots_stream(src, &par_cfg).0;
        prop_assert_eq!(
            seq, par,
            "{} limit={} threads={} cap={:?} prune={}",
            src, limit, threads, max_results, prune
        );
    }
}
