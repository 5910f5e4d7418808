//! The six algorithm variants of §5 and the shared finalization pipeline
//! (original-tree validation → coverage → minimality post-processing).

use std::time::Duration;

use cqi_drc::{Atom, Coverage, Formula, SyntaxTree, Term};
use cqi_instance::CInstance;
use cqi_solver::Ent;

use crate::chase::{materialize, Chase, ChaseCaches, RootJob};
use crate::config::{ChaseConfig, Variant};
use crate::conjtree::conjunctive_trees;
use crate::cover::coverage_of_cinstance_keys;
use crate::session::{ExplainRequest, Session};
use crate::solution::{minimize, AcceptedInstance, CSolution, Interrupted};
use crate::treesat::{Hom, SatCtx};

/// Runs one variant on a query's syntax tree and returns its minimal
/// c-solution.
///
/// This is the original batch entry point, kept as a thin wrapper over a
/// one-shot [`Session`]: prefer [`Session::explain`] for streaming results,
/// deadlines-with-status, cancellation, and warm solver caches across
/// queries.
pub fn run_variant(tree: &SyntaxTree, variant: Variant, cfg: &ChaseConfig) -> CSolution {
    Session::new(tree.query().schema.clone())
        .config(cfg.clone())
        .explain_collect(ExplainRequest::tree(tree).variant(variant))
        .expect("pre-parsed trees compile unconditionally")
}

/// The engine behind [`Session::explain`] and [`run_variant`]: runs one
/// variant, calling `observer` with every accepted instance — already
/// validated against the *original* tree and annotated with coverage — in
/// the deterministic accepted order, as the drive produces it (per step
/// within one root, per job batch under root fan-out). `observer` returning `false` halts the drive; the
/// instances streamed so far still make up the returned solution, flagged
/// [`Interrupted::Cancelled`].
pub fn run_variant_observed(
    tree: &SyntaxTree,
    variant: Variant,
    cfg: &ChaseConfig,
    caches: &mut ChaseCaches,
    observer: &mut dyn FnMut(AcceptedInstance) -> bool,
) -> CSolution {
    run_variant_inner(tree, variant, cfg, caches, Some(observer))
}

/// Batch form of [`run_variant_observed`]: no per-acceptance callback, so
/// validation/coverage run once at drive end by *moving* the accepted log
/// (no instance clones — the original `run_variant` cost profile).
pub(crate) fn run_variant_batch(
    tree: &SyntaxTree,
    variant: Variant,
    cfg: &ChaseConfig,
    caches: &mut ChaseCaches,
) -> CSolution {
    run_variant_inner(tree, variant, cfg, caches, None)
}

/// Original-tree validation (conjunctive trees only imply the original —
/// re-check, for soundness) and coverage of one accepted instance. `None`
/// means the instance does not satisfy the original tree. An empty
/// coverage is legitimate for vacuously satisfied queries (e.g. a Boolean
/// ∀-only query on the empty instance). When the chase's subsumption
/// filter already computed the coverage (`cached`), only the satisfaction
/// re-check runs — the coverage enumeration, the expensive side, is
/// reused.
fn validated_coverage(
    q: &cqi_drc::Query,
    inst: &CInstance,
    enforce_keys: bool,
    cached: Option<&Coverage>,
) -> Option<Coverage> {
    let ctx = SatCtx::new(q, inst, enforce_keys);
    if !ctx.tree_sat(&q.formula, &vec![None; q.vars.len()]) {
        return None;
    }
    drop(ctx);
    Some(match cached {
        Some(c) => c.clone(),
        None => coverage_of_cinstance_keys(q, inst, enforce_keys),
    })
}

fn run_variant_inner(
    tree: &SyntaxTree,
    variant: Variant,
    cfg: &ChaseConfig,
    caches: &mut ChaseCaches,
    observer: Option<&mut dyn FnMut(AcceptedInstance) -> bool>,
) -> CSolution {
    let q = tree.query();
    let universal_fresh = cfg
        .universal_fresh_nulls
        .unwrap_or_else(|| variant.universal_fresh_nulls());
    // Span capture is per-request: the refcount turns recording on for the
    // duration of this run only, and the guard below becomes the trace's
    // root "explain" span. Untraced runs skip both (inert guards).
    if cfg.trace {
        cqi_obs::trace::begin_capture();
    }
    let explain_span = cqi_obs::trace::span("explain", "request");
    // Multi-thread budgets get a resident pool spawned once per cache
    // lifetime (i.e. once per `Session`) and reused across runs;
    // sequential runs spawn nothing.
    caches.ensure_pool(cfg.resolved_threads());
    let mut chase = Chase::new_reusing(q, cfg, universal_fresh, caches);

    let (entries, raw_accepted) = match observer {
        Some(observer) => {
            // Streaming: validation + coverage move from drive-end
            // finalization to acceptance time, so consumers see instances
            // while the search is still running; the computation (and thus
            // the batch result) is unchanged.
            let enforce_keys = cfg.enforce_keys;
            let mut entries: Vec<(CInstance, Coverage, Duration)> = Vec::new();
            let mut validate = |inst: &CInstance, t: Duration, cov: Option<&Coverage>| -> bool {
                let Some(coverage) = validated_coverage(q, inst, enforce_keys, cov) else {
                    return true;
                };
                let acc = AcceptedInstance {
                    ordinal: entries.len(),
                    inst: inst.clone(),
                    coverage: coverage.clone(),
                    accepted_at: t,
                };
                entries.push((inst.clone(), coverage, t));
                observer(acc)
            };
            drive_phases(&mut chase, tree, variant, cfg, &mut validate);
            let raw = chase.accepted.len();
            (entries, raw)
        }
        None => {
            // Batch: drive with a no-op observer, then validate by moving
            // the accepted log (zero clones on the hot benchmark path).
            drive_phases(&mut chase, tree, variant, cfg, &mut |_, _, _| true);
            let accepted = std::mem::take(&mut chase.accepted);
            let raw = accepted.len();
            let mut entries = Vec::with_capacity(raw);
            for (inst, t, cov) in accepted {
                if let Some(coverage) = validated_coverage(q, &inst, cfg.enforce_keys, cov.as_ref())
                {
                    entries.push((inst, coverage, t));
                }
            }
            (entries, raw)
        }
    };

    let interrupted = if chase.cancelled || chase.halted {
        Some(Interrupted::Cancelled)
    } else if chase.timed_out {
        Some(Interrupted::Deadline)
    } else {
        None
    };
    let mut sol = CSolution {
        instances: minimize(entries),
        raw_accepted,
        timed_out: chase.timed_out,
        interrupted,
        total_time: chase.start.elapsed(),
        stats: chase.stats(),
        trace: None,
    };
    chase.recycle_into(caches);
    // Close the root span before draining, so it lands in the export.
    drop(explain_span);
    if cfg.trace {
        sol.trace = Some(cqi_obs::trace::end_capture());
    }
    sol.stats.publish_metrics();
    sol
}

/// Both phases of one variant run — the per-tree roots and the `*-Add`
/// re-seeds — as batches of independent root searches routed through
/// [`Chase::run_roots_observed`]: with `cfg.threads != 1` whole roots fan
/// out across workers, each root's own frontier is driven sequentially,
/// and the output is identical either way.
fn drive_phases(
    chase: &mut Chase<'_>,
    tree: &SyntaxTree,
    variant: Variant,
    cfg: &ChaseConfig,
    observer: &mut dyn FnMut(&CInstance, std::time::Duration, Option<&Coverage>) -> bool,
) {
    let q = tree.query();
    let formulas: Vec<Formula> = if variant.is_conjunctive() {
        conjunctive_trees(&q.formula)
    } else {
        vec![q.formula.clone()]
    };
    let empty_h: Hom = vec![None; q.vars.len()];
    chase.run_roots_observed(
        formulas
            .iter()
            .map(|f| RootJob {
                formula: f,
                seed: CInstance::new(q.schema.clone()),
                h: empty_h.clone(),
            })
            .collect(),
        observer,
    );

    if variant.is_add() && !chase.timed_out && !chase.cancelled && !chase.halted {
        // Which original leaves are still uncovered by any accepted
        // instance? (Snapshot semantics: every re-seed job below is judged
        // against this one coverage set, which is what makes the jobs
        // independent and the batch parallelizable.)
        let mut covered = Coverage::new();
        for (inst, _, cov) in &chase.accepted {
            match cov {
                Some(c) => covered.extend(c.iter().copied()),
                None => covered.extend(coverage_of_cinstance_keys(q, inst, cfg.enforce_keys)),
            }
        }
        let mut jobs: Vec<RootJob<'_>> = Vec::new();
        for (leaf_id, atom) in tree.leaves() {
            if covered.contains(&leaf_id) {
                continue;
            }
            let Some((seed, h0)) = seed_for_leaf(q, atom) else {
                continue;
            };
            for f in &formulas {
                jobs.push(RootJob {
                    formula: f,
                    seed: seed.clone(),
                    h: h0.clone(),
                });
            }
        }
        chase.run_roots_observed(jobs, observer);
    }
}

/// Iterative deepening (§4.3 "another alternative, aimed at an interactive
/// experience, is to set a timeout parameter instead of the limit"): runs
/// the variant with growing `limit` until the wall-clock budget is
/// exhausted, returning the deepest completed solution (or the last partial
/// one if even the first level timed out).
pub fn run_variant_deepening(
    tree: &SyntaxTree,
    variant: Variant,
    base: &ChaseConfig,
    start_limit: usize,
    step: usize,
) -> (CSolution, usize) {
    let budget = base.timeout.unwrap_or(std::time::Duration::from_secs(10));
    // lint:allow(wall-clock) limit-doubling spends a wall-clock budget by design
    let start = std::time::Instant::now();
    let mut limit = start_limit;
    let mut best: Option<(CSolution, usize)> = None;
    loop {
        let remaining = budget.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            break;
        }
        let mut cfg = base.clone();
        cfg.limit = limit;
        cfg.timeout = Some(remaining);
        let sol = run_variant(tree, variant, &cfg);
        let finished = sol.interrupted.is_none();
        let better = match &best {
            None => true,
            Some((b, _)) => sol.num_coverages() >= b.num_coverages(),
        };
        if better {
            best = Some((sol, limit));
        }
        if !finished {
            break; // deeper levels would only see a smaller budget
        }
        limit += step;
    }
    best.expect("at least one level runs")
}

/// Builds the initial c-instance for an `*-Add` re-seed: the uncovered leaf
/// atom is materialized over fresh labeled nulls, and output variables
/// occurring in it are pre-bound in the homomorphism.
fn seed_for_leaf(
    q: &cqi_drc::Query,
    atom: &Atom,
) -> Option<(CInstance, Hom)> {
    let mut inst = CInstance::new(q.schema.clone());
    let mut h: Hom = vec![None; q.vars.len()];
    // Fresh nulls for every variable of the atom.
    for v in atom.vars() {
        if h[v.index()].is_none() {
            let n = inst.fresh_null(q.var_name(v), q.var_domain(v));
            h[v.index()] = Some(Ent::Null(n));
        }
    }
    let seeded = materialize(q, &inst, std::slice::from_ref(atom), &h)?;
    // Keep bindings only for output variables; quantified variables are
    // re-bound by the chase (their nulls stay available in the pools).
    let mut h0: Hom = vec![None; q.vars.len()];
    for v in &q.out_vars {
        if let Term::Var(_) = Term::Var(*v) {
            if atom.vars().contains(v) {
                h0[v.index()] = h[v.index()].clone();
            }
        }
    }
    Some((seeded, h0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_instance::consistency::is_consistent;
    use cqi_schema::{DomainType, Schema};
    use std::sync::Arc;

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
                .build()
                .unwrap(),
        )
    }

    fn tree(src: &str) -> SyntaxTree {
        SyntaxTree::new(parse_query(&schema(), src).unwrap())
    }

    #[test]
    fn all_variants_solve_simple_query() {
        let t = tree("{ (b1) | exists d1 (Likes(d1, b1)) }");
        for v in Variant::ALL {
            let sol = run_variant(&t, v, &ChaseConfig::with_limit(4));
            assert!(!sol.instances.is_empty(), "{v} found nothing");
            for si in &sol.instances {
                assert!(is_consistent(&si.inst, false));
                assert!(crate::treesat::tree_sat(t.query(), &si.inst));
            }
        }
    }

    #[test]
    fn disjunction_yields_multiple_coverages() {
        let t = tree(
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
        );
        let sol = run_variant(&t, Variant::DisjEO, &ChaseConfig::with_limit(6));
        // At least the >3-only and <1-only coverages.
        assert!(sol.num_coverages() >= 2, "got {}", sol.num_coverages());
    }

    #[test]
    fn add_variant_reaches_vacuous_forall_leaves() {
        // ∀d1 (¬Likes(d1, b1)) is vacuously satisfied with an empty drinker
        // pool, so the plain chase never covers the ¬Likes leaf; the Add
        // seeding materializes it.
        let t = tree(
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        );
        let cfg = ChaseConfig::with_limit(6);
        let eo = run_variant(&t, Variant::DisjEO, &cfg);
        let add = run_variant(&t, Variant::DisjAdd, &cfg);
        assert!(add.covered_union().len() > eo.covered_union().len());
        assert_eq!(add.covered_union().len(), 2, "both leaves covered by Add");
        assert!(add.instances.iter().any(|si| si
            .inst
            .global
            .iter()
            .any(|c| matches!(c, cqi_instance::Cond::NotIn { .. }))));
    }

    #[test]
    fn add_variant_covers_at_least_eo() {
        let t = tree(
            "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) and forall p2, x2 (not Serves(x2, b1, p2) or p2 <= p1) }",
        );
        let cfg = ChaseConfig::with_limit(8);
        let eo = run_variant(&t, Variant::ConjEO, &cfg);
        let add = run_variant(&t, Variant::ConjAdd, &cfg);
        assert!(add.covered_union().len() >= eo.covered_union().len());
        assert!(!add.instances.is_empty());
    }

    #[test]
    fn minimality_within_coverage() {
        let t = tree("{ (b1) | exists d1 (Likes(d1, b1)) }");
        let sol = run_variant(&t, Variant::DisjNaive, &ChaseConfig::with_limit(4));
        // The single-coverage solution must be the 1-tuple instance.
        for si in &sol.instances {
            if si.coverage.len() == 1 {
                assert_eq!(si.size(), 1);
            }
        }
    }

    #[test]
    fn cache_and_incremental_knobs_do_not_change_results() {
        // The memo and the saturated-state extension are pure
        // optimizations: accepted coverages must be identical with both
        // paths forced on (min_lits 0) and both off, keys on and off.
        let queries = [
            "{ (b1) | exists d1 (Likes(d1, b1)) }",
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        ];
        for src in queries {
            let t = tree(src);
            for keys in [false, true] {
                for v in [Variant::DisjEO, Variant::ConjAdd] {
                    let fast = ChaseConfig::with_limit(7)
                        .enforce_keys(keys)
                        .incremental_min_lits(0);
                    let cold = ChaseConfig::with_limit(7)
                        .enforce_keys(keys)
                        .solver_cache(false)
                        .incremental(false);
                    let a = run_variant(&t, v, &fast);
                    let b = run_variant(&t, v, &cold);
                    let ca: std::collections::BTreeSet<_> = a.coverages().cloned().collect();
                    let cb: std::collections::BTreeSet<_> = b.coverages().cloned().collect();
                    assert_eq!(ca, cb, "query {src} variant {v} keys {keys}");
                    assert_eq!(a.raw_accepted, b.raw_accepted, "query {src} variant {v}");
                }
            }
        }
    }

    #[test]
    fn conj_and_disj_agree_on_or_free_query() {
        let t = tree(
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
        );
        let cfg = ChaseConfig::with_limit(6);
        let disj = run_variant(&t, Variant::DisjEO, &cfg);
        let conj = run_variant(&t, Variant::ConjEO, &cfg);
        let dc: std::collections::BTreeSet<_> = disj.coverages().cloned().collect();
        let cc: std::collections::BTreeSet<_> = conj.coverages().cloned().collect();
        assert_eq!(dc, cc, "∨-free trees make the variants identical");
    }
}
