//! The chase over c-instances: `Tree-Chase-BFS` (Algorithm 1), `Tree-Chase`
//! (Algorithm 2), and the four node handlers (Algorithms 3–6).
//!
//! The BFS explores the (implicit) chase tree: every popped c-instance is
//! first tested with `Tree-SAT` + `IsConsistent` (satisfying instances are
//! *results* and are not expanded further), then expanded by the recursive
//! `Tree-Chase`, which dispatches on the root operator of the current
//! subtree and recursively re-enters the BFS on child subtrees. The
//! `visited` set deduplicates modulo renaming of labeled nulls
//! ([`cqi_instance::is_isomorphic`]), and the `limit` bound on instance size
//! guarantees termination (Proposition 3.1 makes an unbounded search
//! undecidable).
//!
//! ## Execution model
//!
//! Each root search is one FIFO loop on one worker context
//! (`Engine::root_bfs`), sharing the accept/expand step and the `visited`
//! set (`crate::visited::Visited`, keyed on the renaming-invariant
//! signature and the [`exact_digest`]) with the nested searches. Expanding a
//! candidate is a pure function of the candidate — all mutable state
//! ([`WorkerCtx`]: solver memos, saturated states, sub-BFS results) only
//! affects speed — so a root's accepted stream does not depend on which
//! worker drove it. Parallelism has exactly one axis: multi-root runs (the
//! `Conj-*` tree sets and the `*-Add` re-seeds) fan whole root searches out
//! across the resident pool of `cqi-runtime` ([`Chase::run_roots`]), and
//! results are merged in job order, so parallel runs accept the *same
//! instances in the same order* as sequential ones (asserted by
//! `crates/core/tests/parallel_props.rs`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqi_drc::{Atom, Coverage, Formula, Query, Term, VarId};
use cqi_obs::trace::{self, Phase};
use cqi_instance::consistency::{
    conj_lits, is_consistent, is_consistent_cached, is_pure_conjunctive, to_problem,
};
use cqi_instance::{digest_stats, exact_digest, subsumes, CInstance, Cond};
use cqi_runtime::{Exec, ResidentPool, RunCounters, StripedMemo};
use cqi_solver::canon::{canonicalize, CanonKey};
use cqi_solver::{Ent, Lit, Model, SaturatedState, SolverCache};

use crate::config::{CancelToken, ChaseConfig};
use crate::conjtree::expand_disj_node;
use crate::cover::coverage_of_cinstance_keys;
use crate::dnf::{has_quantifier, tree_to_conj};
use crate::stats::ChaseStats;
use crate::treesat::{atom_to_lit, Hom, SatCtx};
use crate::visited::Visited;

/// Bound on retained saturated states (each is small — vectors over the
/// instance's nulls/literals — but runs can visit millions of instances).
const SAT_MEMO_CAP: usize = 200_000;

/// Entry bound of the shared (L2) canonical-problem memo — larger than one
/// worker's L1 capacity because it serves every worker of a session.
const SHARED_SOLVER_CAP: usize = 32_768;

/// Lock stripes of each shared memo (power of two).
const MEMO_STRIPES: usize = 64;

/// Bound on the subsumption-prune comparison set, total across coverage
/// classes. Scans do a cheap coverage-equality reject before any embedding
/// attempt, so the cap mostly bounds memory and the per-accept set-compare
/// count, not backtracking work.
const SUBSUME_VISIBLE_CAP: usize = 512;

/// Representatives staged per coverage class. The earliest accepts of a
/// class are the smallest (the BFS visits instances in size order), hence
/// the likeliest to embed into a later re-derivation — so a few early
/// representatives per class retain almost all pruning power while keeping
/// embedding attempts per accept at `class_cap` (not `visible_cap`).
const SUBSUME_CLASS_CAP: usize = 8;

/// Embedding attempts per nested-BFS result. Only same-coverage earlier
/// results are tried at all, and after this many failed backtracking
/// attempts the result is kept — pruning is best-effort, keeping is always
/// sound.
const NESTED_SUBSUME_ATTEMPTS: usize = 16;

/// Is `cand` a redundant re-derivation of an earlier-kept result of the
/// same nested search — same leaf coverage, and some kept result embeds
/// into it (seed-null prefix fixed)?
fn nested_subsumed(
    kept: &[CInstance],
    kept_covs: &[Coverage],
    cand: &CInstance,
    cov: &Coverage,
    fixed: usize,
) -> bool {
    let _s = trace::span_phase("subsume_nested", "chase", Phase::Dedupe);
    let mut attempts = 0usize;
    for (acc, acc_cov) in kept.iter().zip(kept_covs) {
        if acc_cov != cov || acc.size() > cand.size() {
            continue;
        }
        attempts += 1;
        if attempts > NESTED_SUBSUME_ATTEMPTS {
            return false;
        }
        if subsumes(acc, cand, fixed) {
            return true;
        }
    }
    false
}

/// The shared (L2) tier behind every worker's L1 memos: lock-striped maps
/// holding solver answers that are pure functions of their keys, so a
/// worker can reuse what a sibling already computed. An L1 miss checks
/// here before solving; a fresh decision is published here as well as to
/// the worker's own L1.
pub(crate) struct SharedMemos {
    /// Canonical-problem outcomes in canonical space (`None` = unsat) —
    /// the shared tier over [`SolverCache`]'s per-worker map.
    solver: StripedMemo<CanonKey, Option<Model>>,
    /// Saturated theory states by [`state_key`] — the shared tier over the
    /// per-worker `sat_memo`.
    sat: StripedMemo<u64, SaturatedState>,
}

impl Default for SharedMemos {
    fn default() -> SharedMemos {
        SharedMemos {
            solver: StripedMemo::new(MEMO_STRIPES, SHARED_SOLVER_CAP),
            sat: StripedMemo::new(MEMO_STRIPES, SAT_MEMO_CAP),
        }
    }
}

/// Hot-path metric: every `IsConsistent` decision (memo hits included).
/// The counter is shard-per-worker ([`cqi_obs::Counter`]), so the always-on
/// cost is one uncontended relaxed add.
fn consistency_checks_metric() -> &'static cqi_obs::Counter {
    use std::sync::OnceLock;
    static C: OnceLock<std::sync::Arc<cqi_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        cqi_obs::global().counter(
            "cqi_consistency_checks_total",
            "IsConsistent decisions on the chase hot path (memo hits included)",
            &[],
        )
    })
}

/// Width of each nested-BFS wave, observed into a log-bucketed histogram
/// (the shape of the recursive searches, for profiling).
fn wave_width_metric() -> &'static cqi_obs::Histogram {
    use std::sync::OnceLock;
    static H: OnceLock<std::sync::Arc<cqi_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        cqi_obs::global().histogram(
            "cqi_nested_wave_width",
            "admitted width of nested-BFS waves",
            &[],
        )
    })
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Key for the saturated-state memo, derived from an already-computed
/// [`exact_digest`]. Unlike the digest alone (which is blind to nulls that
/// appear in no tuple/condition), this includes the null *type* vector: a
/// [`SaturatedState`] depends on every null's domain type, so instances
/// differing only in an unused null's type must not share a state.
fn state_key(digest: u64, inst: &CInstance) -> u64 {
    hash_of(&(digest, inst.null_types()))
}

/// Per-worker mutable chase state: every memo the search consults, plus the
/// worker-local slice of the run counters. None of it changes *answers* —
/// only how fast they are reached — which is what makes frontier candidates
/// expandable on any worker while keeping parallel output identical to
/// sequential.
pub(crate) struct WorkerCtx {
    /// Memoized sub-BFS results keyed by (subtree, instance digest,
    /// relevant homomorphism entries). The recursion re-derives identical
    /// sub-searches constantly; this cache is the difference between
    /// seconds and minutes on the harder difference queries. The digest
    /// ignores null names, so a hit is renamed for the seed it serves
    /// ([`renamed_for_seed`]).
    bfs_memo: HashMap<(u64, u64, u64), Vec<CInstance>>,
    /// Memoized `IsConsistent` answers by instance digest.
    consist_memo: HashMap<u64, bool>,
    /// Canonical-problem memo: isomorphic subproblems (renamed nulls, extra
    /// unconstrained nulls) are decided once (`cfg.solver_cache`).
    solver_cache: SolverCache,
    /// Saturated theory state per (pure-conjunctive) instance digest,
    /// extended by delta literals on single chase steps
    /// (`cfg.incremental`).
    sat_memo: HashMap<u64, SaturatedState>,
    /// The session's shared (L2) memo tier behind `solver_cache` and
    /// `sat_memo`.
    shared: Arc<SharedMemos>,
    /// Whether this run consults/feeds the L2 tier (multi-thread runs
    /// only — a lone worker has no sibling to share with, so L2 traffic
    /// would be pure overhead).
    share_l2: bool,
    /// `sat_memo` lookups that hit / missed (the L1 side of the tiered
    /// saturated-state memo).
    sat_l1_hits: u64,
    sat_l1_misses: u64,
    /// Chase steps decided by extending the parent's saturated state.
    incr_extends: usize,
    /// Nested-BFS results dropped by the subsumption cut (each one skipped
    /// the downstream chases it would have seeded — a whole subtree).
    subsumed: u64,
    /// Chase steps that fell back to the full check (keys, negative
    /// conditions, or no reusable parent state).
    incr_fallbacks: usize,
    /// This worker observed the wall-clock deadline.
    timed_out: bool,
    /// This worker observed a fired [`CancelToken`].
    cancelled: bool,
}

impl WorkerCtx {
    fn new(shared: Arc<SharedMemos>) -> WorkerCtx {
        WorkerCtx {
            bfs_memo: HashMap::new(),
            consist_memo: HashMap::new(),
            solver_cache: SolverCache::default(),
            sat_memo: HashMap::new(),
            shared,
            share_l2: false,
            sat_l1_hits: 0,
            sat_l1_misses: 0,
            incr_extends: 0,
            subsumed: 0,
            incr_fallbacks: 0,
            timed_out: false,
            cancelled: false,
        }
    }
}

/// The answer-affecting run parameters the `bfs_memo`/`consist_memo`
/// contents were computed under. The sub-BFS results depend on the size
/// `limit` (pruning inside `bfs_inner`) and on `universal_fresh`
/// (`Handle-Universal`'s fresh-null branch), and consistency answers
/// depend on `enforce_keys` — so entries are only reusable by a run with
/// the *same* triple. The canonical-problem memo and the saturated-state
/// snapshots are parameter-independent (the canonical problem encodes the
/// key clauses; a saturated state derives purely from literals) and stay
/// warm across any parameter change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheParams {
    limit: usize,
    enforce_keys: bool,
    universal_fresh: bool,
    /// Identity of the schema the memoized digests were computed under
    /// (instance digests are only comparable within one schema; a
    /// pre-parsed `QueryInput::Tree` may carry a different schema than the
    /// session's).
    schema: usize,
}

/// Opaque, reusable chase worker state: the solver memos, saturated-state
/// snapshots, and sub-BFS caches of every worker context. All of it is
/// *speed-only* state (it never changes answers — the invariant the
/// parallel runtime already relies on), and none of it depends on the
/// query, only on the schema's instances, so a `cqi::Session` keeps one
/// across explain calls: repeated or similar queries over one schema hit
/// warm caches instead of re-deriving every `IsConsistent` answer.
/// Memos whose entries *are* sensitive to run parameters are fingerprinted
/// by [`CacheParams`] and cleared when a reusing run differs.
#[derive(Default)]
pub struct ChaseCaches {
    ctxs: Vec<WorkerCtx>,
    params: Option<CacheParams>,
    /// The shared (L2) memo tier every worker context points at.
    shared: Arc<SharedMemos>,
    /// The session's resident worker pool, spawned once (lazily, on the
    /// first parallel run) and reused by every subsequent run. `None`
    /// until then — pool-less chases run every root job inline.
    pool: Option<Arc<ResidentPool>>,
}

impl ChaseCaches {
    pub fn new() -> ChaseCaches {
        ChaseCaches::default()
    }

    /// Spawns (or resizes) the resident pool backing a `threads`-wide run:
    /// `threads - 1` parked workers, the calling thread being the last
    /// participant. Called by the session-backed entry points; one-shot
    /// [`Chase::new`] never spawns a pool and runs root jobs inline.
    pub fn ensure_pool(&mut self, threads: usize) {
        let helpers = threads.saturating_sub(1);
        if helpers == 0 {
            return;
        }
        if self.pool.as_ref().map(|p| p.workers()) != Some(helpers) {
            self.pool = Some(Arc::new(ResidentPool::new(helpers)));
        }
    }
}

/// One top-level root search: a (sub)formula chased from a seed instance
/// under pre-bound output variables. `run_variant` batches these —
/// one per conjunctive tree, plus one per (uncovered leaf × tree) in the
/// `*-Add` phase — and [`Chase::run_roots`] fans the batch out across
/// workers when the config allows.
pub struct RootJob<'f> {
    pub formula: &'f Formula,
    pub seed: CInstance,
    pub h: Hom,
}

/// One entry of [`Chase::accepted`]: the instance, its wall-clock
/// acceptance offset, and — when the subsumption filter computed it at
/// the sink — the instance's leaf coverage.
pub type AcceptedInstance = (CInstance, Duration, Option<Coverage>);

/// What every search of one run shares: the query, the run parameters and
/// the stop conditions. The root searches and the recursive [`Engine`]
/// read it; only the worker context differs between them.
struct SearchEnv<'a> {
    query: &'a Query,
    cfg: &'a ChaseConfig,
    /// Whether `Handle-Universal` may mint fresh labeled nulls
    /// (the `EO` variants disable this).
    universal_fresh: bool,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Hash of the query's variable table (names + domains). Folded into
    /// the sub-BFS memo key: two queries can share a formula *shape*
    /// (identical `VarId` structure) while naming/typing their variables
    /// differently, and fresh nulls inherit `query.var_name`/`var_domain`
    /// — so shape alone must not hit another query's cached results when
    /// a session reuses [`ChaseCaches`].
    query_key: u64,
}

impl SearchEnv<'_> {
    /// One root search on `ctx`: lines 2–5 of Algorithm 1 bind the free
    /// variables, then [`Engine::root_bfs`] runs the loop, flushing every
    /// accept to `sink` as it happens. A search that starts past the
    /// deadline or after a cancellation records that in `ctx` and does
    /// nothing.
    fn search(
        &self,
        ctx: &mut WorkerCtx,
        formula: &Formula,
        seed: CInstance,
        seed_h: Hom,
        sink: &mut dyn FnMut(CInstance, Option<Coverage>) -> bool,
    ) -> RootStats {
        let mut engine = Engine { env: self, ctx };
        if engine.stopped() {
            return RootStats::default();
        }
        let _root_span = trace::span("root_job", "chase");
        let (i0, h0) = bind_free_vars(self.query, formula, seed, seed_h);
        engine.root_bfs(formula, &h0, i0, sink)
    }
}

/// What root searches did, for the run's [`ChaseStats`].
#[derive(Clone, Copy, Debug, Default)]
struct RootStats {
    /// BFS generations processed (the seed is generation 0).
    waves: u64,
    /// `visited` traffic: offers, duplicates, isomorphism checks.
    offers: u64,
    duplicates: u64,
    iso_checks: u64,
    /// Candidates dropped by the subsumption cut.
    pruned: u64,
}

impl RootStats {
    fn add(&mut self, o: RootStats) {
        self.waves += o.waves;
        self.offers += o.offers;
        self.duplicates += o.duplicates;
        self.iso_checks += o.iso_checks;
        self.pruned += o.pruned;
    }
}

/// One chase run (possibly over several trees, for the `Conj-*` and `*-Add`
/// variants, which all feed the same accepted-instance log).
pub struct Chase<'a> {
    env: SearchEnv<'a>,
    pub start: Instant,
    pub timed_out: bool,
    /// A [`CancelToken`] fired mid-drive.
    pub cancelled: bool,
    /// An acceptance observer returned `false` (the streaming consumer
    /// stopped), halting the drive early. Distinct from the `max_results`
    /// cap, which is a *requested* completion.
    pub halted: bool,
    done: bool,
    /// Satisfying consistent instances accepted at the top level, with
    /// acceptance timestamps (drives the §5.1 interactivity metrics) and —
    /// when the subsumption filter already paid for it — the instance's
    /// leaf coverage, reused by validation and the `*-Add` re-seed scan.
    pub accepted: Vec<AcceptedInstance>,
    /// Resolved thread budget (`cfg.threads`, 0 ⇒ available parallelism).
    threads: usize,
    /// One memo context per worker; `ctxs[0]` doubles as the sequential
    /// context.
    ctxs: Vec<WorkerCtx>,
    /// The session's resident pool, if one was spawned (see
    /// [`ChaseCaches::ensure_pool`]); `None` runs root jobs inline.
    pool: Option<Arc<ResidentPool>>,
    /// The shared (L2) memo tier, for the stats snapshot.
    shared: Arc<SharedMemos>,
    /// Steal/batch counters of this run's fan-outs.
    run_counters: RunCounters,
    /// Totals over this run's root searches.
    roots: RootStats,
    /// Cumulative counters at construction — subtracted so
    /// [`Chase::stats`] reports per-run deltas despite session-persistent
    /// caches and process-global digest/phase totals.
    stats_base: ChaseStats,
}

impl<'a> Chase<'a> {
    pub fn new(query: &'a Query, cfg: &'a ChaseConfig, universal_fresh: bool) -> Chase<'a> {
        Chase::new_reusing(query, cfg, universal_fresh, &mut ChaseCaches::new())
    }

    /// Like [`Chase::new`], but the worker contexts are taken from `caches`
    /// (topped up with fresh ones if the thread budget grew); pair with
    /// [`Chase::recycle_into`] to return them warm after the run.
    pub fn new_reusing(
        query: &'a Query,
        cfg: &'a ChaseConfig,
        universal_fresh: bool,
        caches: &mut ChaseCaches,
    ) -> Chase<'a> {
        // lint:allow(wall-clock) per-drive elapsed time feeds `ChaseStats`, not control flow
        let start = Instant::now();
        let threads = cfg.resolved_threads().max(1);
        let params = CacheParams {
            limit: cfg.limit,
            enforce_keys: cfg.enforce_keys,
            universal_fresh,
            schema: std::sync::Arc::as_ptr(&query.schema) as *const u8 as usize,
        };
        let param_safe = caches.params == Some(params);
        caches.params = Some(params);
        let mut ctxs: Vec<WorkerCtx> = std::mem::take(&mut caches.ctxs);
        ctxs.truncate(threads);
        for ctx in &mut ctxs {
            // Per-run flags reset; every memo stays warm — the reuse
            // contract of [`ChaseCaches`].
            ctx.timed_out = false;
            ctx.cancelled = false;
            // A lone worker has no sibling to share solver answers with.
            ctx.share_l2 = threads > 1;
            if !param_safe {
                // These memos' answers depend on the run parameters (see
                // [`CacheParams`]); a differing run must not see them.
                ctx.bfs_memo.clear();
                ctx.consist_memo.clear();
            }
        }
        while ctxs.len() < threads {
            let mut ctx = WorkerCtx::new(Arc::clone(&caches.shared));
            ctx.share_l2 = threads > 1;
            ctxs.push(ctx);
        }
        let query_key = {
            let mut h = DefaultHasher::new();
            for v in &query.vars {
                v.name.hash(&mut h);
                v.domain.index().hash(&mut h);
            }
            h.finish()
        };
        let mut chase = Chase {
            env: SearchEnv {
                query,
                cfg,
                universal_fresh,
                deadline: cfg.timeout.map(|t| start + t),
                cancel: cfg.cancel.clone(),
                query_key,
            },
            start,
            timed_out: false,
            cancelled: false,
            halted: false,
            done: false,
            accepted: Vec::new(),
            threads,
            ctxs,
            pool: caches.pool.clone(),
            shared: Arc::clone(&caches.shared),
            run_counters: RunCounters::default(),
            roots: RootStats::default(),
            stats_base: ChaseStats::default(),
        };
        chase.stats_base = chase.cumulative_stats();
        chase
    }

    /// Hands the worker contexts (with every memo warm) back to `caches`
    /// for the next run.
    pub fn recycle_into(self, caches: &mut ChaseCaches) {
        caches.ctxs = self.ctxs;
    }

    /// Every counter at its current cumulative value (caches persist
    /// across session runs; [`Chase::stats`] subtracts the construction
    /// baseline).
    fn cumulative_stats(&self) -> ChaseStats {
        let counters = self.run_counters.snapshot();
        // Process-global cumulatives (digest counters, traced phase time);
        // the per-run delta comes out of the `stats_base` subtraction like
        // every other persistent counter.
        let (digest_hits, digest_recomputes) = digest_stats::snapshot();
        let [phase_solver_ns, phase_canon_ns, phase_dedupe_ns, phase_sched_ns] =
            trace::phase_totals();
        let mut s = ChaseStats {
            subsumed_subtrees: self.roots.pruned,
            digest_hits,
            digest_recomputes,
            phase_solver_ns,
            phase_canon_ns,
            phase_dedupe_ns,
            phase_sched_ns,
            waves: self.roots.waves,
            // Every wave runs inline on its root's worker context.
            spilled_waves: self.roots.waves,
            steals: counters.steals,
            resident_batches: counters.resident_batches,
            dedupe_offers: self.roots.offers,
            dedupe_duplicates: self.roots.duplicates,
            dedupe_iso_checks: self.roots.iso_checks,
            solver_l2: self.shared.solver.stats.snapshot(),
            sat_l2: self.shared.sat.stats.snapshot(),
            ..ChaseStats::default()
        };
        for c in &self.ctxs {
            s.subsumed_subtrees += c.subsumed;
            s.solver_l1_hits += c.solver_cache.stats.hits;
            s.solver_l1_misses += c.solver_cache.stats.misses;
            s.sat_l1_hits += c.sat_l1_hits;
            s.sat_l1_misses += c.sat_l1_misses;
            s.incr_extends += c.incr_extends as u64;
            s.incr_fallbacks += c.incr_fallbacks as u64;
        }
        s
    }

    /// This run's execution counters (see [`ChaseStats`]): drive totals
    /// plus per-run deltas of the session-persistent cache counters.
    pub fn stats(&self) -> ChaseStats {
        self.cumulative_stats().since(&self.stats_base)
    }

    fn collect_ctx_flags(&mut self) {
        self.timed_out |= self.ctxs.iter().any(|c| c.timed_out);
        self.cancelled |= self.ctxs.iter().any(|c| c.cancelled);
    }

    /// Runs Algorithm 1 on `formula` from `seed`/`seed_h` as the top level,
    /// logging accepted instances. The root is driven sequentially on the
    /// first worker context at every thread count.
    pub fn run_root(&mut self, formula: &Formula, seed: CInstance, seed_h: Hom) {
        self.run_root_observed(formula, seed, seed_h, &mut |_, _, _| true);
    }

    /// [`Chase::run_root`] with an acceptance observer: `observer` is
    /// called with every instance (and its acceptance timestamp) the moment
    /// it enters the log, in the same deterministic order as the final
    /// `accepted` log. Returning `false` halts the drive (the
    /// streaming API's consumer-gone/cancel path).
    pub fn run_root_observed(
        &mut self,
        formula: &Formula,
        seed: CInstance,
        seed_h: Hom,
        observer: &mut dyn FnMut(&CInstance, Duration, Option<&Coverage>) -> bool,
    ) {
        if self.done {
            return;
        }
        let start = self.start;
        let max = self.env.cfg.max_results;
        let accepted = &mut self.accepted;
        let mut done = false;
        let mut halted = false;
        let mut sink = |inst: CInstance, cov: Option<Coverage>| {
            let t = start.elapsed();
            let keep_streaming = observer(&inst, t, cov.as_ref());
            accepted.push((inst, t, cov));
            if !keep_streaming {
                halted = true;
                done = true;
                return false;
            }
            if max.is_some_and(|m| accepted.len() >= m) {
                done = true;
                false
            } else {
                true
            }
        };
        let st = self.env.search(&mut self.ctxs[0], formula, seed, seed_h, &mut sink);
        self.roots.add(st);
        self.done |= done;
        self.halted |= halted;
        self.collect_ctx_flags();
    }

    /// Runs a batch of independent root searches. With a thread budget and
    /// more than one job, whole roots are fanned out across workers (each
    /// driven sequentially on its worker's context) and the accepted
    /// instances are merged in job order — identical output to running the
    /// jobs one by one.
    pub fn run_roots(&mut self, jobs: Vec<RootJob<'_>>) {
        self.run_roots_observed(jobs, &mut |_, _, _| true);
    }

    /// [`Chase::run_roots`] with an acceptance observer (see
    /// [`Chase::run_root_observed`]). Under job-level fan-out the observer
    /// fires at the deterministic job-order merge.
    pub fn run_roots_observed(
        &mut self,
        jobs: Vec<RootJob<'_>>,
        observer: &mut dyn FnMut(&CInstance, Duration, Option<&Coverage>) -> bool,
    ) {
        if jobs.is_empty() || self.done {
            return;
        }
        if self.threads > 1 && jobs.len() > 1 {
            self.run_roots_parallel(jobs, observer);
        } else {
            for job in jobs {
                if self.timed_out || self.cancelled || self.done {
                    break;
                }
                self.run_root_observed(job.formula, job.seed, job.h, observer);
            }
        }
    }

    fn run_roots_parallel(
        &mut self,
        jobs: Vec<RootJob<'_>>,
        observer: &mut dyn FnMut(&CInstance, Duration, Option<&Coverage>) -> bool,
    ) {
        let env = &self.env;
        let max = env.cfg.max_results;
        let start = self.start;
        let exec = match self.pool.as_deref() {
            Some(p) => Exec::resident(p),
            None => Exec::default(),
        }
        .with_counters(&self.run_counters);
        let _fanout_span = trace::span("root_job_fanout", "chase");
        let per_job: Vec<(Vec<AcceptedInstance>, RootStats)> =
            exec.run(&mut self.ctxs, &jobs, |ctx, _, job| {
                let mut acc: Vec<AcceptedInstance> = Vec::new();
                let mut sink = |inst: CInstance, cov: Option<Coverage>| {
                    // Timestamp at the moment of acceptance, not at merge —
                    // the §5.1 interactivity metrics read these.
                    acc.push((inst, start.elapsed(), cov));
                    // No single job ever needs more than the global cap.
                    max.is_none_or(|m| acc.len() < m)
                };
                let st = env.search(ctx, job.formula, job.seed.clone(), job.h.clone(), &mut sink);
                (acc, st)
            });
        // Deterministic merge: job order, truncated at the global cap
        // exactly where a sequential run would have stopped. (The log stays
        // in job order; timestamps are wall-clock and may interleave across
        // jobs, as they legitimately do.) The observer fires here, at the
        // merge point — job-level fan-out is a batch barrier, unlike the
        // per-item flushing of a single root's drive.
        'merge: for (acc, st) in per_job {
            self.roots.add(st);
            for (inst, t, cov) in acc {
                let keep_streaming = observer(&inst, t, cov.as_ref());
                self.accepted.push((inst, t, cov));
                if !keep_streaming {
                    self.halted = true;
                    self.done = true;
                    break 'merge;
                }
                if max.is_some_and(|m| self.accepted.len() >= m) {
                    self.done = true;
                    break 'merge;
                }
            }
        }
        self.collect_ctx_flags();
    }

}

/// A memoized sub-BFS result, renamed for the seed `i0` it is reused
/// under. The memo key's [`exact_digest`] ignores null names, so the entry
/// may have been computed from a seed of identical structure whose nulls
/// carry other names (`x1, t1` where `i0` has `x2, t2`). Seed nulls take
/// `i0`'s names; every later null trims its trailing `'` and is primed
/// again against the names before it, exactly as
/// [`CInstance::fresh_null`] would have named it in a search from `i0`.
/// DRC identifiers cannot contain `'`, so the trim recovers the base name.
fn renamed_for_seed(res: &CInstance, i0: &CInstance) -> CInstance {
    let mut r = res.clone();
    let seed = i0.num_nulls();
    if r.nulls[..seed].iter().zip(&i0.nulls).all(|(a, b)| a.name == b.name) {
        // Same seed names: the search from `i0` named every later null the
        // same way.
        return r;
    }
    for k in 0..r.nulls.len() {
        if k < seed {
            r.nulls[k].name.clone_from(&i0.nulls[k].name);
        } else if !r.nulls[k].dont_care {
            let mut name = r.nulls[k].name.trim_end_matches('\'').to_owned();
            while r.nulls[..k].iter().any(|n| n.name == name) {
                name.push('\'');
            }
            r.nulls[k].name = name;
        }
    }
    r
}

/// Lines 2–5 of Algorithm 1: bind unbound free variables to fresh labeled
/// nulls.
fn bind_free_vars(
    query: &Query,
    formula: &Formula,
    mut inst: CInstance,
    mut h: Hom,
) -> (CInstance, Hom) {
    h.resize(query.vars.len(), None);
    for v in formula.free_vars() {
        if h[v.index()].is_none() {
            let d = query.var_domain(v);
            let n = inst.fresh_null(query.var_name(v), d);
            h[v.index()] = Some(Ent::Null(n));
        }
    }
    (inst, h)
}

/// Subsumption-prune state of one root search (`cfg.subsume_prune`).
///
/// Accepts kept by the sink filter are staged in `pending` and move to
/// `published` only at generation boundaries, so the expand-time cut —
/// which reads `published` alone — sees exactly the accepts of strictly
/// earlier generations, whatever a candidate's position in its own
/// generation. The sink filter reads both, in sink order.
struct SubsumePrune {
    published: Vec<(CInstance, Coverage)>,
    pending: Vec<(CInstance, Coverage)>,
    /// Number of seed nulls (the bound free variables). They denote the
    /// same entities in every instance of this root, so an embedding must
    /// map them identically rather than renaming them.
    fixed: usize,
}

impl SubsumePrune {
    /// Generation boundary: publishes what the sink kept since the last
    /// one, capping the published set at [`SUBSUME_VISIBLE_CAP`] entries
    /// (the earliest kept survive — a prefix of the sink order).
    fn publish(&mut self) {
        let room = SUBSUME_VISIBLE_CAP.saturating_sub(self.published.len());
        self.published.extend(self.pending.drain(..).take(room));
    }

    /// Expand-time cut, checked before the accept test: when a published
    /// accept embeds into `inst` *and* covers exactly the same query
    /// leaves, `inst` is dead work. If it satisfies, it is a strictly
    /// larger re-derivation of the same conditional answer (`minimize`
    /// keeps the earlier, smaller accept, and the covered-leaf union
    /// feeding the `*-Add` re-seed phase is unchanged), and its subtree is
    /// moot either way because accepted instances are never expanded.
    /// Coverage equality is essential: a superset with *new* coverage is a
    /// distinct answer and must survive. `inst`'s coverage is computed
    /// lazily, only once some accept actually embeds — failed embeddings
    /// stay cheap (budgeted backtracking, no Tree-SAT).
    fn prunes(&self, query: &Query, enforce_keys: bool, inst: &CInstance) -> bool {
        if self.published.is_empty() {
            return false;
        }
        let _s = trace::span_phase("subsume_check", "chase", Phase::Dedupe);
        let mut cov: Option<Coverage> = None;
        self.published.iter().any(|(acc, acc_cov)| {
            subsumes(acc, inst, self.fixed)
                && *cov.get_or_insert_with(|| coverage_of_cinstance_keys(query, inst, enforce_keys))
                    == *acc_cov
        })
    }

    /// Sink filter, in sink order: `None` drops the accept `inst`,
    /// `Some(coverage)` keeps it. Accept-heavy workloads produce most of
    /// their accepts as *same-generation siblings*, which the expand-time
    /// cut cannot see; here the candidate is compared against every
    /// earlier-kept accept, published *and* pending. Dropping an accept
    /// `D` subsumed by an earlier-kept `A` with equal coverage is
    /// output-preserving: `minimize` keeps the minimum-size instance per
    /// coverage with earliest-acceptance tie-break, and `A ↪ D` forces
    /// `|A| ≤ |D|`, so `D` never wins; the covered-leaf union feeding the
    /// `*-Add` re-seed phase is unchanged because `cov(D) = cov(A)`
    /// contributes nothing new.
    ///
    /// The coverage computed here goes to the sink with the kept accept, so
    /// the downstream validation/`*-Add` consumers reuse it instead of
    /// recomputing.
    fn keep(&mut self, query: &Query, enforce_keys: bool, inst: &CInstance) -> Option<Coverage> {
        let _s = trace::span_phase("subsume_sink", "chase", Phase::Dedupe);
        let cov = coverage_of_cinstance_keys(query, inst, enforce_keys);
        // Cheap coverage-equality reject first: embedding attempts run only
        // against the (few) earlier representatives of this exact class.
        let mut same_class = 0usize;
        let dead = self.published.iter().chain(&self.pending).any(|(acc, acc_cov)| {
            *acc_cov == cov && {
                same_class += 1;
                subsumes(acc, inst, self.fixed)
            }
        });
        if dead {
            return None;
        }
        // Staging is capped per class (early accepts of a class are the
        // smallest, so a few representatives retain the pruning power) and
        // in total (memory + scan bound).
        if self.published.len() + self.pending.len() < SUBSUME_VISIBLE_CAP
            && same_class < SUBSUME_CLASS_CAP
        {
            self.pending.push((inst.clone(), cov.clone()));
        }
        Some(cov)
    }
}

/// The chase engine: Algorithm 1 (top level and nested) and Algorithms
/// 2–6, operating on one worker's memo context.
struct Engine<'e> {
    env: &'e SearchEnv<'e>,
    ctx: &'e mut WorkerCtx,
}

impl Engine<'_> {
    fn stopped(&mut self) -> bool {
        if let Some(d) = self.env.deadline {
            // lint:allow(wall-clock) deadline enforcement needs a real clock
            if Instant::now() >= d {
                self.ctx.timed_out = true;
                return true;
            }
        }
        if self.env.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.ctx.cancelled = true;
            return true;
        }
        false
    }

    /// `Tree-Chase-BFS` (Algorithm 1) at the top level: the FIFO loop over
    /// BFS generations from the bound seed `i0`. Each candidate passes the
    /// stop check, then admission (size bound + `visited`), then its
    /// accept/expand step ([`bfs_step`](Self::bfs_step)). An accept is
    /// flushed to `sink` the moment it is found — never batched to the end,
    /// which the streaming API's time-to-first-instance relies on — and
    /// `sink` returning `false` ends the search (`max_results`, or a
    /// consumer that walked away).
    fn root_bfs(
        &mut self,
        q: &Formula,
        h0: &Hom,
        i0: CInstance,
        sink: &mut dyn FnMut(CInstance, Option<Coverage>) -> bool,
    ) -> RootStats {
        let (query, enforce_keys) = (self.env.query, self.env.cfg.enforce_keys);
        let mut prune = self.env.cfg.subsume_prune.then(|| SubsumePrune {
            published: Vec::new(),
            pending: Vec::new(),
            fixed: i0.num_nulls(),
        });
        let mut visited = Visited::root();
        let mut stats = RootStats::default();
        let mut wave = vec![i0];
        'search: while !wave.is_empty() {
            if let Some(p) = &mut prune {
                p.publish();
            }
            stats.waves += 1;
            let _wave_span = trace::span("wave", "sched");
            let mut next = Vec::new();
            for inst in wave {
                if self.stopped() {
                    break 'search;
                }
                let admitted = {
                    let _s = trace::span_phase("dedupe_offer", "dedupe", Phase::Dedupe);
                    inst.size() <= self.env.cfg.limit && visited.insert(&inst)
                };
                if !admitted {
                    continue;
                }
                if prune.as_ref().is_some_and(|p| p.prunes(query, enforce_keys, &inst)) {
                    stats.pruned += 1;
                    continue;
                }
                let (accepted, children) = self.bfs_step(q, h0, &inst);
                if !accepted {
                    next.extend(children);
                    continue;
                }
                let cov = match prune.as_mut().map(|p| p.keep(query, enforce_keys, &inst)) {
                    Some(None) => {
                        stats.pruned += 1;
                        continue;
                    }
                    cov => cov.flatten(),
                };
                if !sink(inst, cov) {
                    break 'search;
                }
            }
            wave = next;
        }
        stats.offers = visited.offers;
        stats.duplicates = visited.duplicates;
        stats.iso_checks = visited.iso_checks;
        stats
    }

    fn consistent(&mut self, inst: &CInstance) -> bool {
        let key = exact_digest(inst);
        if let Some(v) = self.ctx.consist_memo.get(&key) {
            return *v;
        }
        let ans = self.full_check(inst);
        self.memoize_consistency(key, ans);
        ans
    }

    /// `IsConsistent` for a chase step `parent → child`. The child's
    /// problem is canonicalized once and looked up in the solver memo; on a
    /// miss, the parent's saturated theory state is extended with the
    /// step's delta literals (much cheaper than a fresh solve) and the
    /// answer is inserted into the memo so isomorphic siblings hit. The
    /// extension soundly falls back to a full solve whenever the step
    /// touches keys or negative conditions (or no parent state is
    /// reusable).
    fn consistent_step(&mut self, parent: &CInstance, child: &CInstance) -> bool {
        let key = exact_digest(child);
        if let Some(v) = self.ctx.consist_memo.get(&key) {
            return *v;
        }
        consistency_checks_metric().inc();
        let ans = if self.env.cfg.solver_cache {
            let canon = {
                let _s = trace::span_phase("canonicalize", "solver", Phase::Canon);
                let problem = to_problem(child, self.env.cfg.enforce_keys);
                canonicalize(&problem)
            };
            let l1 = {
                let _s = trace::span_phase("l1_lookup", "solver", Phase::Solver);
                self.ctx.solver_cache.lookup_sat(&canon)
            };
            match l1 {
                Some(sat) => sat,
                // L1 miss → consult the shared L2 tier (multi-thread runs
                // only): a sibling worker may already have decided an
                // isomorphic step. L2 stores canonical-space outcomes, so a
                // hit back-fills L1 directly.
                None => {
                    let l2 = {
                        let _s = trace::span_phase("l2_lookup", "solver", Phase::Solver);
                        self.ctx
                            .share_l2
                            .then(|| self.ctx.shared.solver.get(&canon.key))
                            .flatten()
                    };
                    match l2 {
                        Some(result) => {
                            let sat = result.is_some();
                            self.ctx.solver_cache.insert_canonical(canon.key.clone(), result);
                            sat
                        }
                        None => {
                            let incr = {
                                let _s = trace::span_phase(
                                    "incremental_extend",
                                    "solver",
                                    Phase::Solver,
                                );
                                self.incremental_check(parent, child)
                            };
                            match incr {
                                Some(ext) => {
                                    self.ctx.incr_extends += 1;
                                    // Canonical-space outcome is a pure function of
                                    // the key, so publishing to L2 is race-benign
                                    // (first writer wins, all writers agree).
                                    let result =
                                        ext.as_ref().map(|st| canon.model_to_canon(st.model()));
                                    if self.ctx.share_l2 {
                                        self.ctx
                                            .shared
                                            .solver
                                            .insert(canon.key.clone(), result.clone());
                                    }
                                    self.ctx
                                        .solver_cache
                                        .insert_canonical(canon.key.clone(), result);
                                    match ext {
                                        Some(st) => {
                                            self.memoize_state(state_key(key, child), st);
                                            true
                                        }
                                        None => false,
                                    }
                                }
                                None => {
                                    self.ctx.incr_fallbacks += 1;
                                    let _s = trace::span_phase("solve", "solver", Phase::Solver);
                                    let sat =
                                        self.ctx.solver_cache.solve_canonical(&canon).is_sat();
                                    if self.ctx.share_l2 {
                                        if let Some(result) =
                                            self.ctx.solver_cache.peek_canonical(&canon.key)
                                        {
                                            self.ctx.shared.solver.insert(canon.key.clone(), result);
                                        }
                                    }
                                    sat
                                }
                            }
                        }
                    }
                }
            }
        } else {
            let incr = {
                let _s = trace::span_phase("incremental_extend", "solver", Phase::Solver);
                self.incremental_check(parent, child)
            };
            match incr {
                Some(ext) => {
                    self.ctx.incr_extends += 1;
                    match ext {
                        Some(st) => {
                            self.memoize_state(state_key(key, child), st);
                            true
                        }
                        None => false,
                    }
                }
                None => {
                    self.ctx.incr_fallbacks += 1;
                    let _s = trace::span_phase("solve", "solver", Phase::Solver);
                    is_consistent(child, self.env.cfg.enforce_keys)
                }
            }
        };
        self.memoize_consistency(key, ans);
        ans
    }

    /// From-scratch `IsConsistent`, through the canonical-problem memo when
    /// enabled. (Attributed wholesale to the solver phase: canonicalization
    /// happens inside the cached path and can't be split out here.)
    fn full_check(&mut self, inst: &CInstance) -> bool {
        consistency_checks_metric().inc();
        let _s = trace::span_phase("full_check", "solver", Phase::Solver);
        if self.env.cfg.solver_cache {
            is_consistent_cached(inst, self.env.cfg.enforce_keys, &mut self.ctx.solver_cache)
        } else {
            is_consistent(inst, self.env.cfg.enforce_keys)
        }
    }

    fn memoize_consistency(&mut self, key: u64, ans: bool) {
        if self.ctx.consist_memo.len() < 1_000_000 {
            self.ctx.consist_memo.insert(key, ans);
        }
    }

    /// The incremental path. Outer `None` means "not eligible — run the
    /// full check"; `Some(ext)` is a definitive answer obtained by
    /// extending the parent's [`SaturatedState`] with the delta:
    /// `Some(state)` when consistent, `None` when the delta is refuted (the
    /// parent state is untouched — rollback by persistence).
    ///
    /// Eligibility (soundness): the child's problem must be a pure
    /// conjunction — every negated atom ranges over an empty table and no
    /// enforced key sees two rows — and the child's global condition must
    /// extend the parent's. Then `IsConsistent(child)` is exactly
    /// `parent-conjunction ∧ delta`, which the saturated state decides.
    fn incremental_check(
        &mut self,
        parent: &CInstance,
        child: &CInstance,
    ) -> Option<Option<SaturatedState>> {
        if !self.env.cfg.incremental {
            return None;
        }
        // Below this size a fresh solve is cheaper than state bookkeeping.
        if parent.global.len() < self.env.cfg.incremental_min_lits {
            return None;
        }
        if !is_pure_conjunctive(child, self.env.cfg.enforce_keys) {
            return None;
        }
        if child.global.len() < parent.global.len()
            || child.global[..parent.global.len()] != parent.global[..]
        {
            return None;
        }
        let parent_key = state_key(exact_digest(parent), parent);
        let mut seeded: Option<SaturatedState> = None;
        if self.ctx.sat_memo.contains_key(&parent_key) {
            self.ctx.sat_l1_hits += 1;
        } else {
            self.ctx.sat_l1_misses += 1;
            let st = match self
                .ctx
                .share_l2
                .then(|| self.ctx.shared.sat.get(&parent_key))
                .flatten()
            {
                // A sibling worker already saturated this parent state.
                Some(st) => st,
                None => {
                    // Child purity implies parent purity (tables and
                    // conditions only grow), so the parent's conjunction
                    // seeds a state. A `None` here means the parent itself
                    // is inconsistent; fall back (the caller's full check
                    // will agree).
                    debug_assert!(is_pure_conjunctive(parent, self.env.cfg.enforce_keys));
                    SaturatedState::saturate(&parent.null_types(), &conj_lits(&parent.global))?
                }
            };
            seeded = Some(st);
        }
        let parent_state = match &seeded {
            Some(st) => st,
            None => &self.ctx.sat_memo[&parent_key],
        };
        // The delta reduces through the same logic as a whole instance
        // (`NotIn` over an empty table is vacuous, exactly as in
        // `to_problem`).
        let delta: Vec<Lit> = conj_lits(&child.global[parent.global.len()..]);
        let extended = parent_state.extend(&child.null_types(), &delta);
        if let Some(st) = seeded {
            self.memoize_state(parent_key, st);
        }
        Some(extended)
    }

    fn memoize_state(&mut self, key: u64, st: SaturatedState) {
        // Saturated states are deterministic functions of the key, so the
        // shared tier's first-writer-wins races are benign.
        if self.ctx.share_l2 {
            self.ctx.shared.sat.insert(key, st.clone());
        }
        if self.ctx.sat_memo.len() < SAT_MEMO_CAP {
            self.ctx.sat_memo.insert(key, st);
        }
    }

    /// `Tree-Chase-BFS` (Algorithm 1) for recursive (sub-formula) calls,
    /// memoized on (subtree, instance, relevant homomorphism entries).
    fn bfs(&mut self, q: &Formula, h0: &Hom, i0: &CInstance) -> Vec<CInstance> {
        // Key: query identity (variable names/domains — see
        // `Chase::query_key`) + subtree structure + exact instance + the
        // homomorphism entries its free variables see.
        let fkey = hash_of(&(self.env.query_key, format!("{q:?}")));
        let ikey = exact_digest(i0);
        let hkey = {
            let mut hh = DefaultHasher::new();
            for v in q.free_vars() {
                v.0.hash(&mut hh);
                format!("{:?}", h0.get(v.index()).and_then(|e| e.as_ref())).hash(&mut hh);
            }
            hh.finish()
        };
        let key = (fkey, ikey, hkey);
        if let Some(cached) = self.ctx.bfs_memo.get(&key) {
            return cached.iter().map(|r| renamed_for_seed(r, i0)).collect();
        }
        let res = self.bfs_inner(q, h0, i0);
        // Results truncated by timeout/cancellation must not poison the
        // cache (it outlives the run now that sessions recycle contexts).
        if !self.ctx.timed_out && !self.ctx.cancelled && self.ctx.bfs_memo.len() < 400_000 {
            self.ctx.bfs_memo.insert(key, res.clone());
        }
        res
    }

    /// `Tree-Chase-BFS` body, walked in FIFO waves. The plain loop pops one
    /// instance, admits it (size bound + visited isomorphism check), then
    /// either accepts it or expands it. The wave form does the same work
    /// level by level: each admitted instance joins `visited` before the
    /// next is checked — exactly the pop order — and then every admitted
    /// instance takes its accept/expand step ([`bfs_step`](Self::bfs_step))
    /// in order. A step never reads `visited` or its siblings, so the
    /// order of results and children is the plain loop's (children of
    /// `wave[i]` precede children of `wave[i+1]`).
    fn bfs_inner(&mut self, q: &Formula, h0: &Hom, i0: &CInstance) -> Vec<CInstance> {
        let (i0, h0) = bind_free_vars(self.env.query, q, i0.clone(), h0.clone());
        // Seed nulls are shared by every result of this search, so a
        // subsumption embedding must keep them pointwise fixed.
        let fixed = i0.num_nulls();
        let mut res: Vec<CInstance> = Vec::new();
        // Leaf coverage of each kept result, in step with `res` (filled
        // only under `cfg.subsume_prune`).
        let mut res_covs: Vec<Coverage> = Vec::new();
        let mut frontier: Vec<CInstance> = vec![i0];
        let mut visited = Visited::nested();
        while !frontier.is_empty() {
            if self.stopped() {
                break;
            }
            let _wave_span = trace::span("nested_wave", "chase");
            // Line 10: size bound and visited (isomorphism) check.
            let mut wave: Vec<CInstance> = Vec::new();
            {
                let _s = trace::span_phase("nested_admit", "dedupe", Phase::Dedupe);
                for inst in std::mem::take(&mut frontier) {
                    if inst.size() <= self.env.cfg.limit && visited.insert(&inst) {
                        wave.push(inst);
                    }
                }
            }
            wave_width_metric().observe(wave.len() as u64);
            for inst in wave {
                if self.stopped() {
                    break;
                }
                let (accepted, children) = self.bfs_step(q, &h0, &inst);
                if accepted {
                    // Subsumption cut: a result into which an earlier-kept
                    // result embeds (seed nulls fixed, same leaf coverage)
                    // is a redundant re-derivation — and every chase the
                    // caller would have seeded from it (the right-hand
                    // searches of `handle_conjunction`, recursively) dies
                    // with it. This is per-search-local FIFO state, so the
                    // kept list is a pure function of the search inputs.
                    if self.env.cfg.subsume_prune {
                        let cov = coverage_of_cinstance_keys(
                            self.env.query,
                            &inst,
                            self.env.cfg.enforce_keys,
                        );
                        if nested_subsumed(&res, &res_covs, &inst, &cov, fixed) {
                            self.ctx.subsumed += 1;
                            continue;
                        }
                        res_covs.push(cov);
                    }
                    res.push(inst);
                } else {
                    frontier.extend(children);
                }
            }
        }
        res
    }

    /// One step of Algorithm 1 for an already-admitted instance: accept it
    /// (Tree-SAT ∧ IsConsistent) or expand it and pre-filter the children.
    /// Pure with respect to the BFS bookkeeping — it reads neither
    /// `visited` nor any sibling.
    fn bfs_step(&mut self, q: &Formula, h0: &Hom, inst: &CInstance) -> (bool, Vec<CInstance>) {
        // Line 13: Tree-SAT under the *current* homomorphism (recursive
        // calls must verify satisfaction at the handler's chosen
        // mapping, not under blanket ∃-closure — otherwise the
        // Handle-Universal merge would accept bodies satisfied by some
        // other entity) ∧ IsConsistent(I).
        let ctx = SatCtx::new(self.env.query, inst, self.env.cfg.enforce_keys);
        if ctx.tree_sat(q, h0) && self.consistent(inst) {
            return (true, Vec::new());
        }
        // Lines 16–19: expand.
        let expansions = self.tree_chase(q, inst, h0);
        let mut children = Vec::new();
        for j in expansions {
            if self.stopped() {
                break;
            }
            if j.size() <= self.env.cfg.limit && self.consistent(&j) {
                children.push(j);
            }
        }
        (false, children)
    }

    /// `Tree-Chase` (Algorithm 2): dispatch on the root operator.
    fn tree_chase(&mut self, q: &Formula, inst: &CInstance, h: &Hom) -> Vec<CInstance> {
        if !has_quantifier(q) {
            // Lines 2–7: materialize each DNF conjunction.
            let mut res = Vec::new();
            for conj in tree_to_conj(q) {
                if let Some(j) = materialize(self.env.query, inst, &conj, h) {
                    // `j` extends `inst` by one materialized conjunction —
                    // the incremental hot path.
                    if self.consistent_step(inst, &j) {
                        res.push(j);
                    }
                }
            }
            return res;
        }
        match q {
            Formula::And(l, r) => self.handle_conjunction(l, r, inst, h),
            Formula::Or(l, r) => self.handle_disjunction(l, r, inst, h),
            Formula::Exists(v, b) => self.handle_existential(*v, b, inst, h),
            Formula::Forall(v, b) => self.handle_universal(*v, b, inst, h),
            Formula::Atom(_) => unreachable!("atom has no quantifier"),
        }
    }

    /// Algorithm 3: chase the left child, then the right child on each of
    /// its solutions.
    fn handle_conjunction(
        &mut self,
        l: &Formula,
        r: &Formula,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let mut res = Vec::new();
        let lres = self.bfs(l, h, inst);
        for j in lres {
            if self.stopped() {
                break;
            }
            // BFS results are already consistent and satisfying.
            res.extend(self.bfs(r, h, &j));
        }
        res
    }

    /// Algorithm 4: expand the root `∨` into its three conjunctive cases.
    fn handle_disjunction(
        &mut self,
        l: &Formula,
        r: &Formula,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let mut res = Vec::new();
        for case in expand_disj_node(l, r) {
            if self.stopped() {
                break;
            }
            res.extend(self.bfs(&case, h, inst));
        }
        res
    }

    /// Algorithm 5: map the variable to every pool entity, and once to a
    /// fresh labeled null.
    fn handle_existential(
        &mut self,
        v: VarId,
        body: &Formula,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let d = self.env.query.var_domain(v);
        let mut res = Vec::new();
        for e in inst.domain_pool(d).to_vec() {
            if self.stopped() {
                break;
            }
            let mut g = h.clone();
            g[v.index()] = Some(e);
            res.extend(self.bfs(body, &g, inst));
        }
        if !self.stopped() {
            let mut i2 = inst.clone();
            let y = i2.fresh_null(self.env.query.var_name(v), d);
            let mut g = h.clone();
            g[v.index()] = Some(Ent::Null(y));
            res.extend(self.bfs(body, &g, &i2));
        }
        res
    }

    /// Algorithm 6: solutions for *all* pool entities are merged (the body
    /// must hold for every one); optionally also for one fresh null.
    fn handle_universal(
        &mut self,
        v: VarId,
        body: &Formula,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let d = self.env.query.var_domain(v);
        let pool = inst.domain_pool(d).to_vec();
        let mut res: Vec<CInstance> = Vec::new();
        let mut ilist: Vec<CInstance> = vec![inst.clone()];
        if pool.is_empty() {
            // Lines 2–3: a universal over an empty domain holds vacuously.
            res.push(inst.clone());
        } else {
            for e in pool {
                if self.stopped() {
                    break;
                }
                let mut g = h.clone();
                g[v.index()] = Some(e);
                let mut cur = Vec::new();
                for j1 in &ilist {
                    cur.extend(self.bfs(body, &g, j1));
                }
                ilist = cur;
            }
            res.extend(ilist.iter().cloned());
        }
        // Lines 15–24: additionally require the body for a fresh null
        // (skipped by the EO variants — may lose completeness, §4.3).
        if self.env.universal_fresh && !self.stopped() {
            let mut cur = Vec::new();
            for j1 in &ilist {
                let mut j = j1.clone();
                let y = j.fresh_null(self.env.query.var_name(v), d);
                let mut g = h.clone();
                g[v.index()] = Some(Ent::Null(y));
                cur.extend(self.bfs(body, &g, &j));
            }
            res.extend(cur);
        }
        res
    }
}

/// Materializes a conjunction of atoms into a copy of `inst` under `h`
/// (the body of `Add-to-Ins`, also used directly by the CQ¬ fast path and
/// the `*-Add` seeding).
pub fn materialize(
    query: &Query,
    inst: &CInstance,
    conj: &[Atom],
    h: &Hom,
) -> Option<CInstance> {
    let mut j = inst.clone();
    for atom in conj {
        match atom {
            Atom::Rel { negated, rel, terms } => {
                let mut tuple: Vec<Ent> = Vec::with_capacity(terms.len());
                for (col, t) in terms.iter().enumerate() {
                    let d = query.schema.attr_domain(*rel, col);
                    let e = match t {
                        Term::Var(v) => h[v.index()]
                            .clone()
                            .expect("free variable bound before Add-to-Ins"),
                        Term::Const(c) => {
                            j.add_const_to_domain(d, c.clone());
                            Ent::Const(c.clone())
                        }
                        Term::Wildcard => Ent::Null(j.fresh_dont_care(d)),
                    };
                    tuple.push(e);
                }
                if *negated {
                    j.add_cond(Cond::NotIn { rel: *rel, tuple });
                } else {
                    j.add_tuple(*rel, tuple);
                }
            }
            Atom::Cmp { op, lhs, rhs, .. } => {
                // LIKE patterns are *patterns*, not domain values — they
                // must never join the quantifier pools (a pattern string in
                // a pool produces phantom coverage).
                let register = *op != cqi_drc::CmpOp::Like;
                let resolve = |t: &Term, j: &mut CInstance, partner: &Term| -> Ent {
                    match t {
                        Term::Var(v) => h[v.index()]
                            .clone()
                            .expect("free variable bound before Add-to-Ins"),
                        Term::Const(c) => {
                            // Register the constant in the partner
                            // variable's domain pool so quantifiers can
                            // map to it later.
                            if register {
                                if let Term::Var(pv) = partner {
                                    j.add_const_to_domain(query.var_domain(*pv), c.clone());
                                }
                            }
                            Ent::Const(c.clone())
                        }
                        Term::Wildcard => {
                            unreachable!("wildcards cannot appear in comparisons")
                        }
                    }
                };
                let a = resolve(lhs, &mut j, rhs);
                let b = resolve(rhs, &mut j, lhs);
                if let (Ent::Const(_), Ent::Const(_)) = (&a, &b) {
                    // Evaluate immediately; false kills the conjunction,
                    // true need not be recorded.
                    let lit = atom_to_lit(atom, &a, &b);
                    let m = cqi_solver::Model::default();
                    match m.eval_lit(&lit) {
                        Some(true) => continue,
                        _ => return None,
                    }
                }
                j.add_cond(Cond::Lit(atom_to_lit(atom, &a, &b)));
            }
        }
    }
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
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

    fn run_with(src: &str, cfg: &ChaseConfig) -> Vec<CInstance> {
        let s = schema();
        let q = parse_query(&s, src).unwrap();
        let mut chase = Chase::new(&q, cfg, true);
        let seed = CInstance::new(Arc::clone(&s));
        chase.run_root(&q.formula.clone(), seed, vec![None; q.vars.len()]);
        chase.accepted.into_iter().map(|(i, ..)| i).collect()
    }

    fn run(src: &str, limit: usize) -> Vec<CInstance> {
        run_with(src, &ChaseConfig::with_limit(limit))
    }

    #[test]
    fn single_atom_query_builds_one_tuple() {
        let accepted = run("{ (b1) | exists d1 (Likes(d1, b1)) }", 4);
        assert!(!accepted.is_empty());
        // The smallest accepted instance is a single Likes tuple.
        let min = accepted.iter().map(CInstance::size).min().unwrap();
        assert_eq!(min, 1);
    }

    #[test]
    fn conjunction_joins_on_shared_variable() {
        let accepted = run(
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
            4,
        );
        assert!(!accepted.is_empty());
        for inst in &accepted {
            // Both tables populated, sharing the beer null.
            assert!(inst.tables.iter().all(|t| !t.is_empty()));
        }
    }

    #[test]
    fn comparison_condition_lands_in_global() {
        let accepted = run(
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            8,
        );
        assert!(!accepted.is_empty());
        assert!(accepted
            .iter()
            .any(|i| i.global.iter().any(|c| matches!(c, Cond::Lit(_)))));
    }

    #[test]
    fn universal_over_empty_pool_accepted_vacuously() {
        // With no drinker nulls in any pool, ∀d1 (¬Likes(d1,b1)) holds
        // vacuously, so Algorithm 1 accepts the Serves-only instance
        // without expanding it (reaching the ¬Likes coverage is the job of
        // the *-Add seeding, tested in `variants`).
        let accepted = run(
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
            6,
        );
        assert!(!accepted.is_empty());
        assert!(accepted
            .iter()
            .any(|i| i.global.iter().all(|c| !matches!(c, Cond::NotIn { .. }))));
    }

    #[test]
    fn disjunction_produces_multiple_shapes() {
        let accepted = run(
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
            6,
        );
        // Both the >3 and <1 shapes must be found.
        let has_gt = accepted.iter().any(|i| {
            i.global
                .iter()
                .any(|c| i.cond_string(c).contains("> 3") || i.cond_string(c).contains("3 <"))
        });
        let has_lt = accepted.iter().any(|i| {
            i.global
                .iter()
                .any(|c| i.cond_string(c).contains("< 1") || i.cond_string(c).contains("1 >"))
        });
        assert!(has_gt && has_lt, "{:?}", accepted.len());
    }

    #[test]
    fn limit_bounds_instance_size() {
        let accepted = run(
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            5,
        );
        assert!(accepted.iter().all(|i| i.size() <= 5));
    }

    #[test]
    fn timeout_flags_and_stops() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
        )
        .unwrap();
        let cfg = ChaseConfig::with_limit(12).timeout(Duration::from_millis(1));
        let mut chase = Chase::new(&q, &cfg, true);
        chase.run_root(
            &q.formula.clone(),
            CInstance::new(Arc::clone(&s)),
            vec![None; q.vars.len()],
        );
        // With a 1 ms budget the search cannot finish exploring.
        assert!(chase.timed_out || !chase.accepted.is_empty());
    }

    #[test]
    fn max_results_short_circuits() {
        // The cap cuts the accepted log exactly where an uncapped run's log
        // reaches it: the capped log is the FIFO prefix of the full one.
        let render = |insts: Vec<CInstance>| -> Vec<String> {
            insts.iter().map(|i| format!("{i}")).collect()
        };
        let full = render(run(FORALL_DISJ, 8));
        assert!(full.len() > 3, "want a log longer than the caps below");
        for cap in [1, 3] {
            let capped = render(run_with(FORALL_DISJ, &ChaseConfig::with_limit(8).max_results(cap)));
            assert_eq!(capped, full[..cap], "cap {cap}");
        }
    }

    #[test]
    fn reused_caches_cleared_when_answer_affecting_params_change() {
        // The bfs/consistency memos are only valid under the (limit,
        // enforce_keys, universal_fresh) they were computed with; reusing
        // them across a parameter change would silently change answers
        // (bfs_inner prunes on cfg.limit, Handle-Universal branches on
        // universal_fresh, IsConsistent depends on enforce_keys).
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
        )
        .unwrap();
        let run = |cfg: &ChaseConfig, fresh: bool, caches: &mut ChaseCaches| {
            let mut chase = Chase::new_reusing(&q, cfg, fresh, caches);
            chase.run_root(
                &q.formula.clone(),
                CInstance::new(Arc::clone(&s)),
                vec![None; q.vars.len()],
            );
            chase.recycle_into(caches);
        };
        let memo_sizes = |caches: &ChaseCaches| -> (usize, usize) {
            let c = &caches.ctxs[0];
            (c.bfs_memo.len(), c.consist_memo.len())
        };
        let mut caches = ChaseCaches::new();
        let cfg4 = ChaseConfig::with_limit(4);
        let cfg6 = ChaseConfig::with_limit(6);
        let cfg6_keys = ChaseConfig::with_limit(6).enforce_keys(true);
        run(&cfg4, true, &mut caches);
        let (bfs, consist) = memo_sizes(&caches);
        assert!(bfs > 0 && consist > 0, "run must populate the memos");
        // Same parameters: memos survive (the warm-session fast path).
        run(&cfg4, true, &mut caches);
        let (bfs2, consist2) = memo_sizes(&caches);
        assert!(bfs2 >= bfs && consist2 >= consist);
        // Limit change: cleared before the run starts.
        let chase = Chase::new_reusing(&q, &cfg6, true, &mut caches);
        assert_eq!((chase.ctxs[0].bfs_memo.len(), chase.ctxs[0].consist_memo.len()), (0, 0));
        chase.recycle_into(&mut caches);
        // universal_fresh change: cleared too.
        run(&cfg6, true, &mut caches);
        assert!(memo_sizes(&caches).0 > 0);
        let chase = Chase::new_reusing(&q, &cfg6, false, &mut caches);
        assert_eq!(chase.ctxs[0].bfs_memo.len(), 0);
        chase.recycle_into(&mut caches);
        // enforce_keys change: cleared as well.
        run(&cfg6, false, &mut caches);
        assert!(memo_sizes(&caches).1 > 0);
        let chase = Chase::new_reusing(&q, &cfg6_keys, false, &mut caches);
        assert_eq!(chase.ctxs[0].consist_memo.len(), 0);
    }

    #[test]
    fn shared_l2_entries_cross_worker_boundaries() {
        // White-box: a state published through one worker's memoize path
        // is visible to a *different* worker context wired to the same
        // shared tier — the mechanism behind cross-worker memo reuse.
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let cfg = ChaseConfig::with_limit(4);
        let shared = Arc::new(SharedMemos::default());
        let mut a = WorkerCtx::new(Arc::clone(&shared));
        a.share_l2 = true;
        let b = WorkerCtx::new(Arc::clone(&shared));
        let st = SaturatedState::saturate(&[], &[]).expect("empty state saturates");
        let env = SearchEnv {
            query: &q,
            cfg: &cfg,
            universal_fresh: true,
            deadline: None,
            cancel: None,
            query_key: 0,
        };
        let mut engine = Engine {
            env: &env,
            ctx: &mut a,
        };
        engine.memoize_state(42, st);
        assert_eq!(shared.sat.stats.snapshot().inserts, 1);
        // B has never seen the key in its own L1 yet hits the shared tier.
        assert!(!b.sat_memo.contains_key(&42));
        assert!(b.shared.sat.get(&42).is_some());
        assert_eq!(shared.sat.stats.snapshot().hits, 1);
    }

    #[test]
    fn bfs_memo_hit_is_renamed_for_the_seed() {
        // Two seeds of identical structure (same digest) whose second null
        // is named differently: in seed `a` the ∃-branch's fresh `x1`
        // collides and is primed, in seed `b` it is not. A memo hit on `b`
        // after a search from `a` must return what a cold search from `b`
        // does, names included.
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let serves = s.rel_id("Serves").unwrap();
        let b1 = q.vars.iter().position(|v| v.name == "b1").unwrap();
        let seed = |other: &str| {
            let mut i = CInstance::new(Arc::clone(&s));
            let beer = i.fresh_null("b1", s.attr_domain(serves, 1));
            i.fresh_null(other, s.attr_domain(serves, 0));
            (i, beer)
        };
        let (a, beer) = seed("x1");
        let (b, _) = seed("z9");
        assert_eq!(exact_digest(&a), exact_digest(&b));
        let mut h0: Hom = vec![None; q.vars.len()];
        h0[b1] = Some(Ent::Null(beer));
        let cfg = ChaseConfig::with_limit(4);
        let env = SearchEnv {
            query: &q,
            cfg: &cfg,
            universal_fresh: true,
            deadline: None,
            cancel: None,
            query_key: 0,
        };
        let render = |r: Vec<CInstance>| -> Vec<String> { r.iter().map(|i| format!("{i}")).collect() };
        let cold = |seed: &CInstance| {
            let mut ctx = WorkerCtx::new(Arc::default());
            render(Engine { env: &env, ctx: &mut ctx }.bfs(&q.formula, &h0, seed))
        };
        let mut ctx = WorkerCtx::new(Arc::default());
        let mut engine = Engine { env: &env, ctx: &mut ctx };
        let from_a = render(engine.bfs(&q.formula, &h0, &a));
        let entries = engine.ctx.bfs_memo.len();
        let hit = render(engine.bfs(&q.formula, &h0, &b));
        assert_eq!(engine.ctx.bfs_memo.len(), entries, "the search from `b` must hit");
        assert_ne!(from_a, cold(&b), "the seeds' results must render differently");
        assert!(from_a.iter().any(|r| r.contains("x1'")), "{from_a:?}");
        assert_eq!(hit, cold(&b));
    }

    /// A disjunctive query: its `Conj-*` trees are three root jobs.
    const DISJ: &str = "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }";

    /// Chases the `Conj-*` trees of `src` as one batch of root jobs, over a
    /// resident pool sized for `cfg` as a session would spawn it; returns
    /// the caches so a follow-up run can reuse them.
    fn roots_run(src: &str, cfg: &ChaseConfig) -> (Vec<CInstance>, ChaseStats, ChaseCaches) {
        let s = schema();
        let q = parse_query(&s, src).unwrap();
        let trees = crate::conjtree::conjunctive_trees(&q.formula);
        assert!(trees.len() > 1, "{src}: want several root jobs");
        let mut caches = ChaseCaches::new();
        caches.ensure_pool(cfg.resolved_threads());
        let mut chase = Chase::new_reusing(&q, cfg, true, &mut caches);
        chase.run_roots(
            trees
                .iter()
                .map(|formula| RootJob {
                    formula,
                    seed: CInstance::new(Arc::clone(&s)),
                    h: vec![None; q.vars.len()],
                })
                .collect(),
        );
        let stats = chase.stats();
        let accepted = std::mem::take(&mut chase.accepted);
        chase.recycle_into(&mut caches);
        (accepted.into_iter().map(|(i, ..)| i).collect(), stats, caches)
    }

    #[test]
    fn resident_run_reports_waves_batches_and_l2_traffic() {
        let cfg = ChaseConfig::with_limit(7).threads(3);
        let (accepted, stats, mut caches) = roots_run(DISJ, &cfg);
        assert!(!accepted.is_empty());
        assert!(stats.waves > 0, "every root drive reports its waves");
        assert_eq!(stats.spilled_waves, stats.waves, "every wave runs inline");
        assert!(
            stats.resident_batches > 0,
            "multi-thread session runs must fan out through the resident pool"
        );
        assert!(
            stats.solver_l2.inserts + stats.sat_l2.inserts > 0,
            "multi-thread runs must publish decided steps to the shared tier"
        );
        assert!(stats.dedupe_offers > 0);
        // Per-run baselining: a fresh chase over the warm session caches
        // starts from zero, not from the session cumulative.
        let s = schema();
        let q = parse_query(&s, DISJ).unwrap();
        let chase2 = Chase::new_reusing(&q, &cfg, true, &mut caches);
        let st2 = chase2.stats();
        assert_eq!(st2.solver_l1_hits + st2.solver_l1_misses, 0);
        assert_eq!(st2.solver_l2.inserts, 0);
        assert_eq!(st2.sat_l2.inserts, 0);
        assert_eq!(st2.waves, 0);
        // A 1-thread single-root run counts its waves too.
        let (_, st1) = stats_run(DISJ, &ChaseConfig::with_limit(7));
        assert!(st1.waves > 0, "1-thread runs must report waves");
        assert_eq!(st1.spilled_waves, st1.waves);
        assert_eq!(st1.resident_batches, 0);
    }

    #[test]
    fn parallel_root_matches_sequential_accepted_sequence() {
        // The strongest determinism statement: the *ordered* accepted
        // stream of a root-job batch fanned out over 4 threads is
        // identical, instance by instance, rendered bytes and all, to the
        // 1-thread run.
        let queries = [
            DISJ,
            FORALL_DISJ,
            "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) \
             and forall p2, x2 (not Serves(x2, b1, p2) or p2 <= p1) }",
        ];
        for src in queries {
            let (seq, ..) = roots_run(src, &ChaseConfig::with_limit(6));
            let (par, ..) = roots_run(src, &ChaseConfig::with_limit(6).threads(4));
            assert!(!seq.is_empty(), "{src}");
            assert_eq!(seq.len(), par.len(), "{src}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(format!("{a}"), format!("{b}"), "{src}");
            }
        }
    }

    /// The ∀-heavy disjunctive workload of the `chase_subsume` bench: heavy
    /// superset redundancy in the raw accepted stream.
    const FORALL_DISJ: &str = "{ (d1) | forall b1 (exists x1, p1 . Serves(x1, b1, p1)) \
                               and (Likes(d1, 'A') or Likes(d1, 'B')) }";

    fn stats_run(src: &str, cfg: &ChaseConfig) -> (Vec<CInstance>, ChaseStats) {
        let s = schema();
        let q = parse_query(&s, src).unwrap();
        let mut chase = Chase::new(&q, cfg, true);
        chase.run_root(
            &q.formula.clone(),
            CInstance::new(Arc::clone(&s)),
            vec![None; q.vars.len()],
        );
        let stats = chase.stats();
        (chase.accepted.into_iter().map(|(i, ..)| i).collect(), stats)
    }

    #[test]
    fn subsume_prune_drops_only_covered_redundancy() {
        // The prune contract at the engine level: the raw accepted stream
        // shrinks, every dropped accept embeds a survivor with the same
        // leaf coverage — so the set of coverage classes and each class's
        // minimum size are unchanged.
        let s = schema();
        let q = parse_query(&s, FORALL_DISJ).unwrap();
        let classes = |insts: &[CInstance]| {
            let mut m: std::collections::HashMap<Vec<u32>, usize> = HashMap::new();
            for i in insts {
                let mut cov: Vec<u32> = coverage_of_cinstance_keys(&q, i, false)
                    .iter()
                    .map(|l| l.0)
                    .collect();
                cov.sort_unstable();
                let e = m.entry(cov).or_insert(usize::MAX);
                *e = (*e).min(i.size());
            }
            m
        };
        let (off, soff) = stats_run(FORALL_DISJ, &ChaseConfig::with_limit(10));
        let (on, son) = stats_run(FORALL_DISJ, &ChaseConfig::with_limit(10).subsume_prune(true));
        assert_eq!(soff.subsumed_subtrees, 0);
        assert!(son.subsumed_subtrees > 0, "the filter must fire");
        assert!(on.len() < off.len(), "pruning must shrink the raw stream");
        assert_eq!(classes(&off), classes(&on));
    }

    #[test]
    fn subsume_prune_keeps_parallel_stream_byte_identical() {
        // Determinism under pruning: prune state is per root, so fanning
        // the roots out over 4 threads leaves the accepted stream (and the
        // prune count) exactly as in the sequential run.
        let cfg1 = ChaseConfig::with_limit(10).subsume_prune(true);
        let cfg4 = ChaseConfig::with_limit(10).subsume_prune(true).threads(4);
        let (seq, s1, _) = roots_run(FORALL_DISJ, &cfg1);
        let (par, s4, _) = roots_run(FORALL_DISJ, &cfg4);
        assert!(s1.subsumed_subtrees > 0);
        assert_eq!(s1.subsumed_subtrees, s4.subsumed_subtrees);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(format!("{a}"), format!("{b}"));
        }
    }
}
