//! Chase configuration and the six algorithm variants of §5.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shareable cooperative-cancellation flag for one explain/chase run.
///
/// Clone it, hand one copy to [`ChaseConfig::cancel`] (or
/// `ExplainRequest::cancel`), keep the other, and call [`cancel`] from any
/// thread: the chase polls the flag on the same per-step loop that checks
/// the wall-clock deadline, stops, and returns the instances accepted so
/// far flagged [`crate::Interrupted::Cancelled`]. When no token is
/// installed the hot path only pays an `Option` check.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The algorithm variants compared throughout the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Exhaustive chase (§4.2) expanding each `∨` node in place.
    DisjNaive,
    /// Whole-tree conversion to `∨`-free trees first (§4.3).
    ConjNaive,
    /// `Disj-Naive` but fresh labeled nulls are only introduced at `∃`
    /// nodes ("EO" = existential-only).
    DisjEO,
    /// `Conj-Naive` with the EO restriction.
    ConjEO,
    /// `Disj-EO`, then re-seeded runs targeting still-uncovered leaf atoms.
    DisjAdd,
    /// `Conj-EO`, then re-seeded runs targeting still-uncovered leaf atoms.
    ConjAdd,
}

impl Variant {
    pub const ALL: [Variant; 6] = [
        Variant::DisjEO,
        Variant::DisjAdd,
        Variant::DisjNaive,
        Variant::ConjEO,
        Variant::ConjAdd,
        Variant::ConjNaive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Variant::DisjNaive => "Disj-Naive",
            Variant::ConjNaive => "Conj-Naive",
            Variant::DisjEO => "Disj-EO",
            Variant::ConjEO => "Conj-EO",
            Variant::DisjAdd => "Disj-Add",
            Variant::ConjAdd => "Conj-Add",
        }
    }

    /// Does this variant pre-convert the tree to `∨`-free trees?
    pub fn is_conjunctive(self) -> bool {
        matches!(
            self,
            Variant::ConjNaive | Variant::ConjEO | Variant::ConjAdd
        )
    }

    /// Does this variant allow `∀` nodes to mint fresh labeled nulls?
    pub fn universal_fresh_nulls(self) -> bool {
        matches!(self, Variant::DisjNaive | Variant::ConjNaive)
    }

    /// Does this variant run the coverage-seeded second phase?
    pub fn is_add(self) -> bool {
        matches!(self, Variant::DisjAdd | Variant::ConjAdd)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one chase run.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Maximum c-instance size (tuples + atomic conditions) — the `limit`
    /// of Algorithm 1, ensuring termination.
    pub limit: usize,
    /// Wall-clock budget; on expiry the run returns the instances found so
    /// far and flags `timed_out`.
    pub timeout: Option<Duration>,
    /// Overrides the variant's default for fresh nulls at `∀` nodes
    /// (`None` = variant default).
    pub universal_fresh_nulls: Option<bool>,
    /// Feed key-constraint EGD clauses to the consistency check.
    pub enforce_keys: bool,
    /// Optional cap on accepted satisfying instances (before minimization).
    pub max_results: Option<usize>,
    /// Memoize solver outcomes on canonicalized problems
    /// ([`cqi_solver::SolverCache`]), so structurally isomorphic
    /// `IsConsistent` subproblems are decided once per chase run. Each
    /// worker's memo holds `cqi_solver::cache::DEFAULT_CACHE_CAPACITY`
    /// entries, LRU-evicted.
    pub solver_cache: bool,
    /// Reuse the parent instance's saturated theory state
    /// ([`cqi_solver::SaturatedState`]) when a chase step adds one tuple or
    /// condition to a pure-conjunctive instance, instead of re-running the
    /// full check from scratch. Falls back to the full check whenever the
    /// step touches keys or negative conditions.
    pub incremental: bool,
    /// Minimum parent global-condition size before the incremental path
    /// engages: extending a saturated state beats a fresh solve once the
    /// parent conjunction is sizable, while tiny problems solve faster
    /// than the state bookkeeping costs.
    pub incremental_min_lits: usize,
    /// Thread budget for root-job fan-out (`cqi-runtime`): `1` (the
    /// default) runs every root search in turn on the calling thread, `0`
    /// uses all available parallelism, `n > 1` runs the independent root
    /// searches of one variant (its conjunctive trees, then its `*-Add`
    /// re-seeds) on up to `n` workers of a resident pool. Each root is
    /// still driven sequentially, and results merge in job order, so
    /// parallel runs accept the same instances in the same order as
    /// sequential ones — this is purely a wall-clock knob.
    pub threads: usize,
    /// Cooperative cancellation: when the token fires, the run stops at the
    /// next per-step poll (the same loop that checks `timeout`) and returns
    /// the instances accepted so far. `None` (the default) costs nothing on
    /// the hot path.
    pub cancel: Option<CancelToken>,
    /// Homomorphic subsumption pruning: skip a frontier branch's entire
    /// subtree when a previously **accepted** instance of the same job
    /// embeds into it (null-renaming homomorphism respecting domains,
    /// conditions, and the shared seed-null prefix —
    /// [`cqi_instance::subsumes`]). Chase steps only grow instances, so an
    /// embedded accept persists down the subtree and the branch can only
    /// rediscover solutions already covered by the embedded one. Prune
    /// decisions consult only accepts published at wave boundaries
    /// (strictly earlier BFS generations), keeping sequential and parallel
    /// accepted streams byte-identical. Off by default: with
    /// `max_results`-style early exits the accepted stream itself can
    /// differ from an unpruned run on adversarial non-monotone formulas,
    /// so the fuzz oracle cross-checks this flag rather than assuming it.
    pub subsume_prune: bool,
    /// Capture a span trace of the run (`cqi-obs`): request → root job →
    /// wave → solver-call spans recorded into per-thread ring buffers and
    /// returned as Chrome trace-event JSON on `CSolution::trace`, plus the
    /// `ChaseStats` wall-time phase breakdown. Off (the default), the
    /// instrumentation costs one relaxed atomic load per span site; the
    /// accepted stream is byte-identical either way.
    pub trace: bool,
}

impl ChaseConfig {
    pub fn with_limit(limit: usize) -> ChaseConfig {
        ChaseConfig {
            limit,
            timeout: None,
            universal_fresh_nulls: None,
            enforce_keys: false,
            max_results: None,
            solver_cache: true,
            incremental: true,
            incremental_min_lits: 6,
            threads: 1,
            cancel: None,
            subsume_prune: false,
            trace: false,
        }
    }

    pub fn timeout(mut self, d: Duration) -> ChaseConfig {
        self.timeout = Some(d);
        self
    }

    pub fn enforce_keys(mut self, on: bool) -> ChaseConfig {
        self.enforce_keys = on;
        self
    }

    pub fn max_results(mut self, n: usize) -> ChaseConfig {
        self.max_results = Some(n);
        self
    }

    pub fn solver_cache(mut self, on: bool) -> ChaseConfig {
        self.solver_cache = on;
        self
    }

    pub fn incremental(mut self, on: bool) -> ChaseConfig {
        self.incremental = on;
        self
    }

    pub fn incremental_min_lits(mut self, n: usize) -> ChaseConfig {
        self.incremental_min_lits = n;
        self
    }

    pub fn threads(mut self, n: usize) -> ChaseConfig {
        self.threads = n;
        self
    }

    pub fn cancel(mut self, token: CancelToken) -> ChaseConfig {
        self.cancel = Some(token);
        self
    }

    pub fn subsume_prune(mut self, on: bool) -> ChaseConfig {
        self.subsume_prune = on;
        self
    }

    pub fn trace(mut self, on: bool) -> ChaseConfig {
        self.trace = on;
        self
    }

    /// The effective worker count: `0` resolves to the machine's available
    /// parallelism.
    pub fn resolved_threads(&self) -> usize {
        cqi_runtime::resolve_threads(self.threads)
    }
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig::with_limit(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_properties() {
        assert!(Variant::DisjNaive.universal_fresh_nulls());
        assert!(!Variant::DisjEO.universal_fresh_nulls());
        assert!(Variant::ConjAdd.is_conjunctive());
        assert!(Variant::ConjAdd.is_add());
        assert!(!Variant::DisjNaive.is_add());
        assert_eq!(Variant::DisjAdd.name(), "Disj-Add");
    }

    #[test]
    fn config_builders() {
        let c = ChaseConfig::with_limit(15)
            .timeout(Duration::from_secs(5))
            .enforce_keys(true)
            .max_results(3);
        assert_eq!(c.limit, 15);
        assert_eq!(c.timeout, Some(Duration::from_secs(5)));
        assert!(c.enforce_keys);
        assert_eq!(c.max_results, Some(3));
        // Cache and incrementality default on.
        assert!(c.solver_cache && c.incremental);
        let cold = c.solver_cache(false).incremental(false);
        assert!(!cold.solver_cache && !cold.incremental);
    }

    #[test]
    fn cancel_token_is_shared_through_the_config() {
        let tok = CancelToken::new();
        assert!(!tok.is_cancelled());
        let cfg = ChaseConfig::with_limit(3).cancel(tok.clone());
        assert!(!cfg.cancel.as_ref().unwrap().is_cancelled());
        tok.cancel();
        // Clones share one flag — firing the caller's copy is visible
        // through the config's.
        assert!(cfg.cancel.unwrap().is_cancelled());
        assert!(ChaseConfig::with_limit(3).cancel.is_none(), "off by default");
    }

    #[test]
    fn thread_knobs() {
        let c = ChaseConfig::with_limit(6);
        assert_eq!(c.threads, 1, "sequential by default");
        assert_eq!(c.resolved_threads(), 1);
        assert_eq!(c.threads(3).resolved_threads(), 3);
        // 0 = all available parallelism (at least one worker anywhere).
        assert!(ChaseConfig::with_limit(6).threads(0).resolved_threads() >= 1);
    }

    #[test]
    fn algorithmic_cut_knobs() {
        let c = ChaseConfig::with_limit(6);
        assert!(!c.subsume_prune, "pruning is opt-in");
        assert!(c.subsume_prune(true).subsume_prune);
    }
}
