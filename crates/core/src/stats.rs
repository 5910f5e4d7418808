//! [`ChaseStats`], the execution counters of one chase run, declared as a
//! single table: each row names a counter once, and the struct field,
//! [`ChaseStats::merge`], the per-run delta, the [`ChaseStats::to_json`]
//! entry and the `cqi-obs` registry series are all generated from it.

use std::sync::{Arc, OnceLock};

use cqi_obs::trace::Phase;
use cqi_runtime::MemoCounts;

/// Declares [`ChaseStats`] from one row per counter:
///
/// `field: Type = delta [, json "key"] [, series(name, help, [label = "value", ..]) [.part]]*;`
///
/// * `delta` is how [`Chase::stats`](crate::chase::Chase::stats) turns the
///   cumulative value into a per-run one: `run` subtracts the value seen
///   at chase construction exactly; `global` saturates, for process-wide
///   counters that another run in the process may bump concurrently.
/// * `json` is the key in [`ChaseStats::to_json`]; `group.key` nests the
///   entry under `"group"` (a group's rows are adjacent).
/// * each `series` is a registry counter fed by the field, or by its
///   `.part` for a [`MemoCounts`] field.
macro_rules! chase_stats {
    (@delta run, $cur:expr, $base:expr) => {
        $cur - $base
    };
    (@delta global, $cur:expr, $base:expr) => {
        $cur.saturating_sub($base)
    };
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty = $delta:ident
        $(, json $key:literal)?
        $(, series($name:literal, $help:expr, [$($lk:ident = $lv:expr),*]) $(.$part:ident)?)*;
    )*) => {
        /// Execution counters of one chase run: frontier waves,
        /// work-stealing traffic, the hit/miss split of each memo tier, and
        /// dedupe volume. Attached to every [`crate::CSolution`]; all
        /// counters are deltas over the run (session-persistent caches are
        /// baselined at construction).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct ChaseStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl ChaseStats {
            /// Accumulates another run's counters (workload-level
            /// aggregation in the bench harness).
            pub fn merge(&mut self, other: &ChaseStats) {
                $(self.$field += other.$field;)*
            }

            /// The counters accrued since `base`, a snapshot of the same
            /// cumulative counters taken earlier.
            pub(crate) fn since(&self, base: &ChaseStats) -> ChaseStats {
                ChaseStats {
                    $($field: chase_stats!(@delta $delta, self.$field, base.$field),)*
                }
            }

            /// The table's `json` entries, in row order.
            fn counter_json(&self) -> Vec<(&'static str, String)> {
                vec![$($(($key, self.$field.to_string()),)?)*]
            }

            /// Adds this run's counters to the process-wide `cqi-obs`
            /// registry (the future `cqi-serve /metrics` payload). Deltas
            /// over monotone counters keep the registry monotone; call once
            /// per completed run.
            pub fn publish_metrics(&self) {
                type Series = (Arc<cqi_obs::Counter>, fn(&ChaseStats) -> u64);
                static SERIES: OnceLock<Vec<Series>> = OnceLock::new();
                let series = SERIES.get_or_init(|| {
                    let r = cqi_obs::global();
                    vec![$($((
                        r.counter($name, $help, &[$((stringify!($lk), $lv)),*]),
                        |s: &ChaseStats| s.$field $(.$part)?,
                    ),)*)*]
                });
                for (counter, value) in series {
                    counter.add(value(self));
                }
            }
        }
    };
}

const MEMO_LOOKUPS: &str = "canonical-problem memo lookups by tier and outcome";
const DIGESTS: &str = "exact-digest requests by outcome";
const PHASE_NS: &str = "traced time per phase (ns)";

chase_stats! {
    /// Top-level BFS generations driven, summed over root searches, at
    /// every thread count.
    waves: u64 = run, json "waves",
        series("cqi_chase_waves_total", "frontier waves driven", []);
    /// Waves processed inline on one worker context — every wave, since
    /// parallelism fans out whole root searches, never a single wave; kept
    /// equal to `waves` so `spilled_waves / waves` still reads as the
    /// inline share.
    spilled_waves: u64 = run, json "spilled_waves";
    /// Work-stealing queue steals across all fan-outs.
    steals: u64 = run, json "steals",
        series("cqi_chase_steals_total", "work-stealing queue steals", []);
    /// Root-job fan-out batches dispatched to the resident pool.
    resident_batches: u64 = run, json "resident_batches";
    /// `visited` offers of the root searches (nested searches are not
    /// counted).
    dedupe_offers: u64 = run, json "dedupe_offers",
        series("cqi_dedupe_offers_total", "iso-dedupe offers", []);
    /// Offers rejected as duplicates.
    dedupe_duplicates: u64 = run, json "dedupe_duplicates",
        series("cqi_dedupe_duplicates_total", "offers rejected as duplicates", []);
    /// Signature collisions needing a full isomorphism check.
    dedupe_iso_checks: u64 = run, json "dedupe_iso_checks";
    /// Per-worker (L1) canonical-problem memo hits/misses, summed.
    solver_l1_hits: u64 = run,
        series("cqi_solver_memo_lookups_total", MEMO_LOOKUPS, [tier = "l1", outcome = "hit"]);
    solver_l1_misses: u64 = run,
        series("cqi_solver_memo_lookups_total", MEMO_LOOKUPS, [tier = "l1", outcome = "miss"]);
    /// Shared (L2) canonical-problem memo counters.
    solver_l2: MemoCounts = run,
        series("cqi_solver_memo_lookups_total", MEMO_LOOKUPS, [tier = "l2", outcome = "hit"]).hits,
        series("cqi_solver_memo_lookups_total", MEMO_LOOKUPS, [tier = "l2", outcome = "miss"]).misses;
    /// Per-worker (L1) saturated-state lookups, summed.
    sat_l1_hits: u64 = run;
    sat_l1_misses: u64 = run;
    /// Shared (L2) saturated-state memo counters.
    sat_l2: MemoCounts = run;
    /// Chase steps decided by extending the parent's saturated state.
    incr_extends: u64 = run, json "incr_extends",
        series(
            "cqi_incremental_extends_total",
            "chase steps decided by saturated-state extension",
            []
        );
    /// Chase steps that fell back to a full consistency check.
    incr_fallbacks: u64 = run, json "incr_fallbacks",
        series("cqi_incremental_fallbacks_total", "chase steps that fell back to a full solve", []);
    /// Frontier subtrees skipped by homomorphic subsumption pruning
    /// (`ChaseConfig::subsume_prune`).
    subsumed_subtrees: u64 = run, json "subsumed_subtrees",
        series(
            "cqi_chase_subsumed_total",
            "frontier subtrees skipped by subsumption pruning",
            []
        );
    /// Exact-digest requests answered from the per-instance cache vs
    /// recomputed ([`cqi_instance::digest_stats`]).
    digest_hits: u64 = global, json "digest_cache.hits",
        series("cqi_digest_cache_total", DIGESTS, [outcome = "hit"]);
    digest_recomputes: u64 = global, json "digest_cache.recomputes",
        series("cqi_digest_cache_total", DIGESTS, [outcome = "recompute"]);
    /// Wall-time phase breakdown (ns), populated only on traced runs
    /// (`ChaseConfig::trace`) — derived from the same `cqi-obs` span
    /// instrumentation as the Perfetto trace. Only *leaf* spans are
    /// phase-attributed, so the components never double-count and, on a
    /// single-threaded run, sum to ≤ total wall time (multi-thread runs
    /// sum per-thread time, which may exceed wall clock).
    phase_solver_ns: u64 = global, json "phases.solver_ns",
        series("cqi_phase_ns_total", PHASE_NS, [phase = Phase::Solver.name()]);
    /// Time canonicalizing solver problems (color refinement + keys).
    phase_canon_ns: u64 = global, json "phases.canonicalization_ns",
        series("cqi_phase_ns_total", PHASE_NS, [phase = Phase::Canon.name()]);
    /// Time in isomorphism dedupe (offers/confirms + nested admission).
    phase_dedupe_ns: u64 = global, json "phases.dedupe_ns",
        series("cqi_phase_ns_total", PHASE_NS, [phase = Phase::Dedupe.name()]);
    /// Time in scheduling (root-job batch collection).
    phase_sched_ns: u64 = global, json "phases.scheduling_ns",
        series("cqi_phase_ns_total", PHASE_NS, [phase = Phase::Sched.name()]);
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Renders `(key, value)` entries as a JSON object; a `group.key` entry
/// nests under `"group"`, together with its adjacent group-mates.
fn json_object(entries: &[(&str, String)]) -> String {
    fn group(key: &str) -> Option<&str> {
        key.split_once('.').map(|(g, _)| g)
    }
    let mut fields: Vec<String> = Vec::new();
    for chunk in entries.chunk_by(|a, b| group(a.0) == group(b.0)) {
        match group(chunk[0].0) {
            None => fields.extend(chunk.iter().map(|(k, v)| format!("\"{k}\": {v}"))),
            Some(g) => {
                let inner: Vec<(&str, String)> = chunk
                    .iter()
                    .map(|(k, v)| (&k[g.len() + 1..], v.clone()))
                    .collect();
                fields.push(format!("\"{g}\": {}", json_object(&inner)));
            }
        }
    }
    format!("{{{}}}", fields.join(", "))
}

impl ChaseStats {
    pub fn solver_l1_hit_rate(&self) -> f64 {
        rate(self.solver_l1_hits, self.solver_l1_misses)
    }

    pub fn solver_l2_hit_rate(&self) -> f64 {
        rate(self.solver_l2.hits, self.solver_l2.misses)
    }

    pub fn sat_l1_hit_rate(&self) -> f64 {
        rate(self.sat_l1_hits, self.sat_l1_misses)
    }

    pub fn sat_l2_hit_rate(&self) -> f64 {
        rate(self.sat_l2.hits, self.sat_l2.misses)
    }

    /// Fraction of exact-digest requests served from the incremental cache.
    pub fn digest_hit_rate(&self) -> f64 {
        rate(self.digest_hits, self.digest_recomputes)
    }

    /// Sum of the phase-breakdown components (ns); `0` on untraced runs.
    pub fn phase_total_ns(&self) -> u64 {
        self.phase_solver_ns + self.phase_canon_ns + self.phase_dedupe_ns + self.phase_sched_ns
    }

    /// `(phase name, accumulated ns)` pairs, ordered like
    /// [`cqi_obs::trace::Phase::ALL`].
    pub fn phases(&self) -> [(&'static str, u64); 4] {
        [
            (Phase::Solver.name(), self.phase_solver_ns),
            (Phase::Canon.name(), self.phase_canon_ns),
            (Phase::Dedupe.name(), self.phase_dedupe_ns),
            (Phase::Sched.name(), self.phase_sched_ns),
        ]
    }

    /// Serde-free JSON rendering for benchmark/reproduce reports: the
    /// table's counters, then the derived memo hit rates and L2 contention.
    pub fn to_json(&self) -> String {
        let mut entries = self.counter_json();
        entries.extend([
            (
                "solver_l1_hit_rate",
                format!("{:.4}", self.solver_l1_hit_rate()),
            ),
            (
                "solver_l2_hit_rate",
                format!("{:.4}", self.solver_l2_hit_rate()),
            ),
            ("sat_l1_hit_rate", format!("{:.4}", self.sat_l1_hit_rate())),
            ("sat_l2_hit_rate", format!("{:.4}", self.sat_l2_hit_rate())),
            (
                "l2_contended",
                (self.solver_l2.contended + self.sat_l2.contended).to_string(),
            ),
        ]);
        json_object(&entries)
    }
}

/// One-line human-readable summary — printed by `examples/streaming.rs`
/// and handy in logs: counters first, hit rates in parentheses, and the
/// traced phase breakdown (ms) when present.
impl std::fmt::Display for ChaseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "waves={}({} spilled) steals={} batches={} \
             dedupe={}/{}dup/{}iso solverL1={:.0}%({}) L2={:.0}%({}) \
             satL1={:.0}%({}) incr={}+{}fb subsumed={} digest={:.0}%({})",
            self.waves,
            self.spilled_waves,
            self.steals,
            self.resident_batches,
            self.dedupe_offers,
            self.dedupe_duplicates,
            self.dedupe_iso_checks,
            self.solver_l1_hit_rate() * 100.0,
            self.solver_l1_hits + self.solver_l1_misses,
            self.solver_l2_hit_rate() * 100.0,
            self.solver_l2.hits + self.solver_l2.misses,
            self.sat_l1_hit_rate() * 100.0,
            self.sat_l1_hits + self.sat_l1_misses,
            self.incr_extends,
            self.incr_fallbacks,
            self.subsumed_subtrees,
            self.digest_hit_rate() * 100.0,
            self.digest_hits + self.digest_recomputes,
        )?;
        if self.phase_total_ns() > 0 {
            let ms = |ns: u64| ns as f64 / 1e6;
            write!(
                f,
                " phases[solver={:.2}ms canon={:.2}ms dedupe={:.2}ms sched={:.2}ms]",
                ms(self.phase_solver_ns),
                ms(self.phase_canon_ns),
                ms(self.phase_dedupe_ns),
                ms(self.phase_sched_ns),
            )?;
        }
        Ok(())
    }
}
