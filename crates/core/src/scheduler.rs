//! Scheduling contracts of the top-level searches.
//!
//! A root search runs Algorithm 1's FIFO loop (`Engine::root_bfs` in
//! [`crate::chase`]) and flushes every accept to its sink as it is found;
//! a batch of root jobs fans out over the resident pool
//! ([`Chase::run_roots`](crate::chase::Chase::run_roots)) and is merged in
//! job order. The tests below pin what callers rely on: a sink that says
//! stop cuts the log at the FIFO prefix, accepts arrive before the search
//! ends, and fan-out returns what one-by-one runs return.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cqi_drc::{parse_query, Formula, Query};
    use cqi_instance::CInstance;
    use cqi_schema::{DomainType, Schema};

    use crate::chase::{Chase, ChaseCaches, RootJob};
    use crate::config::ChaseConfig;
    use crate::stats::ChaseStats;
    use crate::treesat::Hom;

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

    /// A ∀-heavy disjunctive query: many accepts spread over several BFS
    /// generations of one root, and three conjunctive trees as root jobs.
    const FORALL_DISJ: &str = "{ (d1) | forall b1 (exists x1, p1 . Serves(x1, b1, p1)) \
                               and (Likes(d1, 'A') or Likes(d1, 'B')) }";

    fn query() -> Query {
        parse_query(&schema(), FORALL_DISJ).unwrap()
    }

    fn seed(q: &Query) -> (CInstance, Hom) {
        (CInstance::new(schema()), vec![None; q.vars.len()])
    }

    fn render(chase: &Chase<'_>) -> Vec<String> {
        chase.accepted.iter().map(|(i, ..)| format!("{i}")).collect()
    }

    /// One root search of the whole query whose sink stops after `stop_at`
    /// accepts (never, for `None`): the rendered log, the run's stats, and
    /// whether the chase reports the halt.
    fn root_run(cfg: &ChaseConfig, stop_at: Option<usize>) -> (Vec<String>, ChaseStats, bool) {
        let q = query();
        let mut chase = Chase::new(&q, cfg, true);
        let (i0, h0) = seed(&q);
        let mut seen = 0;
        chase.run_root_observed(&q.formula.clone(), i0, h0, &mut |_, _, _| {
            seen += 1;
            stop_at.is_none_or(|k| seen < k)
        });
        (render(&chase), chase.stats(), chase.halted)
    }

    /// The query's conjunctive trees as one batch of root jobs over a
    /// resident pool sized for `cfg`, with a sink that stops after
    /// `stop_at` accepts.
    fn batch_run(cfg: &ChaseConfig, stop_at: Option<usize>) -> (Vec<String>, ChaseStats) {
        let q = query();
        let trees = crate::conjtree::conjunctive_trees(&q.formula);
        assert!(trees.len() > 1, "want several root jobs");
        let mut caches = ChaseCaches::new();
        caches.ensure_pool(cfg.resolved_threads());
        let mut chase = Chase::new_reusing(&q, cfg, true, &mut caches);
        let mut seen = 0;
        chase.run_roots_observed(jobs(&q, &trees), &mut |_, _, _| {
            seen += 1;
            stop_at.is_none_or(|k| seen < k)
        });
        (render(&chase), chase.stats())
    }

    fn jobs<'f>(q: &Query, trees: &'f [Formula]) -> Vec<RootJob<'f>> {
        trees
            .iter()
            .map(|formula| {
                let (seed, h) = seed(q);
                RootJob { formula, seed, h }
            })
            .collect()
    }

    #[test]
    fn sink_false_truncates_identically() {
        // A consumer that walks away cuts the log exactly where it said
        // stop: the kept log is the FIFO prefix of the uncapped one, for a
        // single root and for the job-order merge of a fanned-out batch.
        let cfg = ChaseConfig::with_limit(8);
        let (full, _, halted) = root_run(&cfg, None);
        assert!(!halted);
        assert!(full.len() > 7, "want a log longer than the cut");
        let (cut, _, halted) = root_run(&cfg, Some(7));
        assert!(halted, "a sink saying stop halts the chase");
        assert_eq!(cut, full[..7], "the stop must keep the FIFO prefix");

        let (full, _) = batch_run(&cfg.clone().threads(3), None);
        assert!(full.len() > 7, "want a batch log longer than the cut");
        let (cut, _) = batch_run(&cfg.threads(3), Some(7));
        assert_eq!(cut, full[..7], "the stop must keep the job-order prefix");
    }

    #[test]
    fn resident_exec_matches_sequential() {
        // Root-job fan-out: the batch spread over a resident pool logs, in
        // job order, exactly what running each job alone on a fresh chase
        // logs, and it goes through the pool as one batch.
        let cfg = ChaseConfig::with_limit(7);
        let q = query();
        let trees = crate::conjtree::conjunctive_trees(&q.formula);
        let mut one_by_one = Vec::new();
        for job in jobs(&q, &trees) {
            let mut chase = Chase::new(&q, &cfg, true);
            chase.run_root(job.formula, job.seed, job.h);
            let log = render(&chase);
            assert!(!log.is_empty(), "every job accepts something");
            one_by_one.extend(log);
        }
        let (par, stats) = batch_run(&cfg.threads(3), None);
        assert_eq!(par, one_by_one, "fan-out must match one-by-one runs");
        assert_eq!(stats.resident_batches, 1);
    }

    /// The streaming contract: accepts reach the sink as the loop finds
    /// them, not in one batch when the search ends. A sink that stops at
    /// the first accept must therefore leave the rest of the search
    /// unwalked: fewer candidates are offered to `visited` than in the
    /// unstopped search, which a flush at drive end could never show.
    #[test]
    fn sink_flushes_per_wave_not_at_drive_end() {
        let cfg = ChaseConfig::with_limit(8);
        let (full, full_stats, _) = root_run(&cfg, None);
        assert!(full.len() > 1);
        assert!(full_stats.waves > 1, "a multi-generation search walks several waves");
        let (first, stats, halted) = root_run(&cfg, Some(1));
        assert!(halted);
        assert_eq!(first, full[..1]);
        assert!(stats.waves <= full_stats.waves);
        assert!(
            stats.dedupe_offers < full_stats.dedupe_offers,
            "the first accept must arrive before the search ends ({} vs {} offers)",
            stats.dedupe_offers,
            full_stats.dedupe_offers
        );
    }
}
