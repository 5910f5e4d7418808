//! Thread-scaling sweep for the parallel chase (`cqi-runtime`):
//! representative `fig8` (Beers) and `fig11` (TPC-H) workloads at 1, 2,
//! and 4 threads, plus the subsumption-prune A/B pair.
//!
//! Each thread budget runs through a persistent [`Session`], so the
//! resident worker pool is spawned once per configuration and every
//! iteration measures steady-state hand-off (not thread spawn/join) —
//! the deployment profile of a long-lived explain service.
//!
//! CI runs this with `BENCH_JSON=BENCH_chase.json`, so the 1/2/4-thread
//! series is tracked as a perf-trajectory artifact. Threads fan out the
//! independent root searches of a `Conj-Add` run (its conjunctive trees,
//! then its `*-Add` re-seeds); the determinism guarantee makes the budget
//! a pure wall-clock knob, so the rows differ only in time.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_queries, tpch_queries};
use cqi_drc::SyntaxTree;
use cqi_schema::{DomainType, Schema};

/// A ∀-heavy two-disjunct query over a keyless Serves/Likes schema — the
/// dedupe-dominated workload of the subsumption A/B group below. The
/// universal re-expansions generate thousands of digest probes and a raw
/// accepted stream with heavy superset redundancy (87 raw accepts, 3
/// minimized solutions at `limit = 12`), which is exactly where the
/// subsumption filter acts.
const FORALL_DISJ: &str = "{ (d1) | forall b1 (exists x1, p1 . Serves(x1, b1, p1)) \
                           and (Likes(d1, 'A') or Likes(d1, 'B')) }";

fn forall_disj_schema() -> Arc<Schema> {
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

/// The scaling series: 1 thread (sequential baseline), then 2 and 4.
const THREAD_SERIES: [usize; 3] = [1, 2, 4];

fn bench_fig8_thread_scaling(c: &mut Criterion) {
    let queries = beers_queries();
    let mut g = c.benchmark_group("chase_threads_fig8");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    // Conj-Add over ∀/∨-heavy queries: many conjunctive trees plus *-Add
    // re-seeds = a wide root-job batch, the chase's outer parallel axis.
    for name in ["Q2B", "Q3B", "Q4B"] {
        let dq = queries.iter().find(|q| q.name == name).unwrap();
        let tree = SyntaxTree::new(dq.query.clone());
        for threads in THREAD_SERIES {
            let cfg = ChaseConfig::with_limit(8)
                .enforce_keys(true)
                .timeout(Duration::from_secs(10))
                .threads(threads);
            let session = Session::new(dq.query.schema.clone()).config(cfg);
            g.bench_with_input(
                BenchmarkId::new(format!("threads={threads}"), name),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        black_box(
                            session
                                .explain_collect(
                                    ExplainRequest::tree(black_box(tree)).variant(Variant::ConjAdd),
                                )
                                .unwrap(),
                        )
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_fig11_thread_scaling(c: &mut Criterion) {
    let queries = tpch_queries();
    let mut g = c.benchmark_group("chase_threads_fig11");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    let subset: Vec<_> = queries.into_iter().take(3).collect();
    for dq in &subset {
        let tree = SyntaxTree::new(dq.query.clone());
        for threads in THREAD_SERIES {
            let cfg = ChaseConfig::with_limit(10)
                .timeout(Duration::from_secs(10))
                .threads(threads);
            let session = Session::new(dq.query.schema.clone()).config(cfg);
            g.bench_with_input(
                BenchmarkId::new(format!("threads={threads}"), &dq.name),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        black_box(
                            session
                                .explain_collect(
                                    ExplainRequest::tree(black_box(tree)).variant(Variant::ConjAdd),
                                )
                                .unwrap(),
                        )
                    });
                },
            );
        }
    }
    g.finish();
}

/// The subsumption-prune cut, A/B on its raw-stream contract: `prune=on`
/// drops accepts that embed an earlier equal-coverage accept (87 → 12 raw
/// on this workload, minimized solutions identical). The wall-clock delta
/// is the filter's net cost at near-parity accept-side load — the win is
/// the 7x smaller accepted stream every downstream consumer walks.
fn bench_subsume_prune(c: &mut Criterion) {
    let schema = forall_disj_schema();
    let mut g = c.benchmark_group("chase_subsume");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(8));
    for (label, prune) in [("prune=off", false), ("prune=on", true)] {
        let cfg = ChaseConfig::with_limit(12)
            .timeout(Duration::from_secs(30))
            .subsume_prune(prune);
        let session = Session::new(schema.clone()).config(cfg);
        g.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| {
                black_box(
                    session
                        .explain_collect(
                            ExplainRequest::drc(black_box(FORALL_DISJ)).variant(Variant::ConjNaive),
                        )
                        .unwrap(),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fig8_thread_scaling,
    bench_fig11_thread_scaling,
    bench_subsume_prune
);
criterion_main!(benches);
