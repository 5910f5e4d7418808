//! `*-Add` renders do not depend on the thread count. On the Beers
//! catalogue at limit 7, the coverage-keyed render of a run — each minimal
//! instance as text, keyed by its coverage — is identical at 1, 2 and 4
//! threads. These two runs are the ones whose renders used to change with
//! the thread count: a sub-BFS memo hit returned results whose nulls kept
//! the names of another seed, and which worker context held the entry
//! depended on where the root jobs ran.

use std::collections::BTreeMap;

use cqi_core::{run_variant, ChaseConfig, Variant};
use cqi_datasets::beers_queries;
use cqi_drc::SyntaxTree;

fn render(name: &str, variant: Variant, threads: usize) -> BTreeMap<String, String> {
    let dq = beers_queries()
        .into_iter()
        .find(|q| q.name == name)
        .unwrap_or_else(|| panic!("no Beers query {name}"));
    let cfg = ChaseConfig::with_limit(7).threads(threads);
    let sol = run_variant(&SyntaxTree::new(dq.query), variant, &cfg);
    sol.instances
        .iter()
        .map(|si| (format!("{:?}", si.coverage), format!("{}", si.inst)))
        .collect()
}

/// Which worker runs which root job varies from run to run, so each
/// multi-thread budget is rendered several times.
fn assert_renders_alike(name: &str, variant: Variant) {
    let one = render(name, variant, 1);
    assert!(!one.is_empty(), "{name} {variant}: empty solution");
    for threads in [2, 4] {
        for _ in 0..4 {
            assert_eq!(
                render(name, variant, threads),
                one,
                "{name} {variant}: the {threads}-thread render differs from the 1-thread one"
            );
        }
    }
}

#[test]
fn q5a_q5b_disj_add_renders_alike_at_1_2_4_threads() {
    assert_renders_alike("Q5A-Q5B", Variant::DisjAdd);
}

#[test]
fn q5a_q5d_conj_add_renders_alike_at_1_2_4_threads() {
    assert_renders_alike("Q5A-Q5D", Variant::ConjAdd);
}
