//! Property tests for the solver's memoized and incremental paths: both
//! must agree with the from-scratch decision procedure on random problems,
//! and satisfiable answers must come with verifying models.

use cqi_schema::{DomainType, Value};
use cqi_solver::state::SaturatedState;
use cqi_solver::theory::check_conj;
use cqi_solver::{canon, Ent, Lit, NullId, Problem, SolverCache, SolverOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [SolverOp; 6] = [
    SolverOp::Lt,
    SolverOp::Le,
    SolverOp::Gt,
    SolverOp::Ge,
    SolverOp::Eq,
    SolverOp::Ne,
];

const PATTERNS: [&str; 4] = ["Eve%", "Eve %", "%er", "a_c%"];

fn random_types(rng: &mut StdRng) -> Vec<DomainType> {
    let n = rng.gen_range(2..7usize);
    (0..n)
        .map(|_| match rng.gen_range(0..3u8) {
            0 => DomainType::Int,
            1 => DomainType::Real,
            _ => DomainType::Text,
        })
        .collect()
}

fn random_ent(rng: &mut StdRng, types: &[DomainType], want: DomainType) -> Ent {
    // Prefer a null of the wanted type; fall back to a constant.
    let candidates: Vec<u32> = (0..types.len())
        .filter(|&i| types[i] == want)
        .map(|i| i as u32)
        .collect();
    if !candidates.is_empty() && rng.gen_bool(0.7) {
        return Ent::Null(NullId(candidates[rng.gen_range(0..candidates.len())]));
    }
    Ent::Const(match want {
        DomainType::Int => Value::Int(rng.gen_range(-3..6)),
        DomainType::Real => Value::real(rng.gen_range(-3..6) as f64 / 2.0),
        DomainType::Text => Value::str(["a", "b", "Eve E", "Eve Edwards", "beer"][rng.gen_range(0..5)]),
    })
}

fn random_lit(rng: &mut StdRng, types: &[DomainType]) -> Lit {
    let want = match rng.gen_range(0..3u8) {
        0 => DomainType::Int,
        1 => DomainType::Real,
        _ => DomainType::Text,
    };
    if want == DomainType::Text && rng.gen_bool(0.3) {
        let ent = random_ent(rng, types, DomainType::Text);
        let pattern = PATTERNS[rng.gen_range(0..PATTERNS.len())];
        return if rng.gen() {
            Lit::like(ent, pattern)
        } else {
            Lit::not_like(ent, pattern)
        };
    }
    // Numeric comparisons may freely mix Int and Real.
    let other = if want == DomainType::Text {
        DomainType::Text
    } else if rng.gen() {
        DomainType::Int
    } else {
        DomainType::Real
    };
    Lit::Cmp {
        lhs: random_ent(rng, types, want),
        op: OPS[rng.gen_range(0..OPS.len())],
        rhs: random_ent(rng, types, other),
    }
}

fn random_conj(seed: u64) -> (Vec<DomainType>, Vec<Lit>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let types = random_types(&mut rng);
    let n_lits = rng.gen_range(1..10usize);
    let lits = (0..n_lits).map(|_| random_lit(&mut rng, &types)).collect();
    (types, lits)
}

fn random_problem(seed: u64) -> Problem {
    let (types, lits) = random_conj(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5e5);
    let mut p = Problem::new(types);
    for l in lits {
        p.assert(l);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let clause: Vec<Lit> = (0..rng.gen_range(1..3usize))
            .map(|_| random_lit(&mut rng, &p.null_types))
            .collect();
        p.assert_clause(clause);
    }
    p
}

/// Renames nulls by a rotation, producing an isomorphic problem.
fn rotate_problem(p: &Problem, shift: usize) -> Problem {
    let n = p.null_types.len();
    let map = |e: &Ent| match e {
        Ent::Null(m) => Ent::Null(NullId(((m.index() + shift) % n) as u32)),
        c => c.clone(),
    };
    let map_lit = |l: &Lit| match l {
        Lit::Cmp { lhs, op, rhs } => Lit::Cmp {
            lhs: map(lhs),
            op: *op,
            rhs: map(rhs),
        },
        Lit::Like { negated, ent, pattern } => Lit::Like {
            negated: *negated,
            ent: map(ent),
            pattern: pattern.clone(),
        },
    };
    let mut types = vec![DomainType::Int; n];
    for (i, t) in p.null_types.iter().enumerate() {
        types[(i + shift) % n] = *t;
    }
    Problem {
        null_types: types,
        conj: p.conj.iter().map(map_lit).collect(),
        clauses: p
            .clauses
            .iter()
            .map(|c| c.iter().map(map_lit).collect())
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The memo cache agrees with the from-scratch solver, on both the miss
    /// and the hit path, and Sat answers verify.
    #[test]
    fn memoized_agrees_with_scratch(seed in any::<u64>()) {
        let p = random_problem(seed);
        let scratch = cqi_solver::solve(&p);
        let mut cache = SolverCache::default();
        let miss = cache.solve(&p);
        let hit = cache.solve(&p);
        prop_assert_eq!(scratch.is_sat(), miss.is_sat(), "miss path");
        prop_assert_eq!(scratch.is_sat(), hit.is_sat(), "hit path");
        prop_assert!(cache.stats.hits >= 1);
        if let cqi_solver::Outcome::Sat(m) = hit {
            prop_assert!(m.verify(&p.conj, &p.clauses), "cached model must verify");
        }
    }

    /// Renamed (rotated) problems agree through a shared cache, and their
    /// remapped models verify against the renamed problem.
    #[test]
    fn renamed_problems_agree_through_cache(seed in any::<u64>(), shift in any::<u64>()) {
        let p = random_problem(seed);
        let shift = (shift as usize) % p.null_types.len().max(1);
        let q = rotate_problem(&p, shift);
        let mut cache = SolverCache::default();
        let a = cache.solve(&p);
        let b = cache.solve(&q);
        prop_assert_eq!(a.is_sat(), cqi_solver::solve(&p).is_sat());
        prop_assert_eq!(b.is_sat(), cqi_solver::solve(&q).is_sat());
        prop_assert_eq!(a.is_sat(), b.is_sat(), "isomorphic problems must agree");
        if let cqi_solver::Outcome::Sat(m) = b {
            prop_assert!(m.verify(&q.conj, &q.clauses), "remapped model must verify");
        }
    }

    /// Canonicalization maps renamings to one key (the memo-hit invariant).
    #[test]
    fn canonical_key_is_renaming_invariant(seed in any::<u64>(), shift in any::<u64>()) {
        let p = random_problem(seed);
        let shift = (shift as usize) % p.null_types.len().max(1);
        let q = rotate_problem(&p, shift);
        prop_assert_eq!(canon::canonicalize(&p).key, canon::canonicalize(&q).key);
    }

    /// Saturate-then-extend at a random split agrees with the from-scratch
    /// conjunction decision, and extended models verify every literal.
    #[test]
    fn incremental_agrees_with_scratch(seed in any::<u64>(), split in any::<u64>()) {
        let (types, lits) = random_conj(seed);
        let split = (split as usize) % (lits.len() + 1);
        let (prefix, suffix) = lits.split_at(split);
        let full_sat = check_conj(&types, &lits).is_some();
        match SaturatedState::saturate(&types, prefix) {
            None => {
                // An unsatisfiable prefix makes the whole conjunction
                // unsatisfiable.
                prop_assert!(!full_sat, "prefix unsat but full sat");
            }
            Some(state) => {
                let extended = state.extend(&types, suffix);
                prop_assert_eq!(extended.is_some(), full_sat, "split {}", split);
                if let Some(child) = extended {
                    for l in &lits {
                        prop_assert_eq!(child.model().eval_lit(l), Some(true), "{:?}", l);
                    }
                    // Rollback: the parent is still usable after the
                    // extension (and after a refuted one).
                    let _ = state.extend(&types, &[Lit::cmp(
                        Value::Int(1), SolverOp::Eq, Value::Int(2))]);
                    prop_assert_eq!(
                        state.extend(&types, suffix).is_some(), full_sat,
                        "parent state must survive extensions"
                    );
                }
            }
        }
    }

    /// A chain of saturated-state extensions (the chase's step pattern,
    /// which re-solves warm after the first solve) agrees with from-scratch
    /// at every step.
    #[test]
    fn chained_extensions_agree_with_scratch(seed in any::<u64>()) {
        let (types, lits) = random_conj(seed);
        let mut state = match SaturatedState::saturate(&types, &[]) {
            Some(s) => s,
            None => return,
        };
        for k in 0..lits.len() {
            let so_far = &lits[..=k];
            let scratch = check_conj(&types, so_far).is_some();
            match state.extend(&types, std::slice::from_ref(&lits[k])) {
                Some(next) => {
                    prop_assert!(scratch, "extend sat but scratch unsat at step {}", k);
                    for l in so_far {
                        prop_assert_eq!(next.model().eval_lit(l), Some(true), "{:?}", l);
                    }
                    state = next;
                }
                None => {
                    prop_assert!(!scratch, "extend unsat but scratch sat at step {}", k);
                    return;
                }
            }
        }
    }

    /// Growing the null set mid-extension behaves like declaring the nulls
    /// up front.
    #[test]
    fn extend_with_fresh_nulls_agrees(seed in any::<u64>()) {
        let (types, lits) = random_conj(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        // Restrict the prefix to literals over the first `k` nulls.
        let k = rng.gen_range(1..=types.len());
        let prefix: Vec<Lit> = lits
            .iter()
            .filter(|l| l.nulls().all(|n| n.index() < k))
            .cloned()
            .collect();
        let suffix: Vec<Lit> = lits
            .iter()
            .filter(|l| !l.nulls().all(|n| n.index() < k))
            .cloned()
            .collect();
        let full_sat = check_conj(&types, &lits).is_some();
        match SaturatedState::saturate(&types[..k], &prefix) {
            None => prop_assert!(!full_sat),
            Some(state) => {
                prop_assert_eq!(state.extend(&types, &suffix).is_some(), full_sat);
            }
        }
    }
}
