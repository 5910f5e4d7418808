//! Robustness of the two query front-ends: on any input, `parse_query`
//! (DRC) and `sql_to_drc` (SQL) return `Ok` or `Err` and never panic.
//!
//! Inputs are seed-pinned (the vendored proptest derives every case from
//! the test name, the case index and `PROPTEST_SEED`, default 0), in three
//! families over the Beers schema: raw bytes, byte-level edits of valid
//! DRC and SQL queries, and soups of the tokens both grammars know.
//! Inputs that once panicked are kept as fixtures at the bottom.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cqi::datasets::{beers_queries, beers_schema};
use cqi::drc::{parse_query, pretty};
use cqi::schema::Schema;
use cqi::sql::sql_to_drc;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SQL: [&str; 3] = [
    "SELECT s.bar, s.beer FROM Likes l, Serves s \
     WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
     AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
    "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
     WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
     AND S1.price > S2.price",
    "SELECT bar FROM Serves WHERE price >= 2.5 EXCEPT SELECT bar FROM Frequents",
];

/// Tokens of both grammars, plus the literal shapes a lexer gets wrong:
/// unterminated strings, out-of-range numbers, stray punctuation.
const TOKENS: [&str; 48] = [
    "{", "}", "(", ")", "|", ",", ".", "*", "'", "-", "<", "<=", ">", ">=", "=", "!=", "<>",
    "exists", "forall", "and", "or", "not", "like", "SELECT", "FROM", "WHERE", "AND", "OR",
    "NOT", "EXISTS", "EXCEPT", "LIKE", "Likes", "Serves", "Frequents", "drinker", "beer", "x1",
    "s", "s.bar", "'Eve%'", "'open", "0", "-3", "2.25", "99999999999999999999",
    "1e9", "\u{e9}",
];

/// Runs both front-ends on `src`; a panic fails the test naming the input.
fn no_panic(schema: &Arc<Schema>, src: &str) {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse_query(schema, src);
        let _ = sql_to_drc(schema, src);
    }));
    assert!(run.is_ok(), "a query front-end panicked on {src:?}");
}

/// The valid inputs the byte-level edits start from: every Beers query as
/// DRC text, and the SQL queries above.
fn valid_inputs() -> Vec<String> {
    let mut v: Vec<String> =
        beers_queries().iter().map(|q| pretty::query_to_string(&q.query)).collect();
    v.extend(SQL.iter().map(|s| s.to_string()));
    v
}

/// Up to four random byte edits (replace, insert, delete) of `src`, read
/// back as UTF-8 with invalid sequences replaced.
fn mutate(src: &str, rng: &mut StdRng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..3u8) {
            0 if at < bytes.len() => bytes[at] = rng.gen::<u32>() as u8,
            1 => bytes.insert(at, rng.gen::<u32>() as u8),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn raw_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        no_panic(&beers_schema(), &String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn byte_edits_of_valid_queries_never_panic(seed in any::<u64>()) {
        let inputs = valid_inputs();
        let mut rng = StdRng::seed_from_u64(seed);
        let src = &inputs[rng.gen_range(0..inputs.len())];
        no_panic(&beers_schema(), &mutate(src, &mut rng));
    }

    /// Numeric literals of every length, in both grammars: integers past
    /// `i64`, reals past `f64`.
    #[test]
    fn numeric_literals_never_panic(
        len in 1usize..400,
        dot in any::<usize>(),
        real in any::<bool>(),
        neg in any::<bool>()
    ) {
        let mut num = "9".repeat(len);
        if real {
            num.insert(dot % len, '.');
            num.push('5');
        }
        if neg {
            num.insert(0, '-');
        }
        no_panic(&beers_schema(), &format!("{{ (b) | exists x, p (Serves(x, b, p) and p > {num}) }}"));
        no_panic(&beers_schema(), &format!("SELECT beer FROM Serves WHERE price > {num}"));
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(any::<u8>(), 1..40)) {
        let src: Vec<&str> = picks.iter().map(|p| TOKENS[*p as usize % TOKENS.len()]).collect();
        no_panic(&beers_schema(), &src.join(" "));
    }
}

/// A real literal with more digits than `f64` holds used to lex to
/// infinity and panic in `Value::real`; both front-ends now reject it.
#[test]
fn overlong_real_literal_is_an_error() {
    let num = format!("{}.5", "9".repeat(310));
    let s = beers_schema();
    let drc = format!("{{ (b) | exists x, p (Serves(x, b, p) and p > {num}) }}");
    assert!(parse_query(&s, &drc).is_err());
    assert!(sql_to_drc(&s, &format!("SELECT beer FROM Serves WHERE price > {num}")).is_err());
}
