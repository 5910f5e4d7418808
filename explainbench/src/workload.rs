//! The four workloads: their request catalogues, the seeded request order,
//! and the engine configuration each one runs under.

use std::sync::Arc;
use std::time::Duration;

use cqi_core::{ChaseConfig, Variant};
use cqi_drc::{pretty, Query, SyntaxTree};
use cqi_fuzz::{gen_case, GenKnobs};
use cqi_schema::Schema;

/// Per-explain deadline. Far above the slowest explain of every workload
/// (≈13 s), so an interrupted explain is a failure, not a budget cut.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// The generated cases of `gen-small`. The population is fixed (the run
/// seed sets only its order): the cost of generated cases is heavy-tailed,
/// and seed-drawn populations differ in total cost by more than 2x.
const GEN_POPULATION_SEED: u64 = 1;
const GEN_CASES: usize = 2400;

/// splitmix64: the benchmark's own seeded generator, so request order and
/// draws depend on `--seed` only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fc0_de5e_ed00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig8Cold,
    Fig11EoCold,
    ServeWarmT2,
    GenSmall,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig8Cold,
        Kind::Fig11EoCold,
        Kind::ServeWarmT2,
        Kind::GenSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Cold => "fig8-cold",
            Kind::Fig11EoCold => "fig11-eo-cold",
            Kind::ServeWarmT2 => "serve-warm-t2",
            Kind::GenSmall => "gen-small",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One query of a catalogue: its schema, the query the oracle checks
/// against, and the form it is sent in.
pub struct Item {
    pub name: String,
    pub schema: Arc<Schema>,
    /// For a text item, the parse of `text` (the oracle checks a text
    /// request against what that text means, not against its source).
    pub query: Query,
    pub tree: Option<SyntaxTree>,
    pub text: Option<String>,
}

/// One explain of a pass: which item, under which variant.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub item: usize,
    pub variant: Variant,
}

/// How explains reach the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionMode {
    /// A fresh `Session` per explain (cold caches, Fig. 8/11 setup); its
    /// construction is part of the explain's latency.
    Fresh,
    /// One long-lived `Session` shared by every explain of the run.
    Shared,
}

pub struct Workload {
    pub kind: Kind,
    pub items: Vec<Item>,
    pub mode: SessionMode,
    pub cfg: ChaseConfig,
    /// Explains per pass. A run makes whole passes only.
    pub pass_len: usize,
    /// Items given an untimed warm-up explain during set-up.
    pub warmup: Vec<usize>,
    rng: Rng,
    variants: &'static [Variant],
}

impl Workload {
    /// Builds the catalogue. `scale` is the fraction of the full pass a
    /// run sends (1 in measured runs; the self-test runs short passes).
    pub fn new(kind: Kind, seed: u64, scale: f64) -> Workload {
        let sized = |n: usize| ((n as f64 * scale).ceil() as usize).max(1);
        let rng = Rng::new(seed);
        let (items, mode, cfg, pass_len, variants): (_, _, _, _, &'static [Variant]) = match kind {
            Kind::Fig8Cold => (
                dataset_items(cqi_datasets::beers_queries(), false),
                SessionMode::Fresh,
                ChaseConfig::with_limit(10).enforce_keys(true).threads(1),
                sized(35 * 6),
                &Variant::ALL,
            ),
            Kind::Fig11EoCold => (
                dataset_items(cqi_datasets::tpch_queries(), false),
                SessionMode::Fresh,
                ChaseConfig::with_limit(15).enforce_keys(false).threads(1),
                sized(28 * 2),
                &[Variant::DisjEO, Variant::ConjEO],
            ),
            Kind::ServeWarmT2 => (
                dataset_items(cqi_datasets::beers_queries(), true),
                SessionMode::Shared,
                ChaseConfig::with_limit(8).enforce_keys(true).threads(2),
                sized(140),
                &[
                    Variant::DisjEO,
                    Variant::DisjAdd,
                    Variant::ConjEO,
                    Variant::ConjAdd,
                ],
            ),
            Kind::GenSmall => {
                let n = sized(GEN_CASES);
                let knobs = GenKnobs::default();
                let mut population = Rng::new(GEN_POPULATION_SEED);
                let items = (0..n)
                    .map(|i| {
                        let case = gen_case(population.next_u64(), &knobs);
                        let (schema, q) = case.build(None).expect("generated cases build");
                        text_item(format!("gen#{i}"), schema, &q)
                    })
                    .collect();
                (
                    items,
                    SessionMode::Fresh,
                    ChaseConfig::with_limit(6).enforce_keys(true).threads(1),
                    n,
                    &Variant::ALL,
                )
            }
        };
        // The first explain of a process that meets a LIKE pattern set
        // builds its automata (a process-global cache): warm every
        // LIKE-bearing item, plus the first item, so set-up pays for that.
        let warmup = (0..items.len())
            .filter(|&i| i == 0 || pretty::query_to_string(&items[i].query).contains(" like "))
            .collect();
        Workload {
            kind,
            items,
            mode,
            cfg: cfg.timeout(DEADLINE),
            pass_len,
            warmup,
            rng,
            variants,
        }
    }

    /// Overrides the chase thread budget (the self-test compares 1 and 2).
    pub fn with_threads(mut self, n: usize) -> Workload {
        self.cfg = self.cfg.threads(n);
        self
    }

    /// The next pass, in seeded order. Dataset workloads send every
    /// (query, variant) pair once per pass; `gen-small` sends every case
    /// once, under variants rotating with the case index.
    pub fn next_pass(&mut self) -> Vec<Request> {
        let nv = self.variants.len();
        let mut pass: Vec<Request> = match self.kind {
            Kind::Fig8Cold | Kind::Fig11EoCold | Kind::ServeWarmT2 => (0..self.items.len() * nv)
                .map(|i| Request {
                    item: i / nv,
                    variant: self.variants[i % nv],
                })
                .collect(),
            Kind::GenSmall => (0..self.items.len())
                .map(|i| Request {
                    item: i,
                    variant: self.variants[i % nv],
                })
                .collect(),
        };
        self.rng.shuffle(&mut pass);
        pass.truncate(self.pass_len);
        pass
    }
}

fn dataset_items(queries: Vec<cqi_datasets::DatasetQuery>, as_text: bool) -> Vec<Item> {
    queries
        .into_iter()
        .map(|dq| {
            let schema = dq.query.schema.clone();
            if as_text {
                text_item(dq.name, schema, &dq.query)
            } else {
                Item {
                    name: dq.name,
                    schema,
                    tree: Some(SyntaxTree::new(dq.query.clone())),
                    query: dq.query,
                    text: None,
                }
            }
        })
        .collect()
}

/// A request sent as DRC text: the oracle query is the parse of the text
/// sent.
fn text_item(name: String, schema: Arc<Schema>, q: &Query) -> Item {
    let text = pretty::query_to_string(q);
    let query = cqi_drc::parse_query(&schema, &text).expect("printed queries parse");
    Item {
        name,
        schema,
        query,
        tree: None,
        text: Some(text),
    }
}
