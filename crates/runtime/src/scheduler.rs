//! The frontier driver: Algorithm 1's breadth-first expansion loop
//! ([`drive`]).
//!
//! A [`FrontierTask`] describes one BFS: how to admit an item (size
//! limit), how to key it for duplicate detection, how to confirm an exact
//! duplicate, and how to *expand* it into either an accepted result or a
//! list of children. Expansion must be a pure function of the item — the
//! per-worker context only carries memo/cache state that changes speed,
//! never answers. Under that contract a drive's accepted-result sequence
//! does not depend on which worker context runs it (see the module docs of
//! [`crate`] for the argument, and the property tests for the evidence).

use std::sync::Arc;

use cqi_obs::trace;

use crate::dedupe::{DedupeStats, Offer, SetKey, ShardedDedupe};
use crate::sync::Mutex;

/// Wave-boundary publication of accepted results: the state behind
/// acceptance-order-safe subsumption pruning.
///
/// The driving thread stages results with [`note`](WaveVisible::note) (in
/// sink order) and makes the accumulated set visible with
/// [`publish`](WaveVisible::publish) — which the driver calls only at
/// generation boundaries ([`FrontierTask::wave_boundary`]). Concurrent
/// expansions read an immutable [`snapshot`](WaveVisible::snapshot), so
/// every expansion of a wave observes the identical set regardless of
/// worker interleaving: publication is pinned to the barrier, never
/// mid-wave. `cqi-analysis` model-checks exactly this property (and its
/// seeded-fault twin publishes mid-wave to prove the checker would catch a
/// violation).
///
/// Synchronization goes through [`crate::sync`], so under
/// `--features model-check` the protocol runs on the instrumented
/// primitives.
pub struct WaveVisible<T> {
    pending: Mutex<Vec<T>>,
    published: Mutex<Arc<Vec<T>>>,
}

impl<T: Clone> WaveVisible<T> {
    pub fn new() -> WaveVisible<T> {
        WaveVisible {
            pending: Mutex::new(Vec::new()),
            published: Mutex::new(Arc::new(Vec::new())),
        }
    }

    /// Stages a result (driving thread, sink order). Not visible to
    /// [`snapshot`](Self::snapshot) until the next publish.
    pub fn note(&self, value: T) {
        self.pending.lock().unwrap().push(value);
    }

    /// Publishes everything staged so far, capping the visible set at
    /// `cap` entries (earliest-noted survive — a deterministic prefix of
    /// the sink order). Call only at a wave boundary.
    pub fn publish(&self, cap: usize) {
        let mut pending = self.pending.lock().unwrap();
        if pending.is_empty() {
            return;
        }
        let mut published = self.published.lock().unwrap();
        let mut next: Vec<T> = published.as_ref().clone();
        for v in pending.drain(..) {
            if next.len() >= cap {
                break;
            }
            next.push(v);
        }
        *published = Arc::new(next);
    }

    /// The currently published set (any thread; cheap Arc clone).
    pub fn snapshot(&self) -> Arc<Vec<T>> {
        Arc::clone(&self.published.lock().unwrap())
    }

    /// Scans published entries, then pending ones, in note order, until `f`
    /// returns `true`. Driving-thread only (it sees staged results that
    /// [`snapshot`](Self::snapshot) deliberately hides), for filters that
    /// must compare a candidate against *every* earlier-kept result — e.g.
    /// the chase's [`FrontierTask::note_accept`] subsumption filter, which
    /// runs at the sink where same-wave siblings are still unpublished. The
    /// two locks are taken one at a time, never nested.
    pub fn any_all(&self, mut f: impl FnMut(&T) -> bool) -> bool {
        let published = self.snapshot();
        if published.iter().any(&mut f) {
            return true;
        }
        self.pending.lock().unwrap().iter().any(&mut f)
    }
}

impl<T: Clone> Default for WaveVisible<T> {
    fn default() -> Self {
        WaveVisible::new()
    }
}

/// What expanding one frontier item produced: either an accepted result
/// (satisfying, consistent — not expanded further) or children to enqueue.
pub struct Expansion<T, A> {
    pub accepted: Option<A>,
    pub children: Vec<T>,
}

/// One breadth-first frontier exploration, as seen by [`drive`].
pub trait FrontierTask {
    /// Frontier item (a c-instance branch candidate, for the chase).
    type Item: Clone;
    /// Per-worker mutable context (solver caches, saturated-state memos).
    type Ctx;
    /// Accepted result type.
    type Accept;

    /// Pre-dedupe admission (the chase's `|I| ≤ limit` bound).
    fn admit(&self, item: &Self::Item) -> bool;

    /// Duplicate-detection keys: renaming-invariant signature + exact
    /// digest.
    fn keys(&self, item: &Self::Item) -> SetKey;

    /// Exact duplicate confirmation (isomorphism), run on signature
    /// collisions.
    fn is_duplicate(&self, a: &Self::Item, b: &Self::Item) -> bool;

    /// Expands one admitted, deduplicated item. Must be deterministic in
    /// `item` *and the wave-boundary state published through
    /// [`wave_boundary`](Self::wave_boundary)* — every expansion of a
    /// wave sees the identical boundary-published state; `ctx` is memo
    /// state only.
    fn expand(&self, ctx: &mut Self::Ctx, item: &Self::Item) -> Expansion<Self::Item, Self::Accept>;

    /// Polled between items/waves; return `true` to abort the drive (the
    /// chase's wall-clock deadline). May record the abort in `ctx`.
    fn stopped(&self, ctx: &mut Self::Ctx) -> bool;

    /// Filters every accepted result in sink order, on the driving thread,
    /// just before it is flushed to the sink: returning `false` drops the
    /// accept (it never reaches the sink). The driver calls this in FIFO
    /// order, so the kept/dropped decision sees exactly the prefix of
    /// earlier accepts — which is what makes the chase's subsumption
    /// pruning acceptance-order-safe. The accept is mutable so the filter can
    /// annotate it with derived data (the chase attaches the coverage it
    /// had to compute anyway, sparing the sink a recompute). Tasks that let
    /// accepted results influence later *expansions* stage them here and
    /// publish only at the next [`wave_boundary`](Self::wave_boundary), so
    /// every expansion of wave `k` sees the same accepted set whatever its
    /// position in the wave.
    fn note_accept(&self, _accepted: &mut Self::Accept) -> bool {
        true
    }

    /// Called on the driving thread at every BFS generation boundary —
    /// after all of generation `k`'s accepts were
    /// [`note_accept`](Self::note_accept)ed and before any generation-`k+1`
    /// item expands (seeds are generation 0; children of generation `k`
    /// form generation `k+1`).
    fn wave_boundary(&self) {}
}

/// What one drive did, for the engine-stats surface.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveStats {
    /// BFS generations processed (seeds are generation 0).
    pub waves: u64,
    /// Duplicate-detection traffic of this drive.
    pub dedupe: DedupeStats,
}

/// Drives a [`FrontierTask`] to exhaustion: FIFO on one context, no
/// threads. `sink` receives accepted results in FIFO order; returning
/// `false` halts the drive (the chase's `max_results`, or a streaming
/// consumer that walked away). Parallelism lives one level up, in whole
/// independent drives fanned out over a resident pool.
///
/// The frontier is walked generation by generation — identical order to a
/// plain FIFO queue (children enqueue behind the current generation's
/// remaining items either way), with [`FrontierTask::wave_boundary`]
/// called between generations. Offers arrive in FIFO order, so a
/// `Tentative` dedupe verdict is definitive — no confirm pass is needed.
///
/// **Streaming contract:** accepted results are flushed to `sink` per item
/// *during* the drive, never batched to the end. The streaming explanation
/// API (`cqi::Session`) relies on this for its time-to-first-instance
/// guarantee; the `sink_flushes_per_wave_not_at_drive_end` test pins it
/// down.
pub fn drive<T: FrontierTask>(
    task: &T,
    ctx: &mut T::Ctx,
    seeds: Vec<T::Item>,
    sink: &mut dyn FnMut(T::Accept) -> bool,
) -> DriveStats {
    let dedupe: ShardedDedupe<T::Item> = ShardedDedupe::new(1);
    let iso = |a: &T::Item, b: &T::Item| task.is_duplicate(a, b);
    let mut stats = DriveStats::default();
    let mut wave: Vec<T::Item> = seeds;
    let mut seq: u64 = 0;
    'drive: while !wave.is_empty() {
        task.wave_boundary();
        stats.waves += 1;
        let _wave_span = trace::span("wave", "sched");
        let mut next: Vec<T::Item> = Vec::new();
        for item in wave {
            if task.stopped(ctx) {
                break 'drive;
            }
            seq += 1;
            if !task.admit(&item)
                || dedupe.offer(task.keys(&item), seq, &item, &iso) == Offer::Duplicate
            {
                continue;
            }
            let exp = task.expand(ctx, &item);
            match exp.accepted {
                Some(mut a) => {
                    if task.note_accept(&mut a) && !sink(a) {
                        break 'drive;
                    }
                }
                None => next.extend(exp.children),
            }
        }
        wave = next;
    }
    stats.dedupe = dedupe.stats();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic frontier: items are `(value, generation)`; expansion
    /// accepts odd values and spawns `fanout` children for even ones, up
    /// to a depth bound. Duplicate classes are `value % modulus`.
    struct TreeTask {
        fanout: u64,
        depth: u64,
        modulus: u64,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Node {
        value: u64,
        gen: u64,
    }

    impl FrontierTask for TreeTask {
        type Item = Node;
        type Ctx = ();
        type Accept = u64;

        fn admit(&self, item: &Node) -> bool {
            item.gen <= self.depth
        }

        fn keys(&self, item: &Node) -> SetKey {
            let class = item.value % self.modulus;
            SetKey {
                signature: class ^ 0xabcd,
                // Exact digest distinguishes members of one class.
                digest: item.value.wrapping_mul(0x9e3779b97f4a7c15) ^ item.gen,
            }
        }

        fn is_duplicate(&self, a: &Node, b: &Node) -> bool {
            a.value % self.modulus == b.value % self.modulus
        }

        fn expand(&self, _: &mut (), item: &Node) -> Expansion<Node, u64> {
            if item.value % 2 == 1 {
                return Expansion {
                    accepted: Some(item.value),
                    children: Vec::new(),
                };
            }
            let children = (1..=self.fanout)
                .map(|k| Node {
                    value: item.value * self.fanout + k,
                    gen: item.gen + 1,
                })
                .collect();
            Expansion {
                accepted: None,
                children,
            }
        }

        fn stopped(&self, _: &mut ()) -> bool {
            false
        }
    }

    fn run(task: &TreeTask, cap: Option<usize>) -> Vec<u64> {
        let mut got = Vec::new();
        let seeds = vec![Node { value: 2, gen: 0 }, Node { value: 4, gen: 0 }];
        drive(task, &mut (), seeds, &mut |a| {
            got.push(a);
            cap.is_none_or(|c| got.len() < c)
        });
        got
    }

    fn task() -> TreeTask {
        TreeTask {
            fanout: 3,
            depth: 6,
            modulus: 1 << 40, // effectively no cross-value duplicates
        }
    }

    #[test]
    fn sink_false_truncates_identically() {
        let t = task();
        let full = run(&t, None);
        let capped = run(&t, Some(7));
        assert_eq!(capped.len(), 7);
        assert_eq!(capped, full[..7], "max-results cut must keep the FIFO prefix");
    }

    #[test]
    fn resident_exec_matches_sequential() {
        // Root-job fan-out: independent drives spread over a resident pool
        // return, in job order, exactly what driving them one by one does
        // (a small modulus makes every drive dedupe heavily).
        let t = TreeTask {
            fanout: 4,
            depth: 5,
            modulus: 13,
        };
        let one = |ctx: &mut (), &value: &u64| {
            let mut got = Vec::new();
            drive(&t, ctx, vec![Node { value, gen: 0 }], &mut |a| {
                got.push(a);
                true
            });
            got
        };
        let roots: Vec<u64> = (1..=8).map(|v| 2 * v).collect();
        let seq: Vec<Vec<u64>> = roots.iter().map(|v| one(&mut (), v)).collect();
        let pool = crate::pool::ResidentPool::new(3);
        let counters = crate::pool::RunCounters::default();
        let exec = crate::pool::Exec::resident(&pool).with_counters(&counters);
        let par = exec.run(&mut [(); 4], &roots, |ctx, _, v| one(ctx, v));
        assert!(seq.iter().all(|r| !r.is_empty()));
        assert_eq!(par, seq, "fan-out must match one-by-one drives");
        assert_eq!(counters.resident_batches.get(), 1);
    }

    /// [`TreeTask`] with an event log shared between expansion and the
    /// sink, to observe their interleaving.
    struct LoggingTask {
        inner: TreeTask,
        log: std::sync::Mutex<Vec<(&'static str, u64)>>,
    }

    impl FrontierTask for LoggingTask {
        type Item = Node;
        type Ctx = ();
        type Accept = u64;

        fn admit(&self, item: &Node) -> bool {
            self.inner.admit(item)
        }

        fn keys(&self, item: &Node) -> SetKey {
            self.inner.keys(item)
        }

        fn is_duplicate(&self, a: &Node, b: &Node) -> bool {
            self.inner.is_duplicate(a, b)
        }

        fn expand(&self, ctx: &mut (), item: &Node) -> Expansion<Node, u64> {
            self.log.lock().unwrap().push(("expand", item.value));
            self.inner.expand(ctx, item)
        }

        fn stopped(&self, _: &mut ()) -> bool {
            false
        }
    }

    /// The streaming contract: accepted results reach the sink between
    /// waves, not in one batch at drive end. With a multi-wave tree, some
    /// accept event must precede the last expansion event.
    #[test]
    fn sink_flushes_per_wave_not_at_drive_end() {
        let task = LoggingTask {
            inner: task(),
            log: std::sync::Mutex::new(Vec::new()),
        };
        let seeds = vec![Node { value: 2, gen: 0 }, Node { value: 4, gen: 0 }];
        let stats = drive(&task, &mut (), seeds, &mut |a| {
            task.log.lock().unwrap().push(("accept", a));
            true
        });
        assert!(stats.waves > 1, "a multi-generation tree drives several waves");
        let log = task.log.into_inner().unwrap();
        let first_accept = log.iter().position(|(k, _)| *k == "accept");
        let last_expand = log.iter().rposition(|(k, _)| *k == "expand");
        assert!(
            first_accept.unwrap() < last_expand.unwrap(),
            "accepts must interleave with later expansions: {log:?}"
        );
    }
}
