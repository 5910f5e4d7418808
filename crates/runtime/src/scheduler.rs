//! The frontier scheduler: sequential and parallel drivers for Algorithm
//! 1's breadth-first expansion loop, behind one [`FrontierScheduler`]
//! trait.
//!
//! A [`FrontierTask`] describes one BFS: how to admit an item (size
//! limit), how to key it for duplicate detection, how to confirm an exact
//! duplicate, and how to *expand* it into either an accepted result or a
//! list of children. Expansion must be a pure function of the item — the
//! per-worker context only carries memo/cache state that changes speed,
//! never answers. Under that contract both schedulers produce the same
//! accepted-result sequence and visit the same frontier (see the module
//! docs of [`crate`] for the argument, and the property tests for the
//! evidence).

use std::collections::VecDeque;
use std::sync::Arc;

use cqi_obs::trace::{self, Phase};

use crate::dedupe::{DedupeStats, Offer, SetKey, ShardedDedupe};
use crate::pool::Exec;
use crate::sync::Mutex;

/// Wave-boundary publication of accepted results: the state behind
/// acceptance-order-safe subsumption pruning.
///
/// The driving thread stages results with [`note`](WaveVisible::note) (in
/// sink order) and makes the accumulated set visible with
/// [`publish`](WaveVisible::publish) — which both schedulers call only at
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

/// One breadth-first frontier exploration, as seen by the scheduler.
pub trait FrontierTask: Sync {
    /// Frontier item (a c-instance branch candidate, for the chase).
    type Item: Clone + Send + Sync;
    /// Per-worker mutable context (solver caches, saturated-state memos).
    type Ctx: Send;
    /// Accepted result type.
    type Accept: Send;

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
    /// [`wave_boundary`](Self::wave_boundary)* — both schedulers present
    /// the identical boundary-published state to every expansion of a
    /// wave; `ctx` is memo state only.
    fn expand(&self, ctx: &mut Self::Ctx, item: &Self::Item) -> Expansion<Self::Item, Self::Accept>;

    /// Polled between items/waves; return `true` to abort the drive (the
    /// chase's wall-clock deadline). May record the abort in `ctx`.
    fn stopped(&self, ctx: &mut Self::Ctx) -> bool;

    /// Filters every accepted result in sink order, on the driving thread,
    /// just before it is flushed to the sink: returning `false` drops the
    /// accept (it never reaches the sink). Because both drivers call this
    /// at their single FIFO merge point, the kept/dropped decision sees the
    /// identical prefix of earlier accepts regardless of worker
    /// interleaving — which is what makes the chase's subsumption pruning
    /// acceptance-order-safe. The accept is mutable so the filter can
    /// annotate it with derived data (the chase attaches the coverage it
    /// had to compute anyway, sparing the sink a recompute). Tasks that let
    /// accepted results influence later *expansions* stage them here and
    /// publish only at the next [`wave_boundary`](Self::wave_boundary) —
    /// accepts of wave `k` may interleave with wave `k`'s remaining inline
    /// expansions, so acting on them in `expand` immediately would diverge
    /// from the parallel driver.
    fn note_accept(&self, _accepted: &mut Self::Accept) -> bool {
        true
    }

    /// Called on the driving thread at every BFS generation boundary —
    /// after all of generation `k`'s accepts were
    /// [`note_accept`](Self::note_accept)ed and before any generation-`k+1`
    /// item expands. Both schedulers produce the identical generation
    /// structure (seeds are generation 0; children of generation `k` form
    /// generation `k+1`), so state published here is identical across
    /// sequential and parallel drives.
    fn wave_boundary(&self) {}
}

/// Drives a [`FrontierTask`] to exhaustion. `sink` receives accepted
/// results in deterministic FIFO order; returning `false` halts the drive
/// (the chase's `max_results`, or a streaming consumer that walked away).
///
/// **Streaming contract:** accepted results are flushed to `sink` *during*
/// the drive — per item in the sequential driver, per wave in the parallel
/// one (wave `k`'s accepts are sunk before wave `k+1` expands) — never
/// batched to the end. The streaming explanation API (`cqi::Session`)
/// relies on this for its time-to-first-instance guarantee; the
/// `sink_flushes_per_wave_not_at_drive_end` test pins it down.
pub trait FrontierScheduler<T: FrontierTask> {
    /// `exec` is the thread source for wave fan-outs (resident pool or
    /// scoped threads); the sequential driver ignores it.
    fn drive(
        &self,
        exec: Exec<'_>,
        task: &T,
        ctxs: &mut [T::Ctx],
        seeds: Vec<T::Item>,
        sink: &mut dyn FnMut(T::Accept) -> bool,
    ) -> DriveStats;
}

/// What one drive did, for the engine-stats surface.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveStats {
    /// FIFO waves processed (0 under the sequential driver, which has no
    /// wave structure).
    pub waves: u64,
    /// Waves below the spill threshold, processed inline on the main
    /// context.
    pub spilled_waves: u64,
    /// Duplicate-detection traffic of this drive.
    pub dedupe: DedupeStats,
}

/// What happened to one inline-processed item (shared between the
/// sequential driver and the parallel driver's spill path, so the per-item
/// protocol — stopped → admit → offer → expand → sink — lives in exactly
/// one place).
enum InlineStep<T> {
    /// The drive must stop (deadline, or the sink declined).
    Halt,
    /// Item was inadmissible or a duplicate; nothing to enqueue.
    Skip,
    /// Item expanded into children to enqueue.
    Children(Vec<T>),
}

/// Processes one item inline on `ctx`. Offers arrive in FIFO order here, so
/// a `Tentative` verdict is definitive — no confirm pass needed.
fn step_inline<T: FrontierTask>(
    task: &T,
    ctx: &mut T::Ctx,
    dedupe: &ShardedDedupe<T::Item>,
    seq: u64,
    item: &T::Item,
    sink: &mut dyn FnMut(T::Accept) -> bool,
) -> InlineStep<T::Item> {
    if task.stopped(ctx) {
        return InlineStep::Halt;
    }
    if !task.admit(item) {
        return InlineStep::Skip;
    }
    let iso = |a: &T::Item, b: &T::Item| task.is_duplicate(a, b);
    if dedupe.offer(task.keys(item), seq, item, &iso) == Offer::Duplicate {
        return InlineStep::Skip;
    }
    let exp = task.expand(ctx, item);
    if let Some(mut a) = exp.accepted {
        if task.note_accept(&mut a) && !sink(a) {
            return InlineStep::Halt;
        }
        return InlineStep::Skip;
    }
    InlineStep::Children(exp.children)
}

/// The reference implementation: FIFO on one context, no threads. The
/// frontier is walked generation by generation — identical order to a
/// plain FIFO queue (children enqueue behind the current generation's
/// remaining items either way), but with [`FrontierTask::wave_boundary`]
/// called between generations so boundary-published state matches the
/// parallel driver's exactly.
pub struct SequentialScheduler;

impl<T: FrontierTask> FrontierScheduler<T> for SequentialScheduler {
    fn drive(
        &self,
        _exec: Exec<'_>,
        task: &T,
        ctxs: &mut [T::Ctx],
        seeds: Vec<T::Item>,
        sink: &mut dyn FnMut(T::Accept) -> bool,
    ) -> DriveStats {
        let ctx = &mut ctxs[0];
        let dedupe: ShardedDedupe<T::Item> = ShardedDedupe::new(1);
        let mut wave: VecDeque<T::Item> = seeds.into();
        let mut seq: u64 = 0;
        'drive: while !wave.is_empty() {
            task.wave_boundary();
            let mut next: VecDeque<T::Item> = VecDeque::new();
            while let Some(item) = wave.pop_front() {
                let s = seq;
                seq += 1;
                match step_inline(task, ctx, &dedupe, s, &item, sink) {
                    InlineStep::Halt => break 'drive,
                    InlineStep::Skip => {}
                    InlineStep::Children(children) => next.extend(children),
                }
            }
            wave = next;
        }
        DriveStats {
            dedupe: dedupe.stats(),
            ..DriveStats::default()
        }
    }
}

/// Below this wave width the offer/keying phase runs inline: keying is
/// microsecond-scale work and even a resident-pool dispatch costs a lock
/// round-trip per helper, so narrow waves would pay more in dispatch than
/// they save. (Expansion — the expensive phase — still fans out from
/// `min_frontier` up.)
const KEY_FANOUT_MIN: usize = 32;

/// Wave-parallel driver: the frontier is processed in FIFO waves; within a
/// wave, keying/dedupe offers and expansions fan out over the work-stealing
/// pool, then verdicts and results are merged back in FIFO order, so the
/// output is identical to [`SequentialScheduler`]'s.
pub struct ParallelScheduler {
    /// Waves smaller than this spill to inline (single-context) processing
    /// — thread fan-out only pays for itself on wide frontiers.
    pub min_frontier: usize,
    /// Lock stripes of the shared dedupe set.
    pub shards: usize,
}

impl ParallelScheduler {
    pub fn new(min_frontier: usize) -> ParallelScheduler {
        ParallelScheduler {
            min_frontier,
            shards: 64,
        }
    }
}

enum Verdict {
    /// Failed admission (size bound) — dropped before dedupe.
    Skipped,
    /// Final duplicate (an earlier candidate of the class exists).
    Duplicate,
    /// Current class representative; confirmed after the wave barrier.
    Tentative(SetKey),
}

impl<T: FrontierTask> FrontierScheduler<T> for ParallelScheduler {
    fn drive(
        &self,
        exec: Exec<'_>,
        task: &T,
        ctxs: &mut [T::Ctx],
        seeds: Vec<T::Item>,
        sink: &mut dyn FnMut(T::Accept) -> bool,
    ) -> DriveStats {
        let dedupe: ShardedDedupe<T::Item> = ShardedDedupe::new(self.shards);
        let iso = |a: &T::Item, b: &T::Item| task.is_duplicate(a, b);
        let mut frontier: Vec<T::Item> = seeds;
        let mut next_seq: u64 = 0;
        let mut stats = DriveStats::default();
        'drive: while !frontier.is_empty() {
            if task.stopped(&mut ctxs[0]) {
                break;
            }
            task.wave_boundary();
            let _wave_span = trace::span("wave", "sched");
            let wave: Vec<(u64, T::Item)> = {
                let _s = trace::span_phase("wave_assemble", "sched", Phase::Sched);
                frontier
                    .drain(..)
                    .map(|item| {
                        let s = next_seq;
                        next_seq += 1;
                        (s, item)
                    })
                    .collect()
            };
            stats.waves += 1;

            if ctxs.len() <= 1 || wave.len() < self.min_frontier.max(2) {
                stats.spilled_waves += 1;
                // Spill threshold: process the wave inline on the main
                // context, via the same per-item step as the sequential
                // driver (offers arrive in FIFO order, so Tentative is
                // definitive).
                for (seq, item) in wave {
                    match step_inline(task, &mut ctxs[0], &dedupe, seq, &item, sink) {
                        InlineStep::Halt => break 'drive,
                        InlineStep::Skip => {}
                        InlineStep::Children(children) => frontier.extend(children),
                    }
                }
                continue;
            }

            // Phases 1–2: admission, invariant keys, dedupe offers, and the
            // post-barrier confirm. Keying one candidate costs microseconds
            // while a thread spawn costs tens of them, so the offer phase
            // only fans out once the wave is wide enough to amortize the
            // spawns; below that it runs inline in FIFO order (where
            // Tentative is definitive and no confirm pass is needed).
            // Either way the surviving set is the FIFO-first representative
            // of every class.
            let survivors: Vec<usize> = if wave.len() >= KEY_FANOUT_MIN {
                let _offer_span = trace::span("wave_offer_fanout", "sched");
                let verdicts: Vec<Verdict> = exec.run(ctxs, &wave, |_, _, (seq, item)| {
                    if !task.admit(item) {
                        return Verdict::Skipped;
                    }
                    let key = task.keys(item);
                    match dedupe.offer(key, *seq, item, &iso) {
                        Offer::Duplicate => Verdict::Duplicate,
                        Offer::Tentative => Verdict::Tentative(key),
                    }
                });
                wave.iter()
                    .zip(&verdicts)
                    .enumerate()
                    .filter_map(|(i, ((seq, item), v))| match v {
                        Verdict::Tentative(key) if dedupe.confirm(*key, *seq, item, &iso) => {
                            Some(i)
                        }
                        _ => None,
                    })
                    .collect()
            } else {
                wave.iter()
                    .enumerate()
                    .filter_map(|(i, (seq, item))| {
                        (task.admit(item)
                            && dedupe.offer(task.keys(item), *seq, item, &iso)
                                == Offer::Tentative)
                            .then_some(i)
                    })
                    .collect()
            };

            // Phase 3 (parallel): expand survivors on worker-local contexts.
            let expansions: Vec<Expansion<T::Item, T::Accept>> = {
                let _s = trace::span("wave_expand", "sched");
                exec.run(ctxs, &survivors, |ctx, _, &widx| task.expand(ctx, &wave[widx].1))
            };

            // Phase 4: merge accepted results and children in FIFO order.
            let _merge_span = trace::span("wave_merge", "sched");
            for exp in expansions {
                if let Some(mut a) = exp.accepted {
                    if task.note_accept(&mut a) && !sink(a) {
                        break 'drive;
                    }
                    continue;
                }
                frontier.extend(exp.children);
            }
        }
        stats.dedupe = dedupe.stats();
        stats
    }
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

    /// Worker context counts expansions (memo-state stand-in).
    #[derive(Default)]
    struct Ctx {
        expansions: usize,
    }

    impl FrontierTask for TreeTask {
        type Item = Node;
        type Ctx = Ctx;
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

        fn expand(&self, ctx: &mut Ctx, item: &Node) -> Expansion<Node, u64> {
            ctx.expansions += 1;
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

        fn stopped(&self, _: &mut Ctx) -> bool {
            false
        }
    }

    fn run<S: FrontierScheduler<TreeTask>>(
        s: &S,
        task: &TreeTask,
        workers: usize,
        cap: Option<usize>,
    ) -> (Vec<u64>, Vec<Ctx>) {
        let mut ctxs: Vec<Ctx> = (0..workers).map(|_| Ctx::default()).collect();
        let mut got = Vec::new();
        let seeds = vec![Node { value: 2, gen: 0 }, Node { value: 4, gen: 0 }];
        s.drive(Exec::scoped(), task, &mut ctxs, seeds, &mut |a| {
            got.push(a);
            cap.is_none_or(|c| got.len() < c)
        });
        (got, ctxs)
    }

    fn task() -> TreeTask {
        TreeTask {
            fanout: 3,
            depth: 6,
            modulus: 1 << 40, // effectively no cross-value duplicates
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = task();
        let (seq_out, _) = run(&SequentialScheduler, &t, 1, None);
        let (par_out, _) = run(&ParallelScheduler::new(2), &t, 4, None);
        assert!(!seq_out.is_empty());
        assert_eq!(seq_out, par_out, "accepted sequence must be identical");
    }

    #[test]
    fn parallel_matches_sequential_with_heavy_dedupe() {
        // Small modulus → many cross-candidate duplicates; the
        // sequence-priority protocol must still elect the FIFO-first
        // member of every class.
        let t = TreeTask {
            fanout: 4,
            depth: 5,
            modulus: 13,
        };
        let (seq_out, _) = run(&SequentialScheduler, &t, 1, None);
        let (par_out, _) = run(&ParallelScheduler::new(2), &t, 4, None);
        assert_eq!(seq_out, par_out);
    }

    #[test]
    fn resident_exec_matches_sequential() {
        let t = task();
        let pool = crate::pool::ResidentPool::new(3);
        let counters = crate::pool::RunCounters::default();
        let mut ctxs: Vec<Ctx> = (0..4).map(|_| Ctx::default()).collect();
        let mut got = Vec::new();
        let seeds = vec![Node { value: 2, gen: 0 }, Node { value: 4, gen: 0 }];
        let exec = Exec::resident(&pool).with_counters(&counters);
        let stats = ParallelScheduler::new(2).drive(exec, &t, &mut ctxs, seeds, &mut |a| {
            got.push(a);
            true
        });
        let (seq_out, _) = run(&SequentialScheduler, &t, 1, None);
        assert_eq!(got, seq_out, "resident-pool drive must match sequential");
        assert!(stats.waves > 0);
        assert!(
            counters.resident_batches.get() > 0,
            "wide waves should dispatch to the resident pool"
        );
    }

    #[test]
    fn sink_false_truncates_identically() {
        let t = task();
        let (seq_out, _) = run(&SequentialScheduler, &t, 1, Some(7));
        let (par_out, _) = run(&ParallelScheduler::new(2), &t, 4, Some(7));
        assert_eq!(seq_out.len(), 7);
        assert_eq!(seq_out, par_out, "max-results cut must land identically");
    }

    #[test]
    fn spill_threshold_keeps_small_waves_on_the_main_context() {
        // With an unreachably high spill threshold, every wave is inline:
        // only ctx 0 ever expands, and results still match sequential.
        let t = task();
        let sched = ParallelScheduler::new(usize::MAX);
        let (par_out, ctxs) = run(&sched, &t, 4, None);
        let (seq_out, _) = run(&SequentialScheduler, &t, 1, None);
        assert_eq!(par_out, seq_out);
        assert!(ctxs[0].expansions > 0);
        assert!(
            ctxs[1..].iter().all(|c| c.expansions == 0),
            "spilled waves must not fan out"
        );
    }

    /// [`TreeTask`] with an event log shared between expansion and the
    /// sink, to observe their interleaving.
    struct LoggingTask {
        inner: TreeTask,
        log: std::sync::Mutex<Vec<(&'static str, u64)>>,
    }

    impl FrontierTask for LoggingTask {
        type Item = Node;
        type Ctx = Ctx;
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

        fn expand(&self, ctx: &mut Ctx, item: &Node) -> Expansion<Node, u64> {
            self.log.lock().unwrap().push(("expand", item.value));
            self.inner.expand(ctx, item)
        }

        fn stopped(&self, _: &mut Ctx) -> bool {
            false
        }
    }

    /// The streaming contract: accepted results reach the sink between
    /// waves, not in one batch at drive end. With a multi-wave tree, some
    /// accept event must precede the last expansion event.
    #[test]
    fn sink_flushes_per_wave_not_at_drive_end() {
        for workers in [1usize, 4] {
            let task = LoggingTask {
                inner: task(),
                log: std::sync::Mutex::new(Vec::new()),
            };
            let mut ctxs: Vec<Ctx> = (0..workers).map(|_| Ctx::default()).collect();
            let seeds = vec![Node { value: 2, gen: 0 }, Node { value: 4, gen: 0 }];
            ParallelScheduler::new(2).drive(Exec::scoped(), &task, &mut ctxs, seeds, &mut |a| {
                task.log.lock().unwrap().push(("accept", a));
                true
            });
            let log = task.log.into_inner().unwrap();
            let first_accept = log.iter().position(|(k, _)| *k == "accept");
            let last_expand = log.iter().rposition(|(k, _)| *k == "expand");
            assert!(
                first_accept.unwrap() < last_expand.unwrap(),
                "accepts must interleave with later-wave expansions \
                 (workers={workers}): {log:?}"
            );
        }
    }

    #[test]
    fn low_spill_threshold_expands_each_survivor_exactly_once() {
        // Which worker expands a survivor is scheduling-dependent (on a
        // single-core host one worker may steal everything), but the
        // *total* expansion count must equal the sequential scheduler's —
        // no survivor is expanded twice or dropped.
        let t = TreeTask {
            fanout: 8,
            depth: 4,
            modulus: 1 << 40,
        };
        let (seq_out, seq_ctxs) = run(&SequentialScheduler, &t, 1, None);
        let (par_out, par_ctxs) = run(&ParallelScheduler::new(2), &t, 4, None);
        assert_eq!(par_out, seq_out);
        assert_eq!(
            par_ctxs.iter().map(|c| c.expansions).sum::<usize>(),
            seq_ctxs[0].expansions,
            "survivors must be expanded exactly once across all workers"
        );
    }
}
