//! Parallel batch minimization with a canonical-pattern memo cache.
//!
//! The paper's motivating deployment (Section 1) minimizes *many* queries
//! against *one* schema. [`BatchMinimizer`] makes that the unit of work:
//! it owns one closed constraint set (computed once) plus a memo cache
//! keyed by [`TreePattern::canonical_key`], and fans a `Vec` of queries
//! out over the scoped work-stealing pool in [`tpq_base::pool`].
//!
//! Queries that are **isomorphic** to one another — the common case in
//! query-optimizer traffic, where the same generated pattern arrives over
//! and over with different node numbering — are minimized once: the
//! canonical key folds duplicates before any worker runs, and the cache
//! persists across batches so a warmed engine answers repeats without
//! running CDM or ACIM at all. Theorem 5.1 (minimal queries are unique up
//! to isomorphism) is what makes serving a cached result sound.
//!
//! Output is **deterministic**: results come back in input order and do
//! not depend on the worker count, because keys are assigned before the
//! fan-out and each unique pattern is minimized exactly once.
//!
//! The batch is **fault-isolated**: every task runs behind the pool's
//! panic shield, so one pattern that panics (or trips a [`Guard`] limit
//! in [`minimize_batch_guarded`](BatchMinimizer::minimize_batch_guarded))
//! becomes an error entry in its own slot while the remaining patterns
//! complete normally — the process never aborts.
//!
//! Observability (when the `tpq-obs` layer is enabled): counters
//! `batch.cache.hit`, `batch.cache.miss`, `batch.steal`, `pool.panic` and
//! per-worker latency histograms `batch.worker.N` (see
//! `docs/OBSERVABILITY.md`).
//!
//! ```
//! use tpq_base::TypeInterner;
//! use tpq_constraints::parse_constraints;
//! use tpq_core::batch::BatchMinimizer;
//! use tpq_pattern::parse_pattern;
//!
//! let mut tys = TypeInterner::new();
//! let ics = parse_constraints("Book -> Title", &mut tys).unwrap();
//! let engine = BatchMinimizer::new(&ics);
//! let queries = vec![
//!     parse_pattern("Book*[/Title][/Author]", &mut tys).unwrap(),
//!     parse_pattern("Book*[/Author][/Title]", &mut tys).unwrap(), // isomorphic
//! ];
//! let out = engine.minimize_batch(&queries, 2);
//! assert_eq!(out.patterns.len(), 2);
//! assert_eq!(out.stats.unique, 1, "duplicate folded by the memo cache");
//! assert_eq!(out.patterns[0].size(), 2);
//! ```

use crate::pipeline::{MinimizeOutcome, Strategy};
use crate::session::minimize_closed_guarded;
use crate::stats::MinimizeStats;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};
use tpq_base::pool::{scoped_map_isolated, PoolStats};
use tpq_base::{FxHashMap, Guard, Result};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{CanonicalKey, TreePattern};

/// Static span names so per-worker latency lands in distinct histograms
/// without allocating names (the registry is keyed by `&'static str`).
/// Workers beyond the table share the overflow bucket.
const WORKER_SPANS: [&str; 16] = [
    "batch.worker.0",
    "batch.worker.1",
    "batch.worker.2",
    "batch.worker.3",
    "batch.worker.4",
    "batch.worker.5",
    "batch.worker.6",
    "batch.worker.7",
    "batch.worker.8",
    "batch.worker.9",
    "batch.worker.10",
    "batch.worker.11",
    "batch.worker.12",
    "batch.worker.13",
    "batch.worker.14",
    "batch.worker.15",
];

fn worker_span(worker: usize) -> &'static str {
    WORKER_SPANS.get(worker).copied().unwrap_or("batch.worker.overflow")
}

/// A batch minimization session: one closed constraint set, one strategy,
/// and a memo cache of minimized patterns keyed by canonical form.
///
/// The cache is internally synchronized — `minimize_batch` takes `&self`,
/// so one engine can serve concurrent callers.
#[derive(Debug)]
pub struct BatchMinimizer {
    closed: ConstraintSet,
    strategy: Strategy,
    cache: RwLock<FxHashMap<CanonicalKey, TreePattern>>,
}

/// What one batch run did, beyond the per-query results.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Distinct canonical patterns that had to be minimized.
    pub unique: usize,
    /// Queries answered from the memo cache (persistent hits plus
    /// in-batch duplicates of an already-scheduled pattern).
    pub cache_hits: u64,
    /// Queries that ran the minimization pipeline.
    pub cache_misses: u64,
    /// Work-stealing events in the pool.
    pub steals: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Items executed per worker.
    pub executed_per_worker: Vec<u64>,
    /// Wall time of the whole batch, including the key pass.
    pub wall_time: Duration,
    /// Algorithm counters summed over every minimization actually run.
    pub minimize: MinimizeStats,
    /// Queries that ended in an error entry (budget trips, injected
    /// faults, captured panics). Always 0 through the infallible
    /// [`BatchMinimizer::minimize_batch`] path.
    pub failed: usize,
    /// Worker panics captured by the pool's per-task shield.
    pub panics: u64,
}

impl BatchStats {
    /// Fraction of queries answered from the memo cache, in `[0, 1]`
    /// (0 on an empty batch).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Machine-readable snapshot of the batch run, consumed by the bench
    /// harness's persisted trajectories and the CLI's `--stats` output.
    pub fn to_json(&self) -> tpq_base::Json {
        use tpq_base::Json;
        Json::object(vec![
            ("queries", Json::Int(self.queries as i64)),
            ("unique", Json::Int(self.unique as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("cache_misses", Json::Int(self.cache_misses as i64)),
            ("cache_hit_rate", Json::Float(self.cache_hit_rate())),
            ("steals", Json::Int(self.steals as i64)),
            ("workers", Json::Int(self.workers as i64)),
            (
                "executed_per_worker",
                Json::Array(
                    self.executed_per_worker.iter().map(|&n| Json::Int(n as i64)).collect(),
                ),
            ),
            ("wall_micros", Json::Float(self.wall_time.as_secs_f64() * 1e6)),
            ("failed", Json::Int(self.failed as i64)),
            ("panics", Json::Int(self.panics as i64)),
            ("minimize", self.minimize.to_json()),
        ])
    }
}

/// Result of [`BatchMinimizer::minimize_batch`]: one minimized pattern per
/// input query, in input order.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Minimized (compacted) patterns, parallel to the input slice.
    pub patterns: Vec<TreePattern>,
    /// Batch-level measurements.
    pub stats: BatchStats,
}

/// Result of [`BatchMinimizer::minimize_batch_guarded`]: one `Result` per
/// input query, in input order. A query whose minimization tripped the
/// guard, hit an armed failpoint or panicked carries its error in place;
/// the other slots still hold their minimized patterns.
#[derive(Debug, Clone)]
pub struct GuardedBatchOutcome {
    /// Per-query results, parallel to the input slice.
    pub results: Vec<Result<TreePattern>>,
    /// Batch-level measurements.
    pub stats: BatchStats,
}

/// How each input query gets its result: from the persistent cache, or
/// from slot `i` of this batch's unique-work list.
enum Plan {
    Cached(TreePattern),
    Computed(usize),
}

/// Result of [`BatchMinimizer::minimize_cached_guarded`]: the minimized
/// pattern plus where it came from.
#[derive(Debug, Clone)]
pub struct CachedOutcome {
    /// The minimized (compacted) query.
    pub pattern: TreePattern,
    /// Whether the memo cache answered without running the pipeline.
    pub cache_hit: bool,
    /// Algorithm counters of the run (all zero on a cache hit — the
    /// cached answer cost nothing).
    pub stats: MinimizeStats,
}

impl BatchMinimizer {
    /// Build from a (not necessarily closed) constraint set with the
    /// default strategy. The quadratic closure is computed once, here.
    pub fn new(ics: &ConstraintSet) -> Self {
        Self::with_strategy(ics, Strategy::default())
    }

    /// Build with an explicit strategy.
    pub fn with_strategy(ics: &ConstraintSet, strategy: Strategy) -> Self {
        BatchMinimizer { closed: ics.closure(), strategy, cache: RwLock::new(FxHashMap::default()) }
    }

    /// Rebuild an engine from an **already-closed** constraint set,
    /// skipping the quadratic closure — the deserialization half of
    /// warm-restart snapshots. `closed` must be its own closure (snapshot
    /// files are checksummed, so a faithful restore guarantees this); an
    /// unclosed set would silently weaken every minimization the engine
    /// performs.
    pub fn from_parts(closed: ConstraintSet, strategy: Strategy) -> Self {
        debug_assert!(closed.is_closed(), "from_parts requires a closed constraint set");
        BatchMinimizer { closed, strategy, cache: RwLock::new(FxHashMap::default()) }
    }

    /// Snapshot the canonical-pattern memo as `(key, minimized)` pairs,
    /// sorted by key for deterministic serialization.
    pub fn export_memo(&self) -> Vec<(CanonicalKey, TreePattern)> {
        let cache = self.cache.read().expect("batch cache poisoned");
        let mut entries: Vec<(CanonicalKey, TreePattern)> =
            cache.iter().map(|(k, p)| (k.clone(), p.clone())).collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// Seed the memo with previously exported entries. Keys must have been
    /// produced under the same [`TypeId`](tpq_base::TypeId) ↔ name
    /// assignment as the patterns this engine will serve (the snapshot
    /// layer verifies this before calling); existing entries win ties.
    pub fn import_memo(&self, entries: impl IntoIterator<Item = (CanonicalKey, TreePattern)>) {
        let mut cache = self.cache.write().expect("batch cache poisoned");
        for (key, pattern) in entries {
            cache.entry(key).or_insert(pattern);
        }
    }

    /// The closed constraint set the engine minimizes under.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.closed
    }

    /// The strategy every query runs with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Number of distinct canonical patterns memoized so far.
    pub fn cache_len(&self) -> usize {
        self.cache.read().expect("batch cache poisoned").len()
    }

    /// Drop every memoized result (the closed constraint set stays).
    pub fn clear_cache(&self) {
        self.cache.write().expect("batch cache poisoned").clear();
    }

    /// Minimize one query through the cache (a one-element batch without
    /// the pool; useful for mixed single/batch callers that want the memo
    /// behavior everywhere).
    pub fn minimize(&self, q: &TreePattern) -> TreePattern {
        self.minimize_guarded(q, &Guard::unlimited())
            .expect("unlimited guard cannot trip and no failpoint is armed")
    }

    /// [`BatchMinimizer::minimize`] under a [`Guard`]. A cache hit is
    /// served without spending any of the guard's budget; on a miss the
    /// whole minimization pipeline runs guarded and only a successful
    /// result is memoized — a tripped guard leaves the cache unchanged.
    pub fn minimize_guarded(&self, q: &TreePattern, guard: &Guard) -> Result<TreePattern> {
        Ok(self.minimize_cached_guarded(q, guard)?.pattern)
    }

    /// [`BatchMinimizer::minimize_guarded`], reporting cache provenance
    /// and per-run statistics — the entry point `tpq-serve` uses to
    /// answer one request and tell the client whether the memo cache
    /// already knew the pattern.
    pub fn minimize_cached_guarded(&self, q: &TreePattern, guard: &Guard) -> Result<CachedOutcome> {
        let key = q.canonical_key();
        if let Some(hit) = self.cache.read().expect("batch cache poisoned").get(&key) {
            tpq_obs::incr("batch.cache.hit", 1);
            return Ok(CachedOutcome {
                pattern: hit.clone(),
                cache_hit: true,
                stats: MinimizeStats::default(),
            });
        }
        tpq_obs::incr("batch.cache.miss", 1);
        let out = minimize_closed_guarded(q, &self.closed, self.strategy, guard)?;
        self.cache.write().expect("batch cache poisoned").insert(key, out.pattern.clone());
        Ok(CachedOutcome { pattern: out.pattern, cache_hit: false, stats: out.stats })
    }

    /// Minimize every query in `queries` on up to `jobs` worker threads.
    ///
    /// Results are returned in input order and are identical for every
    /// `jobs` value: the sequential key pass fixes which patterns are
    /// computed before any thread runs, so thread scheduling cannot leak
    /// into the output.
    ///
    /// This infallible path panics on the calling thread if a task fails
    /// — which, with no guard and no armed failpoint, only happens when a
    /// minimization itself panics. Callers that want per-query isolation
    /// use [`minimize_batch_guarded`](BatchMinimizer::minimize_batch_guarded).
    pub fn minimize_batch(&self, queries: &[TreePattern], jobs: usize) -> BatchOutcome {
        let run = self.minimize_batch_guarded(queries, jobs, &Guard::unlimited());
        let patterns = run
            .results
            .into_iter()
            .map(|r| match r {
                Ok(p) => p,
                Err(e) => panic!("batch task failed: {e}"),
            })
            .collect();
        BatchOutcome { patterns, stats: run.stats }
    }

    /// [`BatchMinimizer::minimize_batch`] with resource governance and
    /// per-query fault isolation.
    ///
    /// The guard is shared by every worker: a wall-clock deadline or a
    /// cooperative [`cancel`](Guard::cancel) bounds the *whole batch*, and
    /// a step budget is one pooled allowance drawn on by all queries.
    /// Queries answered from the memo cache (including in-batch
    /// duplicates) cost nothing and succeed even after the guard trips.
    ///
    /// Each unique pattern fans out as an isolated task: a budget trip, an
    /// injected failpoint or a panic inside one minimization lands as the
    /// `Err` of that query's slot (duplicates of it share the error) while
    /// every other query completes normally. Only successful results are
    /// memoized. Captured panics bump the `pool.panic` counter; budget
    /// trips bump `guard.timeout` / `guard.budget` / `guard.cancel`.
    pub fn minimize_batch_guarded(
        &self,
        queries: &[TreePattern],
        jobs: usize,
        guard: &Guard,
    ) -> GuardedBatchOutcome {
        let _span = tpq_obs::span!("batch");
        let t0 = Instant::now();

        // Key pass (sequential, cheap next to minimization): fold cache
        // hits and in-batch duplicates, and collect the unique survivors.
        let mut plan: Vec<Plan> = Vec::with_capacity(queries.len());
        let mut unique: Vec<&TreePattern> = Vec::new();
        let mut keys: Vec<CanonicalKey> = Vec::new();
        let mut scheduled: FxHashMap<CanonicalKey, usize> = FxHashMap::default();
        let mut hits = 0u64;
        {
            let cache = self.cache.read().expect("batch cache poisoned");
            for q in queries {
                let key = q.canonical_key();
                if let Some(hit) = cache.get(&key) {
                    hits += 1;
                    plan.push(Plan::Cached(hit.clone()));
                } else if let Some(&slot) = scheduled.get(&key) {
                    hits += 1;
                    plan.push(Plan::Computed(slot));
                } else {
                    let slot = unique.len();
                    scheduled.insert(key.clone(), slot);
                    unique.push(q);
                    keys.push(key);
                    plan.push(Plan::Computed(slot));
                }
            }
        }
        let misses = unique.len() as u64;
        tpq_obs::incr("batch.cache.hit", hits);
        tpq_obs::incr("batch.cache.miss", misses);

        // Fan the unique patterns out over the pool. Each task is
        // isolated: a panic or guard trip stays in its own result slot.
        // Trace identity is thread-local: capture the caller's id and
        // re-establish it on whichever worker runs each task, so events
        // emitted inside the pool keep the request's attribution.
        let trace = tpq_obs::current_trace();
        let (outcomes, pool): (Vec<Result<MinimizeOutcome>>, PoolStats) =
            scoped_map_isolated(jobs, &unique, |ctx, q| {
                let _trace = tpq_obs::trace_scope(trace);
                let t = Instant::now();
                let out = minimize_closed_guarded(q, &self.closed, self.strategy, guard)?;
                tpq_obs::record_duration(worker_span(ctx.worker), t.elapsed());
                Ok(out)
            });
        tpq_obs::incr("batch.steal", pool.steals);
        tpq_obs::incr("pool.panic", pool.panics);

        // Memoize for the next batch — successful results only, so a
        // tripped guard never poisons the cache with a partial answer.
        {
            let mut cache = self.cache.write().expect("batch cache poisoned");
            for (key, out) in keys.into_iter().zip(&outcomes) {
                if let Ok(out) = out {
                    cache.insert(key, out.pattern.clone());
                }
            }
        }

        let mut minimize = MinimizeStats::default();
        for out in outcomes.iter().flatten() {
            minimize.merge(out.stats);
        }
        let results: Vec<Result<TreePattern>> = plan
            .into_iter()
            .map(|p| match p {
                Plan::Cached(pattern) => Ok(pattern),
                Plan::Computed(slot) => match &outcomes[slot] {
                    Ok(out) => Ok(out.pattern.clone()),
                    Err(e) => Err(e.clone()),
                },
            })
            .collect();
        let failed = results.iter().filter(|r| r.is_err()).count();
        GuardedBatchOutcome {
            results,
            stats: BatchStats {
                queries: queries.len(),
                unique: unique.len(),
                cache_hits: hits,
                cache_misses: misses,
                steals: pool.steals,
                workers: pool.workers,
                executed_per_worker: pool.executed,
                wall_time: t0.elapsed(),
                minimize,
                failed,
                panics: pool.panics,
            },
        }
    }
}

/// Engines kept in the process-wide [`shared_engine`] cache. Constraint
/// sets are compared by value, so the probe is `O(|ics|)` — noise next to
/// the quadratic closure and the per-engine memo cache it preserves.
const ENGINE_CACHE_CAPACITY: usize = 8;

/// A cache entry's engine. The slot is inserted under the cache lock but
/// filled after it is released, so a slow closure blocks only callers
/// with the same key: they wait on the slot, everyone else proceeds.
type EngineSlot = Arc<OnceLock<Arc<BatchMinimizer>>>;

/// Cache entries: the original (unclosed) set and strategy, paired with
/// the slot of the shared engine built from them.
type EngineCache = Vec<((ConstraintSet, Strategy), EngineSlot)>;

/// A process-wide [`BatchMinimizer`] for `(ics, strategy)`, built on first
/// use and shared by every later caller with the same key (a small
/// process-wide LRU).
///
/// This is how `tpq-serve` gives every connection one canonical-pattern
/// memo cache and one constraint closure per constraint set: request
/// handlers call `shared_engine` instead of constructing engines, so a
/// pattern minimized on one connection is a cache hit on all of them.
/// The `engine.cache.hit` / `engine.recomputed` counters report reuse.
///
/// The closure of a new key is computed outside the cache lock: lookups
/// for other keys are never blocked behind it, and concurrent first
/// lookups of one key compute it once and share the result.
///
/// **Interner discipline:** engines memoize by [`TreePattern::canonical_key`],
/// which is built from [`TypeId`](tpq_base::TypeId)s. All queries handed to
/// one shared engine must therefore come from one [`TypeInterner`](tpq_base::TypeInterner)
/// (`tpq-serve` maintains a process-wide one) — mixing interners can map
/// different names to the same ids and serve one query's answer to another.
///
/// ```
/// use std::sync::Arc;
/// use tpq_base::{Guard, TypeInterner};
/// use tpq_constraints::parse_constraints;
/// use tpq_core::{shared_engine, Strategy};
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new(); // ONE interner for everything below
/// let ics = parse_constraints("Recipe -> Ingredient", &mut tys).unwrap();
/// let engine = shared_engine(&ics, Strategy::default());
/// // A second lookup with an equal key returns the very same engine.
/// assert!(Arc::ptr_eq(&engine, &shared_engine(&ics, Strategy::default())));
///
/// let q = parse_pattern("Recipe*[/Ingredient][/Step]", &mut tys).unwrap();
/// let first = engine.minimize_cached_guarded(&q, &Guard::unlimited()).unwrap();
/// let again = engine.minimize_cached_guarded(&q, &Guard::unlimited()).unwrap();
/// assert!(!first.cache_hit);
/// assert!(again.cache_hit, "second identical query is a memo hit");
/// assert_eq!(first.pattern.size(), 2); // /Ingredient is implied by the IC
/// ```
pub fn shared_engine(ics: &ConstraintSet, strategy: Strategy) -> Arc<BatchMinimizer> {
    let slot = {
        let mut entries = engine_cache().lock().expect("engine cache poisoned");
        let entry = match entries.iter().position(|((set, s), _)| *s == strategy && set == ics) {
            Some(pos) => {
                tpq_obs::incr("engine.cache.hit", 1);
                entries.remove(pos)
            }
            None => {
                tpq_obs::incr("engine.recomputed", 1);
                ((ics.clone(), strategy), EngineSlot::default())
            }
        };
        let slot = Arc::clone(&entry.1);
        entries.insert(0, entry); // most recently used first
        entries.truncate(ENGINE_CACHE_CAPACITY);
        slot
    };
    Arc::clone(slot.get_or_init(|| Arc::new(BatchMinimizer::with_strategy(ics, strategy))))
}

/// The process-wide engine LRU behind [`shared_engine`].
fn engine_cache() -> &'static Mutex<EngineCache> {
    static CACHE: OnceLock<Mutex<EngineCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot the process-wide [`shared_engine`] LRU as
/// `(original_set, strategy, engine)` triples in LRU order (most recently
/// used first). Engines still being built are skipped. The serialization
/// half of warm-restart snapshots.
pub fn export_engines() -> Vec<(ConstraintSet, Strategy, Arc<BatchMinimizer>)> {
    let entries = engine_cache().lock().expect("engine cache poisoned");
    entries
        .iter()
        .filter_map(|((ics, strategy), slot)| Some((ics.clone(), *strategy, slot.get()?.clone())))
        .collect()
}

/// Seed the process-wide [`shared_engine`] LRU with a rebuilt engine,
/// keyed by the **original** (unclosed) constraint set — the same key a
/// later `shared_engine(&ics, strategy)` probe will present. Replaces any
/// existing entry with the same key; inserted at the LRU front, and the
/// capacity bound still applies.
pub fn seed_engine(ics: ConstraintSet, strategy: Strategy, engine: Arc<BatchMinimizer>) {
    let mut entries = engine_cache().lock().expect("engine cache poisoned");
    entries.retain(|((set, strat), _)| !(*strat == strategy && *set == ics));
    entries.insert(0, ((ics, strategy), Arc::new(OnceLock::from(engine))));
    entries.truncate(ENGINE_CACHE_CAPACITY);
}

/// Empty the process-wide engine LRU (existing [`Arc`] holders keep their
/// engines; only the cache forgets them).
pub fn clear_engine_cache() {
    engine_cache().lock().expect("engine cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Minimizer;
    use tpq_base::{failpoint, Error, TypeInterner};
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern};

    fn setup() -> (BatchMinimizer, Vec<TreePattern>, TypeInterner) {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();
        let queries: Vec<TreePattern> = [
            "Articles/Article*[/Title]//Section//Paragraph",
            "Article*[/Title]",
            "Article*//Section",
            "Section*//Paragraph",
            "Articles/Article*[/Title]//Section//Paragraph", // exact repeat
        ]
        .iter()
        .map(|s| parse_pattern(s, &mut tys).unwrap())
        .collect();
        (BatchMinimizer::new(&ics), queries, tys)
    }

    #[test]
    fn batch_matches_sequential_session() {
        let (engine, queries, mut tys) = setup();
        let ics = parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();
        let session = Minimizer::new(&ics);
        for jobs in [1, 2, 4] {
            let out = engine.minimize_batch(&queries, jobs);
            assert_eq!(out.patterns.len(), queries.len());
            for (q, m) in queries.iter().zip(&out.patterns) {
                let want = session.minimize(q).pattern;
                assert!(isomorphic(m, &want), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn duplicates_fold_into_one_computation() {
        let (engine, queries, _) = setup();
        let out = engine.minimize_batch(&queries, 2);
        assert_eq!(out.stats.queries, 5);
        assert_eq!(out.stats.unique, 4, "the repeated query folds");
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.stats.cache_misses, 4);
        assert!(isomorphic(&out.patterns[0], &out.patterns[4]));
    }

    #[test]
    fn cache_persists_across_batches() {
        let (engine, queries, _) = setup();
        let first = engine.minimize_batch(&queries, 2);
        assert_eq!(engine.cache_len(), 4);
        let second = engine.minimize_batch(&queries, 2);
        assert_eq!(second.stats.cache_hits, 5, "everything warm");
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.unique, 0);
        for (a, b) in first.patterns.iter().zip(&second.patterns) {
            assert_eq!(a, b, "warm results identical, not merely isomorphic");
        }
        engine.clear_cache();
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn isomorphic_queries_share_a_cache_entry() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let engine = BatchMinimizer::new(&ics);
        let q1 = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
        let q2 = parse_pattern("a*[/c][/b]", &mut tys).unwrap(); // sibling order flipped
        let out = engine.minimize_batch(&[q1, q2], 2);
        assert_eq!(out.stats.unique, 1);
        assert_eq!(out.patterns[0], out.patterns[1]);
        assert_eq!(out.patterns[0].size(), 2, "a -> b makes /b redundant");
    }

    #[test]
    fn single_query_path_uses_the_cache() {
        let (engine, queries, _) = setup();
        let a = engine.minimize(&queries[0]);
        assert_eq!(engine.cache_len(), 1);
        let b = engine.minimize(&queries[4]);
        assert_eq!(engine.cache_len(), 1, "isomorphic repeat hits");
        assert_eq!(a, b);
    }

    #[test]
    fn output_independent_of_jobs() {
        let (engine, queries, _) = setup();
        let baseline = engine.minimize_batch(&queries, 1);
        for jobs in 2..=8 {
            let engine2 = {
                let mut tys = TypeInterner::new();
                let ics =
                    parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();
                BatchMinimizer::new(&ics)
            };
            let out = engine2.minimize_batch(&queries, jobs);
            assert_eq!(out.patterns, baseline.patterns, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_batch() {
        let (engine, _, _) = setup();
        let out = engine.minimize_batch(&[], 4);
        assert!(out.patterns.is_empty());
        assert_eq!(out.stats.unique, 0);
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.cache_hit_rate(), 0.0, "empty batch has no rate");
    }

    #[test]
    fn batch_stats_serialize_machine_readably() {
        use tpq_base::Json;
        let (engine, queries, _) = setup();
        let out = engine.minimize_batch(&queries, 2);
        let json = out.stats.to_json();
        assert_eq!(json.get("queries").and_then(Json::as_i64), Some(5));
        assert_eq!(json.get("unique").and_then(Json::as_i64), Some(4));
        assert_eq!(json.get("cache_hits").and_then(Json::as_i64), Some(1));
        let rate = json.get("cache_hit_rate").and_then(Json::as_f64).unwrap();
        assert!((rate - 0.2).abs() < 1e-9, "1 hit of 5 → 0.2, got {rate}");
        assert!(json.get("wall_micros").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(json.get("minimize").is_some(), "embeds the MinimizeStats record");
        // The snapshot round-trips through the JSON writer and parser.
        let text = json.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn cancelled_guard_fails_uncached_queries_but_serves_warm_hits() {
        let (engine, queries, _) = setup();
        let warm = engine.minimize(&queries[0]);
        let guard = Guard::cancellable();
        guard.cancel();
        let out = engine.minimize_batch_guarded(&queries, 2, &guard);
        assert_eq!(out.results.len(), queries.len());
        // Slot 0 and its exact repeat in slot 4 come out of the memo
        // cache, untouched by the dead guard.
        assert_eq!(out.results[0].as_ref().unwrap(), &warm);
        assert_eq!(out.results[4].as_ref().unwrap(), &warm);
        for i in [1, 2, 3] {
            let err = out.results[i].as_ref().unwrap_err();
            assert!(err.is_budget(), "slot {i}: {err}");
        }
        assert_eq!(out.stats.failed, 3);
        // Failures were not memoized.
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn expired_deadline_yields_per_query_deadline_errors() {
        let (engine, queries, _) = setup();
        let guard = Guard::with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        let out = engine.minimize_batch_guarded(&queries, 2, &guard);
        for (i, r) in out.results.iter().enumerate() {
            assert!(
                matches!(
                    r,
                    Err(Error::Budget { resource: tpq_base::BudgetResource::Deadline, .. })
                ),
                "slot {i}: {r:?}"
            );
        }
        // The in-batch duplicate shares its representative's error.
        assert_eq!(out.results[0], out.results[4]);
        assert_eq!(out.stats.failed, 5);
        assert_eq!(out.stats.unique, 4);
        assert_eq!(engine.cache_len(), 0, "nothing memoized from a dead batch");
    }

    #[test]
    fn injected_task_panic_stays_in_its_slot() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let engine = BatchMinimizer::new(&ics);
        let queries: Vec<TreePattern> = ["a*[/b]", "b*[/c]", "c*[/d]"]
            .iter()
            .map(|s| parse_pattern(s, &mut tys).unwrap())
            .collect();
        // jobs=1 keeps the fan-out inline on this thread, so the
        // thread-scoped arming is deterministic under parallel tests.
        let _fp = failpoint::arm_for_thread("pool.task", failpoint::Action::Panic, 2);
        let out = engine.minimize_batch_guarded(&queries, 1, &Guard::unlimited());
        assert!(out.results[0].is_ok());
        assert!(out.results[2].is_ok(), "tasks after the panic still complete");
        match &out.results[1] {
            Err(Error::WorkerPanic { message }) => {
                assert!(message.contains("pool.task"), "{message}")
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(out.stats.panics, 1);
        assert_eq!(out.stats.failed, 1);
        // The poisoned slot was not memoized; the survivors were.
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn guarded_single_query_serves_cache_hits_past_a_dead_guard() {
        let (engine, queries, _) = setup();
        let guard = Guard::cancellable();
        guard.cancel();
        assert!(engine.minimize_guarded(&queries[0], &guard).is_err());
        assert_eq!(engine.cache_len(), 0, "the failure was not memoized");
        let warm = engine.minimize(&queries[0]);
        // A cache hit costs no budget, so even the dead guard serves it.
        assert_eq!(engine.minimize_guarded(&queries[0], &guard).unwrap(), warm);
    }

    #[test]
    fn cached_outcome_reports_provenance() {
        let (engine, queries, _) = setup();
        let guard = Guard::unlimited();
        let cold = engine.minimize_cached_guarded(&queries[0], &guard).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.stats.redundancy_tests > 0 || cold.stats.total_removed() > 0);
        let warm = engine.minimize_cached_guarded(&queries[0], &guard).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.pattern, cold.pattern);
        assert_eq!(warm.stats.total_removed(), 0, "hits report zero work");
    }

    #[test]
    fn shared_engine_reuses_one_engine_per_key() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("Zebra -> Stripe", &mut tys).unwrap();
        let a = shared_engine(&ics, Strategy::CdmThenAcim);
        let b = shared_engine(&ics, Strategy::CdmThenAcim);
        assert!(Arc::ptr_eq(&a, &b), "same set + strategy share an engine");
        let c = shared_engine(&ics, Strategy::CimOnly);
        assert!(!Arc::ptr_eq(&a, &c), "strategy is part of the key");
        // The shared engine's memo cache persists across lookups.
        let q = parse_pattern("Zebra*[/Stripe][/Tail]", &mut tys).unwrap();
        let first = a.minimize_cached_guarded(&q, &Guard::unlimited()).unwrap();
        assert!(!first.cache_hit);
        let again = shared_engine(&ics, Strategy::CdmThenAcim)
            .minimize_cached_guarded(&q, &Guard::unlimited())
            .unwrap();
        assert!(again.cache_hit, "memo survives via the engine cache");
        assert_eq!(again.pattern, first.pattern);
    }

    /// An `n`-edge `->>` chain over fresh names; its closure has
    /// n(n+1)/2 constraints.
    fn descendant_chain(prefix: &str, n: usize, tys: &mut TypeInterner) -> ConstraintSet {
        let text: String = (0..n).map(|i| format!("{prefix}{i} ->> {prefix}{}\n", i + 1)).collect();
        parse_constraints(&text, tys).unwrap()
    }

    #[test]
    fn a_closure_in_flight_does_not_block_other_keys() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut tys = TypeInterner::new();
        let slow_ics = descendant_chain("Rung", 800, &mut tys);
        let tiny = parse_constraints("Kiwi -> Seed", &mut tys).unwrap();
        let slow_done = Arc::new(AtomicBool::new(false));
        let slow = {
            let (ics, done) = (slow_ics.clone(), Arc::clone(&slow_done));
            std::thread::spawn(move || {
                let engine = shared_engine(&ics, Strategy::CdmOnly);
                done.store(true, Ordering::SeqCst);
                engine
            })
        };
        // Wait until the slow key's slot is cached but still empty: its
        // closure is being computed, and the cache lock has been released.
        loop {
            let in_flight = engine_cache()
                .lock()
                .unwrap()
                .iter()
                .any(|((set, _), slot)| *set == slow_ics && slot.get().is_none());
            if in_flight {
                break;
            }
            assert!(!slow_done.load(Ordering::SeqCst), "never saw the slow closure in flight");
            std::thread::yield_now();
        }
        let fast = shared_engine(&tiny, Strategy::CdmOnly);
        assert!(
            !slow_done.load(Ordering::SeqCst),
            "a lookup for another key waited for the 800-edge closure"
        );
        assert_eq!(fast.constraints(), &tiny.closure());
        assert_eq!(slow.join().unwrap().constraints().len(), 800 * 801 / 2);
    }

    #[test]
    fn racing_first_lookups_of_one_key_share_one_engine() {
        let mut tys = TypeInterner::new();
        let ics = descendant_chain("Spoke", 150, &mut tys);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let racers: Vec<_> = (0..4)
            .map(|_| {
                let (ics, barrier) = (ics.clone(), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    shared_engine(&ics, Strategy::AcimOnly)
                })
            })
            .collect();
        let engines: Vec<_> = racers.into_iter().map(|r| r.join().unwrap()).collect();
        assert!(engines.iter().all(|e| Arc::ptr_eq(e, &engines[0])), "one engine per key");
    }

    #[test]
    fn every_strategy_is_supported() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let q = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
        for strategy in
            [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim]
        {
            let engine = BatchMinimizer::with_strategy(&ics, strategy);
            let out = engine.minimize_batch(std::slice::from_ref(&q), 2);
            let want = Minimizer::with_strategy(&ics, strategy).minimize(&q).pattern;
            assert!(isomorphic(&out.patterns[0], &want), "{strategy:?}");
        }
    }
}
