//! One function per figure panel of the paper's Section 6, returning
//! measured [`Panel`]s. The `experiments` binary prints them and persists
//! them as `BENCH_<panel>.json` trajectories; the Criterion benches
//! measure the same workloads.
//!
//! Absolute numbers differ from the paper's 2001 hardware; the
//! reproduction target is the *shape* of each curve (see EXPERIMENTS.md).
//! Every panel takes an [`ExpConfig`]: `--quick` shrinks the measurement
//! grids (same workload families, fewer points and iterations) so the CI
//! perf gate finishes in seconds and compares like-for-like against
//! quick-generated baselines.

use crate::{measure_micros, Panel, Point, Series, UNIT_PERCENT, UNIT_RATIO};
use tpq_base::FxHashSet;
use tpq_core::{
    acim_closed, acim_incremental_closed, cdm_closed, cim, minimize_with, MinimizeStats, Strategy,
};
use tpq_pattern::TreePattern;
use tpq_workload::{
    ic_chain_query, prefilter_query, redundancy_query, relevant_constraints, shaped_ic_query,
    RedundancySpec,
};

/// Iterations per measured point in a full run (median is reported).
const ITERS: usize = 7;

/// Measurement configuration shared by every panel.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Timing iterations per measured point (after one warmup).
    pub iters: usize,
    /// Reduced grids for CI and smoke runs.
    pub quick: bool,
    /// Seed for the panels that sample workloads (the serve replay mix).
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> ExpConfig {
        ExpConfig { iters: ITERS, quick: false, seed: 0 }
    }
}

impl ExpConfig {
    /// The reduced-grid configuration used by CI and the self-test.
    pub fn quick() -> ExpConfig {
        ExpConfig { iters: 3, quick: true, seed: 0 }
    }

    /// Pick the full or quick x-grid.
    pub(crate) fn grid(&self, full: &[u64], quick: &[u64]) -> Vec<u64> {
        if self.quick {
            quick.to_vec()
        } else {
            full.to_vec()
        }
    }
}

/// Figure 7(a): ACIM time as a function of `RedDegree × RedNodes` for a
/// 101-node query, at several relevant-constraint counts.
pub fn fig7a(cfg: &ExpConfig) -> Panel {
    let degree = 2;
    let full: Vec<u64> = (1..=9).map(|i| i * 10).collect();
    let xs = cfg.grid(&full, &[10, 40, 90]);
    let ks: Vec<usize> = if cfg.quick { vec![0, 100] } else { vec![0, 50, 100, 150] };
    let mut series = Vec::new();
    for k in ks {
        let mut points = Vec::new();
        for &x in &xs {
            let red = (x as usize) / degree;
            let q = redundancy_query(&RedundancySpec {
                total_nodes: 101,
                redundant_nodes: red,
                degree,
            });
            let ics = relevant_constraints(&q, k).closure();
            let (m, out) = measure_micros(cfg.iters, || {
                let mut stats = MinimizeStats::default();
                acim_incremental_closed(&q.pattern, &ics, &mut stats)
            });
            assert_eq!(out.size(), q.expected_minimal_size);
            points.push(Point::timed(x, m));
        }
        series.push(Series { label: format!("{k}Constraints"), points });
    }
    Panel {
        id: "fig7a".into(),
        title: "ACIM: varying redundancy and constraints (101-node query)".into(),
        x_label: "RedDeg*RedN".into(),
        unit: crate::UNIT_MICROS.into(),
        series,
    }
}

/// Figure 7(b): total ACIM time vs time spent building the images and
/// ancestor/descendant tables, on a 101-node chain where the bottom `r`
/// nodes are IC-redundant.
pub fn fig7b(cfg: &ExpConfig) -> Panel {
    let chain = ic_chain_query(101);
    let full: Vec<u64> = (1..=10).map(|i| i * 10).collect();
    let xs = cfg.grid(&full, &[10, 50, 100]);
    let mut total = Vec::new();
    let mut tables = Vec::new();
    for &x in &xs {
        // Keep only the constraints for the deepest x edges so exactly x
        // nodes are redundant.
        let keep: Vec<_> = {
            let all: Vec<_> = chain.constraints.iter().collect();
            // Constraints were inserted per edge from the top; retain the
            // ones whose lhs is deepest. Sort by type index (= depth).
            let mut v = all;
            v.sort_by_key(|c| std::cmp::Reverse(c.lhs().0));
            v.into_iter().take(x as usize).collect()
        };
        let ics: tpq_constraints::ConstraintSet =
            keep.into_iter().collect::<tpq_constraints::ConstraintSet>().closure();
        // Sample total and tables time from the SAME runs so the ratio is
        // meaningful, then take per-metric medians.
        let mut totals = Vec::with_capacity(cfg.iters);
        let mut tabs = Vec::with_capacity(cfg.iters);
        for i in 0..=cfg.iters {
            let mut stats = MinimizeStats::default();
            let out = acim_incremental_closed(&chain.pattern, &ics, &mut stats);
            assert_eq!(out.size(), 101 - x as usize);
            if i > 0 {
                // first run is warmup
                totals.push(stats.total_time.as_secs_f64() * 1e6);
                tabs.push(stats.tables_time.as_secs_f64() * 1e6);
            }
        }
        let total_m = crate::Measurement::from_samples(&totals);
        let tables_m = crate::Measurement::from_samples(&tabs);
        let mut total_pt = Point::timed(x, total_m);
        total_pt.aux_micros = Some(tables_m.median);
        total.push(total_pt);
        tables.push(Point::timed(x, tables_m));
    }
    Panel {
        id: "fig7b".into(),
        title: "ACIM: total time vs images/ancestor table time (101-node chain)".into(),
        x_label: "RedNodes".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "TotalTime".into(), points: total },
            Series { label: "TablesTime".into(), points: tables },
        ],
    }
}

/// Figure 8(a): CDM time is flat in the number of constraints in the
/// repository (127-node c-edge chain; `->>` constraints are relevant —
/// they mention query types — but trigger no local rule on c-edges, as in
/// the paper every check is a hash probe).
pub fn fig8a(cfg: &ExpConfig) -> Panel {
    let chain = ic_chain_query(127);
    let step = if cfg.quick { 50 } else { 10 };
    let mut points = Vec::new();
    for k in (0..=150).step_by(step) {
        // Relevant `->>` constraints over non-adjacent chain types.
        let mut ics = tpq_constraints::ConstraintSet::new();
        let mut produced = 0;
        'outer: for gap in 2u32..127 {
            for i in 0..(127 - gap) {
                if produced == k {
                    break 'outer;
                }
                let a = chain.pattern.node(tpq_pattern::NodeId(i)).primary;
                let b = chain.pattern.node(tpq_pattern::NodeId(i + gap)).primary;
                if ics.insert(tpq_constraints::Constraint::RequiredDescendant(a, b)) {
                    produced += 1;
                }
            }
        }
        let closed = ics.closure();
        let (m, out) = measure_micros(cfg.iters, || {
            let mut stats = MinimizeStats::default();
            cdm_closed(&chain.pattern, &closed, &mut stats)
        });
        assert_eq!(out.size(), 127, "no local redundancy on a c-edge chain");
        points.push(Point::timed(k as u64, m));
    }
    Panel {
        id: "fig8a".into(),
        title: "CDM: time vs number of constraints (127-node query)".into(),
        x_label: "Constraints".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![Series { label: "CDMconstant".into(), points }],
    }
}

/// Figure 8(b): CDM time vs query size for right-deep, bushy and wider
/// fanout shapes (all edges IC-redundant; only the root survives).
pub fn fig8b(cfg: &ExpConfig) -> Panel {
    let full: Vec<u64> = (1..=14).map(|i| i * 10).collect();
    let xs = cfg.grid(&full, &[10, 70, 140]);
    let shapes = [("RightDeep", 1usize), ("Bushy", 2), ("VaryingFanout", 4)];
    let mut series = Vec::new();
    for (label, fanout) in shapes {
        let mut points = Vec::new();
        for &x in &xs {
            let q = shaped_ic_query(x as usize, fanout);
            let closed = q.constraints.closure();
            let (m, out) = measure_micros(cfg.iters, || {
                let mut stats = MinimizeStats::default();
                cdm_closed(&q.pattern, &closed, &mut stats)
            });
            assert_eq!(out.size(), 1);
            points.push(Point::timed(x, m));
        }
        series.push(Series { label: label.into(), points });
    }
    Panel {
        id: "fig8b".into(),
        title: "CDM: time vs query size and shape (all edges redundant)".into(),
        x_label: "QuerySize".into(),
        unit: crate::UNIT_MICROS.into(),
        series,
    }
}

/// Companion to Figure 8(b)'s discussion: CDM time vs node fanout at a
/// fixed query size (the paper: "CDM behaves in a quadratic fashion with
/// respect to the node fanout").
pub fn fig8b_fanout(cfg: &ExpConfig) -> Panel {
    let n = 121;
    let full: Vec<u64> = (1..=12).collect();
    let fanouts = cfg.grid(&full, &[2, 6, 12]);
    let mut points = Vec::new();
    for &fanout in &fanouts {
        let q = shaped_ic_query(n, fanout as usize);
        let closed = q.constraints.closure();
        let (m, out) = measure_micros(cfg.iters, || {
            let mut stats = MinimizeStats::default();
            cdm_closed(&q.pattern, &closed, &mut stats)
        });
        assert_eq!(out.size(), 1);
        points.push(Point::timed(fanout, m));
    }
    Panel {
        id: "fig8b-fanout".into(),
        title: format!("CDM: time vs fanout ({n}-node query)"),
        x_label: "Fanout".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![Series { label: "VaryingFanout".into(), points }],
    }
}

/// Figure 9(a): ACIM vs CDM on queries where both remove the same nodes.
pub fn fig9a(cfg: &ExpConfig) -> Panel {
    let full: Vec<u64> = (1..=10).map(|i| i * 10).collect();
    let xs = cfg.grid(&full, &[10, 50, 100]);
    let mut acim_pts = Vec::new();
    let mut cdm_pts = Vec::new();
    for &x in &xs {
        let q = ic_chain_query(x as usize);
        let closed = q.constraints.closure();
        let (a_m, a_out) = measure_micros(cfg.iters, || {
            let mut stats = MinimizeStats::default();
            acim_incremental_closed(&q.pattern, &closed, &mut stats)
        });
        let (c_m, c_out) = measure_micros(cfg.iters, || {
            let mut stats = MinimizeStats::default();
            cdm_closed(&q.pattern, &closed, &mut stats)
        });
        assert_eq!(a_out.size(), 1);
        assert_eq!(c_out.size(), 1, "CDM removes the same set here");
        acim_pts.push(Point::timed(x, a_m));
        cdm_pts.push(Point::timed(x, c_m));
    }
    Panel {
        id: "fig9a".into(),
        title: "ACIM vs CDM removing the same nodes, varying query size".into(),
        x_label: "QuerySize".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "ACIM".into(), points: acim_pts },
            Series { label: "CDM".into(), points: cdm_pts },
        ],
    }
}

/// Figure 9(b): direct ACIM vs CDM-prefilter-then-ACIM on queries where
/// CDM removes half of what ACIM can.
pub fn fig9b(cfg: &ExpConfig) -> Panel {
    let full: Vec<u64> = (1..=10).map(|i| i * 10).collect();
    let xs = cfg.grid(&full, &[10, 50, 100]);
    let mut direct_pts = Vec::new();
    let mut combined_pts = Vec::new();
    for &x in &xs {
        let k = ((x as usize).saturating_sub(1) / 3).max(1);
        let q = prefilter_query(k);
        let (d_m, d_out) = measure_micros(cfg.iters, || {
            minimize_with(&q.pattern, &q.constraints, Strategy::AcimOnly)
        });
        let (c_m, c_out) = measure_micros(cfg.iters, || {
            minimize_with(&q.pattern, &q.constraints, Strategy::CdmThenAcim)
        });
        assert_eq!(d_out.pattern.size(), q.pattern.size() - q.acim_removable);
        assert_eq!(c_out.pattern.size(), d_out.pattern.size());
        direct_pts.push(Point::timed(x, d_m));
        combined_pts.push(Point::timed(x, c_m));
    }
    Panel {
        id: "fig9b".into(),
        title: "ACIM alone vs CDM as a pre-filter (CDM removes half)".into(),
        x_label: "QuerySize".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "ACIM".into(), points: direct_pts },
            Series { label: "CDMACIM".into(), points: combined_pts },
        ],
    }
}

/// Parallel batch minimization over the Figure 7(a) workload family,
/// minimized by [`tpq_core::BatchMinimizer`] at increasing worker counts,
/// plus the derived speedup-vs-jobs panel. The `Cold` series starts from
/// an empty memo cache each run (in-batch duplicates still fold); the
/// `Warm` series re-runs the same batch on the warmed engine, where every
/// query is a cache hit. Speedup at `--jobs N` is `Cold(x=1) / Cold(x=N)`.
pub fn batch_with_speedup(cfg: &ExpConfig) -> (Panel, Panel) {
    // Degree starts at 2: with a degree-1 witness the shared `tF0 ->> tX`
    // constraint makes the lone witness leaf itself removable, which would
    // put the generator's expected size off by one for that slice.
    let (degrees, reds) = if cfg.quick { (2..=3u32, 1..=10usize) } else { (2..=6u32, 1..=25usize) };
    let specs: Vec<RedundancySpec> = degrees
        .flat_map(|degree| {
            reds.clone().map(move |red| RedundancySpec {
                total_nodes: 33,
                redundant_nodes: red,
                degree: degree as usize,
            })
        })
        .collect();
    let generated: Vec<_> = specs.iter().map(redundancy_query).collect();
    let mut queries: Vec<TreePattern> = Vec::with_capacity(4 * generated.len());
    let mut expected: Vec<usize> = Vec::with_capacity(4 * generated.len());
    for _ in 0..4 {
        for g in &generated {
            queries.push(g.pattern.clone());
            expected.push(g.expected_minimal_size);
        }
    }
    // All specs intern tR, tX, tF0.. in the same order, so type ids agree
    // across the family and one constraint set covers the whole batch.
    let most_fillers =
        generated.iter().max_by_key(|g| g.filler_types.len()).expect("non-empty family");
    let ics = relevant_constraints(most_fillers, 20);
    let jobs_grid: &[u64] = if cfg.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for &jobs in jobs_grid {
        let (cold_m, outcome) = measure_micros(3, || {
            let engine = tpq_core::BatchMinimizer::new(&ics);
            engine.minimize_batch(&queries, jobs as usize)
        });
        for (m, want) in outcome.patterns.iter().zip(&expected) {
            assert_eq!(m.size(), *want, "batch result disagrees with the generator");
        }
        assert_eq!(outcome.stats.unique, generated.len(), "duplicates must fold");
        let warm_engine = tpq_core::BatchMinimizer::new(&ics);
        warm_engine.minimize_batch(&queries, jobs as usize); // prime the cache
        let (warm_m, warm_out) =
            measure_micros(3, || warm_engine.minimize_batch(&queries, jobs as usize));
        assert_eq!(warm_out.stats.cache_misses, 0, "warmed engine must serve all hits");
        cold.push(Point::timed(jobs, cold_m));
        warm.push(Point::timed(jobs, warm_m));
    }
    let base = cold[0].micros;
    let speedup_pts: Vec<Point> =
        cold.iter().map(|p| Point::flat(p.x, base / p.micros.max(1.0))).collect();
    for p in &cold {
        eprintln!(
            "batch: jobs={} cold {:.0}us ({:.2}x vs jobs=1)",
            p.x,
            p.micros,
            base / p.micros.max(1.0)
        );
    }
    let timing = Panel {
        id: "batch".into(),
        title: "parallel batch minimization: Figure-7 queries, cold vs warm cache".into(),
        x_label: "Jobs".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "ColdCache".into(), points: cold },
            Series { label: "WarmCache".into(), points: warm },
        ],
    };
    let speedup = Panel {
        id: "batch-speedup".into(),
        title: "batch minimization speedup over one worker (cold cache)".into(),
        x_label: "Jobs".into(),
        unit: UNIT_RATIO.into(),
        series: vec![Series { label: "ColdSpeedup".into(), points: speedup_pts }],
    };
    (timing, speedup)
}

/// The batch timing panel alone (kept for callers that don't want the
/// derived speedup panel).
pub fn batch(cfg: &ExpConfig) -> Panel {
    batch_with_speedup(cfg).0
}

/// Observed hit rates of the two cache layers — a batch engine's memo
/// (canonical-pattern results) and the process-wide shared-engine LRU
/// that `tpq serve` resolves engines through — over repeated rounds of
/// the same workload. Round 1 is cold; later rounds should converge to
/// 100%. Rates are computed from
/// `tpq-obs` counter deltas around each round, so the panel measures the
/// same counters Prometheus exports.
pub fn cache(cfg: &ExpConfig) -> Panel {
    let was_enabled = tpq_obs::enabled();
    tpq_obs::set_enabled(true);
    // A small Figure-7 family with duplicates: 4 copies of each of 10
    // distinct queries, all sharing one constraint set.
    let pool = if cfg.quick { 6 } else { 10 };
    let generated: Vec<_> = (0..pool)
        .map(|i| {
            redundancy_query(&RedundancySpec {
                total_nodes: 17,
                redundant_nodes: 2 + (i % 8),
                degree: 2,
            })
        })
        .collect();
    let mut queries: Vec<TreePattern> = Vec::new();
    for _ in 0..4 {
        queries.extend(generated.iter().map(|g| g.pattern.clone()));
    }
    let widest = generated.iter().max_by_key(|g| g.filler_types.len()).expect("non-empty family");
    let ics = relevant_constraints(widest, 8);

    let batch_hit = tpq_obs::counter("batch.cache.hit");
    let batch_miss = tpq_obs::counter("batch.cache.miss");
    let engine_hit = tpq_obs::counter("engine.cache.hit");
    let engine_miss = tpq_obs::counter("engine.recomputed");
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    };

    let engine = tpq_core::BatchMinimizer::new(&ics);
    let mut memo_pts = Vec::new();
    let mut engine_pts = Vec::new();
    for round in 1..=3u64 {
        let before = ((batch_hit.get(), batch_miss.get()), (engine_hit.get(), engine_miss.get()));
        // Drive both layers: resolve the shared engine for the constraint
        // set (engine LRU), and minimize the batch on the engine memo.
        let _shared = tpq_core::shared_engine(&ics, Strategy::default());
        let outcome = engine.minimize_batch(&queries, 2);
        assert_eq!(outcome.patterns.len(), queries.len());
        memo_pts.push(Point::flat(
            round,
            rate(batch_hit.get() - before.0 .0, batch_miss.get() - before.0 .1),
        ));
        engine_pts.push(Point::flat(
            round,
            rate(engine_hit.get() - before.1 .0, engine_miss.get() - before.1 .1),
        ));
    }
    tpq_obs::set_enabled(was_enabled);
    Panel {
        id: "cache".into(),
        title: "cache hit rates per round: batch memo, engine LRU".into(),
        x_label: "Round".into(),
        unit: UNIT_PERCENT.into(),
        series: vec![
            Series { label: "BatchMemo".into(), points: memo_pts },
            Series { label: "EngineLru".into(), points: engine_pts },
        ],
    }
}

/// Ablations of the design choices called out in DESIGN.md §3.
pub fn ablations(cfg: &ExpConfig) -> Vec<Panel> {
    vec![
        ablate_containment(cfg),
        ablate_cim_cache(cfg),
        ablate_incremental(cfg),
        ablate_matching(cfg),
    ]
}

/// Rebuild-per-test ACIM (the literal Figure 3 loop) vs the incremental
/// engine (Section 6.1: persistent hash-table images, rebuilt only on
/// removal).
fn ablate_incremental(cfg: &ExpConfig) -> Panel {
    let xs = cfg.grid(&[10, 30, 50, 70, 90], &[10, 50, 90]);
    let mut rebuilding = Vec::new();
    let mut incremental = Vec::new();
    for &x in &xs {
        let q = redundancy_query(&RedundancySpec {
            total_nodes: 101,
            redundant_nodes: x as usize / 2,
            degree: 2,
        });
        let closed = relevant_constraints(&q, 50).closure();
        let (r_m, r_out) = measure_micros(3, || {
            let mut stats = MinimizeStats::default();
            acim_closed(&q.pattern, &closed, &mut stats)
        });
        let (i_m, i_out) = measure_micros(cfg.iters, || {
            let mut stats = MinimizeStats::default();
            acim_incremental_closed(&q.pattern, &closed, &mut stats)
        });
        assert_eq!(r_out.size(), q.expected_minimal_size);
        assert_eq!(i_out.size(), q.expected_minimal_size);
        rebuilding.push(Point::timed(x, r_m));
        incremental.push(Point::timed(x, i_m));
    }
    Panel {
        id: "ablate-incremental".into(),
        title: "ACIM: rebuild-per-test vs maintained images tables (101-node query)".into(),
        x_label: "RedDeg*RedN".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "RebuildPerTest".into(), points: rebuilding },
            Series { label: "Incremental".into(), points: incremental },
        ],
    }
}

/// Images-pruning containment vs brute-force backtracking, on the
/// backtracker's worst case: a d-edge chain of one repeated type mapping
/// into a longer chain whose required tail type is missing — the naive
/// search enumerates every descending assignment before failing, while
/// pruning rejects in polynomial time.
fn ablate_containment(cfg: &ExpConfig) -> Panel {
    let mut tys = tpq_base::TypeInterner::new();
    let a = tys.intern("a");
    let c = tys.intern("c");
    let mut pruned = Vec::new();
    let mut naive = Vec::new();
    let ks = cfg.grid(&[4, 5, 6, 7, 8], &[4, 6, 8]);
    for &k in &ks {
        // from: a //a //… //a //c   (k a-nodes then a c)
        let mut from = TreePattern::new(a);
        let mut cur = from.root();
        for _ in 1..k {
            cur = from.add_child(cur, tpq_pattern::EdgeKind::Descendant, a);
        }
        from.add_child(cur, tpq_pattern::EdgeKind::Descendant, c);
        // to: a //a //… //a  (2k a-nodes, no c anywhere)
        let mut to = TreePattern::new(a);
        let mut cur = to.root();
        for _ in 1..2 * k {
            cur = to.add_child(cur, tpq_pattern::EdgeKind::Descendant, a);
        }
        let (p_m, r1) = measure_micros(cfg.iters, || tpq_core::has_homomorphism(&from, &to));
        let (n_m, r2) = measure_micros(3, || tpq_core::has_homomorphism_naive(&from, &to));
        assert!(!r1 && !r2);
        pruned.push(Point::timed(k, p_m));
        naive.push(Point::timed(k, n_m));
    }
    Panel {
        id: "ablate-containment".into(),
        title: "containment: images pruning vs backtracking (no-match chains)".into(),
        x_label: "ChainLen".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "Pruning".into(), points: pruned },
            Series { label: "Backtracking".into(), points: naive },
        ],
    }
}

/// CIM with the "never retest non-redundant leaves" enhancement
/// (Figure 3 enhancement (1)) vs a naive loop that retests every leaf in
/// every round. The workload maximizes rounds: a duplicated deep chain
/// (one leaf removable per round → `depth` rounds) plus many
/// non-redundant leaves that the naive loop re-tests each round.
fn ablate_cim_cache(cfg: &ExpConfig) -> Panel {
    let mut tys = tpq_base::TypeInterner::new();
    let mut cached = Vec::new();
    let mut uncached = Vec::new();
    let depths = cfg.grid(&[5, 10, 15, 20], &[5, 15]);
    for &depth in &depths {
        let root_ty = tys.intern("root");
        let chain_ty = tys.intern("link");
        let mut q = TreePattern::new(root_ty);
        let root = q.root();
        // 30 distinct-type, non-redundant leaves.
        for i in 0..30 {
            let t = tys.intern(&format!("leaf{i}"));
            q.add_child(root, tpq_pattern::EdgeKind::Child, t);
        }
        // Original chain + duplicate (folds one leaf per round).
        for _ in 0..2 {
            let mut cur = root;
            for _ in 0..depth {
                cur = q.add_child(cur, tpq_pattern::EdgeKind::Descendant, chain_ty);
            }
        }
        let (c_m, c_out) = measure_micros(cfg.iters, || cim(&q));
        let (u_m, u_out) = measure_micros(3, || cim_no_cache(&q));
        assert_eq!(c_out.size(), u_out.size());
        assert_eq!(c_out.size(), 31 + depth as usize);
        cached.push(Point::timed(depth, c_m));
        uncached.push(Point::timed(depth, u_m));
    }
    Panel {
        id: "ablate-cim-cache".into(),
        title: "CIM: non-redundant caching (enhancement 1) on vs off".into(),
        x_label: "ChainDepth".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "Cached".into(), points: cached },
            Series { label: "RetestAll".into(), points: uncached },
        ],
    }
}

/// The paper's enhancement (1) disabled: retest every leaf each round.
fn cim_no_cache(q: &TreePattern) -> TreePattern {
    let mut work = q.clone();
    loop {
        let mut progress = false;
        let leaves: Vec<_> =
            work.leaves().into_iter().filter(|&l| l != work.root() && l != work.output()).collect();
        for l in leaves {
            if work.is_alive(l) && tpq_core::redundant_leaf(&work, l) {
                work.remove_leaf(l).expect("leaf");
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    work.compact().0
}

/// Why minimize at all: embedding-set evaluation cost before vs after
/// minimization on a synthetic department database.
fn ablate_matching(cfg: &ExpConfig) -> Panel {
    let mut tys = tpq_base::TypeInterner::new();
    let full =
        tpq_pattern::parse_pattern("Dept*[//Proj][//Proj][//Mgr//Proj][//Mgr//Proj]", &mut tys)
            .unwrap();
    let minimal = cim(&full);
    let mut before = Vec::new();
    let mut after = Vec::new();
    let xs = cfg.grid(&[50, 100, 200, 400], &[50, 200]);
    for &x in &xs {
        let doc = department_doc(x as usize, &mut tys);
        let (f_m, fa) = measure_micros(cfg.iters, || tpq_match::answer_set(&full, &doc));
        let (m_m, ma) = measure_micros(cfg.iters, || tpq_match::answer_set(&minimal, &doc));
        assert_eq!(fa.len(), ma.len());
        before.push(Point::timed(x, f_m));
        after.push(Point::timed(x, m_m));
    }
    Panel {
        id: "ablate-matching".into(),
        title: "matching cost: original vs minimized pattern".into(),
        x_label: "DocNodes".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "Original".into(), points: before },
            Series { label: "Minimized".into(), points: after },
        ],
    }
}

fn department_doc(n: usize, tys: &mut tpq_base::TypeInterner) -> tpq_data::Document {
    let dept = tys.intern("Dept");
    let mgr = tys.intern("Mgr");
    let proj = tys.intern("Proj");
    let mut doc = tpq_data::Document::new(dept);
    let mut mgr_node = doc.add_child(doc.root(), mgr);
    let mut i = 2;
    while i < n {
        let m = doc.add_child(mgr_node, proj);
        let _ = m;
        i += 1;
        if i % 5 == 0 && i < n {
            mgr_node = doc.add_child(doc.root(), mgr);
            i += 1;
        }
    }
    doc
}

/// All standard panels, in figure order. Includes the derived
/// observability panels (cache hit rates, batch speedup, serve latency
/// quantiles) after the paper figures and ablations.
pub fn all_panels(cfg: &ExpConfig) -> Vec<Panel> {
    let mut v = vec![
        fig7a(cfg),
        fig7b(cfg),
        fig8a(cfg),
        fig8b(cfg),
        fig8b_fanout(cfg),
        fig9a(cfg),
        fig9b(cfg),
    ];
    v.extend(ablations(cfg));
    let (timing, speedup) = batch_with_speedup(cfg);
    v.push(timing);
    v.push(speedup);
    v.push(cache(cfg));
    v.push(crate::serve_panel::serve_latency(cfg));
    v.push(crate::match_panel::match_throughput(cfg));
    v.push(crate::match_panel::minimize_then_match(cfg));
    v.push(crate::degradation_panel::serve_degradation(cfg));
    v
}

/// Panels needed to validate correctness quickly (reduced grids) — used
/// by the harness self-test.
pub fn smoke() -> Vec<Panel> {
    let cfg = ExpConfig::quick();
    vec![fig9a(&cfg), fig8a(&cfg)]
}

/// Keep a type-level guarantee that the panel ids are unique.
pub fn check_unique_ids(panels: &[Panel]) -> bool {
    let mut seen = FxHashSet::default();
    panels.iter().all(|p| seen.insert(p.id.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_ids_unique_and_series_non_empty() {
        // Use the cheap panels to keep test time low.
        let cfg = ExpConfig::quick();
        let panels = vec![fig9a(&cfg), fig9b(&cfg)];
        assert!(check_unique_ids(&panels));
        for p in &panels {
            assert!(!p.series.is_empty());
            for s in &p.series {
                assert!(!s.points.is_empty());
                for pt in &s.points {
                    assert!(pt.min_micros <= pt.micros && pt.micros <= pt.max_micros);
                }
            }
        }
    }

    #[test]
    fn fig9a_cdm_is_faster_than_acim_at_scale() {
        let p = fig9a(&ExpConfig::quick());
        let acim_last = p.series[0].points.last().unwrap().micros;
        let cdm_last = p.series[1].points.last().unwrap().micros;
        assert!(
            cdm_last < acim_last,
            "CDM ({cdm_last}us) should beat ACIM ({acim_last}us) at size 100"
        );
    }

    #[test]
    fn cache_panel_converges_to_full_hit_rates() {
        let _guard = crate::global_cache_test_lock();
        let p = cache(&ExpConfig::quick());
        assert_eq!(p.unit, UNIT_PERCENT);
        assert_eq!(p.series.len(), 2);
        for s in &p.series {
            let last = s.points.last().unwrap();
            assert!(
                last.micros > 99.0,
                "{} should be all hits by round 3, got {:.1}%",
                s.label,
                last.micros
            );
        }
        // The batch memo's first round serves 3 of every 4 duplicates from
        // the in-batch fold, so even round 1 has hits — but fewer than a
        // warmed round.
        let memo = &p.series[0];
        assert!(memo.points[0].micros < memo.points[2].micros);
    }
}
