//! batch-cold: `tpq minimize --batch` in a fresh process per iteration.
//!
//! The untraced window runs the CLI over 90 namespaced known-answer
//! queries under one union schema, a few hundred times; the memo starts
//! cold in every process and no two queries are isomorphic, so every
//! query runs the full pipeline. The traced window replays the same run in-process
//! through the crates' public functions (parse, engine build, key pass,
//! pool fan-out of CDM → augment → CIM, print), with a span around each.

use crate::check;
use crate::host::{self, CpuTicks};
use crate::inputs::{batch_input, BatchInput};
use crate::report::{self, EndToEnd, Layers, Outcome};
use crate::stats::{best_mean, median};
use crate::trace;
use crate::{Args, RunDir};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;
use tpq_base::{FxHashMap, TypeInterner};
use tpq_constraints::{parse_constraints, ConstraintSet};
use tpq_core::{BatchMinimizer, MinimizeStats, Strategy};
use tpq_pattern::{parse_pattern, print::to_dsl, TreePattern};

/// Queries per batch file: few enough that a run takes tens of
/// milliseconds, so a window holds hundreds of runs to take the fastest
/// of (README.md).
const QUERIES: usize = 90;
/// Worker threads per batch run (the host's nproc).
const JOBS: usize = 2;
/// Repetitions of the set-up measurement.
const SETUP_REPS: usize = 25;

pub fn run(args: &Args, dir: &RunDir) -> Result<Outcome, String> {
    let tpq = crate::build_tpq(&dir.root)?;
    let input = batch_input(args.seed, QUERIES);
    let queries_path = dir.work.join("queries.txt");
    let ics_path = dir.work.join("constraints.txt");
    let text: String = input.queries.iter().map(|k| format!("{}\n", k.dsl)).collect();
    std::fs::write(&queries_path, &text).map_err(|e| e.to_string())?;
    std::fs::write(&ics_path, &input.constraints).map_err(|e| e.to_string())?;

    let mut out = Outcome::default();
    out.notes.push(format!(
        "input: {} queries (fig7a {}, fig7b/8b {}, fig9b {}), {} constraint lines, {} jobs",
        input.queries.len(),
        input.per_family[0],
        input.per_family[1],
        input.per_family[2],
        input.constraints.lines().count(),
        JOBS
    ));

    // Set-up: what the CLI does before minimizing — parse the queries and
    // the constraints, close the constraints and build the engine.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut types = TypeInterner::new();
            let qs: Vec<TreePattern> = text
                .lines()
                .map(|l| parse_pattern(l, &mut types).expect("generated query parses"))
                .collect();
            let ics = parse_constraints(&input.constraints, &mut types)
                .expect("generated constraints parse");
            let engine = BatchMinimizer::with_strategy(&ics, Strategy::default());
            std::hint::black_box((qs, engine));
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let ticks0 = CpuTicks::now();
    let (mut e2e, ops_per_s_untraced) =
        cli_window(args, &tpq, &queries_path, &ics_path, &input, &mut out);
    e2e.set("setup_s", median(&setup), setup.len());

    let mut layers = Layers::default();
    if args.trace {
        traced_window(args, dir, &input, &mut out, &mut layers, ops_per_s_untraced);
    }
    let steal = ticks0.steal_share_until(&CpuTicks::now());
    out.notes.push(format!("host.steal_share {steal:.4}"));
    if args.trace {
        layers.set("host.steal_share", steal);
        out.notes.push(format!("layers not exercised here: {}", layers.idle().join(" ")));
        out.metrics = layers.finish();
    } else {
        out.metrics = e2e.finish();
    }
    Ok(out)
}

/// Run the CLI in a fresh process per iteration for one window; returns
/// the end-to-end metrics (all but set-up) and the verified queries per
/// second of batch-process wall time.
fn cli_window(
    args: &Args,
    tpq: &std::path::Path,
    queries: &std::path::Path,
    ics: &std::path::Path,
    input: &BatchInput,
    out: &mut Outcome,
) -> (EndToEnd, f64) {
    let window = args.window();
    // Wall seconds (+inf when the run failed) and CPU milliseconds of every
    // run; peak RSS of the ones that succeeded.
    let mut walls = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut rss = Vec::new();
    let mut verified = 0u64;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed() < window {
        let t0 = Instant::now();
        let child = Command::new(tpq)
            .args(["minimize", "--batch"])
            .arg(queries)
            .arg("--constraints")
            .arg(ics)
            .args(["--jobs", &JOBS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                out.attempted += input.queries.len() as u64;
                for _ in 0..input.queries.len() {
                    out.fail(format!("cannot start tpq: {e}"));
                }
                walls.push(f64::INFINITY);
                break;
            }
        };
        let mut stdout = String::new();
        let read = child.stdout.take().map(|mut s| s.read_to_string(&mut stdout));
        let usage = host::wait_with_usage(child);
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += input.queries.len() as u64;
        let usage = match (read, usage) {
            (Some(Ok(_)), Ok(u)) if u.status.success() => u,
            (_, Ok(u)) => {
                for _ in 0..input.queries.len() {
                    out.fail(format!("tpq minimize --batch exited with {}", u.status));
                }
                walls.push(f64::INFINITY);
                continue;
            }
            (_, Err(e)) => {
                for _ in 0..input.queries.len() {
                    out.fail(format!("cannot wait for tpq: {e}"));
                }
                walls.push(f64::INFINITY);
                continue;
            }
        };
        rss.push(usage.max_rss_mb);
        let lines: Vec<&str> = stdout.lines().collect();
        let mut wrong = 0;
        for (i, k) in input.queries.iter().enumerate() {
            match lines.get(i) {
                Some(line) => match check::minimized_size(line, k.expected) {
                    Ok(()) => verified += 1,
                    Err(e) => {
                        wrong += 1;
                        out.fail(format!("batch query {i}: {e}"));
                    }
                },
                None => {
                    wrong += 1;
                    out.fail(format!("batch query {i}: no output line"));
                }
            }
        }
        // A run with a wrong answer is a failed operation: an infinite
        // latency.
        walls.push(if wrong == 0 { wall } else { f64::INFINITY });
        cpu_ms.push(usage.cpu_ms);
    }
    let busy: f64 = walls.iter().filter(|w| w.is_finite()).sum();
    let ops_per_s = verified as f64 / busy;
    let us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    let per_kop = 1e3 / input.queries.len() as f64;
    out.notes.push(format!(
        "latency = wall time of one batch run (spawn to exit) over {} runs; fastest {:.1} us",
        walls.len(),
        us.iter().copied().fold(f64::INFINITY, f64::min)
    ));
    report::latency_notes(&us, &mut out.notes);
    out.notes.push(format!(
        "ops_per_s {ops_per_s:.1}, cpu_ms_per_kop {:.1} (mean), {:.1} (fastest run) (printed only)",
        crate::stats::mean(&cpu_ms) * per_kop,
        cpu_ms.iter().copied().fold(f64::INFINITY, f64::min) * per_kop
    ));
    let mut e2e = EndToEnd::default();
    // One distinct operation: the whole batch.
    let (best, _) = best_mean(us.iter().map(|&t| (0, t)));
    e2e.set("latency_best_us", best, us.len());
    e2e.set("peak_rss_mb", median(&rss), rss.len());
    (e2e, ops_per_s)
}

/// CDM → augment → CIM through the crates' public functions, one span
/// each under a `core.minimize` span: the same steps, in the same order,
/// as the default strategy's pipeline.
pub fn minimize_traced(
    q: &TreePattern,
    closed: &ConstraintSet,
    stats: &mut MinimizeStats,
    parent: Option<trace::Ctx>,
) -> TreePattern {
    let _m = trace::child_of("core.minimize", parent);
    let prefiltered = {
        let _s = trace::span("core.cdm");
        let mut work = q.clone();
        tpq_core::cdm_in_place(&mut work, closed, stats);
        work.compact().0
    };
    let augmented = {
        let _s = trace::span("core.augment");
        let mut work = prefiltered;
        let allowed = tpq_core::chase::present_types(&work);
        tpq_core::augment(&mut work, closed, &allowed, stats);
        work
    };
    let _s = trace::span("core.cim");
    let mut engine = tpq_core::CimEngine::new(augmented, stats);
    engine.run(stats);
    let mut out = engine.into_pattern();
    out.strip_temporaries();
    out.compact().0
}

/// The traced half: in-process replays of the batch run.
fn traced_window(
    args: &Args,
    dir: &RunDir,
    input: &BatchInput,
    out: &mut Outcome,
    layers: &mut Layers,
    untraced: f64,
) {
    let text: Vec<&str> = input.queries.iter().map(|k| k.dsl.as_str()).collect();
    {
        // The closure itself, measured once on the union schema.
        let mut types = TypeInterner::new();
        let ics = parse_constraints(&input.constraints, &mut types).expect("constraints parse");
        trace::set_enabled(true);
        let closed = {
            let _s = trace::op("constraints.closure", 0);
            ics.closure()
        };
        trace::set_enabled(false);
        layers.set("constraints.closed_len", closed.len() as f64);
    }
    let window = args.window();
    let started = Instant::now();
    let mut stats = MinimizeStats::default();
    let (mut hits, mut keyed, mut steals, mut busy_share, mut runs) = (0u64, 0u64, 0u64, 0.0, 0u64);
    let mut verified = 0u64;
    let mut busy_s = 0.0;
    while runs == 0 || started.elapsed() < window {
        runs += 1;
        trace::set_enabled(true);
        let t0 = Instant::now();
        let root = trace::op("batch.run", runs);
        let mut types = TypeInterner::new();
        let ics = {
            let _s = trace::span("constraints.parse");
            parse_constraints(&input.constraints, &mut types).expect("constraints parse")
        };
        let queries: Vec<TreePattern> = text
            .iter()
            .map(|l| {
                let _s = trace::span("pattern.parse");
                parse_pattern(l, &mut types).expect("query parses")
            })
            .collect();
        let engine = {
            let _s = trace::span("core.engine");
            BatchMinimizer::with_strategy(&ics, Strategy::default())
        };
        // Key pass: fold isomorphic duplicates before the fan-out.
        let mut slot_of: Vec<usize> = Vec::with_capacity(queries.len());
        let mut unique: Vec<&TreePattern> = Vec::new();
        {
            let _s = trace::span("core.key_pass");
            let mut seen: FxHashMap<tpq_pattern::CanonicalKey, usize> = FxHashMap::default();
            for q in &queries {
                let key = {
                    let _k = trace::span("pattern.canonical_key");
                    q.canonical_key()
                };
                let next = unique.len();
                let slot = *seen.entry(key).or_insert(next);
                if slot == next {
                    unique.push(q);
                } else {
                    hits += 1;
                }
                slot_of.push(slot);
            }
        }
        keyed += queries.len() as u64;
        let closed = engine.constraints();
        let (results, pool) = {
            let fanout = trace::span("core.fanout");
            let fan_ctx = fanout.ctx();
            tpq_base::pool::scoped_map_isolated(JOBS, &unique, |_, q| {
                let mut st = MinimizeStats::default();
                let m = minimize_traced(q, closed, &mut st, fan_ctx);
                Ok((m, st))
            })
        };
        let printed: Vec<String> = slot_of
            .iter()
            .map(|&s| {
                let _p = trace::span("pattern.print");
                match &results[s] {
                    Ok((m, _)) => to_dsl(m, &types),
                    Err(e) => format!("# error: {e}"),
                }
            })
            .collect();
        drop(root);
        busy_s += t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        steals += pool.steals;
        let busy: f64 = pool.busy.iter().map(|d| d.as_secs_f64()).sum();
        busy_share += busy / (pool.workers as f64 * pool.wall.as_secs_f64()).max(1e-12);
        for (_, st) in results.iter().flatten() {
            stats.merge(*st);
        }
        out.attempted += printed.len() as u64;
        for (i, (line, k)) in printed.iter().zip(&input.queries).enumerate() {
            match check::minimized_size(line, k.expected) {
                Ok(()) => verified += 1,
                Err(e) => out.fail(format!("traced batch query {i}: {e}")),
            }
        }
    }
    let spans = trace::drain();
    let self_ns = trace::self_times(&spans);
    let by_name = trace::by_name(&spans, &self_ns);
    crate::write_trace(dir, &spans, &self_ns, &by_name, out);
    layers.record_spans(&by_name);
    let minimized = by_name.get("core.minimize").map_or(1, |s| s.count.max(1)) as f64;
    layers.set("core.cdm_removed", stats.cdm_removed as f64 / minimized);
    layers.set("core.augment_nodes_added", stats.augment_nodes_added as f64 / minimized);
    layers.set("core.redundancy_tests", stats.redundancy_tests as f64 / minimized);
    layers.set("core.cim_removed", stats.cim_removed as f64 / minimized);
    layers.set("core.tables_us", stats.tables_time.as_secs_f64() * 1e6 / minimized);
    let minimize_ns = by_name.get("core.minimize").map_or(0, |s| s.total_ns) as f64;
    layers.set("core.tables_share", stats.tables_time.as_nanos() as f64 / minimize_ns.max(1.0));
    layers.set("core.memo_hit_ratio", hits as f64 / keyed.max(1) as f64);
    layers.set("core.worker_busy_share", busy_share / runs as f64);
    layers.set("base.pool_steals", steals as f64 / runs as f64);
    let traced = verified as f64 / busy_s;
    layers.set("trace.overhead_ratio", traced / untraced.max(1e-12));
    out.notes.push(format!("traced ops_per_s {traced:.1} over {runs} in-process runs"));
}
