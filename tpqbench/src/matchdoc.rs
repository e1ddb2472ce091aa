//! match-doc: minimize-then-match through the library.
//!
//! A child process of this program generates the inputs: a random
//! document of at least 100k nodes over the queries' type universe,
//! repaired to satisfy the closed schema and checked with `satisfies`,
//! written as XML; a pool of queries with planted redundancy whose
//! answers are non-empty; and each query's reference answers, computed on
//! the unminimized query by the embed matcher (whole document) and the
//! naive enumerator (a small slice of it). The measuring process sees
//! only those files. Its set-up parses the XML and builds the index; each
//! operation minimizes one pool query and evaluates it with the default
//! matcher (the twig join) over that index.

use crate::batch::minimize_traced;
use crate::check::{self, AnswerRef, Slice};
use crate::host::{self, CpuTicks};
use crate::report::{self, EndToEnd, Layers, Outcome};
use crate::stats::{best_mean, median};
use crate::trace;
use crate::{Args, RunDir};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;
use tpq_base::{Guard, SmallRng, TypeInterner};
use tpq_constraints::{parse_constraints, repair, satisfies, Constraint, ConstraintSet};
use tpq_core::{minimize_closed, MinimizeStats, Strategy};
use tpq_data::{generate_document, parse_xml_reader, DataNodeId, DocIndex, Document, DocumentSpec};
use tpq_pattern::{parse_pattern, print::to_dsl, EdgeKind, NodeId, TreePattern};
use tpq_workload::{random_pattern, PatternSpec};

/// First argument of the generator child process.
pub const GEN_COMMAND: &str = "generate-match-inputs";
/// Types in the universe.
const TYPES: usize = 12;
/// Nodes of the generated document before repair.
const DOC_NODES: usize = 100_000;
/// Queries in the pool.
const POOL: usize = 96;
/// The schema, the same for every seed so that repair grows every
/// seed's document alike: acyclic, hence finitely satisfiable.
const SCHEMA: &str = "m0 -> m1\nm1 ->> m4\nm2 ~ m7\nm3 -> m5\nm5 ->> m9\nm6 -> m10";
/// Slice size bounds (nodes) for the naive reference.
const SLICE_NODES: std::ops::Range<usize> = 800..2_000;
/// Step budget of one naive evaluation on the slice.
const NAIVE_BUDGET: u64 = 300_000;
/// Repetitions of the set-up measurement.
const SETUP_REPS: usize = 11;

/// `generate-match-inputs --seed <n> --dir <path>`: write the inputs.
pub fn generate_cli(argv: &[String]) -> Result<(), String> {
    let (mut seed, mut dir) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--seed", Some(v)) => seed = Some(v.parse::<u64>().map_err(|e| e.to_string())?),
            ("--dir", Some(v)) => dir = Some(std::path::PathBuf::from(v)),
            _ => return Err(format!("usage: {GEN_COMMAND} --seed <n> --dir <path>")),
        }
    }
    let (Some(seed), Some(dir)) = (seed, dir) else {
        return Err(format!("usage: {GEN_COMMAND} --seed <n> --dir <path>"));
    };
    generate(seed, &dir)
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

fn generate(seed: u64, dir: &Path) -> Result<(), String> {
    let mut types = TypeInterner::new();
    for i in 0..TYPES {
        types.intern(&format!("m{i}"));
    }
    let schema = parse_constraints(SCHEMA, &mut types).map_err(|e| e.to_string())?;
    let closed = schema.closure();
    let raw = generate_document(&DocumentSpec {
        nodes: DOC_NODES,
        num_types: TYPES,
        max_fanout: 4,
        extra_type_prob: 0.1,
        seed,
    });
    let doc = repair(&raw, &closed).map_err(|e| e.to_string())?;
    drop(raw);
    if !satisfies(&doc, &closed) {
        return Err("the repaired document does not satisfy the schema".into());
    }
    {
        let file = std::fs::File::create(dir.join("doc.xml")).map_err(io_err)?;
        let mut w = BufWriter::new(file);
        tpq_data::write_xml_to(&doc, &types, &mut w).map_err(io_err)?;
        w.flush().map_err(io_err)?;
    }
    std::fs::write(dir.join("schema.txt"), SCHEMA).map_err(io_err)?;

    // Pre-order ranks and subtree sizes; the slice is the first subtree
    // in pre-order whose size falls in SLICE_NODES.
    let order = doc.pre_order();
    let mut rank = vec![0u32; doc.len()];
    for (r, id) in order.iter().enumerate() {
        rank[id.index()] = r as u32;
    }
    let mut size = vec![1usize; doc.len()];
    for id in order.iter().rev() {
        for c in &doc.node(*id).children {
            size[id.index()] += size[c.index()];
        }
    }
    let slice_root = *order
        .iter()
        .find(|id| SLICE_NODES.contains(&size[id.index()]))
        .ok_or("no subtree of slice size")?;
    let slice_doc = copy_subtree(&doc, slice_root);
    let slice = Slice { start: rank[slice_root.index()], len: slice_doc.len() as u32 };

    // Candidates come in the same order for every seed, so the pool's
    // composition (and cost) changes with the document only where a
    // candidate has no answer in this seed's slice.
    let mut rng = SmallRng::seed_from_u64(0x3a7c_0004);
    let mut pool = Vec::new();
    let mut attempts = 0u64;
    while pool.len() < POOL {
        attempts += 1;
        if attempts > 20_000 {
            return Err(format!(
                "only {} pool queries with answers after {attempts} attempts",
                pool.len()
            ));
        }
        let mut q = random_pattern(&PatternSpec {
            nodes: rng.gen_range(3..8usize),
            num_types: TYPES,
            d_edge_prob: 0.6,
            max_fanout: 3,
            seed: rng.next_u64(),
        });
        q.set_output(q.root());
        plant_redundancy(&mut q, &closed, &mut rng);
        let Ok(slice_answers) = tpq_match::answer_set_naive_guarded(
            &q,
            &slice_doc,
            &Guard::builder().budget(NAIVE_BUDGET).build(),
        ) else {
            continue; // too many embeddings for the oracle: not a pool query
        };
        if slice_answers.is_empty() {
            continue;
        }
        let mut slice_ranks: Vec<u32> = slice_answers.iter().map(|id| slice.start + id.0).collect();
        slice_ranks.sort_unstable();
        pool.push((q, slice_ranks));
    }
    // The whole-document reference, on the host's cores.
    let (full, _) = tpq_base::pool::scoped_map(crate::host::nproc(), &pool, |_, (q, _)| {
        tpq_match::answer_set(q, &doc).len()
    });
    let lines: Vec<String> = pool
        .iter()
        .zip(full)
        .map(|((q, ranks), count)| {
            let ranks: Vec<String> = ranks.iter().map(u32::to_string).collect();
            format!("{}\t{count}\t{}", to_dsl(q, &types), ranks.join(","))
        })
        .collect();
    let header = format!("# slice {} {}\n", slice.start, slice.len);
    std::fs::write(dir.join("pool.txt"), header + &lines.join("\n")).map_err(io_err)?;
    Ok(())
}

/// A copy of the subtree under `root` whose arena ids are its pre-order.
fn copy_subtree(doc: &Document, root: DataNodeId) -> Document {
    let src = doc.node(root);
    let mut out = Document::new(src.primary);
    for t in src.types.iter() {
        out.add_type(out.root(), t);
    }
    let mut stack: Vec<(DataNodeId, DataNodeId)> =
        src.children.iter().rev().map(|&c| (c, out.root())).collect();
    while let Some((id, parent)) = stack.pop() {
        let node = doc.node(id);
        let copy = out.add_child(parent, node.primary);
        for t in node.types.iter() {
            out.add_type(copy, t);
        }
        for &c in node.children.iter().rev() {
            stack.push((c, copy));
        }
    }
    out
}

/// Add nodes the minimizer should remove: a duplicated branch (redundant
/// without constraints) and a leaf the schema implies.
fn plant_redundancy(q: &mut TreePattern, closed: &ConstraintSet, rng: &mut SmallRng) {
    let nodes: Vec<NodeId> = q.alive_ids().collect();
    if nodes.len() > 1 && rng.gen_bool(0.7) {
        let v = nodes[1 + rng.gen_range(0..nodes.len() - 1)];
        let parent = q.node(v).parent.expect("non-root node");
        copy_branch(q, v, parent);
    }
    let nodes: Vec<NodeId> = q.alive_ids().collect();
    let v = nodes[rng.gen_range(0..nodes.len())];
    let t = q.node(v).primary;
    let implied: Vec<Constraint> = closed
        .iter()
        .filter(|c| c.lhs() == t && !matches!(c, Constraint::CoOccurrence(..)))
        .collect();
    if let Some(c) = rng.choose(&implied) {
        let edge = if matches!(c, Constraint::RequiredChild(..)) {
            EdgeKind::Child
        } else {
            EdgeKind::Descendant
        };
        q.add_child(v, edge, c.rhs());
    }
}

/// Copy the subtree under `v` as a new child of `parent`.
fn copy_branch(q: &mut TreePattern, v: NodeId, parent: NodeId) {
    let mut stack = vec![(v, parent)];
    while let Some((src, dst_parent)) = stack.pop() {
        let (edge, ty) = (q.node(src).edge, q.node(src).primary);
        let copy = q.add_child(dst_parent, edge, ty);
        let children: Vec<NodeId> = q.node(src).children.clone();
        for c in children {
            stack.push((c, copy));
        }
    }
}

/// One pool query of the measuring process.
struct PoolQuery {
    pattern: TreePattern,
    reference: AnswerRef,
}

pub fn run(args: &Args, dir: &RunDir) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(io_err)?;
    let status = std::process::Command::new(exe)
        .arg(GEN_COMMAND)
        .args(["--seed", &args.seed.to_string(), "--dir"])
        .arg(&dir.work)
        .status()
        .map_err(io_err)?;
    if !status.success() {
        return Err(format!("input generation failed: {status}"));
    }
    let mut out = Outcome::default();

    // Set-up: parse the XML and index it, several times.
    let doc_path = dir.work.join("doc.xml");
    let mut setup = Vec::new();
    let mut loaded = None;
    trace::set_enabled(args.trace);
    for rep in 0..SETUP_REPS {
        // Drop the previous copy first, so peak RSS holds one document
        // and its index.
        drop(loaded.take());
        let _op = trace::op("data.setup", rep as u64);
        let t0 = Instant::now();
        let mut types = TypeInterner::new();
        let (doc, index) = load(&doc_path, &mut types)?;
        setup.push(t0.elapsed().as_secs_f64());
        loaded = Some((types, doc, index));
    }
    trace::set_enabled(false);
    let setup_spans = trace::drain();
    let (mut types, doc, index) = loaded.expect("at least one set-up");

    let schema_text = std::fs::read_to_string(dir.work.join("schema.txt")).map_err(io_err)?;
    let schema = parse_constraints(&schema_text, &mut types).map_err(|e| e.to_string())?;
    let closed = schema.closure();
    let (slice, pool) = read_pool(&dir.work.join("pool.txt"), &mut types)?;
    out.notes.push(format!(
        "input: document of {} nodes, {} schema constraints ({} closed), {} pool queries, slice of {} nodes",
        doc.len(),
        schema.len(),
        closed.len(),
        pool.len(),
        slice.len
    ));

    let ticks0 = CpuTicks::now();
    // Pool query, latency (microseconds, +inf when failed) and CPU
    // nanoseconds of every operation. The pool is run in passes, each in
    // a seeded order, so every query is timed about as often.
    let mut ops: Vec<(usize, f64, u64)> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x0b5e_0006);
    let mut order: Vec<usize> = Vec::new();
    let started = Instant::now();
    while ops.is_empty() || started.elapsed() < args.window() {
        if order.is_empty() {
            order = (0..pool.len()).collect();
            rng.shuffle(&mut order);
        }
        let i = order.pop().expect("a refilled pass");
        let c0 = host::thread_cpu_ns();
        let t0 = Instant::now();
        let m = minimize_closed(&pool[i].pattern, &closed, Strategy::default()).pattern;
        let answers = tpq_match::answer_set_twig_indexed(&m, &doc, &index, &Guard::unlimited());
        let dt = t0.elapsed();
        let cpu = host::thread_cpu_ns() - c0;
        out.attempted += 1;
        let us = match answers
            .map_err(|e| e.to_string())
            .and_then(|a| verify(&a, &index, slice, &pool[i].reference))
        {
            Ok(()) => dt.as_secs_f64() * 1e6,
            Err(e) => {
                out.fail(format!("match query {i}: {e}"));
                f64::INFINITY
            }
        };
        ops.push((i, us, cpu));
    }
    let lat_us: Vec<f64> = ops.iter().map(|&(_, us, _)| us).collect();
    let verified = lat_us.iter().filter(|l| l.is_finite()).count();
    let busy: f64 = lat_us.iter().filter(|l| l.is_finite()).sum::<f64>() / 1e6;
    let ops_per_s = verified as f64 / busy;
    let cpu_ns: u64 = ops.iter().map(|&(_, _, cpu)| cpu).sum();
    let (best, timed) = best_mean(ops.iter().map(|&(i, us, _)| (i, us)));
    let (best_cpu_ns, _) = best_mean(ops.iter().map(|&(i, _, cpu)| (i, cpu as f64)));
    out.notes.push(format!(
        "latency = minimize plus evaluate; {} operations over {timed} pool queries",
        ops.len()
    ));
    report::latency_notes(&lat_us, &mut out.notes);
    out.notes.push(format!(
        "ops_per_s {ops_per_s:.2}, cpu_ms_per_kop {:.1} (mean), {:.1} (mean of fastest) (printed only)",
        cpu_ns as f64 / 1e6 / (ops.len() as f64 / 1e3),
        best_cpu_ns / 1e3
    ));
    let mut e2e = EndToEnd::default();
    e2e.set("setup_s", median(&setup), setup.len());
    e2e.set("latency_best_us", best, timed);
    e2e.set("peak_rss_mb", host::peak_rss_mb("self").map_err(io_err)?, 1);

    let mut layers = Layers::default();
    if args.trace {
        traced_half(
            args,
            dir,
            &doc,
            &index,
            &closed,
            &schema_text,
            &pool,
            slice,
            setup_spans,
            &mut out,
            &mut layers,
            ops_per_s,
        );
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

/// Parse the XML document and index it.
fn load(path: &Path, types: &mut TypeInterner) -> Result<(Document, DocIndex), String> {
    let doc = {
        let _s = trace::span("data.xml_parse");
        let file = std::fs::File::open(path).map_err(io_err)?;
        parse_xml_reader(BufReader::new(file), types).map_err(|e| e.to_string())?
    };
    let index = {
        let _s = trace::span("data.index");
        DocIndex::build(&doc)
    };
    Ok((doc, index))
}

/// Check twig answers (document ids) against the reference.
fn verify(
    answers: &[DataNodeId],
    index: &DocIndex,
    slice: Slice,
    reference: &AnswerRef,
) -> Result<(), String> {
    let ranks: Vec<u32> = answers.iter().map(|&id| index.pre(id)).collect();
    check::answers(&ranks, slice, reference)
}

fn read_pool(path: &Path, types: &mut TypeInterner) -> Result<(Slice, Vec<PoolQuery>), String> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let mut slice = None;
    let mut pool = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(io_err)?;
        if let Some(rest) = line.strip_prefix("# slice ") {
            let mut f = rest.split_whitespace().map(str::parse::<u32>);
            if let (Some(Ok(start)), Some(Ok(len))) = (f.next(), f.next()) {
                slice = Some(Slice { start, len });
            }
            continue;
        }
        let mut f = line.split('\t');
        let (Some(dsl), Some(count), Some(ranks)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("bad pool line {line:?}"));
        };
        let pattern = parse_pattern(dsl, types).map_err(|e| e.to_string())?;
        let full_count = count.parse().map_err(|_| format!("bad count in {line:?}"))?;
        let slice_ranks = ranks
            .split(',')
            .map(|r| r.parse::<u32>().map_err(|_| format!("bad rank in {line:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        pool.push(PoolQuery { pattern, reference: AnswerRef { full_count, slice: slice_ranks } });
    }
    Ok((slice.ok_or("pool file has no slice line")?, pool))
}

/// The traced half: each operation decomposed into minimize phases and
/// the match, with a span around each.
#[allow(clippy::too_many_arguments)]
fn traced_half(
    args: &Args,
    dir: &RunDir,
    doc: &Document,
    index: &DocIndex,
    closed: &ConstraintSet,
    schema_text: &str,
    pool: &[PoolQuery],
    slice: Slice,
    setup_spans: Vec<trace::SpanRec>,
    out: &mut Outcome,
    layers: &mut Layers,
    untraced: f64,
) {
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x7ace_0007);
    let mut stats = MinimizeStats::default();
    let (mut answers_total, mut ops, mut verified) = (0u64, 0u64, 0u64);
    let mut busy = 0.0;
    let window = args.window();
    trace::set_enabled(true);
    {
        // The schema's parse and closure, once, in a throwaway interner.
        let _op = trace::op("constraints.setup", 0);
        let ics = {
            let _s = trace::span("constraints.parse");
            parse_constraints(schema_text, &mut TypeInterner::new()).expect("schema parses")
        };
        let _s = trace::span("constraints.closure");
        std::hint::black_box(ics.closure());
    }
    let started = Instant::now();
    while ops == 0 || started.elapsed() < window {
        ops += 1;
        let i = rng.gen_range(0..pool.len());
        let t0 = Instant::now();
        let op = trace::op("match.op", ops);
        let m = minimize_traced(&pool[i].pattern, closed, &mut stats, op.ctx());
        let answers = {
            let _s = trace::span("match.eval");
            tpq_match::answer_set_twig_indexed(&m, doc, index, &Guard::unlimited())
        };
        drop(op);
        busy += t0.elapsed().as_secs_f64();
        out.attempted += 1;
        match answers.map_err(|e| e.to_string()).and_then(|a| {
            answers_total += a.len() as u64;
            verify(&a, index, slice, &pool[i].reference)
        }) {
            Ok(()) => verified += 1,
            Err(e) => out.fail(format!("traced match query {i}: {e}")),
        }
    }
    trace::set_enabled(false);
    let mut spans = setup_spans;
    spans.extend(trace::drain());
    let self_ns = trace::self_times(&spans);
    let by_name = trace::by_name(&spans, &self_ns);
    crate::write_trace(dir, &spans, &self_ns, &by_name, out);
    layers.record_spans(&by_name);
    let n = ops as f64;
    layers.set("constraints.closed_len", closed.len() as f64);
    layers.set("core.cdm_removed", stats.cdm_removed as f64 / n);
    layers.set("core.augment_nodes_added", stats.augment_nodes_added as f64 / n);
    layers.set("core.redundancy_tests", stats.redundancy_tests as f64 / n);
    layers.set("core.cim_removed", stats.cim_removed as f64 / n);
    layers.set("core.tables_us", stats.tables_time.as_secs_f64() * 1e6 / n);
    let minimize_ns = by_name.get("core.minimize").map_or(0, |s| s.total_ns) as f64;
    let eval_ns = by_name.get("match.eval").map_or(0, |s| s.total_ns) as f64;
    layers.set("core.tables_share", stats.tables_time.as_nanos() as f64 / minimize_ns.max(1.0));
    layers.set("match.minimize_share", minimize_ns / (minimize_ns + eval_ns).max(1.0));
    layers.set("match.nodes_per_s", doc.len() as f64 * n / (eval_ns / 1e9).max(1e-12));
    layers.set("match.answers", answers_total as f64 / n);
    let traced = verified as f64 / busy;
    layers.set("trace.overhead_ratio", traced / untraced.max(1e-12));
}
