//! Seeded input generation. Every workload input is rendered to text (DSL
//! queries, constraint lines, XML) before the program sees it, and every
//! query carries the size of its unique minimal equivalent, known from
//! the generator's construction rather than from running the minimizer.

use tpq_base::{SmallRng, TypeInterner};
use tpq_constraints::{Constraint, ConstraintSet};
use tpq_pattern::{print::to_dsl, TreePattern};
use tpq_workload::{
    prefilter_query, redundancy_query, relevant_constraints, shaped_ic_query, RedundancySpec,
};

/// A query in DSL text with its known minimal size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Known {
    /// The query, DSL syntax.
    pub dsl: String,
    /// Node count of the unique minimal equivalent query.
    pub expected: usize,
}

/// Render one constraint with the names of `types`.
pub fn constraint_line(c: &Constraint, types: &TypeInterner) -> String {
    let (a, op, b) = match c {
        Constraint::RequiredChild(a, b) => (a, "->", b),
        Constraint::RequiredDescendant(a, b) => (a, "->>", b),
        Constraint::CoOccurrence(a, b) => (a, "~", b),
    };
    format!("{} {op} {}", types.name(*a), types.name(*b))
}

/// An interner whose ids name the same types as `types`, each name
/// prefixed by `prefix`, so a generated instance renders into its own
/// namespace.
fn namespaced(types: &TypeInterner, prefix: &str) -> TypeInterner {
    let mut out = TypeInterner::new();
    for (_, name) in types.iter() {
        out.intern(&format!("{prefix}{name}"));
    }
    out
}

/// Render a generated instance into namespace `prefix`: its query and the
/// lines of its constraint set.
fn render(
    pattern: &TreePattern,
    ics: &ConstraintSet,
    types: &TypeInterner,
    prefix: &str,
) -> (String, Vec<String>) {
    let names = namespaced(types, prefix);
    (to_dsl(pattern, &names), ics.iter().map(|c| constraint_line(&c, &names)).collect())
}

/// The batch-cold input: one query per line plus the union schema.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Queries, one per batch line.
    pub queries: Vec<Known>,
    /// Union of every instance's constraints, one per line.
    pub constraints: String,
    /// Queries per generator family: Fig 7(a), Fig 7(b)/8(b), Fig 9(b).
    pub per_family: [usize; 3],
}

/// `n` queries from the three known-answer generators, a third each,
/// each instance in its own type namespace so the union schema keeps every
/// family's known minimum and no two queries are isomorphic. Sizes climb
/// an even ladder over 20–130 nodes in every family, so the amount of work
/// does not depend on the seed; the seed jitters each size by up to two
/// nodes, varies the Figure 7(a) constraint counts and shuffles the order.
pub fn batch_input(seed: u64, n: usize) -> BatchInput {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xb47c_0001);
    let per = n.div_ceil(3);
    let rung = |i: usize, lo: usize, hi: usize| lo + i * (hi - lo) / (per - 1).max(1);
    let mut specs: Vec<(usize, usize)> = (0..n).map(|j| (j % 3, j / 3)).collect();
    rng.shuffle(&mut specs);
    let mut queries = Vec::with_capacity(n);
    let mut lines = Vec::new();
    let mut per_family = [0usize; 3];
    for (idx, &(family, i)) in specs.iter().enumerate() {
        let prefix = format!("q{idx}_");
        per_family[family] += 1;
        let jitter = rng.gen_range(0..5usize);
        let (dsl, ics, expected) = match family {
            0 => {
                // Fig 7(a): planted redundant leaves, degree >= 2 so the
                // relevant constraints leave the witness chain alone.
                let total = (rung(i, 20, 128) + jitter).min(130);
                let degree = 2 + i % 3;
                let redundant = 1 + (i * 13) % (total - degree - 3).min(40);
                let q = redundancy_query(&RedundancySpec {
                    total_nodes: total,
                    redundant_nodes: redundant,
                    degree,
                });
                let f = q.filler_types.len();
                let k = rng.gen_range(4..25usize).min(f + f * (f - 1) / 2);
                let ics = relevant_constraints(&q, k);
                let (dsl, lines) = render(&q.pattern, &ics, &q.types, &prefix);
                (dsl, lines, q.expected_minimal_size)
            }
            1 => {
                // Fig 7(b)/8(b): every edge implied; fanout 1 is the chain.
                let nodes = (rung(i, 20, 128) + jitter).min(130);
                let fanout = [1usize, 1, 2, 3, 4][i % 5];
                let q = shaped_ic_query(nodes, fanout);
                let (dsl, lines) = render(&q.pattern, &q.constraints, &q.types, &prefix);
                (dsl, lines, 1)
            }
            _ => {
                // Fig 9(b): 3k+1 nodes, ACIM removes 2k.
                let k = rung(i, 7, 42) + jitter / 4;
                let q = prefilter_query(k);
                let (dsl, lines) = render(&q.pattern, &q.constraints, &q.types, &prefix);
                (dsl, lines, k + 1)
            }
        };
        queries.push(Known { dsl, expected });
        lines.extend(ics);
    }
    BatchInput { queries, constraints: lines.join("\n"), per_family }
}

/// The serve pool: distinct Figure-7 queries under one constraint text.
#[derive(Debug, Clone)]
pub struct ServePool {
    /// Distinct queries.
    pub queries: Vec<Known>,
    /// The shared constraint text.
    pub constraints: String,
}

/// `n` (at most 480) distinct Figure-7(a) queries of 17–40 nodes over one shared type
/// vocabulary, plus relevant constraints that leave each minimum at
/// `total - redundant`. Entry `i`'s shape is fixed by `i` alone, so the
/// traffic's cost profile does not depend on the seed; the seed names the
/// vocabulary (a fixed-width namespace) and, in the clients, the draws.
pub fn serve_pool(seed: u64, n: usize) -> ServePool {
    let mut taken = std::collections::BTreeSet::new();
    let mut specs: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
    for i in 0..n {
        let total = 17 + (i * 7) % 24;
        // Walk the (redundant, degree) grid from an offset fixed by `i`.
        let spec = (0..20)
            .map(|j| (i * 11 + j) % 20)
            .map(|c| (total, 2 + c / 2, 2 + c % 2))
            .find(|spec| !taken.contains(spec))
            .expect("at most 16 entries share a size; 20 shapes each");
        taken.insert(spec);
        specs.push(spec);
    }
    let generated: Vec<_> = specs
        .iter()
        .map(|&(total_nodes, redundant_nodes, degree)| {
            redundancy_query(&RedundancySpec { total_nodes, redundant_nodes, degree })
        })
        .collect();
    // Every instance interns tR, tX, tF0, tF1, ... in the same order, so
    // the widest instance's names cover the whole pool.
    let prefix = format!("s{:04}_", seed % 10_000);
    let widest = generated.iter().max_by_key(|g| g.filler_types.len()).expect("non-empty pool");
    let names = namespaced(&widest.types, &prefix);
    let mut lines: Vec<String> =
        relevant_constraints(widest, 8).iter().map(|c| constraint_line(&c, &names)).collect();
    lines.sort();
    let render = |g: &tpq_workload::RedundancyQuery| Known {
        dsl: to_dsl(&g.pattern, &namespaced(&g.types, &prefix)),
        expected: g.expected_minimal_size,
    };
    let queries = generated.iter().map(render).collect();
    ServePool { queries, constraints: lines.join("\n") }
}

/// One new-schema request of serve-churn.
#[derive(Debug, Clone)]
pub struct ChurnRequest {
    /// A `->>` chain of about 200 edges in its own namespace.
    pub constraints: String,
    /// A query whose every branch the chain implies (minimum: the root).
    pub query: Known,
}

/// `n` distinct constraint texts, each a required-descendant chain (of
/// 196 + i edges for text i, shuffled by the seed), with one query per
/// text whose branches the seed picks.
pub fn churn_requests(seed: u64, n: usize) -> Vec<ChurnRequest> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4a2_0003);
    let mut lengths: Vec<usize> = (0..n).map(|i| 196 + i).collect();
    rng.shuffle(&mut lengths);
    lengths
        .into_iter()
        .enumerate()
        .map(|(j, edges)| {
            let name = |i: usize| format!("z{j}_n{i}");
            let constraints: Vec<String> =
                (0..edges).map(|i| format!("{} ->> {}", name(i), name(i + 1))).collect();
            let mut dsl = format!("{}*", name(0));
            for _ in 0..3 {
                dsl.push_str(&format!("[//{}]", name(rng.gen_range(1..edges + 1))));
            }
            dsl.push_str(&format!("//{}", name(rng.gen_range(1..edges + 1))));
            ChurnRequest { constraints: constraints.join("\n"), query: Known { dsl, expected: 1 } }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_constraints::parse_constraints;
    use tpq_core::{minimize, minimize_with};
    use tpq_pattern::{canonical_form, parse_pattern};

    #[test]
    fn batch_input_is_seeded_and_duplicate_free() {
        let a = batch_input(3, 40);
        assert_eq!(a.queries, batch_input(3, 40).queries, "same seed, same input");
        assert_ne!(a.queries, batch_input(4, 40).queries);
        let mut types = TypeInterner::new();
        let mut forms: Vec<String> = a
            .queries
            .iter()
            .map(|k| canonical_form(&parse_pattern(&k.dsl, &mut types).unwrap()))
            .collect();
        forms.sort();
        forms.dedup();
        assert_eq!(forms.len(), 40, "no isomorphic duplicates");
        assert!(a.per_family.iter().all(|&n| n > 0));
    }

    #[test]
    fn known_minima_hold_under_the_union_schema() {
        let input = batch_input(11, 24);
        let mut types = TypeInterner::new();
        let ics = parse_constraints(&input.constraints, &mut types).unwrap();
        for k in &input.queries {
            let q = parse_pattern(&k.dsl, &mut types).unwrap();
            assert!((20..=130).contains(&q.size()), "{} nodes", q.size());
            assert_eq!(minimize(&q, &ics).pattern.size(), k.expected, "{}", k.dsl);
        }
    }

    #[test]
    fn serve_pool_minima_hold_under_the_shared_text() {
        let pool = serve_pool(5, 384);
        let mut dsl: Vec<&str> = pool.queries.iter().map(|k| k.dsl.as_str()).collect();
        dsl.sort();
        dsl.dedup();
        assert_eq!(dsl.len(), 384, "distinct queries");
        let mut types = TypeInterner::new();
        let ics = parse_constraints(&pool.constraints, &mut types).unwrap();
        for k in &pool.queries {
            let q = parse_pattern(&k.dsl, &mut types).unwrap();
            assert_eq!(minimize(&q, &ics).pattern.size(), k.expected, "{}", k.dsl);
        }
    }

    #[test]
    fn churn_queries_reduce_to_the_root() {
        for r in churn_requests(2, 3) {
            let mut types = TypeInterner::new();
            let ics = parse_constraints(&r.constraints, &mut types).unwrap();
            assert!((196..208).contains(&ics.len()));
            let q = parse_pattern(&r.query.dsl, &mut types).unwrap();
            let m = minimize_with(&q, &ics, tpq_core::Strategy::default()).pattern;
            assert_eq!(m.size(), r.query.expected);
        }
    }
}
