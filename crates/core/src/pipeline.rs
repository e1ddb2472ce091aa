//! The end-to-end minimization pipeline (Theorem 5.3): CDM as a fast
//! pre-filter, then ACIM for global minimality.

use crate::batch::shared_engine;
use crate::stats::MinimizeStats;
use tpq_base::{Guard, Result};
use tpq_constraints::ConstraintSet;
use tpq_pattern::TreePattern;

/// Which algorithm(s) [`minimize_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Constraint-independent minimization only (ignores the constraints).
    CimOnly,
    /// ACIM alone (globally minimal, slower on large queries).
    AcimOnly,
    /// CDM alone (locally minimal, fastest; may not be globally minimal).
    CdmOnly,
    /// CDM pre-filter, then ACIM — globally minimal and the fastest way to
    /// get there (Section 6.4, Figure 9(b)).
    #[default]
    CdmThenAcim,
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parse the CLI / serve-protocol spelling of a strategy: `full`
    /// (or the empty string) for the default pipeline, `cim`, `acim`,
    /// `cdm` for the individual algorithms.
    fn from_str(s: &str) -> std::result::Result<Strategy, String> {
        match s {
            "" | "full" => Ok(Strategy::CdmThenAcim),
            "cim" => Ok(Strategy::CimOnly),
            "acim" => Ok(Strategy::AcimOnly),
            "cdm" => Ok(Strategy::CdmOnly),
            other => Err(format!("unknown strategy '{other}' (expected full, cim, acim or cdm)")),
        }
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// The minimized (compacted) query.
    pub pattern: TreePattern,
    /// Per-phase measurements.
    pub stats: MinimizeStats,
}

/// Minimize `q` under `ics` with the default strategy
/// ([`Strategy::CdmThenAcim`]). Pass an empty set for pure
/// constraint-independent minimization.
///
/// ```
/// use tpq_base::TypeInterner;
/// use tpq_constraints::parse_constraints;
/// use tpq_core::minimize;
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new();
/// let q = parse_pattern("Book*[/Title][/Publisher]", &mut tys).unwrap();
/// let ics = parse_constraints("Book -> Publisher", &mut tys).unwrap();
/// let out = minimize(&q, &ics);
/// assert_eq!(out.pattern.size(), 2); // the implied /Publisher branch folds
/// assert_eq!(out.stats.total_removed(), 1);
/// ```
pub fn minimize(q: &TreePattern, ics: &ConstraintSet) -> MinimizeOutcome {
    minimize_with(q, ics, Strategy::default())
}

/// Minimize `q` under `ics` with an explicit [`Strategy`].
///
/// One-shot convenience over [`crate::session::Minimizer`]. Repeated calls
/// against the same constraint set do **not** recompute the quadratic
/// closure: it is taken from the process-wide [`crate::shared_engine`]
/// LRU (the `engine.cache.hit` / `engine.recomputed` counters report its
/// behavior). The engine's memo is not used, so every call runs the full
/// pipeline and reports its own [`MinimizeStats`]. For heavy many-query
/// workloads, prefer a [`crate::session::Minimizer`] or
/// [`crate::batch::BatchMinimizer`], which hold their closure directly.
pub fn minimize_with(q: &TreePattern, ics: &ConstraintSet, strategy: Strategy) -> MinimizeOutcome {
    crate::session::minimize_closed(q, shared_engine(ics, strategy).constraints(), strategy)
}

/// [`minimize_with`] under a [`Guard`]: same closure caching, but the
/// run is subject to the guard's deadline / step budget / cancellation
/// and returns [`Err`] (with the input untouched) when it trips. The
/// closure itself, when not yet cached, runs outside the guard.
pub fn minimize_with_guarded(
    q: &TreePattern,
    ics: &ConstraintSet,
    strategy: Strategy,
    guard: &Guard,
) -> Result<MinimizeOutcome> {
    let engine = shared_engine(ics, strategy);
    crate::session::minimize_closed_guarded(q, engine.constraints(), strategy, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_under;
    use std::sync::Arc;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern};

    fn setup(q: &str, ics: &str) -> (TreePattern, ConstraintSet, TypeInterner) {
        let mut tys = TypeInterner::new();
        let pat = parse_pattern(q, &mut tys).unwrap();
        let set = parse_constraints(ics, &mut tys).unwrap();
        (pat, set, tys)
    }

    #[test]
    fn cdm_then_acim_equals_acim_alone() {
        // Theorem 5.3: the pre-filter does not change the outcome.
        let cases = [
            (
                "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph",
                "Article -> Title\nSection ->> Paragraph",
            ),
            (
                "Organization*[/Employee//Project][/PermEmp//DBproject]",
                "PermEmp ~ Employee\nDBproject ~ Project",
            ),
            ("Book*[/Title][/Publisher][//LastName]", "Book -> Publisher\nBook ->> LastName"),
            ("Dept*[//DBProject]//Manager//DBProject", ""),
        ];
        for (qs, is) in cases {
            let (q, ics, _) = setup(qs, is);
            let combined = minimize_with(&q, &ics, Strategy::CdmThenAcim);
            let direct = minimize_with(&q, &ics, Strategy::AcimOnly);
            assert!(
                isomorphic(&combined.pattern, &direct.pattern),
                "{qs}: CDM+ACIM ({}) vs ACIM ({})",
                combined.pattern.size(),
                direct.pattern.size()
            );
            assert!(equivalent_under(&q, &combined.pattern, &ics));
        }
    }

    #[test]
    fn cdm_only_is_between_input_and_global_minimum() {
        let (q, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        let local = minimize_with(&q, &ics, Strategy::CdmOnly).pattern;
        let global = minimize_with(&q, &ics, Strategy::AcimOnly).pattern;
        assert!(global.size() <= local.size());
        assert!(local.size() <= q.size());
        assert!(equivalent_under(&q, &local, &ics));
    }

    #[test]
    fn empty_constraints_all_strategies_agree_with_cim() {
        let (q, ics, _) = setup("Dept*[//DBProject]//Manager//DBProject", "");
        let cim_r = minimize_with(&q, &ics, Strategy::CimOnly).pattern;
        let acim_r = minimize_with(&q, &ics, Strategy::AcimOnly).pattern;
        let both = minimize_with(&q, &ics, Strategy::CdmThenAcim).pattern;
        assert!(isomorphic(&cim_r, &acim_r));
        assert!(isomorphic(&cim_r, &both));
    }

    #[test]
    fn stats_total_time_covers_phases() {
        let (q, ics, _) =
            setup("Book*[/Title][/Publisher][//LastName]", "Book -> Publisher\nBook ->> LastName");
        let out = minimize(&q, &ics);
        assert!(out.stats.total_time >= out.stats.tables_time);
        assert!(out.stats.total_removed() >= 1);
    }

    #[test]
    fn default_strategy_is_cdm_then_acim() {
        assert_eq!(Strategy::default(), Strategy::CdmThenAcim);
    }

    #[test]
    fn repeated_one_shot_calls_reuse_one_shared_engine() {
        // The engine cache keys sets by type id, so other tests may share
        // this entry; none of them fills its memo.
        let (q, ics, _) =
            setup("Quire*[/Folio][/Binding][//Gathering]", "Quire -> Binding\nQuire ->> Gathering");
        let a = minimize(&q, &ics);
        let engine = shared_engine(&ics, Strategy::default());
        let b = minimize(&q, &ics);
        let c = minimize(&q, &ics);
        assert!(
            Arc::ptr_eq(&engine, &shared_engine(&ics, Strategy::default())),
            "repeated one-shot calls keep using one cached engine (and its closure)"
        );
        assert!(isomorphic(&a.pattern, &b.pattern) && isomorphic(&b.pattern, &c.pattern));
        // The engine's memo is bypassed: a repeat still runs the pipeline.
        assert!(c.stats.redundancy_tests > 0, "a repeat reports its own work");
        assert_eq!(c.stats.redundancy_tests, a.stats.redundancy_tests);
        assert_eq!(engine.cache_len(), 0, "one-shot calls never fill the memo");
    }
}
