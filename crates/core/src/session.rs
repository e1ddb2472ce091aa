//! A reusable minimization session.
//!
//! Query optimizers minimize many patterns against one schema. Closing
//! the constraint set is quadratic and needs doing once; [`Minimizer`]
//! owns the closed set (plus the chosen strategy) and exposes one-call
//! minimization, equivalence and minimality checks against it.
//!
//! ```
//! use tpq_base::TypeInterner;
//! use tpq_constraints::parse_constraints;
//! use tpq_core::session::Minimizer;
//! use tpq_pattern::parse_pattern;
//!
//! let mut tys = TypeInterner::new();
//! let ics = parse_constraints("Book -> Title", &mut tys).unwrap();
//! let mini = Minimizer::new(&ics);
//! let q = parse_pattern("Book*[/Title][/Author]", &mut tys).unwrap();
//! let m = mini.minimize(&q).pattern;
//! assert_eq!(m.size(), 2);
//! assert!(mini.equivalent(&q, &m));
//! assert!(mini.is_minimal(&m));
//! assert!(!mini.is_minimal(&q));
//! ```

use crate::cdm::cdm_in_place_guarded;
use crate::cim::cim_with_stats_guarded;
use crate::containment;
use crate::incremental::acim_incremental_closed_guarded;
use crate::pipeline::{MinimizeOutcome, Strategy};
use crate::stats::MinimizeStats;
use std::time::Instant;
use tpq_base::{BudgetResource, Error, Guard, Result};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{isomorphic, TreePattern};

/// A minimization context holding a logically closed constraint set.
#[derive(Debug, Clone)]
pub struct Minimizer {
    closed: ConstraintSet,
    strategy: Strategy,
}

impl Minimizer {
    /// Build a session from a (not necessarily closed) constraint set,
    /// using the default strategy ([`Strategy::CdmThenAcim`]).
    pub fn new(ics: &ConstraintSet) -> Self {
        Minimizer { closed: ics.closure(), strategy: Strategy::default() }
    }

    /// Build with an explicit strategy.
    pub fn with_strategy(ics: &ConstraintSet, strategy: Strategy) -> Self {
        Minimizer { closed: ics.closure(), strategy }
    }

    /// Build from a constraint set that is **already closed** (e.g. one
    /// taken from another session or a [`crate::shared_engine`]). The
    /// quadratic closure computation is skipped; passing a non-closed set
    /// silently under-minimizes, so only hand this sets produced by
    /// [`ConstraintSet::closure`].
    pub fn from_closed(closed: ConstraintSet, strategy: Strategy) -> Self {
        Minimizer { closed, strategy }
    }

    /// The closed constraint set this session minimizes under.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.closed
    }

    /// The strategy this session runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Minimize one query.
    pub fn minimize(&self, q: &TreePattern) -> MinimizeOutcome {
        minimize_closed(q, &self.closed, self.strategy)
    }

    /// Minimize one query under a [`Guard`] (deadline, step budget,
    /// cooperative cancellation). A tripped guard returns a
    /// [`Error::Budget`] error and leaves the input untouched.
    pub fn minimize_guarded(&self, q: &TreePattern, guard: &Guard) -> Result<MinimizeOutcome> {
        minimize_closed_guarded(q, &self.closed, self.strategy, guard)
    }

    /// `q1 ⊆ q2` under the session's constraints.
    pub fn contains(&self, q1: &TreePattern, q2: &TreePattern) -> bool {
        containment::contains_under(q1, q2, &self.closed)
    }

    /// `q1 ≡ q2` under the session's constraints.
    pub fn equivalent(&self, q1: &TreePattern, q2: &TreePattern) -> bool {
        containment::equivalent_under(q1, q2, &self.closed)
    }

    /// [`Minimizer::equivalent`] under a [`Guard`].
    pub fn equivalent_guarded(
        &self,
        q1: &TreePattern,
        q2: &TreePattern,
        guard: &Guard,
    ) -> Result<bool> {
        containment::equivalent_under_guarded(q1, q2, &self.closed, guard)
    }

    /// Is `q` already minimal under the session's constraints? (True iff
    /// minimization leaves it isomorphic — minimal queries are unique,
    /// Theorem 5.1.)
    pub fn is_minimal(&self, q: &TreePattern) -> bool {
        let m = self.minimize(q).pattern;
        m.size() == q.size() && isomorphic(&m, q)
    }
}

/// Minimize `q` under an **already closed** constraint set with the given
/// strategy. This is the shared core behind [`Minimizer::minimize`], the
/// one-shot [`crate::pipeline::minimize_with`] and the batch engine — the
/// closure is never recomputed here.
pub fn minimize_closed(
    q: &TreePattern,
    closed: &ConstraintSet,
    strategy: Strategy,
) -> MinimizeOutcome {
    minimize_closed_guarded(q, closed, strategy, &Guard::unlimited())
        .expect("unlimited guard cannot trip and no failpoint is armed")
}

/// [`minimize_closed`] under a [`Guard`]: the guard is threaded through
/// every strategy (redundancy tests, table builds, chase steps, CDM
/// sweeps). On a tripped guard the input is untouched — all strategies
/// work on internal clones — and the error reports which resource ran
/// out. Budget trips also bump the `guard.timeout` / `guard.budget` /
/// `guard.cancel` observability counters.
pub fn minimize_closed_guarded(
    q: &TreePattern,
    closed: &ConstraintSet,
    strategy: Strategy,
    guard: &Guard,
) -> Result<MinimizeOutcome> {
    let _span = tpq_obs::span!("minimize");
    let mut stats = MinimizeStats::default();
    let t0 = Instant::now();
    let mut run = || -> Result<TreePattern> {
        Ok(match strategy {
            Strategy::CimOnly => cim_with_stats_guarded(q, &mut stats, guard)?,
            Strategy::AcimOnly => acim_incremental_closed_guarded(q, closed, &mut stats, guard)?,
            Strategy::CdmOnly => {
                let mut work = q.clone();
                cdm_in_place_guarded(&mut work, closed, &mut stats, guard)?;
                work.compact().0
            }
            Strategy::CdmThenAcim => {
                let mut work = q.clone();
                cdm_in_place_guarded(&mut work, closed, &mut stats, guard)?;
                let (prefiltered, _) = work.compact();
                acim_incremental_closed_guarded(&prefiltered, closed, &mut stats, guard)?
            }
        })
    };
    let pattern = run().inspect_err(note_budget_trip)?;
    stats.total_time = t0.elapsed();
    Ok(MinimizeOutcome { pattern, stats })
}

/// Record a budget trip on the observability counters (the base crate
/// cannot depend on `tpq-obs`, so the counters are bumped where the
/// errors surface).
pub(crate) fn note_budget_trip(e: &Error) {
    if let Error::Budget { resource, .. } = e {
        let name = match resource {
            BudgetResource::Deadline => "guard.timeout",
            BudgetResource::Steps => "guard.budget",
            BudgetResource::Cancelled => "guard.cancel",
        };
        tpq_obs::incr(name, 1);
    }
}

/// Is `q` minimal in the absence of constraints? (Theorem 4.1.)
pub fn is_minimal(q: &TreePattern) -> bool {
    let m = crate::cim::cim(q);
    m.size() == q.size() && isomorphic(&m, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::parse_pattern;

    fn setup() -> (Minimizer, TypeInterner) {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();
        (Minimizer::new(&ics), tys)
    }

    #[test]
    fn reusable_across_queries() {
        let (mini, mut tys) = setup();
        let cases = [
            ("Articles/Article*[/Title]//Section//Paragraph", 3),
            ("Article*[/Title]", 1),
            ("Article*//Section", 2),
            ("Section*//Paragraph", 1),
        ];
        for (src, want) in cases {
            let q = parse_pattern(src, &mut tys).unwrap();
            let m = mini.minimize(&q).pattern;
            assert_eq!(m.size(), want, "{src}");
            assert!(mini.equivalent(&q, &m), "{src}");
        }
    }

    #[test]
    fn minimality_checks() {
        let (mini, mut tys) = setup();
        let minimal = parse_pattern("Article*//Section", &mut tys).unwrap();
        let redundant = parse_pattern("Article*[/Title]//Section", &mut tys).unwrap();
        assert!(mini.is_minimal(&minimal));
        assert!(!mini.is_minimal(&redundant));
        // Constraint-free minimality.
        let q = parse_pattern("a*[//b]//b//c", &mut tys).unwrap();
        assert!(!is_minimal(&q));
        assert!(is_minimal(&crate::cim::cim(&q)));
    }

    #[test]
    fn strategies_share_the_session() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let q = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
        for strategy in
            [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim]
        {
            let mini = Minimizer::with_strategy(&ics, strategy);
            let m = mini.minimize(&q).pattern;
            match strategy {
                Strategy::CimOnly => assert_eq!(m.size(), 3, "CIM ignores ICs"),
                _ => assert_eq!(m.size(), 2),
            }
        }
    }

    #[test]
    fn session_constraints_are_closed() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b\nb -> c", &mut tys).unwrap();
        let mini = Minimizer::new(&ics);
        let (a, c) = (tys.lookup("a").unwrap(), tys.lookup("c").unwrap());
        assert!(mini.constraints().has_required_descendant(a, c));
    }
}
