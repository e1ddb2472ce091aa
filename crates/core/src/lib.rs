//! Tree pattern query minimization — the core algorithms of
//! *Minimization of Tree Pattern Queries* (SIGMOD 2001).
//!
//! # Overview
//!
//! * [`contains()`](fn@contains) / [`equivalent()`](fn@equivalent) — containment and equivalence of tree
//!   patterns via containment mappings (Section 4);
//! * [`cim()`](fn@cim) — **C**onstraint-**I**ndependent **M**inimization: the unique
//!   minimal equivalent query in the absence of integrity constraints
//!   (Theorem 4.1), computed by maximal elimination orderings over the
//!   polynomial redundant-leaf test of Figure 3;
//! * [`contains_under()`](fn@contains_under) / [`equivalent_under()`](fn@equivalent_under) — containment and
//!   equivalence *under* a set of required-child / required-descendant /
//!   co-occurrence constraints (Section 5);
//! * [`acim()`](fn@acim) — **A**ugmented CIM: chase-style augmentation with temporary
//!   nodes, then CIM, then stripping; always yields the unique minimal
//!   equivalent query under the constraints (Theorem 5.1);
//! * [`cdm()`](fn@cdm) — **C**onstraint-**D**ependent **M**inimization: the fast
//!   local-pruning pass driven by information-content propagation
//!   (Figures 4 and 6); produces a locally minimal query (Theorem 5.2);
//! * [`minimize()`](fn@minimize) — the recommended pipeline, CDM as a pre-filter followed
//!   by ACIM (Theorem 5.3), with per-phase statistics.
//!
//! # Example
//!
//! ```
//! use tpq_base::TypeInterner;
//! use tpq_pattern::parse_pattern;
//! use tpq_constraints::parse_constraints;
//! use tpq_core::{cim, minimize};
//!
//! let mut tys = TypeInterner::new();
//! // Figure 2(h): OrgUnits containing a Dept with a Researcher managing a
//! // DBProject, and a Dept descendant containing a DBProject.
//! let q = parse_pattern(
//!     "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
//!     &mut tys,
//! ).unwrap();
//! let m = cim(&q);
//! assert_eq!(m.size(), 4); // Figure 2(i): the right branch folds away
//!
//! // Figure 2(b) + the IC Section ->> Paragraph gives Figure 2(e).
//! let q = parse_pattern(
//!     "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
//!     &mut tys,
//! ).unwrap();
//! let ics = parse_constraints("Section ->> Paragraph", &mut tys).unwrap();
//! let out = minimize(&q, &ics);
//! assert_eq!(out.pattern.size(), 3); // Figure 2(e): Articles/Article*//Section
//! ```

#![warn(missing_docs)]

pub mod acim;
pub mod batch;
pub mod cdm;
pub mod chase;
pub mod cim;
pub mod containment;
pub mod explain;
pub mod incremental;
pub mod info;
pub mod local;
pub mod mapping;
pub mod pipeline;
pub mod redundant;
pub mod session;
pub mod stats;

pub use acim::{acim, acim_closed, acim_closed_guarded, acim_with_stats};
pub use batch::{
    clear_engine_cache, export_engines, seed_engine, shared_engine, BatchMinimizer, BatchOutcome,
    BatchStats, CachedOutcome, GuardedBatchOutcome,
};
pub use cdm::{cdm, cdm_closed, cdm_in_place, cdm_in_place_guarded, cdm_with_stats};
pub use chase::{augment, augment_guarded, chase};
pub use cim::{
    cim, cim_in_place, cim_in_place_guarded, cim_with_order, cim_with_stats, cim_with_stats_guarded,
};
pub use containment::{
    contains, contains_guarded, contains_under, contains_under_guarded, equivalent,
    equivalent_guarded, equivalent_under, equivalent_under_guarded,
};
pub use explain::{explain, explain_guarded, ChaseFact, Deletion, Explanation, Reason};
pub use incremental::{
    acim_incremental_closed, acim_incremental_closed_guarded, cim_incremental,
    cim_incremental_with_stats, CimEngine,
};
pub use local::locally_redundant_leaves;
pub use mapping::{has_homomorphism, has_homomorphism_guarded, has_homomorphism_naive};
pub use pipeline::{minimize, minimize_with, minimize_with_guarded, MinimizeOutcome, Strategy};
pub use redundant::{redundant_leaf, redundant_leaf_guarded};
pub use session::{is_minimal, minimize_closed, minimize_closed_guarded, Minimizer};
pub use stats::MinimizeStats;
