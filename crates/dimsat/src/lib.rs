//! # odc-dimsat
//!
//! The **DIMSAT** algorithm (Section 5, Figure 6 of Hurtado & Mendelzon,
//! *OLAP Dimension Constraints*, PODS 2002): a backtracking search that
//! decides *category satisfiability* — and, through Theorem 2, the
//! *implication problem* for dimension constraints.
//!
//! ## How it works
//!
//! DIMSAT explores subhierarchies of the hierarchy schema rooted at the
//! query category, expanding one frontier category (`ctop ∈ g.Top`) at a
//! time with a subset `R` of its schema parents. Three prunings cut the
//! space (Figure 6, lines 10–17):
//!
//! * **cycles** — `R` may not contain a category that already reaches
//!   `ctop` (`Sc`);
//! * **shortcuts** — `R` may not contain a category with an in-edge from
//!   something that reaches `ctop` (`Ss`);
//! * ***into* constraints** — every constraint `ctop_c'` of `Σ` forces
//!   `c' ∈ R`, so only supersets of the into-parents are tried.
//!
//! When `g.Top = {All}`, the CHECK procedure reduces `Σ(ds, c) ∘ g`
//! (Definition 8) and searches for a satisfying c-assignment
//! (Proposition 2); success means `g` induces a frozen dimension, which
//! witnesses satisfiability (Theorem 3).
//!
//! ## Deviations from the paper's pseudocode (documented in DESIGN.md)
//!
//! * Figure 6 line 16 iterates over *non-empty* `S' ⊆ (S \ Into)`; when
//!   `S = Into ≠ ∅` that would skip the legitimate choice `R = Into`. We
//!   iterate over all `S'` (empty included) and require `R = S' ∪ Into`
//!   to be non-empty.
//! * `Ss`/`Sc` miss one shortcut shape (two members of the same `R` where
//!   one already reaches the other); we prune it eagerly and additionally
//!   validate acyclicity/shortcut-freeness before CHECK, counting any
//!   late rejection in [`SearchStats::late_rejections`] (zero in all our
//!   tests — the eager pruning is complete in practice).
//!
//! ## Ablations
//!
//! [`DimsatOptions`] can disable the into pruning and/or the eager
//! structural pruning (falling back to generate-and-test), which is how
//! the benchmark suite quantifies the paper's conjecture that the into
//! heuristic "should have a major impact in practice".
//!
//! ```
//! use odc_hierarchy::HierarchySchema;
//! use odc_constraint::DimensionSchema;
//! use odc_dimsat::Dimsat;
//! use std::sync::Arc;
//!
//! let mut b = HierarchySchema::builder();
//! let store = b.category("Store");
//! let city = b.category("City");
//! b.edge(store, city);
//! b.edge_to_all(city);
//! let g = Arc::new(b.build().unwrap());
//! let ds = DimensionSchema::parse(g, "Store_City\n").unwrap();
//!
//! let outcome = Dimsat::new(&ds).category_satisfiable(store);
//! assert!(outcome.is_sat());
//! ```
//!
//! ## Resource governance
//!
//! Category satisfiability is NP-complete (Theorem 4) and DIMSAT is
//! worst-case exponential (Proposition 4), so every solve entrypoint is
//! *governed*: attach a [`odc_govern::Budget`] and/or
//! [`odc_govern::CancelToken`] via [`Dimsat::with_budget`] /
//! [`Dimsat::with_cancel_token`] and the search returns a three-valued
//! [`Verdict`] — `Sat(witness)`, `Unsat`, or `Unknown(interrupt)` with
//! the partial [`SearchStats`] — instead of running unboundedly.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod anytime;
pub mod checkpoint;
pub mod implication;
pub mod options;
pub mod run;
pub mod solver;
pub mod stats;
pub mod trace;

pub use anytime::{AnytimeDriver, AnytimeReport};
pub use checkpoint::SolveCheckpoint;
pub use implication::{
    implies, implies_governed, implies_memo, implies_memo_session, implies_with,
    schema_fingerprint, CacheSession, ImplicationCache, ImplicationOutcome, ImplicationVerdict,
};
pub use options::{DimsatOptions, TopOrder};
pub use run::{AuditItem, ItemAnswer, ItemCache, Run};
pub use solver::{CategorySweep, Dimsat, DimsatOutcome, Verdict};
pub use stats::SearchStats;
pub use trace::TraceEvent;
