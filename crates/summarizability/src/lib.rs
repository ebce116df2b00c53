//! # odc-summarizability
//!
//! Summarizability reasoning for heterogeneous OLAP dimensions — the
//! application layer of Hurtado & Mendelzon, *OLAP Dimension Constraints*
//! (PODS 2002).
//!
//! **Theorem 1**: a category `c` is summarizable from a set of categories
//! `S` in a dimension instance `d` iff for every bottom category `c_b`,
//!
//! ```text
//! d ⊨ c_b.c ⊃ ⊙_{ci ∈ S} c_b.ci.c
//! ```
//!
//! — every base member that rolls up to `c` does so through *exactly one*
//! of the categories of `S`. This turns summarizability into a dimension
//! constraint, so:
//!
//! * **instance-level** testing evaluates the constraint directly
//!   ([`is_summarizable_in_instance`]), and
//! * **schema-level** testing (does it hold in *every* instance of the
//!   schema?) reduces to constraint implication, decided by DIMSAT
//!   ([`is_summarizable_in_schema`]).
//!
//! On top of the test sits the [`navigator`]: Kimball's *aggregate
//! navigator* recast with sound foundations — given the precomputed
//! (materialized) cube views, find which combinations can answer a query
//! at category `c`, and rewrite the query accordingly
//! ([`navigator::execute`] actually computes the rewritten answer through
//! the `odc-olap` substrate).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod advisor;
pub mod infer;
pub mod instance_check;
pub mod navigator;
pub mod theorem1;

pub use instance_check::is_summarizable_in_instance;
pub use theorem1::{
    decide_from_pool, is_summarizable_in_schema, is_summarizable_in_schema_run,
    is_summarizable_in_schema_session, summarizability_constraints, SummarizabilityOutcome,
    SummarizabilityVerdict,
};
