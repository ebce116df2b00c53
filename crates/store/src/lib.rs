//! # odc-store
//!
//! The instance-scale data plane for the *OLAP Dimension Constraints*
//! reproduction: a columnar fact store that makes the paper's
//! summarizability verdicts load-bearing for rollup execution at
//! million-fact scale.
//!
//! Three ideas, layered:
//!
//! 1. **Columnar planes** ([`FactStore`]): struct-of-arrays member
//!    columns per dimension (interned keys/names, category, parents)
//!    plus fact columns (one member column per dimension, one measure
//!    column), with a global [`Interner`] and per-category [`BitSet`]
//!    membership indexes.
//! 2. **Incremental C1–C7 validation**: each ingested batch
//!    ([`StagedBatch`]) is checked as a *delta* against the maintained
//!    indexes — "validate the batch, not the world". Because member
//!    re-declaration is a typed error, committed members never gain
//!    violations, so checking the delta suffices. Every rejection is a
//!    typed [`IngestError`] naming the offending row, dimension column,
//!    and violated condition. A batch borrows the stream text it was
//!    parsed from (fact keys and parent keys are flat columns of
//!    `&str`), staging hashes each key once and keeps new keys in
//!    batch-local tables, and only the commit interns them — so
//!    [`FactStore::check_batch`] leaves the store untouched, and ingest
//!    allocates per batch, not per row or member.
//!    [`FactStore::ingest_batch_full`] keeps full revalidation alive as
//!    the differential oracle (and the benchmark baseline).
//! 3. **Constraint-aware rollup execution**:
//!    [`FactStore::materialize`] computes cuboids straight off the
//!    rollup columns through `odc_olap::group_by` (byte-identical to
//!    `odc_olap::cuboid`), measured
//!    category cardinalities feed `odc_olap::choose_source`, and
//!    [`FactStore::summarizability_verdict`] derives the per-dimension
//!    safety gate from the store itself when no advisor verdicts are
//!    supplied.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod batch;
pub mod bitset;
pub mod error;
pub mod intern;
pub mod store;

pub use batch::{parse_batch, RawFact, RawMember, StagedBatch};
pub use bitset::BitSet;
pub use error::IngestError;
pub use intern::Interner;
pub use store::{BatchStats, FactStore};
