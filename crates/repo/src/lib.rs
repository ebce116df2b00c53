//! `odc-repo` — a crash-safe, zero-dependency on-disk verdict
//! repository for the OLAP Dimension Constraints reasoning stack.
//!
//! The reasoning engines of this reproduction (DIMSAT satisfiability,
//! constraint implication, Theorem-1 summarizability batteries, the
//! design-stage audit) are deterministic: the same schema, query, and
//! options always produce the same verdict. That makes verdicts
//! *durable facts*, and this crate gives them a home that survives
//! crashes and schema edits:
//!
//! * [`VerdictRepo`] — append-only CRC-framed segments plus a
//!   rebuildable index; torn tails from a SIGKILL or torn sector are
//!   detected, quarantined, and truncated on the next open, so a
//!   lookup returns the correct verdict or a clean miss, never a
//!   wrong answer. A lock file keeps one writer per directory;
//!   other processes degrade to lockless readers.
//! * [`footprint`] — every stored verdict carries the category
//!   regions its proof examined. A schema edit invalidates only the
//!   footprint-overlapping verdicts; the rest migrate to the edited
//!   schema's fingerprint unchanged.
//! * [`drivers`] — the repository as the audit's per-item cache
//!   (`odc_dimsat::ItemCache`): hits answer from disk, misses solve and
//!   store, and interrupted items persist their checkpoint cursors as
//!   pending records that warm start the next attempt.
//!
//! Fault injection from `odc-govern` (`IoFaultPlan`: torn writes,
//! skipped renames, stale locks) threads through every write site, so
//! each recovery path is deterministically testable.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod crc;
pub mod drivers;
pub mod footprint;
pub mod fsutil;
pub mod record;
pub mod store;

pub use drivers::{audit_with_repo, sub_key};
pub use crc::crc32;
pub use footprint::{
    failing_bottom, region, regions, summarizable_footprint, survives, SchemaSummary,
    STRUCTURE_SENTINEL,
};
pub use fsutil::atomic_write;
pub use record::{RecordBody, StoredVerdict, VerdictKey};
pub use store::{RepoStats, SchemaSync, VerdictRepo};
