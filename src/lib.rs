//! # olap-dimension-constraints
//!
//! Workspace root for the reproduction of Hurtado & Mendelzon, *OLAP
//! Dimension Constraints* (PODS 2002). This crate re-exports the
//! [`odc_core`] facade and hosts the runnable examples (`examples/`) and
//! cross-crate integration tests (`tests/`).
//!
//! See `README.md` for the tour, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for the paper-versus-measured record.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub use odc_core::*;

/// Re-export of the workload crate (schema catalog and generators), used
/// by the examples and benchmarks.
pub use odc_workload as workload;
