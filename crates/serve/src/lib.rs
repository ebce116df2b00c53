//! # odc-serve
//!
//! A resident constraint-reasoning server for OLAP dimension schemas:
//! the amortization layer the one-shot CLI cannot provide. The paper's
//! reasoning problems (Hurtado & Mendelzon, PODS 2002) interrogate the
//! *same* schema over and over — Theorem 2 turns implication into
//! satisfiability queries, Theorem 1 turns summarizability into
//! implication batteries — so a long-lived process that keeps parsed
//! schemas and warm [`ImplicationCache`]s resident pays the schema cost
//! once and answers the rest from cache.
//!
//! The crate is zero-dependency (`std::net` + the workspace's own
//! layers):
//!
//! * [`catalog`] — the resident schema catalog: parsed
//!   `DimensionSchema`s, fingerprints, warm per-schema caches shared
//!   across worker threads.
//! * [`protocol`] — the line-delimited request grammar (mirroring the
//!   `odc` CLI) and dot-framed response blocks.
//! * [`server`] — configuration, shared state, and graceful drain
//!   around one event-driven readiness loop (unix only). Per-request
//!   [`odc_core::Governor`] budgets capped by a server-wide policy,
//!   disconnect-cancellation, drain that checkpoints interrupted solves
//!   as `odc-checkpoint v1` envelopes and persists warm caches.
//! * [`client`] — the blocking client `odc client`, the load generator,
//!   and the tests speak through.
//!
//! Internal layers behind [`server`]: `poller` (zero-dep epoll /
//! `poll(2)` readiness), `event` (the nonblocking connection state
//! machine plus schema-affinity solver shards), `exec` (command
//! execution, kept off the wire so responses match the CLI byte for
//! byte),
//! and `persist` (warm-cache serialization for restart-warm starts).
//!
//! [`ImplicationCache`]: odc_core::dimsat::ImplicationCache

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod catalog;
pub mod client;
#[cfg(unix)]
mod event;
mod exec;
pub mod persist;
#[cfg(unix)]
mod poller;
pub mod protocol;
pub mod server;

pub use catalog::{CatalogEntry, SchemaCatalog};
pub use exec::PARTIAL_LISTING_CAP;
pub use client::{retry_backoff, Client, ClientError};
pub use protocol::{BudgetAsk, Command, Response};
pub use server::{ServeConfig, ServeStats, Server, ShutdownHandle};
